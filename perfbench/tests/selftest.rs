//! Self-tests of the benchmark: every workload prints every catalogue
//! metric with its unit, the catalogue matches `BENCHMARK.json`, the
//! simulated outcome of a dist round is a function of its seed alone,
//! and the dist gate reports a planted duplication fault as failures.

use acn_perfbench::dist::{run_round, DistPlan, DistRound, RoundOpts};
use acn_perfbench::report::{END_TO_END, PER_LAYER};
use acn_perfbench::{run, Config, Scale, Workload};

fn tiny(workload: Workload, traced: bool) -> Config {
    Config { workload, seed: 7, seconds: 0.001, traced, scale: Scale::tiny(), planted_fault: false }
}

#[test]
fn a_tiny_run_of_each_workload_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let result = run(&tiny(workload, traced));
            let line = result.outcome.result_line(traced);
            let ctx = format!("{} traced={traced}: {line}", workload.name());
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{ctx}");
            assert!(result.outcome.attempted > 0, "{ctx}");
            assert_eq!(result.outcome.failed, 0, "{ctx}");
            let defs = if traced { PER_LAYER } else { END_TO_END };
            for def in defs {
                let needle = format!("\"{}\": {{\"value\": ", def.name);
                let at =
                    line.find(&needle).unwrap_or_else(|| panic!("{} missing: {ctx}", def.name));
                let rest = &line[at + needle.len()..];
                let value: f64 =
                    rest[..rest.find(',').expect("value ends")].parse().expect("a number");
                assert!(value.is_finite(), "{ctx}");
                assert!(
                    rest.starts_with(&format!("{value:?}, \"unit\": \"{}\"}}", def.unit)),
                    "{} has the wrong unit: {ctx}",
                    def.name
                );
                if !traced {
                    assert!(value > 0.0, "end-to-end {} reads 0: {ctx}", def.name);
                }
            }
            if traced {
                assert!(!result.spans.is_empty(), "{ctx}: a traced run records spans");
            }
        }
    }
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            def.name, def.unit, def.better
        );
        assert_eq!(json.matches(&entry).count(), 1, "{entry} is not listed once");
    }
    assert_eq!(json.matches("\"unit\": ").count(), END_TO_END.len() + PER_LAYER.len());
    for workload in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())));
    }
    assert_eq!(json.matches("\"why\": ").count(), Workload::ALL.len());
}

/// Everything a round measured in simulated time, without host times.
fn simulated(r: &DistRound) -> String {
    let host = ["overlay.join_us_p50", "overlay.leave_us_p50", "overlay.crash_us_p50"];
    let layer: Vec<_> = r.layer.iter().filter(|(k, _)| !host.contains(k)).collect();
    format!("{} {} {} {:?} {:?} {layer:?}", r.injected, r.counted, r.lost, r.latency, r.violations)
}

#[test]
fn same_seed_dist_rounds_have_identical_simulated_outcomes() {
    let scale = Scale::tiny();
    let opts = RoundOpts { traced: false, planted_fault: false };
    for plan in [scale.steady, scale.churn, scale.crash] {
        let a = run_round(&plan, 11, 12, opts);
        let b = run_round(&plan, 11, 12, opts);
        assert_eq!(simulated(&a), simulated(&b), "{plan:?}");
        assert!(a.latency.as_ref().is_some_and(|h| h.count == a.counted), "{plan:?}");
    }
}

#[test]
fn the_dist_gate_reports_a_planted_duplication_fault_as_failures() {
    // The ack/retry layer never lets a retransmission race its ack at
    // the workloads' 10-tick jitter, so the dedup mutation is inert
    // there. Jitter beyond the retry interval makes the race common.
    let plan = DistPlan { jitter: Some(2_000), ..Scale::tiny().churn };
    for traced in [false, true] {
        let clean = run_round(&plan, 3, 4, RoundOpts { traced, planted_fault: false });
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
        assert_eq!(clean.duplicated, 0);
        let faulty = run_round(&plan, 3, 4, RoundOpts { traced, planted_fault: true });
        assert!(faulty.duplicated > 0, "traced={traced}: the planted fault went unnoticed");
        assert!(
            faulty.violations.iter().any(|v| v.contains("counted twice")),
            "{:?}",
            faulty.violations
        );
    }
    let cfg = Config {
        planted_fault: true,
        scale: Scale { churn: plan, ..Scale::tiny() },
        ..tiny(Workload::DistChurn, false)
    };
    let outcome = run(&cfg).outcome;
    assert!(outcome.failed > 0);
    assert!(outcome.result_line(false).starts_with("{\"correct\": false"));
}
