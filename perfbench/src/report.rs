//! The metric catalogue and the result line.
//!
//! Every workload reports every end-to-end metric in an untraced run
//! and every per-layer metric in a traced run, so a later change is
//! compared on the same names everywhere. A per-layer metric whose
//! layer a workload does not exercise reads 0 there.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, moves }
}

/// Metrics a user of the counter sees. Latencies are in clock ticks of
/// the executor under test: host nanoseconds on the shared-memory
/// workloads (the `RealSync` clock the repository's executor spans use)
/// and simulated ticks on the message-passing workloads.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower", "set-up: build the counter, split or boot and settle"),
    m("tokens_per_s", "1/s", "higher", "host wall clock, tokens handed out per second"),
    m(
        "latency_p50_ticks",
        "tick",
        "lower",
        "shm: sampled next_value ns; dist: inject-to-count ticks",
    ),
    m(
        "latency_p99_ticks",
        "tick",
        "lower",
        "shm: sampled next_value ns; dist: inject-to-count ticks",
    ),
    m("peak_rss_mb", "MB", "lower", "peak resident set of the benchmark process"),
];

/// Metrics of single layers, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "frontend.refills_per_ktok",
        "1/ktok",
        "lower",
        "tokens_per_s and frontend.order_dev_p99 up on shm_hot",
    ),
    m(
        "frontend.batch_mean",
        "tok",
        "higher",
        "tokens_per_s and frontend.order_dev_p99 up on shm_hot",
    ),
    m("frontend.elim_hit_frac", "frac", "higher", "tokens_per_s on shm_hot"),
    m("frontend.spills", "count", "lower", "tokens_per_s on shm_hot"),
    m("frontend.order_dev_p99", "tok", "lower", "freshness price of batching on shm_hot"),
    m(
        "concurrent.next_batch_ns_p50",
        "ns",
        "lower",
        "tokens_per_s and latency_p50_ticks on shm_hot",
    ),
    m(
        "concurrent.next_value_ns_p50",
        "ns",
        "lower",
        "tokens_per_s and latency_p50_ticks on shm_hot",
    ),
    m("concurrent.split_us_p50", "us", "lower", "latency_p99_ticks and tokens_per_s on shm_adapt"),
    m("concurrent.merge_us_p50", "us", "lower", "latency_p99_ticks and tokens_per_s on shm_adapt"),
    m("concurrent.snapshot_retries_per_ktok", "1/ktok", "lower", "latency_p99_ticks on shm_adapt"),
    m("concurrent.reconfigs", "count", "lower", "latency_p99_ticks on shm_adapt; 0 on shm_hot"),
    m("ref.central_tok_s", "1/s", "higher", "none: baseline shm_hot must beat"),
    m("ref.central_batched_tok_s", "1/s", "higher", "none: baseline shm_hot must beat"),
    m("ref.static_bitonic_tok_s", "1/s", "higher", "none: baseline shm_hot must beat"),
    m("sim.events_per_token", "1/tok", "lower", "tokens_per_s on dist_steady and dist_churn"),
    m("sim.timers_per_token", "1/tok", "lower", "tokens_per_s on dist_steady and dist_churn"),
    m("sim.step_ns_p50", "ns", "lower", "tokens_per_s on dist_steady and dist_churn"),
    m("dist.msgs_per_token", "1/tok", "lower", "tokens_per_s on dist_steady and dist_churn"),
    m(
        "dist.latency_p999_ticks",
        "tick",
        "lower",
        "tail latency beyond latency_p99_ticks on dist_churn",
    ),
    m(
        "dist.routing_hops_mean",
        "hop",
        "lower",
        "latency_p50_ticks and dist.msgs_per_token on dist_steady",
    ),
    m(
        "dist.dht_lookups_per_token",
        "1/tok",
        "lower",
        "latency_p50_ticks and dist.msgs_per_token on dist_steady",
    ),
    m(
        "dist.retransmits_per_token",
        "1/tok",
        "lower",
        "latency_p99_ticks on dist_churn; ~0 on dist_steady",
    ),
    m(
        "dist.nacks_per_token",
        "1/tok",
        "lower",
        "latency_p99_ticks on dist_churn; ~0 on dist_steady",
    ),
    m("dist.dup_drops", "count", "lower", "dist.msgs_per_token on dist_churn; ~0 on dist_steady"),
    m(
        "dist.gossip_per_token",
        "1/tok",
        "lower",
        "dist.msgs_per_token on dist_churn; flat on dist_steady",
    ),
    m(
        "dist.pings_per_token",
        "1/tok",
        "lower",
        "dist.msgs_per_token on dist_churn; flat on dist_steady",
    ),
    m("dist.splits", "count", "lower", "latency_p99_ticks and dist.msgs_per_token on dist_churn"),
    m("dist.merges", "count", "lower", "latency_p99_ticks and dist.msgs_per_token on dist_churn"),
    m(
        "dist.merge_abort_frac",
        "frac",
        "lower",
        "latency_p99_ticks and dist.msgs_per_token on dist_churn",
    ),
    m("dist.split_ticks_p50", "tick", "lower", "latency_p99_ticks on dist_churn"),
    m("dist.merge_ticks_p50", "tick", "lower", "latency_p99_ticks on dist_churn"),
    m("dist.drained_tokens", "count", "lower", "latency_p99_ticks on dist_churn"),
    m(
        "dist.fd.detection_ticks_p50",
        "tick",
        "lower",
        "dist.latency_p999_ticks and failed_frac on dist_churn",
    ),
    m(
        "dist.fd.false_suspects",
        "count",
        "lower",
        "dist.latency_p999_ticks and failed_frac on dist_churn",
    ),
    m(
        "dist.rescue.ticks_p50",
        "tick",
        "lower",
        "dist.latency_p999_ticks and failed_frac on dist_churn",
    ),
    m(
        "dist.rescue.installs",
        "count",
        "lower",
        "dist.latency_p999_ticks and failed_frac on dist_churn",
    ),
    m(
        "dist.backoff.sheds",
        "count",
        "lower",
        "dist.latency_p999_ticks and failed_frac on dist_churn",
    ),
    m("dist.lost_tokens", "count", "lower", "failed_frac on dist_churn; 0 on dist_steady"),
    m("overlay.join_us_p50", "us", "lower", "tokens_per_s on dist_churn; 0 on dist_steady"),
    m("overlay.leave_us_p50", "us", "lower", "tokens_per_s on dist_churn; 0 on dist_steady"),
    m("overlay.crash_us_p50", "us", "lower", "tokens_per_s on dist_churn; 0 on dist_steady"),
    m(
        "overlay.migrations",
        "count",
        "lower",
        "dist.msgs_per_token on dist_churn; 0 on dist_steady",
    ),
    m("estimator.level_changes", "count", "lower", "dist.msgs_per_token on dist_churn"),
    m("trace.overhead_frac", "frac", "lower", "none: cost of observation"),
    m("trace.spans_dropped", "count", "lower", "none: cost of observation"),
    m("failed_frac", "frac", "lower", "operations missing, duplicated or lost / attempted"),
];

/// What one benchmark invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (tokens requested).
    pub attempted: u64,
    /// Operations missing, duplicated or lost.
    pub failed: u64,
    /// Correctness violations, one line each. Empty means correct.
    pub violations: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// What produced the numbers: threads, tokens, rounds, and so on.
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a provenance field.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// catalogue metric of the run's kind with its unit. A catalogue
    /// metric the run did not measure, or a value that is not finite,
    /// makes the run incorrect rather than printing a made-up number.
    #[must_use]
    pub fn result_line(&self, traced: bool) -> String {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut violations = self.violations.clone();
        let mut body = String::new();
        for (i, def) in defs.iter().enumerate() {
            let value = match self.metrics.get(def.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    violations.push(format!("metric {} is not finite: {v}", def.name));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    violations.push(format!("metric {} was not measured", def.name));
                    0.0
                }
            };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            violations.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The provenance as one JSON object.
    #[must_use]
    pub fn provenance_json(&self) -> String {
        let fields: Vec<String> =
            self.provenance.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v))).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Escapes `s` for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
