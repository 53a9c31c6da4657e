//! The repository benchmark.
//!
//! Four workloads drive the counter through its public APIs only:
//!
//! - `shm_hot`: 2 threads in a closed loop on `ShardedFrontEnd::next_value`
//!   (default configuration) over `SharedAdaptiveNetwork::new(8)` with the
//!   root split once, round-robin wires. The production shared-memory path
//!   under contention: front-end batching, stash and elimination, batched
//!   traversal; nothing of simnet or dist.
//! - `shm_adapt`: the same, and thread 0 alternates merge/split of the root
//!   after every fixed number of its own tokens, so the number of
//!   reconfigurations follows the token count, not timing. Puts the
//!   draining writer path, snapshot republish and stale-pin retries next to
//!   the hot path.
//! - `dist_steady`: `Deployment::new(16, 64, seed)` plus `settle` as set-up,
//!   then an open loop in simulated time, one token every 20 ticks on a
//!   seeded wire, then settle and drain. The message-passing token path and
//!   the simulator's event loop with fixed membership.
//! - `dist_churn`: the same traffic from 16 nodes; every 1000 tokens a
//!   burst of 8 joins grows the system to 96 nodes, then bursts of 8
//!   departures shrink it back, some bursts with one seeded crash and no
//!   harness repair. Overlay churn, estimator-driven splits and merges,
//!   failure detection, gossip and in-protocol rescue.
//!
//! An untraced run reports the end-to-end metrics of
//! [`report::END_TO_END`]; a traced run attaches the program's own
//! instruments (telemetry registry, tracer, the simulator's self-profiler),
//! wraps spans around the benchmark's calls into each layer, and reports
//! [`report::PER_LAYER`]. Every run checks the program's outputs.

pub mod dist;
pub mod report;
pub mod shm;
pub mod spans;
pub mod stats;

use std::hint::black_box;
use std::time::Instant;

use acn_overlay::splitmix64;
use acn_telemetry::Registry;
use acn_trace::{Span, Tracer};

use crate::dist::{DistPlan, DistRound, RoundOpts};
use crate::report::Outcome;
use crate::shm::{ShmPlan, ShmRound};
use crate::stats::{median, quantile};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Shared memory, fixed structure.
    ShmHot,
    /// Shared memory with root reconfigurations.
    ShmAdapt,
    /// Message passing, fixed membership.
    DistSteady,
    /// Message passing under churn and crashes.
    DistChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::ShmHot, Workload::ShmAdapt, Workload::DistSteady, Workload::DistChurn];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShmHot => "shm_hot",
            Workload::ShmAdapt => "shm_adapt",
            Workload::DistSteady => "dist_steady",
            Workload::DistChurn => "dist_churn",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Work sizes. [`Scale::full`] is what the command line runs;
/// [`Scale::tiny`] keeps self-tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `next_value` calls per thread per shared-memory round.
    pub shm_tokens_per_thread: u64,
    /// `shm_adapt`: thread-0 calls between two root reconfigurations.
    pub shm_reconfig_every: u64,
    /// `dist_steady` round.
    pub steady: DistPlan,
    /// `dist_churn` round.
    pub churn: DistPlan,
    /// The crash phase of a traced `dist_churn` run: crashes at fixed
    /// membership.
    pub crash: DistPlan,
    /// Rounds of the crash phase.
    pub crash_rounds: usize,
    /// Fewest set-ups timed for `setup_s`.
    pub setup_reps: usize,
    /// Timed calls per thread per network probe.
    pub probe_calls: u64,
    /// Tokens per thread per reference-counter run.
    pub ref_tokens_per_thread: u64,
}

impl Scale {
    /// The benchmark's sizes.
    #[must_use]
    pub fn full() -> Scale {
        Scale {
            shm_tokens_per_thread: 2_000_000,
            shm_reconfig_every: 16_384,
            steady: DistPlan {
                nodes: 64,
                tokens_per_segment: 8_000,
                bursts: 0,
                burst_size: 0,
                crashes: 0,
                jitter: None,
            },
            churn: DistPlan {
                nodes: 16,
                tokens_per_segment: 1_000,
                bursts: 10,
                burst_size: 8,
                crashes: 0,
                jitter: None,
            },
            crash: DistPlan {
                nodes: 64,
                tokens_per_segment: 1_000,
                bursts: 0,
                burst_size: 0,
                crashes: 4,
                jitter: None,
            },
            crash_rounds: 2,
            setup_reps: 51,
            probe_calls: 100_000,
            ref_tokens_per_thread: 2_000_000,
        }
    }

    /// Sizes for self-tests: a few milliseconds per round.
    #[must_use]
    pub fn tiny() -> Scale {
        Scale {
            shm_tokens_per_thread: 20_000,
            shm_reconfig_every: 1_000,
            steady: DistPlan { tokens_per_segment: 200, ..Scale::full().steady },
            churn: DistPlan {
                nodes: 8,
                tokens_per_segment: 100,
                bursts: 2,
                burst_size: 4,
                crashes: 0,
                jitter: None,
            },
            // Crashes closer together than detection plus rescue may lose
            // tokens, so the crash phase keeps its full spacing.
            crash: Scale::full().crash,
            crash_rounds: 1,
            setup_reps: 3,
            probe_calls: 1_000,
            ref_tokens_per_thread: 10_000,
        }
    }
}

/// One invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub traced: bool,
    /// Work sizes.
    pub scale: Scale,
    /// Plant the dist token-dedup mutation (self-tests only).
    pub planted_fault: bool,
}

/// What a run produced: the outcome and, for a traced run, the host
/// spans for the self-time table and the Chrome trace.
#[derive(Debug)]
pub struct RunResult {
    /// Metrics, gates and provenance.
    pub outcome: Outcome,
    /// Host-clock spans of the last traced round.
    pub spans: Vec<Span>,
}

/// Runs one workload as configured.
#[must_use]
pub fn run(cfg: &Config) -> RunResult {
    let mut outcome = Outcome::default();
    outcome.note("workload", cfg.workload.name());
    outcome.note("seed", cfg.seed);
    outcome.note("seconds", cfg.seconds);
    outcome.note("traced", cfg.traced);
    outcome
        .note("nproc", std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get));
    let spans = match cfg.workload {
        Workload::ShmHot | Workload::ShmAdapt => run_shm(cfg, &mut outcome),
        Workload::DistSteady | Workload::DistChurn => run_dist(cfg, &mut outcome),
    };
    if outcome.attempted == 0 {
        outcome.violations.push("no operation was attempted".to_string());
    }
    let failed = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.set("failed_frac", failed);
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    RunResult { outcome, spans }
}

/// Runs `round` back to back while the next one is expected to end
/// within `seconds` of the start, judging by the slowest so far, and at
/// least once. A workload whose round outlasts the run thus always runs
/// one round.
fn rounds_within<R>(seconds: f64, mut round: impl FnMut() -> R) -> Vec<R> {
    let start = Instant::now();
    let mut slowest = 0.0f64;
    let mut rounds = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if !rounds.is_empty() && elapsed + slowest > seconds {
            return rounds;
        }
        rounds.push(round());
        slowest = slowest.max(start.elapsed().as_secs_f64() - elapsed);
    }
}

/// Set-up samples per gap between rounds.
const SETUP_PER_GAP: usize = 3;

/// Times a set-up in small batches between rounds, so that the median
/// spans the whole run: host speed on a shared machine drifts within a
/// second, and a burst of set-ups at one moment reads one state of it.
struct SetupSampler<F> {
    setup: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupSampler<F> {
    fn new(setup: F) -> Self {
        SetupSampler { setup, times: Vec::new() }
    }

    /// One untimed set-up (a cold one measures the allocator, not the
    /// program), then `n` timed ones.
    fn sample(&mut self, n: usize) {
        black_box((self.setup)());
        for _ in 0..n {
            let t = Instant::now();
            black_box((self.setup)());
            self.times.push(t.elapsed().as_secs_f64());
        }
    }

    /// The median over at least `at_least` samples.
    fn median(mut self, at_least: usize) -> f64 {
        self.sample(at_least.saturating_sub(self.times.len()));
        median(&self.times)
    }
}

fn fold_shm(rounds: &[ShmRound], outcome: &mut Outcome) {
    for r in rounds {
        outcome.attempted += r.consumed;
        if !r.violations.is_empty() {
            outcome.failed += r.consumed;
            outcome.violations.extend(r.violations.iter().cloned());
        }
    }
}

fn run_shm(cfg: &Config, outcome: &mut Outcome) -> Vec<Span> {
    let s = &cfg.scale;
    let plan = ShmPlan {
        tokens_per_thread: s.shm_tokens_per_thread,
        reconfig_every: if cfg.workload == Workload::ShmAdapt { s.shm_reconfig_every } else { 0 },
    };
    outcome.note("threads", shm::THREADS);
    outcome.note("tokens_per_thread_per_round", plan.tokens_per_thread);
    outcome.note("reconfig_every", plan.reconfig_every);
    let tps = |rounds: &[ShmRound]| shm::median_of(rounds, ShmRound::tokens_per_s);
    let disabled = Tracer::disabled();
    if !cfg.traced {
        let mut setups = SetupSampler::new(|| shm::build(None, &Tracer::disabled()));
        setups.sample(SETUP_PER_GAP);
        let (rounds, _) =
            shm::run_rounds(&plan, cfg.seed, cfg.seconds, None, &disabled, &mut || {
                setups.sample(SETUP_PER_GAP);
            });
        outcome.set("setup_s", setups.median(s.setup_reps));
        outcome.note("rounds", rounds.len());
        fold_shm(&rounds, outcome);
        outcome.set("tokens_per_s", tps(&rounds));
        outcome.set("latency_p50_ticks", shm::median_of(&rounds, |r| r.latency_p50));
        outcome.set("latency_p99_ticks", shm::median_of(&rounds, |r| r.latency_p99));
        return Vec::new();
    }
    let phase = cfg.seconds / 3.0;
    let (plain, _) = shm::run_rounds(&plan, cfg.seed, phase, None, &disabled, &mut || {});
    let registry = Registry::new();
    let tracer = Tracer::with_sampling(1 << 16, 6);
    let before = registry.snapshot();
    let (traced, net) =
        shm::run_rounds(&plan, cfg.seed, phase, Some(&registry), &tracer, &mut || {});
    let snap = registry.snapshot().diff(&before);
    outcome.note("rounds", format!("{} untraced + {} traced", plain.len(), traced.len()));
    fold_shm(&plain, outcome);
    fold_shm(&traced, outcome);
    let tokens: u64 = traced.iter().map(|r| r.consumed).sum();
    let per_round = |name: &str| snap.counter(name).unwrap_or(0) as f64 / traced.len() as f64;
    let per_ktok = |name: &str| snap.counter(name).unwrap_or(0) as f64 * 1e3 / tokens.max(1) as f64;
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    outcome.set("frontend.refills_per_ktok", per_ktok("acn.exec.refills"));
    outcome.set(
        "frontend.batch_mean",
        c("acn.exec.batch_tokens") / c("acn.exec.batch_flushes").max(1.0),
    );
    let offers = c("acn.exec.elim_hits") + c("acn.exec.elim_timeouts") + c("acn.exec.elim_busy");
    outcome.set("frontend.elim_hit_frac", c("acn.exec.elim_hits") / offers.max(1.0));
    outcome.set("frontend.spills", per_round("acn.exec.elim_spills"));
    outcome.set("frontend.order_dev_p99", shm::median_of(&traced, |r| r.order_dev_p99));
    outcome.set("concurrent.snapshot_retries_per_ktok", per_ktok("acn.conc.snapshot_retries"));
    // The workers' own count: the registry also counts the set-up split.
    outcome.set(
        "concurrent.reconfigs",
        shm::median_of(&traced, |r| (r.split_ns.len() + r.merge_ns.len()) as f64),
    );
    let mut split_ns: Vec<u64> = traced.iter().flat_map(|r| r.split_ns.iter().copied()).collect();
    let mut merge_ns: Vec<u64> = traced.iter().flat_map(|r| r.merge_ns.iter().copied()).collect();
    outcome.set("concurrent.split_us_p50", quantile(&mut split_ns, 0.5) / 1e3);
    outcome.set("concurrent.merge_us_p50", quantile(&mut merge_ns, 0.5) / 1e3);

    let probe = spans::now();
    let (value_ns, batch_ns) = shm::probe_network(&net, s.probe_calls);
    outcome.set("concurrent.next_value_ns_p50", value_ns);
    outcome.set("concurrent.next_batch_ns_p50", batch_ns);
    spans::close(&tracer, "concurrent.probe", shm::THREADS as u64, probe);
    let refs = spans::now();
    let (rates, violations) = shm::reference_rates(s.ref_tokens_per_thread, 3);
    spans::close(&tracer, "ref.counters", shm::THREADS as u64, refs);
    outcome.violations.extend(violations);
    outcome.set("ref.central_tok_s", rates[0]);
    outcome.set("ref.central_batched_tok_s", rates[1]);
    outcome.set("ref.static_bitonic_tok_s", rates[2]);
    outcome.set("trace.overhead_frac", 1.0 - tps(&traced) / tps(&plain));
    outcome.set("trace.spans_dropped", tracer.dropped() as f64);

    let mut spans = traced.into_iter().last().map(|r| r.spans).unwrap_or_default();
    spans.extend(tracer.spans());
    spans
}

fn fold_dist(rounds: &[DistRound], outcome: &mut Outcome) {
    for r in rounds {
        outcome.attempted += r.injected;
        outcome.failed += r.lost + r.duplicated;
        outcome.violations.extend(r.violations.iter().cloned());
    }
}

/// Per-layer metrics of a `dist_churn` run that come from its crash
/// phase.
const CRASH_LAYER: [&str; 6] = [
    "dist.fd.detection_ticks_p50",
    "dist.rescue.ticks_p50",
    "dist.rescue.installs",
    "dist.backoff.sheds",
    "dist.lost_tokens",
    "overlay.crash_us_p50",
];

/// Sets each per-layer metric `keep` selects to its median over `rounds`.
fn set_layer_medians(rounds: &[DistRound], keep: impl Fn(&str) -> bool, outcome: &mut Outcome) {
    let names: Vec<&'static str> = rounds.iter().flat_map(|r| r.layer.keys().copied()).collect();
    for name in names.into_iter().filter(|n| keep(n)) {
        let values: Vec<f64> = rounds.iter().filter_map(|r| r.layer.get(name).copied()).collect();
        outcome.set(name, median(&values));
    }
}

fn run_dist(cfg: &Config, outcome: &mut Outcome) -> Vec<Span> {
    let plan =
        if cfg.workload == Workload::DistSteady { cfg.scale.steady } else { cfg.scale.churn };
    outcome.note("nodes_at_boot", plan.nodes);
    outcome.note("width", dist::WIDTH);
    outcome.note("tokens_per_round", plan.tokens());
    outcome.note("inject_every_ticks", dist::INJECT_EVERY);
    let untraced = RoundOpts { traced: false, planted_fault: cfg.planted_fault };
    let tps =
        |rounds: &[DistRound]| dist::median_of(rounds, |r| r.injected as f64 / r.wall_s.max(1e-9));
    let quantile_of =
        |r: &DistRound, q: f64| r.latency.as_ref().and_then(|h| h.quantile(q)).unwrap_or(0.0);
    if !cfg.traced {
        let mut scenarios = dist::SCENARIO_SEED;
        let mut setups = SetupSampler::new(|| {
            dist::boot_deployment(&plan, splitmix64(&mut scenarios), &Registry::new())
        });
        setups.sample(SETUP_PER_GAP);
        let rounds = dist::run_rounds(&plan, cfg.seed, cfg.seconds, untraced, &mut || {
            setups.sample(SETUP_PER_GAP);
        });
        outcome.set("setup_s", setups.median(cfg.scale.setup_reps));
        outcome.note("rounds", rounds.len());
        fold_dist(&rounds, outcome);
        outcome.set("tokens_per_s", tps(&rounds));
        outcome.set("latency_p50_ticks", dist::median_of(&rounds, |r| quantile_of(r, 0.5)));
        outcome.set("latency_p99_ticks", dist::median_of(&rounds, |r| quantile_of(r, 0.99)));
        return Vec::new();
    }
    let phase = cfg.seconds / 2.0;
    let plain = dist::run_rounds(&plan, cfg.seed, phase, untraced, &mut || {});
    let traced_opts = RoundOpts { traced: true, ..untraced };
    let traced = dist::run_rounds(&plan, cfg.seed, phase, traced_opts, &mut || {});
    outcome.note("rounds", format!("{} untraced + {} traced", plain.len(), traced.len()));
    fold_dist(&plain, outcome);
    fold_dist(&traced, outcome);
    set_layer_medians(&traced, |_| true, outcome);
    if cfg.workload == Workload::DistChurn {
        // Crashes run in a phase of their own at fixed membership: at
        // the time of writing, a crash while the system shrinks can leave
        // part of the cut uncovered and a reconfiguration stuck, which
        // would fail the gates of the churn rounds at random.
        let (mut scenarios, mut traffic) = (dist::SCENARIO_SEED, cfg.seed);
        let crashes: Vec<DistRound> = (0..cfg.scale.crash_rounds)
            .map(|_| {
                let (scenario, traffic) = (splitmix64(&mut scenarios), splitmix64(&mut traffic));
                dist::run_round(&cfg.scale.crash, scenario, traffic, traced_opts)
            })
            .collect();
        outcome.note("crash_phase", format!("{} rounds of {:?}", crashes.len(), cfg.scale.crash));
        fold_dist(&crashes, outcome);
        set_layer_medians(&crashes, |name| CRASH_LAYER.contains(&name), outcome);
    }
    outcome.set("trace.overhead_frac", 1.0 - tps(&traced) / tps(&plain));
    outcome.set("trace.spans_dropped", dist::median_of(&traced, |r| r.spans_dropped as f64));
    traced.into_iter().last().map(|r| r.spans).unwrap_or_default()
}
