//! Shared-memory workloads: [`ShardedFrontEnd`] with its default
//! configuration over a lock-free [`SharedAdaptiveNetwork`], driven by
//! a closed loop of [`THREADS`] threads, plus the reference counters
//! and the timed calls into the network that the traced run reports.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use acn_bitonic::step::is_step_sequence;
use acn_bitonic::{bitonic_network, AtomicNetworkCounter, CentralCounter, Counter};
use acn_core::frontend::ShardedFrontEnd;
use acn_core::SharedAdaptiveNetwork;
use acn_overlay::splitmix64;
use acn_telemetry::Registry;
use acn_topology::ComponentId;
use acn_trace::{Span, Tracer, SYSTEM_TRACE};

use crate::spans;
use crate::stats::{median, order_deviation, quantile};

/// Network width (BITONIC[8], root split once at set-up).
pub const WIDTH: usize = 8;
/// Worker threads: the host this benchmark was sized on has 2 cores.
pub const THREADS: usize = 2;
/// One `next_value` call in this many is timed and sampled.
pub const SAMPLE_EVERY: u64 = 64;
/// Weight of one timed `next_batch` call.
pub const PROBE_BATCH: u64 = 256;

/// The shape of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmPlan {
    /// `next_value` calls per thread.
    pub tokens_per_thread: u64,
    /// Thread 0 alternates merge/split of the root after every this
    /// many of its own calls; 0 disables reconfiguration.
    pub reconfig_every: u64,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct ShmRound {
    /// First worker start to last worker end, host seconds.
    pub wall_s: f64,
    /// Values handed out.
    pub consumed: u64,
    /// Sampled call latency quantiles (ns).
    pub latency_p50: f64,
    /// See [`latency_p50`](Self::latency_p50).
    pub latency_p99: f64,
    /// p99 of the time-rank vs value-rank gap, in tokens.
    pub order_dev_p99: f64,
    /// Host durations of the root reconfigurations (ns).
    pub split_ns: Vec<u64>,
    /// See [`split_ns`](Self::split_ns).
    pub merge_ns: Vec<u64>,
    /// Gate violations.
    pub violations: Vec<String>,
    /// The benchmark's spans (traced rounds only).
    pub spans: Vec<Span>,
}

impl ShmRound {
    /// Values handed out per host second.
    #[must_use]
    pub fn tokens_per_s(&self) -> f64 {
        self.consumed as f64 / self.wall_s.max(1e-9)
    }
}

/// One worker's tallies.
struct Worker {
    consumed: u64,
    sum: u64,
    sum_sq: u64,
    latencies: Vec<u64>,
    pairs: Vec<(u64, u64)>,
    start: Instant,
    end: Instant,
    split_ns: Vec<u64>,
    merge_ns: Vec<u64>,
    spans: Vec<Span>,
}

/// `Σ v` and `Σ v²` over `0..n`, modulo 2^64 like the workers' sums.
fn dense_sums(n: u64) -> (u64, u64) {
    let n = u128::from(n);
    let sum = n * n.saturating_sub(1) / 2;
    let sum_sq = n.saturating_sub(1) * n * (2 * n).saturating_sub(1) / 6;
    (sum as u64, sum_sq as u64)
}

fn elapsed_ns(start: u64) -> u64 {
    spans::now().saturating_sub(start)
}

fn work(
    fe: &ShardedFrontEnd,
    t: usize,
    plan: &ShmPlan,
    first_wire: usize,
    barrier: &Barrier,
    traced: bool,
) -> Worker {
    let samples = (plan.tokens_per_thread / SAMPLE_EVERY + 1) as usize;
    let mut w = Worker {
        consumed: 0,
        sum: 0,
        sum_sq: 0,
        latencies: Vec::with_capacity(samples),
        pairs: Vec::with_capacity(samples),
        start: Instant::now(),
        end: Instant::now(),
        split_ns: Vec::new(),
        merge_ns: Vec::new(),
        spans: Vec::new(),
    };
    let reconfigure = t == 0 && plan.reconfig_every > 0;
    let mut until_reconfig = plan.reconfig_every;
    let mut root_split = true;
    let root = ComponentId::root();
    let mut wire = first_wire;
    let track = t as u64;
    barrier.wait();
    w.start = Instant::now();
    let round_span = spans::now();
    for i in 0..plan.tokens_per_thread {
        if reconfigure {
            until_reconfig -= 1;
            if until_reconfig == 0 {
                until_reconfig = plan.reconfig_every;
                let start = spans::now();
                let (kind, result) = if root_split {
                    ("concurrent.merge", fe.network().merge(&root))
                } else {
                    ("concurrent.split", fe.network().split(&root))
                };
                result.expect("the root alternates between split and merged");
                let ns = elapsed_ns(start);
                if root_split { &mut w.merge_ns } else { &mut w.split_ns }.push(ns);
                if traced {
                    w.spans
                        .push(Span::new(kind, SYSTEM_TRACE).between(start, start + ns).node(track));
                }
                root_split = !root_split;
            }
        }
        let v = if i % SAMPLE_EVERY == 0 {
            let a = spans::now();
            let v = fe.next_value(t, wire);
            let b = spans::now();
            w.latencies.push(b - a);
            w.pairs.push((b, v));
            if traced {
                w.spans
                    .push(Span::new("frontend.next_value", SYSTEM_TRACE).between(a, b).node(track));
            }
            v
        } else {
            fe.next_value(t, wire)
        };
        w.sum = w.sum.wrapping_add(v);
        w.sum_sq = w.sum_sq.wrapping_add(v.wrapping_mul(v));
        wire = (wire + 1) % WIDTH;
    }
    w.end = Instant::now();
    w.consumed = plan.tokens_per_thread;
    if traced {
        let end = spans::now();
        w.spans.push(Span::new("bench.round", SYSTEM_TRACE).between(round_span, end).node(track));
    }
    w
}

/// The set-up of a round: the network with its root split and the
/// front-end, reporting into `registry` and `tracer` when given.
#[must_use]
pub fn build(
    registry: Option<&Registry>,
    tracer: &Tracer,
) -> (Arc<SharedAdaptiveNetwork>, ShardedFrontEnd) {
    let mut net = SharedAdaptiveNetwork::new(WIDTH);
    if let Some(r) = registry {
        net.attach_telemetry(r);
    }
    net.attach_tracer(tracer);
    let net = Arc::new(net);
    net.split(&ComponentId::root()).expect("the root of a fresh network splits");
    let mut fe = ShardedFrontEnd::new(Arc::clone(&net), THREADS);
    if let Some(r) = registry {
        fe.attach_telemetry(r);
    }
    (net, fe)
}

/// Runs one round. With a registry the network and front-end report
/// into it and the round records its spans. Returns the round and the
/// network, quiescent and with every stash drained.
#[must_use]
pub fn run_round(
    plan: &ShmPlan,
    seed: u64,
    registry: Option<&Registry>,
    tracer: &Tracer,
) -> (ShmRound, Arc<SharedAdaptiveNetwork>) {
    let mut round = ShmRound::default();
    let (net, fe) = build(registry, tracer);
    let mut s = seed;
    let first_wires: Vec<usize> =
        (0..THREADS).map(|_| (splitmix64(&mut s) % WIDTH as u64) as usize).collect();
    let barrier = Barrier::new(THREADS);
    let traced = registry.is_some();
    let workers: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (fe, barrier, wire) = (&fe, &barrier, first_wires[t]);
                scope.spawn(move || work(fe, t, plan, wire, barrier, traced))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a worker panicked")).collect()
    });

    let start = workers.iter().map(|w| w.start).min().expect("at least one worker");
    let end = workers.iter().map(|w| w.end).max().expect("at least one worker");
    round.wall_s = (end - start).as_secs_f64();
    round.consumed = workers.iter().map(|w| w.consumed).sum();
    let mut latencies: Vec<u64> =
        workers.iter().flat_map(|w| w.latencies.iter().copied()).collect();
    latencies.sort_unstable();
    round.latency_p50 = crate::stats::quantile_sorted(&latencies, 0.5);
    round.latency_p99 = crate::stats::quantile_sorted(&latencies, 0.99);
    let mut pairs: Vec<(u64, u64)> = workers.iter().flat_map(|w| w.pairs.iter().copied()).collect();
    round.order_dev_p99 = order_deviation(&mut pairs, SAMPLE_EVERY, 0.99);

    // Gates: consumed ∪ stashed is exactly 0..claimed, and the exit
    // counts have the step property at quiescence.
    let stashed = fe.drain_outstanding();
    let claimed = net.total_exited();
    let (mut sum, mut sum_sq) = (0u64, 0u64);
    for w in &workers {
        sum = sum.wrapping_add(w.sum);
        sum_sq = sum_sq.wrapping_add(w.sum_sq);
    }
    for &v in &stashed {
        sum = sum.wrapping_add(v);
        sum_sq = sum_sq.wrapping_add(v.wrapping_mul(v));
    }
    if round.consumed + stashed.len() as u64 != claimed {
        round.violations.push(format!(
            "{} consumed + {} stashed values != {claimed} claimed",
            round.consumed,
            stashed.len()
        ));
    } else if (sum, sum_sq) != dense_sums(claimed) {
        round.violations.push(format!("handed-out values are not a permutation of 0..{claimed}"));
    }
    let outputs = net.output_counts();
    if !is_step_sequence(&outputs) {
        round.violations.push(format!("exit counts lack the step property: {outputs:?}"));
    }
    for mut w in workers {
        round.split_ns.append(&mut w.split_ns);
        round.merge_ns.append(&mut w.merge_ns);
        round.spans.append(&mut w.spans);
    }
    (round, net)
}

/// Rounds back to back while another one is expected to end within
/// `seconds`, calling `between` after each. Also returns the last
/// round's network.
#[must_use]
pub fn run_rounds(
    plan: &ShmPlan,
    seed: u64,
    seconds: f64,
    registry: Option<&Registry>,
    tracer: &Tracer,
    between: &mut dyn FnMut(),
) -> (Vec<ShmRound>, Arc<SharedAdaptiveNetwork>) {
    let mut s = seed;
    let mut net = None;
    let rounds = crate::rounds_within(seconds, || {
        let (round, last) = run_round(plan, splitmix64(&mut s), registry, tracer);
        net = Some(last);
        between();
        round
    });
    (rounds, net.expect("at least one round ran"))
}

/// Median over rounds of one per-round value.
#[must_use]
pub fn median_of(rounds: &[ShmRound], f: impl Fn(&ShmRound) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Runs `body(thread)` on [`THREADS`] threads released together and
/// returns the wall time from release to the last finish (s) and each
/// thread's result.
fn timed_threads<R: Send>(body: impl Fn(usize) -> R + Sync) -> (f64, Vec<R>) {
    let barrier = Barrier::new(THREADS + 1);
    let (start, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    barrier.wait();
                    body(t)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<R> =
            handles.into_iter().map(|h| h.join().expect("a worker panicked")).collect();
        (start, results)
    });
    (start.elapsed().as_secs_f64(), results)
}

/// Host latency of the network's public calls on `net`, from
/// [`THREADS`] threads at once: the p50 of `calls` timed `next_value`
/// calls and of `calls / 16` timed `next_batch(w, PROBE_BATCH)` calls,
/// in ns per call.
#[must_use]
pub fn probe_network(net: &SharedAdaptiveNetwork, calls: u64) -> (f64, f64) {
    let (_, timings) = timed_threads(|t| {
        let mut scalar = Vec::with_capacity(calls as usize);
        let mut batch = Vec::with_capacity((calls / 16) as usize);
        for i in 0..calls {
            let wire = (t + i as usize) % WIDTH;
            let a = spans::now();
            black_box(net.next_value(wire));
            scalar.push(elapsed_ns(a));
        }
        for i in 0..calls / 16 {
            let wire = (t + i as usize) % WIDTH;
            let a = spans::now();
            black_box(net.next_batch(wire, PROBE_BATCH));
            batch.push(elapsed_ns(a));
        }
        (scalar, batch)
    });
    let (mut scalar, mut batch): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    for (s, b) in timings {
        scalar.extend(s);
        batch.extend(b);
    }
    (quantile(&mut scalar, 0.5), quantile(&mut batch, 0.5))
}

/// Reference counters on the same threads: a central `fetch_add(1)`,
/// a central `fetch_add(PROBE_BATCH)` handing its block out locally,
/// and the static `AtomicNetworkCounter` BITONIC[8]. Returns each one's
/// median tokens per second over `reps` runs of `tokens_per_thread`
/// per thread (a sixteenth of that for the static network), plus any
/// conservation violation.
#[must_use]
pub fn reference_rates(tokens_per_thread: u64, reps: usize) -> ([f64; 3], Vec<String>) {
    let total = tokens_per_thread * THREADS as u64;
    let mut rates: [Vec<f64>; 3] = Default::default();
    let mut violations = Vec::new();
    for _ in 0..reps {
        let central = CentralCounter::new();
        let (secs, _) = timed_threads(|_| {
            for _ in 0..tokens_per_thread {
                black_box(central.next());
            }
        });
        rates[0].push(total as f64 / secs);
        if central.next() != total {
            violations.push("central counter lost an increment".to_string());
        }

        let batched = AtomicU64::new(0);
        let (secs, _) = timed_threads(|_| {
            let mut left = tokens_per_thread;
            while left > 0 {
                let take = left.min(PROBE_BATCH);
                // lint: relaxed-ok(single counter cell; blocks come from one modification order)
                let base = batched.fetch_add(take, Ordering::Relaxed);
                for v in base..base + take {
                    black_box(v);
                }
                left -= take;
            }
        });
        rates[1].push(total as f64 / secs);
        if batched.load(Ordering::SeqCst) != total {
            violations.push("batched central counter lost a block".to_string());
        }

        // The static network is an order of magnitude slower.
        let bitonic_tokens = tokens_per_thread / 16;
        let bitonic = AtomicNetworkCounter::new(bitonic_network(WIDTH));
        let (secs, _) = timed_threads(|_| {
            for _ in 0..bitonic_tokens {
                black_box(bitonic.next());
            }
        });
        rates[2].push((bitonic_tokens * THREADS as u64) as f64 / secs);
        let outputs = bitonic.output_counts();
        if outputs.iter().sum::<u64>() != bitonic_tokens * THREADS as u64
            || !is_step_sequence(&outputs)
        {
            violations.push(format!("static bitonic counter outputs {outputs:?}"));
        }
    }
    ([median(&rates[0]), median(&rates[1]), median(&rates[2])], violations)
}
