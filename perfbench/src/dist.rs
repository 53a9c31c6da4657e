//! Message-passing workloads: the `Deployment` runtime on the
//! deterministic simulator, driven in an open loop in simulated time.
//!
//! A round boots a deployment (set-up), injects one token every
//! [`INJECT_EVERY`] ticks on a seeded wire, runs the churn bursts of
//! its plan between traffic segments, then settles and drains and
//! checks the outcome.
//!
//! Two seeds drive a round. The *scenario* seed picks the ring, the
//! simulated network's delays, the entry nodes and the churn victims;
//! the *traffic* seed picks each token's wire. Round `k` of every run
//! plays scenario `k` of one fixed sequence, and the run's `--seed`
//! drives the traffic, so runs differ by their inputs while host time
//! is compared on the same deployments: ring layouts alone move the
//! messages per token by ±15%. Simulated counts and tick latencies are
//! a pure function of the two seeds; only host time varies.

use std::collections::BTreeMap;
use std::time::Instant;

use acn_bitonic::step::is_step_sequence;
use acn_core::dist::{Deployment, Proc};
use acn_overlay::{splitmix64, NodeId};
use acn_simnet::{DeliveryPolicy, ProcessId, SimConfig};
use acn_telemetry::{HistogramSnapshot, Registry, Snapshot};
use acn_trace::{Span, Tracer};

use crate::spans;
use crate::stats::{median, quantile};

/// Network width of both message-passing workloads.
pub const WIDTH: usize = 16;
/// Simulated ticks between two injections.
pub const INJECT_EVERY: u64 = 20;
/// Tokens per traced `simnet.traffic` span.
const TRAFFIC_SPAN_TOKENS: u64 = 250;

/// The shape of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistPlan {
    /// Nodes at boot.
    pub nodes: usize,
    /// Tokens per traffic segment.
    pub tokens_per_segment: u64,
    /// Join bursts; as many leave bursts follow. 0 means no churn and
    /// one traffic segment.
    pub bursts: usize,
    /// Joins or departures per burst.
    pub burst_size: usize,
    /// Segments after the bursts that each crash one seeded node halfway
    /// through their traffic, with no harness repair.
    pub crashes: usize,
    /// `None` boots with `Deployment::new`'s simulated network; `Some(j)`
    /// keeps its 5-tick base latency and sets the delivery jitter to `j`
    /// ticks.
    pub jitter: Option<u64>,
}

impl DistPlan {
    /// Traffic segments per round: one before each burst, one per
    /// crash, one at the end.
    #[must_use]
    pub fn segments(&self) -> u64 {
        (2 * self.bursts + self.crashes) as u64 + 1
    }

    /// Tokens injected per round.
    #[must_use]
    pub fn tokens(&self) -> u64 {
        self.segments() * self.tokens_per_segment
    }
}

/// Instruments attached to a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOpts {
    /// Attach the protocol tracer (every token), the simulator's
    /// self-profiler and the benchmark's own spans.
    pub traced: bool,
    /// Plant the token-dedup mutation (self-tests only).
    pub planted_fault: bool,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct DistRound {
    /// Traffic, churn and drain, host seconds.
    pub wall_s: f64,
    /// Tokens injected.
    pub injected: u64,
    /// Tokens the collector counted.
    pub counted: u64,
    /// Injected tokens never counted.
    pub lost: u64,
    /// Counted exits beyond the first of a token.
    pub duplicated: u64,
    /// Gate violations.
    pub violations: Vec<String>,
    /// Inject-to-count latency histogram (ticks).
    pub latency: Option<HistogramSnapshot>,
    /// Per-layer values of this round.
    pub layer: BTreeMap<&'static str, f64>,
    /// Host-clock spans: the benchmark's own and the simulator's
    /// self-profile (traced rounds only).
    pub spans: Vec<Span>,
    /// Spans the protocol tracer and self-profiler evicted.
    pub spans_dropped: u64,
}

/// Host durations of the public membership calls of one round (µs).
#[derive(Debug, Default)]
struct CallTimes {
    join: Vec<u64>,
    leave: Vec<u64>,
    crash: Vec<u64>,
}

fn micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The first scenario seed of every run.
pub const SCENARIO_SEED: u64 = 0x5CE7_A210;

/// Runs one round of `plan`: scenario `scenario`, traffic `traffic`.
#[must_use]
pub fn run_round(plan: &DistPlan, scenario: u64, traffic: u64, opts: RoundOpts) -> DistRound {
    let registry = Registry::new();
    let (bench, protocol, profiler) = if opts.traced {
        (Tracer::new(1 << 16), Tracer::new(1 << 12), Tracer::new(1 << 17))
    } else {
        (Tracer::disabled(), Tracer::disabled(), Tracer::disabled())
    };
    let mut round = DistRound::default();

    let boot = spans::now();
    let (mut d, booted) = boot_deployment(plan, scenario, &registry);
    spans::close(&bench, "dist.boot", 0, boot);
    if !booted {
        round.violations.push(format!("scenario {scenario}: the boot did not settle"));
    }
    d.attach_tracer(&protocol);
    d.sim.attach_self_profiler(&profiler);
    if opts.planted_fault {
        d.test_disable_token_dedup();
    }
    let base = registry.snapshot();
    let base_stats = d.sim.stats();

    let mut victims = scenario ^ 0xD157_7AFF_1C00_0000;
    let mut wires = traffic;
    let mut calls = CallTimes::default();
    let start = Instant::now();
    for segment in 0..plan.segments() as usize {
        let crash_at = (2 * plan.bursts..2 * plan.bursts + plan.crashes)
            .contains(&segment)
            .then_some(plan.tokens_per_segment / 2);
        let mut span = spans::now();
        for i in 0..plan.tokens_per_segment {
            if crash_at == Some(i) {
                crash(&mut d, &mut victims, &mut calls, &bench);
            }
            d.inject((splitmix64(&mut wires) % WIDTH as u64) as usize);
            round.injected += 1;
            d.run_for(INJECT_EVERY);
            // Short spans, so that the self-profiler's window holds whole ones.
            if (i + 1) % TRAFFIC_SPAN_TOKENS == 0 {
                spans::close(&bench, "simnet.traffic", 0, span);
                span = spans::now();
            }
        }
        spans::close(&bench, "simnet.traffic", 0, span);
        if segment < plan.bursts {
            join_burst(&mut d, plan.burst_size, &mut calls, &bench);
        } else if segment < 2 * plan.bursts {
            leave_burst(&mut d, plan, &mut victims, &mut calls, &bench);
        }
    }
    let span = spans::now();
    let settled = d.settle(400);
    for _ in 0..100 {
        if d.collector().total() >= round.injected {
            break;
        }
        d.run_for(d.level_period);
    }
    spans::close(&bench, "dist.drain", 0, span);
    round.wall_s = start.elapsed().as_secs_f64();

    check(&d, plan, opts, settled, &protocol, &mut round);
    let snap = registry.snapshot().diff(&base);
    let stats = d.sim.stats();
    round.latency = snap.histogram("acn.dist.token_latency").cloned();
    let tokens = round.injected.max(1) as f64;
    let sent =
        |s: &acn_simnet::SimStats| s.messages_delivered + s.messages_dropped + s.messages_lost;
    let l = &mut round.layer;
    l.insert("dist.msgs_per_token", (sent(&stats) - sent(&base_stats)) as f64 / tokens);
    l.insert(
        "sim.events_per_token",
        (stats.events_processed - base_stats.events_processed) as f64 / tokens,
    );
    l.insert(
        "sim.timers_per_token",
        (stats.timers_fired - base_stats.timers_fired) as f64 / tokens,
    );
    layer_metrics(&snap, tokens, l);
    if let Some(h) = &round.latency {
        l.insert("dist.latency_p999_ticks", h.quantile(0.999).unwrap_or(0.0));
    }
    l.insert("dist.lost_tokens", round.lost as f64);
    for (name, times) in [
        ("overlay.join_us_p50", &mut calls.join),
        ("overlay.leave_us_p50", &mut calls.leave),
        ("overlay.crash_us_p50", &mut calls.crash),
    ] {
        l.insert(name, quantile(times, 0.5));
    }
    if opts.traced {
        let steps = profiler.spans();
        let mut step_ns: Vec<u64> = steps.iter().map(Span::duration).collect();
        l.insert("sim.step_ns_p50", quantile(&mut step_ns, 0.5));
        round.spans_dropped = protocol.dropped() + profiler.dropped();
        // The self-profiler's ring keeps the latest steps only; keep the
        // benchmark's spans of that window so self times add up.
        let window = if profiler.dropped() > 0 { steps.first().map_or(0, |s| s.start) } else { 0 };
        round.spans = bench.spans().into_iter().filter(|s| s.start >= window).collect();
        round.spans.extend(steps);
    }
    round
}

/// The set-up of a round: boot `plan.nodes` nodes reporting into
/// `registry`, let the level estimators split the network down to the
/// level the node count calls for (a level period with no split or
/// merge ends this), and settle. Returns the deployment and whether it
/// settled.
#[must_use]
pub fn boot_deployment(plan: &DistPlan, seed: u64, registry: &Registry) -> (Deployment, bool) {
    let mut d = match plan.jitter {
        None => Deployment::new(WIDTH, plan.nodes, seed),
        Some(jitter) => {
            let config = SimConfig { base_latency: 5, jitter, loss_per_mille: 0, seed };
            Deployment::with_sim(WIDTH, plan.nodes, seed, config, DeliveryPolicy::Seeded)
        }
    };
    d.attach_telemetry(registry);
    let reconfigs = || {
        let snap = registry.snapshot();
        snap.counter("acn.dist.splits").unwrap_or(0) + snap.counter("acn.dist.merges").unwrap_or(0)
    };
    let mut before = None;
    for _ in 0..8 {
        let now = reconfigs();
        if before == Some(now) {
            break;
        }
        before = Some(now);
        d.run_for(d.level_period);
    }
    let settled = d.settle(200);
    (d, settled)
}

fn join_burst(d: &mut Deployment, size: usize, calls: &mut CallTimes, bench: &Tracer) {
    for _ in 0..size {
        let span = spans::now();
        let t = Instant::now();
        d.join_node();
        calls.join.push(micros(t));
        spans::close(bench, "overlay.join", 0, span);
    }
}

fn leave_burst(
    d: &mut Deployment,
    plan: &DistPlan,
    rng: &mut u64,
    calls: &mut CallTimes,
    bench: &Tracer,
) {
    for _ in 0..plan.burst_size {
        let Some(victim) = pick_victim(d, rng) else {
            return;
        };
        let span = spans::now();
        let t = Instant::now();
        d.leave_node(victim);
        calls.leave.push(micros(t));
        spans::close(bench, "overlay.leave", 0, span);
    }
}

/// Crashes a seeded node among those hosting a component, so that every
/// crash needs a rescue.
fn crash(d: &mut Deployment, rng: &mut u64, calls: &mut CallTimes, bench: &Tracer) {
    let hosts: Vec<NodeId> = d
        .world
        .borrow()
        .ring
        .nodes()
        .filter(|n| {
            matches!(d.sim.process(ProcessId(n.0)), Some(Proc::Node(p)) if p.components().next().is_some())
        })
        .collect();
    if hosts.is_empty() || d.world.borrow().ring.len() <= 2 {
        return;
    }
    let victim = hosts[(splitmix64(rng) % hosts.len() as u64) as usize];
    let span = spans::now();
    let t = Instant::now();
    d.crash_node(victim).expect("more than one live node remains");
    calls.crash.push(micros(t));
    spans::close(bench, "overlay.crash", 0, span);
}

/// A seeded live node, if more than two remain.
fn pick_victim(d: &Deployment, rng: &mut u64) -> Option<NodeId> {
    let nodes: Vec<NodeId> = d.world.borrow().ring.nodes().collect();
    (nodes.len() > 2).then(|| nodes[(splitmix64(rng) % nodes.len() as u64) as usize])
}

/// The correctness gates: every injected token is counted at most once;
/// a token may go missing only when a crash or a suspicion disrupted
/// the run; the quiescent cut is valid; and the exit counts have the
/// step property wherever the protocol promises it. A traced round
/// checks token identity exactly (the protocol tracer opens every token
/// at injection and closes it at its first count); an untraced round
/// checks the totals.
fn check(
    d: &Deployment,
    plan: &DistPlan,
    opts: RoundOpts,
    settled: bool,
    protocol: &Tracer,
    round: &mut DistRound,
) {
    let v = &mut round.violations;
    let collector = d.collector();
    round.counted = collector.total();
    if opts.traced {
        let distinct = protocol.closed_traces();
        round.lost = round.injected.saturating_sub(distinct);
        round.duplicated = round.counted.saturating_sub(distinct);
    } else {
        round.lost = round.injected.saturating_sub(round.counted);
        round.duplicated = round.counted.saturating_sub(round.injected);
    }
    let (cut, busy) = d.live_cut();
    let w = d.world.borrow();
    let disrupted = !w.crashed.is_empty() || !w.detections.is_empty();
    if !settled || busy || !cut.is_valid(&w.tree) {
        v.push(format!(
            "no valid quiescent live cut after settle (busy {busy}, cut {cut}, {} crashes)",
            w.crashed.len()
        ));
    }
    drop(w);
    if round.duplicated > 0 {
        v.push(format!("{} token exits were counted twice", round.duplicated));
    }
    if round.lost > 0 && !disrupted {
        v.push(format!("{} tokens went missing with no crash or suspicion", round.lost));
    }
    // Fresh components rescued after a crash restart their balancers, so
    // the step property is promised only to undisturbed runs; a plan
    // with neither churn nor crashes must never be disturbed.
    let step_required = (plan.bursts == 0 && plan.crashes == 0) || !disrupted;
    if step_required && !is_step_sequence(&collector.counts) {
        v.push(format!("exit counts lack the step property: {:?}", collector.counts));
    }
}

/// Per-layer values from the registry's activity since boot.
fn layer_metrics(snap: &Snapshot, tokens: f64, l: &mut BTreeMap<&'static str, f64>) {
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let p50 = |name: &str| snap.histogram(name).and_then(|h| h.p50()).unwrap_or(0.0);
    l.insert(
        "dist.routing_hops_mean",
        snap.histogram("acn.dist.routing_hops").and_then(HistogramSnapshot::mean).unwrap_or(0.0),
    );
    l.insert("dist.dht_lookups_per_token", c("acn.dist.dht_lookups") / tokens);
    l.insert("dist.retransmits_per_token", c("acn.dist.token_retransmits") / tokens);
    l.insert("dist.nacks_per_token", c("acn.dist.token_nacks") / tokens);
    l.insert(
        "dist.dup_drops",
        c("acn.dist.duplicate_traversal_drops") + c("acn.dist.duplicate_exit_drops"),
    );
    l.insert("dist.gossip_per_token", c("acn.dist.fd.gossip") / tokens);
    l.insert("dist.pings_per_token", c("acn.dist.fd.pings") / tokens);
    let merges = c("acn.dist.merges");
    let aborts = c("acn.dist.merge_aborts");
    l.insert("dist.splits", c("acn.dist.splits"));
    l.insert("dist.merges", merges);
    l.insert(
        "dist.merge_abort_frac",
        if merges + aborts > 0.0 { aborts / (merges + aborts) } else { 0.0 },
    );
    l.insert("dist.split_ticks_p50", p50("acn.dist.split_duration"));
    l.insert("dist.merge_ticks_p50", p50("acn.dist.merge_duration"));
    l.insert(
        "dist.drained_tokens",
        c("acn.dist.merge_drained_tokens") + c("acn.dist.split_drained_tokens"),
    );
    l.insert("dist.fd.detection_ticks_p50", p50("acn.dist.fd.detection_latency"));
    l.insert("dist.fd.false_suspects", c("acn.dist.fd.suspects") - c("acn.dist.crashes"));
    l.insert("dist.rescue.ticks_p50", p50("acn.dist.rescue.duration"));
    l.insert("dist.rescue.installs", c("acn.dist.rescue.installs"));
    l.insert("dist.backoff.sheds", c("acn.dist.backoff.sheds"));
    l.insert("overlay.migrations", c("acn.dist.component_migrations"));
    l.insert("estimator.level_changes", c("acn.dist.level_changes"));
}

/// Rounds back to back while another one is expected to end within
/// `seconds`, calling `between` after each: round `k` plays scenario
/// `k` with traffic drawn from `seed`.
#[must_use]
pub fn run_rounds(
    plan: &DistPlan,
    seed: u64,
    seconds: f64,
    opts: RoundOpts,
    between: &mut dyn FnMut(),
) -> Vec<DistRound> {
    let (mut scenarios, mut traffic) = (SCENARIO_SEED, seed);
    crate::rounds_within(seconds, || {
        let round = run_round(plan, splitmix64(&mut scenarios), splitmix64(&mut traffic), opts);
        between();
        round
    })
}

/// Median over rounds of one per-round value.
#[must_use]
pub fn median_of(rounds: &[DistRound], f: impl Fn(&DistRound) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}
