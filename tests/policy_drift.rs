//! The `DeliveryPolicy` seam must not drift the default behaviour.
//!
//! PR 5 refactored `acn_simnet::Simulator` so the "which pending event
//! fires next" decision goes through a pluggable [`DeliveryPolicy`];
//! the seeded-latency timestamp order stays the zero-overhead default.
//! These tests pin the default to golden fingerprints captured from the
//! pre-refactor simulator (same commit, before the seam landed) on the
//! E10/E16 harness seeds: `SimStats`, the world's protocol counters,
//! the collector's per-wire counts, and the `acn.sim.*` / `acn.dist.*`
//! telemetry counters must be byte-identical. Any divergence means the
//! seam changed scheduling semantics, not just structure.

use adaptive_counting_networks::core::dist::{Deployment, Proc, COLLECTOR};
use adaptive_counting_networks::overlay::NodeId;
use adaptive_counting_networks::simnet::ProcessId;
use adaptive_counting_networks::telemetry::Registry;

/// Deterministic mixed workload in the shape of the E10 adaptivity
/// harness: growth, traffic, shrink, all seeded.
fn fingerprint(seed: u64, width: usize, start_nodes: usize) -> Vec<u64> {
    let registry = Registry::new();
    let mut d = Deployment::new(width, start_nodes, seed);
    d.attach_telemetry(&registry);
    let mut injected = 0u64;
    for i in 0..60usize {
        d.inject(i % width);
        injected += 1;
        d.run_for(50);
    }
    for _ in 0..6 {
        d.join_node();
        for i in 0..4usize {
            d.inject((i * 7) % width);
            injected += 1;
        }
        d.run_for(500);
    }
    assert!(d.settle(300), "seed {seed}: deployment failed to settle");
    let victims: Vec<NodeId> = d.world.borrow().ring.nodes().take(3).collect();
    for v in victims {
        d.leave_node(v);
        d.migrate_components();
        d.run_for(500);
    }
    assert!(d.settle(300), "seed {seed}: post-shrink settle failed");
    d.run_for(100_000);

    let stats = d.sim.stats();
    let collector_counts = d.collector().counts.clone();
    let snap = registry.snapshot();
    let tele = |name: &str| snap.counter(name).unwrap_or(0);
    let world = d.world.borrow();
    let mut fp = vec![
        injected,
        stats.messages_delivered,
        stats.messages_dropped,
        stats.messages_lost,
        stats.timers_fired,
        stats.events_processed,
        world.splits_done,
        world.merges_done,
        world.token_nacks,
        world.token_retransmits,
        world.dht_lookups,
        d.collector().total(),
        d.collector().total_latency,
        d.collector().max_latency,
        tele("acn.sim.delivered"),
        tele("acn.sim.timers_fired"),
        tele("acn.dist.splits"),
        tele("acn.dist.merges"),
        tele("acn.dist.token_nacks"),
        tele("acn.dist.exits"),
    ];
    fp.extend(collector_counts);
    fp
}

/// Deterministic crash-and-rescue workload: growth with traffic, a
/// graceful leave whose departed ghost stays registered, then a crash of
/// a component host. The crash exercises the failure detector's
/// suspicion, tombstone gossip (which the ghost re-broadcasts when it
/// adopts it), and the in-protocol rescue sweep. The fingerprint covers
/// the simulator counters, the protocol and recovery counters, every
/// node's view epoch, and the per-wire counts.
fn crash_fingerprint(seed: u64) -> Vec<u64> {
    let width = 16;
    let registry = Registry::new();
    let mut d = Deployment::new(width, 4, seed);
    d.attach_telemetry(&registry);
    let mut injected = 0u64;
    for j in 0..8usize {
        d.join_node();
        for i in 0..4usize {
            d.inject((j * 5 + i * 3) % width);
            injected += 1;
        }
        d.run_for(300);
    }
    assert!(d.settle(300), "seed {seed}: growth failed to settle");
    let leaver = d.world.borrow().ring.nodes().nth(1).expect("more than one node");
    d.leave_node(leaver);
    d.run_for(500);
    let victim = d
        .sim
        .process_ids()
        .filter(|&p| p != COLLECTOR)
        .find_map(|pid| match d.sim.process(pid) {
            Some(Proc::Node(np)) if np.components().next().is_some() && !np.departed() => {
                Some(np.node_id())
            }
            _ => None,
        })
        .expect("some live node hosts a component");
    d.crash_node(victim).expect("not the last node");
    for i in 0..20usize {
        d.inject((i * 7) % width);
        injected += 1;
        d.run_for(50);
    }
    assert!(d.settle(300), "seed {seed}: crash recovery failed to settle");
    d.run_for(100_000);

    let snap = registry.snapshot();
    let tele = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(tele("acn.dist.fd.suspects") > 0, "seed {seed}: the crash went unsuspected");
    assert!(tele("acn.dist.rescue.sweeps") > 0, "seed {seed}: no rescue sweep ran");
    let ghost_adopted_tombstone = matches!(
        d.sim.process(ProcessId(leaver.0)),
        Some(Proc::Node(np)) if np.view_dead_contains(victim)
    );
    assert!(ghost_adopted_tombstone, "seed {seed}: the ghost never learned of the crash");

    let stats = d.sim.stats();
    let world = d.world.borrow();
    let detection_ticks: u64 =
        world.detections.iter().map(|(n, t)| t - world.crashed.get(n).unwrap_or(t)).sum();
    let mut fp = vec![
        injected,
        stats.messages_delivered,
        stats.messages_dropped,
        stats.messages_lost,
        stats.timers_fired,
        stats.events_processed,
        world.splits_done,
        world.merges_done,
        world.token_nacks,
        world.token_retransmits,
        world.dht_lookups,
        world.duplicate_traversal_drops,
        world.detections.len() as u64,
        detection_ticks,
        d.collector().total(),
        d.collector().total_latency,
        d.collector().max_latency,
        tele("acn.dist.fd.pings"),
        tele("acn.dist.fd.suspects"),
        tele("acn.dist.fd.gossip"),
        tele("acn.dist.rescue.sweeps"),
        tele("acn.dist.rescue.installs"),
        tele("acn.dist.rescue.duplicate_discards"),
        tele("acn.dist.component_migrations"),
        tele("acn.dist.backoff.escalations"),
        tele("acn.dist.backoff.resets"),
    ];
    fp.extend(d.sim.process_ids().filter_map(|pid| match d.sim.process(pid) {
        Some(Proc::Node(np)) => Some(np.view_epoch()),
        _ => None,
    }));
    fp.extend(d.collector().counts.iter().copied());
    fp
}

/// Golden fingerprint for the E10 adaptivity seed (`0xAB5`).
///
/// Re-captured after the in-protocol fault-tolerance layer (DESIGN.md
/// §13) landed: the failure-detector timer, heartbeat pings, membership
/// gossip, and backoff retries all add seeded messages and timer fires,
/// so the traffic-shaped entries grew. The *counting* entries — tokens
/// injected, collector total, and the per-wire counts — are unchanged
/// from the pre-seam capture, which is the invariant that matters.
#[test]
fn seeded_policy_matches_pre_refactor_e10_seed() {
    let fp = fingerprint(0xAB5, 16, 4);
    let golden: Vec<u64> = vec![
        84, 1448, 0, 0, 1016, 2464, 1, 0, 40, 2, 572, 84, 3679, 623, 1448, 1016, 1, 0, 40,
        84, 6, 6, 6, 6, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    ];
    assert_eq!(fp, golden, "E10-seed fingerprint drifted across the DeliveryPolicy seam");
}

/// Golden fingerprint for the E16 overlay-harness seed family
/// (`n * 7 + 1` with `n = 64`). Re-captured post-§13 like the E10 one;
/// per-wire counting entries match the pre-seam capture.
#[test]
fn seeded_policy_matches_pre_refactor_e16_seed() {
    let fp = fingerprint(449, 16, 4);
    let golden: Vec<u64> = vec![
        84, 1456, 0, 0, 1018, 2474, 1, 0, 49, 3, 573, 84, 4222, 619, 1456, 1018, 1, 0, 49,
        84, 6, 6, 6, 6, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    ];
    assert_eq!(fp, golden, "E16-seed fingerprint drifted across the DeliveryPolicy seam");
}

/// Golden fingerprint for a crash-and-rescue run (seed `0xC4A5`),
/// captured before membership views became shared copy-on-write
/// snapshots: sharing views between nodes and gossip messages must not
/// move a single message, timer, or tombstone.
#[test]
fn crash_rescue_matches_golden() {
    let fp = crash_fingerprint(0xC4A5);
    let golden: Vec<u64> = vec![
        52, 1708, 77, 0, 1291, 3078, 1, 0, 8, 66, 538, 0, 1, 6201, 52, 112744, 7509, 304, 1,
        794, 1, 2, 0, 0, 16, 7, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 4, 4, 4, 4, 3, 3, 3,
        3, 3, 3, 3, 3, 3, 3, 3, 3,
    ];
    assert_eq!(fp, golden, "crash-and-rescue fingerprint drifted");
}
