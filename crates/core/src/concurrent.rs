//! A thread-safe shared-memory adaptive counting network.
//!
//! Counting networks were born as shared-memory structures (the paper's
//! lineage runs through Aspnes–Herlihy–Shavit and diffracting trees);
//! [`SharedAdaptiveNetwork`] brings the *adaptive* construction into that
//! setting, in one of two execution modes fixed at construction
//! ([`ExecMode`]):
//!
//! - **Lock-free** (the default): a component *is* one mod-k
//!   round-robin counter (paper §3), so the token hot path is reduced
//!   to exactly that — one `fetch_add` per component crossed, against
//!   an **epoch-published immutable snapshot** of the cut
//!   ([`acn_sync::SyncSnapshot`]). Tokens never touch the structure
//!   RwLock or any per-component mutex. Split/merge stays on a slow
//!   writer path that *drains* in-flight tokens (a read–write gate),
//!   *harvests* the snapshot's atomic counter residues back into the
//!   authoritative [`Component`] states (an exact batch transfer —
//!   round-robin output is oblivious to arrival order), applies the
//!   reconfiguration, and publishes a fresh snapshot under a bumped
//!   epoch. Stale snapshot pins are detected by epoch validation and
//!   retried (`acn.conc.snapshot_retries`). See `DESIGN.md` §8 for the
//!   protocol and why residue transfer preserves the step property.
//! - **Locked** ([`SharedAdaptiveNetwork::new_locked`]): the PR-2 era
//!   path — tokens traverse under a structure read lock with
//!   **per-component mutexes**. Kept as the benchmark baseline
//!   (`exp_throughput`) and as a second model-checked implementation
//!   of the same specification.
//!
//! # Synchronization abstraction
//!
//! The network is generic over [`SyncApi`]: production code uses the
//! default [`RealSync`] (parking_lot + std atomics, zero-cost), while
//! `acn-check`'s `VirtualSync` routes every primitive through a
//! schedule-exploring model checker. Per-component locks are *ranked*
//! by the `ComponentId` total order (pre-order over `T_w`), declaring
//! the workspace lock order; the checker enforces it dynamically.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use acn_core::SharedAdaptiveNetwork;
//!
//! let net = Arc::new(SharedAdaptiveNetwork::new(8));
//! let workers: Vec<_> = (0..4)
//!     .map(|t| {
//!         let net = Arc::clone(&net);
//!         std::thread::spawn(move || (0..100).map(|i| net.next_value((t + i) % 8)).count())
//!     })
//!     .collect();
//! for w in workers {
//!     w.join().unwrap();
//! }
//! assert_eq!(net.total_exited(), 400);
//! ```

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use acn_sync::{
    CachePadded, Ordering, RealSync, SyncApi, SyncAtomicU64, SyncMutex, SyncRwLock,
    SyncSnapshot,
};
use acn_telemetry::{Counter, Histogram, Registry};
use acn_trace::{Span, Tracer};

use acn_topology::{
    input_port_of, network_input_address, resolve_output, ComponentId, Cut, CutError,
    OutputDestination, Tree, WiringStyle,
};

use crate::component::{merge_components, port_emissions, split_component, Component};
use crate::local::AdaptError;

/// The lock-protected structure: the cut and its live components.
///
/// `BTreeMap` (not `HashMap`) so that iteration — and therefore lock
/// acquisition order, migration sweeps, and checker fingerprints — is
/// deterministic in the declared `ComponentId` order. (`acn-lint`
/// forbids hash collections in this module; PR 1 hit exactly this bug
/// class in the simulator.)
struct Structure<S: SyncApi> {
    cut: Cut,
    components: BTreeMap<ComponentId, S::Mutex<Component>>,
}

impl<S: SyncApi> Hash for Structure<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cut.hash(state);
        self.components.hash(state);
    }
}

/// The lock-order rank of a component lock: its position in the
/// `ComponentId` total order, approximated by the pre-order index the
/// id would have in a deep tree. Ranks only need to be monotone in the
/// declared order for the checker's dynamic lock-order verification,
/// and `ComponentId`s order lexicographically by path, so encoding the
/// path bytes into a u64 (most-significant-first) preserves the order
/// for all depths that fit.
fn lock_rank(id: &ComponentId) -> u64 {
    let mut rank: u64 = 0;
    for (i, &step) in id.path().iter().take(8).enumerate() {
        // Child indices are < 8 for every component kind; one octal
        // digit per level keeps lexicographic order. Deeper levels tie,
        // which is still a valid (coarser) order declaration.
        rank |= u64::from(step + 1) << (56 - 8 * i);
    }
    rank
}

/// How tokens traverse the network; fixed at construction.
///
/// The two modes may not be mixed on one instance: the lock-free path
/// accumulates per-epoch residues in snapshot atomics that the locked
/// path would not see, and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Per-token structure read lock + per-component mutexes.
    Locked,
    /// Epoch-published snapshot; one `fetch_add` per component crossed.
    LockFree,
}

/// Where a leaf's output port sends a token, precomputed at snapshot
/// build time so the hot path does no topology resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FastRoute {
    /// An internal wire into another leaf of the same snapshot.
    Leaf { leaf: usize, port: usize },
    /// A network output wire.
    Exit(usize),
}

/// One live leaf component, reduced to its fast-path essentials: an
/// atomic round-robin counter plus an atomic arrival profile.
///
/// `base_tokens` is the component's authoritative counter at snapshot
/// build time; the j-th fast-path token through this leaf (j =
/// `hops.fetch_add(1)`) leaves on output port
/// `(base_tokens + j) mod width` — exactly what
/// [`Component::process_token`] would have computed, because a
/// component's output behaviour depends only on its counter, never on
/// arrival order. The arrival profile is tallied so the writer's
/// harvest can replay the batch into the [`Component`] exactly.
/// The hot per-leaf atomics are individually cache-line padded
/// ([`CachePadded`]): `hops` and each per-port arrival tally get their
/// own line, so tokens contending on *different* leaves (or different
/// ports of one leaf) never false-share. Before padding, the leaves of
/// a freshly built snapshot sat back to back in one `Vec` allocation
/// and the 1→8-thread throughput curve was flat (see E18's padding
/// microbench and DESIGN.md §12).
struct FastLeaf<S: SyncApi> {
    id: ComponentId,
    width: usize,
    base_tokens: u64,
    hops: CachePadded<S::AtomicU64>,
    arrivals: Vec<CachePadded<S::AtomicU64>>,
    routes: Vec<FastRoute>,
}

/// An immutable routing snapshot of the cut, published via
/// [`SyncSnapshot`] and validated against the network epoch.
struct FastSnapshot<S: SyncApi> {
    /// The epoch this snapshot was published under. A pinned token
    /// whose snapshot epoch differs from the network's current epoch
    /// loaded a stale snapshot and must retry.
    epoch: u64,
    /// Network input wire -> (leaf index, input port).
    entries: Vec<(usize, usize)>,
    /// The cut's leaves in `ComponentId` order.
    leaves: Vec<FastLeaf<S>>,
}

impl<S: SyncApi> Hash for FastLeaf<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
        self.width.hash(state);
        self.base_tokens.hash(state);
        self.hops.hash(state);
        self.arrivals.hash(state);
        self.routes.hash(state);
    }
}

impl<S: SyncApi> Hash for FastSnapshot<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.epoch.hash(state);
        self.entries.hash(state);
        self.leaves.hash(state);
    }
}

/// Telemetry handles for the shared runtime (all no-ops by default).
#[derive(Debug, Default)]
struct ConcMetrics {
    /// `acn.conc.traversal_depth` — components crossed per token.
    traversal_depth: Histogram,
    /// `acn.conc.lock_contention` — component-lock acquisitions that had
    /// to wait because another token held the lock.
    lock_contention: Counter,
    /// `acn.conc.tokens` — tokens routed through the network.
    tokens: Counter,
    /// `acn.conc.splits` / `acn.conc.merges` — reconfigurations applied.
    splits: Counter,
    merges: Counter,
    /// `acn.conc.fastpath_hits` — tokens that completed a traversal on
    /// the lock-free snapshot path (validated pin, no locks taken).
    fastpath_hits: Counter,
    /// `acn.conc.snapshot_retries` — pinned snapshots that failed
    /// epoch validation (a reconfiguration won the race) and retried.
    snapshot_retries: Counter,
    /// `acn.exec.batch_flushes` — batched traversals executed
    /// ([`SharedAdaptiveNetwork::push_batch`] /
    /// [`SharedAdaptiveNetwork::next_batch`] calls with nonzero weight).
    batch_flushes: Counter,
    /// `acn.exec.batch_tokens` — tokens carried by batched traversals
    /// (`batch_tokens / batch_flushes` = mean realized batch size).
    batch_tokens: Counter,
}

impl ConcMetrics {
    fn attach(registry: &Registry) -> Self {
        ConcMetrics {
            traversal_depth: registry.histogram("acn.conc.traversal_depth"),
            lock_contention: registry.counter("acn.conc.lock_contention"),
            tokens: registry.counter("acn.conc.tokens"),
            splits: registry.counter("acn.conc.splits"),
            merges: registry.counter("acn.conc.merges"),
            fastpath_hits: registry.counter("acn.conc.fastpath_hits"),
            snapshot_retries: registry.counter("acn.conc.snapshot_retries"),
            batch_flushes: registry.counter("acn.exec.batch_flushes"),
            batch_tokens: registry.counter("acn.exec.batch_tokens"),
        }
    }

    /// Locks `mutex` on behalf of a **token** (locked mode only),
    /// counting the acquisition as contended when another token held
    /// the lock. The probe is folded into a single acquisition path:
    /// an uncontended `try_lock` *is* the acquisition (one touch of
    /// the mutex), and only a contended acquisition falls back to the
    /// blocking `lock` after bumping the counter.
    ///
    /// Writer-side (slow path) acquisitions — harvest, snapshot build,
    /// split/merge transfer — deliberately do **not** go through this
    /// probe: they are serialized under the structure write lock, so
    /// probing them would double-touch mutexes that cannot contend and
    /// pollute `acn.conc.lock_contention` with writer noise, which
    /// must stay an accurate token-vs-token signal now that the fast
    /// path takes no component locks at all. Under the model checker
    /// (`CONTENTION_PROBES == false`) the probe is skipped so the
    /// observation does not double the explored operations.
    fn lock<'a, S: SyncApi>(
        &self,
        mutex: &'a S::Mutex<Component>,
    ) -> <S::Mutex<Component> as SyncMutex<Component>>::Guard<'a> {
        if S::CONTENTION_PROBES {
            if let Some(guard) = mutex.try_lock() {
                return guard;
            }
            self.lock_contention.inc();
        }
        mutex.lock()
    }
}

/// A concurrent adaptive counting network for one address space.
///
/// Cloneable via `Arc`; see the module docs for the locking discipline.
/// Generic over [`SyncApi`] (default [`RealSync`]) so the same code is
/// both the production executor and the model-checked artifact.
pub struct SharedAdaptiveNetwork<S: SyncApi = RealSync> {
    tree: Tree,
    style: WiringStyle,
    mode: ExecMode,
    structure: S::RwLock<Structure<S>>,
    /// The drain gate (lock-free mode): every fast-path token holds a
    /// read pin for the duration of its traversal; a reconfiguring
    /// writer takes it exclusively, which blocks until in-flight
    /// tokens finish and stalls new ones — the quiescent point at
    /// which snapshot residues are harvested and a new snapshot is
    /// published. The payload carries no data.
    gate: S::RwLock<u64>,
    /// The published routing snapshot (lock-free mode).
    snapshot: S::Snapshot<FastSnapshot<S>>,
    /// The current epoch; bumped with every published snapshot.
    epoch: S::AtomicU64,
    /// Per-wire arrival/exit tallies, cache-line padded: adjacent
    /// wires are hammered by different threads, and unpadded they
    /// false-share (same flat-scaling failure as the leaf atomics).
    input_counts: Vec<CachePadded<S::AtomicU64>>,
    output_counts: Vec<CachePadded<S::AtomicU64>>,
    metrics: ConcMetrics,
    /// Sampled `exec.traverse` spans with monotonic timestamps from the
    /// [`SyncApi`] clock seam. Disabled (one branch per token) unless
    /// [`attach_tracer`](Self::attach_tracer) is called.
    tracer: Tracer,
}

impl SharedAdaptiveNetwork<RealSync> {
    /// A new lock-free shared network of width `w`, starting as one
    /// component.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a power of two or `w < 2`.
    #[must_use]
    pub fn new(w: usize) -> Self {
        Self::new_in(w)
    }

    /// A new shared network of width `w` on the locked (per-component
    /// mutex) path — the benchmark baseline.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a power of two or `w < 2`.
    #[must_use]
    pub fn new_locked(w: usize) -> Self {
        Self::new_locked_in(w)
    }
}

impl<S: SyncApi> SharedAdaptiveNetwork<S> {
    /// A new lock-free shared network of width `w` under an explicit
    /// [`SyncApi`] (the model checker instantiates this with
    /// `VirtualSync`).
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a power of two or `w < 2`.
    #[must_use]
    pub fn new_in(w: usize) -> Self {
        Self::with_mode_in(w, ExecMode::LockFree)
    }

    /// A new locked-mode shared network of width `w` under an explicit
    /// [`SyncApi`].
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a power of two or `w < 2`.
    #[must_use]
    pub fn new_locked_in(w: usize) -> Self {
        Self::with_mode_in(w, ExecMode::Locked)
    }

    fn with_mode_in(w: usize, mode: ExecMode) -> Self {
        let tree = Tree::new(w);
        let cut = Cut::root();
        let components: BTreeMap<ComponentId, S::Mutex<Component>> = cut
            .leaves()
            .iter()
            .map(|id| {
                (*id, S::Mutex::with_rank(Component::new(&tree, id), lock_rank(id)))
            })
            .collect();
        let structure = Structure { cut, components };
        let snapshot = Self::build_snapshot(&tree, WiringStyle::Ahs, &structure, 0);
        SharedAdaptiveNetwork {
            tree,
            style: WiringStyle::Ahs,
            mode,
            structure: S::RwLock::new(structure),
            gate: S::RwLock::new(0),
            snapshot: S::Snapshot::new(Arc::new(snapshot)),
            epoch: S::AtomicU64::new(0),
            input_counts: (0..w).map(|_| CachePadded::new(S::AtomicU64::new(0))).collect(),
            output_counts: (0..w).map(|_| CachePadded::new(S::AtomicU64::new(0))).collect(),
            metrics: ConcMetrics::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// The execution mode this network was constructed in.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Registers this network's metrics (`acn.conc.*`) with `registry`.
    ///
    /// Call before sharing the network across threads (it needs `&mut`).
    /// Telemetry is observation-only: routed values and step-property
    /// behaviour are identical with or without a registry attached.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = ConcMetrics::attach(registry);
    }

    /// Routes sampled `exec.traverse` spans (one per sampled token,
    /// timestamped with [`SyncApi::monotonic_now`]) into `tracer`.
    ///
    /// Call before sharing the network across threads (it needs `&mut`).
    /// A token's pseudo trace id is `arrival * width + wire`, so a
    /// sampling mask of `2^k - 1` keeps roughly one token in `2^k`;
    /// use [`Tracer::with_sampling`] to bound the fast-path overhead
    /// (the disabled/unsampled cost is a single branch per token).
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// The network width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.tree.width()
    }

    /// A snapshot of the current cut.
    #[must_use]
    pub fn cut(&self) -> Cut {
        self.structure.read().cut.clone()
    }

    /// Whether the installed component set is exactly the cut's leaf
    /// set — the split/merge atomicity invariant (a token must never
    /// observe a half-installed child set). The model checker asserts
    /// this at every quiescent point.
    #[must_use]
    pub fn structure_consistent(&self) -> bool {
        let structure = self.structure.read();
        structure.components.len() == structure.cut.leaves().len()
            && structure.cut.leaves().iter().all(|id| structure.components.contains_key(id))
    }

    /// Routes one token from `wire` to an output wire. Many threads may
    /// push concurrently; the quiescent per-wire exit counts always have
    /// the step property.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= width`.
    pub fn push(&self, wire: usize) -> usize {
        // lint: relaxed-ok(per-wire arrival tally; only read at quiescence, where the caller's join/sync supplies the edge)
        let arrival = self.input_counts[wire].fetch_add(1, Ordering::Relaxed);
        self.metrics.tokens.inc();
        let span = self.start_traverse_span(wire, arrival);
        let out = self.route_token(wire);
        self.finish_traverse_span(span, out);
        // lint: relaxed-ok(RMWs on one location totally order in the modification order; cross-wire step claims hold only at quiescence)
        self.output_counts[out].fetch_add(1, Ordering::Relaxed);
        out
    }

    /// The single [`ExecMode`] dispatch point for scalar traversals:
    /// every token-routing entry (`push`, `next_value`) funnels
    /// through here, so mode selection lives in exactly one place.
    #[inline]
    fn route_token(&self, wire: usize) -> usize {
        match self.mode {
            ExecMode::Locked => self.traverse_locked(wire),
            ExecMode::LockFree => self.traverse_fast(wire),
        }
    }

    /// The single [`ExecMode`] dispatch point for **batched**
    /// traversals: routes `weight` tokens from `wire` at once,
    /// accumulating how many exit on each output wire into `exits`
    /// (which must be zero-initialized, `width` long).
    fn route_batch(&self, wire: usize, weight: u64, exits: &mut [u64]) {
        match self.mode {
            ExecMode::Locked => {
                // The locked path has no weighted traversal (every hop
                // takes a component mutex anyway); a batch is just the
                // sequential replay.
                for _ in 0..weight {
                    exits[self.traverse_locked(wire)] += 1;
                }
            }
            ExecMode::LockFree => self.traverse_fast_batch(wire, weight, exits),
        }
    }

    /// Routes `weight` tokens from `wire` in one batched traversal —
    /// on the lock-free path: **one snapshot pin and one `fetch_add`
    /// per leaf crossed** for the whole batch, instead of `weight`
    /// full traversals. Returns the per-output-wire exit counts (sum
    /// = `weight`). Quiescent totals keep the step property: a batch
    /// is indistinguishable from `weight` back-to-back tokens because
    /// round-robin output depends only on the counter, never on
    /// arrival order (DESIGN.md §12).
    ///
    /// # Panics
    ///
    /// Panics if `wire >= width`.
    pub fn push_batch(&self, wire: usize, weight: u64) -> Vec<u64> {
        let mut exits = vec![0u64; self.width()];
        if weight == 0 {
            return exits;
        }
        // lint: relaxed-ok(per-wire arrival tally; only read at quiescence, where the caller's join/sync supplies the edge)
        self.input_counts[wire].fetch_add(weight, Ordering::Relaxed);
        self.metrics.tokens.add(weight);
        self.metrics.batch_flushes.inc();
        self.metrics.batch_tokens.add(weight);
        self.route_batch(wire, weight, &mut exits);
        for (out, &count) in exits.iter().enumerate() {
            if count > 0 {
                // lint: relaxed-ok(RMWs on one location totally order in the modification order; cross-wire step claims hold only at quiescence)
                self.output_counts[out].fetch_add(count, Ordering::Relaxed);
            }
        }
        exits
    }

    /// Batched [`next_value`](Self::next_value): claims `weight`
    /// distinct counter values in one traversal and returns them
    /// (unordered). Concurrent batches never overlap, and at
    /// quiescence the union of all handed-out values is dense — but
    /// values *within and across* in-flight batches may be claimed out
    /// of real-time order, so a batched counter is quiescently
    /// consistent rather than linearizable (the standard trade of
    /// batched id allocation; see DESIGN.md §12).
    ///
    /// # Panics
    ///
    /// Panics if `wire >= width`.
    pub fn next_batch(&self, wire: usize, weight: u64) -> Vec<u64> {
        let mut values = Vec::with_capacity(weight as usize);
        if weight == 0 {
            return values;
        }
        // lint: relaxed-ok(per-wire arrival tally; only read at quiescence, where the caller's join/sync supplies the edge)
        self.input_counts[wire].fetch_add(weight, Ordering::Relaxed);
        self.metrics.tokens.add(weight);
        self.metrics.batch_flushes.inc();
        self.metrics.batch_tokens.add(weight);
        let mut exits = vec![0u64; self.width()];
        self.route_batch(wire, weight, &mut exits);
        let w = self.width() as u64;
        for (out, &count) in exits.iter().enumerate() {
            if count == 0 {
                continue;
            }
            // lint: relaxed-ok(the rounds come from this wire's own RMW modification order, which alone determines the handed-out values)
            let round = self.output_counts[out].fetch_add(count, Ordering::Relaxed);
            for j in 0..count {
                values.push(out as u64 + (round + j) * w);
            }
        }
        values
    }

    /// Distributed-counter semantics: routes a token and returns
    /// `out + w * round`. Concurrent calls hand out distinct values with
    /// no gaps once quiescent.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= width`.
    pub fn next_value(&self, wire: usize) -> u64 {
        // lint: relaxed-ok(per-wire arrival tally; only read at quiescence, where the caller's join/sync supplies the edge)
        let arrival = self.input_counts[wire].fetch_add(1, Ordering::Relaxed);
        self.metrics.tokens.inc();
        let span = self.start_traverse_span(wire, arrival);
        let out = self.route_token(wire);
        // lint: relaxed-ok(the round comes from this wire's own RMW modification order, which alone determines the handed-out value)
        let round = self.output_counts[out].fetch_add(1, Ordering::Relaxed);
        let value = out as u64 + round * self.width() as u64;
        // The span must close *after* the round claim: the fetch_add
        // above is the linearization point of a single-component
        // counter, and the history oracle reconstructs invocation/
        // response intervals (and the handed-out value) from these
        // spans. Closing early would shrink the interval past the
        // effect and break the real-time precedence order.
        if let Some((trace, start)) = span {
            self.tracer.record(
                Span::new("exec.traverse", trace)
                    .between(start, S::monotonic_now())
                    .with("out", out as u64)
                    .with("value", value),
            );
        }
        value
    }

    /// Opens a sampled `exec.traverse` span for the token that is the
    /// `arrival`-th on `wire`: `Some((trace, start))` if the token is
    /// sampled, `None` (a single branch when tracing is disabled)
    /// otherwise. The pseudo trace id interleaves wires so any
    /// power-of-two sampling mask stays uniform across wires.
    #[inline]
    fn start_traverse_span(&self, wire: usize, arrival: u64) -> Option<(u64, u64)> {
        let trace = arrival * self.width() as u64 + wire as u64;
        if self.tracer.should_sample(trace) {
            Some((trace, S::monotonic_now()))
        } else {
            None
        }
    }

    /// Closes a span opened by
    /// [`start_traverse_span`](Self::start_traverse_span).
    #[inline]
    fn finish_traverse_span(&self, span: Option<(u64, u64)>, out: usize) {
        if let Some((trace, start)) = span {
            self.tracer.record(
                Span::new("exec.traverse", trace)
                    .between(start, S::monotonic_now())
                    .with("out", out as u64),
            );
        }
    }

    /// The locked traversal: a structure read lock for the duration,
    /// per-component mutexes per hop. Returns the exit wire.
    fn traverse_locked(&self, wire: usize) -> usize {
        let structure = self.structure.read();
        let mut addr = network_input_address(&self.tree, wire, self.style);
        let mut depth = 0u64;
        loop {
            let owner = addr.owner_under(&structure.cut).expect("valid cut");
            let in_port = input_port_of(&self.tree, &owner, &addr, self.style);
            let out_port = {
                let mut comp = self.metrics.lock::<S>(&structure.components[&owner]);
                comp.process_token(in_port)
            };
            depth += 1;
            match resolve_output(&self.tree, &owner, out_port, self.style) {
                OutputDestination::Wire(next) => addr = next,
                OutputDestination::NetworkOutput(out) => {
                    self.metrics.traversal_depth.record(depth);
                    return out;
                }
            }
        }
    }

    /// The lock-free traversal: pin the published snapshot, validate
    /// its epoch, then cross the cut with one `fetch_add` per leaf.
    /// Returns the exit wire.
    ///
    /// Protocol notes (`DESIGN.md` §8):
    /// - The snapshot is loaded *before* the gate pin, so the load
    ///   races reconfiguration and may be stale; the epoch check under
    ///   the pin detects that (the pin synchronizes with the last
    ///   writer's gate release, so the epoch load reads the installed
    ///   epoch, and no writer can bump it while any pin is held).
    ///   A failed validation retries; the pin acquired during the
    ///   retry happens-after the interfering writer, so the reloaded
    ///   snapshot is current and the loop takes at most one retry per
    ///   reconfiguration raced.
    /// - Per-leaf, the arrival tally precedes the hop claim; at the
    ///   harvest quiescent point both sums agree (every token either
    ///   did both or neither — the gate guarantees it).
    fn traverse_fast(&self, wire: usize) -> usize {
        loop {
            let snap = self.snapshot.load();
            let pin = self.gate.read();
            if snap.epoch != self.epoch.load(Ordering::Acquire) {
                self.metrics.snapshot_retries.inc();
                drop(pin);
                continue;
            }
            self.metrics.fastpath_hits.inc();
            let (mut leaf_idx, mut port) = snap.entries[wire];
            let mut depth = 0u64;
            loop {
                let leaf = &snap.leaves[leaf_idx];
                // lint: relaxed-ok(per-epoch arrival tally; read only at the harvest quiescent point, where the gate write acquisition supplies the edge)
                leaf.arrivals[port].fetch_add(1, Ordering::Relaxed);
                // lint: relaxed-ok(the output port comes from this leaf's own RMW modification order, which alone determines it; harvest reads under the gate edge)
                let hop = leaf.hops.fetch_add(1, Ordering::Relaxed);
                let out_port = ((leaf.base_tokens + hop) % leaf.width as u64) as usize;
                depth += 1;
                match leaf.routes[out_port] {
                    FastRoute::Leaf { leaf: next, port: next_port } => {
                        leaf_idx = next;
                        port = next_port;
                    }
                    FastRoute::Exit(out) => {
                        self.metrics.traversal_depth.record(depth);
                        drop(pin);
                        return out;
                    }
                }
            }
        }
    }

    /// The weighted lock-free traversal: carries `weight` tokens
    /// through the pinned snapshot with **one `fetch_add` per leaf
    /// crossed** (two with the arrival tally), however large the
    /// batch.
    ///
    /// The batch claims positions `[h, h + k)` of a leaf's
    /// modification order atomically (`hops.fetch_add(k)`), and
    /// round-robin output is a pure function of position, so the
    /// tokens leaving on output port `q` number
    /// `port_emissions(base + h + k, width, q) -
    ///  port_emissions(base + h, width, q)` — the same delta
    /// arithmetic [`Component::absorb_batch`] uses, which is why the
    /// writer's residue harvest stays exact under weighted tokens
    /// with **no changes**: arrivals and hops are bumped by equal
    /// totals, and absorb only ever looks at sums.
    ///
    /// Downstream weights are accumulated per (leaf, port) and
    /// processed in increasing leaf index: snapshot routes only ever
    /// point at strictly higher leaf indices (leaves are in
    /// `ComponentId` pre-order and wires flow down the cut;
    /// [`build_snapshot`](Self::build_snapshot) asserts it), so a
    /// single in-order sweep settles the whole batch.
    fn traverse_fast_batch(&self, wire: usize, weight: u64, exits: &mut [u64]) {
        loop {
            let snap = self.snapshot.load();
            let pin = self.gate.read();
            if snap.epoch != self.epoch.load(Ordering::Acquire) {
                self.metrics.snapshot_retries.inc();
                drop(pin);
                continue;
            }
            self.metrics.fastpath_hits.add(weight);
            // Pending weight per (leaf, port), settled in index order.
            let mut pending: Vec<Vec<u64>> =
                snap.leaves.iter().map(|l| vec![0u64; l.width]).collect();
            let (leaf0, port0) = snap.entries[wire];
            pending[leaf0][port0] = weight;
            let mut depth = 0u64;
            for leaf_idx in leaf0..snap.leaves.len() {
                let leaf = &snap.leaves[leaf_idx];
                let total: u64 = pending[leaf_idx].iter().sum();
                if total == 0 {
                    continue;
                }
                depth += 1;
                for (port, &k) in pending[leaf_idx].iter().enumerate() {
                    if k > 0 {
                        // lint: relaxed-ok(per-epoch arrival tally; read only at the harvest quiescent point, where the gate write acquisition supplies the edge)
                        leaf.arrivals[port].fetch_add(k, Ordering::Relaxed);
                    }
                }
                // lint: relaxed-ok(the claimed position range comes from this leaf's own RMW modification order, which alone determines the outputs; harvest reads under the gate edge)
                let h = leaf.hops.fetch_add(total, Ordering::Relaxed);
                let before = leaf.base_tokens + h;
                for (q, route) in leaf.routes.iter().enumerate() {
                    let emitted = port_emissions(before + total, leaf.width, q)
                        - port_emissions(before, leaf.width, q);
                    if emitted == 0 {
                        continue;
                    }
                    match *route {
                        FastRoute::Leaf { leaf: next, port } => {
                            debug_assert!(next > leaf_idx, "snapshot routes flow forward");
                            pending[next][port] += emitted;
                        }
                        FastRoute::Exit(out) => exits[out] += emitted,
                    }
                }
            }
            // One depth sample per batch: leaves crossed by the batch
            // (its widest token path), not per token.
            self.metrics.traversal_depth.record(depth);
            drop(pin);
            return;
        }
    }

    /// Splits leaf `id`, blocking until in-flight tokens drain (the
    /// write lock waits out all readers, so the transfer is exact).
    ///
    /// # Errors
    ///
    /// Returns [`AdaptError::Cut`] if `id` is not a splittable leaf.
    pub fn split(&self, id: &ComponentId) -> Result<(), AdaptError> {
        let mut structure = self.structure.write();
        match self.mode {
            ExecMode::Locked => {
                Self::split_locked(&self.tree, self.style, &mut structure, id)?;
            }
            ExecMode::LockFree => {
                // Drain: block until every pinned token completes its
                // traversal; new tokens stall at the gate (or fail
                // epoch validation and retry after we release it).
                let drain = self.gate.write();
                self.harvest_into(&mut structure);
                let result = Self::split_locked(&self.tree, self.style, &mut structure, id);
                // Republish even on error: the harvest rebased the
                // authoritative components, so the outstanding
                // snapshot's `base_tokens` are stale either way.
                self.publish(&structure);
                drop(drain);
                result?;
            }
        }
        self.metrics.splits.inc();
        Ok(())
    }

    fn split_locked(
        tree: &Tree,
        style: WiringStyle,
        structure: &mut Structure<S>,
        id: &ComponentId,
    ) -> Result<(), AdaptError> {
        let mut cut = structure.cut.clone();
        cut.split(tree, id).map_err(AdaptError::Cut)?;
        // Compute the transfer before touching the map so a deferred
        // transfer leaves the structure untouched. (Under the write lock
        // the network is quiescent, so deferral cannot actually happen —
        // this is belt and braces.)
        let children = {
            let parent = structure.components[id].lock();
            split_component(tree, &parent, style)
                .map_err(|why| AdaptError::Deferred(*id, why))?
        };
        structure.components.remove(id);
        for child in children {
            let rank = lock_rank(child.id());
            structure
                .components
                .insert(*child.id(), S::Mutex::with_rank(child, rank));
        }
        structure.cut = cut;
        Ok(())
    }

    /// Merges the subtree under `id` back into one component (recursive,
    /// like [`LocalAdaptiveNetwork::merge`]).
    ///
    /// # Errors
    ///
    /// Returns [`AdaptError::Cut`] if `id` is a leaf already or not
    /// covered by the cut.
    ///
    /// [`LocalAdaptiveNetwork::merge`]: crate::LocalAdaptiveNetwork::merge
    pub fn merge(&self, id: &ComponentId) -> Result<(), AdaptError> {
        let mut structure = self.structure.write();
        match self.mode {
            ExecMode::Locked => {
                Self::merge_locked(&self.tree, self.style, &mut structure, id)?;
            }
            ExecMode::LockFree => {
                let drain = self.gate.write();
                self.harvest_into(&mut structure);
                let result = Self::merge_locked(&self.tree, self.style, &mut structure, id);
                self.publish(&structure);
                drop(drain);
                result?;
            }
        }
        self.metrics.merges.inc();
        Ok(())
    }

    /// Folds the outstanding snapshot's per-epoch counter residues back
    /// into the authoritative components. Called at the drain quiescent
    /// point (gate held exclusively): the gate write acquisition
    /// happens-after every drained token's release, so the relaxed
    /// per-leaf tallies read exactly.
    ///
    /// The batch transfer is exact because a component's output
    /// behaviour depends only on its counter: `n` fast-path tokens
    /// through a leaf with arrival profile `deltas` leave the
    /// [`Component`] in precisely the state `n` sequential
    /// `process_token` calls would have ([`Component::absorb_batch`]).
    fn harvest_into(&self, structure: &mut Structure<S>) {
        let snap = self.snapshot.load();
        debug_assert_eq!(
            snap.epoch,
            self.epoch.load(Ordering::Acquire),
            "harvest must run against the installed snapshot"
        );
        for leaf in &snap.leaves {
            let deltas: Vec<u64> =
                leaf.arrivals.iter().map(|a| a.load(Ordering::Acquire)).collect();
            let n: u64 = deltas.iter().sum();
            if n == 0 {
                continue;
            }
            debug_assert_eq!(
                n,
                leaf.hops.load(Ordering::Acquire),
                "drained tokens tally arrivals and hops equally"
            );
            let mut comp = structure
                .components
                .get(&leaf.id)
                .expect("snapshot mirrors the structure")
                .lock();
            debug_assert_eq!(comp.tokens(), leaf.base_tokens, "snapshot base out of date");
            comp.absorb_batch(&deltas);
        }
    }

    /// Builds and installs a fresh snapshot for the (post-harvest,
    /// post-reconfiguration) structure under the next epoch. Runs with
    /// the gate held exclusively, so no token is pinned.
    fn publish(&self, structure: &Structure<S>) {
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        let snap = Self::build_snapshot(&self.tree, self.style, structure, epoch);
        self.snapshot.store(Arc::new(snap));
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Reduces the cut to its immutable fast-path form: per-leaf atomic
    /// round-robin counters with fully precomputed routing.
    fn build_snapshot(
        tree: &Tree,
        style: WiringStyle,
        structure: &Structure<S>,
        epoch: u64,
    ) -> FastSnapshot<S> {
        let index: BTreeMap<ComponentId, usize> = structure
            .cut
            .leaves()
            .iter()
            .enumerate()
            .map(|(i, id)| (*id, i))
            .collect();
        let leaves: Vec<FastLeaf<S>> = structure
            .cut
            .leaves()
            .iter()
            .map(|id| {
                let comp = structure.components[id].lock();
                assert_eq!(
                    comp.floating(),
                    0,
                    "shared-memory reconfigurations are quiescent, so components \
                     never owe in-flight tokens"
                );
                let width = comp.width();
                let routes = (0..width)
                    .map(|out_port| match resolve_output(tree, id, out_port, style) {
                        OutputDestination::Wire(next) => {
                            let owner = next.owner_under(&structure.cut).expect("valid cut");
                            let port = input_port_of(tree, &owner, &next, style)
                                .expect("cut-boundary wire maps to an input port");
                            FastRoute::Leaf { leaf: index[&owner], port }
                        }
                        OutputDestination::NetworkOutput(out) => FastRoute::Exit(out),
                    })
                    .collect();
                FastLeaf {
                    id: *id,
                    width,
                    base_tokens: comp.tokens(),
                    hops: CachePadded::new(S::AtomicU64::new(0)),
                    arrivals: (0..width)
                        .map(|_| CachePadded::new(S::AtomicU64::new(0)))
                        .collect(),
                    routes,
                }
            })
            .collect();
        // The batched traversal settles pending weights in one
        // in-order sweep, which is sound because internal wires only
        // ever point at strictly later leaves (leaves are in
        // `ComponentId` pre-order — topological for every wiring).
        for (i, leaf) in leaves.iter().enumerate() {
            for route in &leaf.routes {
                if let FastRoute::Leaf { leaf: next, .. } = route {
                    assert!(*next > i, "snapshot routes must flow forward: {i} -> {next}");
                }
            }
        }
        let entries = (0..tree.width())
            .map(|wire| {
                let addr = network_input_address(tree, wire, style);
                let owner = addr.owner_under(&structure.cut).expect("valid cut");
                let port = input_port_of(tree, &owner, &addr, style)
                    .expect("network input maps to an input port");
                (index[&owner], port)
            })
            .collect();
        FastSnapshot { epoch, entries, leaves }
    }

    fn merge_locked(
        tree: &Tree,
        style: WiringStyle,
        structure: &mut Structure<S>,
        id: &ComponentId,
    ) -> Result<(), AdaptError> {
        if structure.cut.contains(id) {
            return Err(AdaptError::Cut(CutError::NotALeaf(*id)));
        }
        let children_ids = tree.children(id);
        if children_ids.is_empty() {
            return Err(AdaptError::Cut(CutError::ChildrenNotLeaves(*id)));
        }
        for child in &children_ids {
            if !structure.cut.contains(child) {
                Self::merge_locked(tree, style, structure, child)?;
            }
        }
        let children: Vec<Component> = children_ids
            .iter()
            .map(|c| structure.components[c].lock().clone())
            .collect();
        let parent = merge_components(tree, id, &children, style)
            .map_err(|why| AdaptError::Deferred(*id, why))?;
        for c in &children_ids {
            structure.components.remove(c);
        }
        let rank = lock_rank(id);
        structure.components.insert(*id, S::Mutex::with_rank(parent, rank));
        structure.cut.merge(tree, id).expect("children are leaves now");
        Ok(())
    }

    /// Tokens that exited per output wire (quiescent snapshots have the
    /// step property). `Acquire` pairs with the caller's quiescence
    /// protocol (thread join or stronger); the per-wire RMWs themselves
    /// stay `Relaxed`.
    #[must_use]
    pub fn output_counts(&self) -> Vec<u64> {
        self.output_counts.iter().map(|c| c.load(Ordering::Acquire)).collect()
    }

    /// Tokens that arrived per input wire (diagnostic; exact once
    /// quiescent).
    #[must_use]
    pub fn input_counts(&self) -> Vec<u64> {
        self.input_counts.iter().map(|c| c.load(Ordering::Acquire)).collect()
    }

    /// Total tokens that exited.
    #[must_use]
    pub fn total_exited(&self) -> u64 {
        self.output_counts.iter().map(|c| c.load(Ordering::Acquire)).sum()
    }

    /// A monotone contention indicator: the sum of the counters that
    /// tick when the fast path collides with reconfiguration
    /// (`acn.conc.snapshot_retries`) or tokens wait on component locks
    /// (`acn.conc.lock_contention`). Reads zero when no telemetry
    /// registry is attached. The sharded front-end's adaptive batch
    /// sizing treats a rising signal as pressure to grow batches.
    #[must_use]
    pub fn contention_signal(&self) -> u64 {
        self.metrics.snapshot_retries.get() + self.metrics.lock_contention.get()
    }
}

impl<S: SyncApi> std::fmt::Debug for SharedAdaptiveNetwork<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let structure = self.structure.read();
        f.debug_struct("SharedAdaptiveNetwork")
            .field("width", &self.tree.width())
            .field("components", &structure.cut.leaves().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_behaviour_matches_local() {
        let shared = SharedAdaptiveNetwork::new(16);
        let mut local = crate::LocalAdaptiveNetwork::new(16);
        let root = ComponentId::root();
        for t in 0..10usize {
            assert_eq!(shared.push(t % 16), local.push(t % 16));
        }
        shared.split(&root).unwrap();
        local.split(&root).unwrap();
        for t in 10..30usize {
            assert_eq!(shared.push((t * 3) % 16), local.push((t * 3) % 16));
        }
        shared.merge(&root).unwrap();
        local.merge(&root).unwrap();
        for t in 30..40usize {
            assert_eq!(shared.push(t % 16), local.push(t % 16));
        }
    }

    #[test]
    fn concurrent_values_are_distinct_and_dense() {
        let net = Arc::new(SharedAdaptiveNetwork::new(8));
        net.split(&ComponentId::root()).unwrap();
        let mut handles = Vec::new();
        for t in 0..8usize {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                (0..200).map(|i| net.next_value((t + i) % 8)).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1600u64).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_pushes_with_live_reconfiguration() {
        let net = Arc::new(SharedAdaptiveNetwork::new(16));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let net = Arc::clone(&net);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut n = 0u64;
                // lint: relaxed-ok(test stop flag; any stale read only runs one more harmless iteration)
                while !stop.load(Ordering::Relaxed) {
                    let _ = net.push((t * 5 + n as usize) % 16);
                    n += 1;
                }
                n
            }));
        }
        // Reconfigure while traffic flows.
        let root = ComponentId::root();
        for _ in 0..30 {
            net.split(&root).expect("split at quiescence");
            net.split(&root.child(0)).expect("split at quiescence");
            net.merge(&root).expect("merge at quiescence");
        }
        // lint: relaxed-ok(test stop flag; workers observe it eventually, exactness is not required)
        stop.store(true, Ordering::Relaxed);
        let pushed: u64 = handles.into_iter().map(|h| h.join().expect("worker")).sum();
        assert_eq!(net.total_exited(), pushed, "token conservation");
        let counts = net.output_counts();
        assert!(
            acn_bitonic::step::is_step_sequence(&counts),
            "step property violated: {counts:?}"
        );
        assert!(net.structure_consistent(), "components must mirror the cut");
    }

    #[test]
    fn telemetry_counts_tokens_depth_and_reconfigurations() {
        let registry = Registry::new();
        let mut net = SharedAdaptiveNetwork::new(8);
        net.attach_telemetry(&registry);
        let net = Arc::new(net);
        let root = ComponentId::root();
        net.split(&root).unwrap();
        for t in 0..40usize {
            net.push(t % 8);
        }
        net.merge(&root).unwrap();
        for t in 0..10usize {
            let _ = net.next_value(t % 8);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("acn.conc.tokens"), Some(50));
        assert_eq!(snap.counter("acn.conc.splits"), Some(1));
        assert_eq!(snap.counter("acn.conc.merges"), Some(1));
        let depth = snap.histogram("acn.conc.traversal_depth").expect("depth histogram");
        assert_eq!(depth.count, 50);
        // Every token crosses at least one component; under the split cut
        // a token crosses two.
        assert!(depth.sum >= 50 + 40, "sum {} too small", depth.sum);
        // No contention in a single-threaded run.
        assert_eq!(snap.counter("acn.conc.lock_contention"), Some(0));
    }

    #[test]
    fn locked_and_lockfree_modes_agree() {
        // Both executors are implementations of the same specification;
        // a deterministic single-threaded run must agree exactly,
        // across reconfigurations.
        let fast = SharedAdaptiveNetwork::new(16);
        let locked = SharedAdaptiveNetwork::new_locked(16);
        assert_eq!(fast.mode(), ExecMode::LockFree);
        assert_eq!(locked.mode(), ExecMode::Locked);
        let root = ComponentId::root();
        for t in 0..20usize {
            assert_eq!(fast.push((t * 7) % 16), locked.push((t * 7) % 16));
        }
        fast.split(&root).unwrap();
        locked.split(&root).unwrap();
        for t in 0..20usize {
            assert_eq!(fast.next_value(t % 16), locked.next_value(t % 16));
        }
        fast.split(&root.child(0)).unwrap();
        locked.split(&root.child(0)).unwrap();
        for t in 0..20usize {
            assert_eq!(fast.push((t * 3) % 16), locked.push((t * 3) % 16));
        }
        fast.merge(&root).unwrap();
        locked.merge(&root).unwrap();
        for t in 0..20usize {
            assert_eq!(fast.next_value(t % 16), locked.next_value(t % 16));
        }
        assert_eq!(fast.output_counts(), locked.output_counts());
    }

    #[test]
    fn fastpath_telemetry_counts_hits_and_retries() {
        let registry = Registry::new();
        let mut net = SharedAdaptiveNetwork::new(8);
        net.attach_telemetry(&registry);
        let root = ComponentId::root();
        net.split(&root).unwrap();
        for t in 0..24usize {
            net.push(t % 8);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("acn.conc.fastpath_hits"), Some(24));
        // Single-threaded: no reconfiguration ever races a pin.
        assert_eq!(snap.counter("acn.conc.snapshot_retries"), Some(0));
        // And no token touched a component lock.
        assert_eq!(snap.counter("acn.conc.lock_contention"), Some(0));
    }

    #[test]
    fn contention_probe_counts_exactly_one_wait() {
        // Regression (ISSUE 3 satellite): the probe must be folded into
        // a single acquisition path — an uncontended lock is one touch
        // and zero contention; a contended lock counts exactly once.
        let registry = Registry::new();
        let metrics = ConcMetrics::attach(&registry);
        let tree = Tree::new(4);
        let mutex: Arc<<RealSync as SyncApi>::Mutex<Component>> =
            Arc::new(SyncMutex::new(Component::new(&tree, &ComponentId::root())));

        // Uncontended: no contention counted.
        drop(metrics.lock::<RealSync>(&mutex));
        assert_eq!(registry.snapshot().counter("acn.conc.lock_contention"), Some(0));

        // Contended: hold the lock elsewhere while a probe acquires.
        let guard = mutex.lock();
        let waiter = {
            let mutex = Arc::clone(&mutex);
            let metrics = ConcMetrics::attach(&registry);
            std::thread::spawn(move || {
                drop(metrics.lock::<RealSync>(&mutex));
            })
        };
        // Let the waiter reach the blocking acquisition, then release.
        while registry.snapshot().counter("acn.conc.lock_contention") != Some(1) {
            std::thread::yield_now();
        }
        drop(guard);
        waiter.join().unwrap();
        assert_eq!(registry.snapshot().counter("acn.conc.lock_contention"), Some(1));
    }

    #[test]
    fn lock_ranks_follow_component_order() {
        let ids = [
            ComponentId::root(),
            ComponentId::from_path(vec![0]),
            ComponentId::from_path(vec![0, 1]),
            ComponentId::from_path(vec![1]),
            ComponentId::from_path(vec![4]),
            ComponentId::from_path(vec![5, 3]),
        ];
        for a in &ids {
            for b in &ids {
                if a < b {
                    assert!(
                        lock_rank(a) < lock_rank(b),
                        "rank order must follow ComponentId order: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_traversal_matches_sequential_replay() {
        // A weight-n batch must be indistinguishable (in exit counts
        // and subsequent behaviour) from n sequential pushes on a twin
        // network — round-robin output is oblivious to arrival order.
        let batched = SharedAdaptiveNetwork::new(8);
        let twin = SharedAdaptiveNetwork::new(8);
        let root = ComponentId::root();
        batched.split(&root).unwrap();
        twin.split(&root).unwrap();

        let exits = batched.push_batch(3, 10);
        let mut expect = vec![0u64; 8];
        for _ in 0..10 {
            expect[twin.push(3)] += 1;
        }
        assert_eq!(exits, expect);
        assert_eq!(exits.iter().sum::<u64>(), 10);

        // Scalar tokens after the batch still agree hop for hop.
        for t in 0..16usize {
            assert_eq!(batched.push(t % 8), twin.push(t % 8));
        }
        assert_eq!(batched.output_counts(), twin.output_counts());

        // And a batch after a reconfiguration (exact residue harvest
        // of the weighted arrivals) still agrees.
        batched.merge(&root).unwrap();
        twin.merge(&root).unwrap();
        let exits = batched.push_batch(1, 7);
        let mut expect = vec![0u64; 8];
        for _ in 0..7 {
            expect[twin.push(1)] += 1;
        }
        assert_eq!(exits, expect);
    }

    #[test]
    fn next_batch_values_are_dense_with_mixed_scalars() {
        let net = SharedAdaptiveNetwork::new(8);
        net.split(&ComponentId::root()).unwrap();
        let mut all = net.next_batch(0, 5);
        all.push(net.next_value(3));
        all.extend(net.next_batch(6, 4));
        all.push(net.next_value(1));
        all.extend(net.next_batch(2, 1));
        all.sort_unstable();
        assert_eq!(all, (0..12u64).collect::<Vec<u64>>());
        let counts = net.output_counts();
        assert!(
            acn_bitonic::step::is_step_sequence(&counts),
            "step property violated: {counts:?}"
        );
    }

    #[test]
    fn locked_mode_batches_agree_with_lockfree() {
        let fast = SharedAdaptiveNetwork::new(8);
        let locked = SharedAdaptiveNetwork::new_locked(8);
        let root = ComponentId::root();
        fast.split(&root).unwrap();
        locked.split(&root).unwrap();
        for (wire, weight) in [(0usize, 6u64), (5, 1), (3, 9), (3, 0), (7, 4)] {
            assert_eq!(fast.push_batch(wire, weight), locked.push_batch(wire, weight));
        }
        let mut a = fast.next_batch(2, 5);
        let mut b = locked.next_batch(2, 5);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(fast.output_counts(), locked.output_counts());
    }

    #[test]
    fn batch_telemetry_counts_flushes_and_tokens() {
        let registry = Registry::new();
        let mut net = SharedAdaptiveNetwork::new(8);
        net.attach_telemetry(&registry);
        net.split(&ComponentId::root()).unwrap();
        let _ = net.push_batch(0, 12);
        let _ = net.next_batch(4, 8);
        let _ = net.push_batch(1, 0); // zero-weight: not a flush
        let snap = registry.snapshot();
        assert_eq!(snap.counter("acn.exec.batch_flushes"), Some(2));
        assert_eq!(snap.counter("acn.exec.batch_tokens"), Some(20));
        // Batched tokens count as fast-path hits and tokens too.
        assert_eq!(snap.counter("acn.conc.fastpath_hits"), Some(20));
        assert_eq!(snap.counter("acn.conc.tokens"), Some(20));
    }

    #[test]
    fn concurrent_batches_with_live_reconfiguration() {
        let net = Arc::new(SharedAdaptiveNetwork::new(16));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let net = Arc::clone(&net);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut values = Vec::new();
                let mut n = 0u64;
                // lint: relaxed-ok(test stop flag; any stale read only runs one more harmless iteration)
                while !stop.load(Ordering::Relaxed) {
                    values.extend(net.next_batch((t * 5 + n as usize) % 16, 1 + n % 7));
                    n += 1;
                }
                values
            }));
        }
        let root = ComponentId::root();
        for _ in 0..20 {
            net.split(&root).expect("split at quiescence");
            net.merge(&root).expect("merge at quiescence");
        }
        // lint: relaxed-ok(test stop flag; workers observe it eventually, exactness is not required)
        stop.store(true, Ordering::Relaxed);
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..all.len() as u64).collect();
        assert_eq!(all, expect, "batched values must be distinct and dense");
        assert!(net.structure_consistent());
    }

    #[test]
    fn send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedAdaptiveNetwork>();
    }
}
