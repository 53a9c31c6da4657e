//! Heap-allocation budget of the message-passing token path.
//!
//! A converged, settled 64-node width-16 deployment carries 2000 tokens at
//! one per 20 simulated ticks while a counting global allocator tallies
//! the heap allocations made on this thread. Component ids and wire
//! addresses are inline `Copy` values, so routing, probing, the
//! idempotency ledger and the ack/retry bookkeeping should allocate only
//! for the messages and ledger entries themselves. The simulation is
//! deterministic, so the count is too; the budget leaves headroom over it
//! and fails on any change that puts heap work back on every hop.
//!
//! This binary holds one test so that no other test shares its allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use acn_core::dist::Deployment;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// The counter is a const-initialised thread-local `Cell`, which never
// allocates, so counting cannot re-enter the allocator.
// safety: every method forwards its arguments to `System` unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // safety: the caller's `alloc` contract holds for `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // safety: the caller's `alloc_zeroed` contract holds for `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    // safety: `ptr` came from `System` via this allocator; same contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    // safety: `ptr` came from `System` via this allocator; same contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WIDTH: usize = 16;
const NODES: usize = 64;
const TOKENS: u64 = 2000;
const INJECT_EVERY: u64 = 20;
/// Allocations per token allowed on the token path.
const BUDGET_PER_TOKEN: f64 = 8.0;

#[test]
fn token_path_allocations_stay_within_budget() {
    let mut d = Deployment::new(WIDTH, NODES, 7);
    // Level convergence: run level periods until the live cut stops
    // changing, then settle, so no split or merge falls in the window.
    let mut last = None;
    for _ in 0..16 {
        d.run_for(d.level_period);
        let cut = d.live_cut();
        if last.as_ref() == Some(&cut) {
            break;
        }
        last = Some(cut);
    }
    assert!(d.settle(200), "the deployment did not settle after boot");

    let mut wire = 0x5EED_u64;
    let before = allocations();
    for _ in 0..TOKENS {
        wire = wire.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        d.inject((wire >> 33) as usize % WIDTH);
        d.run_for(INJECT_EVERY);
    }
    let per_token = (allocations() - before) as f64 / TOKENS as f64;

    for _ in 0..100 {
        if d.collector().total() >= TOKENS {
            break;
        }
        d.run_for(d.level_period);
    }
    assert_eq!(d.collector().total(), TOKENS, "not every token was counted");
    println!("token path: {per_token:.2} heap allocations per token");
    assert!(
        per_token <= BUDGET_PER_TOKEN,
        "token path made {per_token:.2} heap allocations per token, over the budget of \
         {BUDGET_PER_TOKEN}"
    );
}
