//! Heap-allocation budgets of a cold scenario and of a cache hit.
//!
//! A cold sweep's fixed cost is what each of its tasks costs, and a good
//! part of that is allocator traffic: the script task, batchsim around it,
//! the collector and the merge barrier. A warm rerun's is the decode of
//! each cached point and its place in the dataset. These tests count the
//! allocations a collect makes on its own thread and pin them per executed
//! scenario and per cache hit, so per-pool facts resolved per task (a
//! host list formatted for every task), a scrape that grows its maps
//! instead of sizing them, strings built for a disabled trace, or a
//! point's maps spread over a block per string show up here as a failure.
//! Each budget is the count measured when it was set plus about 15%.
//!
//! The counter is per thread (a const `thread_local!` `Cell`, which never
//! allocates), so allocations of other tests running in parallel are not
//! counted; the collect runs on one worker, which is the calling thread.

use hpcadvisor::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations a cold scenario may make, counted inside `collect_with`
/// (79.4 measured, since each pool builds a task layout's `HOSTLIST_PPN`
/// and hostfile once and a task shares them; 80.9 when every task
/// formatted both and copied its hostfile).
const BUDGET_PER_SCENARIO: u64 = 91;

/// Allocations a cache hit may make, counted inside an all-hits
/// `collect_with` (12.5 measured).
const BUDGET_PER_HIT: u64 = 14;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter touches no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `n` distinct OpenFOAM meshes drawn by a seeded splitmix64 stream from
/// the span of the bundled examples (`40 12 16` to `80 24 24`).
fn meshes(seed: u64, n: usize) -> Vec<String> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out: Vec<String> = Vec::with_capacity(n);
    while out.len() < n {
        let x = 40 + next() % 41;
        let y = 12 + next() % 13;
        let z = 16 + next() % 9;
        let mesh = format!("{x} {y} {z}");
        if !out.contains(&mesh) {
            out.push(mesh);
        }
    }
    out
}

/// Listing 1's three SKUs × nnodes 1–4 × 20 meshes = 240 scenarios, on a
/// session with its own empty in-memory cache or with `cache`.
fn grid_session(cache: Option<SharedScenarioCache>) -> Session {
    let mut config = UserConfig::example_openfoam();
    config.nnodes = vec![1, 2, 3, 4];
    config.appinputs = vec![("mesh".into(), meshes(7, 20))];
    let builder = Session::builder(config).seed(7);
    match cache {
        Some(cache) => builder.shared_cache(cache),
        None => builder,
    }
    .build()
    .unwrap()
}

/// Allocations `collect_with` makes on this thread, and its report.
fn counted_collect(session: &mut Session) -> (u64, CollectReport) {
    let plan = CollectPlan::new().workers(1);
    let before = allocations();
    let report = session.collect_with(&plan).unwrap();
    (allocations() - before, report)
}

#[test]
fn a_cold_scenario_stays_within_its_allocation_budget() {
    // The default session cache is in memory: a cold collect only writes.
    let (spent, report) = counted_collect(&mut grid_session(None));
    let executed = report.stats.executed as u64;
    assert_eq!(executed, 240, "every scenario of the cold grid runs");
    assert_eq!(report.stats.completed, 240, "and completes");
    let per_scenario = spent as f64 / executed as f64;
    eprintln!("{per_scenario:.1} allocations per cold scenario");
    assert!(
        spent <= BUDGET_PER_SCENARIO * executed,
        "{spent} allocations for {executed} scenarios ({per_scenario:.1} each) exceed the \
         budget of {BUDGET_PER_SCENARIO} per scenario"
    );
}

#[test]
fn a_cache_hit_stays_within_its_allocation_budget() {
    let mut cold = grid_session(None);
    counted_collect(&mut cold);
    // A second session over the first one's cache finds every scenario.
    let (spent, report) = counted_collect(&mut grid_session(Some(cold.cache())));
    let hits = report.stats.cache_hits as u64;
    assert_eq!(hits, 240, "every scenario of the warm grid hits");
    assert_eq!(report.stats.executed, 0, "and none runs");
    let per_hit = spent as f64 / hits as f64;
    eprintln!("{per_hit:.1} allocations per cache hit");
    assert!(
        spent <= BUDGET_PER_HIT * hits,
        "{spent} allocations for {hits} cache hits ({per_hit:.1} each) exceed the budget of \
         {BUDGET_PER_HIT} per hit"
    );
}
