//! Zero steady-state allocations across the controller's warm hot loop.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase that drives every buffer (profiler window, incremental bucket
//! counts, the table builder's plans/spectra/rows, the rolling tail
//! tracker's sort scratch) to its high-water size, a full
//! completion → tick (with a *performed* rebuild) → arrival cycle must not
//! allocate at all. This is the structural guarantee behind the
//! "incremental, allocation-free rebuilds" contract: the 100 ms tick costs
//! arithmetic, never the allocator.
//!
//! The same holds when one work factor scales both channels, so the
//! compute and memory PMFs are the same bits and one ladder fills both
//! tables.
//!
//! Controllers seeded from one profile share their tables, so the same
//! holds after a shared table's one copy-on-write, and a seed served from
//! the shared-build registry allocates less than a cold build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rubik_core::{OnlineProfiler, RubikConfig, RubikController};
use rubik_sim::{DvfsConfig, DvfsPolicy, InServiceView, QueuedView, RequestRecord, ServerState};
use rubik_stats::DeterministicRng;

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread. Counting per thread keeps
    /// the tests of this binary, which the harness runs in parallel, from
    /// counting each other's allocations; every measured region runs on
    /// its test's own thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counter may already be gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only touches a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn state(now: f64, dvfs: &DvfsConfig, queue: &mut Vec<QueuedView>) -> ServerState {
    // The queued vector is moved in and out of the state so the test itself
    // performs no steady-state allocation either.
    ServerState {
        now,
        current_freq: dvfs.min(),
        target_freq: dvfs.min(),
        in_service: Some(InServiceView {
            id: 0,
            arrival: now - 1e-4,
            elapsed_compute_cycles: 3e5,
            elapsed_membound_time: 20e-6,
            oracle_compute_cycles: 1e6,
            oracle_membound_time: 60e-6,
            class: 0,
        }),
        queued: std::mem::take(queue),
    }
}

/// One steady-state iteration: a completion (new profile sample), the
/// periodic tick (which must perform a full rebuild — the profile changed),
/// and an arrival decision. Cycles are spaced 4 ms apart so the 1 s
/// feedback window saturates and fires during warm-up and steady state
/// alike.
fn drive_cycle(
    rubik: &mut RubikController,
    dvfs: &DvfsConfig,
    demands: &[(f64, f64)],
    cycle: u64,
    queue: &mut Vec<QueuedView>,
) {
    let now = 0.2 + cycle as f64 * 4e-3;
    let (c, m) = demands[(cycle as usize) % demands.len()];
    let record = RequestRecord {
        id: cycle,
        arrival: now - 5e-4,
        start: now - 4e-4,
        completion: now,
        compute_cycles: c,
        membound_time: m,
        queue_len_at_arrival: 1,
        class: 0,
    };
    let mut s = state(now, dvfs, queue);
    rubik.on_completion(&s, &record);
    rubik.on_tick(&s);
    rubik.on_arrival(&s);
    *queue = std::mem::take(&mut s.queued);
}

/// Seeds a controller from `demands`, warms it up, and asserts that 256
/// steady-state cycles, each performing a rebuild, allocate nothing.
fn assert_warm_cycles_allocate_nothing(demands: &[(f64, f64)]) {
    let dvfs = DvfsConfig::haswell_like();
    // Small profiling window so the test exercises eviction (and the
    // incremental count maintenance) on every cycle, not just appends.
    let config = RubikConfig::new(2e-3).with_profiling_window(WINDOW);
    let mut rubik = RubikController::new(config, dvfs.clone());
    rubik.seed_profile(demands.iter().copied());

    let mut queue: Vec<QueuedView> = (1..4)
        .map(|i| QueuedView {
            id: i,
            arrival: 0.0,
            oracle_compute_cycles: 1e6,
            oracle_membound_time: 60e-6,
            class: 0,
        })
        .collect();

    // Warm-up: fill the window past capacity (forcing evictions and grid
    // recounts), saturate the rolling feedback window, and perform many
    // real rebuilds so every buffer reaches its high-water size.
    for cycle in 0..512 {
        drive_cycle(&mut rubik, &dvfs, demands, cycle, &mut queue);
    }

    let before_rebuilds = rubik.stats().table_rebuilds_performed;
    let before = allocations();
    for cycle in 512..768 {
        drive_cycle(&mut rubik, &dvfs, demands, cycle, &mut queue);
    }
    let after = allocations();
    let stats = rubik.stats();

    // The steady-state cycles really did rebuild (no accidental gating) ...
    assert_eq!(
        stats.table_rebuilds_performed - before_rebuilds,
        256,
        "each steady-state tick must perform a rebuild"
    );
    // ... and did so without touching the allocator.
    assert_eq!(
        after - before,
        0,
        "steady-state completion+tick+arrival cycles must not allocate"
    );
}

const WINDOW: usize = 256;

/// Demands are drawn up front into a fixed pool: the pool's maximum enters
/// the window during warm-up, so the steady-state phase never grows the
/// bucket grid past its high-water shape.
fn demand_pool(seed: u64, proportional: bool) -> Vec<(f64, f64)> {
    let mut rng = DeterministicRng::new(seed);
    (0..64)
        .map(|_| {
            if proportional {
                let factor = rng.lognormal(1.0, 0.4);
                (factor * 1e6, factor * 60e-6)
            } else {
                (rng.lognormal(1e6, 0.4), rng.lognormal(60e-6, 0.4))
            }
        })
        .collect()
}

#[test]
fn warm_completion_tick_arrival_cycle_allocates_nothing() {
    assert_warm_cycles_allocate_nothing(&demand_pool(42, false));
}

#[test]
fn warm_rebuilds_on_one_shared_ladder_allocate_nothing() {
    // One work factor scales both channels, as `WorkloadGenerator` draws
    // them, so the two histograms are the same PMF bits and one ladder
    // fills both tables.
    let demands = demand_pool(42, true);
    let mut profiler = OnlineProfiler::new(WINDOW);
    profiler.seed(demands.iter().copied());
    for cycle in 0..768 {
        profiler.record(
            demands[cycle % demands.len()].0,
            demands[cycle % demands.len()].1,
        );
        if cycle >= 512 {
            let (c, m) = (
                profiler.compute_histogram().unwrap(),
                profiler.membound_histogram().unwrap(),
            );
            assert!(
                c.pmf()
                    .iter()
                    .map(|p| p.to_bits())
                    .eq(m.pmf().iter().map(|p| p.to_bits())),
                "cycle {cycle}: the channels' PMFs differ, so the rebuild runs two ladders"
            );
        }
    }
    assert_warm_cycles_allocate_nothing(&demands);
}

#[test]
fn version_gated_tick_allocates_nothing_and_skips() {
    let dvfs = DvfsConfig::haswell_like();
    let mut rubik = RubikController::new(RubikConfig::new(2e-3), dvfs.clone());
    let mut rng = DeterministicRng::new(7);
    rubik.seed_profile((0..128).map(|_| (rng.lognormal(1e6, 0.3), rng.lognormal(40e-6, 0.3))));

    let mut queue = Vec::new();
    let s = state(0.5, &dvfs, &mut queue);
    rubik.on_tick(&s); // settle any first-tick work
    let before = allocations();
    for _ in 0..64 {
        rubik.on_tick(&s);
    }
    assert_eq!(
        allocations() - before,
        0,
        "gated ticks must not allocate a byte"
    );
    assert!(rubik.stats().table_rebuilds_skipped >= 64);
}

#[test]
fn shared_tables_copy_once_then_rebuild_without_allocating() {
    let dvfs = DvfsConfig::haswell_like();
    let config = RubikConfig::new(2e-3).with_profiling_window(256);
    let mut rng = DeterministicRng::new(43);
    let demands: Vec<(f64, f64)> = (0..64)
        .map(|_| (rng.lognormal(1e6, 0.4), rng.lognormal(60e-6, 0.4)))
        .collect();
    // Two controllers seeded from one profile share one table allocation.
    let mut fleet: Vec<RubikController> = (0..2)
        .map(|_| {
            let mut rubik = RubikController::new(config, dvfs.clone());
            rubik.seed_profile(demands.iter().copied());
            rubik
        })
        .collect();
    let shared = |fleet: &[RubikController]| {
        std::ptr::eq(fleet[0].tables().unwrap(), fleet[1].tables().unwrap())
    };
    assert!(shared(&fleet));
    let snapshot = format!("{:?}", fleet[1].tables().unwrap());

    let mut queue: Vec<QueuedView> = (1..4)
        .map(|i| QueuedView {
            id: i,
            arrival: 0.0,
            oracle_compute_cycles: 1e6,
            oracle_membound_time: 60e-6,
            class: 0,
        })
        .collect();

    for k in 0..2 {
        let rubik = &mut fleet[k];
        // The first divergent rebuild copies the shared tables, so it is
        // part of the warm-up, alongside every other buffer's growth.
        for cycle in 0..512 {
            drive_cycle(rubik, &dvfs, &demands, cycle, &mut queue);
        }
        let before_rebuilds = rubik.stats().table_rebuilds_performed;
        let before = allocations();
        for cycle in 512..768 {
            drive_cycle(rubik, &dvfs, &demands, cycle, &mut queue);
        }
        let after = allocations();
        assert_eq!(
            rubik.stats().table_rebuilds_performed - before_rebuilds,
            256,
            "controller {k}: each steady-state tick must perform a rebuild"
        );
        assert_eq!(
            after - before,
            0,
            "controller {k}: rebuilds after the copy must not allocate"
        );
        if k == 0 {
            // The copy left the sibling's tables alone.
            assert!(!shared(&fleet));
            assert_eq!(format!("{:?}", fleet[1].tables().unwrap()), snapshot);
        }
    }
}

#[test]
fn a_registry_hit_seed_allocates_less_than_a_cold_seed() {
    let dvfs = DvfsConfig::haswell_like();
    let config = RubikConfig::new(2e-3).with_profiling_window(256);
    let mut rng = DeterministicRng::new(44);
    let demands: Vec<(f64, f64)> = (0..128)
        .map(|_| (rng.lognormal(1e6, 0.3), rng.lognormal(40e-6, 0.3)))
        .collect();
    let seed = || {
        let mut rubik = RubikController::new(config, dvfs.clone());
        rubik.seed_profile(demands.iter().copied());
        rubik
    };
    let mut fleet = Vec::with_capacity(18);

    let before = allocations();
    fleet.push(seed());
    let cold = allocations() - before;

    let before = allocations();
    fleet.push(seed());
    let hit = allocations() - before;
    assert!(
        hit < cold,
        "a registry hit ({hit} allocations) must allocate less than a cold build ({cold})"
    );

    for i in 0..16 {
        let before = allocations();
        fleet.push(seed());
        assert_eq!(allocations() - before, hit, "hit {i} allocated differently");
    }
    let first = fleet[0].tables().unwrap();
    assert!(fleet
        .iter()
        .all(|rubik| std::ptr::eq(rubik.tables().unwrap(), first)));
}
