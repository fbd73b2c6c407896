//! `Cluster::run_streamed` holds memory at O(in-flight), not O(requests):
//! arrivals are pulled one at a time from the source and handed straight to
//! the per-server simulators, so no request backlog is ever materialized.
//!
//! A counting global allocator pins that directly (the cluster-level twin of
//! `rubik-sim`'s `event_loop_alloc` test): after a warm-up run has faulted in
//! code paths and sized allocator pools, an 8x-longer streamed run may only
//! pay for run-scoped containers — per-server record vectors and segment
//! timelines that amortize to O(log n) reallocations — while the per-arrival
//! path (source pull, route, offer, schedule) stays allocation-free. The
//! allocation count of the long run must therefore stay within a fixed slack
//! of the short run instead of scaling with the request count.
//!
//! The same contract is pinned with a fault layer attached (hedging +
//! deadlines + timeouts): the hedge trigger tracker is a bounded rolling
//! window, so completions past the window's capacity cost zero allocations —
//! this is the regression test for the unbounded sorted-`Vec` tracker, whose
//! per-completion `insert` made allocations (and work) scale with the total
//! completion count.
//!
//! A keyed router's route index is pinned the same way: on a 256-server
//! `PowerAware` fleet, the keyed run's allocation growth from 512 to 4096
//! requests may not exceed that of the same cluster behind a forward-only
//! wrapper (which scans and so allocates nothing to route), so the index
//! allocates only when it is built.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rubik_cluster::{Cluster, JoinShortestQueue, PowerAware, RequestPolicy, Router, ServerView};
use rubik_load::PoissonSource;
use rubik_sim::{FixedFrequencyPolicy, RequestSpec, SimConfig};
use rubik_workloads::AppProfile;

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

const FLEET: usize = 4;

fn cluster(config: &SimConfig) -> Cluster<FixedFrequencyPolicy> {
    Cluster::new(
        config.clone(),
        FLEET,
        Box::new(JoinShortestQueue::new()),
        |_| FixedFrequencyPolicy::new(config.dvfs.nominal()),
    )
}

fn source(requests: usize) -> PoissonSource {
    PoissonSource::new(AppProfile::masstree(), 0.5 * FLEET as f64, requests, 42)
}

fn allocations_for_streamed_run(requests: usize) -> u64 {
    let config = SimConfig::paper_simulated();
    let cluster = cluster(&config);
    let source = source(requests);
    let before = allocations();
    let outcome = cluster
        .run_streamed(source)
        .expect("a Poisson source is time-ordered");
    let after = allocations();
    assert_eq!(outcome.requests, requests);
    after - before
}

/// Same streamed run, but with the full fault layer engaged: hedging (with
/// a small rolling trigger window so the 4096-request run evicts heavily),
/// per-request deadlines, and attempt timeouts with retries.
fn allocations_for_hedged_run(requests: usize) -> u64 {
    let config = SimConfig::paper_simulated();
    let mean = AppProfile::masstree().mean_service_time();
    let policy = RequestPolicy::new()
        .with_hedging(0.95, 0.5 * mean)
        .with_hedge_window(128)
        .with_deadline(64.0 * mean)
        .with_timeout(16.0 * mean)
        .with_retries(2, mean, 8.0 * mean)
        .with_jitter_seed(7);
    let cluster = cluster(&config).with_request_policy(policy);
    let source = source(requests);
    let before = allocations();
    let outcome = cluster
        .run_streamed(source)
        .expect("a Poisson source is time-ordered");
    let after = allocations();
    assert_eq!(outcome.requests, requests);
    after - before
}

#[test]
fn run_streamed_allocations_do_not_scale_with_request_count() {
    // Warm-up run (fills allocator pools, faults in code paths).
    let _ = allocations_for_streamed_run(512);

    let small = allocations_for_streamed_run(512);
    let large = allocations_for_streamed_run(4096);

    // 8x the requests must not cost 8x the allocations: each arrival is
    // pulled from the source, routed, and offered without allocating, so the
    // only growth is the amortized doubling of per-server record vectors and
    // segment timelines — O(fleet * log n) reallocations in total.
    assert!(
        large < small + 160,
        "run_streamed allocations grew with request count: {small} -> {large}"
    );
}

#[test]
fn hedged_streamed_allocations_do_not_scale_with_request_count() {
    // Warm-up run (fills allocator pools, faults in code paths).
    let _ = allocations_for_hedged_run(512);

    let small = allocations_for_hedged_run(512);
    let large = allocations_for_hedged_run(4096);

    // With hedging + deadlines + timeouts enabled, steady state may only
    // allocate for the in-flight tracking maps at their high-water mark and
    // the bounded hedge window — none of which grow with the stream length.
    // The old unbounded latency tracker failed exactly this bound: its
    // sorted Vec doubled all the way to O(completions).
    assert!(
        large < small + 160,
        "hedged run_streamed allocations grew with request count: {small} -> {large}"
    );
}

/// Forwards only `name` and `route`, hiding the router's key so the driver
/// scans the views instead of building a route index.
struct ScanOnly(PowerAware);

impl Router for ScanOnly {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn route(&mut self, request: &RequestSpec, servers: &[ServerView]) -> usize {
        self.0.route(request, servers)
    }
}

const WIDE_FLEET: usize = 256;

fn allocations_for_wide_run(router: Box<dyn Router>, requests: usize) -> u64 {
    let config = SimConfig::paper_simulated();
    let cluster = Cluster::new(config.clone(), WIDE_FLEET, router, |_| {
        FixedFrequencyPolicy::new(config.dvfs.nominal())
    });
    let source = PoissonSource::new(
        AppProfile::masstree(),
        0.5 * WIDE_FLEET as f64,
        requests,
        42,
    );
    let before = allocations();
    let outcome = cluster
        .run_streamed(source)
        .expect("a Poisson source is time-ordered");
    let after = allocations();
    assert_eq!(outcome.requests, requests);
    after - before
}

#[test]
fn route_index_allocates_only_at_construction() {
    let keyed = |requests| allocations_for_wide_run(Box::new(PowerAware::default()), requests);
    let scanned =
        |requests| allocations_for_wide_run(Box::new(ScanOnly(PowerAware::default())), requests);
    // Warm-up run (fills allocator pools, faults in code paths).
    let _ = keyed(512);

    let keyed_growth = keyed(4096).saturating_sub(keyed(512));
    let scanned_growth = scanned(4096).saturating_sub(scanned(512));

    // Both runs simulate the same thing, so per-server record growth is
    // identical; any extra growth would be the index allocating per arrival.
    assert!(
        keyed_growth <= scanned_growth,
        "route index allocations grew with request count: \
         {keyed_growth} keyed vs {scanned_growth} scanned"
    );
}
