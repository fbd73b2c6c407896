//! Fleet-scale cluster throughput: wall time of one `Cluster::run` as the
//! fleet grows (10 → 100 → 1000 servers), with a Rubik controller per
//! server — the heaviest realistic per-server policy — behind the
//! power-aware router.
//!
//! This tracks the event loop's scalability: the per-request cost must
//! stay near-flat as servers multiply, because the loop touches only the
//! globally earliest server per event (stale heap entries are skipped in
//! O(log n)) and the keyed router reads its choice from the driver's route
//! index instead of scanning the fleet. Requests scale with the fleet so
//! every size serves the same per-server load.
//!
//! Only the run is timed: seeding every server's Rubik tables and building
//! the `Cluster` happen in the `iter_batched` setup, outside the
//! measurement. That setup is timed on its own as the construction layer:
//! controller seeding (table builds, shared across servers with the same
//! profile) plus `Cluster::new`, per fleet size.
//!
//! Results merge into `BENCH_controller.json` like the other controller
//! benches, and a summary (per-fleet-size median run time, requests/s and
//! median construction time) is merged into the `"cluster_throughput"`
//! section of `BENCH_cluster.json` (shared with the `fleet_cap` bench) for
//! later PRs to regress against.
//!
//! Env knobs: `RUBIK_CLUSTER_BENCH_REQUESTS` (default 30) sets requests per
//! server; `RUBIK_BENCH_SAMPLE_MS` / `RUBIK_BENCH_SAMPLES` are the usual
//! criterion smoke knobs.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use rubik::cluster::{fleet_trace, PowerAware};
use rubik::{AppProfile, Cluster, RubikConfig, RubikController, SimConfig, Trace};

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json");
const CLUSTER_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");

const FLEETS: [usize; 3] = [10, 100, 1000];
const LOAD: f64 = 0.3;

fn requests_per_server() -> usize {
    std::env::var("RUBIK_CLUSTER_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30)
}

/// Seeds one Rubik controller per server and builds the fleet (untimed).
fn build_fleet(
    config: &SimConfig,
    trace: &Trace,
    fleet: usize,
    bound: f64,
) -> Cluster<RubikController> {
    Cluster::new(
        config.clone(),
        fleet,
        Box::new(PowerAware::default()),
        |_| {
            RubikController::seeded_for_trace(
                RubikConfig::new(bound).with_profiling_window(1024),
                config.dvfs.clone(),
                trace,
                256,
            )
        },
    )
}

/// Serves the trace through a built fleet (timed).
fn run_fleet(cluster: Cluster<RubikController>, trace: &Trace) -> f64 {
    let outcome = cluster.run(trace);
    assert_eq!(outcome.requests, trace.len());
    outcome.fleet_energy // checksum so the run cannot be optimized away
}

fn bench_cluster_throughput(c: &mut Criterion) {
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();
    let per_server = requests_per_server();

    // Construction time of every fleet built in the setup, per fleet size.
    let mut construction_ns: Vec<Vec<f64>> = vec![Vec::new(); FLEETS.len()];
    let mut group = c.benchmark_group("cluster_throughput");
    for (k, fleet) in FLEETS.into_iter().enumerate() {
        let trace = fleet_trace(&profile, LOAD, fleet, per_server * fleet, 2015);
        let built = &mut construction_ns[k];
        group.bench_with_input(BenchmarkId::new("servers", fleet), &fleet, |b, &fleet| {
            b.iter_batched(
                || {
                    let started = Instant::now();
                    let cluster = build_fleet(&config, &trace, fleet, bound);
                    built.push(started.elapsed().as_nanos() as f64);
                    cluster
                },
                |cluster| run_fleet(cluster, &trace),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();

    write_cluster_summary(c, per_server, &mut construction_ns);
}

/// Distills the group's results into the `"cluster_throughput"` section of
/// `BENCH_cluster.json`: per-fleet-size median run time (construction
/// excluded), request throughput and median construction time, with the
/// host's parallelism.
fn write_cluster_summary(c: &Criterion, per_server: usize, construction_ns: &mut [Vec<f64>]) {
    let mut entries = Vec::new();
    for (fleet, built) in FLEETS.into_iter().zip(construction_ns) {
        let id = format!("cluster_throughput/servers/{fleet}");
        if let Some(r) = c.results().iter().find(|r| r.id == id) {
            let requests = per_server * fleet;
            let rps = requests as f64 / (r.median_ns * 1e-9);
            built.sort_by(f64::total_cmp);
            let construct = built[built.len() / 2];
            entries.push(format!(
                "      {{\"servers\": {fleet}, \"requests\": {requests}, \
                 \"median_ns\": {:.1}, \"requests_per_sec\": {rps:.1}, \
                 \"construction_median_ns\": {construct:.1}, \"constructions\": {}}}",
                r.median_ns,
                built.len()
            ));
        }
    }
    if entries.is_empty() {
        return;
    }
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let section = format!(
        "{{\n    \"load_per_server\": {LOAD},\n    \"requests_per_server\": {per_server},\n    \
         \"router\": \"power-aware\",\n    \"policy\": \"rubik-per-server\",\n    \
         \"timed\": \"run only (controller seeding and cluster construction excluded)\",\n    \
         \"construction\": \"controller seeding + Cluster::new, timed per setup\",\n    \
         \"host_parallelism\": {host},\n    \"fleets\": [\n{}\n    ]\n  }}",
        entries.join(",\n")
    );
    if let Err(e) = rubik_bench::merge_bench_section(CLUSTER_JSON, "cluster_throughput", &section) {
        eprintln!("cluster_throughput: could not write {CLUSTER_JSON}: {e}");
    } else {
        println!("cluster_throughput: merged into {CLUSTER_JSON}");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5).output_json(BENCH_JSON);
    targets = bench_cluster_throughput
}
criterion_main!(benches);
