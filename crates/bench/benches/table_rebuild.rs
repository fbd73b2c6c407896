//! Target-tail-table rebuild cost (paper Sec. 4.2: the tables are rebuilt
//! every 100 ms, so the build must be far cheaper than the interval).
//!
//! Compares the spectral builder (one forward transform of the base PMF, the
//! `base^⊛i` ladder built in the frequency domain and shared across all
//! progress rows) against the reference per-row convolution builder it
//! replaced. The acceptance bar for the spectral path is ≥ 5× on the default
//! 8×16 table shape with 128-bucket histograms. The `proportional` case
//! draws both channels from one work factor, so one ladder serves both
//! tables; the `spectral` case draws them independently and runs two.
//!
//! Results are appended to `BENCH_controller.json` at the repo root so the
//! perf trajectory is tracked across PRs (see the vendored criterion's JSON
//! emitter).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rubik::core::{OnlineProfiler, TargetTailTables};
use rubik::stats::DeterministicRng;

const BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json");

/// Profiles 4096 requests. Independent draws give the two channels
/// different PMFs, so each table runs its own ladder. Proportional draws
/// scale one work factor into both channels, as `WorkloadGenerator` does;
/// both PMFs are then the same bits and one ladder fills both tables.
fn profiled_histograms(proportional: bool) -> (rubik::Histogram, rubik::Histogram) {
    let mut profiler = OnlineProfiler::new(4096);
    let mut rng = DeterministicRng::new(1);
    for _ in 0..4096 {
        if proportional {
            let factor = rng.lognormal(1.0, 0.3);
            profiler.record(factor * 6e5, factor * 80e-6);
        } else {
            profiler.record(rng.lognormal(6e5, 0.3), rng.lognormal(80e-6, 0.3));
        }
    }
    (
        profiler.compute_histogram().unwrap(),
        profiler.membound_histogram().unwrap(),
    )
}

fn bench_table_rebuild(c: &mut Criterion) {
    let (compute, memory) = profiled_histograms(false);
    let (prop_compute, prop_memory) = profiled_histograms(true);
    let mut group = c.benchmark_group("table_rebuild");

    // The default paper shape: 8 progress rows, Gaussian beyond depth 16.
    group.bench_function("spectral_8x16_128_buckets", |b| {
        b.iter(|| TargetTailTables::build(&compute, &memory, 0.95))
    });
    group.bench_function("proportional_8x16_128_buckets", |b| {
        b.iter(|| TargetTailTables::build(&prop_compute, &prop_memory, 0.95))
    });
    group.bench_function("direct_8x16_128_buckets", |b| {
        b.iter(|| TargetTailTables::build_direct(&compute, &memory, 0.95))
    });

    // Scaling with the explicit-position cutoff: the spectral ladder grows
    // O(cutoff) while the direct path grows O(rows × cutoff) convolutions.
    for &cutoff in &[8usize, 32, 64] {
        group.bench_with_input(
            BenchmarkId::new("spectral_cutoff", cutoff),
            &cutoff,
            |b, &cutoff| {
                b.iter(|| TargetTailTables::build_with(&compute, &memory, 0.95, 8, cutoff))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("direct_cutoff", cutoff),
            &cutoff,
            |b, &cutoff| {
                b.iter(|| TargetTailTables::build_direct_with(&compute, &memory, 0.95, 8, cutoff))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).output_json(BENCH_JSON);
    targets = bench_table_rebuild
}
criterion_main!(benches);
