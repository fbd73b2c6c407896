//! Shared tail tables, pinned.
//!
//! A cold table build goes through a thread-local registry of live builds
//! keyed by the exact input bits, so controllers seeded from one profile
//! share one `Arc<TargetTailTables>`. This suite checks that:
//!
//! * identical seeds share one allocation, equal to a fresh build;
//! * any differing input bit (one PMF bucket by one ulp, `-0.0` for `0.0`,
//!   the memory histogram, quantile, rows, cutoff) gets its own build;
//! * a divergent rebuild copies the shared tables and leaves every sibling
//!   bit-identical, and the copy equals a fresh build of the new profile;
//! * interleaved profiles give exactly one allocation each;
//! * the registry holds no strong reference;
//! * seeding on several threads gives the same bits as seeding on one.

use std::collections::HashSet;
use std::sync::Arc;

use rubik_core::{OnlineProfiler, RubikConfig, RubikController, TableBuilder, TargetTailTables};
use rubik_sim::{DvfsConfig, DvfsPolicy, InServiceView, RequestRecord, ServerState};
use rubik_stats::{DeterministicRng, Histogram};

const WINDOW: usize = 512;

fn config() -> RubikConfig {
    RubikConfig::new(2e-3).with_profiling_window(WINDOW)
}

/// A seed profile; distinct `seed`s give distinct profiles.
fn demands(seed: u64, n: usize) -> Vec<(f64, f64)> {
    let mut rng = DeterministicRng::new(seed);
    (0..n)
        .map(|_| (rng.lognormal(1e6, 0.3), rng.lognormal(50e-6, 0.3)))
        .collect()
}

fn seeded(config: RubikConfig, demands: &[(f64, f64)]) -> RubikController {
    let mut rubik = RubikController::new(config, DvfsConfig::haswell_like());
    rubik.seed_profile(demands.iter().copied());
    rubik
}

fn tables(rubik: &RubikController) -> &TargetTailTables {
    rubik.tables().expect("a seeded controller has tables")
}

/// Every bit of a table pair: `Debug` prints each float in its shortest
/// round-trip form (`-0.0` included), so two renderings are equal exactly
/// when the bits are.
fn bits(t: &TargetTailTables) -> String {
    format!("{t:?}")
}

/// The histograms a controller with `config` builds from `demands`, made
/// by a separate profiler.
fn histograms(config: &RubikConfig, demands: &[(f64, f64)]) -> (Histogram, Histogram) {
    let mut profiler = OnlineProfiler::new(config.profiling_window);
    profiler.seed(demands.iter().copied());
    (
        profiler.compute_histogram().expect("seeded"),
        profiler.membound_histogram().expect("seeded"),
    )
}

fn fresh_build(config: &RubikConfig, demands: &[(f64, f64)]) -> TargetTailTables {
    let (c, m) = histograms(config, demands);
    TargetTailTables::build_with(
        &c,
        &m,
        config.quantile,
        config.progress_rows,
        config.gaussian_cutoff,
    )
}

/// Distinct table allocations across `fleet`.
fn allocations(fleet: &[RubikController]) -> usize {
    fleet
        .iter()
        .map(|r| tables(r) as *const TargetTailTables)
        .collect::<HashSet<_>>()
        .len()
}

#[test]
fn controllers_seeded_from_one_trace_share_one_allocation() {
    let profile = demands(1, 300);
    let fleet: Vec<_> = (0..64).map(|_| seeded(config(), &profile)).collect();
    let first = tables(&fleet[0]);
    for (i, rubik) in fleet.iter().enumerate() {
        assert!(
            std::ptr::eq(tables(rubik), first),
            "controller {i} built its own tables"
        );
        assert_eq!(rubik.stats().table_rebuilds_performed, 1);
    }
    let fresh = fresh_build(&config(), &profile);
    assert_eq!(*first, fresh);
    assert_eq!(bits(first), bits(&fresh));
}

/// `hist` with bucket `j` one ulp heavier, through the same constructor as
/// the unchanged copy it is returned with.
fn nudged(hist: &Histogram, j: usize) -> (Histogram, Histogram) {
    let mut pmf = hist.pmf().to_vec();
    let same = Histogram::from_pmf(pmf.clone(), hist.bucket_width());
    pmf[j] = f64::from_bits(pmf[j].to_bits() + 1);
    let changed = Histogram::from_pmf(pmf, hist.bucket_width());
    // The test relies on the two differing in exactly that one bit pattern.
    for (k, (a, b)) in same.pmf().iter().zip(changed.pmf()).enumerate() {
        let ulps = b.to_bits() - a.to_bits();
        assert_eq!(ulps, u64::from(k == j), "bucket {k} moved {ulps} ulps");
    }
    (same, changed)
}

#[test]
fn any_differing_input_bit_gets_its_own_build() {
    // 256 samples: every PMF value is a multiple of 1/256, so the PMF sums
    // to exactly 1 and `from_pmf`'s normalisation leaves it untouched.
    let mut rng = DeterministicRng::new(2);
    let samples: Vec<f64> = (0..256).map(|_| rng.lognormal(1e6, 0.3)).collect();
    let memory_samples: Vec<f64> = (0..256).map(|_| rng.lognormal(50e-6, 0.3)).collect();
    let compute = Histogram::from_samples(&samples, 128);
    let memory = Histogram::from_samples(&memory_samples, 128);
    let j = compute
        .pmf()
        .iter()
        .position(|&p| p > 0.0)
        .expect("has mass");
    let (same, ulp_heavier) = nudged(&compute, j);
    assert_eq!(same.pmf(), compute.pmf());

    // A `-0.0` bucket compares equal under `f64 ==` but not bitwise.
    let zero = compute
        .pmf()
        .iter()
        .position(|&p| p == 0.0)
        .expect("an empty bucket");
    let mut pmf = compute.pmf().to_vec();
    pmf[zero] = -0.0;
    let negative_zero = Histogram::from_pmf(pmf, compute.bucket_width());
    assert_eq!(negative_zero, compute, "f64 == cannot tell the two apart");

    let other_memory = Histogram::from_samples(&memory_samples[..255], 128);

    let mut builder = TableBuilder::new();
    let base = builder.build_shared(&compute, &memory, 0.95, 8, 16);
    assert!(
        Arc::ptr_eq(&base, &builder.build_shared(&same, &memory, 0.95, 8, 16)),
        "bitwise-equal inputs must share"
    );

    let variants: [(&str, &Histogram, &Histogram, f64, usize, usize); 6] = [
        (
            "one PMF bucket 1 ulp up",
            &ulp_heavier,
            &memory,
            0.95,
            8,
            16,
        ),
        ("-0.0 bucket", &negative_zero, &memory, 0.95, 8, 16),
        ("memory histogram", &compute, &other_memory, 0.95, 8, 16),
        ("quantile", &compute, &memory, 0.99, 8, 16),
        ("rows", &compute, &memory, 0.95, 4, 16),
        ("cutoff", &compute, &memory, 0.95, 8, 12),
    ];
    let mut built = vec![Arc::clone(&base)];
    for (what, c, m, q, rows, cutoff) in variants {
        let t = builder.build_shared(c, m, q, rows, cutoff);
        for other in &built {
            assert!(!Arc::ptr_eq(&t, other), "{what}: shared a different build");
        }
        // Each variant's own tables are still what a private build gives.
        assert_eq!(
            bits(&t),
            bits(&TargetTailTables::build_with(c, m, q, rows, cutoff)),
            "{what}"
        );
        built.push(t);
    }

    // The same differences through the controller's configuration.
    let profile = demands(3, 300);
    let reference = seeded(config(), &profile);
    let configs = [
        ("quantile", config().with_quantile(0.99)),
        ("rows", config().with_table_shape(4, 16)),
        ("cutoff", config().with_table_shape(8, 12)),
    ];
    for (what, cfg) in configs {
        let rubik = seeded(cfg, &profile);
        assert!(
            !std::ptr::eq(tables(&rubik), tables(&reference)),
            "{what}: controllers shared across configurations"
        );
        assert_eq!(bits(tables(&rubik)), bits(&fresh_build(&cfg, &profile)));
    }
    let mut other_memory_profile = profile.clone();
    other_memory_profile[0].1 *= 2.0;
    let rubik = seeded(config(), &other_memory_profile);
    assert!(!std::ptr::eq(tables(&rubik), tables(&reference)));
}

fn busy_state(now: f64) -> ServerState {
    let dvfs = DvfsConfig::haswell_like();
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
        queued: vec![],
    }
}

fn completion(id: u64, now: f64, (compute_cycles, membound_time): (f64, f64)) -> RequestRecord {
    RequestRecord {
        id,
        arrival: now - 5e-4,
        start: now - 4e-4,
        completion: now,
        compute_cycles,
        membound_time,
        queue_len_at_arrival: 0,
        class: 0,
    }
}

#[test]
fn a_divergent_rebuild_copies_and_leaves_siblings_untouched() {
    let profile = demands(4, 300);
    let mut fleet: Vec<_> = (0..4).map(|_| seeded(config(), &profile)).collect();
    let snapshot = bits(tables(&fleet[1]));
    assert_eq!(allocations(&fleet), 1);

    // Server 0 completes a request with a demand its siblings never saw,
    // and its next tick rebuilds.
    let mut grown = profile.clone();
    let mut now = 0.2;
    for id in 0..3 {
        let sample = (2.5e6 + id as f64 * 1e5, 90e-6);
        grown.push(sample);
        let s = busy_state(now);
        fleet[0].on_completion(&s, &completion(id, now, sample));
        fleet[0].on_tick(&s);
        assert_eq!(
            fleet[0].stats().table_rebuilds_performed,
            2 + id,
            "each tick after a completion rebuilds"
        );
        assert_eq!(
            bits(tables(&fleet[0])),
            bits(&fresh_build(&config(), &grown)),
            "rebuild {id} differs from a fresh build of the same profile"
        );
        now += 0.1;
    }

    assert_eq!(allocations(&fleet), 2, "the rebuild copied exactly once");
    for (i, sibling) in fleet.iter().enumerate().skip(1) {
        assert!(std::ptr::eq(tables(sibling), tables(&fleet[1])));
        assert_eq!(
            bits(tables(sibling)),
            snapshot,
            "sibling {i} saw the rebuild"
        );
    }
}

#[test]
fn interleaved_profiles_give_one_allocation_each() {
    let a = demands(5, 300);
    let b = demands(6, 300);
    let fleet: Vec<_> = (0..32)
        .map(|i| seeded(config(), if i % 2 == 0 { &a } else { &b }))
        .collect();
    assert_eq!(allocations(&fleet), 2);
    for pair in fleet.chunks(2) {
        assert!(std::ptr::eq(tables(&pair[0]), tables(&fleet[0])));
        assert!(std::ptr::eq(tables(&pair[1]), tables(&fleet[1])));
    }
    assert_ne!(tables(&fleet[0]), tables(&fleet[1]));
}

#[test]
fn the_registry_holds_no_strong_reference() {
    let profile = demands(7, 300);
    let cfg = config();
    let (c, m) = histograms(&cfg, &profile);
    let shape = (cfg.quantile, cfg.progress_rows, cfg.gaussian_cutoff);
    let build =
        |builder: &mut TableBuilder| builder.build_shared(&c, &m, shape.0, shape.1, shape.2);

    // A handle on the registry's build, then controllers that share it.
    let first = build(&mut TableBuilder::new());
    let fleet: Vec<_> = (0..8).map(|_| seeded(cfg, &profile)).collect();
    for rubik in &fleet {
        assert!(std::ptr::eq(tables(rubik), Arc::as_ptr(&first)));
    }
    let watch = Arc::downgrade(&first);
    assert_eq!(watch.strong_count(), 1 + fleet.len());

    // With every sharer gone the tables are freed, so the registry held
    // none of them, and the next seed builds a new table pair ...
    drop(first);
    drop(fleet);
    assert!(
        watch.upgrade().is_none(),
        "the registry kept the tables alive"
    );
    let next = seeded(cfg, &profile);
    assert_eq!(bits(tables(&next)), bits(&fresh_build(&cfg, &profile)));
    // ... which the registry then serves to later seeds.
    let again = seeded(cfg, &profile);
    assert!(std::ptr::eq(tables(&next), tables(&again)));
}

#[test]
fn seeding_on_four_threads_matches_seeding_on_one() {
    let profiles: Vec<_> = (0..3).map(|k| demands(8 + k, 300)).collect();
    let seed_all = |profiles: &[Vec<(f64, f64)>]| -> Vec<RubikController> {
        (0..12)
            .map(|i| seeded(config(), &profiles[i % profiles.len()]))
            .collect()
    };

    let serial = seed_all(&profiles);
    let threaded: Vec<Vec<RubikController>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| seed_all(&profiles)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seeding thread panicked"))
            .collect()
    });

    assert_eq!(allocations(&serial), profiles.len());
    for fleet in &threaded {
        // Sharing held within each thread, never across threads ...
        assert_eq!(allocations(fleet), profiles.len());
        for (s, t) in serial.iter().zip(fleet) {
            assert!(!std::ptr::eq(tables(s), tables(t)));
            // ... and every thread's tables have the single thread's bits.
            assert_eq!(bits(tables(s)), bits(tables(t)));
        }
    }
}
