//! One spectral ladder for both tail tables, pinned bitwise.
//!
//! When the trimmed compute and memory PMFs are the same bits, the builder
//! runs one ladder and fills both tables from it; memory rows whose
//! conditional PMF equals the compute row's copy its quantile indices.
//! Only the bucket width differs between the channels, and it only scales
//! the stored values. So the memory table of `build_with(c, m)` must equal,
//! bit for bit, the compute table of `build_with(m, zero)`, which runs a
//! ladder of its own. This suite checks that:
//!
//! * for PMFs that are the same bits at different widths (one ladder);
//! * for pairs that differ in one bucket (two ladders);
//! * for pairs whose conditionals differ on some rows only, so some memory
//!   rows copy and the others search the shared rungs;
//! * through a warm builder reused across all of these, so no state of one
//!   build leaks into the next.

use rubik_core::{TableBuilder, TargetTailTables};
use rubik_stats::{DeterministicRng, Histogram};

/// Table shapes: the paper's default, a small one and a deep one.
const SHAPES: [(f64, usize, usize); 4] =
    [(0.95, 8, 16), (0.5, 4, 8), (0.99, 16, 24), (0.999, 8, 16)];

fn zero_hist() -> Histogram {
    Histogram::from_samples(&[0.0, 0.0, 0.0], 4)
}

/// Seeded 128-bucket PMFs: lognormal, bimodal and heavy-tailed.
fn pmfs() -> Vec<Vec<f64>> {
    let mut rng = DeterministicRng::new(2015);
    let mut out = Vec::new();
    for n in [64, 512, 4096] {
        let lognormal: Vec<f64> = (0..n).map(|_| rng.lognormal(1.0, 0.4)).collect();
        let bimodal: Vec<f64> = (0..n)
            .map(|_| {
                if rng.bernoulli(0.2) {
                    rng.lognormal(5.0, 0.1)
                } else {
                    rng.lognormal(1.0, 0.2)
                }
            })
            .collect();
        let heavy: Vec<f64> = (0..n).map(|_| rng.pareto(1.0, 1.6)).collect();
        for samples in [lognormal, bimodal, heavy] {
            out.push(Histogram::from_samples(&samples, 128).pmf().to_vec());
        }
    }
    out
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Elapsed-work probes across every progress band of `h`, on and around
/// the band boundaries, plus zero and beyond the support.
fn elapsed_grid(h: &Histogram) -> Vec<f64> {
    let mut grid = vec![0.0, h.quantile(1.0) * 3.0];
    for k in 0..=16 {
        let b = h.quantile(k as f64 / 16.0);
        grid.extend([b * (1.0 - 1e-12), b, b * (1.0 + 1e-12), b * 1.01]);
    }
    grid
}

/// Builds `(c, m)` both fresh and through `warm`, and checks both against
/// one-table builds: the compute table equals `build_with(c, zero)`'s and
/// the memory table equals `build_with(m, zero)`'s compute table, bit for
/// bit, at every elapsed value of the grid and positions 0..40 (explicit
/// and Gaussian).
fn assert_tables_match_separate_builds(
    label: &str,
    c: &Histogram,
    m: &Histogram,
    warm: &mut (TableBuilder, Option<TargetTailTables>),
) {
    let zero = zero_hist();
    for &(q, rows, cutoff) in &SHAPES {
        let both = TargetTailTables::build_with(c, m, q, rows, cutoff);
        let (builder, target) = warm;
        let rebuilt = match target {
            Some(t) => {
                builder.build_with_into(c, m, q, rows, cutoff, t);
                &*t
            }
            None => target.insert(builder.build_with(c, m, q, rows, cutoff)),
        };
        assert_eq!(
            format!("{both:?}"),
            format!("{rebuilt:?}"),
            "{label}: a warm rebuild differs from a fresh build"
        );
        let compute_only = TargetTailTables::build_with(c, &zero, q, rows, cutoff);
        let memory_only = TargetTailTables::build_with(m, &zero, q, rows, cutoff);
        for &e in &elapsed_grid(c) {
            for pos in 0..40 {
                let (got, want) = (
                    both.tail_compute_cycles(e, pos),
                    compute_only.tail_compute_cycles(e, pos),
                );
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{label}: compute at q {q}, {rows}x{cutoff}, elapsed {e}, pos {pos}"
                );
            }
        }
        for &e in &elapsed_grid(m) {
            for pos in 0..40 {
                let (got, want) = (
                    both.tail_membound_time(e, pos),
                    memory_only.tail_compute_cycles(e, pos),
                );
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{label}: memory at q {q}, {rows}x{cutoff}, elapsed {e}, pos {pos}"
                );
            }
        }
    }
}

/// Per progress row: whether the conditionals of `c` and `m` are the same
/// bits (the row layout of the table builder, through the public API).
fn conditionals_match(c: &Histogram, m: &Histogram, rows: usize) -> Vec<bool> {
    let (c, m) = (c.trim_tail(1e-9), m.trim_tail(1e-9));
    (0..rows)
        .map(|row| {
            let at = |h: &Histogram| {
                let boundary = if row == 0 {
                    0.0
                } else {
                    h.quantile(row as f64 / rows as f64)
                };
                h.conditional_on_elapsed(boundary)
            };
            same_bits(at(&c).pmf(), at(&m).pmf())
        })
        .collect()
}

#[test]
fn equal_pmfs_at_different_widths_share_one_ladder() {
    let mut warm = (TableBuilder::new(), None);
    for (k, pmf) in pmfs().into_iter().enumerate() {
        let c = Histogram::from_pmf(pmf.clone(), 1.7e6 / 128.0);
        let m = Histogram::from_pmf(pmf, 61e-6 / 128.0);
        assert!(same_bits(c.pmf(), m.pmf()));
        assert_tables_match_separate_builds(&format!("pmf {k}"), &c, &m, &mut warm);
    }
}

#[test]
fn pairs_differing_in_one_bucket_take_two_ladders() {
    let mut warm = (TableBuilder::new(), None);
    for (k, pmf) in pmfs().into_iter().enumerate() {
        let c = Histogram::from_pmf(pmf.clone(), 1.7e6 / 128.0);
        // Add a little mass to the bucket just past the mode.
        let mut moved = pmf;
        let bucket = moved
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i + 1)
            .unwrap();
        moved[bucket] += 1e-3;
        let m = Histogram::from_pmf(moved, 61e-6 / 128.0);
        assert!(!same_bits(c.trim_tail(1e-9).pmf(), m.trim_tail(1e-9).pmf()));
        assert_tables_match_separate_builds(&format!("pmf {k}"), &c, &m, &mut warm);
    }
}

#[test]
fn pairs_whose_conditionals_differ_on_some_rows() {
    // With equal PMFs, a row's conditional still differs when the two
    // widths round its boundary to different buckets. Search seeded widths
    // until, at the default shape, some rows copy and some search.
    let mut rng = DeterministicRng::new(16);
    let mut warm = (TableBuilder::new(), None);
    let mut found = 0;
    for (k, pmf) in pmfs().into_iter().enumerate() {
        let c = Histogram::from_pmf(pmf.clone(), 1.7e6 / 128.0);
        for _ in 0..1000 {
            let m = Histogram::from_pmf(pmf.clone(), rng.uniform_range(1e-7, 1e-5));
            let rows = conditionals_match(&c, &m, 8);
            if rows.contains(&true) && rows.contains(&false) {
                assert_tables_match_separate_builds(&format!("pmf {k}"), &c, &m, &mut warm);
                found += 1;
                break;
            }
        }
    }
    assert!(
        found >= 6,
        "only {found} PMFs found a partly matching width"
    );
}
