//! Target tail tables.
//!
//! The core of Rubik's efficiency (paper Sec. 4.2, Fig. 5): instead of
//! convolving service-demand distributions on every frequency decision, the
//! controller periodically precomputes two small lookup tables — one for
//! compute cycles and one for memory-bound time. Each row corresponds to a
//! quantile band (octiles in the paper's implementation) of how much work the
//! in-service request has already performed (ω), and each column to a queue
//! position. Entry `(row, i)` is the target-quantile ("tail") amount of
//! *remaining* work until the request at queue position `i` completes:
//!
//! * position 0 is the request in service, whose remaining-work distribution
//!   is the service distribution conditioned on ω,
//! * position `i > 0` adds `i` further independent draws of the service
//!   distribution,
//! * for positions at or beyond the configurable cutoff (16 in the paper),
//!   the distribution is replaced by its Gaussian (CLT) approximation, so
//!   the tables stay small no matter how long the queue grows.
//!
//! # Build cost: the spectral ladder
//!
//! The naive build convolves per row and per position — `rows × (cutoff−1)`
//! full convolutions. The spectral build instead works in the frequency
//! domain: the base PMF is transformed **once** per transform size
//! ([`FftPlan`]), the ladder of self-convolutions `base^⊛i` is produced by
//! one O(n) pointwise product per rung
//! ([`rubik_stats::fft::Spectrum::mul_assign`]), and each rung is shared by
//! *all* progress rows — `O(rows + cutoff)` transforms total. Per rung, a
//! single running-CDF pass accumulates the rung's prefix sums; each table
//! entry is then the `q`-quantile of `cond_row ⊛ base^⊛i`, found by probing
//! that shared CDF (evaluating
//! `P[X_row + Y_i ≤ t] = Σ_a pmf_row[a]·CDF_i[t−a]` directly) without ever
//! materializing the per-row convolution. The reference per-row builder is
//! kept as [`TailTable::build_direct`] and the two are checked against each
//! other by the equivalence tests in
//! `crates/core/tests/spectral_equivalence.rs` and benchmarked by
//! `crates/bench/benches/table_rebuild.rs`.
//!
//! **One ladder per distinct base PMF.** The rungs and every quantile
//! index are pure functions of the base PMF's bits, the rung and `q`; the
//! bucket width only scales the stored value `(t+1)·w`. Workloads draw a
//! request's compute cycles and memory time from one work factor, so both
//! channels land every sample in the same bucket and their trimmed PMFs are
//! often the same bits at different widths. The builder then runs **one**
//! ladder for both tables: one transform, inverse and CDF pass per rung. A
//! memory row whose conditional PMF is the same bits as the compute row's
//! copies its index; the other memory rows probe the same rung CDF.
//! Boundaries, moments and the position-0 column are still computed per
//! table from its own width. Otherwise each table runs its own ladder.
//! The check costs one pass over the two PMFs, and the path has no switch:
//! its tables are the bits two ladders would give.
//! `crates/core/tests/ladder_sharing.rs` pins the shared tables bitwise to
//! separate builds.
//!
//! # Rebuild cost: incremental builder
//!
//! Rubik rebuilds these tables every 100 ms tick, so the build is a
//! steady-state hot path, not a one-off. [`TableBuilder`] is the persistent
//! engine the controller owns for it:
//!
//! * **Plan caching.** [`FftPlan`]s (twiddle factors, bit-reversal tables)
//!   are cached per transform size and reused for every later rebuild; the
//!   ladder also *right-sizes* each rung's transform — rung `i` only needs
//!   `i·(len−1)+1` points of support, so early rungs run at 256–1024 instead
//!   of the deepest rung's size (the running product at the final size
//!   receives exactly the same pointwise-product sequence as before, so deep
//!   rungs are bit-identical to the single-size ladder).
//! * **Buffer reuse.** The trimmed bases, the per-row conditionals, the
//!   spectra, the rung PMF/CDF buffers, and the target's own row storage are
//!   all reused across rebuilds via `*_into` APIs
//!   ([`TableBuilder::build_with_into`] writes into an existing
//!   [`TargetTailTables`]), so a warm rebuild performs **zero allocations**
//!   once every buffer has reached its high-water size, on the one-ladder
//!   path and the two-ladder path alike.
//! * **Windowed probes.** Each rung's CDF is written into a padded buffer —
//!   zeros below its support, the total mass above — so one probe of
//!   `P[X_row + Y_i ≤ t]` is one branch-free loop over the conditional's
//!   non-zero support. A pass probes 8 consecutive `t`s at once, each into
//!   its own accumulator summed in the same ascending order as the
//!   unpadded sum, so every probe is the same bits. The first window sits
//!   at the row's previous answer plus its previous increment and steps up
//!   or down until it brackets the answer; after a few windows each window
//!   bisects the remaining bracket instead. The CDF is monotone in `t`, so
//!   every placement returns the same minimal index — the placement sets
//!   the probe count (about one pass per entry), never the result.
//!
//! [`TargetTailTables::build`]/[`TargetTailTables::build_with`] remain as
//! thin wrappers over a throwaway builder, and the controller skips the
//! rebuild entirely when the profiler's version says the histograms are
//! unchanged (see `RubikController`), making the periodic tick O(1) in the
//! no-new-samples case. `crates/bench/benches/rebuild_amortized.rs` tracks
//! all three tiers (skipped tick, warm rebuild, cold build).
//!
//! # Sharing: one build per distinct profile
//!
//! A fleet of identical servers seeds every controller from the same
//! profile, and a build is a pure function of its inputs: the compute and
//! memory histograms, the quantile, the row count and the cutoff. So a
//! controller's cold build goes through a registry of live builds, and
//! every controller with the same inputs holds the same
//! `Arc<TargetTailTables>`. Seeding N identical servers costs one build.
//!
//! * **Bitwise keys.** Inputs match only if every bit matches: `to_bits`
//!   on each bucket width, PMF value and the quantile, never `f64 ==`
//!   (which would merge `0.0` with `-0.0`). A 64-bit hash over the same
//!   bits is compared first, so a miss rarely touches the PMFs.
//! * **`Weak` entries.** The registry holds a `Weak` per build, never an
//!   `Arc`. It keeps no table alive: once the last sharer drops its tables,
//!   the entry is dead and pruned on the next miss, and a later seed with
//!   the same inputs builds afresh.
//! * **Thread-local scope.** Each thread has its own registry, so there is
//!   no lock on the seeding path. Controllers seeded on different threads
//!   build privately; the tables are the same bits either way.
//! * **Copy-on-write.** A controller rebuilds into `Arc::make_mut`. Its
//!   first rebuild that diverges from its siblings copies the shared
//!   tables once; every later rebuild writes in place, allocation-free.
//!
//! Sharing is always on and has no switch: it cannot change an output bit,
//! because a shared table equals the one the controller would have built.
//! A controller whose tables came from the registry never grows its own
//! [`TableBuilder`] until its first warm rebuild, which also saves the
//! builder's FFT plans and ladder buffers per server.
//!
//! # Lookup cost
//!
//! [`TargetTailTables`] caches the [`GaussianTail`] z-score at build time and
//! resolves the progress row by binary search (`partition_point`) once per
//! decision via [`TargetTailTables::tails_at`]; a per-position lookup is then
//! two array reads (or two fused multiply-adds past the Gaussian cutoff)
//! with no transcendental math on the decision path.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, Weak};

use rubik_stats::fft::{Complex, FftPlan, Spectrum};
use rubik_stats::{GaussianTail, Histogram};
use serde::{Deserialize, Serialize};

/// Queue depth at which the Gaussian approximation takes over
/// ("We use this formulation for i ≥ 16", Sec. 4.2).
pub const DEFAULT_GAUSSIAN_CUTOFF: usize = 16;

/// Number of progress (ω) rows; the paper's implementation uses octiles.
pub const DEFAULT_PROGRESS_ROWS: usize = 8;

/// Mean memory-bound time below which the memory component is treated as
/// absent (avoids charging a full histogram bucket of phantom memory time to
/// compute-only workloads).
const NEGLIGIBLE_MEM_TIME: f64 = 1e-9;

/// Tolerance when comparing a CDF against the target quantile, matching
/// [`Histogram::quantile`].
const QUANTILE_EPS: f64 = 1e-12;

/// One precomputed table (compute cycles or memory time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TailTable {
    /// `rows[row][pos]`: tail remaining work for queue position `pos` when
    /// the in-service request's elapsed work falls in band `row`.
    rows: Vec<Vec<f64>>,
    /// Lower boundary of each elapsed-work band (ascending; first is 0).
    boundaries: Vec<f64>,
    /// Mean/variance of the conditioned in-service distribution, per row
    /// (used by the Gaussian extension).
    cond_mean: Vec<f64>,
    cond_var: Vec<f64>,
    /// Mean/variance of the unconditioned service distribution.
    mean: f64,
    var: f64,
}

/// Lower boundary of progress band `row`: band 0 starts at zero, band `r`
/// at the `r/rows` quantile of the trimmed base. Shared by the spectral
/// builder and the `build_direct` oracle so the two row layouts cannot
/// drift apart.
fn row_boundary(base: &Histogram, row: usize, rows: usize) -> f64 {
    if row == 0 {
        0.0
    } else {
        base.quantile(row as f64 / rows as f64)
    }
}

impl TailTable {
    /// Reference builder: the original per-row convolution scheme,
    /// `rows × (cutoff−1)` full convolutions. Kept as the oracle for the
    /// spectral-vs-direct equivalence tests and as the baseline for the
    /// `table_rebuild` bench.
    fn build_direct(hist: &Histogram, quantile: f64, rows: usize, cutoff: usize) -> Self {
        // Trim negligible tail mass so repeated convolutions stay cheap.
        let base = hist.trim_tail(1e-9);

        let mut boundaries = Vec::with_capacity(rows);
        let mut conds = Vec::with_capacity(rows);
        let mut cond_mean = Vec::with_capacity(rows);
        let mut cond_var = Vec::with_capacity(rows);
        for row in 0..rows {
            let boundary = row_boundary(&base, row, rows);
            boundaries.push(boundary);
            let conditioned = base.conditional_on_elapsed(boundary);
            cond_mean.push(conditioned.mean());
            cond_var.push(conditioned.variance());
            conds.push(conditioned);
        }

        let mut table_rows = Vec::with_capacity(rows);
        for cond in &conds {
            let mut row_vals = Vec::with_capacity(cutoff);
            let mut cumulative = cond.clone();
            row_vals.push(cumulative.quantile(quantile));
            for _ in 1..cutoff {
                cumulative = cumulative.convolve(&base).trim_tail(1e-9);
                row_vals.push(cumulative.quantile(quantile));
            }
            table_rows.push(row_vals);
        }

        Self {
            rows: table_rows,
            boundaries,
            cond_mean,
            cond_var,
            mean: base.mean(),
            var: base.variance(),
        }
    }

    fn zero(rows: usize, cutoff: usize) -> Self {
        Self {
            rows: vec![vec![0.0; cutoff]; rows],
            boundaries: vec![0.0; rows],
            cond_mean: vec![0.0; rows],
            cond_var: vec![0.0; rows],
            mean: 0.0,
            var: 0.0,
        }
    }

    /// In-place equivalent of [`TailTable::zero`], reusing the storage.
    fn zero_into(&mut self, rows: usize, cutoff: usize) {
        self.rows.truncate(rows);
        while self.rows.len() < rows {
            self.rows.push(Vec::new());
        }
        for row in &mut self.rows {
            row.clear();
            row.resize(cutoff, 0.0);
        }
        for v in [
            &mut self.boundaries,
            &mut self.cond_mean,
            &mut self.cond_var,
        ] {
            v.clear();
            v.resize(rows, 0.0);
        }
        self.mean = 0.0;
        self.var = 0.0;
    }

    /// Largest row whose boundary is `<= elapsed`. Boundaries are ascending,
    /// so this is a binary search, resolved once per decision (not per queue
    /// position) by [`TargetTailTables::tails_at`].
    fn row_for(&self, elapsed: f64) -> usize {
        self.boundaries
            .partition_point(|&b| b <= elapsed)
            .saturating_sub(1)
    }

    #[inline]
    fn lookup_row(&self, row: usize, pos: usize, tail: &GaussianTail) -> f64 {
        let explicit = &self.rows[row];
        if pos < explicit.len() {
            explicit[pos]
        } else {
            let mean = self.cond_mean[row] + pos as f64 * self.mean;
            let var = self.cond_var[row] + pos as f64 * self.var;
            tail.tail(mean, var)
        }
    }
}

/// Probes evaluated per pass of a quantile search (see [`RungCdf::quantile`]).
const WINDOW: usize = 8;

/// Passes a quantile search steps its window from the guess before it
/// bisects the remaining bracket instead.
const WINDOW_PASSES: usize = 3;

/// Whether two PMFs are the same bits, entry for entry.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The running CDF of ladder rung `Y_i = base^⊛i`, padded so that every
/// evaluation of `P[X + Y_i ≤ t]` is one branch-free loop: `pad` zeros
/// below the rung's support, then its `support` prefix sums, then copies of
/// the total mass.
///
/// `X` has a conditional PMF (bucket index `a` ↦ value `(a+1)·w`) and `Y_i`
/// index `b` ↦ value `(b+i)·w` (the `i` accounts for the upper-edge
/// representative of each of the `i` summands), so
/// `P[a + b + i ≤ t] = Σ_a pmf[a]·CDF_i[t−i−a]`, summed over ascending `a`.
/// The padding leaves each sum's bits those of the unpadded two-segment sum:
/// a term below the support adds `p·0.0 = +0.0` to a non-negative
/// accumulator, and a term past it is the same `p·total` product.
struct RungCdf<'a> {
    padded: &'a [f64],
    pad: usize,
    support: usize,
    i: usize,
}

impl<'a> RungCdf<'a> {
    /// Turns rung `i`'s PMF in `buf[..support]` into its padded CDF, in
    /// place: the single running-CDF pass, clamping FFT round-off (a
    /// convolution of PMFs cannot go negative), is shifted up past `pad`
    /// zeros and followed by copies of the total, with room for a window
    /// past the largest index with mass of any conditional at most `pad`
    /// long.
    fn write(buf: &'a mut Vec<f64>, support: usize, pad: usize, i: usize) -> Self {
        let mut cum = 0.0;
        for p in &mut buf[..support] {
            cum += p.max(0.0);
            *p = cum;
        }
        buf.truncate(support);
        buf.resize(pad + support, 0.0);
        buf.copy_within(..support, pad);
        buf[..pad].fill(0.0);
        buf.resize(pad + support + pad + WINDOW, cum);
        Self {
            padded: buf,
            pad,
            support,
            i,
        }
    }

    /// `P[X + Y_i ≤ t]` at the [`WINDOW`] consecutive points
    /// `t = start..start + WINDOW`, one independent accumulator per point,
    /// each summed over the conditional's non-zero support `[first, last]`
    /// in ascending `a`. Needs `start ≥ i`, `pad > last`, and the padded
    /// buffer to reach past the last point.
    fn probe(&self, pmf: &[f64], (first, last): (usize, usize), start: usize) -> [f64; WINDOW] {
        let mut acc = [0.0; WINDOW];
        // CDF index of the first point's term for a = 0.
        let origin = self.pad + start - self.i;
        for (a, &p) in (first..).zip(&pmf[first..=last]) {
            let j = origin - a;
            let window: &[f64; WINDOW] = self.padded[j..j + WINDOW]
                .try_into()
                .expect("window is WINDOW long");
            for (acc, &cdf) in acc.iter_mut().zip(window) {
                *acc += p * cdf;
            }
        }
        acc
    }

    /// The `q`-quantile of `X + Y_i` as a combined bucket index `t` (value
    /// `(t+1)·w`): the smallest `t ∈ [i, full_hi]` with
    /// `P[X + Y_i ≤ t] ≥ target`, or `full_hi` if none qualifies, where
    /// `full_hi` is the largest index with mass.
    ///
    /// The first passes probe a window of [`WINDOW`] consecutive indices
    /// around `guess` and step it up or down until it brackets the answer;
    /// after [`WINDOW_PASSES`] each window bisects the remaining bracket.
    /// The CDF is monotone in `t` (a sum of nondecreasing non-negative
    /// terms), so every placement of the windows converges to the same
    /// index: `guess` changes the probe count, never the result.
    fn quantile(&self, pmf: &[f64], nnz: (usize, usize), target: f64, guess: usize) -> usize {
        let full_hi = pmf.len() - 1 + (self.support - 1) + self.i;
        // Invariant: the answer lies in [lo, hi]. Every t < lo falls short
        // of the target; hi reaches it or is full_hi.
        let (mut lo, mut hi) = (self.i, full_hi);
        let mut next = guess.saturating_sub(WINDOW / 2);
        for pass in 0.. {
            let start = if hi - lo < WINDOW {
                lo
            } else if pass < WINDOW_PASSES {
                next.clamp(lo, hi + 1 - WINDOW)
            } else {
                (lo + hi + 1 - WINDOW) / 2
            };
            let cdf = self.probe(pmf, nnz, start);
            match cdf.iter().position(|&c| c >= target) {
                // Every index below start + k falls short. A window that
                // runs past hi (only when the bracket is narrower than it)
                // cannot put the answer beyond hi.
                Some(k) if k > 0 || start == lo => return (start + k).min(hi),
                Some(_) => {
                    hi = start;
                    next = hi.saturating_sub(WINDOW);
                }
                None if start + WINDOW > hi => return hi,
                None => {
                    lo = start + WINDOW;
                    next = lo;
                }
            }
        }
        unreachable!("every pass shrinks the bracket")
    }
}

/// The pair of precomputed tables Rubik consults on every decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetTailTables {
    compute: TailTable,
    memory: TailTable,
    quantile: f64,
    cutoff: usize,
    /// z-score of the target quantile, computed once at build time so the
    /// decision path never evaluates the inverse normal CDF.
    tail: GaussianTail,
}

/// A decision-scoped cursor over [`TargetTailTables`]: the progress rows for
/// the in-service request's elapsed compute/memory work are resolved once
/// (two binary searches), after which each queue position costs two array
/// reads. Obtained from [`TargetTailTables::tails_at`]; borrows the tables,
/// so it is allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct TailsCursor<'a> {
    tables: &'a TargetTailTables,
    compute_row: usize,
    memory_row: usize,
}

impl TailsCursor<'_> {
    /// Tail remaining compute cycles for queue position `pos`.
    #[inline]
    pub fn tail_compute_cycles(&self, pos: usize) -> f64 {
        self.tables
            .compute
            .lookup_row(self.compute_row, pos, &self.tables.tail)
    }

    /// Tail remaining memory-bound time for queue position `pos`.
    #[inline]
    pub fn tail_membound_time(&self, pos: usize) -> f64 {
        self.tables
            .memory
            .lookup_row(self.memory_row, pos, &self.tables.tail)
    }

    /// Both tails for queue position `pos`.
    #[inline]
    pub fn tails(&self, pos: usize) -> (f64, f64) {
        (self.tail_compute_cycles(pos), self.tail_membound_time(pos))
    }
}

/// Persistent spectral table builder (see the module docs, "Rebuild cost:
/// incremental builder").
///
/// The controller owns one of these across its lifetime: FFT plans are
/// cached per transform size, and every working buffer — the trimmed bases,
/// per-row conditionals, spectra, rung PMF/CDF — is reused from rebuild to
/// rebuild, so a warm [`TableBuilder::build_with_into`] performs no
/// allocation once the buffers have reached their high-water sizes. One-off
/// callers go through [`TargetTailTables::build`], which spins up a
/// throwaway builder.
///
/// A new builder is one null pointer: its working state is allocated by
/// its first build, so a controller whose tables come from the shared
/// registry pays nothing for a builder it has not used.
#[derive(Debug, Clone, Default)]
pub struct TableBuilder {
    state: Option<Box<BuilderState>>,
}

/// A [`TableBuilder`]'s working state.
#[derive(Debug, Clone)]
struct BuilderState {
    /// Trimmed copies of the compute and memory histograms.
    bases: [Histogram; 2],
    /// Scratch for conditioning a base on a row's boundary.
    cond: Histogram,
    /// The compute and memory tables' progress rows.
    row_sets: [RowSet; 2],
    ladder: Ladder,
}

/// One table's progress rows while the ladder runs.
#[derive(Debug, Clone, Default)]
struct RowSet {
    /// Every row's conditional PMF, back to back.
    pmfs: Vec<f64>,
    /// Per row: where its conditional PMF lies in `pmfs`, and that PMF's
    /// non-zero support `[first, last]`.
    spans: Vec<Range<usize>>,
    nnz: Vec<(usize, usize)>,
    /// Per row: the last resolved quantile index, and where the next rung's
    /// search starts (that index plus its last increment).
    prev_t: Vec<usize>,
    guess: Vec<usize>,
    /// Per row: the conditional's bits equal the leading row set's, so the
    /// row copies that set's quantile index instead of searching.
    follows: Vec<bool>,
    /// The table's bucket width.
    width: f64,
}

/// The spectral ladder's state: cached plans and per-rung buffers.
#[derive(Debug, Clone, Default)]
struct Ladder {
    /// FFT plans cached by transform size (a handful of powers of two).
    plans: Vec<FftPlan>,
    /// Packed-FFT scratch shared by all transforms.
    scratch: Vec<Complex>,
    /// Spectrum of the trimmed base at the current ladder size.
    base_spec: Spectrum,
    /// Running product `base_spec^i`.
    running: Spectrum,
    /// Time-domain rung `base^⊛i`, then its padded CDF (see [`RungCdf`]).
    rung: Vec<f64>,
}

impl TableBuilder {
    /// Creates an empty builder; buffers grow to their steady-state sizes on
    /// first use.
    pub fn new() -> Self {
        Self { state: None }
    }

    /// Builds a fresh pair of tables with the paper's default shape. Warm
    /// callers that hold a target should prefer
    /// [`TableBuilder::build_with_into`].
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`.
    pub fn build(
        &mut self,
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
    ) -> TargetTailTables {
        self.build_with(
            compute,
            memory,
            quantile,
            DEFAULT_PROGRESS_ROWS,
            DEFAULT_GAUSSIAN_CUTOFF,
        )
    }

    /// Builds a fresh pair of tables with explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`, or `rows`/`cutoff` are zero.
    pub fn build_with(
        &mut self,
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
    ) -> TargetTailTables {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        let mut out = TargetTailTables {
            compute: TailTable::zero(rows.max(1), cutoff.max(1)),
            memory: TailTable::zero(rows.max(1), cutoff.max(1)),
            quantile,
            cutoff,
            tail: GaussianTail::new(quantile),
        };
        self.build_with_into(compute, memory, quantile, rows, cutoff, &mut out);
        out
    }

    /// Rebuilds `out` in place from the given histograms, reusing both the
    /// builder's scratch state and the target's own storage. This is the
    /// controller's warm path: bit-identical results to
    /// [`TargetTailTables::build_with`], zero steady-state allocations.
    ///
    /// When the trimmed compute and memory PMFs are the same bits, one
    /// ladder fills both tables (see the module docs, "Rebuild cost").
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`, or `rows`/`cutoff` are zero.
    pub fn build_with_into(
        &mut self,
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
        out: &mut TargetTailTables,
    ) {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        assert!(rows > 0 && cutoff > 0, "table dimensions must be positive");
        let BuilderState {
            bases: [compute_base, memory_base],
            cond,
            row_sets: [compute_rows, memory_rows],
            ladder,
        } = &mut **self.state.get_or_insert_with(|| {
            Box::new(BuilderState {
                bases: [Histogram::zero(), Histogram::zero()],
                cond: Histogram::zero(),
                row_sets: Default::default(),
                ladder: Ladder::default(),
            })
        });
        // Trim negligible tail mass so the transform size stays small.
        compute.trim_tail_into(1e-9, compute_base);
        compute_rows.prepare(compute_base, cond, quantile, rows, cutoff, &mut out.compute);
        if memory.mean() < NEGLIGIBLE_MEM_TIME {
            out.memory.zero_into(rows, cutoff);
            ladder.run(
                compute_base,
                &mut [(compute_rows, &mut out.compute)],
                quantile,
                cutoff,
            );
        } else {
            memory.trim_tail_into(1e-9, memory_base);
            memory_rows.prepare(memory_base, cond, quantile, rows, cutoff, &mut out.memory);
            if same_bits(compute_base.pmf(), memory_base.pmf()) {
                memory_rows.follow(compute_rows);
                ladder.run(
                    compute_base,
                    &mut [
                        (compute_rows, &mut out.compute),
                        (memory_rows, &mut out.memory),
                    ],
                    quantile,
                    cutoff,
                );
            } else {
                ladder.run(
                    compute_base,
                    &mut [(compute_rows, &mut out.compute)],
                    quantile,
                    cutoff,
                );
                ladder.run(
                    memory_base,
                    &mut [(memory_rows, &mut out.memory)],
                    quantile,
                    cutoff,
                );
            }
        }
        out.quantile = quantile;
        out.cutoff = cutoff;
        out.tail = GaussianTail::new(quantile);
    }
}

impl RowSet {
    /// Row setup for the table of `base` (already trimmed): boundaries,
    /// conditionals with their non-zero support, moments, and the
    /// position-0 column — all into reused storage. Clears `follows`.
    fn prepare(
        &mut self,
        base: &Histogram,
        cond: &mut Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
        out: &mut TailTable,
    ) {
        self.width = base.bucket_width();
        // A first guess at rung 1's increment over position 0: the base's
        // median index plus the one index each added summand contributes.
        let step = base.quantile_bucket(0.5) + 1;
        out.boundaries.clear();
        out.cond_mean.clear();
        out.cond_var.clear();
        out.rows.truncate(rows);
        while out.rows.len() < rows {
            out.rows.push(Vec::new());
        }
        self.pmfs.clear();
        self.spans.clear();
        self.nnz.clear();
        self.prev_t.clear();
        self.guess.clear();
        self.follows.clear();
        self.follows.resize(rows, false);
        for row in 0..rows {
            let boundary = row_boundary(base, row, rows);
            out.boundaries.push(boundary);
            base.conditional_on_elapsed_into(boundary, cond);
            out.cond_mean.push(cond.mean());
            out.cond_var.push(cond.variance());
            let pmf = cond.pmf();
            let start = self.pmfs.len();
            self.pmfs.extend_from_slice(pmf);
            self.spans.push(start..self.pmfs.len());
            let first = pmf
                .iter()
                .position(|&p| p != 0.0)
                .expect("conditional PMF has mass");
            let last = pmf.iter().rposition(|&p| p != 0.0).expect("has mass");
            self.nnz.push((first, last));
            // Position 0 needs no convolution: the conditioned distribution's
            // own quantile (also where rung 1's search starts from).
            let j0 = cond.quantile_bucket(quantile);
            let row_vals = &mut out.rows[row];
            row_vals.clear();
            row_vals.reserve(cutoff);
            row_vals.push(cond.bucket_value(j0));
            self.prev_t.push(j0);
            self.guess.push(j0 + step);
        }
        out.mean = base.mean();
        out.var = base.variance();
    }

    /// Row `row`'s conditional PMF.
    fn pmf(&self, row: usize) -> &[f64] {
        &self.pmfs[self.spans[row].clone()]
    }

    /// Marks each row whose conditional PMF is the same bits as `leader`'s
    /// row: its quantile index at every rung is the leader's.
    fn follow(&mut self, leader: &RowSet) {
        for row in 0..self.follows.len() {
            self.follows[row] = same_bits(self.pmf(row), leader.pmf(row));
        }
    }

    /// Resolves every row's entry for one rung and appends it to `out`. A
    /// row that follows `leader` copies the index the leader resolved for
    /// this rung.
    fn resolve(
        &mut self,
        rung: &RungCdf<'_>,
        target: f64,
        leader: Option<&RowSet>,
        out: &mut TailTable,
    ) {
        for row in 0..self.prev_t.len() {
            let t = match leader {
                Some(leader) if self.follows[row] => leader.prev_t[row],
                _ => rung.quantile(self.pmf(row), self.nnz[row], target, self.guess[row]),
            };
            let prev = std::mem::replace(&mut self.prev_t[row], t);
            self.guess[row] = t + t.saturating_sub(prev);
            out.rows[row].push((t + 1) as f64 * self.width);
        }
    }
}

impl Ladder {
    /// Fills positions `1..cutoff` of each table in `sets` (see the module
    /// docs for the ladder scheme). Every set's conditionals are resolved
    /// against the rungs of `base`, so the sets must share its PMF bits;
    /// a set that follows the first copies its indices where it can.
    fn run(
        &mut self,
        base: &Histogram,
        sets: &mut [(&mut RowSet, &mut TailTable)],
        quantile: f64,
        cutoff: usize,
    ) {
        let Self {
            plans,
            scratch,
            base_spec,
            running,
            rung,
        } = self;
        let base_len = base.pmf().len();
        let target = quantile - QUANTILE_EPS;
        // Right-sized ladder: rung base^⊛i has linear-convolution support
        // i(len−1)+1, so early rungs transform at small power-of-two
        // sizes. When the size steps up, the running product at the new
        // size is caught up with the same pointwise-product sequence a
        // single-size ladder would have applied, so rungs at the deepest
        // size are bit-identical to the uniform-size build.
        let mut cur_size = 0usize;
        let mut exp = 0usize;
        for i in 1..cutoff {
            let support = i * (base_len - 1) + 1;
            if i > 1 {
                let size = support.next_power_of_two().max(2);
                let plan_idx = if size != cur_size {
                    let idx = plan_index(plans, size);
                    plans[idx].forward_into(base.pmf(), scratch, base_spec);
                    running.clone_from(base_spec);
                    exp = 1;
                    cur_size = size;
                    idx
                } else {
                    plan_index(plans, size)
                };
                while exp < i {
                    running.mul_assign(base_spec);
                    exp += 1;
                }
                plans[plan_idx].inverse_into(running, scratch, rung);
            } else {
                // Rung 1 *is* the base PMF — no transform needed.
                rung.clear();
                rung.extend_from_slice(base.pmf());
            }

            let rung = RungCdf::write(rung, support, base_len, i);

            let (leader, followers) = sets.split_first_mut().expect("at least one row set");
            leader.0.resolve(&rung, target, None, leader.1);
            for (set, out) in followers {
                set.resolve(&rung, target, Some(leader.0), out);
            }
        }
    }
}

/// Index of the cached plan for transform size `n`, creating it on first
/// use. The cache holds a handful of distinct power-of-two sizes, so a
/// linear scan beats any map.
fn plan_index(plans: &mut Vec<FftPlan>, n: usize) -> usize {
    match plans.iter().position(|p| p.len() == n) {
        Some(idx) => idx,
        None => {
            plans.push(FftPlan::new(n));
            plans.len() - 1
        }
    }
}

/// The exact inputs of one build (see the module docs, "Sharing").
#[derive(Debug)]
struct BuildInputs<'a> {
    compute: &'a Histogram,
    memory: &'a Histogram,
    quantile: f64,
    rows: usize,
    cutoff: usize,
}

impl BuildInputs<'_> {
    /// Every input bit, as the words the hash and the comparison read.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        fn hist(h: &Histogram) -> impl Iterator<Item = u64> + '_ {
            [h.bucket_width().to_bits(), h.pmf().len() as u64]
                .into_iter()
                .chain(h.pmf().iter().map(|p| p.to_bits()))
        }
        [
            self.quantile.to_bits(),
            self.rows as u64,
            self.cutoff as u64,
        ]
        .into_iter()
        .chain(hist(self.compute))
        .chain(hist(self.memory))
    }

    /// A 64-bit hash of [`BuildInputs::words`] (FxHash's mixing step).
    fn hash(&self) -> u64 {
        self.words().fold(0, |h, w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        })
    }

    /// Bitwise equality: both inputs have the same words.
    fn same_bits(&self, other: &BuildInputs<'_>) -> bool {
        self.words().eq(other.words())
    }
}

/// One registry entry: a live build and the inputs it was built from.
#[derive(Debug)]
struct SharedBuild {
    hash: u64,
    compute: Histogram,
    memory: Histogram,
    quantile: f64,
    rows: usize,
    cutoff: usize,
    tables: Weak<TargetTailTables>,
}

impl SharedBuild {
    fn inputs(&self) -> BuildInputs<'_> {
        BuildInputs {
            compute: &self.compute,
            memory: &self.memory,
            quantile: self.quantile,
            rows: self.rows,
            cutoff: self.cutoff,
        }
    }
}

thread_local! {
    /// This thread's live builds. Entries hold `Weak`s, so the registry
    /// never keeps tables alive; dead entries are pruned on each miss.
    static SHARED_BUILDS: RefCell<Vec<SharedBuild>> = const { RefCell::new(Vec::new()) };
}

impl TableBuilder {
    /// The tables for these inputs, shared with every live table this
    /// thread built here from bitwise-identical inputs (see the module
    /// docs, "Sharing"). On a miss, builds with `self` and registers the
    /// result. Equal to [`TableBuilder::build_with`] on the same inputs.
    /// This is the controller's cold path.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`, or `rows`/`cutoff` are zero.
    pub fn build_shared(
        &mut self,
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
    ) -> Arc<TargetTailTables> {
        let inputs = BuildInputs {
            compute,
            memory,
            quantile,
            rows,
            cutoff,
        };
        let hash = inputs.hash();
        let hit = SHARED_BUILDS.with_borrow(|builds| {
            builds
                .iter()
                .find(|b| b.hash == hash && b.inputs().same_bits(&inputs))
                .and_then(|b| b.tables.upgrade())
        });
        if let Some(tables) = hit {
            return tables;
        }
        let tables = Arc::new(self.build_with(compute, memory, quantile, rows, cutoff));
        SHARED_BUILDS.with_borrow_mut(|builds| {
            builds.retain(|b| b.tables.strong_count() > 0);
            builds.push(SharedBuild {
                hash,
                compute: compute.clone(),
                memory: memory.clone(),
                quantile,
                rows,
                cutoff,
                tables: Arc::downgrade(&tables),
            });
        });
        tables
    }
}

impl TargetTailTables {
    /// Builds the tables from the profiled compute-cycle and memory-time
    /// histograms for the given tail quantile (e.g. 0.95), with the paper's
    /// default table shape (8 progress rows, Gaussian beyond depth 16).
    ///
    /// Thin wrapper over a throwaway [`TableBuilder`]; rebuild loops should
    /// hold a persistent builder and use [`TableBuilder::build_with_into`].
    pub fn build(compute: &Histogram, memory: &Histogram, quantile: f64) -> Self {
        TableBuilder::new().build(compute, memory, quantile)
    }

    /// Builds the tables with explicit table dimensions (used by the
    /// ablation benches).
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`, or `rows`/`cutoff` are zero.
    pub fn build_with(
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
    ) -> Self {
        TableBuilder::new().build_with(compute, memory, quantile, rows, cutoff)
    }

    /// Builds the tables with the reference per-row convolution scheme and
    /// the paper's default shape. Slower than [`TargetTailTables::build`] by
    /// construction; exists as the equivalence-test oracle and the bench
    /// baseline.
    pub fn build_direct(compute: &Histogram, memory: &Histogram, quantile: f64) -> Self {
        Self::build_direct_with(
            compute,
            memory,
            quantile,
            DEFAULT_PROGRESS_ROWS,
            DEFAULT_GAUSSIAN_CUTOFF,
        )
    }

    /// Reference builder with explicit dimensions; see
    /// [`TargetTailTables::build_direct`].
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is not in `(0, 1)`, or `rows`/`cutoff` are zero.
    pub fn build_direct_with(
        compute: &Histogram,
        memory: &Histogram,
        quantile: f64,
        rows: usize,
        cutoff: usize,
    ) -> Self {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        assert!(rows > 0 && cutoff > 0, "table dimensions must be positive");
        let compute_table = TailTable::build_direct(compute, quantile, rows, cutoff);
        let memory_table = if memory.mean() < NEGLIGIBLE_MEM_TIME {
            TailTable::zero(rows, cutoff)
        } else {
            TailTable::build_direct(memory, quantile, rows, cutoff)
        };
        Self {
            compute: compute_table,
            memory: memory_table,
            quantile,
            cutoff,
            tail: GaussianTail::new(quantile),
        }
    }

    /// The tail quantile the tables were built for.
    pub fn quantile(&self) -> f64 {
        self.quantile
    }

    /// The queue depth beyond which the Gaussian approximation is used.
    pub fn gaussian_cutoff(&self) -> usize {
        self.cutoff
    }

    /// Resolves the progress rows for the in-service request's elapsed work
    /// once and returns a cursor for per-position lookups. This is the
    /// decision-path entry point: one decision resolves the rows a single
    /// time and then walks the queue with O(1) lookups.
    pub fn tails_at(&self, elapsed_compute: f64, elapsed_mem: f64) -> TailsCursor<'_> {
        TailsCursor {
            tables: self,
            compute_row: self.compute.row_for(elapsed_compute),
            memory_row: self.memory.row_for(elapsed_mem),
        }
    }

    /// Tail *remaining compute cycles* until the request at queue position
    /// `pos` completes, given that the in-service request has already
    /// executed `elapsed_compute_cycles`.
    pub fn tail_compute_cycles(&self, elapsed_compute_cycles: f64, pos: usize) -> f64 {
        let row = self.compute.row_for(elapsed_compute_cycles);
        self.compute.lookup_row(row, pos, &self.tail)
    }

    /// Tail *remaining memory-bound time* until the request at queue position
    /// `pos` completes, given the in-service request's elapsed memory time.
    pub fn tail_membound_time(&self, elapsed_membound_time: f64, pos: usize) -> f64 {
        let row = self.memory.row_for(elapsed_membound_time);
        self.memory.lookup_row(row, pos, &self.tail)
    }

    /// Convenience: both tails at once. For repeated lookups at the same
    /// elapsed-work point (the common case: walking the queue), prefer
    /// [`TargetTailTables::tails_at`], which resolves the rows only once.
    pub fn tails(&self, elapsed_compute: f64, elapsed_mem: f64, pos: usize) -> (f64, f64) {
        self.tails_at(elapsed_compute, elapsed_mem).tails(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rubik_stats::DeterministicRng;

    fn lognormal_hist(mean: f64, cov: f64, n: usize, seed: u64) -> Histogram {
        let mut rng = DeterministicRng::new(seed);
        let samples: Vec<f64> = (0..n).map(|_| rng.lognormal(mean, cov)).collect();
        Histogram::from_samples(&samples, 128)
    }

    fn zero_hist() -> Histogram {
        Histogram::from_samples(&[0.0, 0.0, 0.0], 4)
    }

    #[test]
    fn deeper_queue_positions_have_larger_tails() {
        let c = lognormal_hist(1e6, 0.3, 5000, 1);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let mut prev = 0.0;
        for pos in 0..32 {
            let tail = t.tail_compute_cycles(0.0, pos);
            assert!(tail > prev, "pos {pos}: {tail} <= {prev}");
            prev = tail;
        }
    }

    #[test]
    fn tail_grows_roughly_linearly_with_queue_depth() {
        let c = lognormal_hist(1e6, 0.3, 5000, 2);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let t1 = t.tail_compute_cycles(0.0, 1);
        let t9 = t.tail_compute_cycles(0.0, 9);
        // Tail at depth 9 should be close to (but less than) 5x the tail at
        // depth 1: independent work averages out, so the tail grows slower
        // than proportionally (the effect Rubik exploits, Sec. 4.1).
        assert!(t9 < 5.2 * t1, "t9 = {t9}, t1 = {t1}");
        assert!(t9 > 3.0 * t1);
    }

    #[test]
    fn per_position_tail_shrinks_relative_to_naive_sum() {
        // The tail of a sum is less than the sum of tails (the queue's
        // completion time concentrates). This is why the last queued request
        // rarely sets the frequency.
        let c = lognormal_hist(1e6, 0.5, 5000, 3);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let single = t.tail_compute_cycles(0.0, 0);
        let ten = t.tail_compute_cycles(0.0, 9);
        assert!(ten < 10.0 * single);
    }

    #[test]
    fn more_elapsed_work_reduces_the_remaining_tail_for_clustered_work() {
        let c = lognormal_hist(1e6, 0.2, 5000, 4);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let fresh = t.tail_compute_cycles(0.0, 0);
        let after_median = t.tail_compute_cycles(1e6, 0);
        assert!(after_median < fresh, "{after_median} vs {fresh}");
    }

    #[test]
    fn gaussian_extension_is_continuous_at_the_cutoff() {
        let c = lognormal_hist(1e6, 0.3, 5000, 5);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let last_explicit = t.tail_compute_cycles(0.0, DEFAULT_GAUSSIAN_CUTOFF - 1);
        let first_gaussian = t.tail_compute_cycles(0.0, DEFAULT_GAUSSIAN_CUTOFF);
        let ratio = first_gaussian / last_explicit;
        // The approximation should hand over smoothly: one extra request's
        // worth of work, not a jump.
        assert!(ratio > 1.0 && ratio < 1.2, "ratio = {ratio}");
    }

    #[test]
    fn zero_memory_distribution_contributes_nothing() {
        let c = lognormal_hist(1e6, 0.3, 2000, 6);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        for pos in 0..20 {
            assert_eq!(t.tail_membound_time(0.0, pos), 0.0);
        }
    }

    #[test]
    fn memory_table_tracks_memory_distribution() {
        let c = lognormal_hist(1e6, 0.3, 2000, 7);
        let m = lognormal_hist(100e-6, 0.3, 2000, 8);
        let t = TargetTailTables::build(&c, &m, 0.95);
        let m0 = t.tail_membound_time(0.0, 0);
        assert!(m0 > 100e-6 && m0 < 300e-6, "m0 = {m0}");
        assert!(t.tail_membound_time(0.0, 3) > 3.0 * 100e-6);
    }

    #[test]
    fn higher_quantile_produces_larger_tails() {
        let c = lognormal_hist(1e6, 0.5, 3000, 9);
        let t95 = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let t99 = TargetTailTables::build(&c, &zero_hist(), 0.99);
        assert!(t99.tail_compute_cycles(0.0, 0) > t95.tail_compute_cycles(0.0, 0));
        assert!(t99.tail_compute_cycles(0.0, 5) > t95.tail_compute_cycles(0.0, 5));
    }

    #[test]
    fn custom_dimensions_are_respected() {
        let c = lognormal_hist(1e6, 0.3, 1000, 10);
        let t = TargetTailTables::build_with(&c, &zero_hist(), 0.95, 4, 8);
        assert_eq!(t.gaussian_cutoff(), 8);
        // Depth 8 and beyond uses the Gaussian extension and still grows.
        assert!(t.tail_compute_cycles(0.0, 8) > t.tail_compute_cycles(0.0, 7));
    }

    #[test]
    fn cursor_matches_single_shot_lookups() {
        let c = lognormal_hist(1e6, 0.4, 3000, 12);
        let m = lognormal_hist(50e-6, 0.4, 3000, 13);
        let t = TargetTailTables::build(&c, &m, 0.95);
        for &(ec, em) in &[(0.0, 0.0), (5e5, 20e-6), (2e6, 200e-6), (1e9, 1.0)] {
            let cursor = t.tails_at(ec, em);
            for pos in 0..40 {
                assert_eq!(
                    cursor.tail_compute_cycles(pos),
                    t.tail_compute_cycles(ec, pos)
                );
                assert_eq!(
                    cursor.tail_membound_time(pos),
                    t.tail_membound_time(em, pos)
                );
                assert_eq!(cursor.tails(pos), t.tails(ec, em, pos));
            }
        }
    }

    #[test]
    fn row_resolution_matches_linear_scan() {
        let c = lognormal_hist(1e6, 0.6, 4000, 14);
        let t = TargetTailTables::build(&c, &zero_hist(), 0.95);
        let boundaries = &t.compute.boundaries;
        // partition_point row resolution must agree with the original linear
        // scan for elapsed values around every boundary.
        let linear = |elapsed: f64| {
            let mut row = 0;
            for (i, &b) in boundaries.iter().enumerate() {
                if elapsed >= b {
                    row = i;
                } else {
                    break;
                }
            }
            row
        };
        let mut probes = vec![0.0, 1e-30, 1e12];
        for &b in boundaries {
            probes.extend([b - 1.0, b, b + 1.0]);
        }
        for p in probes {
            let p = p.max(0.0);
            assert_eq!(t.compute.row_for(p), linear(p), "elapsed {p}");
        }
    }

    /// The unpadded sum the padded probes must reproduce bit for bit:
    /// `P[X + Y_i ≤ t]` split into the saturated segment (shift past the
    /// rung support reads the total) and the in-support window, both over
    /// ascending `a`, with the terms past `t − i` left out.
    fn reference_cdf(
        pmf: &[f64],
        (first, last): (usize, usize),
        cdf: &[f64],
        i: usize,
        t: usize,
    ) -> f64 {
        let Some(ti) = t.checked_sub(i) else {
            return 0.0;
        };
        let support = cdf.len();
        let total = cdf[support - 1];
        let mut acc = 0.0;
        for a in first..=last.min(ti) {
            let shift = ti - a;
            acc += pmf[a] * if shift >= support { total } else { cdf[shift] };
        }
        acc
    }

    fn nnz(pmf: &[f64]) -> (usize, usize) {
        let first = pmf.iter().position(|&p| p != 0.0).unwrap();
        (first, pmf.iter().rposition(|&p| p != 0.0).unwrap())
    }

    #[test]
    fn windowed_search_equals_a_linear_scan() {
        let mut rng = DeterministicRng::new(15);
        let bimodal: Vec<f64> = (0..40)
            .map(|k| if k == 3 || k == 31 { 0.5 } else { 0.0 })
            .collect();
        let heavy: Vec<f64> = (0..60).map(|k| 1.0 / ((k + 1) as f64).powf(1.5)).collect();
        let spread: Vec<f64> = (0..25).map(|_| rng.uniform()).collect();
        let conds: Vec<Vec<f64>> = vec![
            vec![1.0],                // single bucket
            vec![0.0, 0.0, 0.0, 1.0], // point mass off the origin
            bimodal,
            heavy.clone(),
            spread,
        ];
        // Rungs: a point mass, a spread, a heavy tail, one with FFT-style
        // negative round-off, and one whose total falls short of every
        // quantile below, so no index qualifies.
        let rungs: Vec<Vec<f64>> = vec![
            vec![1.0],
            (0..90)
                .map(|k| ((k as f64) * 0.3).sin().abs() / 45.0)
                .collect(),
            heavy.iter().map(|p| p / 2.6).collect(),
            (0..70)
                .map(|k| if k % 7 == 0 { -1e-18 } else { 1.0 / 60.0 })
                .collect(),
            vec![0.1; 8],
        ];
        let quantiles = [1e-9, 0.05, 0.5, 0.95, 0.999, 1.0 - 1e-9];
        let mut buf = Vec::new();
        let mut outcomes = [false; 3]; // t = i, interior, full_hi sentinel
        for cond in &conds {
            let nz = nnz(cond);
            for rung_pmf in &rungs {
                for i in [1, 2, 9] {
                    let pad = cond.len().max(4);
                    buf.clone_from(rung_pmf);
                    let rung = RungCdf::write(&mut buf, rung_pmf.len(), pad, i);
                    let cdf: Vec<f64> = rung.padded[pad..pad + rung.support].to_vec();
                    let full_hi = cond.len() - 1 + rung.support - 1 + i;
                    // Every probe of every window is the reference sum's
                    // bits.
                    for start in i..=full_hi {
                        let probe = rung.probe(cond, nz, start);
                        for (t, got) in (start..).zip(probe) {
                            let want = reference_cdf(cond, nz, &cdf, i, t);
                            assert_eq!(got.to_bits(), want.to_bits(), "t = {t}");
                        }
                    }
                    for &q in &quantiles {
                        let target = q - QUANTILE_EPS;
                        let linear = (i..=full_hi)
                            .find(|&t| reference_cdf(cond, nz, &cdf, i, t) >= target)
                            .unwrap_or(full_hi);
                        let kind = if linear == i {
                            0
                        } else if reference_cdf(cond, nz, &cdf, i, full_hi) < target {
                            2
                        } else {
                            1
                        };
                        outcomes[kind] = true;
                        for guess in (0..full_hi + 2 * WINDOW).chain([usize::MAX / 2]) {
                            assert_eq!(
                                rung.quantile(cond, nz, target, guess),
                                linear,
                                "cond {cond:?}, i {i}, q {q}, guess {guess}"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(outcomes, [true; 3], "every exit of the search is covered");
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn rejects_invalid_quantile() {
        let c = lognormal_hist(1e6, 0.3, 100, 11);
        let _ = TargetTailTables::build(&c, &zero_hist(), 1.0);
    }
}
