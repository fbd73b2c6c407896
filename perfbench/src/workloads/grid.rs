//! `paper_coloc_grid`: the paper's colocation grid (Figs. 15/16) — five
//! latency-critical apps × twenty batch mixes × six loads, one
//! `ColocatedCore::run` under RubikColoc per cell, swept on
//! `SweepExecutor`. One seeding and rebuild cycle per single-server cell;
//! no cluster code runs.

use std::time::Instant;

use rubik::coloc::ColocRunSpec;
use rubik::{AppProfile, BatchMix, ColocScheme, ColocatedCore, SweepExecutor, SweepSpec};

use super::{Metric, Rep, Workload};
use crate::probe::{Instrument, Layer};
use crate::stats::{mean, median, percentile, sorted, Digest};

/// The grid's load axis.
pub const LOADS: [f64; 6] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];

/// LC requests per cell.
const REQUESTS_PER_CELL: usize = 120;

/// Requests of the fixed-frequency run that calibrates each app's latency
/// bound.
const BOUND_REQUESTS: usize = 20_000;

/// The paper-grid workload shape.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperGrid {
    /// Sweep worker threads.
    pub threads: usize,
    /// Seed of the batch mixes and every cell's arrivals.
    pub seed: u64,
}

impl PaperGrid {
    /// The benchmark's shape for `seed`, on `threads` sweep threads.
    pub fn new(seed: u64, threads: usize) -> Self {
        Self { threads, seed }
    }
}

impl Workload for PaperGrid {
    fn rep<I: Instrument>(&self, inst: &I) -> Result<Rep, String> {
        let started = Instant::now();
        let (core, apps, mixes, bounds) = inst.scope(Layer::Setup, || {
            let core = ColocatedCore::new();
            let apps = AppProfile::all();
            let mixes = BatchMix::paper_mixes(self.seed);
            let bounds: Vec<f64> = apps
                .iter()
                .enumerate()
                .map(|(i, app)| {
                    core.latency_bound(app, BOUND_REQUESTS, self.seed.wrapping_add(i as u64))
                })
                .collect();
            (core, apps, mixes, bounds)
        });
        let spec = SweepSpec::new()
            .axis("app", apps.len())
            .axis("mix", mixes.len())
            .axis("load", LOADS.len());
        let executor = SweepExecutor::new(self.threads);
        let setup_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let sweep = inst.scope(Layer::Run, || {
            executor.run(&spec, |cell| {
                let app = cell.get("app");
                core.run(
                    &ColocRunSpec::new(
                        ColocScheme::RubikColoc,
                        &apps[app],
                        &mixes[cell.get("mix")],
                        bounds[app],
                    )
                    .with_load(LOADS[cell.get("load")])
                    .with_requests(REQUESTS_PER_CELL)
                    .with_seed(
                        self.seed
                            .wrapping_mul(1_000_003)
                            .wrapping_add(cell.index() as u64),
                    ),
                )
            })
        });
        let run_s = started.elapsed().as_secs_f64();

        let cells = &sweep.results;
        let mut failures = Vec::new();
        let mut failed = 0;
        let mut digest = Digest::new();
        for (i, c) in cells.iter().enumerate() {
            if !(c.tail_latency.is_finite() && c.normalized_tail.is_finite()) {
                failed += 1;
                failures.push(format!("cell {i} has a non-finite tail"));
            }
            for v in [
                c.tail_latency,
                c.normalized_tail,
                c.lc_energy,
                c.batch_energy,
                c.batch_work,
                c.lc_utilization,
                c.duration,
            ] {
                digest = digest.f64(v);
            }
        }
        if cells.len() != spec.len() {
            failures.push(format!("{} of {} cells ran", cells.len(), spec.len()));
        }

        // The paper's headline: the highest load whose median normalized
        // tail across apps and mixes stays within the bound.
        let max_load = LOADS
            .iter()
            .enumerate()
            .filter(|&(l, _)| {
                let tails: Vec<f64> = spec
                    .cells()
                    .filter(|c| c.get("load") == l)
                    .map(|c| cells[c.index()].normalized_tail)
                    .collect();
                median(&tails) <= 1.0
            })
            .map(|(_, &load)| load)
            .fold(0.0, f64::max);

        let cell_ms = sorted(
            sweep
                .cell_times
                .iter()
                .map(|t| t.as_secs_f64() * 1e3)
                .collect(),
        );
        let cell_busy_s = sweep.total_cell_time().as_secs_f64();
        let powers: Vec<f64> = cells.iter().map(|c| c.average_power()).collect();
        let tails: Vec<f64> = cells.iter().map(|c| c.normalized_tail).collect();
        Ok(Rep {
            setup_s,
            run_s,
            offered: (cells.len() * REQUESTS_PER_CELL) as u64,
            attempted: cells.len() as u64,
            failed,
            digest,
            sim: vec![
                Metric::new("sim_power_w", mean(&powers), "W"),
                Metric::new("sim_tail_over_bound", mean(&tails), "1"),
            ],
            detail: vec![
                Metric::new("sweep.cells", cells.len() as f64, "count"),
                Metric::new("sweep.cell_busy_s", cell_busy_s, "s"),
                Metric::new("sweep.cell_p50_ms", percentile(&cell_ms, 0.5)?.value, "ms"),
                Metric::new("sweep.cell_p98_ms", percentile(&cell_ms, 0.98)?.value, "ms"),
                Metric::new(
                    "sweep.parallel_eff",
                    cell_busy_s / (sweep.wall_time.as_secs_f64() * sweep.threads as f64),
                    "1",
                ),
                Metric::new("sweep.max_load_in_bound", max_load, "load"),
            ],
            failures,
        })
    }
}
