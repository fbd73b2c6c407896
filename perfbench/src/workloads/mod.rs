//! The benchmark's workloads. Each one builds its inputs from the seed,
//! runs one timed repetition through the public API, checks the simulated
//! outputs and summarises them.

mod capped_fleet;
mod grid;
mod wide_fleet;

pub use capped_fleet::CappedFaultyFleet;
pub use grid::PaperGrid;
pub use wide_fleet::WideFleet;

use rubik::{ArrivalSource, ClusterOutcome, RunResult};

use crate::probe::Instrument;
use crate::stats::{percentile, sorted, Digest};

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What one repetition of a workload produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds spent building inputs, controllers and the engine.
    pub setup_s: f64,
    /// Host seconds of the timed region.
    pub run_s: f64,
    /// Simulated requests offered in the timed region.
    pub offered: u64,
    /// Units of work attempted (requests for fleets, cells for the grid).
    pub attempted: u64,
    /// Units of work whose outputs failed a check.
    pub failed: u64,
    /// Hash of every simulated output bit.
    pub digest: Digest,
    /// Simulated end-to-end metrics (`sim_*`).
    pub sim: Vec<Metric>,
    /// Simulated and engine-reported counts used by the per-layer report.
    pub detail: Vec<Metric>,
    /// Output checks that failed, in words.
    pub failures: Vec<String>,
}

/// A benchmark workload.
pub trait Workload {
    /// One repetition: set up, run the timed region, check and summarise.
    ///
    /// # Errors
    ///
    /// Returns the engine's error if a run could not complete.
    fn rep<I: Instrument>(&self, inst: &I) -> Result<Rep, String>;
}

/// Folds a cluster outcome's every field into a digest.
pub fn digest_outcome(digest: Digest, outcome: &ClusterOutcome) -> Digest {
    let a = &outcome.availability;
    let mut d = digest
        .u64(outcome.requests as u64)
        .f64(outcome.tail_latency)
        .f64(outcome.mean_latency)
        .f64(outcome.fleet_energy)
        .f64(outcome.fleet_power)
        .f64(outcome.duration)
        .u64(outcome.migrated_requests as u64);
    for count in [
        a.offered,
        a.completed,
        a.goodput,
        a.lost,
        a.deadline_exceeded,
        a.timeouts,
        a.retries,
        a.requeued_on_failure,
        a.salvaged_in_flight,
        a.hedged,
        a.hedge_wins,
        a.hedge_cancelled,
    ] {
        d = d.u64(count as u64);
    }
    d = d.f64(a.tail_latency_ok.unwrap_or(f64::NAN));
    for s in &outcome.per_server {
        d = d
            .u64(u64::from(s.class))
            .u64(s.requests as u64)
            .f64(s.tail_latency)
            .f64(s.energy)
            .f64(s.busy_time)
            .f64(s.idle_time)
            .f64(s.sleep_time)
            .f64(s.end_time)
            .f64(s.downtime);
    }
    d
}

/// Folds every server's request records into a digest.
pub fn digest_results(mut digest: Digest, results: &[RunResult]) -> Digest {
    for r in results {
        digest = digest.u64(r.records().len() as u64);
        for rec in r.records() {
            digest = digest
                .u64(rec.id)
                .f64(rec.arrival)
                .f64(rec.start)
                .f64(rec.completion);
        }
    }
    digest
}

/// The conservation checks every fleet workload makes, and the number of
/// requests they leave unaccounted for.
pub fn check_conservation(
    outcome: &ClusterOutcome,
    offered: u64,
    failures: &mut Vec<String>,
) -> u64 {
    let a = &outcome.availability;
    if a.offered as u64 != offered {
        failures.push(format!(
            "the engine saw {} requests, the source offered {offered}",
            a.offered
        ));
    }
    if a.completed as u64 > offered {
        failures.push(format!("completed {} > offered {offered}", a.completed));
    }
    let accounted = (a.completed + a.lost) as u64;
    if accounted != offered {
        failures.push(format!(
            "completed {} + lost {} != offered {offered}",
            a.completed, a.lost
        ));
    }
    accounted.abs_diff(offered)
}

/// The number of arrivals `source` yields, pulled one at a time so the
/// count holds no trace in memory.
pub fn count_arrivals<S: ArrivalSource>(mut source: S) -> u64 {
    let mut n = 0;
    while source.next_arrival().is_some() {
        n += 1;
    }
    n
}

/// Pooled latency percentiles of a fleet: the p95 the latency bound
/// constrains, and the median and p99 with the sample count beyond it.
///
/// # Errors
///
/// Fails if fewer than ten samples lie beyond p99.
pub fn fleet_latency(latencies: Vec<f64>) -> Result<(f64, Vec<Metric>), String> {
    let v = sorted(latencies);
    let p50 = percentile(&v, 0.50)?;
    let p95 = percentile(&v, 0.95)?;
    let p99 = percentile(&v, 0.99)?;
    Ok((
        p95.value,
        vec![
            Metric::new("cluster.sim.p50_ms", p50.value * 1e3, "ms"),
            Metric::new("cluster.sim.p99_ms", p99.value * 1e3, "ms"),
            Metric::new("cluster.sim.p99_beyond", p99.beyond as f64, "count"),
            Metric::new("cluster.sim.samples", p99.samples as f64, "count"),
        ],
    ))
}

/// The fault-layer counts of a fleet outcome.
pub fn fault_metrics(outcome: &ClusterOutcome) -> Vec<Metric> {
    let a = &outcome.availability;
    let win_frac = if a.hedged == 0 {
        0.0
    } else {
        a.hedge_wins as f64 / a.hedged as f64
    };
    vec![
        Metric::new("cluster.fault.timeouts", a.timeouts as f64, "count"),
        Metric::new("cluster.fault.retries", a.retries as f64, "count"),
        Metric::new("cluster.fault.hedged", a.hedged as f64, "count"),
        Metric::new("cluster.fault.hedge_wins", a.hedge_wins as f64, "count"),
        Metric::new("cluster.fault.hedge_win_frac", win_frac, "1"),
        Metric::new("cluster.fault.error_frac", a.error_fraction(), "1"),
        Metric::new(
            "cluster.migrate.moved",
            outcome.migrated_requests as f64,
            "count",
        ),
    ]
}
