//! The repository benchmark: three workloads driven through the public
//! `rubik` API, timed end to end (untraced) and layer by layer (traced).
//! See `METRICS.md` beside this crate for what each metric means and which
//! layer is expected to move which end-to-end number.

pub mod engine;
pub mod probe;
pub mod report;
pub mod stats;
pub mod workloads;

use std::rc::Rc;
use std::time::{Duration, Instant};

use probe::{Bare, Probe};
use report::{layer_metrics, medians, END_TO_END, PER_LAYER};
use stats::median;
use workloads::{Metric, Rep, Workload};

/// Every workload's name on the command line, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["wide_fleet", "capped_faulty_fleet", "paper_coloc_grid"];

/// Fewest repetitions of an end-to-end run, whatever the time budget.
pub const MIN_REPS: usize = 3;

/// What a benchmark invocation measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Whether every output check passed.
    pub correct: bool,
    /// Units of work attempted across the timed repetitions.
    pub attempted: u64,
    /// Units of work whose outputs failed a check.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// The outcome digest every repetition agreed on.
    pub digest: String,
    /// Host `(setup_s, run_s)` of every repetition, untraced ones first.
    pub times: Vec<(f64, f64)>,
    /// Check failures, in words.
    pub failures: Vec<String>,
    /// The last traced repetition's probe, if any.
    pub probe: Option<Rc<Probe>>,
}

fn check_reps(reps: &[Rep], failures: &mut Vec<String>) {
    for (i, rep) in reps.iter().enumerate() {
        failures.extend(rep.failures.iter().map(|f| format!("rep {i}: {f}")));
        if rep.digest != reps[0].digest {
            failures.push(format!(
                "rep {i} digest {} != rep 0 digest {}: repeated or traced runs changed the outcome",
                rep.digest.hex(),
                reps[0].digest.hex()
            ));
        }
    }
}

/// Runs untraced repetitions for `budget` (at least [`MIN_REPS`]) and
/// reports the end-to-end metrics.
///
/// # Errors
///
/// Returns the engine's error if a repetition could not run.
pub fn measure_end_to_end<W: Workload>(w: &W, budget: Duration) -> Result<Measured, String> {
    let started = Instant::now();
    let mut reps = vec![w.rep(&Bare)?];
    // Peak memory of one repetition, as a single run of the workload sees
    // it; later repetitions only add allocator fragmentation.
    let peak_rss = peak_rss_bytes()?;
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        reps.push(w.rep(&Bare)?);
    }
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let rate: Vec<f64> = reps.iter().map(|r| r.offered as f64 / r.run_s).collect();
    let mut metrics = vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("host_req_per_s", median(&rate), "req/s"),
        Metric::new("peak_rss_mb", peak_rss as f64 / 1e6, "MB"),
    ];
    metrics.extend(reps[0].sim.iter().cloned());
    debug_assert!(metrics
        .iter()
        .map(|m| m.name)
        .eq(END_TO_END.iter().map(|e| e.0)));
    Ok(finish(reps, metrics, None))
}

/// Runs pairs of untraced and traced repetitions for `budget` (at least
/// one pair) and reports the per-layer metrics of the traced ones.
///
/// # Errors
///
/// Returns the engine's error if a repetition could not run.
pub fn measure_layers<W: Workload>(w: &W, budget: Duration) -> Result<Measured, String> {
    let started = Instant::now();
    let mut bare = Vec::new();
    let mut traced = Vec::new();
    let mut samples = Vec::new();
    let mut last = None;
    while bare.is_empty() || started.elapsed() < budget {
        bare.push(w.rep(&Bare)?);
        let probe = Probe::new();
        let rep = w.rep(&probe)?;
        samples.push(layer_metrics(&probe, &rep));
        traced.push(rep);
        last = Some(probe);
    }
    let untraced_run = median(&bare.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_run = median(&traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let mut metrics = medians(&PER_LAYER, &samples);
    if let Some(m) = metrics.iter_mut().find(|m| m.name == "trace.overhead_frac") {
        m.value = traced_run / untraced_run - 1.0;
    }
    // Every repetition, traced or not, must reproduce the first untraced
    // one's digest: the wrappers are invisible to the simulation.
    bare.extend(traced);
    Ok(finish(bare, metrics, last))
}

fn finish(reps: Vec<Rep>, metrics: Vec<Metric>, probe: Option<Rc<Probe>>) -> Measured {
    let mut failures = Vec::new();
    check_reps(&reps, &mut failures);
    Measured {
        correct: failures.is_empty() && metrics.iter().all(|m| m.value.is_finite()),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics,
        digest: reps[0].digest.hex(),
        times: reps.iter().map(|r| (r.setup_s, r.run_s)).collect(),
        failures,
        probe,
    }
}

/// Peak resident set of this process image, in bytes: `VmHWM` from
/// `/proc/self/status`. (`getrusage` is no substitute: its peak survives
/// `exec`, so it would report the launching process's size when that is
/// larger, as `cargo run` is for the grid.)
///
/// # Errors
///
/// Fails where `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kib| kib.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<u64>().ok())
        .map(|kib| kib * 1024)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
