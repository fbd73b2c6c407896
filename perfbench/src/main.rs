//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wide_fleet|capped_faulty_fleet|paper_coloc_grid|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (the default) reports the end-to-end metrics of untraced
//! repetitions; `--trace 1` reports the per-layer metrics of traced ones
//! and writes their spans under `perfbench/out/`. The last line of
//! standard output is the result as one JSON object. The exit code is
//! non-zero if any output check failed.

use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use rubik_perfbench::workloads::{CappedFaultyFleet, PaperGrid, WideFleet, Workload};
use rubik_perfbench::{measure_end_to_end, measure_layers, report, Measured, WORKLOADS};
const DEFAULT_SEED: u64 = 2015;
const DEFAULT_SECONDS: u64 = 35;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; choose one of {} or all",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn measure<W: Workload>(w: &W, args: &Args) -> Result<Measured, String> {
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        measure_layers(w, budget)
    } else {
        measure_end_to_end(w, budget)
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, when the repository's own git metadata is
/// present (a parent directory's repository is never consulted).
fn commit(repo: &Path) -> String {
    if !repo.join(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every workload in a child process of its own, so each reports its
/// own peak memory.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(argv)
            .args(["--workload", workload])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }

    let threads = host_parallelism();
    let measured = match args.workload.as_str() {
        "wide_fleet" => measure(&WideFleet::new(args.seed), &args),
        "capped_faulty_fleet" => measure(&CappedFaultyFleet::new(args.seed), &args),
        _ => measure(&PaperGrid::new(args.seed, threads), &args),
    };
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = crate_dir.parent().unwrap_or(crate_dir);
    if let Some(probe) = &m.probe {
        let dir = crate_dir.join("out");
        let path = dir.join(format!("{}-seed{}.spans.csv", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .map(std::io::BufWriter::new)
            .and_then(|mut out| {
                probe.write_spans(&mut out)?;
                out.flush()
            });
        match written {
            Ok(()) => println!("spans {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for (i, (setup_s, run_s)) in m.times.iter().enumerate() {
        println!("rep {i} setup_s {setup_s:.6} run_s {run_s:.6}");
    }
    for metric in &m.metrics {
        println!("metric {} {} {}", metric.name, metric.value, metric.unit);
    }
    for failure in &m.failures {
        println!("check failed: {failure}");
    }
    println!(
        "context {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"reps\": {}, \
         \"host_parallelism\": {threads}, \"commit\": \"{}\", \
         \"outcome_digest\": \"{}\"}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        m.times.len(),
        commit(repo),
        m.digest,
    );
    println!(
        "{}",
        report::result_line(m.correct, m.attempted, m.failed, &m.metrics)
    );
    if m.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
