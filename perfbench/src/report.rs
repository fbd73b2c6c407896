//! Turning repetitions into the reported metrics, and printing them.

use std::fmt::Write as _;

use crate::probe::{Layer, Probe};
use crate::stats::median;
use crate::workloads::{Metric, Rep};

/// Every end-to-end metric, with its unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("host_req_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
    ("sim_power_w", "W"),
    ("sim_tail_over_bound", "1"),
];

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. A
/// layer a workload never calls reports zero.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("cluster.router.calls", "count"),
    ("cluster.router.busy_s", "s"),
    ("cluster.router.ns_per_call", "ns"),
    ("core.seed.calls", "count"),
    ("core.seed.busy_s", "s"),
    ("core.decide.calls", "count"),
    ("core.decide.busy_s", "s"),
    ("core.decide.ns_per_call", "ns"),
    ("core.rebuild.calls", "count"),
    ("core.rebuild.busy_s", "s"),
    ("core.rebuild.performed", "count"),
    ("core.rebuild.skipped", "count"),
    ("cluster.fleet.calls", "count"),
    ("cluster.fleet.busy_s", "s"),
    ("cluster.migrate.calls", "count"),
    ("cluster.migrate.busy_s", "s"),
    ("cluster.migrate.moved", "count"),
    ("load.calls", "count"),
    ("load.busy_s", "s"),
    ("telemetry.export.busy_s", "s"),
    ("telemetry.export.bytes", "B"),
    ("cluster.fault.events", "count"),
    ("cluster.fault.timeouts", "count"),
    ("cluster.fault.retries", "count"),
    ("cluster.fault.hedged", "count"),
    ("cluster.fault.hedge_wins", "count"),
    ("cluster.fault.hedge_win_frac", "1"),
    ("cluster.fault.error_frac", "1"),
    ("cluster.dispatch.busy_s", "s"),
    ("cluster.dispatch.ns_per_request", "ns"),
    ("cluster.sim.p50_ms", "ms"),
    ("cluster.sim.p99_ms", "ms"),
    ("cluster.sim.p99_beyond", "count"),
    ("cluster.sim.samples", "count"),
    ("sweep.cells", "count"),
    ("sweep.cell_busy_s", "s"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_p98_ms", "ms"),
    ("sweep.parallel_eff", "1"),
    ("sweep.max_load_in_bound", "load"),
    ("setup.busy_s", "s"),
    ("run.busy_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "1"),
];

fn per_call_ns(probe: &Probe, layer: Layer) -> f64 {
    match probe.calls(layer) {
        0 => 0.0,
        n => probe.busy_s(layer) * 1e9 / n as f64,
    }
}

/// The per-layer metrics of one traced repetition, except the trace
/// overhead, which needs the untraced runs too.
pub fn layer_metrics(probe: &Probe, rep: &Rep) -> Vec<Metric> {
    let mut m = Vec::new();
    for layer in [
        Layer::Router,
        Layer::Seed,
        Layer::Decide,
        Layer::Rebuild,
        Layer::Fleet,
        Layer::Migrate,
        Layer::Load,
    ] {
        m.push(Metric::new(
            metric_name(layer, "calls"),
            probe.calls(layer) as f64,
            "count",
        ));
        m.push(Metric::new(
            metric_name(layer, "busy_s"),
            probe.busy_s(layer),
            "s",
        ));
    }
    m.push(Metric::new(
        "cluster.router.ns_per_call",
        per_call_ns(probe, Layer::Router),
        "ns",
    ));
    m.push(Metric::new(
        "core.decide.ns_per_call",
        per_call_ns(probe, Layer::Decide),
        "ns",
    ));
    let (performed, skipped) = probe.rebuilds();
    m.push(Metric::new(
        "core.rebuild.performed",
        performed as f64,
        "count",
    ));
    m.push(Metric::new("core.rebuild.skipped", skipped as f64, "count"));
    m.push(Metric::new(
        "telemetry.export.busy_s",
        probe.busy_s(Layer::Export),
        "s",
    ));
    // Dispatch is what the engine spends outside every timed layer: the
    // event loop, server stepping and the internal fault layer. Only a
    // fleet routes, so only a fleet has a dispatch layer.
    if probe.calls(Layer::Router) > 0 {
        let inside: f64 = Layer::ALL
            .iter()
            .filter(|l| l.inside_run())
            .map(|&l| probe.busy_s(l))
            .sum();
        let dispatch = probe.busy_s(Layer::Run) - inside;
        m.push(Metric::new("cluster.dispatch.busy_s", dispatch, "s"));
        m.push(Metric::new(
            "cluster.dispatch.ns_per_request",
            dispatch * 1e9 / rep.offered as f64,
            "ns",
        ));
    }
    m.push(Metric::new("setup.busy_s", probe.busy_s(Layer::Setup), "s"));
    m.push(Metric::new("run.busy_s", probe.busy_s(Layer::Run), "s"));
    m.push(Metric::new(
        "trace.spans",
        probe.span_count() as f64,
        "count",
    ));
    m.extend(rep.detail.iter().cloned());
    m
}

/// `"<layer>.<what>"` as a static name from the per-layer table.
fn metric_name(layer: Layer, what: &str) -> &'static str {
    let name = format!("{}.{what}", layer.name());
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// Fills `table` from `samples` (one metric list per repetition): the
/// median over repetitions where a metric was reported, zero elsewhere.
pub fn medians(table: &[(&'static str, &'static str)], samples: &[Vec<Metric>]) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.iter().find(|m| m.name == name).map(|m| m.value))
                .collect();
            let value = if values.is_empty() {
                0.0
            } else {
                median(&values)
            };
            Metric::new(name, value, unit)
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and every metric by
/// name with its unit. A non-finite value is written as `null`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".into()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}
