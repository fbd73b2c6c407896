//! The benchmark's own checks: the timing wrappers forward every trait
//! method and leave simulated outcomes bit-identical, and the percentile
//! helper reports its sample counts and refuses thin tails.

use rubik::cluster::{fleet_trace, Migration, ServerHealth, ServerView};
use rubik::sim::{PolicyDecision, ServerState};
use rubik::{
    ArrivalSource, Cluster, CorePowerModel, DvfsPolicy, FleetController, FleetSpec, Freq,
    HealthAware, JoinShortestQueue, Migrator, PegasusFleet, PoissonSource, RequestPolicy,
    RequestRecord, RoundRobin, RubikConfig, RubikController, SimConfig, ThresholdMigrator,
    TraceSource,
};
use rubik_perfbench::engine;
use rubik_perfbench::probe::{Bare, Instrument, Layer, Probe, RebuildCounts, TimedPolicy};
use rubik_perfbench::report::{medians, result_line, END_TO_END, PER_LAYER};
use rubik_perfbench::stats::{median, percentile, Digest, MIN_BEYOND};
use rubik_perfbench::workloads::{
    digest_outcome, digest_results, CappedFaultyFleet, Metric, WideFleet, Workload,
};
use rubik_perfbench::WORKLOADS;

/// A policy that overrides every defaulted `DvfsPolicy` method with a
/// value no default returns.
struct Mock {
    bound: f64,
    ticks: u64,
}

impl DvfsPolicy for Mock {
    fn name(&self) -> &str {
        "mock"
    }
    fn on_arrival(&mut self, _state: &ServerState) -> PolicyDecision {
        PolicyDecision::SetFrequency(Freq::from_mhz(1600))
    }
    fn on_completion(&mut self, _state: &ServerState, _record: &RequestRecord) -> PolicyDecision {
        PolicyDecision::SetFrequency(Freq::from_mhz(1400))
    }
    fn on_tick(&mut self, _state: &ServerState) -> PolicyDecision {
        self.ticks += 1;
        PolicyDecision::SetFrequency(Freq::from_mhz(1200))
    }
    fn idle_frequency(&self) -> Option<Freq> {
        Some(Freq::from_mhz(800))
    }
    fn latency_bound(&self) -> Option<f64> {
        Some(self.bound)
    }
    fn set_latency_bound(&mut self, bound: f64) -> bool {
        self.bound = bound;
        true
    }
}

impl RebuildCounts for Mock {
    fn rebuild_counts(&self) -> (u64, u64) {
        (self.ticks, 2 * self.ticks)
    }
}

fn idle_state() -> ServerState {
    ServerState {
        now: 0.5,
        current_freq: Freq::from_mhz(2400),
        target_freq: Freq::from_mhz(2400),
        in_service: None,
        queued: Vec::new(),
    }
}

#[test]
fn timed_policy_forwards_every_method_and_counts_rebuilds() {
    let probe = Probe::new();
    let mut policy = TimedPolicy::new(
        Mock {
            bound: 1e-3,
            ticks: 0,
        },
        probe.clone(),
    );
    let state = idle_state();
    assert_eq!(policy.name(), "mock");
    assert_eq!(policy.idle_frequency(), Some(Freq::from_mhz(800)));
    assert_eq!(policy.latency_bound(), Some(1e-3));
    assert!(policy.set_latency_bound(2e-3));
    assert_eq!(policy.latency_bound(), Some(2e-3));
    assert_eq!(
        policy.on_arrival(&state),
        PolicyDecision::SetFrequency(Freq::from_mhz(1600))
    );
    assert_eq!(
        policy.on_tick(&state),
        PolicyDecision::SetFrequency(Freq::from_mhz(1200))
    );
    assert_eq!(
        policy.on_tick(&state),
        PolicyDecision::SetFrequency(Freq::from_mhz(1200))
    );
    assert_eq!(probe.calls(Layer::Decide), 1);
    assert_eq!(probe.calls(Layer::Rebuild), 2);
    assert_eq!(probe.rebuilds(), (2, 4));
}

#[test]
fn timed_policy_keeps_the_defaults_of_a_policy_that_keeps_them() {
    let probe = Probe::new();
    let dvfs = SimConfig::paper_simulated().dvfs;
    let mut rubik = probe.policy(RubikController::new(RubikConfig::new(1e-3), dvfs.clone()));
    assert_eq!(rubik.idle_frequency(), Some(dvfs.min()));
    assert!(rubik.set_latency_bound(3e-3));
    assert_eq!(rubik.latency_bound(), Some(3e-3));

    let fixed = Bare.policy(Counted(rubik::FixedFrequencyPolicy::new(dvfs.nominal())));
    let timed = probe.policy(Counted(rubik::FixedFrequencyPolicy::new(dvfs.nominal())));
    assert_eq!(timed.idle_frequency(), fixed.idle_frequency());
    assert_eq!(timed.latency_bound(), fixed.latency_bound());
}

/// Gives any policy zero rebuild counts, so it can be wrapped.
struct Counted<P>(P);

impl<P: DvfsPolicy> DvfsPolicy for Counted<P> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn on_arrival(&mut self, state: &ServerState) -> PolicyDecision {
        self.0.on_arrival(state)
    }
    fn on_completion(&mut self, state: &ServerState, record: &RequestRecord) -> PolicyDecision {
        self.0.on_completion(state, record)
    }
}

impl<P> RebuildCounts for Counted<P> {
    fn rebuild_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

#[test]
fn timed_hooks_and_sources_forward_their_parameters() {
    let probe = Probe::new();
    let power = CorePowerModel::haswell_like();

    let router = probe.router(Box::new(RoundRobin::new()));
    assert_eq!(router.name(), "round-robin");

    let fleet = probe.fleet(Box::new(PegasusFleet::new(50.0, power).with_epoch(0.25)));
    assert_eq!(fleet.name(), PegasusFleet::new(50.0, power).name());
    assert_eq!(fleet.epoch(), 0.25);

    let mut migrator = probe.migrator(Box::new(ThresholdMigrator::new(3, 1).with_interval(0.5)));
    assert_eq!(migrator.interval(), 0.5);
    assert_eq!(migrator.name(), ThresholdMigrator::new(3, 1).name());
    let view = |index, queued| ServerView {
        index,
        in_flight: queued + 1,
        admitted: queued + 1,
        queued,
        current_freq: Freq::from_mhz(2400),
        target_freq: Freq::from_mhz(2400),
        busy: true,
        capacity: 1.0,
        class: 0,
        health: ServerHealth::Up,
    };
    let views = [view(0, 6), view(1, 0)];
    let mut moves: Vec<Migration> = Vec::new();
    migrator.plan(0.0, &views, &mut moves);
    let mut expected = Vec::new();
    ThresholdMigrator::new(3, 1).plan(0.0, &views, &mut expected);
    assert_eq!(moves, expected);
    assert!(!moves.is_empty(), "the imbalance triggers a move");
    assert_eq!(probe.calls(Layer::Migrate), 1);

    let profile = rubik::AppProfile::masstree();
    let mut source = probe.source(PoissonSource::new(profile, 2.0, 5, 3));
    assert_eq!(source.remaining_hint(), Some(5));
    let mut bare = PoissonSource::new(rubik::AppProfile::masstree(), 2.0, 5, 3);
    while let Some(a) = source.next_arrival() {
        let b = bare.next_arrival().expect("same length");
        assert_eq!((a.id, a.arrival.to_bits()), (b.id, b.arrival.to_bits()));
    }
    assert!(bare.next_arrival().is_none());
    assert_eq!(probe.calls(Layer::Load), 6, "five arrivals and the end");
}

/// A small capped, faulted, hedged Rubik fleet with bound scaling — so the
/// outcome depends on `idle_frequency`, `latency_bound` and
/// `set_latency_bound` — built with or without wrappers.
fn small_cluster<I: Instrument>(
    inst: &I,
    trace: &rubik::Trace,
) -> Cluster<I::Policy<RubikController>> {
    let config = SimConfig::paper_simulated();
    let power = CorePowerModel::haswell_like();
    let bound = 3.0 * rubik::AppProfile::masstree().mean_service_time();
    let mid = trace.duration() / 2.0;
    Cluster::from_spec(
        &FleetSpec::homogeneous(config, 6),
        inst.router(Box::new(HealthAware::new(JoinShortestQueue::new()))),
        |_, config| {
            inst.policy(RubikController::seeded_for_trace(
                RubikConfig::new(bound).with_profiling_window(256),
                config.dvfs.clone(),
                trace,
                128,
            ))
        },
    )
    .with_power(power)
    .with_fleet_controller(
        inst.fleet(Box::new(
            PegasusFleet::new(15.0, power)
                .with_epoch(0.01)
                .with_bound_scaling(),
        )),
    )
    .with_migrator(inst.migrator(Box::new(ThresholdMigrator::new(2, 1).with_interval(1e-3))))
    .with_fault_plan(rubik::FaultPlan::new().crash(1, mid).recover(1, 1.5 * mid))
    .with_request_policy(
        RequestPolicy::new()
            .with_timeout(2e-3)
            .with_retries(2, 1e-4, 1e-3)
            .with_hedging(0.9, 1e-4),
    )
}

#[test]
fn wrapped_and_bare_small_clusters_have_the_same_digest() {
    let trace = fleet_trace(&rubik::AppProfile::masstree(), 0.6, 6, 3000, 11);
    let probe = Probe::new();

    let (bare, bare_results) =
        engine::run_streamed_with_results(small_cluster(&Bare, &trace), TraceSource::new(&trace))
            .expect("ordered trace");
    let (timed, timed_results) = engine::run_streamed_with_results(
        small_cluster(&probe, &trace),
        probe.source(TraceSource::new(&trace)),
    )
    .expect("ordered trace");
    let digest = |o, r| digest_results(digest_outcome(Digest::new(), o), r);
    assert_eq!(digest(&bare, &bare_results), digest(&timed, &timed_results));

    // The outcome-only adapter agrees with the one that keeps records.
    let outcome_only = engine::run_streamed(small_cluster(&Bare, &trace), TraceSource::new(&trace))
        .expect("ordered trace");
    assert_eq!(outcome_only, bare);

    // Every hook actually ran through its wrapper.
    assert!(probe.calls(Layer::Router) >= trace.len() as u64);
    assert!(probe.calls(Layer::Decide) > trace.len() as u64);
    assert!(probe.calls(Layer::Rebuild) > 0);
    assert!(probe.calls(Layer::Fleet) > 0);
    assert!(probe.calls(Layer::Migrate) > 0);
    assert_eq!(probe.calls(Layer::Load), trace.len() as u64 + 1);
    assert!(bare.availability.hedged > 0, "hedging was exercised");
}

#[test]
fn workloads_give_the_same_digest_traced_and_untraced() {
    let wide = WideFleet {
        servers: 40,
        requests_per_server: 30,
        ..WideFleet::new(5)
    };
    let capped = CappedFaultyFleet {
        per_class: 6,
        budget_w: 36.0,
        requests: 3000,
        ..CappedFaultyFleet::new(5)
    };
    for (name, bare, traced) in [
        ("wide_fleet", wide.rep(&Bare), wide.rep(&Probe::new())),
        (
            "capped_faulty_fleet",
            capped.rep(&Bare),
            capped.rep(&Probe::new()),
        ),
    ] {
        let (bare, traced) = (bare.expect("bare run"), traced.expect("traced run"));
        assert!(bare.failures.is_empty(), "{name}: {:?}", bare.failures);
        assert_eq!(bare.digest, traced.digest, "{name}");
        assert_eq!(bare.sim, traced.sim, "{name}");
    }
}

#[test]
fn percentile_reports_its_counts_and_refuses_thin_tails() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile(&v, 0.99).expect("ten samples beyond");
    assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
    let p50 = percentile(&v, 0.5).expect("median");
    assert_eq!((p50.value, p50.beyond), (500.0, 500));

    let short = &v[..999];
    let err = percentile(short, 0.99).expect_err("only nine beyond");
    assert!(err.contains("only 9 beyond"), "{err}");
    assert!(percentile(&v[..MIN_BEYOND], 0.5).is_err());
    assert!(percentile(&[], 0.5).is_err());
    assert!(percentile(&v, 1.0).is_err());
}

#[test]
fn medians_and_the_result_line_cover_every_metric() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);

    let samples = vec![
        vec![Metric::new("setup_s", 2.0, "s")],
        vec![Metric::new("setup_s", 1.0, "s")],
        vec![Metric::new("setup_s", 3.0, "s")],
    ];
    let table = medians(&END_TO_END, &samples);
    assert_eq!(table.len(), END_TO_END.len());
    assert_eq!(table[0], Metric::new("setup_s", 2.0, "s"));
    assert_eq!(table[1].value, 0.0, "unreported metrics read zero");

    let line = result_line(true, 7, 0, &table[..2]);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
         \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}, \
         \"host_req_per_s\": {\"value\": 0.0, \"unit\": \"req/s\"}}}"
    );
    let nan = result_line(false, 1, 1, &[Metric::new("x", f64::NAN, "1")]);
    assert!(nan.contains("\"value\": null"));
}

#[test]
fn digests_see_every_bit() {
    let a = Digest::new().f64(0.1).u64(3);
    assert_eq!(a, Digest::new().f64(0.1).u64(3));
    assert_ne!(a, Digest::new().f64(0.1 + f64::EPSILON).u64(3));
    assert_ne!(a, Digest::new().u64(3).f64(0.1));
    assert_eq!(a.hex().len(), 16);
}

/// The objects of the array under `key` in `BENCHMARK.json`, as text. The
/// file's strings hold no braces or brackets, so nesting is all a scan
/// needs to follow.
fn json_objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} array"));
    let array = &json[start..];
    let array = &array[..array.find(']').expect("array closes")];
    array
        .split('{')
        .skip(1)
        .map(|obj| &obj[..obj.find('}').expect("object closes")])
        .collect()
}

/// The string value of `field` in one object's text.
fn json_field<'a>(obj: &'a str, field: &str) -> &'a str {
    let tag = format!("\"{field}\": \"");
    let value = &obj[obj
        .find(&tag)
        .unwrap_or_else(|| panic!("no {field} in {obj}"))
        + tag.len()..];
    &value[..value.find('"').expect("string closes")]
}

#[test]
fn benchmark_json_lists_what_the_code_runs_and_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let named = |key| -> Vec<(String, String)> {
        json_objects(&json, key)
            .into_iter()
            .map(|o| (json_field(o, "name").into(), json_field(o, "unit").into()))
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
    };
    assert_eq!(named("end_to_end"), table(&END_TO_END));
    assert_eq!(named("per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = json_objects(&json, "workloads")
        .into_iter()
        .map(|o| json_field(o, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
