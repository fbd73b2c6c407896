//! `capped_faulty_fleet`: a small big/little Rubik fleet under a global
//! power cap, with stochastic server and rack failures, client timeouts,
//! retries and hedging, a migrator, and telemetry recorded and exported.
//! Each server's simulated horizon spans many 100 ms Rubik ticks, so
//! periodic table rebuilds dominate the controller's cost, and every
//! boundary pass of the engine runs.

use std::time::Instant;

use rubik::load::drain_to_trace;
use rubik::{
    AppProfile, Cluster, CorePowerModel, DvfsConfig, FailureTopology, FleetSpec, Freq, HealthAware,
    JoinShortestQueue, LoadShape, PegasusFleet, RequestPolicy, RubikConfig, RubikController,
    ShapedSource, SimConfig, StochasticFaults, Telemetry, ThresholdMigrator, WorkloadGenerator,
};

use super::{
    check_conservation, count_arrivals, digest_outcome, digest_results, fault_metrics,
    fleet_latency, Metric, Rep, Workload,
};
use crate::engine;
use crate::probe::{Instrument, Layer};
use crate::stats::Digest;

/// Requests of the stream prefix each controller is seeded from.
const SEED_PREFIX: usize = 256;

/// Fleet-controller and telemetry epoch, seconds.
const EPOCH: f64 = 0.02;

/// The capped-faulty-fleet workload shape.
#[derive(Debug, Clone, PartialEq)]
pub struct CappedFaultyFleet {
    /// Servers of each class (big, then little).
    pub per_class: usize,
    /// Global power budget, watts.
    pub budget_w: f64,
    /// Expected requests over the load shape.
    pub requests: usize,
    /// Seed of the arrival stream, the fault history and retry jitter.
    pub seed: u64,
}

impl CappedFaultyFleet {
    /// The benchmark's shape for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            per_class: 50,
            budget_w: 300.0,
            requests: 230_000,
            seed,
        }
    }

    fn spec(&self) -> FleetSpec {
        let big = SimConfig::paper_simulated();
        let little = big.clone().with_dvfs(DvfsConfig::new(
            Freq::from_mhz(800),
            Freq::from_mhz(1800),
            200,
            Freq::from_mhz(1200),
            4e-6,
        ));
        FleetSpec::new()
            .class("big", big, 1.0, self.per_class)
            .class("little", little, 0.5, self.per_class)
    }

    /// A diurnal swing followed by a step, scaled so the stream offers
    /// `requests` in expectation. Loads are fractions of the fleet's
    /// capacity counted in big cores, so 0.45 is 60% of the real capacity.
    fn shape(&self, profile: &AppProfile, servers: usize) -> LoadShape {
        let unit = |duration: f64| {
            LoadShape::Sequence(vec![
                LoadShape::Diurnal {
                    mean: 0.4,
                    amplitude: 0.1,
                    period: 0.6 * duration,
                    duration: 0.6 * duration,
                },
                LoadShape::Step {
                    before: 0.4,
                    after: 0.55,
                    at: 0.2 * duration,
                    duration: 0.4 * duration,
                },
            ])
        };
        let rate = WorkloadGenerator::new(profile.clone(), self.seed).steady_rate(1.0);
        let per_second = unit(1.0).average_load() * rate * servers as f64;
        unit(self.requests as f64 / per_second)
    }
}

impl Workload for CappedFaultyFleet {
    fn rep<I: Instrument>(&self, inst: &I) -> Result<Rep, String> {
        let profile = AppProfile::masstree();
        let mean = profile.mean_service_time();
        let bound = 3.0 * mean;

        let started = Instant::now();
        let (cluster, source, twin, fault_events) = inst.scope(Layer::Setup, || {
            let spec = self.spec();
            let servers = spec.len();
            let shape = self.shape(&profile, servers);
            let horizon = shape.duration();
            let source = ShapedSource::new(profile.clone(), shape, self.seed).for_fleet(servers);
            let prefix = drain_to_trace(source.clone(), Some(SEED_PREFIX));
            let faults = StochasticFaults::new()
                .with_server_failures(0.5 * horizon, 0.01 * horizon)
                .with_rack_failures(0.5 * horizon, 0.005 * horizon)
                .with_recovery_jitter(0.002 * horizon)
                .compile(&FailureTopology::grid(servers, 10, 2), horizon, self.seed);
            let fault_events = faults.events().len();
            let requests = RequestPolicy::new()
                .with_deadline(15.0 * mean)
                .with_timeout(4.0 * mean)
                .with_retries(3, mean, 10.0 * mean)
                .with_jitter_seed(self.seed)
                .salvaging_in_flight()
                .draining_on_crash()
                .with_hedging(0.95, 2.0 * mean);
            let power = CorePowerModel::haswell_like();
            let cluster = Cluster::from_spec(
                &spec,
                inst.router(Box::new(HealthAware::new(JoinShortestQueue::new()))),
                |_, config| {
                    inst.policy(inst.call(Layer::Seed, || {
                        RubikController::seeded_for_trace(
                            RubikConfig::new(bound).with_profiling_window(1024),
                            config.dvfs.clone(),
                            &prefix,
                            SEED_PREFIX,
                        )
                    }))
                },
            )
            .with_power(power)
            .with_fleet_controller(inst.fleet(Box::new(
                PegasusFleet::new(self.budget_w, power).with_epoch(EPOCH),
            )))
            .with_migrator(
                inst.migrator(Box::new(ThresholdMigrator::new(2, 1).with_interval(2e-3))),
            )
            .with_fault_plan(faults)
            .with_request_policy(requests)
            .with_telemetry(Telemetry::recording().with_sample_epoch(EPOCH));
            let twin = source.clone();
            (cluster, inst.source(source), twin, fault_events)
        });
        let setup_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let (outcome, results, log, json) = inst.scope(Layer::Run, || {
            let (outcome, results, log) = engine::run_streamed_traced(cluster, source)?;
            let json = inst.call(Layer::Export, || rubik::telemetry::to_json(&log));
            Ok::<_, String>((outcome, results, log, json))
        })?;
        let run_s = started.elapsed().as_secs_f64();

        // The source's own count, pulled from an untouched twin outside the
        // timed region, so an engine that dropped arrivals cannot hide it.
        let offered = count_arrivals(twin);
        let mut failures = Vec::new();
        let failed = check_conservation(&outcome, offered, &mut failures);
        if log.requests.len() as u64 != offered {
            failures.push(format!(
                "telemetry logged {} requests, the source offered {offered}",
                log.requests.len()
            ));
        }
        for e in &log.epochs {
            if e.power.is_nan() || e.power > self.budget_w {
                failures.push(format!(
                    "epoch [{:.4}, {:.4}) drew {} W over the {} W budget",
                    e.start, e.end, e.power, self.budget_w
                ));
            }
        }
        if log.epochs.is_empty() {
            failures.push("telemetry recorded no epochs".into());
        }
        // End-to-end latency, from each request's scheduled arrival.
        let latencies = log.requests.iter().filter_map(|r| r.latency()).collect();
        let (p95, mut detail) = fleet_latency(latencies)?;
        detail.extend(fault_metrics(&outcome));
        detail.push(Metric::new(
            "cluster.fault.events",
            fault_events as f64,
            "count",
        ));
        detail.push(Metric::new(
            "telemetry.export.bytes",
            json.len() as f64,
            "B",
        ));
        let digest = digest_results(digest_outcome(Digest::new(), &outcome), &results)
            .bytes(json.as_bytes());
        Ok(Rep {
            setup_s,
            run_s,
            offered,
            attempted: offered,
            failed,
            digest,
            sim: vec![
                Metric::new("sim_power_w", outcome.fleet_power, "W"),
                Metric::new("sim_tail_over_bound", p95 / bound, "1"),
            ],
            detail,
            failures,
        })
    }
}
