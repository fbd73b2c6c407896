//! `wide_fleet`: a large homogeneous Rubik fleet behind the power-aware
//! router, fed by a steady Poisson stream. Routing scans the whole fleet on
//! every arrival and every server seeds its own Rubik tables, so the router
//! and controller seeding dominate; each server's horizon stays under one
//! 100 ms Rubik tick, so no periodic rebuild runs.

use std::time::Instant;

use rubik::load::drain_to_trace;
use rubik::{
    AppProfile, Cluster, CorePowerModel, PoissonSource, PowerAware, RubikConfig, RubikController,
    SimConfig,
};

use super::{
    check_conservation, digest_outcome, digest_results, fault_metrics, fleet_latency, Metric, Rep,
    Workload,
};
use crate::engine;
use crate::probe::{Instrument, Layer};
use crate::stats::Digest;

/// Requests of the stream prefix each controller is seeded from.
const SEED_PREFIX: usize = 256;

/// Offered load per server (fraction of one core's nominal capacity).
const LOAD: f64 = 0.3;

/// The wide-fleet workload shape.
#[derive(Debug, Clone, PartialEq)]
pub struct WideFleet {
    /// Fleet size.
    pub servers: usize,
    /// Requests per server; keep `requests / (LOAD × capacity)` under one
    /// 100 ms tick.
    pub requests_per_server: usize,
    /// Arrival-stream seed.
    pub seed: u64,
}

impl WideFleet {
    /// The benchmark's shape for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            servers: 2000,
            requests_per_server: 40,
            seed,
        }
    }
}

impl Workload for WideFleet {
    fn rep<I: Instrument>(&self, inst: &I) -> Result<Rep, String> {
        let profile = AppProfile::masstree();
        let bound = 3.0 * profile.mean_service_time();
        let offered = (self.servers * self.requests_per_server) as u64;

        let started = Instant::now();
        let (cluster, source) = inst.scope(Layer::Setup, || {
            let source = PoissonSource::new(
                profile.clone(),
                LOAD * self.servers as f64,
                offered as usize,
                self.seed,
            );
            let prefix = drain_to_trace(source.clone(), Some(SEED_PREFIX));
            let config = SimConfig::paper_simulated();
            let power = CorePowerModel::haswell_like();
            let cluster = Cluster::new(
                config.clone(),
                self.servers,
                inst.router(Box::new(PowerAware::new(power))),
                |_| {
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
            .with_power(power);
            (cluster, inst.source(source))
        });
        let setup_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let (outcome, results) = inst.scope(Layer::Run, || {
            engine::run_streamed_with_results(cluster, source)
        })?;
        let run_s = started.elapsed().as_secs_f64();

        let mut failures = Vec::new();
        let failed = check_conservation(&outcome, offered, &mut failures);
        if outcome.availability.completed as u64 != offered {
            failures.push(format!(
                "completed {} != offered {offered} on a fault-free fleet",
                outcome.availability.completed
            ));
        }
        let latencies = results
            .iter()
            .flat_map(|r| r.records().iter().map(|rec| rec.latency()))
            .collect();
        let (p95, mut detail) = fleet_latency(latencies)?;
        detail.extend(fault_metrics(&outcome));
        let digest = digest_results(digest_outcome(Digest::new(), &outcome), &results);
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
