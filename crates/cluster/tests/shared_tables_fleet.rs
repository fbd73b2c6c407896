//! Shared tail tables are invisible at fleet level.
//!
//! Rubik controllers seeded on one thread from the same trace share one
//! table allocation; controllers each seeded on their own spawned thread
//! build privately. The two fleets must run bit-identically: the same
//! `ClusterOutcome`, the same per-server `RunResult`s, and the same tables
//! and counters at the end. The horizons span several 100 ms ticks, so
//! every controller rebuilds mid-run and the shared fleet's copy-on-write
//! happens inside the run. One scenario caps power with `PegasusFleet`
//! and rescales the latency bounds.

use std::collections::HashSet;

use rubik_cluster::{
    fleet_trace, Cluster, ClusterOutcome, FaultPlan, HealthAware, JoinShortestQueue, PegasusFleet,
    PowerAware, RequestPolicy, Router,
};
use rubik_core::{RubikConfig, RubikController, TargetTailTables};
use rubik_power::CorePowerModel;
use rubik_sim::{RunResult, SimConfig, Trace};
use rubik_workloads::AppProfile;

const FLEET: usize = 6;
/// At load 0.5 a masstree server sees 2000 requests/s, so 600 requests
/// span about 0.3 s: three ticks, each after fresh completions.
const PER_SERVER: usize = 600;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    PowerAware,
    HealthAwareJsq,
    CappedWithBoundScaling,
}

fn result_bits(r: &RunResult) -> Vec<u64> {
    let mut bits = vec![r.end_time().to_bits()];
    for rec in r.records() {
        bits.extend_from_slice(&[
            rec.id,
            rec.arrival.to_bits(),
            rec.start.to_bits(),
            rec.completion.to_bits(),
            rec.queue_len_at_arrival as u64,
        ]);
    }
    for s in r.segments() {
        bits.extend_from_slice(&[
            s.start.to_bits(),
            s.end.to_bits(),
            s.freq.mhz() as u64,
            s.activity as u64,
        ]);
    }
    bits
}

fn outcome_bits(o: &ClusterOutcome) -> Vec<u64> {
    let a = &o.availability;
    let mut bits = vec![
        o.requests as u64,
        o.migrated_requests as u64,
        o.tail_latency.to_bits(),
        o.mean_latency.to_bits(),
        o.fleet_energy.to_bits(),
        o.fleet_power.to_bits(),
        o.duration.to_bits(),
        a.offered as u64,
        a.completed as u64,
        a.goodput as u64,
        a.lost as u64,
        a.deadline_exceeded as u64,
        a.timeouts as u64,
        a.retries as u64,
        a.requeued_on_failure as u64,
        a.salvaged_in_flight as u64,
        a.tail_latency_ok.map_or(u64::MAX, f64::to_bits),
    ];
    for s in &o.per_server {
        bits.extend_from_slice(&[
            s.requests as u64,
            s.tail_latency.to_bits(),
            s.energy.to_bits(),
            s.busy_time.to_bits(),
            s.idle_time.to_bits(),
            s.sleep_time.to_bits(),
            s.end_time.to_bits(),
            s.downtime.to_bits(),
        ]);
    }
    bits
}

fn tables(rubik: &RubikController) -> &TargetTailTables {
    rubik.tables().expect("a seeded controller has tables")
}

fn allocations(fleet: &[RubikController]) -> usize {
    fleet
        .iter()
        .map(|r| tables(r) as *const TargetTailTables)
        .collect::<HashSet<_>>()
        .len()
}

/// One fleet's controllers: seeded on this thread (sharing one table
/// pair) or each on its own spawned thread (each building its own).
fn seed_fleet(trace: &Trace, bound: f64, private: bool) -> Vec<RubikController> {
    let seed = || {
        RubikController::seeded_for_trace(
            RubikConfig::new(bound).with_profiling_window(1024),
            SimConfig::paper_simulated().dvfs,
            trace,
            256,
        )
    };
    let fleet: Vec<_> = if private {
        std::thread::scope(|scope| {
            (0..FLEET)
                .map(|_| scope.spawn(seed).join().expect("seeding thread panicked"))
                .collect()
        })
    } else {
        (0..FLEET).map(|_| seed()).collect()
    };
    let expected = if private { FLEET } else { 1 };
    assert_eq!(allocations(&fleet), expected, "private: {private}");
    fleet
}

/// Runs `fleet` through `scenario`; the controllers stay with the caller.
fn run(
    scenario: Scenario,
    fleet: &mut [RubikController],
    trace: &Trace,
    seed: u64,
) -> (ClusterOutcome, Vec<RunResult>) {
    let config = SimConfig::paper_simulated();
    let power = CorePowerModel::haswell_like();
    let router: Box<dyn Router> = match scenario {
        Scenario::PowerAware | Scenario::CappedWithBoundScaling => Box::new(PowerAware::new(power)),
        Scenario::HealthAwareJsq => Box::new(HealthAware::new(JoinShortestQueue::new())),
    };
    let mut policies = fleet.iter_mut();
    let mut cluster = Cluster::new(config, FLEET, router, |_| {
        policies.next().expect("one controller per server")
    })
    .with_power(power);
    let duration = trace.duration();
    match scenario {
        Scenario::PowerAware => {}
        Scenario::HealthAwareJsq => {
            cluster = cluster
                .with_fault_plan(
                    FaultPlan::new()
                        .crash(1, 0.3 * duration)
                        .recover(1, 0.5 * duration)
                        .straggle(2, 0.1 * duration, 0.6 * duration, 3.0),
                )
                .with_request_policy(
                    RequestPolicy::new()
                        .with_jitter_seed(seed)
                        .draining_on_crash(),
                );
        }
        Scenario::CappedWithBoundScaling => {
            cluster = cluster.with_fleet_controller(Box::new(
                PegasusFleet::new(2.0 * FLEET as f64, power)
                    .with_epoch(duration / 12.0)
                    .with_bound_scaling(),
            ));
        }
    }
    cluster.run_with_results(trace)
}

#[test]
fn shared_and_private_tables_run_bit_identically() {
    let profile = AppProfile::masstree();
    let bound = 3.0 * profile.mean_service_time();
    for scenario in [
        Scenario::PowerAware,
        Scenario::HealthAwareJsq,
        Scenario::CappedWithBoundScaling,
    ] {
        for seed in [7u64, 2015] {
            let trace = fleet_trace(&profile, 0.5, FLEET, PER_SERVER * FLEET, seed);
            let mut shared = seed_fleet(&trace, bound, false);
            let mut private = seed_fleet(&trace, bound, true);

            let (o1, r1) = run(scenario, &mut shared, &trace, seed);
            let (o2, r2) = run(scenario, &mut private, &trace, seed);
            let cell = format!("{scenario:?}, seed {seed}");

            assert_eq!(outcome_bits(&o1), outcome_bits(&o2), "{cell}: outcomes");
            assert_eq!(r1.len(), r2.len());
            for (i, (a, b)) in r1.iter().zip(&r2).enumerate() {
                assert_eq!(result_bits(a), result_bits(b), "{cell}: server {i}");
            }
            for (i, (a, b)) in shared.iter().zip(&private).enumerate() {
                assert_eq!(a.stats(), b.stats(), "{cell}: server {i} counters");
                assert_eq!(
                    format!("{:?}", tables(a)),
                    format!("{:?}", tables(b)),
                    "{cell}: server {i} tables"
                );
                assert_eq!(
                    a.latency_bound().to_bits(),
                    b.latency_bound().to_bits(),
                    "{cell}: server {i} bound"
                );
                // Periodic rebuilds ran mid-run on every server ...
                assert!(
                    a.stats().table_rebuilds_performed >= 2,
                    "{cell}: server {i} never rebuilt"
                );
            }
            // ... so every shared controller copied its tables once.
            assert_eq!(allocations(&shared), FLEET, "{cell}");
            if scenario == Scenario::CappedWithBoundScaling {
                assert!(
                    shared.iter().any(|r| r.latency_bound() != bound),
                    "{cell}: the fleet controller never rescaled a bound"
                );
            }
        }
    }
}
