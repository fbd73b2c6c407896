//! Cross-commit golden pin for the cluster driver.
//!
//! The other driver suites compare two runs of the *same* build (keyed vs
//! scanned routing, streamed vs batch, telemetry on vs off), so a change
//! that shifts both sides the same way still passes them. This suite pins
//! absolute bits instead: each run below folds its `ClusterOutcome`, every
//! per-server `RunResult` and the serialized telemetry log into one 64-bit
//! FNV-1a digest, compared against constants captured at commit
//! `494601736a1524b3471765d7775ec463c99c7ae5`.
//!
//! The loaded scenario drives every boundary the driver sequences at once:
//! Rubik per server, `HealthAware(JSQ)` routing, a `PegasusFleet` cap with
//! bound scaling, a `ThresholdMigrator`, a crash/straggle plan, and a
//! request policy with hedging, timeouts, jittered retries, in-flight
//! salvage and crash draining. A plain `PowerAware` + Rubik fleet pins the
//! keyed-router path with no boundary hooks.
//!
//! A digest mismatch means the driver's observable behaviour changed. If
//! the change is intended, say why in the commit and re-capture the
//! constants from this test's failure message.

use rubik_cluster::{
    fleet_trace, Cluster, ClusterOutcome, FaultPlan, HealthAware, JoinShortestQueue, PegasusFleet,
    PowerAware, RequestPolicy, Router, ThresholdMigrator, TraceSource,
};
use rubik_core::{RubikConfig, RubikController};
use rubik_power::CorePowerModel;
use rubik_sim::{RunResult, SimConfig, Trace};
use rubik_workloads::AppProfile;

const FLEET: usize = 6;
/// At load 0.5 a masstree server sees about 2000 requests/s, so 400
/// requests per server span about 0.2 s: two Rubik ticks per server.
const PER_SERVER: usize = 400;

/// 64-bit FNV-1a over little-endian words and raw bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

fn hash_outcome(h: &mut Fnv, o: &ClusterOutcome) {
    let a = &o.availability;
    for w in [
        o.requests,
        o.migrated_requests,
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
        h.word(w as u64);
    }
    for x in [
        o.tail_latency,
        o.mean_latency,
        o.fleet_energy,
        o.fleet_power,
        o.duration,
    ] {
        h.f64(x);
    }
    h.word(a.tail_latency_ok.map_or(u64::MAX, f64::to_bits));
    for s in &o.per_server {
        h.word(u64::from(s.class));
        h.word(s.requests as u64);
        for x in [
            s.tail_latency,
            s.energy,
            s.busy_time,
            s.idle_time,
            s.sleep_time,
            s.end_time,
            s.downtime,
        ] {
            h.f64(x);
        }
    }
}

fn hash_result(h: &mut Fnv, r: &RunResult) {
    h.f64(r.end_time());
    h.word(r.records().len() as u64);
    for rec in r.records() {
        h.word(rec.id);
        h.f64(rec.arrival);
        h.f64(rec.start);
        h.f64(rec.completion);
        h.word(rec.queue_len_at_arrival as u64);
    }
    h.word(r.segments().len() as u64);
    for s in r.segments() {
        h.f64(s.start);
        h.f64(s.end);
        h.word(u64::from(s.freq.mhz()));
        h.word(s.activity as u64);
    }
}

/// One Rubik controller per server, seeded from the head of the trace.
fn rubik_fleet(trace: &Trace, bound: f64) -> Vec<RubikController> {
    (0..FLEET)
        .map(|_| {
            RubikController::seeded_for_trace(
                RubikConfig::new(bound).with_profiling_window(1024),
                SimConfig::paper_simulated().dvfs,
                trace,
                256,
            )
        })
        .collect()
}

/// Runs one scenario through `run_streamed_traced` and digests everything
/// it returns.
fn digest(loaded: bool, seed: u64) -> (u64, ClusterOutcome) {
    let profile = AppProfile::masstree();
    let mean = profile.mean_service_time();
    let trace = fleet_trace(&profile, 0.5, FLEET, PER_SERVER * FLEET, seed);
    let duration = trace.duration();
    let power = CorePowerModel::haswell_like();
    let router: Box<dyn Router> = if loaded {
        Box::new(HealthAware::new(JoinShortestQueue::new()))
    } else {
        Box::new(PowerAware::new(power))
    };
    let mut policies = rubik_fleet(&trace, 3.0 * mean).into_iter();
    let mut cluster = Cluster::new(SimConfig::paper_simulated(), FLEET, router, |_| {
        policies.next().expect("one controller per server")
    })
    .with_power(power);
    if loaded {
        cluster = cluster
            .with_fleet_controller(Box::new(
                PegasusFleet::new(3.0 * FLEET as f64, power)
                    .with_epoch(duration / 12.0)
                    .with_bound_scaling(),
            ))
            .with_migrator(Box::new(ThresholdMigrator::new(2, 0).with_interval(0.005)))
            .with_fault_plan(
                FaultPlan::new()
                    .crash(0, 0.25 * duration)
                    .recover(0, 0.6 * duration)
                    .straggle(1, 0.1 * duration, 0.7 * duration, 4.0)
                    .crash(2, 0.45 * duration)
                    .recover(2, 0.8 * duration),
            )
            .with_request_policy(
                RequestPolicy::new()
                    .with_timeout(8.0 * mean)
                    .with_retries(3, mean, 16.0 * mean)
                    .with_jitter_seed(seed)
                    .salvaging_in_flight()
                    .draining_on_crash()
                    .with_hedging(0.9, 0.5 * mean)
                    .with_hedge_window(64),
            );
    }
    let (outcome, results, log) = cluster
        .run_streamed_traced(TraceSource::new(&trace))
        .expect("a Trace is time-ordered");
    let mut h = Fnv::new();
    hash_outcome(&mut h, &outcome);
    h.word(results.len() as u64);
    for r in &results {
        hash_result(&mut h, r);
    }
    h.bytes(rubik_telemetry::to_json(&log).as_bytes());
    (h.0, outcome)
}

/// Every digest, as `(loaded, seed, expected)`.
const GOLDEN: [(bool, u64, u64); 3] = [
    (true, 7, 0xf5a7_259a_8c2b_349a),
    (true, 2015, 0x0327_1723_7cc8_124c),
    (false, 2015, 0x0c92_97fa_7c47_11b6),
];

#[test]
fn driver_outputs_match_the_captured_digests() {
    let mut mismatches = Vec::new();
    for (loaded, seed, expected) in GOLDEN {
        let (got, outcome) = digest(loaded, seed);
        if loaded {
            // The pin is only as strong as the paths it reaches.
            let a = &outcome.availability;
            assert!(a.hedged > 0, "seed {seed}: no hedges fired");
            assert!(a.hedge_cancelled > 0, "seed {seed}: no hedge resolved");
            assert!(a.timeouts > 0, "seed {seed}: no attempt timed out");
            assert!(a.retries > 0, "seed {seed}: no retries");
            assert!(a.salvaged_in_flight > 0, "seed {seed}: nothing salvaged");
            assert!(a.requeued_on_failure > 0, "seed {seed}: nothing drained");
            assert!(outcome.migrated_requests > 0, "seed {seed}: no migration");
        }
        if got != expected {
            mismatches.push(format!(
                "(loaded {loaded}, seed {seed}): got {got:#018x}, expected {expected:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
