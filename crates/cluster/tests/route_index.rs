//! The keyed-routing contract, pinned two ways:
//!
//! 1. **Router oracle.** Seeded random sequences of view mutations —
//!    occupancy up and down, DVFS level changes, health flips (including
//!    an all-down fleet), heterogeneous capacities including 0 — are
//!    driven through a [`RouteIndex`], and after every step its choice
//!    must equal the router's scanning `route` over the same views. For
//!    [`PowerAware`] both must also equal the original three-way
//!    comparator, copied here as the reference the key scheme replaced.
//! 2. **Scan fallback is bit-identical.** A forward-only wrapper (just
//!    `name` and `route`, the shape of a timing probe) hides the key, so
//!    the driver scans; across router × fleet × fault-plan × seed grids —
//!    with hedging, drain-on-crash, salvage and retries — the keyed
//!    cluster and the wrapped one produce the same `ClusterOutcome` and
//!    per-server `RunResult` bits.

use rubik_cluster::{
    fleet_trace, Cluster, ClusterOutcome, FaultPlan, HealthAware, JoinShortestQueue, PegasusFleet,
    PowerAware, RequestPolicy, RoundRobin, RouteIndex, RouteKey, Router, ServerHealth, ServerView,
};
use rubik_core::{RubikConfig, RubikController};
use rubik_power::CorePowerModel;
use rubik_sim::{Freq, RequestSpec, RunResult, SimConfig};
use rubik_stats::DeterministicRng;
use rubik_sweep::{SweepExecutor, SweepSpec};
use rubik_workloads::AppProfile;

// ---------------------------------------------------------------------------
// Part 1: the index against the scanning routers.
// ---------------------------------------------------------------------------

fn keyed_routers() -> Vec<Box<dyn Router>> {
    vec![
        Box::new(JoinShortestQueue::new()),
        Box::new(PowerAware::default()),
        Box::new(HealthAware::new(JoinShortestQueue::new())),
        Box::new(HealthAware::new(PowerAware::default())),
    ]
}

/// `PowerAware::route` as it was before keys: a three-way `min_by` that
/// recomputes both cores' active power inside the comparator.
fn reference_power_aware(power: &CorePowerModel, servers: &[ServerView]) -> usize {
    servers
        .iter()
        .min_by(|a, b| {
            (a.effective_load().total_cmp(&b.effective_load()))
                .then_with(|| {
                    power
                        .active_power(a.current_freq)
                        .total_cmp(&power.active_power(b.current_freq))
                })
                .then_with(|| a.index.cmp(&b.index))
        })
        .map_or(0, |v| v.index)
}

const CAPACITIES: [f64; 5] = [0.0, 0.5, 1.0, 1.0, 2.0];
const HEALTHS: [ServerHealth; 4] = [
    ServerHealth::Up,
    ServerHealth::Up,
    ServerHealth::Straggling,
    ServerHealth::Down,
];

struct Fleet {
    views: Vec<ServerView>,
    levels: Vec<Freq>,
    rng: DeterministicRng,
}

impl Fleet {
    fn new(n: usize, seed: u64) -> Self {
        let levels = SimConfig::paper_simulated().dvfs.levels().to_vec();
        let mut rng = DeterministicRng::new(seed);
        let views = (0..n)
            .map(|index| {
                let in_flight = rng.index(6);
                let freq = levels[rng.index(levels.len())];
                ServerView {
                    index,
                    in_flight,
                    admitted: in_flight,
                    queued: in_flight.saturating_sub(1),
                    current_freq: freq,
                    target_freq: freq,
                    busy: in_flight > 0,
                    capacity: CAPACITIES[rng.index(CAPACITIES.len())],
                    class: 0,
                    health: HEALTHS[rng.index(HEALTHS.len())],
                }
            })
            .collect();
        Self { views, levels, rng }
    }

    /// Applies one random mutation and reports every touched server.
    fn mutate(&mut self, index: &mut RouteIndex) {
        let n = self.views.len();
        let i = self.rng.index(n);
        match self.rng.index(8) {
            0 | 1 => self.views[i].in_flight += 1,
            2 | 3 => self.views[i].in_flight = self.views[i].in_flight.saturating_sub(1),
            4 => self.views[i].current_freq = self.levels[self.rng.index(self.levels.len())],
            5 => self.views[i].health = HEALTHS[self.rng.index(HEALTHS.len())],
            6 => self.views[i].capacity = CAPACITIES[self.rng.index(CAPACITIES.len())],
            _ => {
                // A correlated event: the whole fleet goes down, or comes back.
                let health = if self.rng.index(2) == 0 {
                    ServerHealth::Down
                } else {
                    ServerHealth::Up
                };
                for j in 0..n {
                    self.views[j].health = health;
                    index.mark_changed(j);
                }
            }
        }
        index.mark_changed(i);
    }
}

#[test]
fn the_index_matches_every_keyed_routers_scan_under_random_mutations() {
    let request = RequestSpec::new(0, 0.0, 1e6, 0.0);
    let power = CorePowerModel::haswell_like();
    for (r, mut router) in keyed_routers().into_iter().enumerate() {
        for (k, &n) in [1usize, 2, 3, 7, 64, 200].iter().enumerate() {
            for seed in 0..4u64 {
                let mut fleet = Fleet::new(n, 1000 * r as u64 + 100 * k as u64 + seed);
                let mut index =
                    RouteIndex::new(router.as_ref(), &fleet.views).expect("router is keyed");
                for step in 0..300 {
                    let scanned = router.route(&request, &fleet.views);
                    let indexed = index.choose(router.as_ref(), &fleet.views);
                    assert_eq!(
                        indexed,
                        scanned,
                        "{} diverged from its scan: fleet {n}, seed {seed}, step {step}",
                        router.name()
                    );
                    if router.name() == "power-aware" {
                        assert_eq!(
                            scanned,
                            reference_power_aware(&power, &fleet.views),
                            "power-aware keys diverged from the three-way comparator"
                        );
                    }
                    // The driver's own write: the chosen server gets the work.
                    fleet.views[indexed].in_flight += 1;
                    index.mark_changed(indexed);
                    for _ in 0..1 + fleet.rng.index(3) {
                        fleet.mutate(&mut index);
                    }
                }
            }
        }
    }
}

#[test]
fn unkeyed_routers_and_wrappers_get_no_index() {
    let fleet = Fleet::new(4, 9);
    assert!(RouteIndex::new(&RoundRobin::new(), &fleet.views).is_none());
    assert!(RouteIndex::new(&HealthAware::new(RoundRobin::new()), &fleet.views).is_none());
    assert!(RouteIndex::new(&ScanOnly(Box::new(PowerAware::default())), &fleet.views).is_none());
    assert!(RouteIndex::new(&JoinShortestQueue::new(), &[]).is_none());
}

#[test]
fn float_keys_sort_exactly_as_total_cmp() {
    let values = [
        f64::NEG_INFINITY,
        -1e300,
        -1.0,
        -f64::MIN_POSITIVE,
        -0.0,
        0.0,
        f64::MIN_POSITIVE / 4.0,
        1.0,
        1.5,
        1e300,
        f64::INFINITY,
        f64::NAN,
        -f64::NAN,
    ];
    for &a in &values {
        for &b in &values {
            assert_eq!(
                RouteKey::from_f64(a, 0.0).cmp(&RouteKey::from_f64(b, 0.0)),
                a.total_cmp(&b),
                "{a} vs {b}"
            );
            assert_eq!(
                RouteKey::from_f64(1.0, a).cmp(&RouteKey::from_f64(1.0, b)),
                a.total_cmp(&b),
                "secondary {a} vs {b}"
            );
        }
    }
    // A prefixed flag dominates whatever follows it, and nested prefixes
    // compare outermost first.
    let best = RouteKey::from_f64(f64::NEG_INFINITY, 0.0);
    let worst = RouteKey::from_f64(f64::INFINITY, f64::INFINITY);
    assert!(best.prefixed(true) > worst.prefixed(false));
    assert!(best.prefixed(true).prefixed(false) > worst.prefixed(false).prefixed(false));
    assert!(best.prefixed(true).prefixed(false) < worst.prefixed(false).prefixed(true));
}

// ---------------------------------------------------------------------------
// Part 2: a whole cluster, keyed versus forced onto the scan.
// ---------------------------------------------------------------------------

/// Forwards only `name` and `route`, so `route_key` falls back to the
/// default `None` and the driver scans — what any timing or logging
/// wrapper that does not forward `route_key` gets.
struct ScanOnly(Box<dyn Router>);

impl Router for ScanOnly {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn route(&mut self, request: &RequestSpec, servers: &[ServerView]) -> usize {
        self.0.route(request, servers)
    }
}

fn routers() -> Vec<Box<dyn Router>> {
    let mut all: Vec<Box<dyn Router>> = vec![Box::new(RoundRobin::new())];
    all.extend(keyed_routers());
    all
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
        a.hedged as u64,
        a.hedge_wins as u64,
        a.hedge_cancelled as u64,
        a.tail_latency_ok.map_or(u64::MAX, f64::to_bits),
    ];
    for s in &o.per_server {
        bits.extend_from_slice(&[
            s.class as u64,
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

/// Crashes, a straggler, a stuck frequency, and a window in which every
/// server is down at once (server 0's outage spans the others').
fn eventful_plan(duration: f64, fleet: usize) -> FaultPlan {
    let mut plan = FaultPlan::new()
        .crash(0, 0.20 * duration)
        .recover(0, 0.60 * duration)
        .straggle(1, 0.05 * duration, 0.30 * duration, 4.0)
        .stick_freq(fleet - 1, 0.10 * duration, Some(Freq::from_mhz(1200)))
        .recover(fleet - 1, 0.35 * duration);
    for j in 1..fleet {
        plan = plan.crash(j, 0.40 * duration).recover(j, 0.45 * duration);
    }
    plan
}

type Run = (ClusterOutcome, Vec<RunResult>);

/// One cell: `fleet` Rubik servers behind `router`, fault-free or under
/// the eventful plan with the full request lifecycle and a power cap.
fn run_cell(router: Box<dyn Router>, fleet: usize, faulted: bool, seed: u64) -> Run {
    let config = SimConfig::paper_simulated();
    let profile = AppProfile::masstree();
    let mean = profile.mean_service_time();
    let bound = 3.0 * mean;
    let trace = fleet_trace(&profile, 0.5, fleet, 80 * fleet, seed);
    let mut cluster = Cluster::new(config.clone(), fleet, router, |_| {
        RubikController::seeded_for_trace(
            RubikConfig::new(bound).with_profiling_window(1024),
            config.dvfs.clone(),
            &trace,
            256,
        )
    });
    if faulted {
        let power = CorePowerModel::haswell_like();
        cluster = cluster
            .with_fleet_controller(Box::new(
                PegasusFleet::new(3.5 * fleet as f64, power).with_epoch(trace.duration() / 20.0),
            ))
            .with_fault_plan(eventful_plan(trace.duration(), fleet))
            .with_request_policy(
                RequestPolicy::new()
                    .with_hedging(0.9, 0.5 * mean)
                    .with_timeout(8.0 * mean)
                    .with_retries(4, mean, 8.0 * mean)
                    .with_jitter_seed(seed)
                    .salvaging_in_flight()
                    .draining_on_crash(),
            );
    }
    cluster.run_with_results(&trace)
}

#[test]
fn forward_only_wrappers_reproduce_keyed_clusters_bitwise() {
    let fleets = [3usize, 8];
    let seeds = [11u64, 42];
    let spec = SweepSpec::new()
        .axis("router", routers().len())
        .axis("fleet", fleets.len())
        .axis("faulted", 2)
        .axis("seed", seeds.len());

    let cell = |c: &rubik_sweep::Cell<'_>| {
        let fleet = fleets[c.get("fleet")];
        let faulted = c.get("faulted") == 1;
        let seed = seeds[c.get("seed")];
        let keyed = || routers().swap_remove(c.get("router"));
        let (o1, r1) = run_cell(keyed(), fleet, faulted, seed);
        let (o2, r2) = run_cell(Box::new(ScanOnly(keyed())), fleet, faulted, seed);

        let name = keyed().name().to_string();
        assert_eq!(
            outcome_bits(&o1),
            outcome_bits(&o2),
            "{name}: keyed and scanned outcomes diverged (cell {})",
            c.index()
        );
        assert_eq!(r1.len(), r2.len());
        for (i, (a, b)) in r1.iter().zip(&r2).enumerate() {
            assert_eq!(
                result_bits(a),
                result_bits(b),
                "{name}: server {i}'s RunResult diverged (cell {})",
                c.index()
            );
        }
        if faulted {
            let a = &o1.availability;
            assert_eq!(a.completed + a.lost, a.offered);
            assert!(a.requeued_on_failure + a.retries + a.hedged > 0);
        }
    };
    SweepExecutor::new(2).run(&spec, cell);
}
