//! The cluster driver: N `ServerSim`s multiplexed through one event loop.
//!
//! Every server is an independent open-loop simulation
//! ([`rubik_sim::ServerSim`]); the driver owns a binary heap of
//! `(next event time, server)` entries and always advances the globally
//! earliest event, so thousands of servers run in one process with no
//! threads and no per-server clocks to reconcile. Arrivals from the global
//! request stream are routed by a [`Router`] and offered to the chosen
//! server, whose own engine then sequences the arrival against its pending
//! completions, transitions, and ticks.
//!
//! # Event ordering and determinism
//!
//! The heap orders events by `(time, server index)`, and every routing
//! decision observes the fleet *after* all server events strictly before
//! the arrival instant have been processed (events at exactly the arrival
//! instant are sequenced by the destination server's own round order, which
//! is what makes a 1-server cluster bitwise-identical to
//! [`rubik_sim::Server::run`]). Entries are stamped and lazily invalidated:
//! whenever a server is stepped or offered work, its stamp advances and a
//! fresh entry is pushed, so stale heap entries are skipped on pop. The
//! whole loop is sequential and deterministic — fleet-scale parallelism
//! comes from sweeping many cluster cells on `rubik-sweep`, not from
//! threading inside one cluster.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rubik_load::{ArrivalSource, TraceSource};
use rubik_power::CorePowerModel;
use rubik_sim::{DvfsPolicy, RequestSpec, RunResult, ServerSim, SimConfig, SimEvent, Trace};

use crate::fault::{FaultLayer, FaultPlan, HedgeResolution, OpKind, RequestPolicy};
use crate::fleet::{EpochMeter, FleetCommand, FleetController, FleetSpec, ServerPowerView};
use crate::migrate::{Migration, Migrator};
use crate::outcome::ClusterOutcome;
use crate::route_index::RouteIndex;
use crate::router::{Router, ServerHealth, ServerView};
use rubik_telemetry::{
    EpochSample, RequestEvent, RequestEventKind, ServerEvent, ServerEventKind, ServerSample,
    Telemetry, TraceLog,
};

/// Why a [`Cluster`] could not be built or a streamed run could not finish.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The fleet has zero servers; a cluster needs at least one.
    EmptyFleet,
    /// The attached [`FaultPlan`] is inconsistent with the fleet (server
    /// out of range, non-finite time, empty straggle window, double crash,
    /// recovery of a healthy server, …). The message says which event.
    InvalidFaultPlan(String),
    /// The offered per-server load is not positive and finite, so no
    /// arrival process can be constructed from it.
    InvalidLoad,
    /// A streamed [`ArrivalSource`] violated its contract: arrival number
    /// `index` (0-based, in pull order) was yielded at time `at` after an
    /// arrival at the later (or non-finite) time `prev`. Requests already
    /// routed before the violation are abandoned — the run produces no
    /// outcome.
    OutOfOrderArrival {
        /// 0-based position of the offending arrival in pull order.
        index: usize,
        /// The offending arrival's time.
        at: f64,
        /// The previous arrival's time.
        prev: f64,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::EmptyFleet => write!(f, "a cluster needs at least one server"),
            ClusterError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            ClusterError::InvalidLoad => write!(f, "load must be positive and finite"),
            ClusterError::OutOfOrderArrival { index, at, prev } => write!(
                f,
                "arrival source must be time-ordered: arrival #{index} at {at} after {prev}"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A heap entry: the next event of one server, stamped for lazy
/// invalidation.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: f64,
    server: usize,
    stamp: u64,
}

impl HeapEntry {
    fn key(&self) -> (f64, usize, u64) {
        (self.time, self.server, self.stamp)
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (t0, s0, v0) = self.key();
        let (t1, s1, v1) = other.key();
        t0.total_cmp(&t1).then(s0.cmp(&s1)).then(v0.cmp(&v1))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A fleet of simulated servers behind a load balancer.
///
/// Built with one [`DvfsPolicy`] instance per server (Rubik per server, in
/// the paper's setting) and a [`Router`]; consumed by [`Cluster::run`],
/// which drives the global arrival stream through the fleet and aggregates
/// a [`ClusterOutcome`].
pub struct Cluster<P: DvfsPolicy = Box<dyn DvfsPolicy>> {
    servers: Vec<ServerSim<P>>,
    router: Box<dyn Router>,
    power: CorePowerModel,
    quantile: f64,
    /// Per-server capacity weight (1.0 everywhere for homogeneous fleets).
    capacities: Vec<f64>,
    /// Per-server core-class index (0 everywhere for homogeneous fleets).
    classes: Vec<u32>,
    /// Optional fleet-level power manager, run on its epoch.
    fleet: Option<Box<dyn FleetController>>,
    /// Optional queue rebalancer, run on its own interval.
    migrator: Option<Box<dyn Migrator>>,
    /// Optional scripted fault schedule (validated against the fleet size).
    faults: Option<FaultPlan>,
    /// Optional client-side request lifecycle: deadlines, timeouts, retries.
    request_policy: Option<RequestPolicy>,
    /// Instrumentation handle; disabled (and bitwise-invisible) by default.
    telemetry: Telemetry,
}

impl<P: DvfsPolicy> std::fmt::Debug for Cluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("servers", &self.servers.len())
            .field("router", &self.router.name())
            .field("quantile", &self.quantile)
            .field("fleet", &self.fleet.as_ref().map(|f| f.name()))
            .field("migrator", &self.migrator.as_ref().map(|m| m.name()))
            .field("telemetry", &self.telemetry.is_enabled())
            .finish()
    }
}

impl<P: DvfsPolicy> Cluster<P> {
    /// Creates a fleet of `servers` identical-hardware servers. `policy` is
    /// called once per server index to build that server's DVFS controller —
    /// per-server instances, never shared.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new<F>(config: SimConfig, servers: usize, router: Box<dyn Router>, mut policy: F) -> Self
    where
        F: FnMut(usize) -> P,
    {
        Self::from_spec(
            &FleetSpec::homogeneous(config, servers),
            router,
            |i, config| {
                let _ = config;
                policy(i)
            },
        )
    }

    /// Creates a possibly heterogeneous fleet from a [`FleetSpec`]: each
    /// server gets its class's [`SimConfig`], and the spec's capacity
    /// weights feed capacity-aware routing
    /// ([`PowerAware`](crate::PowerAware)) and fleet-budget apportioning
    /// ([`PegasusFleet`](crate::PegasusFleet)). `policy` is called once per
    /// server with its index and its class's configuration.
    ///
    /// # Panics
    ///
    /// Panics if the spec is empty.
    pub fn from_spec<F>(spec: &FleetSpec, router: Box<dyn Router>, mut policy: F) -> Self
    where
        F: FnMut(usize, &SimConfig) -> P,
    {
        assert!(!spec.is_empty(), "a cluster needs at least one server");
        let n = spec.len();
        let servers = (0..n)
            .map(|i| {
                let config = spec.config_of(i);
                ServerSim::new(config.clone(), policy(i, config))
            })
            .collect();
        Self {
            servers,
            router,
            power: CorePowerModel::haswell_like(),
            quantile: 0.95,
            capacities: (0..n).map(|i| spec.capacity_of(i)).collect(),
            classes: (0..n).map(|i| spec.class_index_of(i)).collect(),
            fleet: None,
            migrator: None,
            faults: None,
            request_policy: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Fallible [`Cluster::new`]: returns [`ClusterError::EmptyFleet`]
    /// instead of panicking on a zero-server fleet.
    pub fn try_new<F>(
        config: SimConfig,
        servers: usize,
        router: Box<dyn Router>,
        policy: F,
    ) -> Result<Self, ClusterError>
    where
        F: FnMut(usize) -> P,
    {
        if servers == 0 {
            return Err(ClusterError::EmptyFleet);
        }
        Ok(Self::new(config, servers, router, policy))
    }

    /// Fallible [`Cluster::from_spec`]: returns
    /// [`ClusterError::EmptyFleet`] instead of panicking on an empty spec.
    pub fn try_from_spec<F>(
        spec: &FleetSpec,
        router: Box<dyn Router>,
        policy: F,
    ) -> Result<Self, ClusterError>
    where
        F: FnMut(usize, &SimConfig) -> P,
    {
        if spec.is_empty() {
            return Err(ClusterError::EmptyFleet);
        }
        Ok(Self::from_spec(spec, router, policy))
    }

    /// Attaches a fleet-level power manager, run on its epoch (initially at
    /// `t = 0`, before any event). See
    /// [`PegasusFleet`](crate::PegasusFleet).
    pub fn with_fleet_controller(mut self, fleet: Box<dyn FleetController>) -> Self {
        assert!(fleet.epoch() > 0.0, "fleet epoch must be positive");
        self.fleet = Some(fleet);
        self
    }

    /// Attaches a queue rebalancer, run on its own periodic interval. See
    /// [`ThresholdMigrator`](crate::ThresholdMigrator).
    pub fn with_migrator(mut self, migrator: Box<dyn Migrator>) -> Self {
        assert!(
            migrator.interval() > 0.0,
            "migration interval must be positive"
        );
        self.migrator = Some(migrator);
        self
    }

    /// Attaches a scripted fault schedule, applied deterministically
    /// between simulation events. An empty plan is **bit-neutral**: the run
    /// produces exactly the bytes it would without the plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] against this fleet;
    /// use [`Cluster::try_with_fault_plan`] for the fallible form.
    pub fn with_fault_plan(self, plan: FaultPlan) -> Self {
        match self.try_with_fault_plan(plan) {
            Ok(cluster) => cluster,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Cluster::with_fault_plan`].
    pub fn try_with_fault_plan(mut self, plan: FaultPlan) -> Result<Self, ClusterError> {
        plan.validate(self.servers.len())?;
        self.faults = Some(plan);
        Ok(self)
    }

    /// Attaches the client-side request lifecycle: per-request deadlines,
    /// per-attempt timeouts, retries with capped exponential backoff and
    /// deterministic jitter, and crash salvage/drain behaviour. The default
    /// policy is inert and bit-neutral.
    pub fn with_request_policy(mut self, policy: RequestPolicy) -> Self {
        self.request_policy = Some(policy);
        self
    }

    /// Attaches instrumentation (see [`rubik_telemetry`]). The default,
    /// [`Telemetry::disabled`], is **bitwise-invisible**: the run produces
    /// exactly the bytes it would without telemetry and performs zero
    /// steady-state allocations. [`Telemetry::recording`] captures
    /// per-request lifecycle events, server fault windows, and a per-epoch
    /// fleet time series at the same deterministic boundary instants the
    /// driver already sequences — recording telemetry leaves the simulation
    /// outputs bit-identical too; it only *adds* the log, retrieved with
    /// [`Cluster::run_traced`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Overrides the core power model used for fleet energy accounting.
    ///
    /// This does **not** reach into the router: a
    /// [`PowerAware`](crate::PowerAware) router carries its own scoring
    /// model, so
    /// construct it from the same model passed here or its routing
    /// objective will diverge from the reported fleet energy.
    pub fn with_power(mut self, power: CorePowerModel) -> Self {
        self.power = power;
        self
    }

    /// Overrides the tail quantile (default 0.95).
    pub fn with_quantile(mut self, quantile: f64) -> Self {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1)"
        );
        self.quantile = quantile;
        self
    }

    /// Number of servers in the fleet.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the fleet is empty (never true — see [`Cluster::new`]).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The fleet's router.
    pub fn router(&self) -> &dyn Router {
        self.router.as_ref()
    }

    /// Serves the global arrival stream `trace` through the fleet and
    /// returns the aggregated outcome.
    ///
    /// The trace is the *fleet's* arrival process (e.g. from
    /// [`crate::fleet_trace`]); each request is routed on arrival and
    /// offered to one server. Requests must be time-ordered, which
    /// [`Trace`] guarantees.
    pub fn run(self, trace: &Trace) -> ClusterOutcome {
        self.run_with_results(trace).0
    }

    /// Serves a pull-based arrival stream through the fleet and returns
    /// the aggregated outcome.
    ///
    /// Arrivals are pulled from `source` one at a time, as the event loop
    /// reaches them: the stream is never materialized, so resident memory
    /// scales with in-flight work (plus the per-request completion records
    /// every run keeps for outcome aggregation), not with the length of
    /// the arrival stream. `run_streamed(TraceSource::new(&trace))` is
    /// bitwise-identical to `run(&trace)` — the batch path is itself built
    /// on this one.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::OutOfOrderArrival`] if the source yields
    /// arrivals out of time order (a violation of the [`ArrivalSource`]
    /// contract).
    pub fn run_streamed<S: ArrivalSource>(self, source: S) -> Result<ClusterOutcome, ClusterError> {
        Ok(self.run_streamed_with_results(source)?.0)
    }

    /// Like [`Cluster::run_streamed`], but also returns each server's raw
    /// [`RunResult`], mirroring [`Cluster::run_with_results`].
    pub fn run_streamed_with_results<S: ArrivalSource>(
        self,
        mut source: S,
    ) -> Result<(ClusterOutcome, Vec<RunResult>), ClusterError> {
        let (outcome, results, _) = self.run_core(&mut source)?;
        Ok((outcome, results))
    }

    /// Like [`Cluster::run_streamed_with_results`], but also returns the
    /// assembled [`TraceLog`], mirroring [`Cluster::run_traced`]: if no
    /// recording telemetry was attached, [`Telemetry::recording`] is
    /// enabled with its default sampling epoch.
    pub fn run_streamed_traced<S: ArrivalSource>(
        mut self,
        mut source: S,
    ) -> Result<(ClusterOutcome, Vec<RunResult>, TraceLog), ClusterError> {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::recording();
        }
        let (outcome, results, log) = self.run_core(&mut source)?;
        Ok((outcome, results, log.expect("telemetry is enabled")))
    }

    /// Like [`Cluster::run`], but also returns each server's raw
    /// [`RunResult`] (used by the equivalence suites and for per-server
    /// timelines).
    ///
    /// The attached [`Migrator`] and [`FleetController`] run on their own
    /// periodic clocks, interleaved with the event stream; the order at
    /// equal instants is documented on the driver's `Hooks::fire`.
    pub fn run_with_results(self, trace: &Trace) -> (ClusterOutcome, Vec<RunResult>) {
        let (outcome, results, _) = self
            .run_core(&mut TraceSource::new(trace))
            .expect("a Trace is time-ordered by construction");
        (outcome, results)
    }

    /// Like [`Cluster::run_with_results`], but also returns the assembled
    /// [`TraceLog`]. If no recording telemetry was attached with
    /// [`Cluster::with_telemetry`], this enables [`Telemetry::recording`]
    /// with its default sampling epoch — recording never changes the
    /// simulated outcome, only observes it.
    pub fn run_traced(mut self, trace: &Trace) -> (ClusterOutcome, Vec<RunResult>, TraceLog) {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::recording();
        }
        let (outcome, results, log) = self
            .run_core(&mut TraceSource::new(trace))
            .expect("a Trace is time-ordered by construction");
        (outcome, results, log.expect("telemetry is enabled"))
    }

    /// The one event loop every public run method funnels into.
    fn run_core<S: ArrivalSource>(
        mut self,
        source: &mut S,
    ) -> Result<(ClusterOutcome, Vec<RunResult>, Option<TraceLog>), ClusterError> {
        let n = self.servers.len();
        // One view per server, maintained incrementally: only a stepped or
        // offered server's view changes, so view writes are O(events) — not
        // O(arrivals × fleet). A keyed router also gets a route index fed
        // by the same writes, making each decision O(changed · log fleet).
        let mut loop_state = EventLoop::new(
            std::mem::take(&mut self.servers),
            std::mem::take(&mut self.capacities),
            std::mem::take(&mut self.classes),
            self.router.as_ref(),
        );
        // The fault/lifecycle layer exists only when something was attached;
        // without it every drain takes the pre-existing unwatched path. (An
        // *empty* plan builds a layer whose next boundary is infinite — the
        // same code path with a no-op observer, which is still bit-neutral.)
        let mut layer: Option<FaultLayer> =
            if self.faults.is_some() || self.request_policy.is_some() {
                Some(FaultLayer::new(
                    self.faults.as_ref(),
                    self.request_policy.unwrap_or_default(),
                    n,
                ))
            } else {
                None
            };
        let mut tele = std::mem::take(&mut self.telemetry);
        let mut hooks = Hooks::new(
            self.migrator.take(),
            self.fleet.take(),
            &tele,
            self.power,
            &mut loop_state,
        );

        // Pull arrivals lazily: the stream is consumed one request at a
        // time, so the driver's resident memory tracks in-flight work, not
        // stream length. `offered` replaces the batch path's `trace.len()`
        // in fault-layer conservation accounting.
        let mut offered = 0usize;
        let mut last_arrival = f64::NEG_INFINITY;
        while let Some(request) = source.next_arrival() {
            if !matches!(
                request.arrival.partial_cmp(&last_arrival),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            ) {
                // A misbehaving user source is an input error, not a driver
                // bug: surface it through the result path (this also traps
                // NaN arrivals, which compare as incomparable). Typed here
                // instead of an assert so `run_streamed` callers can
                // handle it.
                return Err(ClusterError::OutOfOrderArrival {
                    index: offered,
                    at: request.arrival,
                    prev: last_arrival,
                });
            }
            last_arrival = request.arrival;
            // Run any hook boundaries at or before the arrival instant
            // (boundary actions happen *between* events; an arrival at
            // exactly the boundary is routed after the hooks ran).
            loop {
                let (boundary, fault) = hooks.next_boundary(layer.as_ref());
                if boundary > request.arrival {
                    break;
                }
                loop_state.drain(boundary, layer.as_mut(), &mut tele);
                hooks.fire(
                    boundary,
                    fault,
                    layer.as_mut(),
                    &mut tele,
                    self.router.as_mut(),
                    &mut loop_state,
                );
            }

            // Process every fleet event strictly before the arrival; events
            // at exactly the arrival instant are left for the destination
            // server's engine to order against the arrival itself.
            loop_state.drain(request.arrival, layer.as_mut(), &mut tele);

            let target = loop_state.route(self.router.as_mut(), &request);
            assert!(
                target < n,
                "router {} chose server {target} of a {n}-server fleet",
                self.router.name()
            );
            loop_state.servers[target].offer(request);
            loop_state.schedule(target);
            if let Some(l) = layer.as_mut() {
                l.on_routed(request, target, 1, request.arrival);
            }
            tele.request_event(
                request.id,
                RequestEvent {
                    at: request.arrival,
                    kind: RequestEventKind::Routed {
                        server: target as u32,
                        attempt: 1,
                    },
                },
            );
            offered += 1;
        }

        // The stream is exhausted: no more work will ever be offered, so
        // close every server and let the remaining events drain — still
        // honouring hook boundaries while any event, retry, timeout, or
        // scripted op remains (a retried request may be delivered into a
        // closed server, and a late `Recover` must still be applied so
        // downtime closes out).
        for i in 0..n {
            loop_state.servers[i].close();
            loop_state.schedule(i);
        }
        loop {
            let (boundary, fault) = hooks.next_boundary(layer.as_ref());
            loop_state.drain(boundary, layer.as_mut(), &mut tele);
            if fault.is_infinite() && !loop_state.has_events() {
                break;
            }
            hooks.fire(
                boundary,
                fault,
                layer.as_mut(),
                &mut tele,
                self.router.as_mut(),
                &mut loop_state,
            );
        }

        // Align every server's timeline with the fleet's end so idle/sleep
        // power is charged through the whole run: without this, a server
        // that drained early would be charged nothing while a backlogged
        // neighbour worked on, flattering imbalanced routings.
        let end = loop_state
            .servers
            .iter()
            .map(ServerSim::now)
            .fold(0.0, f64::max);
        for server in &mut loop_state.servers {
            server.coast_to(end);
        }

        // Close out the telemetry time series with the final (possibly
        // partial) window, so the run's whole span is covered.
        if let Some(sampler) = hooks.sampler.as_mut() {
            if end > sampler.meter.last_time() {
                sampler.sample(&mut tele, end, &loop_state, layer.as_ref(), &hooks.power);
            }
        }

        let downtimes: Vec<f64> = loop_state.servers.iter().map(|s| s.downtime()).collect();
        let EventLoop {
            servers, classes, ..
        } = loop_state;
        let results: Vec<RunResult> = servers.into_iter().map(ServerSim::finish).collect();
        let mut outcome =
            ClusterOutcome::aggregate_classed(&results, Some(&classes), &self.power, self.quantile);
        outcome.migrated_requests = hooks.migration.map_or(0, |m| m.migrated);
        for (server, downtime) in outcome.per_server.iter_mut().zip(&downtimes) {
            server.downtime = *downtime;
        }
        if let Some(mut l) = layer {
            outcome.availability = l.finalize(offered, self.quantile, &results);
        }
        let log = tele.finalize(&results, end);
        Ok((outcome, results, log))
    }
}

/// The driver's event-loop state: the fleet, its stamped event heap, the
/// incrementally maintained router views, and the static per-server labels
/// the views carry.
struct EventLoop<P: DvfsPolicy> {
    servers: Vec<ServerSim<P>>,
    /// Per-server stamps; a heap entry is live only while its stamp matches.
    stamps: Vec<u64>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    /// Written only by `schedule`, which reports the write to `route_index`.
    views: Vec<ServerView>,
    /// The keyed router's choice, maintained from view writes; `None` for
    /// unkeyed routers, which scan `views` on every decision instead.
    route_index: Option<RouteIndex>,
    capacities: Vec<f64>,
    classes: Vec<u32>,
    healths: Vec<ServerHealth>,
}

impl<P: DvfsPolicy> EventLoop<P> {
    /// Seeds the heap with every server's first event, builds every router
    /// view, and — if `router` is keyed — the route index.
    fn new(
        servers: Vec<ServerSim<P>>,
        capacities: Vec<f64>,
        classes: Vec<u32>,
        router: &dyn Router,
    ) -> Self {
        let n = servers.len();
        let mut heap = BinaryHeap::with_capacity(2 * n);
        for (server, sim) in servers.iter().enumerate() {
            if let Some(time) = sim.next_event_time() {
                heap.push(Reverse(HeapEntry {
                    time,
                    server,
                    stamp: 0,
                }));
            }
        }
        let mut state = Self {
            servers,
            stamps: vec![0; n],
            heap,
            views: Vec::with_capacity(n),
            route_index: None,
            capacities,
            classes,
            healths: vec![ServerHealth::Up; n],
        };
        for i in 0..n {
            let view = state.view_of(i);
            state.views.push(view);
        }
        state.route_index = RouteIndex::new(router, &state.views);
        state
    }

    /// Number of servers in the fleet.
    fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether any server still has a pending event.
    fn has_events(&self) -> bool {
        self.servers.iter().any(|s| s.next_event_time().is_some())
    }

    fn view_of(&self, i: usize) -> ServerView {
        let s = &self.servers[i];
        ServerView {
            index: i,
            in_flight: s.in_flight(),
            admitted: s.pending_requests(),
            queued: s.queued_len(),
            current_freq: s.current_freq(),
            target_freq: s.target_freq(),
            busy: !s.is_idle(),
            capacity: self.capacities[i],
            class: self.classes[i],
            health: self.healths[i],
        }
    }

    /// Chooses the destination for `request` against the live views: from
    /// the route index for a keyed router, by calling `route` otherwise.
    fn route(&mut self, router: &mut dyn Router, request: &RequestSpec) -> usize {
        match self.route_index.as_mut() {
            Some(index) => index.choose(router, &self.views),
            None => router.route(request, &self.views),
        }
    }

    /// Re-registers server `i` after its state changed: refreshes its router
    /// view (reporting the write to the route index), advances its stamp
    /// (invalidating any entry already in the heap), and pushes its current
    /// next-event time, if any.
    fn schedule(&mut self, i: usize) {
        self.views[i] = self.view_of(i);
        if let Some(index) = self.route_index.as_mut() {
            index.mark_changed(i);
        }
        self.stamps[i] += 1;
        if let Some(time) = self.servers[i].next_event_time() {
            self.heap.push(Reverse(HeapEntry {
                time,
                server: i,
                stamp: self.stamps[i],
            }));
        }
    }

    /// Steps fleet events in `(time, server)` order while they lie strictly
    /// before `limit`. When a fault layer is attached, completions are
    /// reported to it so pending timeouts are retired — and a completion
    /// that resolves a hedged pair cancels the losing copy on the spot
    /// (first-completion-wins).
    fn drain(&mut self, limit: f64, mut layer: Option<&mut FaultLayer>, tele: &mut Telemetry) {
        while let Some(&Reverse(entry)) = self.heap.peek() {
            if entry.time >= limit {
                break;
            }
            self.heap.pop();
            let server = entry.server;
            if entry.stamp != self.stamps[server] {
                continue; // stale: the server was stepped or offered work since
            }
            let stepped = self.servers[server].step();
            debug_assert!(stepped.is_some(), "a scheduled event must fire");
            if let (Some(SimEvent::Completion(rec)), Some(l)) = (&stepped, layer.as_deref_mut()) {
                if let Some(res) = l.on_completion(rec.id, server, rec.latency()) {
                    resolve_hedge(self, tele, rec.id, rec.completion, server, res);
                }
            }
            self.schedule(server);
        }
    }
}

/// Cancels the losing copy of a resolved hedged pair after the other copy
/// completed at `at` on `winner`. The layer's `loser` server is a hint — a
/// migrator may have moved the copy since it was tracked — so a miss falls
/// back to a fleet-wide search. Cancellation is safe here because every
/// fleet event strictly before `at` has already been processed: the losing
/// copy's next event (if any) cannot lie in the cancelled past.
fn resolve_hedge<P: DvfsPolicy>(
    state: &mut EventLoop<P>,
    tele: &mut Telemetry,
    id: u64,
    at: f64,
    winner: usize,
    res: HedgeResolution,
) {
    if res.hedge_won {
        tele.request_event(
            id,
            RequestEvent {
                at,
                kind: RequestEventKind::HedgeWon {
                    server: winner as u32,
                },
            },
        );
    }
    // A server that coasted past `at` (e.g. under an earlier fault
    // alignment at this same boundary) cancels at its own clock instead.
    let cancel = |state: &mut EventLoop<P>, j: usize| {
        let t = at.max(state.servers[j].now());
        state.servers[j].cancel(t, id).is_some()
    };
    let found = if cancel(state, res.loser) {
        Some(res.loser)
    } else {
        (0..state.len()).find(|&j| j != res.loser && cancel(state, j))
    };
    if let Some(j) = found {
        state.schedule(j);
        tele.request_event(
            id,
            RequestEvent {
                at,
                kind: RequestEventKind::HedgeCancelled { server: j as u32 },
            },
        );
    }
}

/// Steps one server's events up to and including `t` (reporting completions
/// to the fault layer, resolving hedged pairs), then aligns its clock to
/// exactly `t` so a fault op applies at its scripted instant — the
/// straggler factor, stuck frequency, or failure takes effect at `t`, not
/// at the server's last event.
fn align_server_to<P: DvfsPolicy>(
    state: &mut EventLoop<P>,
    i: usize,
    t: f64,
    layer: &mut FaultLayer,
    tele: &mut Telemetry,
) {
    while state.servers[i].next_event_time().is_some_and(|te| te <= t) {
        if let Some(SimEvent::Completion(rec)) = state.servers[i].step() {
            if let Some(res) = layer.on_completion(rec.id, i, rec.latency()) {
                resolve_hedge(state, tele, rec.id, rec.completion, i, res);
            }
        }
    }
    state.servers[i].coast_to(t);
}

/// Applies every scripted op, retry delivery, hedge launch, and attempt
/// timeout due at `now`, in that order (ops change health, which retry and
/// hedge routing observe; hedges precede timeouts so a launch due at `now`
/// supersedes a timeout due at the same instant; timeouts run last so a
/// retry delivered at `now` cannot time out at `now`). All server mutation
/// happens here, against the same views and scheduling discipline as
/// routing — one deterministic sequence regardless of sweep threading.
fn run_faults<P: DvfsPolicy>(
    layer: &mut FaultLayer,
    tele: &mut Telemetry,
    now: f64,
    router: &mut dyn Router,
    state: &mut EventLoop<P>,
) {
    while let Some(op) = layer.pop_due_op(now) {
        align_server_to(state, op.server, now, layer, tele);
        let effective = layer.track_op(&op);
        match op.kind {
            OpKind::Crash => {
                tele.server_event(ServerEvent {
                    at: now,
                    server: op.server as u32,
                    kind: ServerEventKind::Down,
                });
                let in_flight = state.servers[op.server].fail(now);
                state.healths[op.server] = layer.health_of(op.server);
                if let Some(spec) = in_flight {
                    if layer.copy_lost(spec.id, op.server) {
                        // One copy of a hedged pair died with the server;
                        // the twin is still live, so there is nothing to
                        // salvage or drop.
                    } else if layer.policy().salvage_in_flight {
                        layer.salvage(spec, now);
                        tele.request_event(
                            spec.id,
                            RequestEvent {
                                at: now,
                                kind: RequestEventKind::Salvaged {
                                    server: op.server as u32,
                                },
                            },
                        );
                    } else {
                        layer.drop_in_flight(spec.id);
                        tele.request_event(
                            spec.id,
                            RequestEvent {
                                at: now,
                                kind: RequestEventKind::Dropped {
                                    server: op.server as u32,
                                },
                            },
                        );
                    }
                }
                state.schedule(op.server);
                if layer.policy().drain_on_crash {
                    let mut stranded = Vec::new();
                    while let Some(spec) = state.servers[op.server].steal_queued() {
                        stranded.push(spec);
                    }
                    state.schedule(op.server);
                    // Stealing pops the FIFO back-to-front; re-routing in
                    // reverse preserves arrival order across the receivers.
                    for spec in stranded.into_iter().rev() {
                        let target = state.route(router, &spec);
                        state.servers[target].inject(now, spec);
                        layer.requeued(spec.id, op.server, target);
                        tele.request_event(
                            spec.id,
                            RequestEvent {
                                at: now,
                                kind: RequestEventKind::Requeued {
                                    from: op.server as u32,
                                    to: target as u32,
                                },
                            },
                        );
                        state.schedule(target);
                    }
                }
            }
            OpKind::Recover => {
                tele.server_event(ServerEvent {
                    at: now,
                    server: op.server as u32,
                    kind: ServerEventKind::Up,
                });
                if state.servers[op.server].is_down() {
                    state.servers[op.server].recover(now);
                }
                if state.servers[op.server].stuck_freq().is_some() {
                    state.servers[op.server].stick_freq(None);
                }
                state.healths[op.server] = layer.health_of(op.server);
                state.schedule(op.server);
            }
            OpKind::StraggleStart { slowdown, .. } => {
                tele.server_event(ServerEvent {
                    at: now,
                    server: op.server as u32,
                    kind: ServerEventKind::StraggleStart { slowdown },
                });
                state.servers[op.server].set_slowdown(slowdown);
                state.healths[op.server] = layer.health_of(op.server);
                state.schedule(op.server);
            }
            OpKind::StraggleEnd => {
                if effective {
                    state.servers[op.server].set_slowdown(1.0);
                    tele.server_event(ServerEvent {
                        at: now,
                        server: op.server as u32,
                        kind: ServerEventKind::StraggleEnd,
                    });
                }
                state.healths[op.server] = layer.health_of(op.server);
                state.schedule(op.server);
            }
            OpKind::Stick { level } => {
                tele.server_event(ServerEvent {
                    at: now,
                    server: op.server as u32,
                    kind: ServerEventKind::FreqStuck {
                        mhz: level.map(|f| f.mhz()),
                    },
                });
                state.servers[op.server].stick_freq(level);
                state.schedule(op.server);
            }
        }
    }
    // Retry deliveries due now, including work salvaged from a crash at
    // this very instant. The router sees live (post-fault) views; wrap it
    // in `HealthAware` to keep retries off down or straggling servers.
    while let Some((spec, attempt)) = layer.pop_due_retry(now) {
        let target = state.route(router, &spec);
        state.servers[target].inject(now, spec);
        layer.on_routed(spec, target, attempt, now);
        tele.request_event(
            spec.id,
            RequestEvent {
                at: now,
                kind: RequestEventKind::Routed {
                    server: target as u32,
                    attempt,
                },
            },
        );
        state.schedule(target);
    }
    // Hedge launches due now: inject a duplicate of the still-pending
    // attempt on the shortest-queue routable server other than the one
    // already holding it (the same `(in_flight, index)` key JSQ uses).
    // With no second routable candidate the launch is skipped — hedging
    // never stacks both copies on one server or feeds a down one.
    while let Some((spec, attempt, primary)) = layer.pop_due_hedge(now) {
        let target = state
            .views
            .iter()
            .filter(|v| v.index != primary && v.health.routable())
            .min_by_key(|v| (v.in_flight, v.index))
            .map(|v| v.index);
        let Some(target) = target else {
            continue;
        };
        state.servers[target].inject(now, spec);
        layer.hedge_launched(spec.id, target);
        tele.request_event(
            spec.id,
            RequestEvent {
                at: now,
                kind: RequestEventKind::Hedged {
                    server: target as u32,
                    attempt,
                },
            },
        );
        state.schedule(target);
    }
    // Attempt timeouts: pull timed-out requests off their queues and hand
    // them to the retry schedule. Work already in service is never
    // interrupted — the timeout is recorded and the attempt runs out.
    while let Some((id, attempt, server)) = layer.pop_due_timeout(now) {
        if let Some(spec) = state.servers[server].remove_queued(id) {
            tele.request_event(
                id,
                RequestEvent {
                    at: now,
                    kind: RequestEventKind::TimedOut {
                        server: server as u32,
                        attempt,
                    },
                },
            );
            match layer.retry_or_drop(spec, attempt, now) {
                Some(due) => tele.request_event(
                    id,
                    RequestEvent {
                        at: now,
                        kind: RequestEventKind::Backoff { until: due },
                    },
                ),
                None => tele.request_event(
                    id,
                    RequestEvent {
                        at: now,
                        kind: RequestEventKind::Dropped {
                            server: server as u32,
                        },
                    },
                ),
            }
            state.schedule(server);
        }
    }
}

/// The boundary hooks, each on its own periodic clock: the migrator, the
/// fleet controller and (when telemetry records) the fleet sampler. A hook
/// that was not attached is `None` and its clock is infinite, so a cluster
/// without hooks computes every boundary exactly as if hooks did not exist.
struct Hooks {
    power: CorePowerModel,
    migration: Option<MigrationHook>,
    epoch: Option<EpochHook>,
    sampler: Option<Sampler>,
}

impl Hooks {
    /// Builds the attached hooks and runs the fleet controller's initial
    /// apportioning at `t = 0`, before any event, so a finite budget is in
    /// force from the very first request.
    fn new<P: DvfsPolicy>(
        migrator: Option<Box<dyn Migrator>>,
        fleet: Option<Box<dyn FleetController>>,
        tele: &Telemetry,
        power: CorePowerModel,
        state: &mut EventLoop<P>,
    ) -> Self {
        let n = state.len();
        let migration = migrator.map(|migrator| MigrationHook {
            period: migrator.interval(),
            next: migrator.interval(),
            migrator,
            moves: Vec::new(),
            batch: Vec::new(),
            migrated: 0,
        });
        let mut epoch = fleet.map(|ctl| EpochHook {
            period: ctl.epoch(),
            next: ctl.epoch(),
            ctl,
            meter: EpochMeter::new(n),
            powers: Vec::with_capacity(n),
            commands: Vec::new(),
            // The original per-policy latency objectives: `ScaleBound`
            // commands rescale relative to these, never compounding.
            base_bounds: state
                .servers
                .iter()
                .map(|s| s.policy().latency_bound())
                .collect(),
        });
        if let Some(e) = epoch.as_mut() {
            e.run(0.0, 0.0, &power, state);
        }
        // Disabled telemetry has no sampler and allocates nothing. Enabled
        // sampling only *partitions* the drains at sample instants (events
        // are still processed in the same order), so even a recording run
        // leaves the simulation bit-exact.
        let sampler = tele.is_enabled().then(|| {
            let period = tele.sample_epoch().unwrap_or(f64::INFINITY);
            Sampler {
                meter: EpochMeter::new(n),
                powers: Vec::new(),
                period,
                next: period,
            }
        });
        Self {
            power,
            migration,
            epoch,
            sampler,
        }
    }

    /// The next boundary instant, and the fault layer's own next boundary
    /// (read here, *before* the drain up to the boundary, which is what
    /// decides whether [`Hooks::fire`] runs fault work).
    fn next_boundary(&self, layer: Option<&FaultLayer>) -> (f64, f64) {
        let fault = layer.map_or(f64::INFINITY, FaultLayer::next_boundary);
        let boundary = self
            .migration
            .as_ref()
            .map_or(f64::INFINITY, |m| m.next)
            .min(self.epoch.as_ref().map_or(f64::INFINITY, |e| e.next))
            .min(fault)
            .min(self.sampler.as_ref().map_or(f64::INFINITY, |s| s.next));
        (boundary, fault)
    }

    /// Runs every hook due at `boundary`, after the fleet was drained up to
    /// (not including) it.
    ///
    /// # Hook ordering
    ///
    /// At a boundary time `t`, every fleet event strictly before `t` has
    /// been processed. Fault work — scripted ops, retry deliveries, hedge
    /// launches, attempt timeouts — runs first, so migration and capping
    /// observe the post-fault fleet. The migrator (if both fire at `t`)
    /// rebalances next, and the fleet controller then observes the
    /// post-rebalance queues. Telemetry sampling runs *last* at equal
    /// instants, observing the post-hook fleet. Boundaries keep firing
    /// through the post-arrival drain so a trailing backlog is still
    /// rebalanced and capped.
    fn fire<P: DvfsPolicy>(
        &mut self,
        boundary: f64,
        fault: f64,
        mut layer: Option<&mut FaultLayer>,
        tele: &mut Telemetry,
        router: &mut dyn Router,
        state: &mut EventLoop<P>,
    ) {
        if fault <= boundary {
            let l = layer.as_deref_mut().expect("fault boundary implies layer");
            run_faults(l, tele, boundary, router, state);
        }
        if let Some(m) = self.migration.as_mut().filter(|m| m.next == boundary) {
            m.run(tele, boundary, state);
            m.next += m.period;
        }
        if let Some(e) = self.epoch.as_mut().filter(|e| e.next == boundary) {
            e.run(boundary, e.period, &self.power, state);
            e.next += e.period;
        }
        if let Some(s) = self.sampler.as_mut().filter(|s| s.next == boundary) {
            s.sample(tele, boundary, state, layer.as_deref(), &self.power);
            s.next += s.period;
        }
    }
}

/// The queue rebalancer on its clock, with its reused scratch.
struct MigrationHook {
    migrator: Box<dyn Migrator>,
    period: f64,
    next: f64,
    moves: Vec<Migration>,
    batch: Vec<RequestSpec>,
    migrated: usize,
}

impl MigrationHook {
    /// Runs one migration boundary: plan against the live views, then move
    /// each planned batch donor-tail → receiver, preserving arrival order
    /// within the batch.
    fn run<P: DvfsPolicy>(&mut self, tele: &mut Telemetry, now: f64, state: &mut EventLoop<P>) {
        self.moves.clear();
        self.migrator.plan(now, &state.views, &mut self.moves);
        for k in 0..self.moves.len() {
            let m = self.moves[k];
            assert!(
                m.from < state.len() && m.to < state.len() && m.from != m.to,
                "migrator {} planned an invalid move {m:?}",
                self.migrator.name()
            );
            self.batch.clear();
            for _ in 0..m.count {
                match state.servers[m.from].steal_queued() {
                    Some(spec) => self.batch.push(spec),
                    None => break, // queue shorter than planned: move less
                }
            }
            if self.batch.is_empty() {
                continue;
            }
            self.migrated += self.batch.len();
            // Stealing pops the donor's FIFO tail back-to-front; injecting
            // in reverse restores arrival order on the receiver. Injection
            // happens at the boundary instant, advancing the receiver's
            // clock to `now` first.
            for spec in self.batch.drain(..).rev() {
                state.servers[m.to].inject(now, spec);
                tele.request_event(
                    spec.id,
                    RequestEvent {
                        at: now,
                        kind: RequestEventKind::Migrated {
                            from: m.from as u32,
                            to: m.to as u32,
                        },
                    },
                );
            }
            state.schedule(m.from);
            state.schedule(m.to);
        }
    }
}

/// The fleet-level power manager on its epoch clock, with its own power
/// meter and reused scratch.
struct EpochHook {
    ctl: Box<dyn FleetController>,
    period: f64,
    next: f64,
    meter: EpochMeter,
    powers: Vec<f64>,
    commands: Vec<FleetCommand>,
    base_bounds: Vec<Option<f64>>,
}

impl EpochHook {
    /// Runs one fleet-controller epoch: measure per-server power over the
    /// closing window, let the controller command, and apply the commands.
    fn run<P: DvfsPolicy>(
        &mut self,
        now: f64,
        elapsed: f64,
        power: &CorePowerModel,
        state: &mut EventLoop<P>,
    ) {
        if elapsed > 0.0 {
            self.meter
                .measure(&state.servers, power, now, &mut self.powers);
        } else {
            self.powers.clear();
            self.powers.resize(state.len(), 0.0);
        }
        let power_views: Vec<ServerPowerView<'_>> = state
            .views
            .iter()
            .zip(&state.servers)
            .zip(&self.powers)
            .map(|((&view, server), &measured_power)| ServerPowerView {
                view,
                dvfs: &server.config().dvfs,
                measured_power,
            })
            .collect();
        self.commands.clear();
        self.ctl
            .on_epoch(now, elapsed, &power_views, &mut self.commands);
        drop(power_views);
        for k in 0..self.commands.len() {
            match self.commands[k] {
                FleetCommand::SetCeiling { server, ceiling } => {
                    assert!(server < state.len(), "ceiling for unknown server");
                    state.servers[server].retarget(ceiling);
                    // A retarget can start a V/F transition, changing the
                    // server's next event time.
                    state.schedule(server);
                }
                FleetCommand::ScaleBound { server, scale } => {
                    assert!(server < state.len(), "bound scale for unknown server");
                    assert!(
                        scale > 0.0 && scale.is_finite(),
                        "bound scale must be positive and finite"
                    );
                    if let Some(base) = self.base_bounds[server] {
                        state.servers[server]
                            .policy_mut()
                            .set_latency_bound(base * scale);
                    }
                }
            }
        }
    }
}

/// The telemetry fleet sampler on its clock, with a dedicated power meter
/// independent of the fleet controller's.
struct Sampler {
    meter: EpochMeter,
    powers: Vec<f64>,
    period: f64,
    next: f64,
}

impl Sampler {
    /// Takes one telemetry sample window ending at `now`: per-server mean
    /// power over the window, queue/in-flight/DVFS snapshots from the live
    /// router views, and cumulative retry/timeout counters from the fault
    /// layer.
    fn sample<P: DvfsPolicy>(
        &mut self,
        tele: &mut Telemetry,
        now: f64,
        state: &EventLoop<P>,
        layer: Option<&FaultLayer>,
        power: &CorePowerModel,
    ) {
        let start = self.meter.last_time();
        self.meter
            .measure(&state.servers, power, now, &mut self.powers);
        let per_server: Vec<ServerSample> = state
            .views
            .iter()
            .zip(&self.powers)
            .map(|(view, &watts)| ServerSample {
                queued: view.queued as u32,
                in_flight: view.in_flight as u32,
                freq_mhz: view.current_freq.mhz(),
                power: watts,
                down: view.health == ServerHealth::Down,
            })
            .collect();
        let (retries, timeouts) = layer.map_or((0, 0), |l| {
            (l.stats().retries as u64, l.stats().timeouts as u64)
        });
        tele.epoch_sample(EpochSample {
            start,
            end: now,
            power: self.powers.iter().sum(),
            queued: per_server.iter().map(|s| s.queued).sum(),
            in_flight: per_server.iter().map(|s| s.in_flight).sum(),
            completions: 0, // filled at finalize by bucketing records
            retries,
            timeouts,
            per_server,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{JoinShortestQueue, Passthrough, RoundRobin};
    use rubik_sim::{FixedFrequencyPolicy, RequestSpec};

    fn config() -> SimConfig {
        SimConfig::paper_simulated()
    }

    fn fixed(config: &SimConfig) -> impl FnMut(usize) -> FixedFrequencyPolicy + '_ {
        move |_| FixedFrequencyPolicy::new(config.dvfs.nominal())
    }

    fn burst(n: usize, gap: f64) -> Trace {
        (0..n as u64)
            .map(|i| RequestSpec::new(i, i as f64 * gap, 1.2e6, 0.0))
            .collect()
    }

    #[test]
    fn all_requests_complete_across_the_fleet() {
        let cfg = config();
        let cluster = Cluster::new(cfg.clone(), 4, Box::new(RoundRobin::new()), fixed(&cfg));
        let outcome = cluster.run(&burst(200, 1e-4));
        assert_eq!(outcome.requests, 200);
        assert_eq!(outcome.servers(), 4);
        // Round-robin spreads a uniform stream evenly.
        for s in &outcome.per_server {
            assert_eq!(s.requests, 50);
        }
        assert!(outcome.tail_latency > 0.0);
        assert!(outcome.fleet_energy > 0.0);
    }

    #[test]
    fn jsq_beats_round_robin_on_tail_under_bursts() {
        // Requests arrive in simultaneous pairs; with 2 servers, round-robin
        // sends each pair to both servers (fine), but a skewed stream shows
        // the difference. Use simultaneous triples on 2 servers: JSQ never
        // stacks 3 on one server, round-robin does every other round.
        let cfg = config();
        let trace: Trace = (0..60u64)
            .map(|i| RequestSpec::new(i, (i / 3) as f64 * 2e-3, 2.4e6, 0.0))
            .collect();
        let rr = Cluster::new(cfg.clone(), 2, Box::new(RoundRobin::new()), fixed(&cfg));
        let jsq = Cluster::new(
            cfg.clone(),
            2,
            Box::new(JoinShortestQueue::new()),
            fixed(&cfg),
        );
        let rr_out = rr.run(&trace);
        let jsq_out = jsq.run(&trace);
        assert_eq!(rr_out.requests, 60);
        assert_eq!(jsq_out.requests, 60);
        assert!(
            jsq_out.tail_latency <= rr_out.tail_latency + 1e-12,
            "JSQ tail {} vs RR tail {}",
            jsq_out.tail_latency,
            rr_out.tail_latency
        );
    }

    #[test]
    fn empty_trace_produces_empty_outcome() {
        let cfg = config();
        let cluster = Cluster::new(cfg.clone(), 3, Box::new(Passthrough), fixed(&cfg));
        let (outcome, results) = cluster.run_with_results(&Trace::default());
        assert_eq!(outcome.requests, 0);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.records().is_empty());
        }
    }

    #[test]
    fn run_is_deterministic_for_a_fixed_input() {
        let cfg = config();
        let trace = burst(120, 3e-4);
        let run =
            |router: Box<dyn Router>| Cluster::new(cfg.clone(), 3, router, fixed(&cfg)).run(&trace);
        let a = run(Box::new(JoinShortestQueue::new()));
        let b = run(Box::new(JoinShortestQueue::new()));
        assert_eq!(a, b);
    }

    #[test]
    fn boxed_policies_allow_heterogeneous_fleets() {
        let cfg = config();
        let slow = cfg.dvfs.min();
        let fast = cfg.dvfs.nominal();
        let cluster = Cluster::new(
            cfg.clone(),
            2,
            Box::new(RoundRobin::new()),
            |i| -> Box<dyn DvfsPolicy> {
                Box::new(FixedFrequencyPolicy::new(if i == 0 { slow } else { fast }))
            },
        );
        let outcome = cluster.run(&burst(40, 2e-3));
        // The slow server burns less power but is slower per request.
        assert!(outcome.per_server[0].tail_latency > outcome.per_server[1].tail_latency);
        assert!(outcome.per_server[0].busy_time > outcome.per_server[1].busy_time);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_server_cluster_panics() {
        let cfg = config();
        let _ = Cluster::new(cfg.clone(), 0, Box::new(Passthrough), fixed(&cfg));
    }
}
