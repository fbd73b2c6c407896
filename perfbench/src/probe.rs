//! Per-layer timing from outside the engine.
//!
//! The engine calls into five public traits — [`Router`], [`DvfsPolicy`],
//! [`FleetController`], [`Migrator`] and [`ArrivalSource`]. A traced run
//! wraps each of them in a forwarding type that times the call and records
//! a [`Span`] into a shared [`Probe`]. An untraced run uses the bare types
//! (see [`Bare`]), so the end-to-end numbers carry no wrapper cost; the
//! outcome digest proves the wrappers change nothing simulated.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use rubik::cluster::{FleetCommand, Migration, ServerPowerView, ServerView};
use rubik::sim::{PolicyDecision, ServerState};
use rubik::{
    ArrivalSource, DvfsPolicy, FleetController, Freq, Migrator, RequestRecord, RequestSpec, Router,
    RubikController,
};

/// The layers a traced run times, named after the crate and module that
/// implement them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Building a workload's inputs and engine (the parent of seed spans).
    Setup,
    /// The timed region of one repetition (the parent of engine spans).
    Run,
    /// `Router::route`.
    Router,
    /// `RubikController::seeded_for_trace`.
    Seed,
    /// `DvfsPolicy::on_arrival` and `on_completion`.
    Decide,
    /// `DvfsPolicy::on_tick` (Rubik's periodic table rebuild).
    Rebuild,
    /// `FleetController::on_epoch`.
    Fleet,
    /// `Migrator::plan`.
    Migrate,
    /// `ArrivalSource::next_arrival`.
    Load,
    /// `rubik_telemetry::to_json`.
    Export,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 10] = [
        Layer::Setup,
        Layer::Run,
        Layer::Router,
        Layer::Seed,
        Layer::Decide,
        Layer::Rebuild,
        Layer::Fleet,
        Layer::Migrate,
        Layer::Load,
        Layer::Export,
    ];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Run => "run",
            Layer::Router => "cluster.router",
            Layer::Seed => "core.seed",
            Layer::Decide => "core.decide",
            Layer::Rebuild => "core.rebuild",
            Layer::Fleet => "cluster.fleet",
            Layer::Migrate => "cluster.migrate",
            Layer::Load => "load",
            Layer::Export => "telemetry.export",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Whether the engine calls this layer from inside the run, so its busy
    /// time is subtracted from the run to give dispatch time.
    pub fn inside_run(self) -> bool {
        !matches!(self, Layer::Setup | Layer::Run | Layer::Seed)
    }
}

/// One timed call: which layer, when, under which parent span, and for
/// which request where the call carries one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Start, in nanoseconds since the probe was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the probe was created.
    pub end_ns: u64,
    /// Index of the enclosing setup or run span, if any.
    pub parent: Option<u32>,
    /// The request the call is about, if it names one.
    pub request: Option<u64>,
}

/// Shared counters and the in-memory span log of one traced process.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    calls: [Cell<u64>; 10],
    busy_ns: [Cell<u64>; 10],
    rebuilds_performed: Cell<u64>,
    rebuilds_skipped: Cell<u64>,
    parent: Cell<Option<u32>>,
    spans: RefCell<Vec<Span>>,
}

impl Default for Probe {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            calls: Default::default(),
            busy_ns: Default::default(),
            rebuilds_performed: Cell::new(0),
            rebuilds_skipped: Cell::new(0),
            parent: Cell::new(None),
            spans: RefCell::new(Vec::new()),
        }
    }
}

impl Probe {
    /// A fresh probe, shared by every wrapper of one repetition.
    pub fn new() -> Rc<Self> {
        Rc::new(Self::default())
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as one call of `layer`.
    pub fn time<T>(&self, layer: Layer, request: Option<u64>, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        self.record(layer, start_ns, request);
        out
    }

    /// Times `f` as a top-level span (setup or run); spans recorded inside
    /// it take it as their parent.
    pub fn scope<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let index = self.spans.borrow().len() as u32;
        let start_ns = self.now_ns();
        self.spans.borrow_mut().push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent: None,
            request: None,
        });
        let outer = self.parent.replace(Some(index));
        let out = f();
        self.parent.set(outer);
        let end_ns = self.now_ns();
        self.spans.borrow_mut()[index as usize].end_ns = end_ns;
        self.add(layer, end_ns - start_ns);
        out
    }

    fn record(&self, layer: Layer, start_ns: u64, request: Option<u64>) {
        let end_ns = self.now_ns();
        self.add(layer, end_ns - start_ns);
        self.spans.borrow_mut().push(Span {
            layer,
            start_ns,
            end_ns,
            parent: self.parent.get(),
            request,
        });
    }

    fn add(&self, layer: Layer, ns: u64) {
        let i = layer.index();
        self.calls[i].set(self.calls[i].get() + 1);
        self.busy_ns[i].set(self.busy_ns[i].get() + ns);
    }

    /// Calls made to `layer` so far.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()].get()
    }

    /// Seconds spent inside `layer` so far.
    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.busy_ns[layer.index()].get() as f64 * 1e-9
    }

    /// Rubik table rebuilds performed and skipped inside timed ticks.
    pub fn rebuilds(&self) -> (u64, u64) {
        (self.rebuilds_performed.get(), self.rebuilds_skipped.get())
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes the span log as CSV: one span per line, its index first.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "span,layer,start_ns,end_ns,parent,request")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let request = s.request.map(|r| r.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{i},{},{},{},{parent},{request}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Rebuild counters a wrapped policy exposes (Rubik's `RubikStats`).
pub trait RebuildCounts {
    /// Table rebuilds `(performed, skipped)` so far.
    fn rebuild_counts(&self) -> (u64, u64);
}

impl RebuildCounts for RubikController {
    fn rebuild_counts(&self) -> (u64, u64) {
        let stats = self.stats();
        (stats.table_rebuilds_performed, stats.table_rebuilds_skipped)
    }
}

/// How a workload builds its engine: [`Bare`] for the end-to-end run,
/// [`Rc<Probe>`](Probe) for the traced run.
pub trait Instrument {
    /// The per-server policy type the cluster runs.
    type Policy<P: DvfsPolicy + RebuildCounts>: DvfsPolicy;
    /// The arrival source type the cluster pulls.
    type Source<S: ArrivalSource>: ArrivalSource;

    /// Wraps a per-server policy.
    fn policy<P: DvfsPolicy + RebuildCounts>(&self, inner: P) -> Self::Policy<P>;
    /// Wraps the arrival source.
    fn source<S: ArrivalSource>(&self, inner: S) -> Self::Source<S>;
    /// Wraps the router.
    fn router(&self, inner: Box<dyn Router>) -> Box<dyn Router>;
    /// Wraps the fleet controller.
    fn fleet(&self, inner: Box<dyn FleetController>) -> Box<dyn FleetController>;
    /// Wraps the migrator.
    fn migrator(&self, inner: Box<dyn Migrator>) -> Box<dyn Migrator>;
    /// Runs a direct call into a layer, timing it when tracing.
    fn call<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T;
    /// Runs a setup or run region, timing it when tracing.
    fn scope<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T;
}

/// No instrumentation: every wrap is the identity.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bare;

impl Instrument for Bare {
    type Policy<P: DvfsPolicy + RebuildCounts> = P;
    type Source<S: ArrivalSource> = S;

    fn policy<P: DvfsPolicy + RebuildCounts>(&self, inner: P) -> P {
        inner
    }
    fn source<S: ArrivalSource>(&self, inner: S) -> S {
        inner
    }
    fn router(&self, inner: Box<dyn Router>) -> Box<dyn Router> {
        inner
    }
    fn fleet(&self, inner: Box<dyn FleetController>) -> Box<dyn FleetController> {
        inner
    }
    fn migrator(&self, inner: Box<dyn Migrator>) -> Box<dyn Migrator> {
        inner
    }
    fn call<T>(&self, _layer: Layer, f: impl FnOnce() -> T) -> T {
        f()
    }
    fn scope<T>(&self, _layer: Layer, f: impl FnOnce() -> T) -> T {
        f()
    }
}

impl Instrument for Rc<Probe> {
    type Policy<P: DvfsPolicy + RebuildCounts> = TimedPolicy<P>;
    type Source<S: ArrivalSource> = TimedSource<S>;

    fn policy<P: DvfsPolicy + RebuildCounts>(&self, inner: P) -> TimedPolicy<P> {
        TimedPolicy::new(inner, self.clone())
    }
    fn source<S: ArrivalSource>(&self, inner: S) -> TimedSource<S> {
        TimedSource {
            inner,
            probe: self.clone(),
        }
    }
    fn router(&self, inner: Box<dyn Router>) -> Box<dyn Router> {
        Box::new(TimedRouter {
            inner,
            probe: self.clone(),
        })
    }
    fn fleet(&self, inner: Box<dyn FleetController>) -> Box<dyn FleetController> {
        Box::new(TimedFleet {
            inner,
            probe: self.clone(),
        })
    }
    fn migrator(&self, inner: Box<dyn Migrator>) -> Box<dyn Migrator> {
        Box::new(TimedMigrator {
            inner,
            probe: self.clone(),
        })
    }
    fn call<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.time(layer, None, f)
    }
    fn scope<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        Probe::scope(self, layer, f)
    }
}

/// A timed [`Router`].
pub struct TimedRouter {
    inner: Box<dyn Router>,
    probe: Rc<Probe>,
}

impl Router for TimedRouter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route(&mut self, request: &RequestSpec, servers: &[ServerView]) -> usize {
        let inner = &mut self.inner;
        self.probe.time(Layer::Router, Some(request.id), || {
            inner.route(request, servers)
        })
    }
}

/// A timed [`DvfsPolicy`] that also tallies the inner policy's table
/// rebuilds on every tick.
pub struct TimedPolicy<P> {
    inner: P,
    probe: Rc<Probe>,
    seen: (u64, u64),
}

impl<P: RebuildCounts> TimedPolicy<P> {
    /// Wraps `inner`; rebuilds it already made (seeding) are not counted.
    pub fn new(inner: P, probe: Rc<Probe>) -> Self {
        let seen = inner.rebuild_counts();
        Self { inner, probe, seen }
    }
}

/// The request a callback is about: the newest arrival, or the completion.
fn arrived(state: &ServerState) -> Option<u64> {
    state
        .queued
        .last()
        .map(|q| q.id)
        .or(state.in_service.map(|s| s.id))
}

impl<P: DvfsPolicy + RebuildCounts> DvfsPolicy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, state: &ServerState) -> PolicyDecision {
        let inner = &mut self.inner;
        self.probe
            .time(Layer::Decide, arrived(state), || inner.on_arrival(state))
    }

    fn on_completion(&mut self, state: &ServerState, record: &RequestRecord) -> PolicyDecision {
        let inner = &mut self.inner;
        self.probe.time(Layer::Decide, Some(record.id), || {
            inner.on_completion(state, record)
        })
    }

    fn on_tick(&mut self, state: &ServerState) -> PolicyDecision {
        let inner = &mut self.inner;
        let decision = self
            .probe
            .time(Layer::Rebuild, None, || inner.on_tick(state));
        let (performed, skipped) = self.inner.rebuild_counts();
        let p = &self.probe;
        p.rebuilds_performed
            .set(p.rebuilds_performed.get() + performed - self.seen.0);
        p.rebuilds_skipped
            .set(p.rebuilds_skipped.get() + skipped - self.seen.1);
        self.seen = (performed, skipped);
        decision
    }

    fn idle_frequency(&self) -> Option<Freq> {
        self.inner.idle_frequency()
    }

    fn latency_bound(&self) -> Option<f64> {
        self.inner.latency_bound()
    }

    fn set_latency_bound(&mut self, bound: f64) -> bool {
        self.inner.set_latency_bound(bound)
    }
}

/// A timed [`FleetController`].
pub struct TimedFleet {
    inner: Box<dyn FleetController>,
    probe: Rc<Probe>,
}

impl FleetController for TimedFleet {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn epoch(&self) -> f64 {
        self.inner.epoch()
    }

    fn on_epoch(
        &mut self,
        now: f64,
        elapsed: f64,
        servers: &[ServerPowerView<'_>],
        commands: &mut Vec<FleetCommand>,
    ) {
        let inner = &mut self.inner;
        self.probe.time(Layer::Fleet, None, || {
            inner.on_epoch(now, elapsed, servers, commands)
        })
    }
}

/// A timed [`Migrator`].
pub struct TimedMigrator {
    inner: Box<dyn Migrator>,
    probe: Rc<Probe>,
}

impl Migrator for TimedMigrator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn interval(&self) -> f64 {
        self.inner.interval()
    }

    fn plan(&mut self, now: f64, servers: &[ServerView], moves: &mut Vec<Migration>) {
        let inner = &mut self.inner;
        self.probe
            .time(Layer::Migrate, None, || inner.plan(now, servers, moves))
    }
}

/// A timed [`ArrivalSource`].
pub struct TimedSource<S> {
    inner: S,
    probe: Rc<Probe>,
}

impl<S: ArrivalSource> ArrivalSource for TimedSource<S> {
    fn next_arrival(&mut self) -> Option<RequestSpec> {
        let start_ns = self.probe.now_ns();
        let next = self.inner.next_arrival();
        self.probe.record(Layer::Load, start_ns, next.map(|r| r.id));
        next
    }

    fn remaining_hint(&self) -> Option<usize> {
        self.inner.remaining_hint()
    }
}
