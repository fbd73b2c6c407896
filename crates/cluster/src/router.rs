//! Request routing: the load-balancer policies of a simulated fleet.
//!
//! A [`Router`] picks the destination server for each arriving request. It
//! sees one [`ServerView`] per server — a cheap summary of the server's
//! current state (occupancy and DVFS operating point). The
//! [`Cluster`](crate::Cluster) driver keeps the views current: a server's
//! view is rewritten whenever the server is stepped or handed work, so at
//! every routing decision each view reflects everything that server has
//! processed so far. Routers may keep internal state (e.g. the round-robin
//! cursor) but must be deterministic: the same request/view sequence must
//! produce the same choices, or cluster runs stop being reproducible.
//!
//! # Keyed routers
//!
//! A router whose choice is "the best server by some per-server score" can
//! say so through [`Router::route_key`]. The contract:
//!
//! * **Pure.** The key is a function of the view and the router's
//!   immutable configuration only. It must not read `view.index` (ties are
//!   broken by index outside the key) and must not depend on other servers'
//!   views or on earlier calls.
//! * **All or none.** A router returns `Some` for every view or `None` for
//!   every view.
//! * **Minimum equals `route`.** For any view slice, [`Router::route`]
//!   returns the index of the view with the smallest `(key, index)` pair.
//!
//! The driver then skips `route` entirely: it keeps a
//! [`RouteIndex`](crate::RouteIndex) over the fleet, re-keys only the
//! servers whose views changed since the last decision, and reads the
//! minimum off the index — O(changed · log n) per arrival instead of O(n).
//! The driver decides once per run, from the first server's key, which
//! path it takes. [`JoinShortestQueue`], [`PowerAware`], and
//! [`HealthAware`] over either of them are keyed; [`RoundRobin`] and
//! [`Passthrough`] are not, and keep the scanning `route` call.
//!
//! Wrappers must forward `route_key` to stay on the indexed path. A
//! wrapper that implements only `name` and `route` (e.g. a timing probe)
//! inherits the default `None` and silently gets the scan: correct, the
//! same choices bit for bit, just O(n) per arrival again.

use rubik_power::CorePowerModel;
use rubik_sim::{Freq, RequestSpec};

/// Health of a server as tracked by the fault layer (see
/// [`crate::FaultPlan`]). Without a fault plan every server is
/// permanently [`Up`](ServerHealth::Up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerHealth {
    /// Serving normally.
    #[default]
    Up,
    /// Alive but degraded (straggling): it still completes work, slowly.
    Straggling,
    /// Crashed: serves nothing until a `Recover` event.
    Down,
}

impl ServerHealth {
    /// Whether a health-aware router should send *new* work here. Only
    /// fully healthy servers are routable; stragglers keep serving what
    /// they already hold but stop receiving more.
    pub fn routable(self) -> bool {
        matches!(self, ServerHealth::Up)
    }
}

/// A per-server summary handed to [`Router::route`] (and to the fleet
/// controller and migrator hooks).
///
/// `in_flight` counts every request committed to the server — queued, in
/// service, and offered-but-not-yet-admitted — which is what a load balancer
/// observes: a request routed a microsecond ago occupies a slot even if the
/// server has not processed its arrival event yet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerView {
    /// Index of the server in the cluster.
    pub index: usize,
    /// Requests committed to the server (offered + queued + in service).
    pub in_flight: usize,
    /// Requests admitted into the server (queued + in service).
    pub admitted: usize,
    /// Requests waiting in the FIFO queue (admitted minus in service) — the
    /// depth a [`Migrator`](crate::Migrator) can steal from.
    pub queued: usize,
    /// Frequency currently in effect on the server's core.
    pub current_freq: Freq,
    /// Frequency the server's policy most recently requested.
    pub target_freq: Freq,
    /// Whether the core is serving or has queued work.
    pub busy: bool,
    /// Capacity weight of the server's core class (1.0 for every server of a
    /// homogeneous fleet; see [`FleetSpec`](crate::FleetSpec)). Zero means
    /// "route nothing here".
    pub capacity: f64,
    /// Core-class index of the server within its
    /// [`FleetSpec`](crate::FleetSpec) (0 for homogeneous fleets).
    pub class: u32,
    /// Health as tracked by the fault layer ([`ServerHealth::Up`] when no
    /// fault plan is attached). Plain routers ignore it; wrap them in
    /// [`HealthAware`] to eject unhealthy servers from the candidate set.
    pub health: ServerHealth,
}

impl ServerView {
    /// Occupancy normalized by the server's capacity weight: the load metric
    /// capacity-aware policies compare. Zero-capacity servers report
    /// infinite load, so they lose every comparison against a server that
    /// can actually serve.
    pub fn effective_load(&self) -> f64 {
        if self.capacity > 0.0 {
            self.in_flight as f64 / self.capacity
        } else {
            f64::INFINITY
        }
    }
}

/// An ordered per-server routing score (see [`Router::route_key`]):
/// smaller is better, compared lexicographically.
///
/// Build one from integers with [`RouteKey::new`] or from floats with
/// [`RouteKey::from_f64`], which maps each `f64` to order-preserving bits so
/// keys sort exactly as [`f64::total_cmp`] does. Wrappers such as
/// [`HealthAware`] prepend a demotion flag with [`RouteKey::prefixed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RouteKey {
    /// Flags prepended by wrappers, most recent in the top bit. After 32
    /// nested prefixes the innermost ones shift out.
    flags: u32,
    primary: u64,
    secondary: u64,
}

impl RouteKey {
    /// A key ordered by `primary`, then `secondary`.
    pub const fn new(primary: u64, secondary: u64) -> Self {
        Self {
            flags: 0,
            primary,
            secondary,
        }
    }

    /// A key ordered by `primary`, then `secondary`, each under
    /// [`f64::total_cmp`].
    pub fn from_f64(primary: f64, secondary: f64) -> Self {
        Self::new(ordered_bits(primary), ordered_bits(secondary))
    }

    /// This key with `flag` prepended as its most significant component:
    /// every key prefixed with `true` sorts after every key prefixed with
    /// `false`.
    pub const fn prefixed(self, flag: bool) -> Self {
        Self {
            flags: (self.flags >> 1) | ((flag as u32) << 31),
            ..self
        }
    }
}

/// Maps an `f64` to a `u64` whose unsigned order is [`f64::total_cmp`]'s
/// order: negative values have every bit flipped, non-negative values get
/// the sign bit set.
fn ordered_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// A load-balancing policy for a [`Cluster`](crate::Cluster).
///
/// Only [`name`](Router::name) and [`route`](Router::route) are required.
/// A router that picks the best server by a per-server score should also
/// implement [`route_key`](Router::route_key), which lets the driver route
/// from an incrementally maintained index instead of calling `route` with
/// the whole fleet.
pub trait Router {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &str;

    /// Chooses the destination server (an index into `servers`) for
    /// `request`. `servers` holds one view per server, in index order, and
    /// is never empty.
    fn route(&mut self, request: &RequestSpec, servers: &[ServerView]) -> usize;

    /// The server's routing key, if this router is keyed.
    ///
    /// A keyed router promises that `route` returns the view with the
    /// smallest `(route_key(view), view.index)`, that the key depends only
    /// on the view (never on `view.index`) and the router's immutable
    /// configuration, and that it returns `Some` for every view or `None`
    /// for every view. The driver then never calls `route`: it reads the
    /// minimum from a [`RouteIndex`](crate::RouteIndex) that re-keys only
    /// changed servers.
    ///
    /// The default, `None`, keeps the driver calling `route` with every
    /// view. A wrapper router that does not forward this method therefore
    /// silently takes that scanning path — the same choices, at O(fleet)
    /// per decision.
    fn route_key(&self, view: &ServerView) -> Option<RouteKey> {
        let _ = view;
        None
    }
}

/// Sends every request to server 0 — the identity router.
///
/// With a single server this makes a cluster an exact proxy for the
/// standalone simulator: the equivalence suite pins that a 1-server cluster
/// behind `Passthrough` reproduces [`rubik_sim::Server::run`] bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Passthrough;

impl Router for Passthrough {
    fn name(&self) -> &str {
        "passthrough"
    }

    fn route(&mut self, _request: &RequestSpec, _servers: &[ServerView]) -> usize {
        0
    }
}

/// Cycles through the servers in index order, ignoring their state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A round-robin router starting at server 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Router for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn route(&mut self, _request: &RequestSpec, servers: &[ServerView]) -> usize {
        let choice = self.next % servers.len();
        self.next = (self.next + 1) % servers.len();
        choice
    }
}

/// Joins the server with the fewest in-flight requests (ties broken by the
/// lowest index) — the classic JSQ policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinShortestQueue;

impl JoinShortestQueue {
    /// A JSQ router.
    pub fn new() -> Self {
        Self
    }

    fn key(view: &ServerView) -> RouteKey {
        RouteKey::new(view.in_flight as u64, 0)
    }
}

impl Router for JoinShortestQueue {
    fn name(&self) -> &str {
        "join-shortest-queue"
    }

    fn route(&mut self, _request: &RequestSpec, servers: &[ServerView]) -> usize {
        // `servers` is non-empty (Cluster construction validates the fleet);
        // fall back to 0 rather than panicking if a caller hands us less.
        servers
            .iter()
            .min_by_key(|v| (Self::key(v), v.index))
            .map_or(0, |v| v.index)
    }

    fn route_key(&self, view: &ServerView) -> Option<RouteKey> {
        Some(Self::key(view))
    }
}

/// Capacity- and queue-aware routing with a power tie-break: among the
/// servers with the lowest capacity-normalized occupancy
/// ([`ServerView::effective_load`]), picks the one whose core currently
/// burns the least active power.
///
/// Per-server DVFS controllers (Rubik) leave each core at a different
/// operating point — a lightly loaded server that just finished a burst may
/// still sit at a high frequency while an equally idle neighbour coasts at
/// the minimum level. JSQ is blind to that difference; `PowerAware` routes
/// the marginal request to the cheaper core, nudging the fleet toward its
/// low-power operating points without sacrificing queue balance.
///
/// In a heterogeneous [`FleetSpec`](crate::FleetSpec) fleet the capacity
/// weighting makes the router send proportionally more work to "big" cores
/// (a big server at 2 in flight with capacity 2.0 looks as loaded as a
/// little server at 1 with capacity 1.0), and a zero-capacity class is
/// never routed to while any positive-capacity server exists. For a
/// homogeneous fleet every capacity is 1.0 and the policy degenerates to
/// exactly the JSQ-plus-power-tie-break it was before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAware {
    power: CorePowerModel,
}

impl PowerAware {
    /// A power-aware router scoring servers with the given core power model.
    pub fn new(power: CorePowerModel) -> Self {
        Self { power }
    }

    /// Capacity-normalized occupancy, then the core's active power at its
    /// current frequency.
    fn key(&self, view: &ServerView) -> RouteKey {
        RouteKey::from_f64(
            view.effective_load(),
            self.power.active_power(view.current_freq),
        )
    }
}

impl Default for PowerAware {
    fn default() -> Self {
        Self::new(CorePowerModel::haswell_like())
    }
}

impl Router for PowerAware {
    fn name(&self) -> &str {
        "power-aware"
    }

    fn route(&mut self, _request: &RequestSpec, servers: &[ServerView]) -> usize {
        servers
            .iter()
            .min_by_key(|v| (self.key(v), v.index))
            .map_or(0, |v| v.index)
    }

    fn route_key(&self, view: &ServerView) -> Option<RouteKey> {
        Some(self.key(view))
    }
}

/// Wraps any [`Router`] with health-based candidate filtering: down and
/// straggling servers are ejected from the view slice the inner router
/// sees, and readmitted the moment the fault layer marks them
/// [`Up`](ServerHealth::Up) again.
///
/// If **no** server is routable (the whole fleet is down or straggling),
/// the wrapper degrades to the inner router over the full set — routing
/// somewhere beats dropping the request on the floor, and timeouts/retries
/// will rescue it if the destination never recovers.
///
/// The inner router sees re-indexed views (`index` runs over the healthy
/// subset) so index-arithmetic policies like [`RoundRobin`] cycle over the
/// healthy servers only; the wrapper maps the choice back to the true
/// server index. On an all-healthy fleet the filtered slice equals the
/// full slice, and the wrapper is behaviourally identical to the inner
/// router (pinned in `tests/fault_properties.rs`).
///
/// Over a keyed inner router the wrapper is keyed too: it prepends an
/// "unroutable" flag to the inner key, so the minimum lands on the inner
/// router's choice among healthy servers when one exists and on its choice
/// over the whole fleet when none does — the same fallback as `route`.
#[derive(Debug)]
pub struct HealthAware<R> {
    inner: R,
    name: String,
    /// Re-indexed healthy views handed to the inner router.
    scratch: Vec<ServerView>,
    /// Maps positions in `scratch` back to true server indices.
    map: Vec<usize>,
}

impl<R: Router> HealthAware<R> {
    /// Wraps `inner` with health filtering.
    pub fn new(inner: R) -> Self {
        let name = format!("health-aware({})", inner.name());
        Self {
            inner,
            name,
            scratch: Vec::new(),
            map: Vec::new(),
        }
    }

    /// The wrapped router.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: Router> Router for HealthAware<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn route(&mut self, request: &RequestSpec, servers: &[ServerView]) -> usize {
        self.scratch.clear();
        self.map.clear();
        for view in servers {
            if view.health.routable() {
                let mut v = *view;
                v.index = self.scratch.len();
                self.scratch.push(v);
                self.map.push(view.index);
            }
        }
        if self.scratch.is_empty() {
            // Nothing healthy: degrade to failure-blind routing.
            return self.inner.route(request, servers);
        }
        let choice = self.inner.route(request, &self.scratch);
        self.map[choice.min(self.map.len() - 1)]
    }

    fn route_key(&self, view: &ServerView) -> Option<RouteKey> {
        self.inner
            .route_key(view)
            .map(|key| key.prefixed(!view.health.routable()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(index: usize, in_flight: usize, mhz: u32) -> ServerView {
        view_with_capacity(index, in_flight, mhz, 1.0)
    }

    fn view_with_capacity(index: usize, in_flight: usize, mhz: u32, capacity: f64) -> ServerView {
        ServerView {
            index,
            in_flight,
            admitted: in_flight,
            queued: in_flight.saturating_sub(1),
            current_freq: Freq::from_mhz(mhz),
            target_freq: Freq::from_mhz(mhz),
            busy: in_flight > 0,
            capacity,
            class: 0,
            health: ServerHealth::Up,
        }
    }

    fn req() -> RequestSpec {
        RequestSpec::new(0, 0.0, 1e6, 0.0)
    }

    #[test]
    fn passthrough_always_picks_server_zero() {
        let mut r = Passthrough;
        let views = [view(0, 9, 2400), view(1, 0, 800)];
        assert_eq!(r.route(&req(), &views), 0);
        assert_eq!(r.route(&req(), &views), 0);
    }

    #[test]
    fn round_robin_cycles_in_index_order() {
        let mut r = RoundRobin::new();
        let views = [view(0, 0, 2400), view(1, 0, 2400), view(2, 0, 2400)];
        let picks: Vec<usize> = (0..7).map(|_| r.route(&req(), &views)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn jsq_picks_fewest_in_flight_lowest_index() {
        let mut r = JoinShortestQueue::new();
        let views = [view(0, 3, 2400), view(1, 1, 2400), view(2, 1, 800)];
        assert_eq!(r.route(&req(), &views), 1, "tie broken by lowest index");
        let views = [view(0, 0, 2400), view(1, 1, 800)];
        assert_eq!(r.route(&req(), &views), 0);
    }

    #[test]
    fn power_aware_breaks_queue_ties_by_cheaper_core() {
        let mut r = PowerAware::default();
        // Equal occupancy: the 800 MHz core burns less than the 3.4 GHz one.
        let views = [view(0, 1, 3400), view(1, 1, 800)];
        assert_eq!(r.route(&req(), &views), 1);
        // Queue balance still dominates.
        let views = [view(0, 0, 3400), view(1, 1, 800)];
        assert_eq!(r.route(&req(), &views), 0);
    }

    #[test]
    fn power_aware_weights_occupancy_by_capacity() {
        let mut r = PowerAware::default();
        // A big core (capacity 2) at 2 in flight ties a little core
        // (capacity 1) at 1 in flight; the cheaper little core wins the tie.
        let views = [
            view_with_capacity(0, 2, 2400, 2.0),
            view_with_capacity(1, 1, 800, 1.0),
        ];
        assert_eq!(r.route(&req(), &views), 1);
        // At 3-vs-1 the big core's normalized load (1.5) loses to 1.0.
        let views = [
            view_with_capacity(0, 3, 800, 2.0),
            view_with_capacity(1, 1, 3400, 1.0),
        ];
        assert_eq!(r.route(&req(), &views), 1);
    }

    #[test]
    fn power_aware_never_routes_to_zero_capacity_servers() {
        let mut r = PowerAware::default();
        // The idle zero-capacity server reports infinite load, so the busy
        // full-capacity one still wins.
        let views = [
            view_with_capacity(0, 0, 800, 0.0),
            view_with_capacity(1, 7, 3400, 1.0),
        ];
        assert_eq!(r.route(&req(), &views), 1);
        assert!(views[0].effective_load().is_infinite());
    }

    #[test]
    fn health_aware_ejects_down_and_straggling_servers() {
        let mut r = HealthAware::new(JoinShortestQueue::new());
        let mut views = [view(0, 0, 2400), view(1, 3, 2400), view(2, 5, 2400)];
        views[0].health = ServerHealth::Down;
        // JSQ would pick 0 (fewest in flight); health filtering picks 1.
        assert_eq!(r.route(&req(), &views), 1);
        views[1].health = ServerHealth::Straggling;
        assert_eq!(r.route(&req(), &views), 2, "stragglers get no new work");
        // Recovery readmits immediately.
        views[0].health = ServerHealth::Up;
        assert_eq!(r.route(&req(), &views), 0);
    }

    #[test]
    fn health_aware_round_robin_cycles_over_the_healthy_subset() {
        let mut r = HealthAware::new(RoundRobin::new());
        let mut views = [view(0, 0, 2400), view(1, 0, 2400), view(2, 0, 2400)];
        views[1].health = ServerHealth::Down;
        let picks: Vec<usize> = (0..4).map(|_| r.route(&req(), &views)).collect();
        assert_eq!(picks, vec![0, 2, 0, 2], "cursor runs over healthy servers");
    }

    #[test]
    fn health_aware_with_nothing_healthy_degrades_to_the_inner_router() {
        let mut r = HealthAware::new(JoinShortestQueue::new());
        let mut views = [view(0, 4, 2400), view(1, 2, 2400)];
        views[0].health = ServerHealth::Down;
        views[1].health = ServerHealth::Down;
        // Better to route somewhere (and let timeouts rescue it) than drop.
        assert_eq!(r.route(&req(), &views), 1);
    }

    #[test]
    fn health_aware_matches_inner_router_on_a_healthy_fleet() {
        let views = [view(0, 3, 2400), view(1, 1, 800), view(2, 1, 3400)];
        let mut plain = PowerAware::default();
        let mut wrapped = HealthAware::new(PowerAware::default());
        for _ in 0..5 {
            assert_eq!(plain.route(&req(), &views), wrapped.route(&req(), &views));
        }
        assert_eq!(wrapped.name(), "health-aware(power-aware)");
    }

    #[test]
    fn routers_fall_back_to_server_zero_on_an_empty_view_slice() {
        // Cluster construction rejects empty fleets (ClusterError), so this
        // is unreachable from the driver; the routers still must not panic.
        assert_eq!(JoinShortestQueue::new().route(&req(), &[]), 0);
        assert_eq!(PowerAware::default().route(&req(), &[]), 0);
    }
}
