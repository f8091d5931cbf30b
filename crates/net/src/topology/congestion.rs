//! Live congestion state: one FIFO link per hop, cut-through timing,
//! and the fabric fault domain.
//!
//! [`TopoNet`] realises a [`Topology`]'s static hop table as live
//! [`Link`]s and times multi-hop transfers with **cut-through** (wormhole)
//! semantics: the head of the message advances one hop-latency at a time
//! while the body streams at the running minimum of the hop bandwidths
//! seen so far, so a slow first hop throttles everything downstream and a
//! fast hop after a slow one cannot "re-compress" the stream. Each hop is
//! still a FIFO: two transfers crossing a shared rail or spine serialize
//! on it deterministically, which is the whole congestion model — no
//! randomness, no fair-share fluid approximation, just event-ordered
//! occupancy.
//!
//! A single-hop route degenerates to exactly one [`Link::transmit`]: on
//! [`super::FlatLink`], the default fabric of every cluster, a send costs
//! one α–β link crossing.
//!
//! A transfer lost on the wire ([`Attempt::Lost`]: dropped or corrupted
//! mid-flight under fault injection) runs the same hop loop: it occupies
//! every hop for its full serialization time, so later traffic queues
//! behind it, but it delivers nothing — its bytes count as wasted and its
//! wire clears at [`RouteTiming::wire_clear`].
//!
//! ## Fabric fault domain
//!
//! When a [`FaultPlan`] with fabric sites is armed
//! ([`TopoNet::arm_faults`]), every hop of a delivered attempt
//! ([`Attempt::Delivered`]) consults three *stateless* per-hop draws
//! (`hash(seed, site, hop, event_key)` — order-independent, so a
//! transfer's draws do not depend on which transfers came before it):
//!
//! * [`FaultSite::HopFlap`] — a transient error: the head is delayed by a
//!   spike and the hop's health streak deepens. [`FLAP_DOWN_STREAK`]
//!   consecutive flapped traversals mark the hop down.
//! * [`FaultSite::RailDegrade`] — sustained degradation: the hop's
//!   bandwidth is capped at [`DEGRADE_BW_FACTOR`] of nominal until
//!   [`HEAL_STREAK`] consecutive clean traversals heal it.
//! * [`FaultSite::HopDown`] — the hop fails permanently.
//!
//! The health monitor is pure virtual-time state (signed streaks with
//! hysteresis, like the adaptive controller's): no wall clock, no
//! randomness beyond the plan. Down transitions are **deferred to the end
//! of the transmit that caused them** — the triggering transfer still
//! crosses (charged with its spike), then the hop joins the sorted dead
//! set, the route epoch bumps, and the route cache + arena are discarded
//! so every later resolution re-resolves around the failure via
//! [`Topology::route_avoiding`] (ECMP reroute, dual-rail failover).
//! Reroutes and rail failovers are detected at re-resolution by comparing
//! against the unrestricted route, counted in [`FabricHealth`], and
//! surfaced as [`FabricEvent`]s for telemetry.
//!
//! ## Forced delivery
//!
//! Down is permanent, so a pair whose every route crosses a dead hop can
//! never wait for a heal. Its transfers are *forced* over the pair's
//! unrestricted pre-fault route ([`Topology::route`]) instead: through the
//! same per-hop FIFO links, so they queue behind live traffic, at the
//! degraded caps of the hops they cross, drawing no fault decisions (like
//! a lost attempt). Each forced send counts one
//! [`FabricHealth::disconnects`] and is flagged in
//! [`RouteTiming::forced`]. A forced transfer therefore costs at least what
//! the same transfer would on a healthy fabric in the same occupancy
//! state; it can never finish sooner. Transmits never return
//! [`NetError::Disconnected`]; [`TopoNet::resolve`] still reports it for a
//! severed pair.

use super::{HopId, HopKind, RouteKey, Topology, TopologyHandle};
use crate::error::NetError;
use crate::link::Link;
use fusedpack_sim::{Duration, FaultPlan, FaultSite, IntMap, Time};
use std::collections::hash_map::Entry;
use std::hash::Hasher;

/// Consecutive flapped traversals that mark a hop down.
pub const FLAP_DOWN_STREAK: i32 = 3;

/// Consecutive clean traversals that heal a degraded hop back to full
/// bandwidth.
pub const HEAL_STREAK: i32 = 8;

/// Fraction of nominal bandwidth a degraded hop retains.
pub const DEGRADE_BW_FACTOR: f64 = 0.25;

/// One transmit attempt over a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// The payload arrives. The value is the transfer's canonical event
    /// key, the coordinate fabric fault draws are keyed by: pure hashes of
    /// `(plan seed, site, hop, event_key)`, so replaying the same transfers
    /// in any order injects the identical fault timeline.
    Delivered(u64),
    /// The payload is dropped (or corrupted) mid-flight: it occupies every
    /// hop of the route but never arrives. It draws no fault decisions (it
    /// *is* the fault path) and counts no disconnect.
    Lost,
}

/// When a routed transfer started and finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteTiming {
    /// First byte left the source (head of message won the first hop).
    pub start: Time,
    /// Last byte arrived at the destination (includes the final hop's
    /// latency tail). For a lost attempt, when it would have arrived.
    pub delivered: Time,
    /// The final hop's first-byte latency — the piece
    /// [`RouteTiming::wire_clear`] subtracts from `delivered`.
    pub tail_latency: Duration,
    /// The pair had no surviving route: the transfer was forced over its
    /// pre-fault route (see the module docs). A lost attempt rides the
    /// same route but delivers nothing, so it is never flagged.
    pub forced: bool,
}

impl RouteTiming {
    /// When the last byte cleared the final hop's wire.
    pub fn wire_clear(&self) -> Time {
        self.delivered - self.tail_latency
    }
}

/// Aggregate per-hop counters for reports and reconciliation tests.
#[derive(Debug, Clone)]
pub struct HopStats {
    /// Hop kind display name (`nvlink-xbar`, `ib-rail`, ...).
    pub kind: &'static str,
    /// Bytes that crossed the hop (including wasted ones).
    pub bytes: u64,
    /// Bytes that occupied the hop but were never delivered.
    pub wasted: u64,
    /// Total occupancy.
    pub busy: Duration,
}

/// Health of one hop as seen by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopState {
    /// Nominal bandwidth, routable.
    Up,
    /// Routable at [`DEGRADE_BW_FACTOR`] of nominal bandwidth.
    Degraded,
    /// Permanently failed; routes avoid it.
    Down,
}

/// Per-hop monitor state: health plus the signed error/heal streak
/// (negative = consecutive flapped traversals, positive = consecutive
/// clean ones).
#[derive(Debug, Clone, Copy)]
struct HopHealth {
    state: HopState,
    streak: i32,
}

impl Default for HopHealth {
    fn default() -> Self {
        HopHealth {
            state: HopState::Up,
            streak: 0,
        }
    }
}

/// Aggregate fabric-health counters for one cluster's run report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricHealth {
    /// Transient hop errors injected (head delayed, streak deepened).
    pub flaps: u64,
    /// Up→Degraded transitions (sustained bandwidth loss).
    pub degrades: u64,
    /// Hops marked permanently down (by `HopDown` or a flap streak).
    pub downs: u64,
    /// Hops currently down.
    pub hops_down: u64,
    /// Hops currently degraded.
    pub hops_degraded: u64,
    /// Routes re-resolved around dead hops.
    pub reroutes: u64,
    /// Reroutes that failed over a dead NIC rail to a sibling rail.
    pub rail_failovers: u64,
    /// Sends forced over a severed pair's pre-fault route.
    pub disconnects: u64,
    /// Times the route cache was invalidated by a hop state transition.
    pub route_epoch: u64,
    /// Virtual nanoseconds of spike delay charged by hop flaps.
    pub added_latency_ns: u64,
}

impl FabricHealth {
    /// Total fabric faults injected.
    pub fn injected(&self) -> u64 {
        self.flaps + self.degrades + self.downs
    }
}

impl std::fmt::Display for FabricHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flaps={} degrades={} downs={} hops_down={} hops_degraded={} \
             reroutes={} rail_failovers={} disconnects={} route_epoch={}",
            self.flaps,
            self.degrades,
            self.downs,
            self.hops_down,
            self.hops_degraded,
            self.reroutes,
            self.rail_failovers,
            self.disconnects,
            self.route_epoch
        )
    }
}

/// A fabric state transition, drained by the cluster layer and emitted as
/// telemetry instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEvent {
    /// A hop was marked permanently down at `at`.
    HopDown { hop: u32, at: Time },
    /// A pair's route was re-resolved around dead hops.
    Rerouted { src: u32, dst: u32, at: Time },
    /// A reroute failed over a dead NIC rail to a sibling rail.
    RailFailover { hop: u32, at: Time },
}

/// The armed fault domain of one [`TopoNet`].
#[derive(Debug)]
struct FabricFaults {
    plan: FaultPlan,
    hops: Vec<HopHealth>,
    /// Sorted ids of permanently-down hops (the routing dead set).
    dead: Vec<u32>,
    health: FabricHealth,
    events: Vec<FabricEvent>,
}

impl FabricFaults {
    fn new(plan: FaultPlan, num_hops: usize) -> Self {
        FabricFaults {
            plan,
            hops: vec![HopHealth::default(); num_hops],
            dead: Vec::new(),
            health: FabricHealth::default(),
            events: Vec::new(),
        }
    }

    /// Mark `hop` permanently down (idempotent). Returns whether the
    /// state actually transitioned.
    fn mark_down(&mut self, hop: u32, at: Time) -> bool {
        let h = &mut self.hops[hop as usize];
        if h.state == HopState::Down {
            return false;
        }
        if h.state == HopState::Degraded {
            self.health.hops_degraded -= 1;
        }
        h.state = HopState::Down;
        self.health.downs += 1;
        self.health.hops_down += 1;
        let pos = self.dead.binary_search(&hop).unwrap_err();
        self.dead.insert(pos, hop);
        self.events.push(FabricEvent::HopDown { hop, at });
        true
    }

    /// One transmit's head crosses `hop`: if `draw`, draw the hop's fault
    /// decisions, delay the head by any flap spike and queue a down
    /// transition; return the hop's bandwidth factor.
    fn cross(
        &mut self,
        hop: u32,
        head: &mut Time,
        event_key: u64,
        draw: bool,
        pending_down: &mut Vec<(u32, Time)>,
    ) -> f64 {
        if draw {
            let salt = u64::from(hop);
            if self.plan.fires_keyed(FaultSite::HopDown, salt, event_key)
                && self.hops[hop as usize].state != HopState::Down
                && !pending_down.iter().any(|&(h, _)| h == hop)
            {
                pending_down.push((hop, *head));
            }
            if self
                .plan
                .fires_keyed(FaultSite::RailDegrade, salt, event_key)
            {
                let h = &mut self.hops[hop as usize];
                if h.state == HopState::Up {
                    h.state = HopState::Degraded;
                    h.streak = 0;
                    self.health.degrades += 1;
                    self.health.hops_degraded += 1;
                }
            }
            if self.plan.fires_keyed(FaultSite::HopFlap, salt, event_key) {
                let spike = self.plan.spike_keyed(FaultSite::HopFlap, salt, event_key);
                *head += spike;
                self.health.flaps += 1;
                self.health.added_latency_ns += spike.as_nanos();
                let h = &mut self.hops[hop as usize];
                h.streak = h.streak.min(0) - 1;
                if h.streak <= -FLAP_DOWN_STREAK
                    && h.state != HopState::Down
                    && !pending_down.iter().any(|&(hid, _)| hid == hop)
                {
                    pending_down.push((hop, *head));
                }
            } else {
                let h = &mut self.hops[hop as usize];
                h.streak = h.streak.max(0) + 1;
                if h.streak >= HEAL_STREAK && h.state == HopState::Degraded {
                    h.state = HopState::Up;
                    self.health.hops_degraded -= 1;
                }
            }
        }
        if self.hops[hop as usize].state == HopState::Degraded {
            DEGRADE_BW_FACTOR
        } else {
            1.0
        }
    }
}

/// A cached route: an `(offset, len)` window into the route arena, and
/// whether it is a severed pair's forced pre-fault route.
#[derive(Debug, Clone, Copy, Default)]
struct RouteRef {
    off: u32,
    len: u32,
    forced: bool,
}

/// A route cache key: the pair packed into two words, so a lookup hashes
/// two multiply-rotates instead of four.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PairKey(u64, u64);

impl PairKey {
    fn of(key: RouteKey) -> Self {
        let pack = |ep: super::Endpoint| (u64::from(ep.node) << 32) | u64::from(ep.gpu);
        PairKey(pack(key.0), pack(key.1))
    }
}

impl std::hash::Hash for PairKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0);
        state.write_u64(self.1);
    }
}

/// `last_route` destination of a source that has resolved nothing yet
/// (no endpoint packs to it: its gpu index would be `u32::MAX`).
const NO_ROUTE: u64 = u64::MAX;

/// A topology's live network state for one simulated cluster.
#[derive(Debug)]
pub struct TopoNet {
    topo: TopologyHandle,
    /// One live link per entry of `topo.hops()`.
    links: Vec<Link>,
    /// Resolved-route cache. Values are windows into `route_arena` —
    /// `Copy`, so the steady-state per-send lookup is one [`IntMap`] hit,
    /// with no refcount traffic and no per-route allocation. Valid for the
    /// current route epoch only: a hop going down clears the cache and the
    /// arena wholesale.
    routes: IntMap<PairKey, RouteRef>,
    /// Each pair's unrestricted route ([`Topology::route`]), stored on its
    /// first re-resolution around dead hops and kept for the whole run: it
    /// never changes, and reroute detection and forced sends read it.
    unrestricted: IntMap<PairKey, Vec<HopId>>,
    /// In front of `routes`: the route each source endpoint (indexed
    /// `node * gpus_per_node + gpu`) resolved last, with its packed
    /// destination. A sender talking to one peer at a time — a
    /// request/response loop on the flat fabric — never hashes.
    last_route: Vec<(u64, RouteRef)>,
    gpus_per_node: u32,
    /// Bump arena holding every cached route's hop sequence back to back.
    /// Entries are referenced by offset, so the arena growing (and
    /// reallocating) never invalidates a cached route.
    route_arena: Vec<HopId>,
    /// Most recent transmit *start* per hop. Hops are FIFO resources, so
    /// starts must be non-decreasing per hop no matter how callers
    /// interleave — checked cheaply here so tests can assert it end to
    /// end.
    last_starts: Vec<Time>,
    /// Transmits whose start on some hop preceded the previous start on
    /// that hop. Always zero unless the per-hop FIFO contract is broken.
    order_violations: u64,
    /// Armed fault domain; `None` costs nothing on the hot path.
    faults: Option<Box<FabricFaults>>,
}

impl TopoNet {
    pub fn new(topo: TopologyHandle) -> Self {
        let links: Vec<Link> = topo
            .hops()
            .iter()
            .map(|h| Link::new(h.link_spec()))
            .collect();
        let last_starts = vec![Time::ZERO; links.len()];
        let endpoints = topo.num_nodes() as usize * topo.gpus_per_node() as usize;
        TopoNet {
            gpus_per_node: topo.gpus_per_node(),
            last_route: vec![(NO_ROUTE, RouteRef::default()); endpoints],
            topo,
            links,
            routes: IntMap::default(),
            unrestricted: IntMap::default(),
            route_arena: Vec::new(),
            last_starts,
            order_violations: 0,
            faults: None,
        }
    }

    /// Arm the fabric fault domain with `plan`. The plan's fabric sites
    /// drive per-hop keyed draws; a plan with no fabric site armed still
    /// enables the health monitor (useful with the `force_*` helpers).
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        let n = self.links.len();
        self.faults = Some(Box::new(FabricFaults::new(plan, n)));
    }

    /// Aggregate fabric-health counters (all-zero when unarmed).
    pub fn fabric_health(&self) -> FabricHealth {
        self.faults.as_ref().map(|f| f.health).unwrap_or_default()
    }

    /// Current monitor state of one hop.
    pub fn hop_state(&self, hop: HopId) -> HopState {
        self.faults
            .as_ref()
            .map(|f| f.hops[hop.0 as usize].state)
            .unwrap_or(HopState::Up)
    }

    /// Drain fabric state transitions accumulated since the last drain
    /// (for telemetry emission by the cluster layer).
    #[inline]
    pub fn drain_fabric_events(&mut self) -> Vec<FabricEvent> {
        self.faults
            .as_mut()
            .map(|f| std::mem::take(&mut f.events))
            .unwrap_or_default()
    }

    /// Administratively mark a hop permanently down at `at` (chaos
    /// scenarios and tests; the probabilistic path is
    /// [`FaultSite::HopDown`]). Arms an empty fault domain if none is
    /// armed yet.
    pub fn force_hop_down(&mut self, hop: HopId, at: Time) {
        if self.faults.is_none() {
            let seed = 0;
            self.arm_faults(FaultPlan::new(seed));
        }
        let f = self.faults.as_mut().expect("just armed");
        if f.mark_down(hop.0, at) {
            f.health.route_epoch += 1;
            self.clear_routes();
        }
    }

    /// Discard every cached route (a hop state transition changed them).
    fn clear_routes(&mut self) {
        self.routes.clear();
        self.route_arena.clear();
        self.last_route.fill((NO_ROUTE, RouteRef::default()));
    }

    /// Administratively degrade a hop to [`DEGRADE_BW_FACTOR`] of nominal
    /// bandwidth (heals after [`HEAL_STREAK`] clean traversals). Arms an
    /// empty fault domain if none is armed yet.
    pub fn force_hop_degrade(&mut self, hop: HopId) {
        if self.faults.is_none() {
            self.arm_faults(FaultPlan::new(0));
        }
        let f = self.faults.as_mut().expect("just armed");
        let h = &mut f.hops[hop.0 as usize];
        if h.state == HopState::Up {
            h.state = HopState::Degraded;
            h.streak = 0;
            f.health.degrades += 1;
            f.health.hops_degraded += 1;
        }
    }

    /// How many transmits started on some hop *earlier* than the previous
    /// transmit on that hop (see `last_starts`). Zero in a correct run.
    pub fn order_violations(&self) -> u64 {
        self.order_violations
    }

    #[inline]
    fn note_start(last_starts: &mut [Time], violations: &mut u64, hop: u32, start: Time) {
        let slot = &mut last_starts[hop as usize];
        if start < *slot {
            *violations += 1;
        } else {
            *slot = start;
        }
    }

    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// Resolve (and cache) the route for a pair. The returned slice
    /// borrows the route arena; copy it out if the caller needs to keep it
    /// across further network calls. A severed pair reports
    /// [`NetError::Disconnected`] (its transmits are forced; see the module
    /// docs). (Diagnostics path: reroute events triggered here are stamped
    /// at `Time::ZERO`; transmits stamp them at the transfer time.)
    pub fn resolve(&mut self, key: RouteKey) -> Result<&[HopId], NetError> {
        let r = self.resolve_ref(key, Time::ZERO)?;
        if r.forced {
            return Err(NetError::Disconnected {
                src: key.0.node,
                dst: key.1.node,
            });
        }
        Ok(&self.route_arena[r.off as usize..(r.off + r.len) as usize])
    }

    /// The per-send resolution fast path: a `Copy` window into the arena,
    /// so hop iteration and link mutation can proceed without holding any
    /// borrow of the cache.
    ///
    /// With dead hops present, cache misses re-resolve via
    /// [`Topology::route_avoiding`] and check the pair's unrestricted route
    /// to detect (and count) reroutes and rail failovers. A pair with no
    /// surviving route caches its unrestricted route, flagged forced.
    #[inline]
    fn resolve_ref(&mut self, key: RouteKey, now: Time) -> Result<RouteRef, NetError> {
        let pair = PairKey::of(key);
        let gpus = self.gpus_per_node as usize;
        let i = key.0.node as usize * gpus + key.0.gpu as usize;
        let slot = ((key.0.gpu as usize) < gpus && i < self.last_route.len()).then_some(i);
        if let Some(i) = slot {
            let (dst, r) = self.last_route[i];
            if dst == pair.1 {
                return Ok(r);
            }
        }
        let r = match self.routes.get(&pair) {
            Some(&r) => r,
            None => self.resolve_miss(key, pair, now)?,
        };
        if let Some(i) = slot {
            self.last_route[i] = (pair.1, r);
        }
        Ok(r)
    }

    /// Resolve a pair the cache does not hold, and cache it.
    ///
    /// On a fabric with dead hops this runs once per pair and route epoch:
    /// every epoch clears the cache, since a new dead hop can move the ECMP
    /// pick of a route that never crossed it. The pair's unrestricted route
    /// is resolved once per run and kept in `unrestricted`; a re-resolution
    /// counts a reroute iff that route crosses a dead hop, and a rail
    /// failover for each dead NIC rail it crosses.
    #[cold]
    fn resolve_miss(
        &mut self,
        key: RouteKey,
        pair: PairKey,
        now: Time,
    ) -> Result<RouteRef, NetError> {
        let mut forced = false;
        let hops = match self.faults.as_deref_mut().filter(|f| !f.dead.is_empty()) {
            None => self.topo.route(key.0, key.1)?,
            Some(f) => {
                let unrestricted = match self.unrestricted.entry(pair) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => e.insert(self.topo.route(key.0, key.1)?),
                };
                match self.topo.route_avoiding(key.0, key.1, &f.dead) {
                    Ok(hops) => {
                        let down = |h: &HopId| f.hops[h.0 as usize].state == HopState::Down;
                        if unrestricted.iter().any(down) {
                            f.health.reroutes += 1;
                            f.events.push(FabricEvent::Rerouted {
                                src: key.0.node,
                                dst: key.1.node,
                                at: now,
                            });
                            for h in unrestricted.iter().filter(|h| down(h)) {
                                if self.topo.hops()[h.0 as usize].kind == HopKind::Rail {
                                    f.health.rail_failovers += 1;
                                    f.events
                                        .push(FabricEvent::RailFailover { hop: h.0, at: now });
                                }
                            }
                        }
                        hops
                    }
                    Err(NetError::Disconnected { .. }) => {
                        forced = true;
                        unrestricted.clone()
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        let off = u32::try_from(self.route_arena.len()).expect("route arena fits u32 offsets");
        self.route_arena.extend_from_slice(&hops);
        let r = RouteRef {
            off,
            len: hops.len() as u32,
            forced,
        };
        self.routes.insert(pair, r);
        Ok(r)
    }

    /// Hops currently packed in the route arena (diagnostics, benches).
    pub fn route_arena_len(&self) -> usize {
        self.route_arena.len()
    }

    /// Round-trip control latency along a pair's route (the analogue of
    /// `LinkSpec::rtt` for the retransmission protocol): twice the sum of
    /// per-hop first-byte latencies. A severed pair answers for its forced
    /// route.
    pub fn route_rtt(&mut self, key: RouteKey) -> Result<Duration, NetError> {
        let r = self.resolve_ref(key, Time::ZERO)?;
        let one_way = self.route_arena[r.off as usize..(r.off + r.len) as usize]
            .iter()
            .fold(Duration(0), |acc, h| {
                acc + self.links[h.0 as usize].spec().latency
            });
        Ok(one_way * 2)
    }

    /// A delivered transmit with event key 0 that reports no hop spans
    /// (benches and tests).
    pub fn transmit(
        &mut self,
        now: Time,
        key: RouteKey,
        bytes: u64,
        bw_cap: Option<f64>,
    ) -> Result<RouteTiming, NetError> {
        self.transmit_with(now, key, bytes, bw_cap, Attempt::Delivered(0), |_, _, _| {})
    }

    /// Transmit `bytes` from `key.0` to `key.1` starting no earlier than
    /// `now`, optionally capped at `bw_cap` (e.g. the GPUDirect ceiling),
    /// handing each hop's span `(hop, start, wire_done)` to `on_hop` as it
    /// is timed — the per-send path of the cluster, which turns spans
    /// straight into telemetry (a no-op when telemetry is off).
    ///
    /// A forced send pays only the state the fabric is already in and a
    /// lost attempt is the fault itself, so neither draws fault decisions.
    /// Only endpoint errors surface ([`NetError::NodeOutOfRange`],
    /// [`NetError::GpuOutOfRange`], [`NetError::SelfRoute`]); a severed
    /// pair is forced over its pre-fault route and flagged in
    /// [`RouteTiming::forced`].
    pub fn transmit_with(
        &mut self,
        now: Time,
        key: RouteKey,
        bytes: u64,
        bw_cap: Option<f64>,
        attempt: Attempt,
        mut on_hop: impl FnMut(u32, Time, Time),
    ) -> Result<RouteTiming, NetError> {
        let route = self.resolve_ref(key, now)?;
        debug_assert!(route.len > 0, "routes have at least one hop");
        let (event_key, lost) = match attempt {
            Attempt::Delivered(event_key) => (event_key, false),
            Attempt::Lost => (0, true),
        };
        let draw = !route.forced && !lost;
        let mut head = now;
        let mut stream_bw = bw_cap.unwrap_or(f64::INFINITY);
        let mut first_start = now;
        let mut delivered = now;
        let mut tail_latency = Duration(0);
        // Down transitions triggered mid-route are applied *after* the hop
        // loop: the triggering transfer still crosses, and the route
        // arena/cache stay valid while the loop's window is live.
        let mut pending_down: Vec<(u32, Time)> = Vec::new();
        for i in 0..route.len {
            let hop = self.route_arena[(route.off + i) as usize];
            let mut hop_bw = self.links[hop.0 as usize].spec().bw;
            if let Some(f) = self.faults.as_deref_mut() {
                hop_bw *= f.cross(hop.0, &mut head, event_key, draw, &mut pending_down);
            }
            let link = &mut self.links[hop.0 as usize];
            // The body can never stream faster than the narrowest hop the
            // head has already crossed (cut-through, no re-compression).
            let (start, done) = link.transmit(head, bytes, stream_bw.min(hop_bw), lost);
            let latency = link.spec().latency;
            Self::note_start(
                &mut self.last_starts,
                &mut self.order_violations,
                hop.0,
                start,
            );
            on_hop(hop.0, start, done - latency);
            if i == 0 {
                first_start = start;
            }
            stream_bw = stream_bw.min(hop_bw);
            // The head reaches the next hop one latency after it left here.
            head = start + latency;
            delivered = done;
            tail_latency = latency;
        }
        let forced = route.forced && !lost;
        if forced {
            let f = self.faults.as_deref_mut().expect("forced implies armed");
            f.health.disconnects += 1;
        }
        if !pending_down.is_empty() {
            let f = self.faults.as_deref_mut().expect("pending implies armed");
            let mut transitioned = false;
            for (hop, at) in pending_down {
                transitioned |= f.mark_down(hop, at);
            }
            if transitioned {
                f.health.route_epoch += 1;
                self.clear_routes();
            }
        }
        Ok(RouteTiming {
            start: first_start,
            delivered,
            tail_latency,
            forced,
        })
    }

    /// Bytes carried by one hop (tests, reconciliation).
    pub fn bytes_on_hop(&self, hop: HopId) -> u64 {
        self.links[hop.0 as usize].bytes_carried()
    }

    /// Aggregate counters per hop, in hop-table order.
    pub fn hop_stats(&self) -> Vec<HopStats> {
        self.topo
            .hops()
            .iter()
            .zip(&self.links)
            .map(|(spec, link)| HopStats {
                kind: spec.kind.name(),
                bytes: link.bytes_carried(),
                wasted: link.bytes_wasted(),
                busy: link.busy_time(),
            })
            .collect()
    }

    /// Reset all occupancy and counters. The route cache survives only if
    /// no hop has ever gone down (routes are static in a healthy fabric);
    /// fault-domain health state survives — a dead hop stays dead.
    pub fn reset(&mut self) {
        for link in &mut self.links {
            link.reset();
        }
        self.last_starts.fill(Time::ZERO);
        self.order_violations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::topology::{Endpoint, FlatLink, Hierarchy};
    use fusedpack_sim::FaultSpec;
    use std::sync::Arc;

    /// One attempt with no bandwidth cap, and the per-hop spans it
    /// handed to `on_hop`.
    fn send(
        net: &mut TopoNet,
        now: Time,
        key: RouteKey,
        bytes: u64,
        attempt: Attempt,
    ) -> (RouteTiming, Vec<(u32, Time, Time)>) {
        let mut spans = Vec::new();
        let t = net
            .transmit_with(now, key, bytes, None, attempt, |hop, start, done| {
                spans.push((hop, start, done))
            })
            .unwrap();
        (t, spans)
    }

    fn flat_net() -> TopoNet {
        TopoNet::new(Arc::new(FlatLink::new(
            LinkSpec::nvlink2_75(),
            LinkSpec::ib_edr_dual(),
            2,
            4,
        )))
    }

    #[test]
    fn single_hop_matches_raw_link_transmit() {
        let mut net = flat_net();
        let mut raw = Link::new(LinkSpec::ib_edr_dual());
        let key = (Endpoint::new(0, 0), Endpoint::new(1, 0));
        let t = net.transmit(Time(0), key, 1 << 20, None).unwrap();
        let (rs, rd) = raw.transmit(Time(0), 1 << 20, f64::INFINITY, false);
        assert_eq!((t.start, t.delivered), (rs, rd));
        assert_eq!(t.tail_latency, LinkSpec::ib_edr_dual().latency);

        let mut capped_net = flat_net();
        let mut capped_raw = Link::new(LinkSpec::ib_edr_dual());
        let t = capped_net
            .transmit(Time(0), key, 1 << 20, Some(11.0e9))
            .unwrap();
        let (rs, rd) = capped_raw.transmit(Time(0), 1 << 20, 11.0e9, false);
        assert_eq!((t.start, t.delivered), (rs, rd));
    }

    #[test]
    fn shared_hops_serialize_transfers() {
        let mut net = flat_net();
        let key = (Endpoint::new(0, 0), Endpoint::new(1, 0));
        let other = (Endpoint::new(0, 1), Endpoint::new(1, 1));
        let a = net.transmit(Time(0), key, 1 << 20, None).unwrap();
        // Different GPUs, same node: the flat model shares the node's wire.
        let b = net.transmit(Time(0), other, 1 << 20, None).unwrap();
        assert!(b.start >= a.delivered - a.tail_latency, "FIFO on the wire");
        assert!(b.delivered > a.delivered);
    }

    #[test]
    fn multi_hop_head_advances_by_latency_and_narrowest_hop_rules() {
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(32)));
        let key = (Endpoint::new(0, 0), Endpoint::new(31, 0));
        let bytes = 1u64 << 24;
        let (t, hops) = send(&mut net, Time(0), key, bytes, Attempt::Delivered(0));
        assert_eq!(hops.len(), 4, "cross-leaf fat-tree route");
        // Head progression: hop i+1 starts one hop-latency after hop i.
        for w in hops.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
        // The narrowest hop is the 12.5 GB/s rail; total time must be at
        // least the rail serialization plus all hop latencies.
        let rail_bw = LinkSpec::ib_edr_dual().bw / 2.0;
        let floor = Duration::from_secs_f64(bytes as f64 / rail_bw);
        assert!(t.delivered - t.start >= floor);
        // And within a couple of latencies of it: downstream hops stream
        // at the capped rate, they do not re-serialize the message.
        assert!(t.delivered - t.start <= floor + Duration::from_nanos(10_000));
    }

    #[test]
    fn wasted_routes_occupy_hops_and_count() {
        let mut net = TopoNet::new(Arc::new(Hierarchy::abci_like(8)));
        let key = (Endpoint::new(0, 0), Endpoint::new(7, 1));
        let (t, _) = send(&mut net, Time(0), key, 4096, Attempt::Lost);
        assert!(t.wire_clear() > t.start);
        let wasted: u64 = net.hop_stats().iter().map(|h| h.wasted).sum();
        let route_len = net.resolve(key).unwrap().len() as u64;
        assert_eq!(wasted, 4096 * route_len, "every hop on the route counts");
        // A lost attempt is the fault itself: it draws nothing, even with
        // every fabric site certain to fire.
        net.arm_faults(
            FaultPlan::new(5)
                .with(FaultSite::HopFlap, FaultSpec::with_probability(1.0))
                .with(FaultSite::RailDegrade, FaultSpec::with_probability(1.0))
                .with(FaultSite::HopDown, FaultSpec::with_probability(1.0)),
        );
        send(&mut net, Time(0), key, 4096, Attempt::Lost);
        let plan = &net.faults.as_ref().unwrap().plan;
        for site in [
            FaultSite::HopFlap,
            FaultSite::RailDegrade,
            FaultSite::HopDown,
        ] {
            assert_eq!(plan.decisions(site), 0, "{site:?} consulted");
        }
        assert_eq!(net.fabric_health(), FabricHealth::default());
    }

    #[test]
    fn hop_stats_reconcile_with_transmits() {
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(32)));
        let key = (Endpoint::new(0, 2), Endpoint::new(20, 3));
        net.transmit(Time(0), key, 1000, None).unwrap();
        net.transmit(Time(0), key, 500, None).unwrap();
        let route = net.resolve(key).unwrap().to_vec();
        for hop in route.iter() {
            assert_eq!(net.bytes_on_hop(*hop), 1500);
        }
        let total: u64 = net.hop_stats().iter().map(|h| h.bytes).sum();
        assert_eq!(total, 1500 * route.len() as u64);
        net.reset();
        assert_eq!(net.hop_stats().iter().map(|h| h.bytes).sum::<u64>(), 0);
    }

    #[test]
    fn per_hop_starts_are_monotone_even_with_nonmonotone_call_times() {
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(32)));
        let key = (Endpoint::new(0, 0), Endpoint::new(31, 0));
        // Callers' `now` values regress; the FIFO links still serialize,
        // so per-hop starts never go backwards and no violation fires.
        net.transmit(Time(5_000), key, 1 << 16, None).unwrap();
        net.transmit(Time(0), key, 1 << 16, None).unwrap();
        net.transmit(Time(2_000), key, 1 << 16, None).unwrap();
        assert_eq!(net.order_violations(), 0);
        net.reset();
        assert_eq!(net.order_violations(), 0);
    }

    #[test]
    fn route_cache_packs_the_arena_and_hits_never_grow_it() {
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(32)));
        let k1 = (Endpoint::new(0, 0), Endpoint::new(31, 0));
        let k2 = (Endpoint::new(1, 0), Endpoint::new(2, 0));
        let r1 = net.resolve(k1).unwrap().to_vec();
        let r2 = net.resolve(k2).unwrap().to_vec();
        assert_eq!(net.route_arena_len(), r1.len() + r2.len());
        // Cache hits return the same hops and allocate nothing new.
        assert_eq!(net.resolve(k1).unwrap(), &r1[..]);
        assert_eq!(net.resolve(k2).unwrap(), &r2[..]);
        assert_eq!(net.route_arena_len(), r1.len() + r2.len());
        // The cached windows drive transmits identically to fresh routes.
        let (t, hops) = send(&mut net, Time(0), k1, 4096, Attempt::Delivered(0));
        assert_eq!(hops.len(), r1.len());
        assert!(t.delivered > t.start);
    }

    #[test]
    fn route_errors_surface_not_panic() {
        let mut net = flat_net();
        let err = net
            .transmit(Time(0), (Endpoint::new(9, 0), Endpoint::new(0, 0)), 1, None)
            .unwrap_err();
        assert!(matches!(err, NetError::NodeOutOfRange { node: 9, .. }));
        let err = net
            .route_rtt((Endpoint::new(0, 0), Endpoint::new(0, 0)))
            .unwrap_err();
        assert!(matches!(err, NetError::SelfRoute { .. }));
    }

    #[test]
    fn route_rtt_sums_hop_latencies() {
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(32)));
        let same_leaf = net
            .route_rtt((Endpoint::new(0, 0), Endpoint::new(1, 0)))
            .unwrap();
        let cross_leaf = net
            .route_rtt((Endpoint::new(0, 0), Endpoint::new(31, 0)))
            .unwrap();
        assert_eq!(same_leaf, LinkSpec::ib_edr_dual().latency * 4);
        assert!(cross_leaf > same_leaf);
    }

    // ---- fabric fault domain ----

    #[test]
    fn unarmed_keyed_transmit_matches_plain_transmit() {
        let key = (Endpoint::new(0, 0), Endpoint::new(31, 0));
        let mut a = TopoNet::new(Arc::new(Hierarchy::lassen_like(32)));
        let mut b = TopoNet::new(Arc::new(Hierarchy::lassen_like(32)));
        let ta = a.transmit(Time(0), key, 1 << 20, None).unwrap();
        let tb = send(&mut b, Time(0), key, 1 << 20, Attempt::Delivered(12345)).0;
        assert_eq!(ta, tb, "event keys are inert without an armed domain");
        assert_eq!(a.fabric_health(), FabricHealth::default());
    }

    #[test]
    fn forced_hop_down_reroutes_and_counts_rail_failover() {
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(8)));
        let key = (Endpoint::new(0, 0), Endpoint::new(7, 0));
        let healthy = net.resolve(key).unwrap().to_vec();
        let rail = healthy
            .iter()
            .copied()
            .find(|h| net.topology().hops()[h.0 as usize].kind == HopKind::Rail)
            .expect("fat-tree route rides a rail");
        net.force_hop_down(rail, Time(100));
        assert_eq!(net.hop_state(rail), HopState::Down);
        assert_eq!(net.fabric_health().route_epoch, 1);
        assert_eq!(net.route_arena_len(), 0, "arena discarded on transition");
        let t = send(&mut net, Time(200), key, 4096, Attempt::Delivered(1)).0;
        assert!(t.delivered > t.start);
        let rerouted = net.resolve(key).unwrap().to_vec();
        assert!(rerouted.iter().all(|h| *h != rail), "dead hop avoided");
        let health = net.fabric_health();
        assert_eq!(health.downs, 1);
        assert_eq!(health.hops_down, 1);
        assert!(health.reroutes >= 1);
        assert!(
            health.rail_failovers >= 1,
            "dead rail => dual-rail failover"
        );
        let events = net.drain_fabric_events();
        assert!(events.iter().any(
            |e| matches!(e, FabricEvent::HopDown { hop, at } if *hop == rail.0 && *at == Time(100))
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e, FabricEvent::Rerouted { src: 0, dst: 7, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, FabricEvent::RailFailover { hop, .. } if *hop == rail.0)));
        assert!(net.drain_fabric_events().is_empty(), "drain empties");
    }

    #[test]
    fn degraded_hop_slows_the_stream_and_heals_after_clean_traversals() {
        let key = (Endpoint::new(0, 0), Endpoint::new(7, 0));
        let mut clean = TopoNet::new(Arc::new(Hierarchy::lassen_like(8)));
        let base = clean.transmit(Time(0), key, 1 << 24, None).unwrap();

        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(8)));
        let route = clean.resolve(key).unwrap().to_vec();
        let rail = route
            .iter()
            .copied()
            .find(|h| clean.topology().hops()[h.0 as usize].kind == HopKind::Rail)
            .unwrap();
        net.force_hop_degrade(rail);
        assert_eq!(net.hop_state(rail), HopState::Degraded);
        let slow = send(&mut net, Time(0), key, 1 << 24, Attempt::Delivered(0)).0;
        assert!(
            slow.delivered - slow.start > base.delivered - base.start,
            "degraded rail must stretch the transfer"
        );
        // Clean traversals heal it back to nominal bandwidth.
        for k in 1..=HEAL_STREAK as u64 {
            send(&mut net, Time(0), key, 4096, Attempt::Delivered(k));
        }
        assert_eq!(net.hop_state(rail), HopState::Up);
        assert_eq!(net.fabric_health().hops_degraded, 0);
        assert_eq!(net.fabric_health().degrades, 1);
    }

    #[test]
    fn sustained_flaps_take_hops_down_until_disconnected() {
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(8)));
        net.arm_faults(
            FaultPlan::new(7).with(FaultSite::HopFlap, FaultSpec::with_probability(1.0)),
        );
        let key = (Endpoint::new(0, 0), Endpoint::new(7, 0));
        // Every traversal flaps every hop, so streaks hit -FLAP_DOWN_STREAK
        // together and hops die route by route until node 0 is severed;
        // from then on sends are forced, never refused.
        let mut forced = false;
        for k in 0..32u64 {
            let t = send(&mut net, Time(0), key, 4096, Attempt::Delivered(k)).0;
            assert!(t.delivered > t.start);
            if t.forced {
                forced = true;
                break;
            }
        }
        assert!(forced, "flap streaks must eventually sever the route");
        assert!(matches!(
            net.resolve(key),
            Err(NetError::Disconnected { src: 0, dst: 7 })
        ));
        let health = net.fabric_health();
        assert!(health.flaps > 0);
        assert!(health.downs > 0, "streaks crossed the down threshold");
        assert_eq!(health.disconnects, 1, "one forced send, one disconnect");
        assert!(health.added_latency_ns > 0, "spikes charged virtual time");
        assert!(health.route_epoch > 0);
    }

    /// Kill both of node 0's rails: every route out of node 0 crosses one.
    fn severed_lassen(plan: FaultPlan) -> (TopoNet, RouteKey, Vec<HopId>) {
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(8)));
        net.arm_faults(plan);
        let key = (Endpoint::new(0, 0), Endpoint::new(7, 0));
        let pre_fault = net.topology().route(key.0, key.1).unwrap();
        let rails: Vec<HopId> = (0..net.topology().hops().len() as u32)
            .map(HopId)
            .filter(|h| net.topology().hops()[h.0 as usize].kind == HopKind::Rail)
            .take(2)
            .collect();
        for &rail in &rails {
            net.force_hop_down(rail, Time(0));
        }
        (net, key, pre_fault)
    }

    #[test]
    fn forced_sends_ride_the_pre_fault_route_and_draw_nothing() {
        let every_site = FaultPlan::new(3)
            .with(FaultSite::HopFlap, FaultSpec::with_probability(1.0))
            .with(FaultSite::RailDegrade, FaultSpec::with_probability(1.0))
            .with(FaultSite::HopDown, FaultSpec::with_probability(1.0));
        let (mut net, key, pre_fault) = severed_lassen(every_site);
        let health = net.fabric_health();
        let (t, hops) = send(&mut net, Time(0), key, 1000, Attempt::Delivered(9));
        assert!(t.forced);
        assert_eq!(hops.len(), pre_fault.len());
        for (hop, &(crossed, _, _)) in pre_fault.iter().zip(&hops) {
            assert_eq!(hop.0, crossed);
            assert_eq!(net.bytes_on_hop(*hop), 1000, "hop {hop:?} carried it");
        }
        let total: u64 = net.hop_stats().iter().map(|h| h.bytes).sum();
        assert_eq!(total, 1000 * pre_fault.len() as u64);
        // No draw at any site, so no new flap, degrade or death.
        let plan = &net.faults.as_ref().unwrap().plan;
        for site in [
            FaultSite::HopFlap,
            FaultSite::RailDegrade,
            FaultSite::HopDown,
        ] {
            assert_eq!(plan.decisions(site), 0, "{site:?} consulted");
        }
        let after = net.fabric_health();
        assert_eq!(
            after,
            FabricHealth {
                disconnects: health.disconnects + 1,
                ..health
            }
        );
        // Wasted occupancy of a severed pair rides the same route and
        // counts no disconnect: only forced *sends* do.
        let (lost, _) = send(&mut net, Time(0), key, 500, Attempt::Lost);
        assert!(!lost.forced, "a lost attempt is no forced delivery");
        assert_eq!(net.bytes_on_hop(pre_fault[0]), 1500);
        assert_eq!(net.fabric_health().disconnects, after.disconnects);
    }

    #[test]
    fn forced_sends_pay_degraded_caps() {
        let (mut clean, key, pre_fault) = severed_lassen(FaultPlan::new(0));
        let (mut slow, _, _) = severed_lassen(FaultPlan::new(0));
        slow.force_hop_degrade(pre_fault[1]);
        let fast = send(&mut clean, Time(0), key, 1 << 24, Attempt::Delivered(1)).0;
        let capped = send(&mut slow, Time(0), key, 1 << 24, Attempt::Delivered(1)).0;
        assert!(fast.forced && capped.forced);
        assert!(capped.delivered > fast.delivered);
    }

    #[test]
    fn keyed_fault_draws_are_replay_invariant() {
        // Two nets replaying the same (event_key, transfer) set in
        // different orders end with identical health state. Keys come
        // from disjoint pairs so FIFO occupancy cannot couple the
        // timelines.
        let mk = || {
            let mut n = TopoNet::new(Arc::new(Hierarchy::lassen_like(8)));
            n.arm_faults(
                FaultPlan::new(21).with(FaultSite::RailDegrade, FaultSpec::with_probability(0.2)),
            );
            n
        };
        let pairs = [
            ((Endpoint::new(0, 0), Endpoint::new(5, 0)), 10u64),
            ((Endpoint::new(1, 0), Endpoint::new(6, 0)), 11),
            ((Endpoint::new(2, 0), Endpoint::new(7, 0)), 12),
            ((Endpoint::new(3, 0), Endpoint::new(4, 0)), 13),
        ];
        let mut fwd = mk();
        for &(key, k) in &pairs {
            send(&mut fwd, Time(0), key, 1 << 16, Attempt::Delivered(k));
        }
        let mut rev = mk();
        for &(key, k) in pairs.iter().rev() {
            send(&mut rev, Time(0), key, 1 << 16, Attempt::Delivered(k));
        }
        assert_eq!(fwd.fabric_health(), rev.fabric_health());
    }

    #[test]
    fn hop_byte_accounting_reconciles_across_a_reroute() {
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(8)));
        let key = (Endpoint::new(0, 0), Endpoint::new(7, 0));
        net.transmit(Time(0), key, 1000, None).unwrap();
        let healthy = net.resolve(key).unwrap().to_vec();
        let rail = healthy
            .iter()
            .copied()
            .find(|h| net.topology().hops()[h.0 as usize].kind == HopKind::Rail)
            .unwrap();
        net.force_hop_down(rail, Time(0));
        send(&mut net, Time(0), key, 500, Attempt::Delivered(1));
        let rerouted = net.resolve(key).unwrap().to_vec();
        // Bytes land on exactly the hops each transfer rode: the shared
        // suffix carries both, the dead rail only the first.
        assert_eq!(net.bytes_on_hop(rail), 1000);
        for h in rerouted.iter().filter(|h| !healthy.contains(h)) {
            assert_eq!(net.bytes_on_hop(*h), 500);
        }
        let total: u64 = net.hop_stats().iter().map(|s| s.bytes).sum();
        assert_eq!(
            total,
            1000 * healthy.len() as u64 + 500 * rerouted.len() as u64
        );
    }
}
