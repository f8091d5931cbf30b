//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a set of per-site [`FaultSpec`]s (a firing
//! probability) whose decisions derive entirely from one seed, so a chaos
//! run is reproducible bit-for-bit: the same seed yields the same injection
//! decisions no matter how many times it is replayed, or how many sweep
//! workers run beside it. A site that fires and charges time draws a
//! latency spike around one fixed mean of 20 µs (`SPIKE_MEAN_NS`).
//!
//! Sites are named after the injection points they arm in the higher
//! layers: NIC completion behaviour, wire transmission, per-hop fabric
//! health, fused-kernel launches, DirectIPC mapping, and request-ring
//! capacity. The plan itself is policy-free — it only answers "does this
//! site fire now?" and "how large is the spike?"; the recovery ladders
//! live next to the call sites.
//!
//! ## Two decision families
//!
//! * **Rank-scoped streams** ([`FaultPlan::fires`]): sites that only ever
//!   fire inside one rank's own event execution (kernel launches, IPC
//!   mapping, ring capacity) draw from a lazily created [`Pcg32`] stream
//!   per `(site, rank)`, derived with [`splitmix64`] from the plan seed.
//!   A rank's stream does not depend on how often other ranks draw.
//! * **Keyed draws** ([`FaultPlan::fires_keyed`]): sites attached to a
//!   transfer or a fabric hop are *stateless* — the decision is a pure
//!   hash of `(seed, site, salt, key)` where `key` is the transfer's
//!   canonical event key and `salt` distinguishes hops. A stateless draw
//!   does not depend on the order in which transfers are evaluated, so a
//!   retry ladder or a hop's health never shifts another transfer's
//!   decisions.
//!
//! Two properties the rest of the workspace relies on:
//!
//! * **Zero probability draws nothing.** A decision at a site with
//!   `probability <= 0` returns `false` without advancing (or creating)
//!   any RNG stream, so a run with an all-zero plan is bit-identical to a
//!   run with no plan at all (enforced by test here and end-to-end in
//!   `fusedpack-mpi`).
//! * **Per-site independence.** Each site's streams and hashes are salted
//!   with the site index, so arming one site never perturbs the decision
//!   sequence of another.

use crate::clock::Duration;
use crate::rng::Pcg32;
use std::collections::HashMap;
use std::fmt;

/// A named injection point in the simulated stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// An inter-node send's NIC completion (CQE) is delayed past the
    /// normal wire latency.
    NicTimeout,
    /// An inter-node send's NIC generates a second, spurious completion
    /// for an already-completed send.
    NicDupCompletion,
    /// `Link::transmit`: the payload is lost on the wire; the sender only
    /// finds out via its retransmission timeout.
    LinkDrop,
    /// `Link::transmit`: the payload arrives but fails its checksum; the
    /// receiver NACKs and the sender retransmits.
    LinkCorrupt,
    /// `Link::transmit`: the payload is delayed by a latency spike but
    /// arrives intact.
    LinkDelay,
    /// `gpu::fused` launch: the cooperative launch fails (e.g. not enough
    /// co-resident blocks); the batch degrades to per-request kernels.
    FusedLaunchFail,
    /// `gpu::fused` launch: one request's completion flag is never set;
    /// a host-side watchdog rescues it after a penalty.
    FusedFlagLost,
    /// DirectIPC handle mapping fails; the transfer degrades to a staged
    /// copy through the staging buffer pool.
    IpcMapFail,
    /// `RequestRing` reports exhaustion even though capacity remains,
    /// exercising the backpressure (flush + requeue) ladder.
    RingExhausted,
    /// `TopoNet` per-hop: a transient error on one hop of a routed
    /// transfer — the payload is delayed by a spike and the health
    /// monitor's error streak for that hop deepens (enough consecutive
    /// flaps mark the hop down).
    HopFlap,
    /// `TopoNet` per-hop: sustained rail degradation — the hop drops to a
    /// fraction of its nominal bandwidth until its health streak heals.
    RailDegrade,
    /// `TopoNet` per-hop: the hop fails permanently; routes re-resolve
    /// around it (ECMP reroute / dual-rail failover).
    HopDown,
}

impl FaultSite {
    /// Every site, in stable declaration order (indexes into a plan).
    pub const ALL: [FaultSite; 12] = [
        FaultSite::NicTimeout,
        FaultSite::NicDupCompletion,
        FaultSite::LinkDrop,
        FaultSite::LinkCorrupt,
        FaultSite::LinkDelay,
        FaultSite::FusedLaunchFail,
        FaultSite::FusedFlagLost,
        FaultSite::IpcMapFail,
        FaultSite::RingExhausted,
        FaultSite::HopFlap,
        FaultSite::RailDegrade,
        FaultSite::HopDown,
    ];

    /// Stable human-readable label (used in telemetry args and tables).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::NicTimeout => "nic_timeout",
            FaultSite::NicDupCompletion => "nic_dup_completion",
            FaultSite::LinkDrop => "link_drop",
            FaultSite::LinkCorrupt => "link_corrupt",
            FaultSite::LinkDelay => "link_delay",
            FaultSite::FusedLaunchFail => "fused_launch_fail",
            FaultSite::FusedFlagLost => "fused_flag_lost",
            FaultSite::IpcMapFail => "ipc_map_fail",
            FaultSite::RingExhausted => "ring_exhausted",
            FaultSite::HopFlap => "hop_flap",
            FaultSite::RailDegrade => "rail_degrade",
            FaultSite::HopDown => "hop_down",
        }
    }

    /// Whether this site injects on fabric hops (only reachable through a
    /// routed topology; a flat-model run never consults it).
    pub fn is_fabric(self) -> bool {
        matches!(
            self,
            FaultSite::HopFlap | FaultSite::RailDegrade | FaultSite::HopDown
        )
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            FaultSite::NicTimeout => 0,
            FaultSite::NicDupCompletion => 1,
            FaultSite::LinkDrop => 2,
            FaultSite::LinkCorrupt => 3,
            FaultSite::LinkDelay => 4,
            FaultSite::FusedLaunchFail => 5,
            FaultSite::FusedFlagLost => 6,
            FaultSite::IpcMapFail => 7,
            FaultSite::RingExhausted => 8,
            FaultSite::HopFlap => 9,
            FaultSite::RailDegrade => 10,
            FaultSite::HopDown => 11,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Mean magnitude of the latency spike or timeout a fired site charges,
/// in nanoseconds. [`FaultPlan::spike`] and [`FaultPlan::spike_keyed`]
/// sample uniformly from `[mean/2, 3·mean/2)`.
pub(crate) const SPIKE_MEAN_NS: u64 = 20_000;

/// Per-site injection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability that a decision at this site fires, in `[0, 1]`.
    pub probability: f64,
}

impl FaultSpec {
    /// A disarmed site: never fires, draws nothing.
    pub const OFF: FaultSpec = FaultSpec { probability: 0.0 };

    /// A spec firing with probability `p`.
    pub fn with_probability(p: f64) -> FaultSpec {
        FaultSpec { probability: p }
    }
}

/// The SplitMix64 step: increments by the golden-ratio gamma and applies
/// the Stafford variant-13 finalizer. Used everywhere the workspace needs
/// a cheap, high-quality, *stateless* hash of structured coordinates
/// (seeds, site indexes, hop ids, canonical event keys).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map a hash to a uniform f64 in `[0, 1)` (53-bit mantissa).
#[inline]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[derive(Debug, Clone)]
struct SiteState {
    spec: FaultSpec,
    /// Base hash for stateless keyed draws at this site.
    keyed_base: u64,
    /// Per-rank streams for rank-scoped decisions, created on first armed
    /// draw (so an unarmed plan allocates nothing).
    ranks: HashMap<u32, Pcg32>,
    decisions: u64,
}

/// A seeded, deterministic fault-injection plan.
///
/// One plan belongs to one simulated cluster. Rank-scoped decisions are
/// consumed in each rank's own event order and keyed decisions are pure
/// hashes of canonical event keys, which together make chaos runs
/// reproducible from the seed alone.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    sites: Vec<SiteState>,
}

/// Tag mixed into every fault hash/stream so fault decisions never collide
/// with the workload-content streams (`Pcg32::new(seed, rank_idx)`).
const FAULT_STREAM_TAG: u64 = 0xFA417;

/// Salt separating spike-magnitude hashes from fire/no-fire hashes.
const SPIKE_PHASE: u64 = 0x5b1e_aced;

impl FaultPlan {
    /// A plan with every site disarmed ([`FaultSpec::OFF`]).
    pub fn new(seed: u64) -> FaultPlan {
        let sites = FaultSite::ALL
            .iter()
            .map(|s| SiteState {
                spec: FaultSpec::OFF,
                keyed_base: splitmix64(seed ^ (FAULT_STREAM_TAG << 16) ^ s.index() as u64),
                ranks: HashMap::new(),
                decisions: 0,
            })
            .collect();
        FaultPlan { seed, sites }
    }

    /// Builder: arm `site` with `spec`.
    pub fn with(mut self, site: FaultSite, spec: FaultSpec) -> FaultPlan {
        self.sites[site.index()].spec = spec;
        self
    }

    /// A plan arming *every* site at probability `p`.
    pub fn uniform(seed: u64, p: f64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for s in FaultSite::ALL {
            plan = plan.with(s, FaultSpec::with_probability(p));
        }
        plan
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether any fabric (per-hop) site is armed — the cluster only wires
    /// a fault profile into `TopoNet` when this holds.
    pub fn is_fabric_armed(&self) -> bool {
        FaultSite::ALL
            .iter()
            .any(|&s| s.is_fabric() && self.sites[s.index()].spec.probability > 0.0)
    }

    /// Decide whether `site` fires now for `rank`, drawing from the
    /// per-`(site, rank)` stream. Zero-probability sites return `false`
    /// without creating or advancing any stream.
    pub fn fires(&mut self, site: FaultSite, rank: u32) -> bool {
        let s = &mut self.sites[site.index()];
        s.decisions += 1;
        let p = s.spec.probability;
        p > 0.0 && self.stream(site, rank).next_f64() < p
    }

    /// Sample a latency spike for `site` from `rank`'s stream: uniform in
    /// `[10, 30)` µs around `SPIKE_MEAN_NS`.
    pub fn spike(&mut self, site: FaultSite, rank: u32) -> Duration {
        let draw = self.stream(site, rank).next_u64();
        Duration::from_nanos(SPIKE_MEAN_NS / 2 + draw % SPIKE_MEAN_NS)
    }

    /// `rank`'s decision stream at `site`, created on first use.
    fn stream(&mut self, site: FaultSite, rank: u32) -> &mut Pcg32 {
        let seed = self.seed;
        let site_idx = site.index() as u64;
        self.sites[site.index()]
            .ranks
            .entry(rank)
            .or_insert_with(|| {
                Pcg32::new(
                    splitmix64(seed ^ (FAULT_STREAM_TAG << 24) ^ site_idx),
                    FAULT_STREAM_TAG + u64::from(rank),
                )
            })
    }

    /// Decide whether `site` fires for the decision identified by
    /// `(salt, key)` — a *stateless* draw: the answer is a pure hash of
    /// the plan seed, the site, `salt` (e.g. a hop id) and `key` (a
    /// canonical event key), so it is independent of evaluation order.
    pub fn fires_keyed(&mut self, site: FaultSite, salt: u64, key: u64) -> bool {
        let s = &mut self.sites[site.index()];
        s.decisions += 1;
        let p = s.spec.probability;
        p > 0.0 && unit_f64(splitmix64(splitmix64(s.keyed_base ^ salt) ^ key)) < p
    }

    /// Stateless spike for a keyed decision: uniform in `[10, 30)` µs
    /// around `SPIKE_MEAN_NS`, derived from `(salt, key)` with a phase
    /// salt so it never correlates with the fire/no-fire hash.
    pub fn spike_keyed(&self, site: FaultSite, salt: u64, key: u64) -> Duration {
        let base = self.sites[site.index()].keyed_base;
        let h = splitmix64(splitmix64(base ^ SPIKE_PHASE ^ salt) ^ key);
        Duration::from_nanos(SPIKE_MEAN_NS / 2 + h % SPIKE_MEAN_NS)
    }

    /// Total decisions consulted at `site` (fired or not).
    pub fn decisions(&self, site: FaultSite) -> u64 {
        self.sites[site.index()].decisions
    }
}

/// Aggregate outcome of a faulted run, reported in `RunReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Faults the plan injected.
    pub injected: u64,
    /// Retransmission attempts made by the retry protocol.
    pub retried: u64,
    /// Times a degradation ladder was taken (per-request kernels, staged
    /// copy, backpressure requeue, forced delivery past a dead fabric).
    pub degraded: u64,
    /// Faults fully absorbed (retry succeeded, degradation completed,
    /// spurious event ignored, spike waited out).
    pub recovered: u64,
    /// Transfers whose retry budget (attempts or per-op deadline) ran out
    /// before a clean delivery; the final forced attempt still completes
    /// the exchange, but the overrun is reported here.
    pub deadline_exceeded: u64,
    /// Spurious protocol events dropped by idempotence guards (duplicate
    /// completions, stale ids after a waitall epoch).
    pub spurious: u64,
    /// Event-queue timestamp clamps observed during the run. A clean
    /// chaos run must not clamp: a clamp means some recovery path tried
    /// to schedule into the past, which silently reorders the timeline.
    pub event_clamps: u64,
    /// Extra virtual time charged by faults: wasted wire occupancy,
    /// timeouts, backoffs, spikes, watchdog rescues.
    pub added_latency: Duration,
}

impl FaultSummary {
    /// True when nothing at all was injected, degraded, or clamped.
    pub fn is_clean(&self) -> bool {
        *self == FaultSummary::default()
    }
}

impl fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected={} retried={} degraded={} recovered={} deadline_exceeded={} \
             spurious={} event_clamps={} added_latency={}",
            self.injected,
            self.retried,
            self.degraded,
            self.recovered,
            self.deadline_exceeded,
            self.spurious,
            self.event_clamps,
            self.added_latency
        )
    }
}

/// Bounded exponential backoff with deterministic jitter and a per-op
/// deadline, driving retransmission in the transfer protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before the sender stops waiting for clean delivery
    /// (includes the first transmission).
    pub max_attempts: u32,
    /// How long the sender waits for an ACK before declaring a loss.
    pub detect_timeout: Duration,
    /// Backoff before retry `k` is `base * factor^(k-1)`, capped at
    /// `backoff_max`, then jittered to `[1/2, 3/2)` of itself.
    pub backoff_base: Duration,
    pub backoff_factor: u32,
    pub backoff_max: Duration,
    /// Total extra time (timeouts + backoffs) one operation may accrue
    /// before the overrun is counted as `deadline_exceeded`.
    pub deadline: Duration,
}

impl RetryPolicy {
    /// Defaults tuned to the simulated interconnects: 10 µs loss
    /// detection, 5 µs initial backoff doubling to a 160 µs cap, five
    /// attempts, 1 ms per-op deadline.
    pub fn default_transfer() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            detect_timeout: Duration::from_micros(10),
            backoff_base: Duration::from_micros(5),
            backoff_factor: 2,
            backoff_max: Duration::from_micros(160),
            deadline: Duration::from_millis(1),
        }
    }

    /// Nominal (pre-jitter) backoff before retry attempt `attempt`
    /// (1-based): exponential growth capped at `backoff_max`.
    fn nominal(&self, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(20);
        self.backoff_base
            .as_nanos()
            .saturating_mul(u64::from(self.backoff_factor).saturating_pow(exp))
            .min(self.backoff_max.as_nanos())
    }

    /// Backoff before retry attempt `attempt` (1-based: the wait after the
    /// first failed transmission is `backoff_keyed(1, ..)`). Exponential
    /// growth capped at `backoff_max`, with deterministic jitter mapping
    /// the nominal value to `[1/2, 3/2)` of itself. The jitter derives
    /// from `(seed, key, attempt)` via [`splitmix64`], not a shared RNG
    /// stream, so one transfer's backoffs do not depend on how many other
    /// transfers are retrying.
    pub fn backoff_keyed(&self, attempt: u32, seed: u64, key: u64) -> Duration {
        let nominal = self.nominal(attempt);
        if nominal == 0 {
            return Duration::ZERO;
        }
        let h = splitmix64(splitmix64(seed ^ (FAULT_STREAM_TAG << 32) ^ u64::from(attempt)) ^ key);
        Duration::from_nanos(nominal / 2 + h % nominal.max(1))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::default_transfer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_never_fires_and_never_draws() {
        let mut plan = FaultPlan::new(42);
        for _ in 0..1000 {
            for s in FaultSite::ALL {
                assert!(!plan.fires(s, 0));
                assert!(!plan.fires_keyed(s, 0, 7));
            }
        }
        // No streams may have been created or advanced: a fresh plan's
        // spikes match the exercised plan's exactly.
        let mut fresh = FaultPlan::uniform(42, 1.0);
        let mut used = {
            let mut p = FaultPlan::new(42);
            for _ in 0..1000 {
                for s in FaultSite::ALL {
                    p.fires(s, 0);
                }
            }
            // Arm after the fact; the streams must not have advanced.
            for s in FaultSite::ALL {
                p = p.with(s, FaultSpec::with_probability(1.0));
            }
            p
        };
        for s in FaultSite::ALL {
            assert_eq!(used.spike(s, 0).as_nanos(), fresh.spike(s, 0).as_nanos());
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let mk = || FaultPlan::uniform(7, 0.3);
        let mut a = mk();
        let mut b = mk();
        let mut fired = 0;
        for i in 0..500u64 {
            for s in FaultSite::ALL {
                let (ranked, keyed) = (a.fires(s, 3), a.fires_keyed(s, 2, i));
                assert_eq!(ranked, b.fires(s, 3));
                assert_eq!(keyed, b.fires_keyed(s, 2, i));
                fired += usize::from(ranked) + usize::from(keyed);
            }
        }
        assert!(fired > 0, "p=0.3 over 12k decisions must fire");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::uniform(1, 0.5);
        let mut b = FaultPlan::uniform(2, 0.5);
        let diffs = (0..200)
            .filter(|_| a.fires(FaultSite::LinkDrop, 0) != b.fires(FaultSite::LinkDrop, 0))
            .count();
        assert!(diffs > 10, "seeds should disagree sometimes: {diffs}");
        let keyed_diffs = (0..200u64)
            .filter(|&i| {
                a.fires_keyed(FaultSite::HopDown, 4, i) != b.fires_keyed(FaultSite::HopDown, 4, i)
            })
            .count();
        assert!(
            keyed_diffs > 10,
            "keyed draws should diverge: {keyed_diffs}"
        );
    }

    #[test]
    fn sites_are_independent_streams() {
        // Arming LinkDrop must not perturb LinkDelay's decision sequence.
        let drops_only = {
            let mut p =
                FaultPlan::new(9).with(FaultSite::LinkDelay, FaultSpec::with_probability(0.4));
            (0..300)
                .map(|_| p.fires(FaultSite::LinkDelay, 1))
                .collect::<Vec<_>>()
        };
        let both = {
            let mut p = FaultPlan::new(9)
                .with(FaultSite::LinkDelay, FaultSpec::with_probability(0.4))
                .with(FaultSite::LinkDrop, FaultSpec::with_probability(0.4));
            (0..300)
                .map(|_| {
                    p.fires(FaultSite::LinkDrop, 1);
                    p.fires(FaultSite::LinkDelay, 1)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(drops_only, both);
    }

    #[test]
    fn ranks_are_independent_streams() {
        // Rank 5's decision sequence must not depend on how often other
        // ranks consulted the same site.
        let alone = {
            let mut p =
                FaultPlan::new(31).with(FaultSite::LinkDrop, FaultSpec::with_probability(0.4));
            (0..300)
                .map(|_| p.fires(FaultSite::LinkDrop, 5))
                .collect::<Vec<_>>()
        };
        let interleaved = {
            let mut p =
                FaultPlan::new(31).with(FaultSite::LinkDrop, FaultSpec::with_probability(0.4));
            (0..300)
                .map(|i| {
                    // A varying number of draws on *other* ranks (0..=4)
                    // between each of rank 5's draws.
                    for r in 0..=(i % 5) {
                        p.fires(FaultSite::LinkDrop, r);
                    }
                    p.fires(FaultSite::LinkDrop, 5)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(alone, interleaved);
    }

    #[test]
    fn keyed_draws_are_order_independent() {
        // The same (salt, key) set evaluated in any order gives the same
        // fire set.
        let mut p = FaultPlan::new(11).with(FaultSite::HopFlap, FaultSpec::with_probability(0.3));
        let forward: Vec<bool> = (0..200u64)
            .map(|k| p.fires_keyed(FaultSite::HopFlap, 9, k))
            .collect();
        let mut q = FaultPlan::new(11).with(FaultSite::HopFlap, FaultSpec::with_probability(0.3));
        let mut backward: Vec<(u64, bool)> = (0..200u64)
            .rev()
            .map(|k| (k, q.fires_keyed(FaultSite::HopFlap, 9, k)))
            .collect();
        backward.sort_by_key(|&(k, _)| k);
        assert_eq!(
            forward,
            backward.iter().map(|&(_, f)| f).collect::<Vec<_>>()
        );
        // And spikes are pure functions of the coordinates.
        assert_eq!(
            p.spike_keyed(FaultSite::HopFlap, 9, 77),
            q.spike_keyed(FaultSite::HopFlap, 9, 77)
        );
    }

    #[test]
    fn spike_is_bounded_around_mean() {
        let mut p = FaultPlan::new(3).with(FaultSite::LinkDelay, FaultSpec::with_probability(1.0));
        for i in 0..1000u64 {
            let d = p.spike(FaultSite::LinkDelay, 0).as_nanos();
            assert!((10_000..30_000).contains(&d), "spike {d} out of [d/2,3d/2)");
            let dk = p.spike_keyed(FaultSite::LinkDelay, 1, i).as_nanos();
            assert!(
                (10_000..30_000).contains(&dk),
                "keyed spike {dk} out of range"
            );
        }
    }

    #[test]
    fn backoff_grows_caps_and_jitters_in_range() {
        let pol = RetryPolicy::default_transfer();
        let mut prev_nominal = 0u64;
        for attempt in 1..=8 {
            let nominal = pol
                .backoff_base
                .as_nanos()
                .saturating_mul(u64::from(pol.backoff_factor).saturating_pow(attempt - 1))
                .min(pol.backoff_max.as_nanos());
            assert!(nominal >= prev_nominal, "monotone until the cap");
            prev_nominal = nominal;
            for key in 0..64 {
                let b = pol.backoff_keyed(attempt, 42, key).as_nanos();
                assert!(
                    b >= nominal / 2 && b < nominal / 2 + nominal,
                    "attempt {attempt}: backoff {b} outside jitter window of {nominal}"
                );
            }
        }
        // Deterministic for fixed coordinates, jittered across keys.
        assert_eq!(pol.backoff_keyed(3, 9, 81), pol.backoff_keyed(3, 9, 81));
        let draws: std::collections::HashSet<_> =
            (0..16).map(|key| pol.backoff_keyed(3, 9, key)).collect();
        assert!(draws.len() > 1, "jitter varies with the key");
    }

    #[test]
    fn event_clamps_break_cleanliness() {
        // The chaos baseline hard-fail relies on clamps folding into
        // is_clean(): a run that schedules into the past is not clean even
        // if nothing was injected.
        assert!(FaultSummary::default().is_clean());
        let summary = FaultSummary {
            event_clamps: 1,
            ..FaultSummary::default()
        };
        assert!(!summary.is_clean());
    }

    #[test]
    fn labels_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in FaultSite::ALL {
            assert!(seen.insert(s.label()), "duplicate label {}", s.label());
            assert_eq!(format!("{s}"), s.label());
        }
        assert_eq!(seen.len(), FaultSite::ALL.len());
    }

    #[test]
    fn splitmix_is_stable() {
        // Reference values for the canonical SplitMix64 sequence starting
        // from 0 — pins the hash so recorded chaos reports stay replayable.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(splitmix64(0)), 0xa706_dd2f_4d19_7e6f);
    }
}
