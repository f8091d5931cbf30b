//! Property tests for the routing invariants the topology subsystem
//! promises (ISSUE: symmetry, determinism, congestion reconciliation).
//!
//! * **Symmetry** — `route(a, b)` is the reverse of `route(b, a)` on every
//!   hierarchical topology, for arbitrary endpoint pairs.
//! * **Determinism** — the same pair resolves to the same hop sequence on
//!   any thread (the `--jobs N` sweep workers each build their own
//!   clusters; routes must not depend on resolution order or thread).
//! * **Reconciliation** — after an arbitrary transfer schedule, per-hop
//!   byte counters equal the sum of `bytes × |route|` over the schedule,
//!   hop by hop.
//! * **Typed errors** — malformed endpoints produce [`NetError`] values,
//!   never panics.
//! * **Fault-domain safety** — with arbitrary hops forced down, a
//!   re-resolved route never traverses a downed hop (pairs with no
//!   surviving path report `Disconnected`); byte and busy counters still
//!   reconcile exactly across fail/reroute cycles; and the keyed fault
//!   draws the fabric sites ride are pure functions of their coordinates,
//!   independent of evaluation order, so a seeded chaos run replays
//!   exactly (`mpi/tests/chaos.rs` and the bench chaos-topo grid).
//! * **Forced delivery never beats a healthy fabric** — once hops die
//!   until a pair is severed, its forced transfer completes no sooner than
//!   the same transfer on the healthy route over the same occupancy.
//! * **Re-resolution is exact** — a topology that has already served other
//!   dead sets, on one thread or two at once, answers every pair as a
//!   freshly built one does, and both agree with a reference resolver
//!   written here from the routing rule (BFS from the destination, sorted
//!   downhill candidates, pick by the unordered pair).

use fusedpack_net::topology::route::{FabricGraph, Router};
use fusedpack_net::{Endpoint, Hierarchy, HopId, HopKind, HopState, NetError, TopoNet, Topology};
use fusedpack_sim::{Duration, FaultPlan, FaultSite, Time};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const NODES: u32 = 48; // 3 leaves / 3 groups of 16
const GPUS: u32 = 4;

fn presets() -> [Hierarchy; 2] {
    [Hierarchy::lassen_like(NODES), Hierarchy::abci_like(NODES)]
}

/// An arbitrary endpoint pair; pairs where both ends coincide are folded
/// onto a fixed distinct pair (the vendored proptest has no `prop_filter`).
fn distinct_pair() -> impl Strategy<Value = (Endpoint, Endpoint)> {
    (0..NODES, 0..GPUS, 0..NODES, 0..GPUS).prop_map(|(an, ag, bn, bg)| {
        let (a, b) = (Endpoint::new(an, ag), Endpoint::new(bn, bg));
        if a == b {
            (Endpoint::new(an, ag), Endpoint::new((an + 1) % NODES, ag))
        } else {
            (a, b)
        }
    })
}

proptest! {
    /// route(a, b) reversed is exactly route(b, a), on both machines.
    #[test]
    fn routes_are_symmetric((a, b) in distinct_pair()) {
        for t in presets() {
            let fwd = t.route(a, b).expect("valid endpoints route");
            let mut rev = t.route(b, a).expect("valid endpoints route");
            rev.reverse();
            prop_assert_eq!(&fwd, &rev, "{} -> {:?}/{:?}", t.name(), a, b);
        }
    }

    /// Route lengths follow the machine shape: 1 crossbar hop intra-node;
    /// fat-tree 2 (same leaf) or 4 (cross leaf); dragonfly +2 host-bounce
    /// hops on top of 2 (same group) or 3 (cross group).
    #[test]
    fn route_lengths_match_the_fabric_shape((a, b) in distinct_pair()) {
        let [lassen, abci] = presets();
        if a.node == b.node {
            prop_assert_eq!(lassen.route(a, b).unwrap().len(), 1);
            prop_assert_eq!(abci.route(a, b).unwrap().len(), 1);
        } else {
            let same_pod = a.node / 16 == b.node / 16;
            let want_ft = if same_pod { 2 } else { 4 };
            let want_df = if same_pod { 4 } else { 5 };
            prop_assert_eq!(lassen.route(a, b).unwrap().len(), want_ft);
            prop_assert_eq!(abci.route(a, b).unwrap().len(), want_df);
        }
    }

    /// The same pair resolves identically on every thread — the property
    /// the `--jobs N` determinism CI job leans on.
    #[test]
    fn routes_are_deterministic_across_threads(pairs in proptest::collection::vec(distinct_pair(), 1..8)) {
        for t in presets() {
            let t = &t;
            let reference: Vec<Vec<HopId>> = pairs
                .iter()
                .map(|&(a, b)| t.route(a, b).unwrap())
                .collect();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|worker| {
                        let pairs = &pairs;
                        let reference = &reference;
                        s.spawn(move || {
                            // Each worker resolves in a different order.
                            for i in 0..pairs.len() {
                                let j = (i + worker) % pairs.len();
                                let (a, b) = pairs[j];
                                assert_eq!(t.route(a, b).unwrap(), reference[j]);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("resolver thread");
                }
            });
        }
    }

    /// Per-hop congestion byte totals reconcile exactly with the transfer
    /// schedule: each hop carried the sum of the bytes of every transfer
    /// routed across it, and nothing else.
    #[test]
    fn hop_byte_counters_reconcile_with_the_schedule(
        transfers in proptest::collection::vec((distinct_pair(), 1u64..1_000_000), 1..24)
    ) {
        for build in [Hierarchy::lassen_like as fn(u32) -> Hierarchy, Hierarchy::abci_like] {
            let mut net = TopoNet::new(Arc::new(build(NODES)));
            let mut expected: HashMap<u32, u64> = HashMap::new();
            for &((a, b), bytes) in &transfers {
                let timing = net.transmit(Time(0), (a, b), bytes, None).unwrap();
                prop_assert!(timing.delivered > timing.start);
                for hop in net.resolve((a, b)).unwrap().iter() {
                    *expected.entry(hop.0).or_default() += bytes;
                }
            }
            for (i, stat) in net.hop_stats().iter().enumerate() {
                prop_assert_eq!(
                    stat.bytes,
                    expected.get(&(i as u32)).copied().unwrap_or(0),
                    "hop {} ({})", i, stat.kind
                );
                prop_assert_eq!(stat.wasted, 0u64);
            }
        }
    }

    /// Malformed endpoints produce typed errors; nothing in the resolution
    /// path panics or unwraps.
    #[test]
    fn invalid_endpoints_yield_typed_errors(
        (an, ag, bn, bg) in (0..2 * NODES, 0..2 * GPUS, 0..2 * NODES, 0..2 * GPUS)
    ) {
        let (a, b) = (Endpoint::new(an, ag), Endpoint::new(bn, bg));
        for t in presets() {
            match t.route(a, b) {
                Ok(route) => {
                    prop_assert!(!route.is_empty());
                    prop_assert!(an < NODES && bn < NODES && ag < GPUS && bg < GPUS);
                    prop_assert_ne!(a, b);
                }
                Err(NetError::NodeOutOfRange { node, num_nodes }) => {
                    prop_assert!(node >= num_nodes);
                }
                Err(NetError::GpuOutOfRange { gpu, gpus_per_node }) => {
                    prop_assert!(gpu >= gpus_per_node);
                }
                Err(NetError::SelfRoute { .. }) => prop_assert_eq!(a, b),
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }

    /// ECMP tie-breaking is stable under table rebuilds: two independently
    /// constructed routers over the same graph shape agree on every path.
    #[test]
    fn ecmp_choice_survives_rebuilds(pairs in proptest::collection::vec((0u32..12, 0u32..12), 1..8)) {
        let build = || {
            let mut g = FabricGraph::new(12);
            let mut next = 0u32;
            let mut hop = || {
                next += 1;
                HopId(next - 1)
            };
            let leaves = [g.add_switch(), g.add_switch(), g.add_switch()];
            let spines = [g.add_switch(), g.add_switch()];
            for n in 0..12u32 {
                g.add_edge(n, leaves[(n / 4) as usize], hop());
            }
            for &l in &leaves {
                for &s in &spines {
                    g.add_edge(l, s, hop());
                }
            }
            Router::new(g)
        };
        let (ra, rb) = (build(), build());
        for &(a, b) in &pairs {
            if a == b {
                continue;
            }
            prop_assert_eq!(ra.path(a, b).unwrap(), rb.path(a, b).unwrap());
        }
    }

    /// With arbitrary hops administratively downed, every route the
    /// network still hands out avoids every downed hop; pairs with no
    /// surviving path report `Disconnected`, never a dead route.
    #[test]
    fn rerouted_paths_never_traverse_downed_hops(
        (a, b) in distinct_pair(),
        kills in proptest::collection::vec(0u32..4096, 1..6),
    ) {
        for build in [Hierarchy::lassen_like as fn(u32) -> Hierarchy, Hierarchy::abci_like] {
            let mut net = TopoNet::new(Arc::new(build(NODES)));
            let n_hops = net.topology().hops().len() as u32;
            for k in &kills {
                net.force_hop_down(HopId(k % n_hops), Time(0));
            }
            match net.resolve((a, b)) {
                Ok(route) => {
                    let route: Vec<HopId> = route.to_vec();
                    for hop in route {
                        prop_assert!(
                            net.hop_state(hop) != HopState::Down,
                            "route for {:?}/{:?} crosses downed hop {:?}",
                            a, b, hop
                        );
                    }
                }
                Err(NetError::Disconnected { .. }) => {}
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }

    /// Byte and busy counters reconcile exactly with the per-transmit hop
    /// spans even as hops die mid-schedule and traffic reroutes: each
    /// surviving hop carried exactly the bytes of the transfers routed
    /// across it *at the time they ran*, and its occupancy equals the sum
    /// of their wire spans. Severed pairs' forced sends occupy their
    /// pre-fault route, and their spans count like any other.
    #[test]
    fn hop_counters_reconcile_across_fail_reroute_cycles(
        transfers in proptest::collection::vec((distinct_pair(), 1u64..1_000_000), 4..24),
        kill_every in 2usize..5,
    ) {
        for build in [Hierarchy::lassen_like as fn(u32) -> Hierarchy, Hierarchy::abci_like] {
            let mut net = TopoNet::new(Arc::new(build(NODES)));
            let mut bytes_by_hop: HashMap<u32, u64> = HashMap::new();
            let mut busy_by_hop: HashMap<u32, Duration> = HashMap::new();
            for (i, &((a, b), bytes)) in transfers.iter().enumerate() {
                match net.transmit(Time(0), (a, b), bytes, None) {
                    Ok(timing) => {
                        prop_assert!(timing.delivered > timing.start);
                        // Routes change under us, so the ground truth is
                        // the hop spans of *this* transmit, not a
                        // resolve-once route table.
                        for &(hop, start, wire_done) in net.last_hops() {
                            *bytes_by_hop.entry(hop).or_default() += bytes;
                            *busy_by_hop.entry(hop).or_default() += wire_done - start;
                        }
                        if i % kill_every == kill_every - 1 {
                            // Kill the first hop this transfer crossed;
                            // later transfers must reroute around it.
                            let victim = net.last_hops().first().map(|&(h, _, _)| h);
                            if let Some(h) = victim {
                                net.force_hop_down(HopId(h), Time(0));
                            }
                        }
                    }
                    Err(e) => prop_assert!(false, "unexpected error {e}"),
                }
            }
            for (i, stat) in net.hop_stats().iter().enumerate() {
                prop_assert_eq!(
                    stat.bytes,
                    bytes_by_hop.get(&(i as u32)).copied().unwrap_or(0),
                    "bytes on hop {} ({})", i, stat.kind
                );
                prop_assert_eq!(
                    stat.busy,
                    busy_by_hop.get(&(i as u32)).copied().unwrap_or(Duration::ZERO),
                    "busy on hop {} ({})", i, stat.kind
                );
                prop_assert_eq!(stat.wasted, 0u64);
            }
        }
    }

    /// Keyed fault draws are pure functions of `(plan seed, site, salt,
    /// key)`: evaluating the same coordinates in any order — forward,
    /// reversed, or interleaved across two plan instances — produces the
    /// identical decision sequence.
    #[test]
    fn keyed_fault_draws_are_order_independent(
        seed in 0u64..u64::MAX,
        coords in proptest::collection::vec((0u64..64, 0u64..1 << 48), 1..32),
    ) {
        let mut fwd = FaultPlan::uniform(seed, 0.3);
        let mut rev = FaultPlan::uniform(seed, 0.3);
        for site in [FaultSite::HopFlap, FaultSite::RailDegrade, FaultSite::HopDown] {
            let forward: Vec<bool> = coords
                .iter()
                .map(|&(salt, key)| fwd.fires_keyed(site, salt, key))
                .collect();
            let mut backward: Vec<bool> = coords
                .iter()
                .rev()
                .map(|&(salt, key)| rev.fires_keyed(site, salt, key))
                .collect();
            backward.reverse();
            prop_assert_eq!(&forward, &backward, "{:?} draws depend on order", site);
            let spikes_fwd: Vec<_> = coords
                .iter()
                .map(|&(salt, key)| fwd.spike_keyed(site, salt, key))
                .collect();
            let mut spikes_rev: Vec<_> = coords
                .iter()
                .rev()
                .map(|&(salt, key)| rev.spike_keyed(site, salt, key))
                .collect();
            spikes_rev.reverse();
            prop_assert_eq!(spikes_fwd, spikes_rev);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Metamorphic: two networks carry the same prior traffic; in one,
    /// hops on the pair's route die until the pair is severed. The severed
    /// pair's transfer is forced, yet it completes no sooner than the same
    /// transfer over the healthy network — dead hops never buy speed.
    #[test]
    fn forced_delivery_never_beats_the_healthy_route(
        (a, b) in distinct_pair(),
        prior in proptest::collection::vec((distinct_pair(), 1u64..1_000_000), 0..16),
        bytes in 1u64..4_000_000,
        at in 0u64..200_000,
    ) {
        for build in [Hierarchy::lassen_like as fn(u32) -> Hierarchy, Hierarchy::abci_like] {
            let mut healthy = TopoNet::new(Arc::new(build(NODES)));
            let mut severed = TopoNet::new(Arc::new(build(NODES)));
            for (i, &(pair, n)) in prior.iter().enumerate() {
                let t = Time(i as u64 * 1_000);
                healthy.transmit(t, pair, n, None).unwrap();
                severed.transmit(t, pair, n, None).unwrap();
            }
            // Kill the first hop of whatever route the pair would take
            // next until none survives (both rails of a fat-tree node, a
            // dragonfly host complex, a crossbar segment).
            let mut kills = 0;
            while let Ok(route) = severed.resolve((a, b)) {
                let victim = route[0];
                severed.force_hop_down(victim, Time(0));
                kills += 1;
                prop_assert!(kills <= 8, "pair {a:?}/{b:?} never severed");
            }
            let forced = severed.transmit(Time(at), (a, b), bytes, None).unwrap();
            let fair = healthy.transmit(Time(at), (a, b), bytes, None).unwrap();
            prop_assert!(forced.forced && !fair.forced);
            prop_assert!(
                forced.delivered >= fair.delivered,
                "forced {:?} beat healthy {:?} for {:?}/{:?}",
                forced.delivered, fair.delivered, a, b
            );
            prop_assert_eq!(severed.fabric_health().disconnects, 1);
        }
    }
}

const EXACT_NODES: u32 = 32; // 2 leaves / 2 groups of 16

/// The routing rule stated plainly, over a preset's fabric rebuilt here
/// edge by edge: a BFS from the destination per query, and at every step
/// the downhill candidates collected, sorted by `(neighbor, hop)` and
/// picked by the unordered pair.
struct Reference {
    /// Per vertex (nodes first, then switches): `(neighbor, hop)`.
    adj: Vec<Vec<(u32, u32)>>,
    /// Hop id of node 0's host-path hop, on machines that model it.
    host_base: Option<u32>,
}

impl Reference {
    /// The fabric `Hierarchy::lassen_like` / `abci_like` build: per-pair
    /// crossbars, then host paths (abci-like), then two rails per node in
    /// node order, then leaf-spine links (4 spines) or the global links
    /// between group routers, pods of 16 nodes.
    fn of(t: &Hierarchy) -> Self {
        let n = t.num_nodes();
        let gpus = t.gpus_per_node();
        let dragonfly = t.name() == "abci-like";
        let xbars = n * gpus * (gpus - 1) / 2;
        let pods = n.div_ceil(16);
        let switches = if dragonfly { pods } else { pods + 4 };
        let mut adj = vec![Vec::new(); (n + switches) as usize];
        let mut next = xbars + if dragonfly { n } else { 0 };
        let mut edge = |a: u32, b: u32, kind: HopKind| {
            assert_eq!(t.hops()[next as usize].kind, kind, "hop {next}");
            adj[a as usize].push((b, next));
            adj[b as usize].push((a, next));
            next += 1;
        };
        for node in 0..n {
            for _rail in 0..2 {
                edge(node, n + node / 16, HopKind::Rail);
            }
        }
        if dragonfly {
            for i in 0..pods {
                for j in i + 1..pods {
                    edge(n + i, n + j, HopKind::Global);
                }
            }
        } else {
            for leaf in 0..pods {
                for spine in 0..4 {
                    edge(n + leaf, n + pods + spine, HopKind::LeafSpine);
                }
            }
        }
        assert_eq!(next as usize, t.hops().len(), "every hop rebuilt");
        Reference {
            adj,
            host_base: dragonfly.then_some(xbars),
        }
    }

    /// Hop ids of the fabric (the hops a reroute can avoid).
    fn fabric_hops(&self) -> Vec<u32> {
        let mut hops: Vec<u32> = self.adj.iter().flatten().map(|&(_, h)| h).collect();
        hops.sort_unstable();
        hops.dedup();
        hops
    }

    /// The route between two distinct nodes avoiding the sorted `dead`
    /// set, or `None` when it is severed.
    fn route(&self, a: u32, b: u32, dead: &[u32]) -> Option<Vec<HopId>> {
        let is_dead = |h: u32| dead.binary_search(&h).is_ok();
        let hosts: Vec<u32> = self
            .host_base
            .map(|base| vec![base + a, base + b])
            .unwrap_or_default();
        if hosts.iter().any(|&h| is_dead(h)) {
            return None;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let mut dist = vec![u32::MAX; self.adj.len()];
        let mut queue = std::collections::VecDeque::from([hi]);
        dist[hi as usize] = 0;
        while let Some(v) = queue.pop_front() {
            for &(n, h) in &self.adj[v as usize] {
                if !is_dead(h) && dist[n as usize] == u32::MAX {
                    dist[n as usize] = dist[v as usize] + 1;
                    queue.push_back(n);
                }
            }
        }
        if dist[lo as usize] == u32::MAX {
            return None;
        }
        let spread = (lo as u64)
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(hi as u64);
        let mut fabric = Vec::new();
        let mut at = lo;
        while at != hi {
            let d = dist[at as usize];
            let mut candidates: Vec<(u32, u32)> = self.adj[at as usize]
                .iter()
                .copied()
                .filter(|&(n, h)| !is_dead(h) && dist[n as usize].wrapping_add(1) == d)
                .collect();
            candidates.sort_unstable();
            let (n, h) = candidates[(spread % candidates.len() as u64) as usize];
            fabric.push(HopId(h));
            at = n;
        }
        if a > b {
            fabric.reverse();
        }
        let mut hops: Vec<HopId> = hosts.first().map(|&h| HopId(h)).into_iter().collect();
        hops.extend(fabric);
        hops.extend(hosts.last().map(|&h| HopId(h)));
        Some(hops)
    }
}

/// Every ordered pair of distinct nodes, on GPU 0 at one end and GPU 1 at
/// the other.
fn node_pairs() -> Vec<(Endpoint, Endpoint)> {
    (0..EXACT_NODES)
        .flat_map(|a| (0..EXACT_NODES).map(move |b| (a, b)))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (Endpoint::new(a, 0), Endpoint::new(b, 1)))
        .collect()
}

/// `t`'s answer for every pair under `dead`, with a severed pair as `None`.
fn answers(t: &Hierarchy, pairs: &[(Endpoint, Endpoint)], dead: &[u32]) -> Vec<Option<Vec<HopId>>> {
    pairs
        .iter()
        .map(|&(a, b)| match t.route_avoiding(a, b, dead) {
            Ok(route) => Some(route),
            Err(NetError::Disconnected { .. }) => None,
            Err(e) => panic!("{a:?} -> {b:?}: unexpected error {e}"),
        })
        .collect()
}

/// The growing dead sets of a kill sequence on `t`: after one kill, two,
/// ..., each sorted. An even draw kills a fabric hop, an odd one any hop
/// (a crossbar, a host path or a fabric hop).
fn dead_sets(t: &Hierarchy, kills: &[usize]) -> Vec<Vec<u32>> {
    let fabric = Reference::of(t).fabric_hops();
    let all = t.hops().len();
    let mut dead = Vec::new();
    kills
        .iter()
        .map(|&k| {
            let hop = if k % 2 == 0 {
                fabric[k / 2 % fabric.len()]
            } else {
                (k / 2 % all) as u32
            };
            if let Err(at) = dead.binary_search(&hop) {
                dead.insert(at, hop);
            }
            dead.clone()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One topology serves a growing dead set, going back to the previous
    /// set and to the healthy fabric between steps; at every step each
    /// pair's answer equals a freshly built topology's and the reference
    /// resolver's, and routes stay symmetric.
    #[test]
    fn re_resolution_matches_a_fresh_topology(kills in proptest::collection::vec(0usize..4096, 1..10)) {
        let pairs = node_pairs();
        for build in [Hierarchy::lassen_like as fn(u32) -> Hierarchy, Hierarchy::abci_like] {
            let served = build(EXACT_NODES);
            let reference = Reference::of(&served);
            let sets = dead_sets(&served, &kills);
            let mut previous: Vec<u32> = Vec::new();
            for dead in &sets {
                let fresh = answers(&build(EXACT_NODES), &pairs, dead);
                // The new set, back to the last one and to the healthy
                // fabric, each on a third of the pairs, then the new set on
                // all of them.
                let third = pairs.len() / 3;
                for (range, set) in [
                    (0..third, &dead[..]),
                    (third..2 * third, &previous[..]),
                    (2 * third..pairs.len(), &[][..]),
                ] {
                    let got = answers(&served, &pairs[range.clone()], set);
                    for (&(a, b), got) in pairs[range].iter().zip(&got) {
                        let want = reference.route(a.node, b.node, set);
                        prop_assert_eq!(got, &want, "{} {:?} -> {:?} dead {:?}", served.name(), a, b, set);
                    }
                }
                let got = answers(&served, &pairs, dead);
                for (i, &(a, b)) in pairs.iter().enumerate() {
                    prop_assert_eq!(&got[i], &fresh[i], "{} {:?} -> {:?} dead {:?}", served.name(), a, b, dead);
                    let want = reference.route(a.node, b.node, dead);
                    prop_assert_eq!(&got[i], &want, "{} {:?} -> {:?} dead {:?}", served.name(), a, b, dead);
                    let mut back = served.route_avoiding(b, a, dead).ok();
                    if let Some(route) = back.as_mut() {
                        route.reverse();
                    }
                    prop_assert_eq!(&back, &got[i], "asymmetric {:?} <-> {:?}", a, b);
                }
                previous = dead.clone();
            }
        }
    }

    /// Two threads share one topology and alternate between two dead sets,
    /// each starting on a different one, so each resolution may find the
    /// other set's tables in place: every answer equals a fresh topology's.
    #[test]
    fn re_resolution_is_exact_under_contention(
        kills in proptest::collection::vec(0usize..4096, 2..10),
        split in 1usize..9,
    ) {
        let pairs = node_pairs();
        for build in [Hierarchy::lassen_like as fn(u32) -> Hierarchy, Hierarchy::abci_like] {
            let shared = build(EXACT_NODES);
            let sets = dead_sets(&shared, &kills);
            let first = &sets[split.min(sets.len() - 1) - 1];
            let second = sets.last().expect("at least two kills");
            let fresh = [first, second].map(|dead| answers(&build(EXACT_NODES), &pairs, dead));
            let sides = [first.as_slice(), second.as_slice()];
            std::thread::scope(|s| {
                for worker in 0..2 {
                    let (shared, pairs, fresh) = (&shared, &pairs, &fresh);
                    s.spawn(move || {
                        for round in 0..6 {
                            let side = (round + worker) % 2;
                            for (i, &(a, b)) in pairs.iter().enumerate() {
                                let got = shared.route_avoiding(a, b, sides[side]).ok();
                                assert_eq!(got, fresh[side][i], "{a:?} -> {b:?} under set {side}");
                            }
                        }
                    });
                }
            });
        }
    }
}
