//! Release-mode guard: a route miss on a faulted fabric costs about what a
//! cold miss on a healthy one does.
//!
//! Every hop that goes down clears the route cache, so each pair in flight
//! re-resolves once per route epoch around the dead set. Tables keyed by
//! the whole dead set, a second walk of the unrestricted route to count
//! reroutes, and a sorted candidate list per step made that miss cost
//! about two and a half healthy cold misses, and a faulted halo spent a
//! fifth of its run there.
//!
//! The guard takes the endpoint pairs of a 512-rank 8³ torus halo on
//! `Hierarchy::lassen_like(128)` (4 GPUs a node, 3,072 directed pairs).
//! The faulted side kills 100 fabric hops one by one with
//! `TopoNet::force_hop_down` and re-resolves every pair after each. The
//! healthy side resolves the same pairs cold, 100 times, each on a freshly
//! built topology and network. Both sides run interleaved in one process,
//! and the fastest of each side's samples, in ns per resolution, are
//! compared: the faulted one must stay within 1.5x of the healthy one.
//! Measured on a 2-vCPU Xeon VM: 1.00–1.12x over ten processes, against
//! 2.42–2.62x with BFS tables kept per (destination, whole dead set) in a
//! SipHash map and a second resolution per miss to count reroutes.
//!
//! Debug builds skip the guard — unoptimised timing proves nothing.

#![cfg(not(debug_assertions))]

use fusedpack_net::{Endpoint, Hierarchy, HopId, HopKind, TopoNet, Topology};
use fusedpack_sim::{splitmix64, Time};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const GRID: u32 = 8;
const GPUS: u32 = 4;
const DOWNS: usize = 100;
const SAMPLES: usize = 7;
const BOUND: f64 = 1.5;

/// The directed endpoint pairs of a periodic `GRID`³ halo, rank `r` on
/// GPU `r % GPUS` of node `r / GPUS`.
fn halo_pairs() -> Vec<(Endpoint, Endpoint)> {
    let at = |x: u32, y: u32, z: u32| {
        let r = x % GRID + GRID * (y % GRID + GRID * (z % GRID));
        Endpoint::new(r / GPUS, r % GPUS)
    };
    let mut pairs = Vec::new();
    for z in 0..GRID {
        for y in 0..GRID {
            for x in 0..GRID {
                let me = at(x, y, z);
                for (dx, dy, dz) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
                    for far in [GRID - 1, 1] {
                        let peer = at(x + dx * far, y + dy * far, z + dz * far);
                        pairs.push((me, peer));
                    }
                }
            }
        }
    }
    pairs
}

fn topology() -> Arc<Hierarchy> {
    Arc::new(Hierarchy::lassen_like(GRID * GRID * GRID / GPUS))
}

/// `DOWNS` distinct fabric hops in a fixed pseudo-random order.
fn victims(topo: &Hierarchy) -> Vec<HopId> {
    let mut fabric: Vec<HopId> = (0..topo.hops().len() as u32)
        .map(HopId)
        .filter(|h| {
            matches!(
                topo.hops()[h.0 as usize].kind,
                HopKind::Rail | HopKind::LeafSpine
            )
        })
        .collect();
    let mut state = 7;
    (0..DOWNS)
        .map(|_| {
            state = splitmix64(state);
            fabric.swap_remove((state % fabric.len() as u64) as usize)
        })
        .collect()
}

/// Resolve every pair once, returning the elapsed host ns.
fn sweep(net: &mut TopoNet, pairs: &[(Endpoint, Endpoint)]) -> u64 {
    let start = Instant::now();
    for &key in pairs {
        let _ = black_box(net.resolve(black_box(key)).map(|r| r.len()));
    }
    start.elapsed().as_nanos() as u64
}

/// ns per resolution with each pair re-resolved after every hop down.
fn faulted(pairs: &[(Endpoint, Endpoint)], victims: &[HopId]) -> f64 {
    let mut net = TopoNet::new(topology());
    sweep(&mut net, pairs);
    let mut ns = 0;
    for &hop in victims {
        net.force_hop_down(hop, Time::ZERO);
        ns += sweep(&mut net, pairs);
        net.drain_fabric_events();
    }
    ns as f64 / (victims.len() * pairs.len()) as f64
}

/// ns per resolution with each pair resolved cold on a fresh fabric.
fn healthy(pairs: &[(Endpoint, Endpoint)]) -> f64 {
    let ns: u64 = (0..DOWNS)
        .map(|_| sweep(&mut TopoNet::new(topology()), pairs))
        .sum();
    ns as f64 / (DOWNS * pairs.len()) as f64
}

#[test]
fn faulted_route_misses_cost_about_a_healthy_cold_miss() {
    let pairs = halo_pairs();
    assert_eq!(pairs.len(), 6 * 512);
    let victims = victims(&topology());
    let (mut best_faulted, mut best_healthy) = (f64::INFINITY, f64::INFINITY);
    for round in 0..SAMPLES {
        // Alternate which side runs first so drift hits both.
        if round % 2 == 0 {
            best_faulted = best_faulted.min(faulted(&pairs, &victims));
            best_healthy = best_healthy.min(healthy(&pairs));
        } else {
            best_healthy = best_healthy.min(healthy(&pairs));
            best_faulted = best_faulted.min(faulted(&pairs, &victims));
        }
    }
    let ratio = best_faulted / best_healthy;
    eprintln!(
        "reroute guard: faulted {best_faulted:.0} ns, healthy cold {best_healthy:.0} ns \
         per resolution, ratio {ratio:.2}x (bound {BOUND}x)"
    );
    assert!(
        ratio <= BOUND,
        "a faulted route miss costs {ratio:.2}x a healthy cold miss \
         ({best_faulted:.0} ns against {best_healthy:.0} ns); the bound is {BOUND}x"
    );
}
