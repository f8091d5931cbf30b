//! Packed payloads move by ownership, and every byte still arrives.
//!
//! A staged message's packed bytes are one pooled buffer that changes
//! owner (send → wire → receive) instead of being copied, and the staging
//! pools only hand out addresses; a DirectIPC message copies layout to
//! layout and takes no buffer. These checks guard that:
//!
//! * a byte-verified matrix: random datatype trees (the shared
//!   `datatype/tests/common` generators) exchanged all-to-all by 2 nodes ×
//!   2 GPUs — so both the wire and, for the fused schemes, DirectIPC run —
//!   through every registered scheme, under RPUT and RGET, with and
//!   without a fault plan, on the flat fabric and on routed Lassen-like
//!   and ABCI-like ones; a faulted routed run also arms the fabric's
//!   per-hop sites (flaps, rail degradation, dead hops). The two nodes
//!   are the two copy lanes, so every off-node payload crosses lanes.
//!   Every receive buffer, gap bytes included, must equal host `pack` →
//!   `unpack` of the send buffer into zeros. The cluster
//!   itself asserts at run end that no operation still owns a payload and
//!   that the pool's takes balance its releases;
//! * independent send and receive types: two random trees of one packed
//!   size, exchanged all-to-all through every scheme with the 4 ranks on
//!   one node (all DirectIPC for the fused schemes) and on two; each
//!   receive must equal host `pack` of the send in its type → `unpack` in
//!   the receive's;
//! * a mixed-layout pair: a strided send received as a contiguous type of
//!   the same signature, through every scheme, with the ranks on one node
//!   (DirectIPC for the fused schemes) and on two;
//! * a deterministic work counter: a Full-mode halo on a 4³ torus takes
//!   exactly one pooled buffer per staged send that crosses copy lanes,
//!   none per staged send fused within a lane and none per DirectIPC
//!   message, and allocates none after its first lap;
//! * deferred packs with both ranks on one copy lane: a rank that
//!   receives into its own send buffer before its peer unpacks, strided or
//!   contiguous (a contiguous send is a deferred pack of one-byte
//!   elements), and an RGET read answer each deliver the bytes the send
//!   had when it was sent, and a contiguous receive fuses a deferred pack
//!   into one copy;
//! * a size check: a message whose packed size differs from its
//!   receive's panics when it is matched, over the wire and DirectIPC, in
//!   either data mode, instead of truncating or overrunning the unpack.

#[path = "../../datatype/tests/common/mod.rs"]
mod common;

use common::arb_type;
use fusedpack_datatype::pack::{pack, unpack};
use fusedpack_datatype::{CompiledLayout, TypeDesc};
use fusedpack_gpu::DataMode;
use fusedpack_gpu::PoolStats;
use fusedpack_mpi::{
    AppOp, BufId, BufInit, Cluster, ClusterBuilder, CopyStats, LaneStats, Program, RankId,
    RndvProtocol, SchemeRegistry, TypeSlot,
};
use fusedpack_net::{Hierarchy, Platform, Topology};
use fusedpack_sim::{FaultPlan, FaultSite, FaultSpec};
use fusedpack_workloads::halo::halo_programs;
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::HaloGrid;
use proptest::prelude::*;
use std::sync::Arc;

/// 2 nodes × 2 GPUs.
const NODES: u32 = 2;
const GPUS: u32 = 2;
const RANKS: u32 = NODES * GPUS;
const LAPS: usize = 2;
/// Largest buffer a message may span, to keep the matrix fast in debug.
const MAX_FOOTPRINT: u64 = 96 * 1024;

/// One message shape per peer: an eager-sized and a rendezvous-sized
/// count of the same type (the eager limit is 8 KiB), the same on both
/// sides.
fn counts(layout: &CompiledLayout) -> Vec<(u64, u64)> {
    let size = layout.total_bytes(1).max(1);
    [1, 8 * 1024 / size + 1].map(|c| (c, c)).to_vec()
}

/// Do `count` elements of every `(layout, count)` stay under
/// [`MAX_FOOTPRINT`]?
fn fits(sides: &[(&CompiledLayout, u64)]) -> bool {
    sides.iter().all(|(l, c)| l.footprint(*c) <= MAX_FOOTPRINT)
}

/// A random type whose rendezvous-sized message stays under
/// [`MAX_FOOTPRINT`].
fn random_type(rng: &mut TestRng) -> Arc<TypeDesc> {
    loop {
        let desc = arb_type(2).generate(rng);
        let layout = CompiledLayout::of(&desc);
        if layout.total_bytes(1) > 0 && counts(&layout).iter().all(|&(c, _)| fits(&[(&layout, c)]))
        {
            return desc;
        }
    }
}

/// Two independently drawn types and the `(send, receive)` counts that
/// give both sides one packed size: the least common multiple of the
/// element sizes (eager), and its smallest multiple past the eager limit
/// (rendezvous).
fn random_type_pair(rng: &mut TestRng) -> (Arc<TypeDesc>, Arc<TypeDesc>, Vec<(u64, u64)>) {
    loop {
        let (send, recv) = (arb_type(2).generate(rng), arb_type(2).generate(rng));
        let (sl, rl) = (CompiledLayout::of(&send), CompiledLayout::of(&recv));
        let (ss, rs) = (sl.total_bytes(1), rl.total_bytes(1));
        if ss == 0 || rs == 0 {
            continue;
        }
        let (mut a, mut b) = (ss, rs);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        let lcm = ss / a * rs;
        let counts: Vec<(u64, u64)> = [1, 8 * 1024 / lcm + 1]
            .map(|k| (k * lcm / ss, k * lcm / rs))
            .to_vec();
        if counts.iter().all(|&(c, d)| fits(&[(&sl, c), (&rl, d)])) {
            return (send, recv, counts);
        }
    }
}

/// One message of a rank's program: its peer, tag (the index of its
/// count pair), element counts on each side, and send and receive
/// buffers.
#[derive(Clone, Copy)]
struct Msg {
    peer: u32,
    tag: u32,
    send_count: u64,
    recv_count: u64,
    send: BufId,
    recv: BufId,
}

/// Every rank's program: `LAPS` rounds of receive-from-all, send-to-all,
/// `Waitall`, with one message per peer and count pair, sent as
/// `send_ty` and received as `recv_ty`.
fn all_to_all(
    send_ty: &Arc<TypeDesc>,
    recv_ty: &Arc<TypeDesc>,
    counts: &[(u64, u64)],
) -> Vec<(Program, Vec<Msg>)> {
    let (send_layout, recv_layout) = (CompiledLayout::of(send_ty), CompiledLayout::of(recv_ty));
    (0..RANKS)
        .map(|r| {
            let mut p = Program::new();
            let mut msgs = Vec::new();
            for peer in (0..RANKS).filter(|&q| q != r) {
                for (tag, &(send_count, recv_count)) in counts.iter().enumerate() {
                    let seed = 1000 * u64::from(r) + 10 * u64::from(peer) + tag as u64;
                    let send_len = send_layout.footprint(send_count).max(1);
                    let recv_len = recv_layout.footprint(recv_count).max(1);
                    msgs.push(Msg {
                        peer,
                        tag: tag as u32,
                        send_count,
                        recv_count,
                        send: p.buffer(send_len, BufInit::Random(seed)),
                        recv: p.buffer(recv_len, BufInit::Zero),
                    });
                }
            }
            for (slot, desc) in [send_ty, recv_ty].into_iter().enumerate() {
                p.push(AppOp::Commit {
                    slot: TypeSlot(slot),
                    desc: desc.clone(),
                });
            }
            for _ in 0..LAPS {
                p.push(AppOp::ResetTimer);
                for m in &msgs {
                    p.push(AppOp::Irecv {
                        buf: m.recv,
                        ty: TypeSlot(1),
                        count: m.recv_count,
                        src: RankId(m.peer),
                        tag: m.tag,
                    });
                }
                for m in &msgs {
                    p.push(AppOp::Isend {
                        buf: m.send,
                        ty: TypeSlot(0),
                        count: m.send_count,
                        dst: RankId(m.peer),
                        tag: m.tag,
                    });
                }
                p.push(AppOp::Waitall);
                p.push(AppOp::RecordLap);
            }
            (p, msgs)
        })
        .collect()
}

/// Every receive of an [`all_to_all`] run, gap bytes included, equals
/// host `pack` of its send in `send` → `unpack` in `recv` into zeros.
fn assert_delivered(
    cluster: &Cluster,
    msgs: &[Vec<Msg>],
    send: &CompiledLayout,
    recv: &CompiledLayout,
    label: &str,
) {
    for (r, mine) in msgs.iter().enumerate() {
        for m in mine {
            let sent = msgs[m.peer as usize]
                .iter()
                .find(|s| s.peer == r as u32 && s.tag == m.tag)
                .expect("the peer's matching send");
            let packed = pack(
                cluster.rank_bytes(RankId(m.peer), sent.send),
                send,
                sent.send_count,
            );
            let got = cluster.rank_bytes(RankId(r as u32), m.recv);
            let mut want = vec![0u8; got.len()];
            unpack(&packed, recv, m.recv_count, &mut want);
            assert!(
                got == want,
                "{label}: rank {r} from {}, count {}",
                m.peer,
                m.recv_count
            );
        }
    }
}

/// The wire and ring faults that reach payload ownership: retried
/// transfers, duplicated completions, and refused ring enqueues (which
/// requeue or fall back to the synchronous path).
fn fault_plan(seed: u64) -> FaultPlan {
    [
        (FaultSite::LinkDrop, 0.1),
        (FaultSite::LinkCorrupt, 0.1),
        (FaultSite::NicDupCompletion, 0.2),
        (FaultSite::RingExhausted, 0.2),
    ]
    .into_iter()
    .fold(FaultPlan::new(seed), |plan, (site, p)| {
        plan.with(site, FaultSpec::with_probability(p))
    })
}

/// `plan` with the routed fabric's per-hop sites armed too: latency
/// flaps, degraded rails and dead hops, which reroute, fail over, or
/// force delivery past a severed route.
fn with_fabric_faults(plan: FaultPlan) -> FaultPlan {
    [
        (FaultSite::HopFlap, 0.1),
        (FaultSite::RailDegrade, 0.1),
        (FaultSite::HopDown, 0.02),
    ]
    .into_iter()
    .fold(plan, |plan, (site, p)| {
        plan.with(site, FaultSpec::with_probability(p))
    })
}

#[test]
fn every_scheme_delivers_host_pack_unpack_bytes() {
    let mut rng = TestRng::new(0x0b1e_c7ed);
    for case in 0..2 {
        let desc = random_type(&mut rng);
        let layout = CompiledLayout::of(&desc);
        for scheme in SchemeRegistry::global().all() {
            for rndv in [RndvProtocol::Rput, RndvProtocol::Rget] {
                for faults in [false, true] {
                    for routed in [
                        None,
                        Some(Hierarchy::lassen_like(NODES)),
                        Some(Hierarchy::abci_like(NODES)),
                    ] {
                        let fabric = routed.as_ref().map_or("flat", |h| h.name());
                        let fabric_faults = faults && routed.is_some();
                        let label = format!(
                            "case {case} ({desc:?}) {} {rndv:?} faults={faults} {fabric}",
                            scheme.name
                        );
                        let programs = all_to_all(&desc, &desc, &counts(&layout));
                        let mut builder =
                            ClusterBuilder::new(Platform::lassen(), scheme.make()).rendezvous(rndv);
                        if faults {
                            let plan = fault_plan(case + 7);
                            builder = builder.fault_plan(if fabric_faults {
                                with_fabric_faults(plan)
                            } else {
                                plan
                            });
                        }
                        if let Some(machine) = routed {
                            builder = builder.topology(Arc::new(machine));
                        }
                        let mut msgs = Vec::new();
                        for (r, (program, m)) in programs.into_iter().enumerate() {
                            builder = builder.add_rank(r as u32 / GPUS, program);
                            msgs.push(m);
                        }
                        let mut cluster = builder.build();
                        let report = cluster.run();
                        assert_eq!(report.lap_count(), LAPS, "{label}");
                        assert_eq!(report.fault_summary.injected > 0, faults, "{label}");
                        assert_eq!(report.fabric.injected() > 0, fabric_faults, "{label}");
                        // Node 0 is the event loop's copy lane and node 1
                        // the worker's: every scheme's off-node payloads
                        // cross between them.
                        let copy = report.copy;
                        assert!(
                            copy.lanes.iter().all(|lane| lane.handoffs > 0),
                            "{label}: {copy:?}"
                        );
                        let pool = cluster.staging_pool_stats();
                        assert_eq!(pool.outstanding(), 0, "{label}: {pool:?}");
                        assert_delivered(&cluster, &msgs, &layout, &layout, &label);
                    }
                }
            }
        }
    }
}

#[test]
fn independent_send_and_receive_types_deliver_the_sent_bytes() {
    let mut rng = TestRng::new(0x5e_0d_7e);
    for case in 0..2 {
        let (send_ty, recv_ty, counts) = random_type_pair(&mut rng);
        let (send, recv) = (CompiledLayout::of(&send_ty), CompiledLayout::of(&recv_ty));
        for scheme in SchemeRegistry::global().all() {
            for nodes in [1, 2] {
                let label = format!(
                    "case {case} ({send_ty:?} as {recv_ty:?}, counts {counts:?}) {} on {nodes} \
                     node(s)",
                    scheme.name
                );
                let mut builder = ClusterBuilder::new(Platform::lassen(), scheme.make());
                let mut msgs = Vec::new();
                for (r, (program, m)) in all_to_all(&send_ty, &recv_ty, &counts)
                    .into_iter()
                    .enumerate()
                {
                    builder = builder.add_rank(r as u32 * nodes / RANKS, program);
                    msgs.push(m);
                }
                let mut cluster = builder.build();
                assert_eq!(cluster.run().lap_count(), LAPS, "{label}");
                assert_delivered(&cluster, &msgs, &send, &recv, &label);
            }
        }
    }
}

#[test]
fn mixed_send_and_receive_layouts_deliver_the_sent_bytes() {
    // 4 messages of one vector(64, 8, 32, double) each way, received as
    // contiguous(512, double): equal signatures, different layouts.
    const MSGS: u32 = 4;
    let double = fusedpack_datatype::TypeBuilder::double;
    let send_ty = fusedpack_datatype::TypeBuilder::vector(64, 8, 32, double());
    let recv_ty = fusedpack_datatype::TypeBuilder::contiguous(512, double());
    let (send_layout, recv_layout) = (CompiledLayout::of(&send_ty), CompiledLayout::of(&recv_ty));
    assert_eq!(send_layout.total_bytes(1), recv_layout.total_bytes(1));
    let program = |desc: &Arc<TypeDesc>, init: fn(u32) -> BufInit, send: bool| {
        let mut p = Program::new();
        let len = CompiledLayout::of(desc).footprint(1);
        let bufs: Vec<BufId> = (0..MSGS).map(|i| p.buffer(len, init(i))).collect();
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: desc.clone(),
        });
        for (i, &buf) in bufs.iter().enumerate() {
            let (ty, count, tag) = (TypeSlot(0), 1, i as u32);
            p.push(if send {
                AppOp::Isend {
                    buf,
                    ty,
                    count,
                    dst: RankId(1),
                    tag,
                }
            } else {
                AppOp::Irecv {
                    buf,
                    ty,
                    count,
                    src: RankId(0),
                    tag,
                }
            });
        }
        p.push(AppOp::Waitall);
        (p, bufs)
    };
    for scheme in SchemeRegistry::global().all() {
        for nodes in [1, 2] {
            let label = format!("{} on {nodes} node(s)", scheme.name);
            let (sender, sent) = program(&send_ty, |i| BufInit::Random(40 + u64::from(i)), true);
            let (receiver, recvd) = program(&recv_ty, |_| BufInit::Zero, false);
            let mut cluster = ClusterBuilder::new(Platform::lassen(), scheme.make())
                .data_mode(DataMode::Full)
                .add_rank(0, sender)
                .add_rank(nodes - 1, receiver)
                .build();
            cluster.run();
            for (&s, &r) in sent.iter().zip(&recvd) {
                let got = cluster.rank_buffer(RankId(1), r);
                let mut want = vec![0u8; got.len()];
                let packed = pack(&cluster.rank_buffer(RankId(0), s), &send_layout, 1);
                unpack(&packed, &recv_layout, 1, &mut want);
                assert!(got == want, "{label}: message {}", s.0);
            }
        }
    }
}

/// Run a Full-mode `proposed` halo of `laps` laps on a 4³ torus: its pool
/// and copy counters, and how many of its sends go off-node (staged) and
/// on-node (DirectIPC).
fn halo_pool(laps: usize) -> (PoolStats, CopyStats, u64, u64) {
    let grid = HaloGrid::new_3d(4, 4, 4);
    let gpus = Platform::lassen().gpus_per_node;
    let programs = halo_programs(&grid, &specfem3d_cm(64), 1, laps, 42);
    let node = |r: u32| r / gpus;
    let (mut staged, mut direct) = (0u64, 0u64);
    for (r, (program, _)) in programs.iter().enumerate() {
        for op in &program.ops {
            if let AppOp::Isend { dst, .. } = op {
                if node(r as u32) == node(dst.0) {
                    direct += 1;
                } else {
                    staged += 1;
                }
            }
        }
    }
    let mut builder = ClusterBuilder::new(
        Platform::lassen(),
        SchemeRegistry::global().create("proposed"),
    )
    .data_mode(DataMode::Full);
    for (r, (program, _)) in programs.into_iter().enumerate() {
        builder = builder.add_rank(node(r as u32), program);
    }
    let mut cluster = builder.build();
    let copy = cluster.run().copy;
    (cluster.staging_pool_stats(), copy, staged, direct)
}

#[test]
fn a_full_mode_halo_takes_one_pooled_buffer_per_message() {
    // Off-node sends that cross copy lanes pack into a pooled buffer; those
    // between two ranks of one lane are fused, and on-node ones go
    // DirectIPC: both copy layout to layout and take none.
    let (two, copy, staged, direct) = halo_pool(2);
    let total = copy.total();
    assert!(staged > 0 && direct > 0);
    assert!(total.fused > 0 && total.packs > 0, "{copy:?}");
    assert_eq!(total.packs + total.fused, staged, "{copy:?}");
    assert_eq!(total.packs, total.handoffs, "{copy:?}");
    assert_eq!(two.hits + two.misses, total.packs, "{two:?}");
    assert_eq!(two.released, total.packs, "{two:?}");
    // Every buffer the first lap allocates serves the later laps: twice
    // the laps, twice the takes, and not one more allocation.
    let (four, copy4, staged4, _) = halo_pool(4);
    assert_eq!(staged4, 2 * staged);
    assert_eq!(copy4.total().packs, 2 * total.packs, "{copy4:?}");
    assert_eq!(four.hits + four.misses, copy4.total().packs, "{four:?}");
    assert_eq!(four.misses, two.misses, "{four:?} vs {two:?}");
}

/// 64 doubles, one in every four: 512 packed bytes over a 2,024-byte
/// footprint.
fn strided() -> Arc<TypeDesc> {
    let double = fusedpack_datatype::TypeBuilder::double;
    fusedpack_datatype::TypeBuilder::vector(64, 1, 4, double())
}

/// The bytes `count` elements of `from` read from `sent` leave in a
/// buffer of `to`'s `count_to` elements over `base`.
fn delivered(
    sent: &[u8],
    from: &Arc<TypeDesc>,
    count: u64,
    to: &Arc<TypeDesc>,
    count_to: u64,
    base: &[u8],
) -> Vec<u8> {
    let packed = pack(sent, &CompiledLayout::of(from), count);
    let mut want = base.to_vec();
    unpack(&packed, &CompiledLayout::of(to), count_to, &mut want);
    want
}

/// 64 doubles in a row: a contiguous type, sent from and received into
/// the user buffer, with no staging.
fn contiguous() -> Arc<TypeDesc> {
    let double = fusedpack_datatype::TypeBuilder::double;
    fusedpack_datatype::TypeBuilder::contiguous(64, double())
}

#[test]
fn a_rank_that_receives_into_its_own_send_buffer_sends_the_bytes_it_had() {
    for ty in [strided(), contiguous()] {
        receive_into_own_send_buffer(&ty);
    }
}

/// Two ranks of one node, so of one copy lane, under a scheme that stages
/// every non-contiguous message: each message's pack, staged or of a
/// contiguous user buffer, is deferred to its unpack. Rank 0's eager send
/// completes at injection, and rank 0 then receives rank 1's message into
/// the same buffer, while its own message waits unexpected at rank 1
/// until rank 0 says it is done. Rank 1 must still get the elements as
/// they were sent.
fn receive_into_own_send_buffer(ty: &Arc<TypeDesc>) {
    let len = CompiledLayout::of(ty).footprint(1);
    let (mut p0, mut p1) = (Program::new(), Program::new());
    let mine = p0.buffer(len, BufInit::Random(11));
    // The same seed on the same rank fills the same bytes: a copy of
    // `mine` as it was sent.
    let twin = p0.buffer(len, BufInit::Random(11));
    let done = p0.buffer(len, BufInit::Random(13));
    let theirs = p1.buffer(len, BufInit::Random(12));
    let got = p1.buffer(len, BufInit::Zero);
    let heard = p1.buffer(len, BufInit::Zero);
    for p in [&mut p0, &mut p1] {
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: ty.clone(),
        });
    }
    let (ty_slot, count) = (TypeSlot(0), 1);
    p0.push(AppOp::Isend {
        buf: mine,
        ty: ty_slot,
        count,
        dst: RankId(1),
        tag: 0,
    });
    p0.push(AppOp::Waitall);
    p0.push(AppOp::Irecv {
        buf: mine,
        ty: ty_slot,
        count,
        src: RankId(1),
        tag: 1,
    });
    p0.push(AppOp::Waitall);
    p0.push(AppOp::Isend {
        buf: done,
        ty: ty_slot,
        count,
        dst: RankId(1),
        tag: 2,
    });
    p0.push(AppOp::Waitall);
    p1.push(AppOp::Isend {
        buf: theirs,
        ty: ty_slot,
        count,
        dst: RankId(0),
        tag: 1,
    });
    p1.push(AppOp::Irecv {
        buf: heard,
        ty: ty_slot,
        count,
        src: RankId(0),
        tag: 2,
    });
    p1.push(AppOp::Waitall);
    p1.push(AppOp::Irecv {
        buf: got,
        ty: ty_slot,
        count,
        src: RankId(0),
        tag: 0,
    });
    p1.push(AppOp::Waitall);
    let mut cluster = ClusterBuilder::new(
        Platform::lassen(),
        SchemeRegistry::global().create("gpu-sync"),
    )
    .add_rank(0, p0)
    .add_rank(0, p1)
    .build();
    assert!(cluster.rank_bytes(RankId(0), mine) == cluster.rank_bytes(RankId(0), twin));
    let copy = cluster.run().copy;
    // Rank 1's message and rank 0's last are fused; rank 0's first is
    // gathered before the receive overwrites its elements.
    let total = copy.total();
    assert_eq!(
        (total.fused, total.packs, total.unpacks),
        (2, 1, 1),
        "{ty:?}: {copy:?}"
    );
    let (sent, zeros) = (cluster.rank_bytes(RankId(0), twin), vec![0; len as usize]);
    let want = delivered(sent, ty, 1, ty, 1, &zeros);
    assert!(
        cluster.rank_bytes(RankId(1), got) == want,
        "{ty:?}: rank 1 got the overwritten bytes"
    );
    let theirs = cluster.rank_bytes(RankId(1), theirs);
    let want = delivered(theirs, ty, 1, ty, 1, sent);
    assert!(
        cluster.rank_bytes(RankId(0), mine) == want,
        "{ty:?}: rank 0 got rank 1's elements"
    );
}

/// Rank 0 sends `count` elements of `send_ty` to rank 1, on the same node
/// (and so the same copy lane), which receives `recv_count` of
/// `recv_ty`, under a scheme that stages every message: the run's copy
/// counters, once rank 1's buffer is checked against host `pack` →
/// `unpack`.
fn one_lane_message(
    rndv: RndvProtocol,
    send_ty: &Arc<TypeDesc>,
    count: u64,
    recv_ty: &Arc<TypeDesc>,
    recv_count: u64,
) -> LaneStats {
    let program = |desc: &Arc<TypeDesc>, count: u64, init: BufInit| {
        let mut p = Program::new();
        let buf = p.buffer(CompiledLayout::of(desc).footprint(count), init);
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: desc.clone(),
        });
        (p, buf)
    };
    let (mut p0, sent) = program(send_ty, count, BufInit::Random(21));
    let (mut p1, got) = program(recv_ty, recv_count, BufInit::Zero);
    p0.push(AppOp::Isend {
        buf: sent,
        ty: TypeSlot(0),
        count,
        dst: RankId(1),
        tag: 3,
    });
    p1.push(AppOp::Irecv {
        buf: got,
        ty: TypeSlot(0),
        count: recv_count,
        src: RankId(0),
        tag: 3,
    });
    for p in [&mut p0, &mut p1] {
        p.push(AppOp::Waitall);
    }
    let mut cluster = ClusterBuilder::new(
        Platform::lassen(),
        SchemeRegistry::global().create("gpu-sync"),
    )
    .rendezvous(rndv)
    .add_rank(0, p0)
    .add_rank(0, p1)
    .build();
    let copy = cluster.run().copy;
    let got = cluster.rank_bytes(RankId(1), got);
    let zeros = vec![0; got.len()];
    let sent = cluster.rank_bytes(RankId(0), sent);
    let want = delivered(sent, send_ty, count, recv_ty, recv_count, &zeros);
    assert!(
        got == want,
        "{rndv:?}, {count} sent as {recv_count}: {copy:?}"
    );
    copy.total()
}

#[test]
fn an_rget_answer_gathers_a_deferred_pack() {
    // 17 elements are 8,704 packed bytes, past the eager limit: the
    // receiver reads the send's payload, which the sender duplicates.
    let ty = strided();
    let total = one_lane_message(RndvProtocol::Rget, &ty, 17, &ty, 17);
    assert_eq!(
        (total.packs, total.dups, total.fused),
        (1, 1, 0),
        "{total:?}"
    );
}

#[test]
fn a_contiguous_receive_fuses_a_deferred_pack() {
    // A strided send received as contiguous doubles is unpacked into the
    // user buffer's one-byte elements, eager and rendezvous: like any
    // unpack of a deferred pack on its lane, one copy from the send's
    // elements, with no payload buffer.
    let (send, recv) = (strided(), contiguous());
    for count in [1, 17] {
        let total = one_lane_message(RndvProtocol::Rput, &send, count, &recv, count);
        assert_eq!(
            (total.packs, total.unpacks, total.fused, total.jobs()),
            (0, 0, 1, 1),
            "{total:?}"
        );
    }
}

#[test]
fn an_unmatched_eager_message_does_not_leak_its_payload() {
    // Rank 0 sends one strided eager message that rank 1 never receives:
    // the payload sits in rank 1's unexpected queue when the run ends.
    let desc =
        fusedpack_datatype::TypeBuilder::vector(8, 1, 2, fusedpack_datatype::TypeBuilder::int());
    let mut sender = Program::new();
    let buf = sender.buffer(64, BufInit::Random(3));
    sender.push(AppOp::Commit {
        slot: TypeSlot(0),
        desc,
    });
    sender.push(AppOp::Isend {
        buf,
        ty: TypeSlot(0),
        count: 1,
        dst: RankId(1),
        tag: 0,
    });
    sender.push(AppOp::Waitall);
    let mut cluster = ClusterBuilder::new(
        Platform::lassen(),
        SchemeRegistry::global().create("gpu-sync"),
    )
    .add_rank(0, sender)
    .add_rank(1, Program::new())
    .build();
    cluster.run();
    assert_eq!(cluster.staging_pool_stats().outstanding(), 0);
}

/// Rank 0 sends `send_count` elements of a strided int vector (32 packed
/// bytes each) with tag 7; rank 1, on node `nodes - 1`, receives
/// `recv_count` of them.
fn run_mismatched_pair(scheme: &str, mode: DataMode, nodes: u32, send_count: u64, recv_count: u64) {
    let desc =
        fusedpack_datatype::TypeBuilder::vector(8, 1, 2, fusedpack_datatype::TypeBuilder::int());
    let footprint = CompiledLayout::of(&desc).footprint(send_count.max(recv_count));
    let program = |send: bool| {
        let mut p = Program::new();
        let buf = p.buffer(footprint, BufInit::Random(5));
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: desc.clone(),
        });
        p.push(if send {
            AppOp::Isend {
                buf,
                ty: TypeSlot(0),
                count: send_count,
                dst: RankId(1),
                tag: 7,
            }
        } else {
            AppOp::Irecv {
                buf,
                ty: TypeSlot(0),
                count: recv_count,
                src: RankId(0),
                tag: 7,
            }
        });
        p.push(AppOp::Waitall);
        p
    };
    ClusterBuilder::new(Platform::lassen(), SchemeRegistry::global().create(scheme))
        .data_mode(mode)
        .add_rank(0, program(true))
        .add_rank(nodes - 1, program(false))
        .build()
        .run();
}

#[test]
#[should_panic(
    expected = "message size mismatch: rank 0 -> rank 1 tag 7: sent 32768 packed bytes, the receive expects 16384"
)]
fn a_rendezvous_message_larger_than_its_receive_panics_at_match_in_model_only() {
    run_mismatched_pair("gpu-sync", DataMode::ModelOnly, 2, 1024, 512);
}

#[test]
#[should_panic(
    expected = "message size mismatch: rank 0 -> rank 1 tag 7: sent 64 packed bytes, the receive expects 96"
)]
fn an_eager_message_smaller_than_its_receive_panics_at_match_in_full() {
    run_mismatched_pair("gpu-sync", DataMode::Full, 2, 2, 3);
}

#[test]
#[should_panic(
    expected = "message size mismatch: rank 0 -> rank 1 tag 7: sent 96 packed bytes, the receive expects 64"
)]
fn a_direct_ipc_message_larger_than_its_receive_panics_at_match_in_full() {
    run_mismatched_pair("proposed", DataMode::Full, 1, 3, 2);
}
