//! Property-based integration tests: for arbitrary (valid) datatype shapes
//! and message counts, every scheme must deliver exactly the bytes the host
//! reference pack/unpack would, the simulation must be deterministic, and
//! basic performance invariants must hold.

use fusedpack::prelude::*;
use fusedpack_datatype::TypeDesc;
use fusedpack_mpi::NaiveFlavor;
use fusedpack_sim::Pcg32;
use proptest::prelude::*;
use std::sync::Arc;

/// A random but valid non-contiguous datatype of modest size.
fn arb_type() -> impl Strategy<Value = Arc<TypeDesc>> {
    prop_oneof![
        // Strided vector of doubles.
        (2u64..24, 1u64..8, 1u64..8).prop_map(|(count, blocklen, gap)| {
            TypeBuilder::vector(count, blocklen, blocklen + gap, TypeBuilder::double())
        }),
        // Sparse indexed floats.
        prop::collection::vec((1u64..5, 1u64..4), 2..40).prop_map(|raw| {
            let mut disp = 0;
            let blocks: Vec<(u64, u64)> = raw
                .into_iter()
                .map(|(gap, len)| {
                    let d = disp + gap;
                    disp = d + len;
                    (d, len)
                })
                .collect();
            TypeBuilder::indexed(&blocks, TypeBuilder::float())
        }),
        // 2-D subarray of ints.
        (3u64..10, 3u64..10).prop_flat_map(|(rows, cols)| {
            (1..rows, 1..cols).prop_map(move |(sr, sc)| {
                TypeBuilder::subarray(&[rows, cols], &[sr, sc], &[0, 0], TypeBuilder::int())
            })
        }),
    ]
}

fn arb_scheme() -> impl Strategy<Value = SchemeKind> {
    prop_oneof![
        Just(SchemeKind::fusion_default()),
        Just(SchemeKind::GpuSync),
        Just(SchemeKind::GpuAsync),
        Just(SchemeKind::CpuGpuHybrid),
        Just(SchemeKind::Adaptive),
        Just(SchemeKind::NaiveCopy(NaiveFlavor::OpenMpi)),
        (1u64..2048).prop_map(|kb| SchemeKind::fusion_with_threshold(kb * 1024)),
    ]
}

/// Build a 2-rank exchange and verify rank 1 received rank 0's bytes.
fn exchange_preserves_bytes(
    scheme: SchemeKind,
    desc: Arc<TypeDesc>,
    count: u64,
    n_msgs: usize,
    platform: Platform,
) -> Result<(), TestCaseError> {
    let layout = CompiledLayout::of(&desc);
    let len = layout.footprint(count).max(1);

    let build = |seed: u64, peer: RankId| {
        let mut p = Program::new();
        let sbufs: Vec<BufId> = (0..n_msgs)
            .map(|i| p.buffer(len, BufInit::Random(seed + i as u64)))
            .collect();
        let rbufs: Vec<BufId> = (0..n_msgs).map(|_| p.buffer(len, BufInit::Zero)).collect();
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: desc.clone(),
        });
        for (i, &buf) in rbufs.iter().enumerate() {
            p.push(AppOp::Irecv {
                buf,
                ty: TypeSlot(0),
                count,
                src: peer,
                tag: i as u32,
            });
        }
        for (i, &buf) in sbufs.iter().enumerate() {
            p.push(AppOp::Isend {
                buf,
                ty: TypeSlot(0),
                count,
                dst: peer,
                tag: i as u32,
            });
        }
        p.push(AppOp::Waitall);
        (p, rbufs)
    };

    let (p0, _) = build(50, RankId(1));
    let (p1, rbufs1) = build(150, RankId(0));
    let mut cluster = ClusterBuilder::new(platform, scheme)
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build();
    cluster.run();

    for (i, &rbuf) in rbufs1.iter().enumerate() {
        let got = cluster.rank_buffer(RankId(1), rbuf);
        let mut want = vec![0u8; len as usize];
        Pcg32::new(50 + i as u64, 0).fill_bytes(&mut want);
        for (addr, seg_len) in layout.absolute_segments(0, count) {
            let (a, b) = (addr as usize, (addr + seg_len) as usize);
            prop_assert_eq!(&got[a..b], &want[a..b], "msg {} segment {}", i, addr);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any scheme, any layout, any message count: bytes arrive intact.
    #[test]
    fn any_scheme_any_layout_preserves_bytes(
        scheme in arb_scheme(),
        desc in arb_type(),
        count in 1u64..4,
        n_msgs in 1usize..6,
        lassen in any::<bool>(),
    ) {
        let platform = if lassen { Platform::lassen() } else { Platform::abci() };
        exchange_preserves_bytes(scheme, desc, count, n_msgs, platform)?;
    }

    /// The virtual clock is deterministic: identical runs give identical
    /// end times.
    #[test]
    fn simulation_is_deterministic(
        desc in arb_type(),
        count in 1u64..3,
        n_msgs in 1usize..5,
    ) {
        let run = || {
            let w = Workload {
                name: "prop",
                class: fusedpack::workloads::LayoutClass::Sparse,
                desc: desc.clone(),
                count,
            };
            run_exchange(&ExchangeConfig::new(
                Platform::lassen(),
                SchemeKind::fusion_default(),
                w,
                n_msgs,
            ))
            .latency
        };
        prop_assert_eq!(run(), run());
    }

    /// Latency is monotone (weakly) in the number of messages for the
    /// serial baselines.
    #[test]
    fn gpu_sync_latency_monotone_in_messages(
        desc in arb_type(),
        count in 1u64..3,
    ) {
        let w = Workload {
            name: "prop",
            class: fusedpack::workloads::LayoutClass::Sparse,
            desc,
            count,
        };
        let lat = |n: usize| {
            run_exchange(&ExchangeConfig::new(
                Platform::lassen(),
                SchemeKind::GpuSync,
                w.clone(),
                n,
            ))
            .latency
        };
        let l2 = lat(2);
        let l8 = lat(8);
        prop_assert!(l8 >= l2, "8 msgs {} < 2 msgs {}", l8, l2);
    }

    /// Bulk fusion never loses to GPU-Sync when there are many messages —
    /// the paper's core claim, across arbitrary layouts.
    #[test]
    fn fusion_never_loses_bulk(desc in arb_type(), count in 1u64..3) {
        let w = Workload {
            name: "prop",
            class: fusedpack::workloads::LayoutClass::Sparse,
            desc,
            count,
        };
        let f = run_exchange(&ExchangeConfig::new(
            Platform::lassen(), SchemeKind::fusion_default(), w.clone(), 16,
        )).latency;
        let s = run_exchange(&ExchangeConfig::new(
            Platform::lassen(), SchemeKind::GpuSync, w, 16,
        )).latency;
        prop_assert!(f <= s, "fusion {} vs gpu-sync {}", f, s);
    }
}
