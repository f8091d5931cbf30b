//! The two-rank program builder.
//!
//! Two neighbor ranks exchange `n_msgs` non-contiguous buffers each way
//! per lap — the communication pattern of the paper's §V-B (Figs. 9/10
//! sweep `n_msgs` from 1 to 16) and §V-C (the stressed 3-D halo exchange:
//! 16 buffers each way = 32 non-blocking operations per rank). A lap
//! schedule says, lap by lap, which committed type is exchanged, how many
//! elements of it, and how long the application thinks first. A bulk
//! exchange repeats one lap; the adapt figure's phase shift switches type
//! mid-run; serve replays a size-mixed, gapped stream.

use crate::Workload;
use fusedpack_mpi::program::BufInit;
use fusedpack_mpi::{AppOp, BufId, Program, RankId, TypeSlot};

/// One lap of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lap {
    /// The committed type the lap exchanges: an index into the program's
    /// types, which is also its [`TypeSlot`].
    pub ty: usize,
    /// Elements of that type per message.
    pub count: u64,
    /// Application think time before the lap's timer starts
    /// ([`AppOp::Compute`]); 0 posts the lap back to back.
    pub think_ns: u64,
}

impl Lap {
    /// A lap of `workload` committed at slot `ty`, at its own count, with
    /// no think time.
    pub fn of(ty: usize, workload: &Workload) -> Self {
        Lap {
            ty,
            count: workload.count,
            think_ns: 0,
        }
    }
}

/// Per-rank buffer handles returned alongside the programs, so callers
/// (tests) can verify received data.
#[derive(Debug, Clone)]
pub struct ExchangeBuffers {
    pub send: Vec<BufId>,
    pub recv: Vec<BufId>,
}

/// Build the symmetric two-rank programs of a lap schedule.
///
/// Each rank commits `types` in slot order, then runs every lap of
/// `laps`: think, post `n_msgs` receives, post `n_msgs` sends, `Waitall`
/// — Algorithm 3 of the paper (MPI-level implicit pack/unpack). Both
/// ranks run the same schedule, so every message's signature matches.
/// Each rank declares its sends, then its receives, all sized to the
/// largest footprint across the schedule. Rank 0's send buffers are
/// seeded from `seed_base`, rank 1's from `seed_base + 1000`, so
/// receivers' contents can be checked.
pub fn pair_programs(
    types: &[Workload],
    laps: &[Lap],
    n_msgs: usize,
    seed_base: u64,
) -> ((Program, ExchangeBuffers), (Program, ExchangeBuffers)) {
    assert!(n_msgs >= 1 && !laps.is_empty());
    // Footprints grow with the count, so each type's largest count sizes
    // the buffers.
    let mut max_count = vec![0; types.len()];
    for lap in laps {
        max_count[lap.ty] = max_count[lap.ty].max(lap.count);
    }
    let buf_len = types
        .iter()
        .zip(max_count)
        .map(|(w, count)| w.layout().footprint(count))
        .max()
        .unwrap_or(0)
        .max(1);

    let build = |seed: u64, peer: RankId| {
        let mut p = Program::new();
        let send: Vec<BufId> = (0..n_msgs)
            .map(|i| p.buffer(buf_len, BufInit::Random(seed + i as u64)))
            .collect();
        let recv: Vec<BufId> = (0..n_msgs)
            .map(|_| p.buffer(buf_len, BufInit::Zero))
            .collect();
        for (slot, w) in types.iter().enumerate() {
            p.push(AppOp::Commit {
                slot: TypeSlot(slot),
                desc: w.desc.clone(),
            });
        }
        for lap in laps {
            if lap.think_ns > 0 {
                p.push(AppOp::Compute { ns: lap.think_ns });
            }
            p.push(AppOp::ResetTimer);
            for (i, &rbuf) in recv.iter().enumerate() {
                p.push(AppOp::Irecv {
                    buf: rbuf,
                    ty: TypeSlot(lap.ty),
                    count: lap.count,
                    src: peer,
                    tag: i as u32,
                });
            }
            for (i, &sbuf) in send.iter().enumerate() {
                p.push(AppOp::Isend {
                    buf: sbuf,
                    ty: TypeSlot(lap.ty),
                    count: lap.count,
                    dst: peer,
                    tag: i as u32,
                });
            }
            p.push(AppOp::Waitall);
            p.push(AppOp::RecordLap);
        }
        (p, ExchangeBuffers { send, recv })
    };

    (
        build(seed_base, RankId(1)),
        build(seed_base + 1000, RankId(0)),
    )
}

/// [`pair_programs`] of the uniform schedule: `laps` laps of `workload`.
pub fn bulk_exchange_programs(
    workload: &Workload,
    n_msgs: usize,
    laps: usize,
    seed_base: u64,
) -> ((Program, ExchangeBuffers), (Program, ExchangeBuffers)) {
    let schedule = vec![Lap::of(0, workload); laps];
    pair_programs(std::slice::from_ref(workload), &schedule, n_msgs, seed_base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nas::nas_mg_y;
    use crate::specfem::specfem3d_oc;

    #[test]
    fn programs_have_expected_op_counts() {
        let w = specfem3d_oc(100);
        let ((p0, b0), (p1, _)) = bulk_exchange_programs(&w, 16, 2, 42);
        // 16 sends + 16 recvs per lap, 2 laps.
        assert_eq!(p0.comm_op_count(), 64);
        assert_eq!(p1.comm_op_count(), 64);
        assert_eq!(b0.send.len(), 16);
        assert_eq!(b0.recv.len(), 16);
        // Buffers: 32 per rank.
        assert_eq!(p0.buffers.len(), 32);
    }

    #[test]
    fn paper_halo_stress_is_32_ops_per_rank() {
        let w = specfem3d_oc(100);
        let ((p0, _), _) = bulk_exchange_programs(&w, 16, 1, 0);
        assert_eq!(p0.comm_op_count(), 32, "16 isend + 16 irecv");
    }

    #[test]
    fn phase_shift_runs_both_types() {
        let (a, b) = (specfem3d_oc(100), nas_mg_y(32));
        let laps: Vec<Lap> = [Lap::of(0, &a); 3]
            .into_iter()
            .chain([Lap::of(1, &b); 3])
            .collect();
        let ((p0, _), (p1, _)) = pair_programs(&[a, b], &laps, 8, 11);
        // 8 sends + 8 recvs per lap, 3 laps per phase, 2 phases.
        assert_eq!(p0.comm_op_count(), 96);
        assert_eq!(p1.comm_op_count(), 96);
        // Both datatypes are committed once, up front.
        let commits = p0
            .ops
            .iter()
            .filter(|op| matches!(op, AppOp::Commit { .. }))
            .count();
        assert_eq!(commits, 2);
    }

    /// One op as a short string, the commit's type by its size.
    fn op_str(op: &AppOp) -> String {
        match op {
            AppOp::Commit { slot, desc } => format!("commit {} {}B", slot.0, desc.size()),
            AppOp::Compute { ns } => format!("compute {ns}"),
            AppOp::ResetTimer => "reset".into(),
            AppOp::Irecv {
                buf,
                ty,
                count,
                src,
                tag,
            } => format!("irecv b{} t{} c{count} r{} #{tag}", buf.0, ty.0, src.0),
            AppOp::Isend {
                buf,
                ty,
                count,
                dst,
                tag,
            } => format!("isend b{} t{} c{count} r{} #{tag}", buf.0, ty.0, dst.0),
            AppOp::Waitall => "waitall".into(),
            AppOp::RecordLap => "lap".into(),
            other => panic!("the pair builder emits no {other:?}"),
        }
    }

    /// A size-mixed, gapped, two-type schedule builds exactly the program
    /// the spec spells out: sends then receives at the largest footprint
    /// across the schedule, seeds 7.. and 1007.., commits in slot order,
    /// and `Compute` only before a lap that thinks.
    #[test]
    fn mixed_schedule_builds_the_spelled_out_programs() {
        let (a, b) = (specfem3d_oc(100), nas_mg_y(32));
        let laps = [
            Lap {
                ty: 0,
                count: 2,
                think_ns: 500,
            },
            Lap {
                ty: 1,
                count: 1,
                think_ns: 0,
            },
            Lap {
                ty: 0,
                count: 5,
                think_ns: 0,
            },
            Lap {
                ty: 1,
                count: 3,
                think_ns: 40,
            },
        ];
        let n = 3;
        let ((p0, b0), (p1, b1)) = pair_programs(&[a.clone(), b.clone()], &laps, n, 7);
        let buf_len = a.layout().footprint(5).max(b.layout().footprint(3));
        for (rank, p, bufs, seed, peer) in [(0, &p0, &b0, 7, 1), (1, &p1, &b1, 1007, 0)] {
            let sends: Vec<BufId> = (0..n).map(BufId).collect();
            let recvs: Vec<BufId> = (n..2 * n).map(BufId).collect();
            assert_eq!(bufs.send, sends, "rank {rank}");
            assert_eq!(bufs.recv, recvs, "rank {rank}");
            let inits: Vec<_> = p.buffers.iter().map(|d| (d.len, d.init)).collect();
            let want: Vec<_> = (0..n)
                .map(|i| (buf_len, BufInit::Random(seed + i as u64)))
                .chain((0..n).map(|_| (buf_len, BufInit::Zero)))
                .collect();
            assert_eq!(inits, want, "rank {rank}");

            let mut want = vec![
                format!("commit 0 {}B", a.desc.size()),
                format!("commit 1 {}B", b.desc.size()),
            ];
            for lap in &laps {
                if lap.think_ns > 0 {
                    want.push(format!("compute {}", lap.think_ns));
                }
                want.push("reset".into());
                for i in 0..n {
                    want.push(format!(
                        "irecv b{} t{} c{} r{peer} #{i}",
                        n + i,
                        lap.ty,
                        lap.count
                    ));
                }
                for i in 0..n {
                    want.push(format!(
                        "isend b{i} t{} c{} r{peer} #{i}",
                        lap.ty, lap.count
                    ));
                }
                want.push("waitall".into());
                want.push("lap".into());
            }
            let got: Vec<String> = p.ops.iter().map(op_str).collect();
            assert_eq!(got, want, "rank {rank}");
            assert_eq!(p.lap_count(), laps.len());
        }
    }
}
