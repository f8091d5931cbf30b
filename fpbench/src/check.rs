//! Output checks. A rep fails when any of them fails; failures feed the
//! `failed` count next to `attempted`.
//!
//! The byte check follows Eijkhout's DDT study: every implementation is
//! judged against a manual-copy baseline, here host `pack`→`unpack` of the
//! peer's send buffer.

use crate::workload::{Meta, Spec};
use fusedpack_datatype::{pack, CompiledLayout};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::{BufId, Cluster, RankId, RunReport};
use fusedpack_workloads::halo::HaloBuffers;
use fusedpack_workloads::HaloGrid;

/// Every check on one finished rep except digest stability, which needs the
/// set's first rep. Returns one message per failed check.
pub fn check(spec: &Spec, meta: &Meta, cluster: &Cluster, report: &RunReport) -> Vec<String> {
    let mut failures = Vec::new();
    let short = report.laps.iter().filter(|l| l.len() != meta.laps).count();
    if report.laps.len() != meta.ranks || short > 0 {
        failures.push(format!(
            "{short} of {} ranks did not record {} laps",
            report.laps.len(),
            meta.laps
        ));
    }
    if report.event_clamps.count != 0 {
        failures.push(format!("event queue clamped: {:?}", report.event_clamps));
    }
    let violations = cluster.topo_order_violations().unwrap_or(0);
    if violations != 0 {
        failures.push(format!("{violations} per-hop order violations"));
    }
    if !spec.faults && (!report.fault_summary.is_clean() || report.fabric.injected() != 0) {
        failures.push(format!(
            "fault-free workload recorded faults: {:?} / {}",
            report.fault_summary, report.fabric
        ));
    }
    if spec.mode == DataMode::Full {
        if let Some((grid, bufs)) = &meta.halo {
            let layout = CompiledLayout::of(&meta.desc);
            let read = |rank: u32, buf: BufId| cluster.rank_buffer(RankId(rank), buf);
            let source = |rank, k, i| halo_source(grid, bufs, rank, k, i);
            if let Err(e) = check_halo_bytes(grid, bufs, &layout, meta.count, read, source) {
                failures.push(e);
            }
        }
    }
    failures
}

/// The send buffer whose bytes `rank`'s receive buffer `recv[k][i]` must
/// hold. The k-th neighbour lies in direction `d`; it sent message `i`
/// toward its own direction `d ^ 1`, which points back at `rank`.
pub fn halo_source(
    grid: &HaloGrid,
    bufs: &[HaloBuffers],
    rank: u32,
    k: usize,
    i: usize,
) -> (u32, BufId) {
    let (d, peer) = grid.neighbors(rank)[k];
    let back = grid
        .neighbors(peer)
        .iter()
        .position(|&(pd, pn)| pd == d ^ 1 && pn == rank)
        .expect("torus neighbours are mutual");
    (peer, bufs[peer as usize].send[back][i])
}

/// Check that every receive buffer equals host `pack`→`unpack` of the send
/// buffer `source` names for it (into a zeroed buffer, so the layout's gaps
/// must be untouched too). `read` returns a rank's buffer.
pub fn check_halo_bytes(
    grid: &HaloGrid,
    bufs: &[HaloBuffers],
    layout: &CompiledLayout,
    count: u64,
    read: impl Fn(u32, BufId) -> Vec<u8>,
    source: impl Fn(u32, usize, usize) -> (u32, BufId),
) -> Result<(), String> {
    let mut packed = vec![0u8; layout.total_bytes(count) as usize];
    let mut expected = Vec::new();
    let mut bad = 0usize;
    let mut first = None;
    for rank in 0..grid.ranks() {
        for (k, recv) in bufs[rank as usize].recv.iter().enumerate() {
            for (i, &rbuf) in recv.iter().enumerate() {
                let (peer, sbuf) = source(rank, k, i);
                pack::pack_into(&read(peer, sbuf), layout, count, &mut packed);
                let got = read(rank, rbuf);
                expected.clear();
                expected.resize(got.len(), 0);
                pack::unpack(&packed, layout, count, &mut expected);
                if got != expected {
                    bad += 1;
                    first.get_or_insert((rank, k, i));
                }
            }
        }
    }
    match first {
        None => Ok(()),
        Some((rank, k, i)) => Err(format!(
            "{bad} receive buffers differ from host pack->unpack of the peer's send buffer \
             (first: rank {rank}, neighbour {k}, message {i})"
        )),
    }
}

/// FNV-1a over the run's virtual-time results: end time, events processed
/// and every lap's makespan. Identical on every rep of one seed.
pub fn digest(report: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(report.end_time.as_nanos());
    eat(report.events_processed);
    for lap in 0..report.lap_count() {
        eat(report.lap_makespan(lap).as_nanos());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Scale;

    /// One smoke-size halo-bytes run, its meta, and a reader over it.
    fn halo_bytes_run() -> (Cluster, Meta) {
        let spec = Spec::find("halo-bytes").expect("workload");
        let (mut cluster, meta) = spec.build(spec.inputs(Scale::Smoke, 42), None);
        let report = cluster.run();
        assert_eq!(check(spec, &meta, &cluster, &report), Vec::<String>::new());
        (cluster, meta)
    }

    #[test]
    fn one_flipped_receive_byte_fails_the_byte_check() {
        let (cluster, meta) = halo_bytes_run();
        let (grid, bufs) = meta.halo.as_ref().expect("halo");
        let layout = CompiledLayout::of(&meta.desc);
        let target = (7u32, bufs[7].recv[3][1]);
        let flipped = |rank: u32, buf: BufId| {
            let mut bytes = cluster.rank_buffer(RankId(rank), buf);
            if (rank, buf) == target {
                bytes[0] ^= 0x10;
            }
            bytes
        };
        let source = |rank, k, i| halo_source(grid, bufs, rank, k, i);
        let err = check_halo_bytes(grid, bufs, &layout, meta.count, flipped, source)
            .expect_err("a flipped byte must be caught");
        assert!(err.starts_with("1 receive buffers differ"), "{err}");
        assert!(err.contains("rank 7, neighbour 3, message 1"), "{err}");
    }

    #[test]
    fn a_wrong_neighbour_mapping_fails_the_byte_check() {
        let (cluster, meta) = halo_bytes_run();
        let (grid, bufs) = meta.halo.as_ref().expect("halo");
        let layout = CompiledLayout::of(&meta.desc);
        let read = |rank: u32, buf: BufId| cluster.rank_buffer(RankId(rank), buf);
        // Pairs each receive with the peer's buffer for the *same*
        // direction instead of the opposite one.
        let wrong = |rank, k: usize, i: usize| {
            let (d, peer) = grid.neighbors(rank)[k];
            let same = grid
                .neighbors(peer)
                .iter()
                .position(|&(pd, _)| pd == d)
                .expect("every direction is active");
            (peer, bufs[peer as usize].send[same][i])
        };
        let err = check_halo_bytes(grid, bufs, &layout, meta.count, read, wrong)
            .expect_err("a wrong mapping must be caught");
        let total: usize = bufs.iter().map(|b| b.recv.iter().flatten().count()).sum();
        assert!(
            err.starts_with(&format!("{total} receive buffers")),
            "{err}"
        );
    }

    #[test]
    fn digest_is_stable_for_a_seed() {
        let spec = Spec::find("halo-model").expect("workload");
        let run = || {
            let (mut cluster, _) = spec.build(spec.inputs(Scale::Smoke, 7), None);
            digest(&cluster.run())
        };
        assert_eq!(run(), run());
    }
}
