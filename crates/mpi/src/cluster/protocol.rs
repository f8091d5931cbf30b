//! Wire protocols: eager, rendezvous RPUT handshake, tag matching, and
//! payload delivery.
//!
//! The protocol never touches bytes. In `DataMode::Full` it submits copy
//! jobs to the cluster's copy engine (the `copy` module), which owns every
//! GPU pool and payload buffer for the run, and carries a
//! [`PayloadHandle`] for each payload. A staged message's packed bytes are
//! one payload that changes owner instead of being copied: the pack job
//! fills a payload the send owns (`SendOp::payload`), `try_issue` moves
//! its handle into the [`WireMsg`], delivery moves it into the receive
//! (`RecvOp::payload`), and the unpack job scatters from it and recycles
//! it. Staging pools only hand out the addresses a CTS advertises. A
//! contiguous send packs its user buffer, as one-byte elements, into a
//! payload when it goes on the wire, and a contiguous receive unpacks its
//! payload into its user buffer when it lands. RGET reads (which a
//! replayed request may repeat) send a duplicate of a staged send's
//! payload, and DirectIPC copies layout to layout with no payload at all.
//! Timing-only runs submit no job and carry empty handles.

use super::schemes::PathCtx;
use super::{Cluster, Event, PayloadHandle, RankId, RndvProtocol};
use crate::lifecycle::LifecycleEvent;
use crate::message::{WireKind, WireMsg};
use crate::sendrecv::{CtsInfo, PackState, RecvId, SendId, StagingLoc};
use fusedpack_gpu::DataMode;
use fusedpack_net::rdma::CTRL_BYTES;
use fusedpack_net::Attempt;
use fusedpack_sim::{FaultSite, RetryPolicy, Time};
use fusedpack_telemetry::{Lane, Payload, RndvPhaseTag};

impl Cluster {
    /// The single chokepoint for asynchronous wire traffic: transport the
    /// payload and schedule the arrival (and, when `complete` is set, the
    /// initiator-side CQE). The canonical keys for both events are drawn
    /// from the sender *before* any timing is computed: the Deliver key
    /// keys the transfer's fault draws. Returns the `(delivered,
    /// completion)` times.
    pub(crate) fn wire_transmit(
        &mut self,
        src: usize,
        at: Time,
        bytes: u64,
        gdr: bool,
        msg: WireMsg,
        complete: Option<SendId>,
    ) -> (Time, Time) {
        let deliver_key = self.next_key(src);
        let complete_key = complete.map(|sid| (sid, self.next_key(src)));
        let dst = msg.dst.0 as usize;
        let (delivered, completion) =
            self.transport_reliable(src, dst, at, bytes, gdr, deliver_key);
        let slab_key = self.wire_slab.insert(msg);
        self.events.push_at_key(
            delivered.max(self.events.now()),
            deliver_key,
            Event::Deliver(slab_key),
        );
        if let Some((sid, key)) = complete_key {
            let rid = self.ranks[src].id;
            self.events.push_at_key(
                completion.max(self.events.now()),
                key,
                Event::SendComplete(rid, sid),
            );
        }
        (delivered, completion)
    }

    /// [`Cluster::transport`] behind the retry protocol.
    ///
    /// Under an armed fault plan the wire may drop, corrupt, or delay the
    /// payload, and the NIC may stall its completion. Every lost attempt
    /// occupies every hop of the route for its full serialization time
    /// ([`Attempt::Lost`]); the sender detects the
    /// loss — retransmission timeout for a drop, receiver NACK one RTT
    /// after delivery for a corruption — backs off with deterministic
    /// jitter, and retransmits. The attempt and deadline budgets of
    /// [`RetryPolicy::default_transfer`] bound the loop; once exhausted
    /// the transfer is forced through the reliable slow path (counted as
    /// `deadline_exceeded`), so a Waitall can never wedge on an unlucky
    /// seed.
    ///
    /// `event_key` is the transfer's pre-drawn Deliver key: unique per
    /// transfer, it keys both the backoff jitter and the fabric's per-hop
    /// draws, so a seeded chaos run replays the same faults.
    pub(crate) fn transport_reliable(
        &mut self,
        src: usize,
        dst: usize,
        at: Time,
        bytes: u64,
        gdr: bool,
        event_key: u64,
    ) -> (Time, Time) {
        if self.faults.is_none() {
            let (timing, completion) =
                self.transport(src, dst, at, bytes, gdr, Attempt::Delivered(event_key));
            return (timing.delivered, completion);
        }
        let policy = RetryPolicy::default_transfer();
        let jitter_seed = self.faults.as_ref().map_or(0, |p| p.seed());
        let deadline = at + policy.deadline;
        let mut now = at;
        let mut attempt: u32 = 1;
        loop {
            let site = if self.fault_fires(src, FaultSite::LinkDrop, now) {
                Some(FaultSite::LinkDrop)
            } else if self.fault_fires(src, FaultSite::LinkCorrupt, now) {
                Some(FaultSite::LinkCorrupt)
            } else {
                None
            };
            if let Some(site) = site {
                if attempt >= policy.max_attempts || now >= deadline {
                    // Budget exhausted: escalate to the reliable slow path —
                    // the payload still goes through below, but the failure
                    // is reported instead of retried.
                    self.fault_stats.deadline_exceeded += 1;
                } else {
                    let (lost, _) = self.transport(src, dst, now, bytes, gdr, Attempt::Lost);
                    let wire_clear = lost.wire_clear();
                    let detected = if site == FaultSite::LinkCorrupt {
                        // Fully delivered, checksum-rejected, NACKed. The
                        // lost attempt just resolved the route, so its
                        // round trip cannot fail.
                        let key = self.route_key(src, dst);
                        let rtt = self.topo.route_rtt(key).expect("route resolved");
                        wire_clear + rtt
                    } else {
                        wire_clear + policy.detect_timeout
                    };
                    let backoff = policy.backoff_keyed(attempt, jitter_seed, event_key);
                    self.fault_retry(src, site, attempt, backoff, detected);
                    now = detected + backoff;
                    attempt += 1;
                    continue;
                }
            }
            let (timing, mut completion) =
                self.transport(src, dst, now, bytes, gdr, Attempt::Delivered(event_key));
            let mut delivered = timing.delivered;
            if self.fault_fires(src, FaultSite::LinkDelay, now) {
                let spike = self.fault_spike(src, FaultSite::LinkDelay);
                self.fault_recovered(spike);
                delivered += spike;
                completion += spike;
            }
            let inter = self.endpoints[src].node != self.endpoints[dst].node;
            if inter && self.fault_fires(src, FaultSite::NicTimeout, now) {
                // CQE stalls: delivery is unaffected, the initiator's
                // completion arrives late.
                let spike = self.fault_spike(src, FaultSite::NicTimeout);
                self.fault_recovered(spike);
                completion += spike;
            }
            if attempt > 1 {
                self.fault_stats.added_latency += now.since(at);
            }
            return (delivered, completion);
        }
    }

    /// Send a control packet (RTS/CTS); fire-and-forget.
    pub(crate) fn send_ctrl(&mut self, src: usize, dst: RankId, tag: u32, kind: WireKind) {
        let at = self.ranks[src].cpu;
        let phase = match &kind {
            WireKind::Rts { .. } => Some(RndvPhaseTag::Rts),
            WireKind::Cts { .. } => Some(RndvPhaseTag::Cts),
            WireKind::RdmaReadReq { .. } => Some(RndvPhaseTag::ReadReq),
            WireKind::Fin { .. } => Some(RndvPhaseTag::Fin),
            WireKind::Eager { .. } | WireKind::RdmaData { .. } => None,
        };
        if let Some(phase) = phase {
            self.ranks[src]
                .tele
                .instant(Lane::Host, at, || Payload::Rndv {
                    peer: dst.0,
                    tag,
                    phase,
                    bytes: CTRL_BYTES,
                });
        }
        let msg = WireMsg {
            src: self.ranks[src].id,
            dst,
            tag,
            kind,
            payload: PayloadHandle::default(),
        };
        self.wire_transmit(src, at, CTRL_BYTES, false, msg, None);
    }

    /// A copy of send `sid`'s payload: the user buffer of a contiguous
    /// send packed, the packed bytes of a staged one duplicated. Empty in
    /// timing-only runs (and for an empty message), which submit no job.
    fn copy_payload(&mut self, r: usize, sid: SendId) -> PayloadHandle {
        if self.data_mode == DataMode::ModelOnly {
            return PayloadHandle::default();
        }
        let s = &self.ranks[r].sends[sid.0];
        match s.staging {
            StagingLoc::UserGpu(p) if p.len > 0 => {
                let from = self.copies.contiguous(r, p);
                self.copies.pack(from, p.len, s.dst.0 as usize)
            }
            StagingLoc::Gpu(_) | StagingLoc::Host(_) => self.copies.dup(&s.payload),
            StagingLoc::UserGpu(_) | StagingLoc::None => PayloadHandle::default(),
        }
    }

    /// Send `sid`'s payload for the wire: a staged send hands over the
    /// payload it packed into, a contiguous one packs its user buffer.
    fn take_payload(&mut self, r: usize, sid: SendId) -> PayloadHandle {
        let s = &mut self.ranks[r].sends[sid.0];
        match s.staging {
            StagingLoc::Gpu(_) | StagingLoc::Host(_) => std::mem::take(&mut s.payload),
            StagingLoc::UserGpu(_) | StagingLoc::None => self.copy_payload(r, sid),
        }
    }

    /// Put a send's payload on the wire as soon as both its pack and its
    /// protocol prerequisites are met.
    pub(crate) fn try_issue(&mut self, r: usize, sid: SendId) {
        let rget = self.rndv == RndvProtocol::Rget;
        let (dst, tag, bytes, eager, staging, cts) = {
            let s = &self.ranks[r].sends[sid.0];
            let ready = if rget && !s.eager {
                // RGET needs only the pack; there is no CTS.
                s.lifecycle.is_unmatched() && s.lifecycle.pack() == PackState::Done
            } else {
                s.ready_to_issue()
            };
            if !ready {
                return;
            }
            (s.dst, s.tag, s.packed_bytes, s.eager, s.staging, s.cts)
        };
        self.ranks[r].sends[sid.0]
            .lifecycle
            .apply(LifecycleEvent::Issued);
        let gdr_src = matches!(staging, StagingLoc::Gpu(_) | StagingLoc::UserGpu(_));
        let at = self.ranks[r].cpu;
        let src_id = self.ranks[r].id;

        if !eager && self.rndv == RndvProtocol::Rget {
            // RGET: announce the packed buffer; the receiver pulls it.
            let send = &mut self.ranks[r].sends[sid.0];
            if !send.lifecycle.rts_sent() {
                send.lifecycle.apply(LifecycleEvent::RtsSent);
                let tag = send.tag;
                self.send_ctrl(
                    r,
                    dst,
                    tag,
                    WireKind::Rts {
                        send_id: sid,
                        packed_bytes: bytes,
                        ipc_origin: None,
                        rget: true,
                    },
                );
            }
            // Local completion arrives as a Fin once the read drains.
            return;
        }
        let payload = self.take_payload(r, sid);
        if eager {
            self.ranks[r]
                .tele
                .instant(Lane::Host, at, || Payload::EagerSend {
                    peer: dst.0,
                    tag,
                    bytes,
                });
            let msg = WireMsg {
                src: src_id,
                dst,
                tag,
                kind: WireKind::Eager {
                    send_id: sid,
                    packed_bytes: bytes,
                },
                payload,
            };
            self.wire_transmit(r, at, bytes + CTRL_BYTES, gdr_src, msg, None);
            // Eager sends complete locally once injected.
            self.complete_send(r, sid);
            let now = self.ranks[r].cpu;
            self.check_unblock(r, now);
        } else {
            // `ready_to_issue` implies a CTS arrived; a fault-replayed
            // control message could get us here without one, in which case
            // the issue simply waits for the real CTS.
            let Some(cts) = cts else {
                debug_assert!(false, "rendezvous issue without CTS");
                self.fault_stats.spurious += 1;
                self.ranks[r].sends[sid.0]
                    .lifecycle
                    .apply(LifecycleEvent::IssueRetracted);
                // Hand the payload back: a staged send still owns it.
                match staging {
                    StagingLoc::Gpu(_) | StagingLoc::Host(_) => {
                        self.ranks[r].sends[sid.0].payload = payload;
                    }
                    _ => self.copies.recycle(payload),
                }
                return;
            };
            let gdr = gdr_src || !cts.host_staging;
            self.ranks[r]
                .tele
                .instant(Lane::Host, at, || Payload::Rndv {
                    peer: dst.0,
                    tag,
                    phase: RndvPhaseTag::Data,
                    bytes,
                });
            let msg = WireMsg {
                src: src_id,
                dst,
                tag: 0,
                kind: WireKind::RdmaData {
                    send_id: sid,
                    recv_id: cts.recv_id,
                },
                payload,
            };
            let (_, completion) = self.wire_transmit(r, at, bytes, gdr, msg, Some(sid));
            // The NIC replays the CQE; the progress engine's guard in
            // `on_send_complete` absorbs the duplicate.
            if self.fault_fires(r, FaultSite::NicDupCompletion, at) {
                let key = self.next_key(r);
                let dup_at = completion + self.platform.progress_poll;
                self.events.push_at_key(
                    dup_at.max(self.events.now()),
                    key,
                    Event::SendComplete(src_id, sid),
                );
            }
        }
    }

    /// A message arrived at its destination NIC.
    pub(crate) fn on_deliver(&mut self, msg: WireMsg, t: Time) {
        let r = msg.dst.0 as usize;
        let eff = self.eff_now(r, t);
        self.account_wait(r, eff);
        self.ranks[r].cpu = eff + self.platform.progress_poll;
        {
            let (peer, tag, bytes) = (msg.src.0, msg.tag, msg.payload.len());
            self.ranks[r]
                .tele
                .instant(Lane::Host, t, || Payload::Deliver { peer, tag, bytes });
        }

        match msg.kind {
            WireKind::Rts { .. } | WireKind::Eager { .. } => {
                let matched = self.ranks[r].recvs.iter().position(|op| {
                    op.lifecycle.is_unmatched() && op.src == msg.src && op.tag == msg.tag
                });
                match matched {
                    Some(idx) => {
                        let rid = RecvId(idx);
                        let now = self.ranks[r].cpu;
                        self.match_message(r, rid, msg, now);
                    }
                    None => self.ranks[r].unexpected.push(msg),
                }
            }
            WireKind::Cts {
                send_id,
                recv_id,
                staging_addr,
                host_staging,
            } => {
                // Guard: a replayed CTS for a send that is already issuing
                // (or for an epoch that ended) is dropped, not re-armed.
                let Some(send) = self.ranks[r].sends.get_mut(send_id.0) else {
                    self.fault_stats.spurious += 1;
                    return;
                };
                if send.cts.is_some() || send.lifecycle.is_done() {
                    self.fault_stats.spurious += 1;
                    return;
                }
                send.cts = Some(CtsInfo {
                    recv_id,
                    staging_addr,
                    host_staging,
                });
                self.try_issue(r, send_id);
            }
            WireKind::RdmaData { send_id, recv_id } => {
                // Guard: only a receive still awaiting its payload may
                // consume one; duplicates and stale deliveries recycle the
                // payload and are counted.
                let live = self.ranks[r]
                    .recvs
                    .get(recv_id.0)
                    .is_some_and(|op| op.lifecycle.awaiting_data());
                if !live {
                    self.fault_stats.spurious += 1;
                    self.copies.recycle(msg.payload);
                    return;
                }
                self.land_payload(r, recv_id, msg.payload);
                self.ranks[r].recvs[recv_id.0]
                    .lifecycle
                    .apply(LifecycleEvent::DataArrived);
                if self.rndv == RndvProtocol::Rget {
                    // The sender's buffer has been drained by our read.
                    self.send_ctrl(r, msg.src, 0, WireKind::Fin { send_id });
                }
                self.begin_unpack(r, recv_id);
            }
            WireKind::RdmaReadReq { send_id, recv_id } => {
                // Served by the sender's NIC hardware: no CPU time charged
                // beyond the poll above; the payload flows back over this
                // node's wire.
                let Some(send) = self.ranks[r].sends.get(send_id.0) else {
                    self.fault_stats.spurious += 1;
                    return;
                };
                let (staging, bytes, dst) = (send.staging, send.packed_bytes, msg.src);
                let payload = self.copy_payload(r, send_id);
                let gdr = matches!(staging, StagingLoc::Gpu(_) | StagingLoc::UserGpu(_));
                let at = self.events.now();
                let src_id = self.ranks[r].id;
                let msg = WireMsg {
                    src: src_id,
                    dst,
                    tag: 0,
                    kind: WireKind::RdmaData { send_id, recv_id },
                    payload,
                };
                self.wire_transmit(r, at, bytes, gdr, msg, None);
            }
            WireKind::Fin { send_id } => {
                // Guard: a duplicated Fin (or one outliving its epoch) is
                // absorbed.
                match self.ranks[r].sends.get(send_id.0) {
                    Some(s) if !s.lifecycle.is_done() => {
                        self.complete_send(r, send_id);
                        // RGET: the read drained the packed payload.
                        let packed = std::mem::take(&mut self.ranks[r].sends[send_id.0].payload);
                        self.copies.recycle(packed);
                        let now = self.ranks[r].cpu;
                        self.check_unblock(r, now);
                    }
                    _ => self.fault_stats.spurious += 1,
                }
            }
        }
    }

    /// A matchable message met its posted receive.
    ///
    /// Panics if the message's packed size differs from the receive's:
    /// MPI requires matching type signatures, and a staged unpack (or a
    /// DirectIPC load) of the wrong size would truncate or overrun.
    pub(crate) fn match_message(&mut self, r: usize, rid: RecvId, msg: WireMsg, now: Time) {
        let (WireKind::Rts { packed_bytes, .. } | WireKind::Eager { packed_bytes, .. }) = msg.kind
        else {
            unreachable!("only matchable kinds reach match_message")
        };
        let expected = self.ranks[r].recvs[rid.0].packed_bytes;
        assert!(
            packed_bytes == expected,
            "message size mismatch: rank {} -> rank {} tag {}: sent {packed_bytes} packed \
             bytes, the receive expects {expected}",
            msg.src.0,
            msg.dst.0,
            msg.tag,
        );
        self.ranks[r].cpu = self.ranks[r].cpu.max(now) + self.platform.mpi_call;
        match msg.kind {
            WireKind::Rts {
                send_id,
                ipc_origin: Some(origin),
                ..
            } => {
                // DirectIPC: no staging, no CTS, no wire payload — the
                // engine fuses a zero-copy load of the sender's buffer (or
                // degrades to a staged bounce if the handle won't map).
                let src = msg.src.0 as usize;
                self.ranks[r].recvs[rid.0]
                    .lifecycle
                    .apply(LifecycleEvent::DataArrived);
                self.ranks[r].recvs[rid.0].ipc_send_id = Some(send_id);
                let engine = self.engine.clone();
                engine.on_ipc_rts(&mut PathCtx { cl: self, r }, rid, src, origin);
            }
            WireKind::Rts { send_id, rget, .. } => {
                let (bytes, blocks) = {
                    let op = &self.ranks[r].recvs[rid.0];
                    (op.packed_bytes, op.blocks)
                };
                let staging = self.recv_staging_for(r, rid, bytes, blocks);
                let op = &mut self.ranks[r].recvs[rid.0];
                op.staging = staging;
                op.lifecycle.apply(LifecycleEvent::Matched);
                let src = msg.src;
                if rget {
                    // Pull the announced data with an RDMA READ.
                    self.send_ctrl(
                        r,
                        src,
                        0,
                        WireKind::RdmaReadReq {
                            send_id,
                            recv_id: rid,
                        },
                    );
                } else {
                    self.send_ctrl(
                        r,
                        src,
                        0,
                        WireKind::Cts {
                            send_id,
                            recv_id: rid,
                            staging_addr: staging.addr(),
                            host_staging: staging.is_host(),
                        },
                    );
                }
            }
            WireKind::Eager { .. } => {
                let (bytes, blocks) = {
                    let op = &self.ranks[r].recvs[rid.0];
                    (op.packed_bytes, op.blocks)
                };
                let staging = self.recv_staging_for(r, rid, bytes, blocks);
                self.ranks[r].recvs[rid.0].staging = staging;
                self.land_payload(r, rid, msg.payload);
                self.ranks[r].recvs[rid.0]
                    .lifecycle
                    .apply(LifecycleEvent::DataArrived);
                self.begin_unpack(r, rid);
            }
            _ => unreachable!("only matchable kinds reach match_message"),
        }
    }

    /// Receive staging for one operation: contiguous layouts land straight
    /// in the user buffer (no unpack), everything else gets a staging
    /// buffer per the scheme's policy.
    fn recv_staging_for(&mut self, r: usize, rid: RecvId, bytes: u64, blocks: u64) -> StagingLoc {
        let op = &self.ranks[r].recvs[rid.0];
        if op.layout.is_contiguous_for(op.count) {
            return StagingLoc::UserGpu(fusedpack_gpu::DevPtr {
                addr: op.user_buf.addr,
                len: bytes,
            });
        }
        self.alloc_staging(r, bytes, blocks)
    }

    /// Allocate a staging buffer for a packed message of this shape, on
    /// the host or the GPU as the scheme's [`super::SchemeEngine::host_staging`]
    /// rule picks (the same rule for sends and receives).
    pub(crate) fn alloc_staging(&mut self, r: usize, bytes: u64, blocks: u64) -> StagingLoc {
        if self.engine.host_staging(self, r, bytes, blocks) {
            StagingLoc::Host(self.host_mems[r].alloc(bytes.max(1), 64))
        } else {
            StagingLoc::Gpu(self.staging_mems[r].alloc(bytes.max(1), 64))
        }
    }

    /// Land an arrived payload in receive `rid`: a contiguous receive
    /// unpacks it into its user buffer, a staged one owns it until its
    /// unpack. A payload with no staging to land in (a spurious
    /// delivery replayed by a fault) is recycled and counted, not fatal.
    /// Every other delivery is counted for the run-end conservation check:
    /// the payload's bytes, or in a timing-only run (no payload moves) the
    /// receive's packed size.
    fn land_payload(&mut self, r: usize, rid: RecvId, payload: PayloadHandle) {
        let op = &self.ranks[r].recvs[rid.0];
        if !matches!(op.staging, StagingLoc::None) {
            let bytes = match self.data_mode {
                DataMode::Full => payload.len(),
                DataMode::ModelOnly => op.packed_bytes,
            };
            let src = op.src;
            self.ranks[r].count_delivered(src, bytes);
        }
        if payload.is_empty() {
            return; // timing-only: nothing was taken
        }
        let op = &mut self.ranks[r].recvs[rid.0];
        match op.staging {
            StagingLoc::Gpu(_) | StagingLoc::Host(_) => {
                let prev = std::mem::replace(&mut op.payload, payload);
                debug_assert!(prev.is_empty(), "a receive landed two payloads");
            }
            StagingLoc::UserGpu(p) => {
                let to = self.copies.contiguous(r, p);
                self.copies.unpack(payload, to);
            }
            StagingLoc::None => {
                self.fault_stats.spurious += 1;
                self.copies.recycle(payload);
            }
        }
    }

    /// RDMA initiator completion: the send is done.
    pub(crate) fn on_send_complete(&mut self, r: usize, sid: SendId, t: Time) {
        let eff = self.eff_now(r, t);
        self.account_wait(r, eff);
        self.ranks[r].cpu = eff + self.platform.progress_poll;
        // Guard: a duplicated CQE — possibly landing after Waitall already
        // freed the epoch's requests — is absorbed, not double-applied.
        match self.ranks[r].sends.get(sid.0) {
            Some(s) if !s.lifecycle.is_done() => self.complete_send(r, sid),
            _ => {
                self.fault_stats.spurious += 1;
                return;
            }
        }
        let now = self.ranks[r].cpu;
        self.check_unblock(r, now);
    }

    /// Submit a staged send's data movement: a pack job gathers the user
    /// buffer through the layout's copy plan into a payload the send owns
    /// until issue. Runs once per staged send, when it is staged
    /// ([`Cluster::begin_pack`]); timing-only runs submit nothing.
    pub(crate) fn apply_pack_movement(&mut self, r: usize, sid: SendId) {
        let s = &self.ranks[r].sends[sid.0];
        let len = s.packed_bytes;
        if self.data_mode == DataMode::ModelOnly || len == 0 {
            return;
        }
        let from = self.copies.elems(r, &s.layout, s.user_buf.addr, s.count);
        let packed = self.copies.pack(from, len, s.dst.0 as usize);
        self.ranks[r].sends[sid.0].payload = packed;
    }

    /// Submit an unpack's data movement: an unpack job scatters the
    /// receive's landed payload into its user buffer and recycles it. Runs
    /// once per staged receive, when its payload lands
    /// ([`Cluster::begin_unpack`]); timing-only runs have nothing landed.
    pub(crate) fn apply_unpack_movement(&mut self, r: usize, rid: RecvId) {
        if self.data_mode == DataMode::ModelOnly {
            return;
        }
        let op = &mut self.ranks[r].recvs[rid.0];
        let payload = std::mem::take(&mut op.payload);
        if payload.is_empty() {
            return; // an empty message: nothing was taken
        }
        let to = self.copies.elems(r, &op.layout, op.user_buf.addr, op.count);
        self.copies.unpack(payload, to);
    }

    /// Submit a DirectIPC receive's data movement: a copy job moves the
    /// sender's elements at `origin` (the send's layout and count) straight
    /// into the local user buffer (the receive's), in one pass with no
    /// bounce buffer. The layouts may differ: MPI matches type signatures,
    /// not layouts. The send is reached through the receive's
    /// `ipc_send_id`, and a rank never routes to itself. Timing-only runs submit nothing.
    /// The packed byte count is the delivery the run-end conservation
    /// check counts.
    pub(crate) fn apply_ipc_movement(&mut self, r: usize, rid: RecvId, src: usize, origin: u64) {
        let op = &self.ranks[r].recvs[rid.0];
        let sid = op.ipc_send_id.expect("a DirectIPC receive names its send");
        let send = &self.ranks[src].sends[sid.0];
        let copied = send.layout.total_bytes(send.count);
        if self.data_mode == DataMode::Full {
            let from = self.copies.elems(src, &send.layout, origin, send.count);
            let to = self.copies.elems(r, &op.layout, op.user_buf.addr, op.count);
            self.copies.copy(from, to);
        }
        let src = op.src;
        self.ranks[r].count_delivered(src, copied);
    }
}
