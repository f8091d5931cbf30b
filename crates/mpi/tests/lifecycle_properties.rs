//! Property-based tests of the unified [`RequestLifecycle`] state machine
//! and the backpressure [`RequeueLadder`]: invariants that must hold for
//! *any* event sequence the protocol engines could produce — including the
//! fault-replayed streams the chaos harness feeds through `apply`.

use fusedpack_mpi::lifecycle::{
    LifecycleEvent, PackState, RequestLifecycle, RequeueLadder, Role, Stage,
};
use proptest::prelude::*;

const EVENTS: [LifecycleEvent; 8] = [
    LifecycleEvent::PackStarted,
    LifecycleEvent::PackFinished,
    LifecycleEvent::RtsSent,
    LifecycleEvent::Matched,
    LifecycleEvent::DataArrived,
    LifecycleEvent::Issued,
    LifecycleEvent::IssueRetracted,
    LifecycleEvent::Completed,
];

fn arb_event() -> impl Strategy<Value = LifecycleEvent> {
    any::<usize>().prop_map(|i| EVENTS[i % EVENTS.len()])
}

/// Rank of a pack state in its monotone progression.
fn pack_rank(p: PackState) -> u8 {
    match p {
        PackState::NotStarted => 0,
        PackState::InFlight => 1,
        PackState::Done => 2,
    }
}

/// Drive one lifecycle through an arbitrary event stream with `try_apply`
/// and check the structural invariants after every step.
fn check_stream(
    mut lc: RequestLifecycle,
    events: Vec<LifecycleEvent>,
) -> Result<(), TestCaseError> {
    let role = lc.role();
    for ev in events {
        let before = lc;
        let res = lc.try_apply(ev);

        if res.is_err() {
            prop_assert_eq!(lc, before, "a rejected {:?} must not mutate state", ev);
            continue;
        }

        // Pack progress is monotone: no accepted event moves it backwards.
        prop_assert!(
            pack_rank(lc.pack()) >= pack_rank(before.pack()),
            "pack regressed {:?} -> {:?} on {:?}",
            before.pack(),
            lc.pack(),
            ev
        );
        // The RTS flag latches, and only ever on the send side.
        prop_assert!(!before.rts_sent() || lc.rts_sent(), "rts_sent unlatched");
        prop_assert!(
            role == Role::Send || !lc.rts_sent(),
            "a receive claimed to have sent an RTS"
        );
        // Role-reserved stages stay on their side of the diagram.
        if role == Role::Send {
            // A send never enters the recv-only matched stage.
            prop_assert_ne!(lc.stage(), Stage::AwaitingData);
        }
        // A send on the wire always has a finished pack (the Issued guard).
        if role == Role::Send && lc.stage() == Stage::Active {
            prop_assert_eq!(lc.pack(), PackState::Done, "issued with an unfinished pack");
        }
        // `Done` absorbs: once there, the stage never moves again. The
        // orthogonal pack/RTS facts may still latch (a chaos-replayed Fin
        // can complete a send whose pack kernel is still in flight; its
        // PackFinished lands after `Done`).
        if before.is_done() {
            prop_assert_eq!(lc.stage(), before.stage(), "{:?} moved a done stage", ev);
        }
        // The convenience predicates agree with the stage they summarize.
        prop_assert_eq!(lc.is_done(), lc.stage() == Stage::Done);
        prop_assert_eq!(lc.is_unmatched(), lc.stage() == Stage::Pending);
        prop_assert_eq!(lc.awaiting_data(), lc.stage() == Stage::AwaitingData);
        prop_assert_eq!(
            lc.pre_data(),
            matches!(lc.stage(), Stage::Pending | Stage::AwaitingData)
        );
    }
    Ok(())
}

/// Greedily drive a lifecycle to `Done` using only legal events, proving
/// liveness: every reachable state has a path to `Done`. Returns the
/// number of steps taken.
fn drive_to_done(lc: &mut RequestLifecycle) -> usize {
    // Preference order: finish packing, land the data, complete. Retract is
    // deliberately last — it is the only backward edge and never required.
    let forward = [
        LifecycleEvent::PackFinished,
        LifecycleEvent::Matched,
        LifecycleEvent::DataArrived,
        LifecycleEvent::Issued,
        LifecycleEvent::Completed,
    ];
    let mut steps = 0;
    while !lc.is_done() {
        let progressed = forward.iter().any(|&ev| lc.try_apply(ev).is_ok());
        assert!(progressed, "stuck in non-terminal state {lc:?}");
        steps += 1;
        assert!(steps <= 8, "termination should take a handful of steps");
    }
    steps
}

proptest! {
    /// Under any event stream, `try_apply` only ever takes edges of the
    /// documented relation: pack progress is monotone, the RTS latch is
    /// send-only and one-way, send/recv never enter each other's stages, an
    /// issued payload always has a finished pack, `Done` absorbs,
    /// and a rejection leaves the machine bit-identical.
    #[test]
    fn send_streams_stay_in_the_legal_relation(
        events in prop::collection::vec(arb_event(), 1..60),
    ) {
        check_stream(RequestLifecycle::send(), events)?;
    }

    #[test]
    fn recv_streams_stay_in_the_legal_relation(
        events in prop::collection::vec(arb_event(), 1..60),
    ) {
        check_stream(RequestLifecycle::recv(), events)?;
    }

    /// Liveness: from *any* reachable non-terminal state — produced by an
    /// arbitrary prefix of legal transitions — a driver that keeps issuing
    /// protocol-forward events reaches `Done` in a handful of steps. No
    /// request can be wedged by the order its events happened to arrive in.
    #[test]
    fn every_request_terminates(
        send_side in any::<bool>(),
        prefix in prop::collection::vec(arb_event(), 0..40),
    ) {
        let mut lc = if send_side {
            RequestLifecycle::send()
        } else {
            RequestLifecycle::recv()
        };
        for ev in prefix {
            let _ = lc.try_apply(ev);
        }
        drive_to_done(&mut lc);
        prop_assert!(lc.is_done());
    }

    /// The chaos backpressure queue is FIFO under any interleaving of
    /// fresh parks, drains, and mid-drain refusals (`park_front`): parked
    /// operations come back out in exactly the order they first entered,
    /// regardless of how many times the ring refused them.
    #[test]
    fn requeue_ladder_preserves_fifo_order(
        ops in prop::collection::vec(any::<usize>(), 1..120),
    ) {
        let mut ladder: RequeueLadder<u64> = RequeueLadder::new();
        let mut model: Vec<u64> = Vec::new(); // expected drain order
        let mut next_id = 0u64;
        let mut drained: Vec<u64> = Vec::new();

        for op in ops {
            match op % 3 {
                // A fresh refusal parks at the back.
                0 => {
                    ladder.park(next_id);
                    model.push(next_id);
                    next_id += 1;
                }
                // A successful drain step takes the oldest.
                1 => {
                    if let Some(got) = ladder.take_next() {
                        drained.push(got);
                    }
                }
                // A refused drain step puts the oldest back — it must
                // still come out first.
                _ => {
                    if let Some(got) = ladder.take_next() {
                        ladder.park_front(got);
                    }
                }
            }
            prop_assert_eq!(ladder.len(), model.len() - drained.len());
            prop_assert_eq!(ladder.is_empty(), model.len() == drained.len());
        }
        while let Some(got) = ladder.take_next() {
            drained.push(got);
        }
        prop_assert_eq!(drained, model, "drain order must equal first-park order");
    }
}

/// The two golden protocol walks, end to end — pinned here (not proptest)
/// so a relation change that breaks the real paths fails with a readable
/// name.
#[test]
fn canonical_rendezvous_walk() {
    let mut s = RequestLifecycle::send();
    s.apply(LifecycleEvent::PackStarted);
    s.apply(LifecycleEvent::RtsSent);
    s.apply(LifecycleEvent::PackFinished);
    s.apply(LifecycleEvent::Issued);
    s.apply(LifecycleEvent::Completed);
    assert!(s.is_done());
    assert_eq!(drive_to_done(&mut RequestLifecycle::send()), 3);

    let mut r = RequestLifecycle::recv();
    r.apply(LifecycleEvent::Matched);
    r.apply(LifecycleEvent::DataArrived);
    r.apply(LifecycleEvent::PackStarted);
    r.apply(LifecycleEvent::PackFinished);
    r.apply(LifecycleEvent::Completed);
    assert!(r.is_done());
}
