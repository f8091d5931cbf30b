//! The unified request lifecycle: one explicit state machine for every
//! send and receive, regardless of protocol path.
//!
//! Before this module existed, the progress engine tracked requests with a
//! scatter of booleans (`rts_sent`, `data_issued`, `completed`) plus two
//! overlapping enums (`PackState`, `RecvState`), and each scheme mutated
//! whichever subset it knew about. [`RequestLifecycle`] replaces the flags
//! with a single [`Stage`] progression per role plus two orthogonal
//! facts — packing progress ([`PackState`]) and whether the RTS has gone
//! out — and makes every mutation an explicit [`LifecycleEvent`] whose
//! legality is checked by [`RequestLifecycle::try_apply`].
//!
//! The stage diagram (send left, receive right):
//!
//! ```text
//!   Pending ──Issued──▶ Active          Pending ──Matched──▶ AwaitingData
//!      │  ◀─IssueRetracted─┘               │                      │
//!      │                │                  └──────DataArrived─────┤
//!      └───Completed────┤                                         ▼
//!                       ▼                                       Active
//!                     Done                 Done ◀──Completed──────┘
//! ```
//!
//! `Done` is the only terminal stage and absorbs every event that would
//! move the stage. The fault paths always recover (retry, degrade, or
//! absorb), so no request ever fails terminally.

use std::collections::VecDeque;
use std::fmt;

/// Packing progress on the sender (or unpacking on the receiver),
/// orthogonal to the protocol [`Stage`]: a send may issue only once its
/// pack is [`PackState::Done`], but an RTS can overlap an in-flight pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackState {
    NotStarted,
    InFlight,
    Done,
}

/// Which side of the transfer a lifecycle tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Send,
    Recv,
}

/// Protocol progress of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Send: payload not yet on the wire. Recv: posted, unmatched.
    Pending,
    /// Recv only: matched (CTS sent / RDMA READ issued), payload not here.
    AwaitingData,
    /// Send: payload issued, local completion outstanding. Recv: payload
    /// landed (or DirectIPC mapped), unpack in progress.
    Active,
    /// Terminal: locally complete (send) / data in the user buffer (recv).
    Done,
}

/// One legal-or-rejected step of a [`RequestLifecycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// An asynchronous pack/unpack kernel (or staged DMA) was launched.
    PackStarted,
    /// Packing (unpacking) finished; staging holds the packed bytes.
    PackFinished,
    /// The RTS control message went on the wire (send only).
    RtsSent,
    /// The receive matched an RTS and answered it (recv only).
    Matched,
    /// The payload landed in staging / the IPC mapping resolved (recv).
    DataArrived,
    /// The payload was put on the wire (send only; requires a done pack).
    Issued,
    /// A spurious issue was rolled back — a fault-replayed control message
    /// armed `Issued` without a real CTS (send only).
    IssueRetracted,
    /// The request completed (CQE / Fin / unpack landed).
    Completed,
}

/// A rejected [`LifecycleEvent`]: the transition is not in the legal
/// relation for the lifecycle's current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    pub role: Role,
    pub stage: Stage,
    pub pack: PackState,
    pub event: LifecycleEvent,
}

impl fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal {:?} for {:?} request at stage {:?} (pack {:?})",
            self.event, self.role, self.stage, self.pack
        )
    }
}

/// The unified per-request state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestLifecycle {
    role: Role,
    stage: Stage,
    pack: PackState,
    rts_sent: bool,
}

impl RequestLifecycle {
    /// A fresh send: pending, unpacked, no RTS out.
    pub fn send() -> Self {
        RequestLifecycle {
            role: Role::Send,
            stage: Stage::Pending,
            pack: PackState::NotStarted,
            rts_sent: false,
        }
    }

    /// A fresh receive: posted, unmatched.
    pub fn recv() -> Self {
        RequestLifecycle {
            role: Role::Recv,
            stage: Stage::Pending,
            pack: PackState::NotStarted,
            rts_sent: false,
        }
    }

    pub fn role(&self) -> Role {
        self.role
    }

    pub fn stage(&self) -> Stage {
        self.stage
    }

    pub fn pack(&self) -> PackState {
        self.pack
    }

    /// Has the RTS for this send gone out?
    pub fn rts_sent(&self) -> bool {
        self.rts_sent
    }

    /// Locally complete (send) / data delivered (recv).
    pub fn is_done(&self) -> bool {
        self.stage == Stage::Done
    }

    /// Posted receive not yet matched to an RTS/eager message (also true
    /// for a send that has not issued).
    pub fn is_unmatched(&self) -> bool {
        self.stage == Stage::Pending
    }

    /// Matched receive still waiting for its payload.
    pub fn awaiting_data(&self) -> bool {
        self.stage == Stage::AwaitingData
    }

    /// Receive that has not yet seen its payload (posted or matched) — the
    /// fusion scheduler's receiver-side linger predicate.
    pub fn pre_data(&self) -> bool {
        matches!(self.stage, Stage::Pending | Stage::AwaitingData)
    }

    /// Check `event` against the legal-transition relation and apply it.
    ///
    /// On rejection the lifecycle is left untouched and the offending
    /// combination is returned.
    pub fn try_apply(&mut self, event: LifecycleEvent) -> Result<(), IllegalTransition> {
        let legal = match event {
            // Packing may (re-)start any time before it finishes; the
            // backpressure requeue re-arms an already-in-flight pack.
            LifecycleEvent::PackStarted => {
                matches!(self.pack, PackState::NotStarted | PackState::InFlight)
            }
            LifecycleEvent::PackFinished => {
                matches!(self.pack, PackState::NotStarted | PackState::InFlight)
            }
            // One RTS per send; it may overlap any pack/issue state
            // (DirectIPC announces before packing, RGET after).
            LifecycleEvent::RtsSent => self.role == Role::Send && !self.rts_sent,
            LifecycleEvent::Matched => self.role == Role::Recv && self.stage == Stage::Pending,
            LifecycleEvent::DataArrived => {
                self.role == Role::Recv
                    && matches!(self.stage, Stage::Pending | Stage::AwaitingData)
            }
            // A payload can only go on the wire once its pack is done.
            LifecycleEvent::Issued => {
                self.role == Role::Send
                    && self.stage == Stage::Pending
                    && self.pack == PackState::Done
            }
            LifecycleEvent::IssueRetracted => {
                self.role == Role::Send && self.stage == Stage::Active
            }
            // A send may complete from Pending (DirectIPC Fin arrives while
            // the payload never rides the wire); a receive only from Active.
            LifecycleEvent::Completed => match self.role {
                Role::Send => matches!(self.stage, Stage::Pending | Stage::Active),
                Role::Recv => self.stage == Stage::Active,
            },
        };
        if !legal {
            return Err(IllegalTransition {
                role: self.role,
                stage: self.stage,
                pack: self.pack,
                event,
            });
        }
        self.force(event);
        Ok(())
    }

    /// Apply `event`, asserting legality in debug builds. Release builds
    /// fall back to the raw flag semantics (`RequestLifecycle::force`)
    /// so a fault-replayed event stream degrades exactly as the pre-machine
    /// flag writes did instead of panicking mid-exchange.
    pub fn apply(&mut self, event: LifecycleEvent) {
        if let Err(err) = self.try_apply(event) {
            debug_assert!(false, "{err}");
            self.force(event);
        }
    }

    /// Unconditionally apply `event`'s effect — the exact semantics of the
    /// boolean flags this machine replaced.
    fn force(&mut self, event: LifecycleEvent) {
        match event {
            LifecycleEvent::PackStarted => self.pack = PackState::InFlight,
            LifecycleEvent::PackFinished => self.pack = PackState::Done,
            LifecycleEvent::RtsSent => self.rts_sent = true,
            LifecycleEvent::Matched => self.stage = Stage::AwaitingData,
            LifecycleEvent::DataArrived => self.stage = Stage::Active,
            LifecycleEvent::Issued => self.stage = Stage::Active,
            LifecycleEvent::IssueRetracted => self.stage = Stage::Pending,
            LifecycleEvent::Completed => self.stage = Stage::Done,
        }
    }
}

/// FIFO parking lot for operations refused by a full request ring — the
/// backpressure ladder's queue, generic so the property tests can model it
/// with plain integers.
///
/// The drain discipline: [`RequeueLadder::take_next`] pops the oldest
/// parked operation; if the ring refuses it again the caller
/// [`RequeueLadder::park_front`]s it back and stops, so relative order is
/// preserved across any number of refusals.
#[derive(Debug, Clone, Default)]
pub struct RequeueLadder<T> {
    queue: VecDeque<T>,
}

impl<T> RequeueLadder<T> {
    pub fn new() -> Self {
        RequeueLadder {
            queue: VecDeque::new(),
        }
    }

    /// Park an operation at the back (a fresh refusal).
    pub fn park(&mut self, op: T) {
        self.queue.push_back(op);
    }

    /// Put an operation back at the front (refused again mid-drain; it
    /// stays the oldest).
    pub fn park_front(&mut self, op: T) {
        self.queue.push_front(op);
    }

    /// Take the oldest parked operation.
    pub fn take_next(&mut self) -> Option<T> {
        self.queue.pop_front()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_walks_eager_path() {
        let mut lc = RequestLifecycle::send();
        assert!(lc.is_unmatched());
        lc.apply(LifecycleEvent::PackFinished);
        lc.apply(LifecycleEvent::Issued);
        assert_eq!(lc.stage(), Stage::Active);
        lc.apply(LifecycleEvent::Completed);
        assert!(lc.is_done());
    }

    #[test]
    fn issue_requires_finished_pack() {
        let mut lc = RequestLifecycle::send();
        let err = lc.try_apply(LifecycleEvent::Issued).unwrap_err();
        assert_eq!(err.event, LifecycleEvent::Issued);
        assert_eq!(lc.stage(), Stage::Pending, "rejection leaves state");
    }

    #[test]
    fn recv_walks_rendezvous_path() {
        let mut lc = RequestLifecycle::recv();
        lc.apply(LifecycleEvent::Matched);
        assert!(lc.awaiting_data());
        assert!(lc.pre_data());
        lc.apply(LifecycleEvent::DataArrived);
        lc.apply(LifecycleEvent::PackStarted);
        lc.apply(LifecycleEvent::PackFinished);
        lc.apply(LifecycleEvent::Completed);
        assert!(lc.is_done());
    }

    #[test]
    fn recv_rejects_send_events() {
        let mut lc = RequestLifecycle::recv();
        assert!(lc.try_apply(LifecycleEvent::RtsSent).is_err());
        assert!(lc.try_apply(LifecycleEvent::Issued).is_err());
        assert!(!lc.rts_sent());
    }

    #[test]
    fn rts_goes_out_once() {
        let mut lc = RequestLifecycle::send();
        lc.apply(LifecycleEvent::RtsSent);
        assert!(lc.rts_sent());
        assert!(lc.try_apply(LifecycleEvent::RtsSent).is_err());
    }

    #[test]
    fn retract_rolls_an_issue_back() {
        let mut lc = RequestLifecycle::send();
        lc.apply(LifecycleEvent::PackFinished);
        lc.apply(LifecycleEvent::Issued);
        lc.apply(LifecycleEvent::IssueRetracted);
        assert_eq!(lc.stage(), Stage::Pending);
        lc.apply(LifecycleEvent::Issued);
        assert_eq!(lc.stage(), Stage::Active);
    }

    #[test]
    fn done_absorbs() {
        let mut lc = RequestLifecycle::send();
        lc.apply(LifecycleEvent::PackFinished);
        lc.apply(LifecycleEvent::Completed);
        assert!(lc.is_done());
        assert!(lc.try_apply(LifecycleEvent::Completed).is_err());
        assert!(lc.try_apply(LifecycleEvent::Issued).is_err());
        assert!(lc.try_apply(LifecycleEvent::IssueRetracted).is_err());
    }

    #[test]
    fn requeue_ladder_is_fifo() {
        let mut q = RequeueLadder::new();
        q.park(1);
        q.park(2);
        assert_eq!(q.len(), 2);
        let head = q.take_next().unwrap();
        q.park_front(head); // refused: stays oldest
        q.park(3);
        assert_eq!(q.take_next(), Some(1));
        assert_eq!(q.take_next(), Some(2));
        assert_eq!(q.take_next(), Some(3));
        assert!(q.is_empty());
    }
}
