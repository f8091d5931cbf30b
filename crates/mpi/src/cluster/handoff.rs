//! Channel handoffs that poll briefly before they park.
//!
//! The copy worker takes a batch of jobs every few hundred microseconds,
//! and the event loop waits for a payload the copy worker is about to hand
//! back. The other side is usually about to send (or to make room), so
//! each wait polls, yielding the CPU, for up to [`HANDOFF_POLL`] before it
//! blocks: parking instead makes every handoff pay a futex wake-up, whose
//! cost on a virtualised host is both large and erratic.

use std::sync::mpsc::{Receiver, RecvError, SendError, SyncSender, TryRecvError, TrySendError};
use std::time::{Duration, Instant};

/// How long a handoff wait polls before it parks the thread.
const HANDOFF_POLL: Duration = Duration::from_micros(100);

/// Receive the next value, polling for up to [`HANDOFF_POLL`] first.
pub(super) fn recv_soon<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) if start.elapsed() < HANDOFF_POLL => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv(),
        }
    }
}

/// Send `v` into a bounded channel, polling for room for up to
/// [`HANDOFF_POLL`] before blocking.
pub(super) fn send_soon<T>(tx: &SyncSender<T>, mut v: T) -> Result<(), SendError<T>> {
    let start = Instant::now();
    loop {
        match tx.try_send(v) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Disconnected(back)) => return Err(SendError(back)),
            Err(TrySendError::Full(back)) if start.elapsed() < HANDOFF_POLL => {
                v = back;
                std::thread::yield_now()
            }
            Err(TrySendError::Full(back)) => return tx.send(back),
        }
    }
}
