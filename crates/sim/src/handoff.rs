//! One-token rendezvous used by the OS-thread actor backend.
//!
//! The engine guarantees that at most one party (the scheduler or a single
//! actor) is logically running at a time. On the [`crate::ActorBackend::OsThread`]
//! backend each actor lives on its own parked thread, and a `Handoff` is the
//! parking spot a party waits on until the other side passes it the token.
//! (The default coroutine backend needs none of this — a handoff there is a
//! user-space context switch.)
//!
//! On that thread backend — and only there; this is no longer the primary
//! handoff path of the engine — the wait is **spin-then-park**: the token
//! lives in an atomic, and a waiter first spins on it for a short bounded
//! burst — when the peer is about to pass the token (the common case in a
//! tight simcall exchange) this resolves the handoff entirely in user
//! space, with no futex sleep. Only if the token does not arrive within
//! the burst does the waiter take the mutex and park on the condvar. Each
//! `Handoff` has exactly one consumer, so consuming the token needs no CAS
//! loop.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

const TOKEN: u32 = 1;

/// Spin budget before parking. A handful of microseconds of polling — enough
/// to cover a peer that is already on its way to `signal`, short enough to
/// cost nothing measurable when the peer runs long.
const SPIN: u32 = 128;

/// A binary-semaphore-like rendezvous point.
#[derive(Debug, Default)]
pub(crate) struct Handoff {
    state: AtomicU32,
    park: Mutex<()>,
    cv: Condvar,
}

impl Handoff {
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the token if present. Single-consumer, so observing TOKEN
    /// means we own it; `fetch_and` only clears our own observation.
    fn try_take(&self) -> bool {
        let s = self.state.load(Ordering::Acquire);
        if s & TOKEN == 0 {
            return false;
        }
        let prev = self.state.fetch_and(!TOKEN, Ordering::AcqRel);
        debug_assert_ne!(prev & TOKEN, 0, "handoff token consumed twice");
        true
    }

    /// Park until the token arrives.
    pub fn wait(&self) {
        for _ in 0..SPIN {
            if self.try_take() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut g = self.park.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.try_take() {
                return;
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Pass the token, waking the parked party (or letting the next `wait`
    /// return immediately).
    pub fn signal(&self) {
        self.state.fetch_or(TOKEN, Ordering::Release);
        self.notify();
    }

    /// Wake a potentially parked waiter. Taking (and dropping) the park lock
    /// between the token store and the notify closes the race with a waiter
    /// that checked the token just before parking: it either sees the token
    /// under the lock, or is already in `cv.wait` and receives the notify.
    fn notify(&self) {
        drop(self.park.lock().unwrap_or_else(PoisonError::into_inner));
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn token_passes_between_threads() {
        let h = Arc::new(Handoff::new());
        let h2 = Arc::clone(&h);
        let t = std::thread::spawn(move || h2.wait());
        h.signal();
        t.join().unwrap();
    }

    #[test]
    fn signal_before_wait_is_not_lost() {
        let h = Handoff::new();
        h.signal();
        h.wait();
    }

    #[test]
    fn token_survives_a_parked_waiter_round_trip() {
        // Force the park path: the signal arrives well after the spin budget.
        let h = Arc::new(Handoff::new());
        let h2 = Arc::clone(&h);
        let t = std::thread::spawn(move || h2.wait());
        std::thread::sleep(std::time::Duration::from_millis(30));
        h.signal();
        t.join().unwrap();
    }

    #[test]
    fn many_sequential_round_trips() {
        let h = Arc::new(Handoff::new());
        let done = Arc::new(Handoff::new());
        let h2 = Arc::clone(&h);
        let d2 = Arc::clone(&done);
        let t = std::thread::spawn(move || {
            for _ in 0..10_000 {
                h2.wait();
                d2.signal();
            }
        });
        for _ in 0..10_000 {
            h.signal();
            done.wait();
        }
        t.join().unwrap();
    }
}
