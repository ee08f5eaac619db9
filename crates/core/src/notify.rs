//! A notification primitive serving blocking threads *and* parked async
//! tasks from one wake source.
//!
//! The serving tier needs [`crate::frozen::FrozenSample`] publication to
//! wake two kinds of consumers: OS threads blocked in
//! `EpochCell::wait_for_epoch` (a condvar wait), and pollers that
//! register a [`Waker`] — the serving tier's connection threads
//! long-poll `SUBSCRIBE_EPOCH` that way, with a waker that unparks
//! them, so a parked subscription never holds the service lock.
//! [`Notify`] unifies both under a single generation
//! counter: every `notify_all` bumps the generation, wakes every blocked
//! thread, and fires every registered waker.
//!
//! ## The lost-wakeup discipline
//!
//! Both wait paths follow the same protocol:
//!
//! 1. read the generation ([`Notify::generation`] or the value returned
//!    by [`Notify::register`]),
//! 2. re-check the external condition,
//! 3. sleep only while the generation still equals the one read in (1).
//!
//! A notification that lands between (2) and (3) has already bumped the
//! generation, so [`Notify::wait_past`] returns immediately and
//! [`Notify::register`] refuses the registration — the caller loops and
//! re-checks. No wakeup can be lost, because the condition is always
//! re-examined after any generation the sleeper has not yet seen.

use std::sync::{Condvar, Mutex};
use std::task::Waker;
use std::time::Instant;

#[derive(Debug, Default)]
struct Inner {
    /// Bumped by every `notify_all`; sleepers wait for it to move.
    generation: u64,
    /// Async waiters parked since the last notification.
    wakers: Vec<Waker>,
}

/// A generation-counted notifier for mixed thread/task waiters; see the
/// module docs for the wait protocol.
#[derive(Debug, Default)]
pub struct Notify {
    inner: Mutex<Inner>,
    cv: Condvar,
}

/// Outcome of [`Notify::wait_past`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The generation moved past the one handed in.
    Notified,
    /// The deadline elapsed first.
    TimedOut,
}

impl Notify {
    /// A fresh notifier at generation 0 with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current generation. Read this *before* checking the condition
    /// you intend to sleep on, then hand it to [`Notify::wait_past`] /
    /// [`Notify::register`].
    pub fn generation(&self) -> u64 {
        self.inner.lock().expect("notify lock").generation
    }

    /// Bump the generation, wake every blocked thread, and fire every
    /// registered waker.
    pub fn notify_all(&self) {
        let wakers = {
            let mut inner = self.inner.lock().expect("notify lock");
            inner.generation = inner.generation.wrapping_add(1);
            std::mem::take(&mut inner.wakers)
        };
        self.cv.notify_all();
        for waker in wakers {
            waker.wake();
        }
    }

    /// Block the calling thread until the generation moves past `seen`
    /// or `deadline` passes (`None` = wait forever). Returns immediately
    /// if the generation already differs from `seen`.
    pub fn wait_past(&self, seen: u64, deadline: Option<Instant>) -> WaitOutcome {
        let mut inner = self.inner.lock().expect("notify lock");
        while inner.generation == seen {
            match deadline {
                None => inner = self.cv.wait(inner).expect("notify lock"),
                Some(deadline) => {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        return WaitOutcome::TimedOut;
                    };
                    let (guard, timeout) = self.cv.wait_timeout(inner, left).expect("notify lock");
                    inner = guard;
                    if timeout.timed_out() && inner.generation == seen {
                        return WaitOutcome::TimedOut;
                    }
                }
            }
        }
        WaitOutcome::Notified
    }

    /// Register `waker` to fire at the next notification, *provided* the
    /// generation still equals `seen`. Returns `Ok(())` on registration
    /// (the caller must return `Pending`) or `Err(current)` when the
    /// generation already moved — the caller re-checks its condition
    /// instead of parking, closing the lost-wakeup window.
    pub fn register(&self, seen: u64, waker: &Waker) -> Result<(), u64> {
        let mut inner = self.inner.lock().expect("notify lock");
        if inner.generation != seen {
            return Err(inner.generation);
        }
        // Re-registration by the same task replaces its stale waker
        // instead of accumulating one entry per poll.
        if let Some(slot) = inner.wakers.iter_mut().find(|w| w.will_wake(waker)) {
            slot.clone_from(waker);
        } else {
            inner.wakers.push(waker.clone());
        }
        Ok(())
    }

    /// Number of currently registered async waiters (diagnostics/tests).
    pub fn registered(&self) -> usize {
        self.inner.lock().expect("notify lock").wakers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::{Wake, Waker};
    use std::time::Duration;

    struct CountingWake(AtomicUsize);
    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn wait_past_returns_immediately_on_stale_generation() {
        let n = Notify::new();
        let seen = n.generation();
        n.notify_all();
        assert_eq!(n.wait_past(seen, None), WaitOutcome::Notified);
    }

    #[test]
    fn wait_past_times_out() {
        let n = Notify::new();
        let seen = n.generation();
        let deadline = Instant::now() + Duration::from_millis(10);
        assert_eq!(n.wait_past(seen, Some(deadline)), WaitOutcome::TimedOut);
    }

    #[test]
    fn notify_wakes_a_blocked_thread() {
        let n = Arc::new(Notify::new());
        let seen = n.generation();
        let n2 = Arc::clone(&n);
        let waiter = std::thread::spawn(move || n2.wait_past(seen, None));
        std::thread::sleep(Duration::from_millis(10));
        n.notify_all();
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Notified);
    }

    #[test]
    fn register_fires_wakers_and_rejects_stale_generations() {
        let n = Notify::new();
        let counter = Arc::new(CountingWake(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        let seen = n.generation();
        n.register(seen, &waker).expect("fresh generation");
        // Same task re-registering replaces, not accumulates.
        n.register(seen, &waker).expect("still fresh");
        assert_eq!(n.registered(), 1);
        n.notify_all();
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert_eq!(n.registered(), 0);
        // After the bump the old generation is refused.
        assert_eq!(n.register(seen, &waker), Err(seen + 1));
    }
}
