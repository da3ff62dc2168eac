//! Timed readiness polling — the poll/epoll integration (§4.3.4).
//!
//! glibcv cannot turn arbitrary kernel readiness waits into scheduling points, so timed
//! `poll`/`epoll` variants are rewritten as a loop: perform a non-blocking check with the
//! original API, then `nosv_waitfor` for a short slice (5 ms by default) so the core is
//! handed to another task, and repeat until the user timeout expires or an event occurs.
//! [`poll_until`] reproduces that loop for any user-supplied readiness predicate.

use crate::current::current;
use std::time::{Duration, Instant};

/// The slice a polling loop waits between checks when the caller names none: the paper's
/// poll/epoll integration re-checks every 5 ms.
const DEFAULT_SLICE: Duration = Duration::from_millis(5);

/// Result of [`poll_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// The predicate became true before the timeout.
    Ready,
    /// The timeout expired.
    TimedOut,
}

/// Repeatedly evaluate `ready` until it returns `true` or `timeout` expires, releasing the
/// caller's virtual core between checks in slices of `slice` (5 ms when `None`, matching the
/// paper's default). Non-attached threads sleep between checks instead.
pub fn poll_until(
    mut ready: impl FnMut() -> bool,
    timeout: Duration,
    slice: Option<Duration>,
) -> PollOutcome {
    let slice = slice.unwrap_or(DEFAULT_SLICE);
    let deadline = Instant::now() + timeout;
    let ctx = current();
    loop {
        if ready() {
            return PollOutcome::Ready;
        }
        let now = Instant::now();
        if now >= deadline {
            return PollOutcome::TimedOut;
        }
        let wait = slice.min(deadline - now);
        match &ctx {
            Some(c) => {
                let _ = c.nosv.scheduler().waitfor(&c.task, wait);
            }
            None => std::thread::sleep(wait),
        }
    }
}

/// Convenience wrapper: poll an already-armed readiness flag forever (no timeout), checking
/// every `slice`. Returns once the predicate is true.
pub fn poll_forever(mut ready: impl FnMut() -> bool, slice: Option<Duration>) {
    let slice = slice.unwrap_or(DEFAULT_SLICE);
    let ctx = current();
    loop {
        if ready() {
            return;
        }
        match &ctx {
            Some(c) => {
                let _ = c.nosv.scheduler().waitfor(&c.task, slice);
            }
            None => std::thread::sleep(slice),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn ready_immediately() {
        assert_eq!(
            poll_until(|| true, Duration::from_millis(100), None),
            PollOutcome::Ready
        );
    }

    #[test]
    fn times_out_when_never_ready() {
        let start = Instant::now();
        let out = poll_until(
            || false,
            Duration::from_millis(30),
            Some(Duration::from_millis(5)),
        );
        assert_eq!(out, PollOutcome::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn becomes_ready_midway() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let setter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            f2.store(true, Ordering::SeqCst);
        });
        let out = poll_until(
            || flag.load(Ordering::SeqCst),
            Duration::from_secs(5),
            Some(Duration::from_millis(2)),
        );
        assert_eq!(out, PollOutcome::Ready);
        setter.join().unwrap();
    }

    #[test]
    fn cooperative_poll_releases_the_core_between_checks() {
        // One core: while the poller waits for the flag, the other worker must be able to
        // run (and it is the one that sets the flag), so the poll can only succeed if the
        // waitfor slices actually release the core.
        let usf = Usf::builder().cores(1).build();
        let p = usf.process("poll-test");
        let flag = Arc::new(AtomicBool::new(false));
        let f1 = Arc::clone(&flag);
        let poller = p.spawn(move || {
            poll_until(
                || f1.load(Ordering::SeqCst),
                Duration::from_secs(10),
                Some(Duration::from_millis(2)),
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        let f2 = Arc::clone(&flag);
        let setter = p.spawn(move || f2.store(true, Ordering::SeqCst));
        setter.join().unwrap();
        assert_eq!(poller.join().unwrap(), PollOutcome::Ready);
        usf.shutdown();
    }

    #[test]
    fn poll_forever_returns_when_ready() {
        let mut calls = 0;
        poll_forever(
            || {
                calls += 1;
                calls >= 3
            },
            Some(Duration::from_millis(1)),
        );
        assert_eq!(calls, 3);
    }
}
