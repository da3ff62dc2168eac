//! Cooperative condition variable.

use crate::park::WaitQueue;
use crate::sync::mutex::MutexGuard;
use parking_lot::Mutex as RawMutex;
use std::time::{Duration, Instant};

/// Result of a timed condition wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed (rather than a notification).
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable whose blocked waiters release their virtual core.
///
/// Waiters are queued FIFO; `notify_one` submits the task at the head of the queue
/// (`nosv_submit`), `notify_all` submits all of them.
#[derive(Default)]
pub struct Condvar {
    waiters: RawMutex<WaitQueue>,
}

impl Condvar {
    /// Create a new condition variable.
    pub fn new() -> Self {
        Condvar::default()
    }

    /// Release `guard`'s mutex, block until notified, then reacquire the mutex.
    ///
    /// Like POSIX condition variables, spurious wake-ups are possible; always re-check the
    /// predicate (or use [`Condvar::wait_while`]).
    pub fn wait<'a, T: ?Sized>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mutex = guard.mutex();
        let waiter = self.waiters.lock().enqueue();
        drop(guard);
        waiter.wait();
        mutex.lock()
    }

    /// [`Condvar::wait`] with a timeout.
    pub fn wait_timeout<'a, T: ?Sized>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let deadline = Instant::now() + timeout;
        let mutex = guard.mutex();
        let waiter = self.waiters.lock().enqueue();
        drop(guard);
        let signalled = WaitQueue::wait_until(waiter, deadline, &self.waiters, |q| q).is_ok();
        (
            mutex.lock(),
            WaitTimeoutResult {
                timed_out: !signalled,
            },
        )
    }

    /// Wait until `condition` returns `false` (i.e. block *while* the condition holds).
    pub fn wait_while<'a, T: ?Sized>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        while condition(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Timed [`Condvar::wait_while`]. Returns the guard and whether the wait timed out with
    /// the condition still true.
    pub fn wait_while_timeout<'a, T: ?Sized>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: impl FnMut(&mut T) -> bool,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let deadline = Instant::now() + timeout;
        while condition(&mut guard) {
            let now = Instant::now();
            if now >= deadline {
                return (guard, WaitTimeoutResult { timed_out: true });
            }
            let (g, _r) = self.wait_timeout(guard, deadline - now);
            guard = g;
        }
        (guard, WaitTimeoutResult { timed_out: false })
    }

    /// Wake one waiter. Returns `true` if a waiter was woken.
    pub fn notify_one(&self) -> bool {
        let Some(w) = self.waiters.lock().pop() else {
            return false;
        };
        w.wake();
        true
    }

    /// Wake every waiter. Returns how many were woken.
    pub fn notify_all(&self) -> usize {
        let ws = self.waiters.lock().take_all();
        let n = ws.len();
        ws.wake_all();
        n
    }

    /// Number of queued waiters (diagnostic; racy by nature).
    pub fn waiter_count(&self) -> usize {
        self.waiters.lock().len()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar")
            .field("waiters", &self.waiter_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;
    use crate::sync::Mutex;
    use std::sync::Arc;

    #[test]
    fn notify_one_wakes_a_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
            *g
        });
        std::thread::sleep(Duration::from_millis(20));
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        assert!(h.join().unwrap());
    }

    #[test]
    fn notify_without_waiters_returns_false() {
        let cv = Condvar::new();
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
    }

    #[test]
    fn wait_timeout_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = m.lock();
        let start = Instant::now();
        let (_g, r) = cv.wait_timeout(g, Duration::from_millis(30));
        assert!(r.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(
            cv.waiter_count(),
            0,
            "timed-out waiter must not linger in the queue"
        );
    }

    #[test]
    fn wait_while_rechecks_predicate() {
        let state = Arc::new((Mutex::new(0), Condvar::new()));
        let s2 = Arc::clone(&state);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            let g = cv.wait_while(m.lock(), |v| *v < 3);
            *g
        });
        for i in 1..=3 {
            std::thread::sleep(Duration::from_millis(10));
            let (m, cv) = &*state;
            *m.lock() = i;
            cv.notify_all();
        }
        assert_eq!(h.join().unwrap(), 3);
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let mut handles = Vec::new();
        for _ in 0..5 {
            let s = Arc::clone(&state);
            handles.push(std::thread::spawn(move || {
                let (m, cv) = &*s;
                let _g = cv.wait_while(m.lock(), |go| !*go);
            }));
        }
        // Let everyone queue up.
        while state.1.waiter_count() < 5 {
            std::thread::yield_now();
        }
        *state.0.lock() = true;
        assert_eq!(state.1.notify_all(), 5);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn cooperative_producer_consumer_on_one_core() {
        // One virtual core: the consumer blocks on the condvar (releasing the core) so the
        // producer can run — this only works if the condvar wait is a real scheduling point.
        let usf = Usf::builder().cores(1).build();
        let proc = usf.process("cv-test");
        let state = Arc::new((Mutex::new(Vec::<u32>::new()), Condvar::new()));
        let s_cons = Arc::clone(&state);
        let consumer = proc.spawn(move || {
            let (m, cv) = &*s_cons;
            let mut got = Vec::new();
            let mut g = m.lock();
            while got.len() < 3 {
                while g.is_empty() {
                    g = cv.wait(g);
                }
                got.append(&mut g);
            }
            got
        });
        std::thread::sleep(Duration::from_millis(10));
        let s_prod = Arc::clone(&state);
        let producer = proc.spawn(move || {
            let (m, cv) = &*s_prod;
            for i in 0..3 {
                m.lock().push(i);
                cv.notify_one();
            }
        });
        producer.join().unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), 3);
        usf.shutdown();
    }

    #[test]
    fn wait_while_timeout_gives_up() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let (_g, r) = cv.wait_while_timeout(m.lock(), |v| !*v, Duration::from_millis(20));
        assert!(r.timed_out());
    }
}
