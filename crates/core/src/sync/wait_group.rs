//! A wait group: wait until a counter of outstanding work items drops to zero.
//!
//! Used by the runtimes crate to implement `taskwait` (OmpSs-2) and end-of-parallel-region
//! joins (OpenMP) as cooperative scheduling points.

use crate::park::WaitQueue;
use parking_lot::Mutex as RawMutex;
use std::time::{Duration, Instant};

#[derive(Default)]
struct State {
    count: usize,
    waiters: WaitQueue,
}

/// A counter of outstanding work items with cooperative waiting.
#[derive(Default)]
pub struct WaitGroup {
    state: RawMutex<State>,
}

impl WaitGroup {
    /// Create a wait group with a zero counter.
    pub fn new() -> Self {
        WaitGroup::default()
    }

    /// Create a wait group with an initial counter.
    pub fn with_count(count: usize) -> Self {
        WaitGroup {
            state: RawMutex::new(State {
                count,
                waiters: WaitQueue::default(),
            }),
        }
    }

    /// Add `n` outstanding items.
    pub fn add(&self, n: usize) {
        self.state.lock().count += n;
    }

    /// Mark one item as done; wakes waiters when the counter reaches zero.
    pub fn done(&self) {
        self.done_n(1);
    }

    /// Mark `n` items as done.
    pub fn done_n(&self, n: usize) {
        let mut st = self.state.lock();
        assert!(st.count >= n, "WaitGroup::done called more times than add");
        st.count -= n;
        if st.count == 0 {
            let to_wake = st.waiters.take_all();
            drop(st);
            to_wake.wake_all();
        }
    }

    /// Current counter value (diagnostic; racy by nature).
    pub fn count(&self) -> usize {
        self.state.lock().count
    }

    /// Block cooperatively until the counter reaches zero.
    pub fn wait(&self) {
        let mut st = self.state.lock();
        if st.count == 0 {
            return;
        }
        let w = st.waiters.enqueue();
        drop(st);
        w.wait();
    }

    /// Block until the counter reaches zero or `timeout` elapses. Returns `true` if the
    /// counter reached zero.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        if st.count == 0 {
            return true;
        }
        let w = st.waiters.enqueue();
        drop(st);
        WaitQueue::wait_until(w, deadline, &self.state, |st| &mut st.waiters).is_ok()
    }
}

impl std::fmt::Debug for WaitGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitGroup")
            .field("count", &self.count())
            .finish()
    }
}

#[cfg(test)]
impl WaitGroup {
    /// Number of queued waiters.
    pub(crate) fn waiter_count(&self) -> usize {
        self.state.lock().waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;
    use std::sync::Arc;

    #[test]
    fn wait_on_zero_returns_immediately() {
        let wg = WaitGroup::new();
        wg.wait();
        assert!(wg.wait_timeout(Duration::from_millis(1)));
    }

    #[test]
    fn wait_blocks_until_all_done() {
        let wg = Arc::new(WaitGroup::with_count(3));
        let wg2 = Arc::clone(&wg);
        let waiter = std::thread::spawn(move || wg2.wait());
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(5));
            wg.done();
        }
        waiter.join().unwrap();
        assert_eq!(wg.count(), 0);
    }

    #[test]
    fn wait_wakes_multiple_waiters() {
        let wg = Arc::new(WaitGroup::with_count(1));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let wg = Arc::clone(&wg);
            handles.push(std::thread::spawn(move || wg.wait()));
        }
        std::thread::sleep(Duration::from_millis(20));
        wg.done();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wg.waiter_count(), 0);
    }

    #[test]
    fn wait_timeout_expires_when_not_done() {
        let wg = WaitGroup::with_count(1);
        assert!(!wg.wait_timeout(Duration::from_millis(20)));
        assert_eq!(wg.waiter_count(), 0, "no stale waiter after a timeout");
        wg.done();
        assert!(wg.wait_timeout(Duration::from_millis(20)));
    }

    #[test]
    #[should_panic]
    fn done_more_than_add_panics() {
        let wg = WaitGroup::new();
        wg.done();
    }

    #[test]
    fn cooperative_taskwait_pattern() {
        // One core, a "main" task waiting for 3 workers: the wait must release the core.
        let usf = Usf::builder().cores(1).build();
        let p = usf.process("wg-test");
        let wg = Arc::new(WaitGroup::with_count(3));
        let wg_main = Arc::clone(&wg);
        let p2 = p.clone();
        let main = p.spawn(move || {
            for _ in 0..3 {
                let wg = Arc::clone(&wg_main);
                p2.spawn(move || wg.done());
            }
            wg_main.wait();
            "all-done"
        });
        assert_eq!(main.join().unwrap(), "all-done");
        usf.shutdown();
    }
}
