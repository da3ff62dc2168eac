//! Cooperative counting semaphore (the `sem_wait`/`sem_post` extension).

use crate::park::WaitQueue;
use parking_lot::Mutex as RawMutex;
use std::time::{Duration, Instant};

#[derive(Default)]
struct State {
    permits: usize,
    queue: WaitQueue,
}

/// A counting semaphore whose blocked acquirers release their virtual core.
///
/// Releases hand permits directly to queued waiters (FIFO), so a permit made available under
/// contention wakes exactly the thread that has been waiting longest.
pub struct Semaphore {
    state: RawMutex<State>,
}

impl Semaphore {
    /// Create a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: RawMutex::new(State {
                permits,
                queue: WaitQueue::default(),
            }),
        }
    }

    /// Currently available permits (diagnostic; racy by nature).
    pub fn available_permits(&self) -> usize {
        self.state.lock().permits
    }

    /// Number of blocked acquirers (diagnostic; racy by nature).
    pub fn queue_len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Acquire one permit, blocking cooperatively if none is available.
    pub fn acquire(&self) {
        let mut st = self.state.lock();
        if st.permits > 0 {
            st.permits -= 1;
            return;
        }
        let w = st.queue.enqueue();
        drop(st);
        // The permit is handed to us by a release.
        w.wait();
    }

    /// Try to acquire one permit without blocking.
    pub fn try_acquire(&self) -> bool {
        let mut st = self.state.lock();
        if st.permits > 0 {
            st.permits -= 1;
            true
        } else {
            false
        }
    }

    /// Acquire one permit, giving up after `timeout`. Returns whether a permit was acquired.
    pub fn acquire_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        if st.permits > 0 {
            st.permits -= 1;
            return true;
        }
        let w = st.queue.enqueue();
        drop(st);
        WaitQueue::wait_until(w, deadline, &self.state, |st| &mut st.queue).is_ok()
    }

    /// Release one permit (handing it to the longest-waiting acquirer, if any).
    pub fn release(&self) {
        self.release_n(1);
    }

    /// Release `n` permits.
    pub fn release_n(&self, n: usize) {
        let mut to_wake = Vec::new();
        let mut st = self.state.lock();
        while to_wake.len() < n {
            let Some(w) = st.queue.pop() else {
                st.permits += n - to_wake.len();
                break;
            };
            to_wake.push(w);
        }
        drop(st);
        for w in to_wake {
            w.wake();
        }
    }

    /// Run `f` while holding a permit.
    pub fn with_permit<R>(&self, f: impl FnOnce() -> R) -> R {
        self.acquire();
        let r = f();
        self.release();
        r
    }
}

impl std::fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Semaphore")
            .field("permits", &self.available_permits())
            .field("queued", &self.queue_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn basic_acquire_release() {
        let s = Semaphore::new(2);
        s.acquire();
        s.acquire();
        assert_eq!(s.available_permits(), 0);
        assert!(!s.try_acquire());
        s.release();
        assert!(s.try_acquire());
        s.release_n(2);
        assert_eq!(s.available_permits(), 2);
    }

    #[test]
    fn acquire_timeout_expires() {
        let s = Semaphore::new(0);
        let start = Instant::now();
        assert!(!s.acquire_timeout(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert_eq!(s.queue_len(), 0);
        s.release();
        assert!(s.acquire_timeout(Duration::from_millis(20)));
    }

    #[test]
    fn permits_bound_concurrency() {
        let s = Arc::new(Semaphore::new(2));
        let inside = Arc::new(AtomicUsize::new(0));
        let max_inside = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let s = Arc::clone(&s);
            let inside = Arc::clone(&inside);
            let max_inside = Arc::clone(&max_inside);
            handles.push(std::thread::spawn(move || {
                s.with_permit(|| {
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    max_inside.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(10));
                    inside.fetch_sub(1, Ordering::SeqCst);
                });
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(max_inside.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn cooperative_semaphore_under_oversubscription() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("sem-test");
        let s = Arc::new(Semaphore::new(1));
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..5)
            .map(|_| {
                let s = Arc::clone(&s);
                let counter = Arc::clone(&counter);
                p.spawn(move || {
                    for _ in 0..20 {
                        s.with_permit(|| {
                            counter.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        usf.shutdown();
    }

    #[test]
    fn release_n_wakes_multiple_waiters() {
        let s = Arc::new(Semaphore::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || s.acquire()));
        }
        while s.queue_len() < 3 {
            std::thread::yield_now();
        }
        s.release_n(3);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.available_permits(), 0);
    }
}
