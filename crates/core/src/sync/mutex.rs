//! Cooperative mutex with FIFO ownership handoff (Listing 1 of the paper).

use crate::park::WaitQueue;
use parking_lot::Mutex as RawMutex;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::time::{Duration, Instant};

/// Internal state: the paper augments `pthread_mutex_t` with a spinlock-protected FIFO wait
/// queue; `parking_lot`'s raw mutex plays the spinlock's role here (critical sections are a
/// few instructions long).
#[derive(Default)]
struct State {
    locked: bool,
    queue: WaitQueue,
}

/// A mutual-exclusion lock whose contended path is a scheduling point.
///
/// * Uncontended lock/unlock only touches the internal flag.
/// * A contended `lock` enqueues the calling task and blocks it (`nosv_pause`); the core is
///   handed to another ready task in the meantime.
/// * `unlock` with waiters **transfers ownership** to the first waiter and submits it
///   (`nosv_submit`); the lock is only really released when the queue is empty.
pub struct Mutex<T: ?Sized> {
    state: RawMutex<State>,
    data: UnsafeCell<T>,
}

// Safety: the mutex provides the required mutual exclusion for `T`; the usual bounds apply.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Create a new unlocked mutex.
    pub fn new(value: T) -> Self {
        Mutex {
            state: RawMutex::new(State::default()),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking cooperatively if it is contended.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let mut st = self.state.lock();
        if st.locked {
            let w = st.queue.enqueue();
            drop(st);
            w.wait();
            // Ownership was handed to us by the unlocking thread: `locked` is still true.
        } else {
            st.locked = true;
        }
        MutexGuard { mutex: self }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let mut st = self.state.lock();
        if st.locked {
            None
        } else {
            st.locked = true;
            Some(MutexGuard { mutex: self })
        }
    }

    /// Acquire the lock, giving up after `timeout`.
    pub fn lock_timeout(&self, timeout: Duration) -> Option<MutexGuard<'_, T>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        if st.locked {
            let w = st.queue.enqueue();
            drop(st);
            WaitQueue::wait_until(w, deadline, &self.state, |st| &mut st.queue).ok()?;
        } else {
            st.locked = true;
        }
        Some(MutexGuard { mutex: self })
    }

    /// Whether the mutex is currently locked (diagnostic; racy by nature).
    pub fn is_locked(&self) -> bool {
        self.state.lock().locked
    }

    /// Number of tasks queued on the mutex (diagnostic; racy by nature).
    pub fn queue_len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Get a mutable reference to the protected value (no locking needed: `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Unlock: hand the lock to the first waiter if any, otherwise release it.
    fn unlock_internal(&self) {
        let mut st = self.state.lock();
        let next = st.queue.pop();
        st.locked = next.is_some();
        drop(st);
        if let Some(w) = next {
            // Ownership handoff: `locked` stays true; the woken waiter owns the mutex.
            w.wake();
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// The mutex this guard locks (used by [`crate::sync::Condvar`]).
    pub(crate) fn mutex(&self) -> &'a Mutex<T> {
        self.mutex
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: the guard proves exclusive access.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: the guard proves exclusive access.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.unlock_internal();
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;
    use std::sync::Arc;

    #[test]
    fn uncontended_lock_unlock() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
        assert!(!m.is_locked());
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn try_lock_fails_when_held() {
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn lock_timeout_expires_and_later_succeeds() {
        let m = Arc::new(Mutex::new(0));
        let g = m.lock();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.lock_timeout(Duration::from_millis(20)).is_some());
        assert!(!h.join().unwrap(), "timed lock must fail while held");
        drop(g);
        assert!(m.lock_timeout(Duration::from_millis(20)).is_some());
        assert_eq!(m.queue_len(), 0, "no stale waiters after a timeout");
    }

    #[test]
    fn os_threads_counter_is_consistent() {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn usf_threads_counter_is_consistent_with_oversubscription() {
        // 2 virtual cores, 6 cooperative threads hammering one mutex: the contended path
        // must hand the core over correctly and never lose ownership.
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("mutex-test");
        let m = Arc::new(Mutex::new(0u64));
        // Hold the lock while the workers start so at least one of them observes it
        // contended and takes the cooperative block path, however the host machine
        // schedules the startup (on a single-CPU host, 500 tiny iterations can otherwise
        // finish within one OS timeslice and never contend).
        let gate = m.lock();
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let m = Arc::clone(&m);
                p.spawn(move || {
                    for _ in 0..500 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(gate);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 3000);
        // Contention must have exercised the cooperative block path at least once.
        assert!(usf.metrics().pauses + usf.metrics().pauses_elided > 0);
        usf.shutdown();
    }

    #[test]
    fn handoff_is_fifo() {
        // One holder, three queued lockers; they must acquire in the order they queued.
        let m = Arc::new(Mutex::new(Vec::<usize>::new()));
        let g = m.lock();
        let mut handles = Vec::new();
        for i in 0..3 {
            let mc = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                mc.lock().push(i);
            }));
            // Give each locker time to enqueue before the next, so the queue order is known.
            while m.queue_len() < i + 1 {
                std::thread::yield_now();
            }
        }
        drop(g);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn debug_formats() {
        let m = Mutex::new(3);
        assert!(format!("{m:?}").contains('3'));
        let g = m.lock();
        assert!(format!("{m:?}").contains("locked"));
        drop(g);
    }
}
