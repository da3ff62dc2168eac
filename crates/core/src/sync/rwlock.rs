//! Cooperative reader–writer lock with FIFO fairness.

use crate::park::WaitQueue;
use parking_lot::{Mutex as RawMutex, MutexGuard as RawGuard};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
}

struct State {
    readers: usize,
    writer: bool,
    queue: WaitQueue<Kind>,
}

/// A reader–writer lock whose contended paths are scheduling points.
///
/// Requests are served in FIFO order (consecutive readers are granted together), so writers
/// cannot be starved by a stream of readers and readers cannot be starved by writers.
pub struct RwLock<T: ?Sized> {
    state: RawMutex<State>,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    /// Create a new unlocked lock.
    pub fn new(value: T) -> Self {
        RwLock {
            state: RawMutex::new(State {
                readers: 0,
                writer: false,
                queue: WaitQueue::default(),
            }),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the lock and return the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared (read) access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let mut st = self.state.lock();
        if !st.writer && st.queue.is_empty() {
            st.readers += 1;
        } else {
            let w = st.queue.enqueue_tagged(Kind::Read);
            drop(st);
            w.wait();
        }
        RwLockReadGuard { lock: self }
    }

    /// Try to acquire shared access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let mut st = self.state.lock();
        if !st.writer && st.queue.is_empty() {
            st.readers += 1;
            Some(RwLockReadGuard { lock: self })
        } else {
            None
        }
    }

    /// Acquire exclusive (write) access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let mut st = self.state.lock();
        if !st.writer && st.readers == 0 && st.queue.is_empty() {
            st.writer = true;
        } else {
            let w = st.queue.enqueue_tagged(Kind::Write);
            drop(st);
            w.wait();
        }
        RwLockWriteGuard { lock: self }
    }

    /// Try to acquire exclusive access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let mut st = self.state.lock();
        if !st.writer && st.readers == 0 && st.queue.is_empty() {
            st.writer = true;
            Some(RwLockWriteGuard { lock: self })
        } else {
            None
        }
    }

    /// Current reader count (diagnostic; racy by nature).
    pub fn reader_count(&self) -> usize {
        self.state.lock().readers
    }

    /// Whether a writer currently holds the lock (diagnostic; racy by nature).
    pub fn is_write_locked(&self) -> bool {
        self.state.lock().writer
    }

    /// Get a mutable reference to the protected value (no locking needed: `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    fn unlock_read(&self) {
        let mut st = self.state.lock();
        st.readers -= 1;
        if st.readers == 0 {
            Self::grant_next(st);
        }
    }

    fn unlock_write(&self) {
        let mut st = self.state.lock();
        st.writer = false;
        Self::grant_next(st);
    }

    /// Grant the now-free lock to the head of the queue: one writer, or every leading
    /// reader. The grantees are woken after the internal lock `st` is dropped.
    fn grant_next(mut st: RawGuard<'_, State>) {
        if let Some(w) = st.queue.pop_if(|k| *k == Kind::Write) {
            st.writer = true;
            drop(st);
            w.wake();
            return;
        }
        let mut to_wake = Vec::new();
        while let Some(w) = st.queue.pop_if(|k| *k == Kind::Read) {
            st.readers += 1;
            to_wake.push(w);
        }
        drop(st);
        for w in to_wake {
            w.wake();
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            None => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

/// Shared-access guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: readers have shared access while the guard is alive.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock_read();
    }
}

/// Exclusive-access guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: the writer has exclusive access while the guard is alive.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: the writer has exclusive access while the guard is alive.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn multiple_readers_coexist() {
        let l = RwLock::new(7);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 14);
        assert_eq!(l.reader_count(), 2);
        assert!(l.try_write().is_none());
        drop(r1);
        drop(r2);
        assert!(l.try_write().is_some());
    }

    #[test]
    fn writer_excludes_readers() {
        let l = RwLock::new(0);
        let mut w = l.write();
        *w = 9;
        assert!(l.try_read().is_none());
        drop(w);
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn queued_writer_blocks_new_readers_fifo() {
        let l = Arc::new(RwLock::new(0));
        let r = l.read();
        // Writer queues behind the reader.
        let l2 = Arc::clone(&l);
        let writer = std::thread::spawn(move || {
            *l2.write() += 1;
        });
        // Wait until the writer is queued; a new reader must now queue behind it (FIFO), so
        // try_read must fail even though only readers currently hold the lock.
        while l.state.lock().queue.is_empty() {
            std::thread::yield_now();
        }
        assert!(
            l.try_read().is_none(),
            "FIFO: new readers queue behind a waiting writer"
        );
        drop(r);
        writer.join().unwrap();
        assert_eq!(*l.read(), 1);
    }

    #[test]
    fn concurrent_readers_and_writers_are_consistent() {
        let l = Arc::new(RwLock::new(0i64));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    *l.write() += 1;
                }
            }));
        }
        for _ in 0..3 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let v = *l.read();
                    assert!((0..=600).contains(&v));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.read(), 600);
    }

    #[test]
    fn cooperative_rwlock_with_oversubscription() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("rwlock-test");
        let l = Arc::new(RwLock::new(0i64));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let l = Arc::clone(&l);
            handles.push(p.spawn(move || {
                for _ in 0..100 {
                    *l.write() += 1;
                }
            }));
        }
        for _ in 0..4 {
            let l = Arc::clone(&l);
            handles.push(p.spawn(move || {
                for _ in 0..100 {
                    let _ = *l.read();
                    std::hint::spin_loop();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.read(), 200);
        usf.shutdown();
    }

    #[test]
    fn writer_waits_for_all_readers() {
        let l = Arc::new(RwLock::new(()));
        let r1 = l.read();
        let r2 = l.read();
        let l2 = Arc::clone(&l);
        let writer = std::thread::spawn(move || {
            let _w = l2.write();
        });
        std::thread::sleep(Duration::from_millis(10));
        assert!(!l.is_write_locked());
        drop(r1);
        std::thread::sleep(Duration::from_millis(10));
        assert!(!l.is_write_locked(), "one reader still holds the lock");
        drop(r2);
        writer.join().unwrap();
    }
}
