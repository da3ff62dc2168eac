//! The one implementation of the paper's Listing 1, shared by every USF synchronization
//! primitive.
//!
//! Listing 1 is: *put the calling thread's task in a FIFO wait queue, then `nosv_pause()`;
//! the release path pops a task and `nosv_submit()`s it*. [`WaitQueue`] is that FIFO and
//! the only place that creates waiters or times them out; a primitive keeps one (or two)
//! under its own short lock and says only *when* to enqueue and whom to hand off to.
//!
//! A [`Waiter`] is one blocking episode of one thread, woken at most once. It transparently
//! degrades to plain OS thread parking when the calling thread is not attached to USF (the
//! "glibcv disabled" path), so the very same primitive implementations serve both the
//! baseline and the SCHED_COOP configurations of the evaluation.

use crate::current::{current, CurrentCtx};
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use usf_nosv::{NosvInstance, TaskRef};

/// How the owning thread blocks.
#[derive(Debug)]
enum Mode {
    /// The owner is a USF task: block via `nosv_pause`, wake via `nosv_submit`.
    Usf { task: TaskRef, nosv: NosvInstance },
    /// The owner is a plain OS thread: block via `std::thread::park`.
    Os { thread: std::thread::Thread },
}

/// One blocking episode of one thread. See the module documentation.
#[derive(Debug)]
pub(crate) struct Waiter {
    mode: Mode,
    signalled: AtomicBool,
    woken_once: AtomicBool,
}

impl Waiter {
    /// A waiter for the calling thread, cooperative if the thread is attached to USF.
    fn new_for_current() -> Arc<Waiter> {
        let mode = match current() {
            Some(CurrentCtx { task, nosv, .. }) => Mode::Usf { task, nosv },
            None => Mode::Os {
                thread: std::thread::current(),
            },
        };
        Arc::new(Waiter {
            mode,
            signalled: AtomicBool::new(false),
            woken_once: AtomicBool::new(false),
        })
    }

    /// Wake the owning thread; extra calls are ignored. This is the `nosv_submit` side of
    /// Listing 1.
    pub(crate) fn wake(&self) {
        self.signalled.store(true, Ordering::Release);
        if self.woken_once.swap(true, Ordering::AcqRel) {
            return;
        }
        match &self.mode {
            Mode::Usf { task, nosv } => nosv.submit(task),
            Mode::Os { thread } => thread.unpark(),
        }
    }

    /// Block the owning thread until [`Waiter::wake`] is called. This is the `nosv_pause`
    /// side of Listing 1. Must be called by the thread that created the waiter.
    pub(crate) fn wait(&self) {
        match &self.mode {
            Mode::Usf { task, nosv } => loop {
                // Pause first: it consumes exactly one submit (either already counted as a
                // pending wake-up or arriving later), so a wake that raced ahead of us is
                // never lost and never leaks into a later blocking episode.
                nosv.scheduler().pause(task);
                if self.signalled.load(Ordering::Acquire) {
                    return;
                }
            },
            Mode::Os { .. } => {
                while !self.signalled.load(Ordering::Acquire) {
                    std::thread::park();
                }
            }
        }
    }

    /// Block until [`Waiter::wake`] or `deadline`; `false` on timeout. Only
    /// [`WaitQueue::wait_until`] calls this, because a `false` must be followed by its claim
    /// protocol.
    fn wait_deadline(&self, deadline: Instant) -> bool {
        loop {
            if self.signalled.load(Ordering::Acquire) {
                // Cooperative: the wake's submit was consumed by the waitfor that returned
                // just before this check (the flag is set before the submit is issued).
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            match &self.mode {
                Mode::Usf { task, nosv } => {
                    let _ = nosv.scheduler().waitfor(task, deadline - now);
                }
                Mode::Os { .. } => std::thread::park_timeout(deadline - now),
            }
        }
    }

    /// Absorb the wake-up owed by a waker that claimed this waiter after its timed wait
    /// expired, so it cannot leak into a later blocking episode.
    fn consume_wake(&self) {
        // Exactly one submit is owed to a cooperative waiter; pause() returns as soon as it
        // has been delivered. A stale unpark token is harmless for OS threads.
        if let Mode::Usf { task, nosv } = &self.mode {
            nosv.scheduler().pause(task);
        }
    }
}

/// The FIFO of threads blocked on one primitive, each entry tagged with a `K` (the
/// read/write kind for `RwLock`, nothing for everyone else). It lives under the primitive's
/// own lock; waiters popped or taken from it are woken after that lock is dropped.
pub(crate) struct WaitQueue<K = ()> {
    waiters: VecDeque<(K, Arc<Waiter>)>,
}

impl<K> Default for WaitQueue<K> {
    fn default() -> Self {
        WaitQueue {
            waiters: VecDeque::new(),
        }
    }
}

impl WaitQueue {
    /// Enqueue the calling thread. Drop the primitive's lock, then block with
    /// [`Waiter::wait`] or [`WaitQueue::wait_until`].
    pub(crate) fn enqueue(&mut self) -> Arc<Waiter> {
        self.enqueue_tagged(())
    }
}

impl<K> WaitQueue<K> {
    /// [`WaitQueue::enqueue`] with a tag.
    pub(crate) fn enqueue_tagged(&mut self, tag: K) -> Arc<Waiter> {
        let w = Waiter::new_for_current();
        self.waiters.push_back((tag, Arc::clone(&w)));
        w
    }

    /// Pop the head for a hand-off.
    pub(crate) fn pop(&mut self) -> Option<Arc<Waiter>> {
        self.pop_if(|_| true)
    }

    /// Pop the head for a hand-off if its tag satisfies `pred`.
    pub(crate) fn pop_if(&mut self, pred: impl FnOnce(&K) -> bool) -> Option<Arc<Waiter>> {
        if !pred(&self.waiters.front()?.0) {
            return None;
        }
        self.waiters.pop_front().map(|(_, w)| w)
    }

    /// Take every waiter, leaving the queue empty; wake them with [`WaitQueue::wake_all`].
    pub(crate) fn take_all(&mut self) -> WaitQueue<K> {
        std::mem::take(self)
    }

    /// Wake every waiter in FIFO order.
    pub(crate) fn wake_all(self) {
        for (_, w) in self.waiters {
            w.wake();
        }
    }

    /// Number of queued waiters.
    pub(crate) fn len(&self) -> usize {
        self.waiters.len()
    }

    /// Whether no thread is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.waiters.is_empty()
    }

    /// Block on `waiter` (enqueued into the queue `queue` projects out of `lock`'s state,
    /// `lock` since dropped) until it is handed off or `deadline` passes, running the
    /// timed-wait claim protocol so that no primitive has to:
    ///
    /// * `Ok(())` — the waiter was woken, possibly by a release that claimed it between the
    ///   timeout and re-taking `lock`; that wake-up has been absorbed, and whatever the
    ///   release handed off (lock ownership, a permit, …) belongs to the caller.
    /// * `Err(guard)` — a real timeout: the waiter has been removed from the queue and
    ///   `lock` is still held, for a last look at the primitive's state.
    pub(crate) fn wait_until<'a, S>(
        waiter: Arc<Waiter>,
        deadline: Instant,
        lock: &'a Mutex<S>,
        queue: impl FnOnce(&mut S) -> &mut WaitQueue<K>,
    ) -> Result<(), MutexGuard<'a, S>> {
        if waiter.wait_deadline(deadline) {
            return Ok(());
        }
        let mut st = lock.lock();
        let q = queue(&mut st);
        if let Some(pos) = q.waiters.iter().position(|(_, w)| Arc::ptr_eq(w, &waiter)) {
            q.waiters.remove(pos);
            return Err(st);
        }
        drop(st);
        waiter.consume_wake();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn os_waiter_wake_before_wait_is_not_lost() {
        let w = Waiter::new_for_current();
        assert!(matches!(w.mode, Mode::Os { .. }));
        w.wake();
        // Must return immediately.
        w.wait();
        assert!(w.signalled.load(Ordering::Acquire));
    }

    #[test]
    fn os_waiter_cross_thread_wake() {
        let w = Waiter::new_for_current();
        let w2 = Arc::clone(&w);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.wake();
        });
        w.wait();
        h.join().unwrap();
    }

    #[test]
    fn os_waiter_deadline_times_out() {
        let w = Waiter::new_for_current();
        let start = Instant::now();
        assert!(!w.wait_deadline(Instant::now() + Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn usf_waiter_round_trip() {
        use crate::current::{clear_current, set_current, CurrentCtx};
        use usf_nosv::{NosvConfig, NosvInstance};

        let nosv = NosvInstance::new(NosvConfig::with_cores(1));
        let pid = nosv.register_process("p");
        let nosv2 = nosv.clone();
        let (tx, rx) = std::sync::mpsc::channel::<Arc<Waiter>>();
        let h = std::thread::spawn(move || {
            let handle = nosv2.attach(pid, Some("waiter"));
            set_current(CurrentCtx {
                task: handle.task().clone(),
                nosv: nosv2.clone(),
                process: pid,
            });
            let w = Waiter::new_for_current();
            assert!(matches!(w.mode, Mode::Usf { .. }));
            tx.send(Arc::clone(&w)).unwrap();
            w.wait(); // cooperative block: the core is handed back while waiting
            clear_current();
            handle.detach();
            7
        });
        let w = rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        w.wake();
        assert_eq!(h.join().unwrap(), 7);
    }
}
