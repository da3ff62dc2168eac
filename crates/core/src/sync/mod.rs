//! Cooperative synchronization primitives — the blocking-API extensions of glibcv (§4.3.4).
//!
//! Every primitive follows the Listing 1 pattern of the paper:
//!
//! * contended operations put the calling thread's task in a **FIFO wait queue** guarded by
//!   a short internal lock, then block (`nosv_pause` when the thread is a USF worker, OS
//!   parking otherwise);
//! * release operations **hand off** to the first queued waiter (`nosv_submit`) instead of
//!   releasing and letting everyone race — e.g. a contended mutex transfers ownership
//!   directly to the head waiter, which is what removes lock-waiter preemption storms.
//!
//! Listing 1 is written once, in the crate-private `park::WaitQueue`: every primitive here
//! holds one (or two) and calls its enqueue, hand-off pop, take-all and timed wait. The
//! timed wait runs the claim protocol for every `*_timeout` method, so no primitive
//! repeats it.
//!
//! Because the waiters degrade gracefully for non-attached threads, these are also perfectly
//! usable as ordinary synchronization primitives under the plain OS scheduler, which is how
//! the baseline configurations of the evaluation run the very same workload code.

mod barrier;
mod channel;
mod condvar;
mod mutex;
mod once;
mod rwlock;
mod semaphore;
mod wait_group;

pub use barrier::{Barrier, BarrierWaitResult, BusyBarrier};
pub use channel::{
    channel, unbounded, Receiver, RecvError, SendError, Sender, TryRecvError, TrySendError,
};
pub use condvar::Condvar;
pub use mutex::{Mutex, MutexGuard};
pub use once::Once;
pub use rwlock::{RwLock, RwLockReadGuard, RwLockWriteGuard};
pub use semaphore::Semaphore;
pub use wait_group::WaitGroup;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;
    use crate::thread::JoinHandle;
    use crate::timing::yield_now;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const TIMEOUT: Duration = Duration::from_millis(10);

    /// The hand-shake between a co-tenant holding a resource and a timed waiter on it.
    #[derive(Default)]
    struct Probe {
        held: AtomicBool,
        waiting: AtomicBool,
        timed_out: AtomicBool,
        releasing: AtomicBool,
    }

    fn until(flag: &AtomicBool) {
        while !flag.load(SeqCst) {
            yield_now();
            std::thread::yield_now();
        }
    }

    impl Probe {
        /// The holder's part between acquiring and releasing: spin past the waiter's
        /// deadline with no scheduling point, let it report the timeout and block again,
        /// then flag the release that is about to happen.
        fn hold(&self) {
            self.held.store(true, SeqCst);
            until(&self.waiting);
            let start = Instant::now();
            while start.elapsed() < 5 * TIMEOUT {
                std::hint::spin_loop();
            }
            until(&self.timed_out);
            self.releasing.store(true, SeqCst);
        }
    }

    /// The holder thread's handle, for the row that joins it.
    type Holder = Option<JoinHandle<()>>;

    /// One row: on a one-core instance, `timed` must time out while `holder` holds `R`,
    /// leave nothing in the queue (`queued`), and the next `blocking` call must not return
    /// before the holder's release — a leaked wake-up would let it through early.
    fn check<R: Send + Sync + 'static>(
        name: &'static str,
        resource: R,
        holder: fn(&R, &Probe),
        timed: fn(&R, &mut Holder) -> bool,
        queued: fn(&R, &Holder) -> usize,
        blocking: fn(&R, &mut Holder),
    ) {
        let usf = Usf::builder().cores(1).build();
        let p = usf.process(name);
        let (r, probe) = (Arc::new(resource), Arc::new(Probe::default()));
        let (r2, probe2) = (Arc::clone(&r), Arc::clone(&probe));
        let h = p.spawn(move || holder(&r2, &probe2));
        let w = p.spawn(move || {
            let mut h = Some(h);
            until(&probe.held);
            probe.waiting.store(true, SeqCst);
            assert!(timed(&r, &mut h), "{name}: no timeout reported");
            assert_eq!(queued(&r, &h), 0, "{name}: timed-out waiter left queued");
            probe.timed_out.store(true, SeqCst);
            blocking(&r, &mut h);
            assert!(
                probe.releasing.load(SeqCst),
                "{name}: woken before the release"
            );
            if let Some(h) = h {
                h.join().unwrap();
            }
        });
        if let Err(panic) = w.join_timeout(Duration::from_secs(5)).expect("waiter hung") {
            std::panic::resume_unwind(panic);
        }
        usf.shutdown();
    }

    #[test]
    fn timed_waits_under_usf() {
        check(
            "Mutex::lock_timeout",
            Mutex::new(()),
            |m, p| {
                let _g = m.lock();
                p.hold();
            },
            |m, _| m.lock_timeout(TIMEOUT).is_none(),
            |m, _| m.queue_len(),
            |m, _| drop(m.lock()),
        );
        check(
            "Condvar::wait_timeout",
            (Mutex::new(()), Condvar::new()),
            |(_, cv), p| {
                p.hold();
                cv.notify_one();
            },
            |(m, cv), _| cv.wait_timeout(m.lock(), TIMEOUT).1.timed_out(),
            |(_, cv), _| cv.waiter_count(),
            |(m, cv), _| drop(cv.wait(m.lock())),
        );
        check(
            "Semaphore::acquire_timeout",
            Semaphore::new(0),
            |s, p| {
                p.hold();
                s.release();
            },
            |s, _| !s.acquire_timeout(TIMEOUT),
            |s, _| s.queue_len(),
            |s, _| s.acquire(),
        );
        check(
            "WaitGroup::wait_timeout",
            WaitGroup::with_count(1),
            |wg, p| {
                p.hold();
                wg.done();
            },
            |wg, _| !wg.wait_timeout(TIMEOUT),
            |wg, _| wg.waiter_count(),
            |wg, _| wg.wait(),
        );
        check(
            "Receiver::recv_timeout",
            channel::<u32>(1),
            |(tx, _), p| {
                p.hold();
                tx.send(1).unwrap();
            },
            |(_, rx), _| rx.recv_timeout(TIMEOUT) == Err(TryRecvError::Empty),
            |(_, rx), _| rx.waiter_count(),
            |(_, rx), _| assert_eq!(rx.recv(), Ok(1)),
        );
        check(
            "JoinHandle::join_timeout",
            (),
            |_, p| p.hold(),
            |_, h| match h.take().unwrap().join_timeout(TIMEOUT) {
                Ok(_) => false,
                Err(back) => {
                    *h = Some(back);
                    true
                }
            },
            |_, h| h.as_ref().unwrap().waiter_count(),
            |_, h| h.take().unwrap().join().unwrap(),
        );
    }
}
