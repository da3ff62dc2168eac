//! Barriers: a cooperative blocking barrier and a busy-wait barrier with optional yielding.
//!
//! The busy-wait variant reproduces the pattern §5.2/§5.3 of the paper analyses: BLAS
//! libraries (OpenBLAS, BLIS) and MPICH use custom spin barriers that perform well when the
//! system is not oversubscribed but waste entire time slices when it is. The paper's fix is
//! to add a `sched_yield` every few iterations ("Baseline"); under USF that yield becomes a
//! cooperative scheduling point ("SCHED_COOP"), and leaving the barrier unmodified is the
//! "Original" configuration that collapses in Figure 3d.

use crate::park::WaitQueue;
use crate::timing::yield_now;
use parking_lot::Mutex as RawMutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of [`Barrier::wait`] / [`BusyBarrier::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierWaitResult {
    leader: bool,
}

impl BarrierWaitResult {
    /// Whether this thread was the last to arrive (the "leader" of the round).
    pub fn is_leader(&self) -> bool {
        self.leader
    }
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    waiters: WaitQueue,
}

/// A reusable blocking barrier: waiting threads release their virtual core until the last
/// participant arrives.
pub struct Barrier {
    n: usize,
    state: RawMutex<BarrierState>,
}

impl Barrier {
    /// Create a barrier for `n` participants.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        Barrier {
            n,
            state: RawMutex::new(BarrierState::default()),
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Wait until all `n` participants have called `wait`.
    pub fn wait(&self) -> BarrierWaitResult {
        let mut st = self.state.lock();
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            let waiters = st.waiters.take_all();
            drop(st);
            waiters.wake_all();
            return BarrierWaitResult { leader: true };
        }
        let w = st.waiters.enqueue();
        drop(st);
        w.wait();
        BarrierWaitResult { leader: false }
    }

    /// Completed barrier rounds (diagnostic).
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }
}

impl std::fmt::Debug for Barrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Barrier")
            .field("participants", &self.n)
            .finish()
    }
}

/// A centralized busy-wait barrier (ticket based, reusable) with a configurable yield
/// policy, modelling the custom spin barriers of BLAS libraries.
///
/// * `yield_every = None` — pure spinning ("Original"): waiting threads burn their whole
///   time slice, which is catastrophic under oversubscription.
/// * `yield_every = Some(k)` — after `k` spin iterations the waiter yields; under the OS
///   scheduler this is the paper's one-line `sched_yield` fix ("Baseline"), under USF the
///   yield is a cooperative scheduling point and other tasks run immediately
///   ("SCHED_COOP").
pub struct BusyBarrier {
    n: u64,
    tickets: AtomicU64,
    released: AtomicU64,
    yield_every: Option<u32>,
    /// Total spin iterations executed by waiters (diagnostic for tests/benches).
    spin_iterations: AtomicU64,
    /// Total yields performed by waiters (diagnostic).
    yields: AtomicU64,
}

impl BusyBarrier {
    /// Create a busy-wait barrier for `n` participants with the given yield policy.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, yield_every: Option<u32>) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        BusyBarrier {
            n: n as u64,
            tickets: AtomicU64::new(0),
            released: AtomicU64::new(0),
            yield_every,
            spin_iterations: AtomicU64::new(0),
            yields: AtomicU64::new(0),
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n as usize
    }

    /// The configured yield period.
    pub fn yield_every(&self) -> Option<u32> {
        self.yield_every
    }

    /// Spin (and optionally yield) until all `n` participants of this round have arrived.
    pub fn wait(&self) -> BarrierWaitResult {
        let ticket = self.tickets.fetch_add(1, Ordering::AcqRel);
        let round = ticket / self.n;
        if ticket % self.n == self.n - 1 {
            // Last arrival of the round: release it.
            self.released.fetch_max(round + 1, Ordering::AcqRel);
            return BarrierWaitResult { leader: true };
        }
        let mut spins: u32 = 0;
        while self.released.load(Ordering::Acquire) <= round {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            self.spin_iterations.fetch_add(1, Ordering::Relaxed);
            if let Some(k) = self.yield_every {
                if k > 0 && spins % k == 0 {
                    self.yields.fetch_add(1, Ordering::Relaxed);
                    yield_now();
                }
            }
        }
        BarrierWaitResult { leader: false }
    }

    /// Total spin iterations executed so far by all waiters.
    pub fn total_spins(&self) -> u64 {
        self.spin_iterations.load(Ordering::Relaxed)
    }

    /// Total yields performed so far by all waiters.
    pub fn total_yields(&self) -> u64 {
        self.yields.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for BusyBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusyBarrier")
            .field("participants", &self.n)
            .field("yield_every", &self.yield_every)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn single_participant_is_always_leader() {
        let b = Barrier::new(1);
        assert!(b.wait().is_leader());
        assert!(b.wait().is_leader());
        assert_eq!(b.generation(), 2);
        let bb = BusyBarrier::new(1, None);
        assert!(bb.wait().is_leader());
    }

    #[test]
    fn blocking_barrier_synchronizes_os_threads() {
        let n = 4;
        let b = Arc::new(Barrier::new(n));
        let before = Arc::new(AtomicUsize::new(0));
        let leaders = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..n {
            let b = Arc::clone(&b);
            let before = Arc::clone(&before);
            let leaders = Arc::clone(&leaders);
            handles.push(std::thread::spawn(move || {
                before.fetch_add(1, Ordering::SeqCst);
                let r = b.wait();
                if r.is_leader() {
                    leaders.fetch_add(1, Ordering::SeqCst);
                }
                // After the barrier, every participant must have registered "before".
                assert_eq!(before.load(Ordering::SeqCst), n);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn blocking_barrier_is_reusable_across_rounds() {
        let n = 3;
        let rounds = 5;
        let b = Arc::new(Barrier::new(n));
        let mut handles = Vec::new();
        for _ in 0..n {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for _ in 0..rounds {
                    b.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.generation(), rounds as u64);
    }

    #[test]
    fn cooperative_barrier_with_more_threads_than_cores() {
        // 2 virtual cores, 4 participants: the barrier can only complete if blocked waiters
        // release their cores so the remaining participants can run.
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("barrier-test");
        let b = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                p.spawn(move || b.wait().is_leader())
            })
            .collect();
        let leaders: usize = handles
            .into_iter()
            .map(|h| usize::from(h.join().unwrap()))
            .sum();
        assert_eq!(leaders, 1);
        usf.shutdown();
    }

    #[test]
    fn busy_barrier_synchronizes_and_counts_spins() {
        let n = 3;
        let b = Arc::new(BusyBarrier::new(n, Some(64)));
        let mut handles = Vec::new();
        for i in 0..n {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                // Stagger arrivals so someone actually spins.
                std::thread::sleep(std::time::Duration::from_millis(5 * i as u64));
                b.wait();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            b.total_spins() > 0,
            "staggered arrivals must cause some spinning"
        );
    }

    #[test]
    fn busy_barrier_reusable_across_rounds() {
        let n = 2;
        let rounds = 50;
        let b = Arc::new(BusyBarrier::new(n, Some(16)));
        let mut handles = Vec::new();
        for _ in 0..n {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut led = 0u32;
                for _ in 0..rounds {
                    if b.wait().is_leader() {
                        led += 1;
                    }
                }
                led
            }));
        }
        let total_leaders: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total_leaders, rounds, "exactly one leader per round");
    }

    #[test]
    fn busy_barrier_with_yield_completes_oversubscribed_under_usf() {
        // 1 virtual core and 2 participants: a pure spin barrier would deadlock (the paper's
        // §4.4 limitation) because the spinning waiter never releases the core. With
        // yielding enabled, the yield is a scheduling point and the barrier completes.
        let usf = Usf::builder().cores(1).build();
        let p = usf.process("busy-barrier-test");
        let b = Arc::new(BusyBarrier::new(2, Some(32)));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                let usf = usf.clone();
                p.spawn(move || {
                    // Make sure both workers exist before waiting, so the yield has a target.
                    while usf.nosv().scheduler().live_tasks() < 2 {
                        std::thread::yield_now();
                    }
                    b.wait();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            b.total_yields() > 0,
            "the waiter must have yielded its core"
        );
        usf.shutdown();
    }
}
