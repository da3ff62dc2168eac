//! Affinity management — hints, not commands (§4.3.2).
//!
//! Under USF, application attempts to change thread affinity (`pthread_setaffinity_np`,
//! `sched_setaffinity`) would interfere with the scheduler's fine-grained thread placement,
//! so glibcv *stores* the requested mask in the thread object and returns it on queries, but
//! never applies it. The same contract is reproduced here: [`set_affinity_hint`] records the
//! mask for the current thread (keyed by its task when attached, by its `ThreadId`
//! otherwise) and [`get_affinity_hint`] echoes it back, while the scheduler keeps choosing
//! the actual placement. The real placement is observable through
//! [`current_scheduler_core`].
//!
//! The scheduler's own binding is a separate mechanism. When the instance has exactly as
//! many cores as the process may use CPUs (at least two), core *i* is backed by the
//! *i*-th of those CPUs, and the scheduler's `WakeBatch` binds a parked worker to the CPU
//! of the core it is granted — rebind first, then notify, never under a scheduler lock —
//! so the kernel wakes it where its predecessor is leaving. A hint never changes that
//! binding, and a thread handed back to the application (`AttachGuard` drop, detach,
//! release at shutdown or deregister, eviction by a kill) gets back the mask it had
//! before the scheduler bound it.

use crate::current::current;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::OnceLock;
use usf_nosv::CoreId;

/// A set of cores, the `cpu_set_t` analog.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CpuSet {
    words: Vec<u64>,
}

impl CpuSet {
    /// Empty set.
    pub fn new() -> Self {
        CpuSet::default()
    }

    /// Set containing a single core.
    pub fn single(core: CoreId) -> Self {
        let mut s = CpuSet::new();
        s.set(core);
        s
    }

    /// Set containing cores `0..n`.
    pub fn first_n(n: usize) -> Self {
        let mut s = CpuSet::new();
        for c in 0..n {
            s.set(c);
        }
        s
    }

    /// Add a core to the set.
    pub fn set(&mut self, core: CoreId) {
        let word = core / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (core % 64);
    }

    /// Remove a core from the set.
    pub fn clear(&mut self, core: CoreId) {
        let word = core / 64;
        if word < self.words.len() {
            self.words[word] &= !(1u64 << (core % 64));
        }
    }

    /// Whether the set contains a core.
    pub fn is_set(&self, core: CoreId) -> bool {
        let word = core / 64;
        word < self.words.len() && (self.words[word] >> (core % 64)) & 1 == 1
    }

    /// Number of cores in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Iterate over the cores in the set, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            (0..64)
                .filter(move |b| (w >> b) & 1 == 1)
                .map(move |b| wi * 64 + b)
        })
    }
}

impl FromIterator<CoreId> for CpuSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut s = CpuSet::new();
        for c in iter {
            s.set(c);
        }
        s
    }
}

/// Key identifying "the current thread" in the hint table: its task id when attached (the
/// paper's tid → task hash table), its OS thread id otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum HintKey {
    Task(u64),
    Thread(std::thread::ThreadId),
}

fn current_key() -> HintKey {
    match current() {
        Some(ctx) => HintKey::Task(ctx.task.id()),
        None => HintKey::Thread(std::thread::current().id()),
    }
}

fn hint_table() -> &'static Mutex<HashMap<HintKey, CpuSet>> {
    static TABLE: OnceLock<Mutex<HashMap<HintKey, CpuSet>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Record an affinity request for the current thread. The scheduler ignores it (it is a
/// *hint*); queries echo it back. Returns the previously stored hint, if any.
///
/// When the calling thread is attached to an instance, the mask is validated against the
/// instance topology first: cores at or beyond the core count are dropped (with a debug
/// log), so a query never echoes back cores that cannot exist — previously such dead
/// hints round-tripped silently. Unattached threads have no topology to validate against
/// and store the mask verbatim.
pub fn set_affinity_hint(set: CpuSet) -> Option<CpuSet> {
    let set = match current() {
        Some(ctx) => {
            let cores = ctx.nosv.scheduler().topology().num_cores();
            let clamped: CpuSet = set.iter().filter(|&c| c < cores).collect();
            if clamped != set && cfg!(debug_assertions) {
                eprintln!(
                    "usf: affinity hint clamped to the {cores}-core instance topology \
                     ({} of {} requested cores kept)",
                    clamped.count(),
                    set.count()
                );
            }
            clamped
        }
        None => set,
    };
    hint_table().lock().insert(current_key(), set)
}

/// The affinity previously requested by the current thread, if any. This is what glibcv
/// returns from `pthread_getaffinity_np` to preserve application compatibility.
pub fn get_affinity_hint() -> Option<CpuSet> {
    hint_table().lock().get(&current_key()).cloned()
}

/// Remove the stored hint for the current thread.
pub fn clear_affinity_hint() -> Option<CpuSet> {
    hint_table().lock().remove(&current_key())
}

/// The core the scheduler actually placed the current thread on (only meaningful for
/// attached threads).
pub fn current_scheduler_core() -> Option<CoreId> {
    current().and_then(|ctx| ctx.task.current_core())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;

    #[test]
    fn cpuset_basic_operations() {
        let mut s = CpuSet::new();
        assert!(s.is_empty());
        s.set(0);
        s.set(63);
        s.set(64);
        s.set(130);
        assert_eq!(s.count(), 4);
        assert!(s.is_set(63));
        assert!(s.is_set(130));
        assert!(!s.is_set(1));
        s.clear(63);
        assert!(!s.is_set(63));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 130]);
    }

    #[test]
    fn cpuset_constructors() {
        assert_eq!(CpuSet::single(5).iter().collect::<Vec<_>>(), vec![5]);
        assert_eq!(CpuSet::first_n(3).count(), 3);
        let s: CpuSet = [1usize, 3, 5].into_iter().collect();
        assert_eq!(s.count(), 3);
        assert!(s.is_set(3));
    }

    #[test]
    fn hints_are_stored_and_echoed_not_applied() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("affinity-test");
        let h = p.spawn(|| {
            // Ask for core 1 — inside the 2-core instance, so it round-trips verbatim.
            let requested = CpuSet::single(1);
            set_affinity_hint(requested.clone());
            let echoed = get_affinity_hint().unwrap();
            let actual = current_scheduler_core().unwrap();
            (requested == echoed, actual)
        });
        let (echoed_ok, actual) = h.join().unwrap();
        assert!(echoed_ok, "the stored hint must be echoed back verbatim");
        assert!(actual < 2, "the scheduler placement ignores the hint");
        usf.shutdown();
    }

    #[test]
    fn attached_hints_are_clamped_to_the_instance_topology() {
        // Regression: a hint naming cores >= the topology size used to round-trip
        // silently — a dead hint no scheduler could ever honour. It is now clamped.
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("affinity-clamp-test");
        let h = p.spawn(|| {
            let requested: CpuSet = [0usize, 1, 57, 130].into_iter().collect();
            set_affinity_hint(requested);
            get_affinity_hint().unwrap()
        });
        let echoed = h.join().unwrap();
        assert_eq!(
            echoed.iter().collect::<Vec<_>>(),
            vec![0, 1],
            "cores beyond the 2-core topology must be dropped"
        );
        usf.shutdown();
    }

    #[test]
    fn hints_are_per_thread() {
        set_affinity_hint(CpuSet::single(1));
        let other = std::thread::spawn(get_affinity_hint).join().unwrap();
        assert!(
            other.is_none(),
            "another thread must not see this thread's hint"
        );
        assert_eq!(get_affinity_hint(), Some(CpuSet::single(1)));
        clear_affinity_hint();
        assert!(get_affinity_hint().is_none());
    }

    #[test]
    fn scheduler_core_is_none_for_unattached_threads() {
        assert!(current_scheduler_core().is_none());
    }
}
