//! Binding workers to the CPU behind the core they hold.
//!
//! SCHED_COOP decides which thread runs on which virtual core, but the kernel still picks
//! the CPU a woken thread runs on. Left to itself it often wakes a successor on the CPU
//! that runs the *other* core's worker, which it then preempts — the interference the
//! policy exists to remove — while the CPU the predecessor leaves sits idle. So the
//! scheduler maps its cores onto CPUs (core *i* → the *i*-th CPU the process may use) and
//! binds a parked worker to its granted core's CPU before notifying it: the kernel then
//! queues the successor on the CPU its predecessor is leaving. nOS-V keeps its workers
//! bound the same way.
//!
//! The rules, kept by [`crate::task`] — its `WakeBatch` and its grant wait are the only
//! callers of [`Worker::bind`] and [`Worker::restore`], and run them after every scheduler
//! lock is dropped; a record's lock serialises its thread's affinity calls, and only a
//! grant lock is ever taken under it:
//!
//! * The map exists only when the instance has exactly as many cores as the process may
//!   use CPUs, and at least two ([`core_cpus`]); otherwise nothing is ever bound. A
//!   smaller instance is not bound to the first CPUs: separate instances running at once
//!   (tests in one binary, or several USF processes on one host) would then all crowd onto
//!   the same CPUs while the others sit idle; and only the one-core-per-CPU case has been
//!   measured. The map is a property of the host, read once per process, not a knob.
//! * A bound thread is bound to the CPU of the core it holds. A bind reads the task's
//!   grant under the record's lock, so a late bind follows the newest grant.
//! * Only the waker binds. A thread never moves itself: that would migrate the running
//!   caller, which costs tens of microseconds. One that finds itself on a core whose CPU
//!   it is not bound to — its grant came before its waker's bind, or it granted itself a
//!   core at attach — unbinds instead, and its next waker binds it. A grant from another
//!   thread goes only to a task that waited for a core, so a thread that never parks is
//!   never bound.
//! * Each OS thread has one [`Worker`] record, shared by every task it attaches, so a
//!   pooled thread keeps its binding across jobs and is rebound only when its core changes.
//! * A thread handed back to the application (detach, release, eviction) gets its own
//!   mask back: the one its record read just before the scheduler first bound it. A
//!   thread the scheduler never bound keeps its mask untouched, whatever it is; a pooled
//!   thread detaching between jobs keeps its binding.
//!
//! Application affinity requests are a different thing: `usf_core::affinity` records them
//! as hints and never applies them.

use parking_lot::cpu::{self, Tid};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// The CPUs the process may use, ascending: read from the first thread that builds a
/// scheduler, before any worker is bound (empty off Linux).
fn process_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| cpu::allowed_cpus(0).unwrap_or_default())
}

/// The CPU backing each core: core *i* → the *i*-th CPU the process may use, or `None`
/// (no thread is bound) unless the instance has exactly as many cores as there are CPUs,
/// and at least two.
pub(crate) fn core_cpus(cores: usize) -> Option<Box<[usize]>> {
    let cpus = process_cpus();
    (cores > 1 && cores == cpus.len()).then(|| cpus.into())
}

/// One OS thread's binding record: its kernel id, the CPU it is bound to and the mask to
/// give it back.
#[derive(Debug)]
pub(crate) struct Worker {
    tid: Tid,
    thread: std::thread::ThreadId,
    /// A leaf lock that serialises the thread's affinity calls, so the state is always
    /// the mask the kernel holds: taken after every scheduler lock is dropped, and only a
    /// grant lock is taken (briefly) under it.
    state: Mutex<State>,
}

#[derive(Debug)]
struct State {
    /// The CPU the scheduler bound the thread to; `None` while it is not bound.
    cpu: Option<usize>,
    /// The thread's own mask, read just before the scheduler first changed it; `None`
    /// while the thread still has that mask.
    original: Option<Vec<usize>>,
    /// Cleared as the thread exits: its id may then be reused, so no call may name it.
    live: bool,
}

/// The calling thread's record, marked dead when the thread exits.
struct ThisThread(Arc<Worker>);

impl Drop for ThisThread {
    fn drop(&mut self) {
        self.0.state.lock().live = false;
    }
}

impl Worker {
    /// The calling thread's record, created at its first attach.
    pub(crate) fn this_thread() -> Arc<Worker> {
        thread_local! {
            static THIS: ThisThread = ThisThread(Arc::new(Worker {
                tid: cpu::current_tid(),
                thread: std::thread::current().id(),
                state: Mutex::new(State {
                    cpu: None,
                    original: None,
                    live: true,
                }),
            }));
        }
        THIS.with(|this| Arc::clone(&this.0))
    }

    /// Place the thread for its task's current grant: `target` reads, under the record's
    /// lock, the CPU of the core the task holds (`None` when it holds none), so a late
    /// call follows the newest grant. Another thread binds it to that CPU. The thread
    /// itself never does: moving the running caller migrates it, which costs tens of
    /// microseconds, so if it is bound elsewhere it unbinds instead, and its next waker
    /// binds it. A thread already bound to its CPU is left alone. Returns whether the
    /// thread was bound to a new CPU.
    pub(crate) fn bind(&self, target: impl FnOnce() -> Option<usize>) -> bool {
        let mut st = self.state.lock();
        let Some(cpu) = target() else {
            return false;
        };
        if !st.live || st.cpu == Some(cpu) {
            return false;
        }
        if std::thread::current().id() == self.thread {
            if st.cpu.is_some() && cpu::set_allowed_cpus(self.tid, process_cpus()) {
                st.cpu = None;
            }
            return false;
        }
        if st.original.is_none() {
            // The thread is in a scheduler wait, so no application code can change its
            // mask between this read and the bind.
            let Some(own) = cpu::allowed_cpus(self.tid) else {
                return false;
            };
            st.original = Some(own);
        }
        let moved = cpu::set_allowed_cpus(self.tid, &[cpu]);
        if moved {
            st.cpu = Some(cpu);
        }
        moved
    }

    /// Give the thread its own mask back (it was handed back to the application). A no-op
    /// for a thread whose mask the scheduler never changed.
    pub(crate) fn restore(&self) {
        let mut st = self.state.lock();
        if !st.live {
            return;
        }
        if let Some(own) = &st.original {
            if cpu::set_allowed_cpus(self.tid, own) {
                st.cpu = None;
                st.original = None;
            }
        }
    }
}
