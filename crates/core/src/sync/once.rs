//! Cooperative one-time initialization (`pthread_once`).

use crate::park::WaitQueue;
use parking_lot::Mutex as RawMutex;

enum State {
    New,
    Running(WaitQueue),
    Done,
}

/// A one-time initialization cell: the first caller runs the closure; concurrent callers
/// block cooperatively until it finishes; later callers return immediately.
pub struct Once {
    state: RawMutex<State>,
}

impl Default for Once {
    fn default() -> Self {
        Once::new()
    }
}

impl Once {
    /// Create a new `Once` in the not-yet-run state.
    pub fn new() -> Self {
        Once {
            state: RawMutex::new(State::New),
        }
    }

    /// Whether the initialization has completed.
    pub fn is_completed(&self) -> bool {
        matches!(&*self.state.lock(), State::Done)
    }

    /// Run `f` exactly once across all callers; other callers block until it completes.
    ///
    /// Unlike `std::sync::Once`, a panicking initializer is not supported (it would poison
    /// the cell); initializers in this codebase are infallible.
    pub fn call_once(&self, f: impl FnOnce()) {
        let mut st = self.state.lock();
        match &mut *st {
            State::Done => {}
            State::New => {
                *st = State::Running(WaitQueue::default());
                drop(st);
                f();
                let prev = std::mem::replace(&mut *self.state.lock(), State::Done);
                if let State::Running(waiters) = prev {
                    waiters.wake_all();
                }
            }
            State::Running(waiters) => {
                let w = waiters.enqueue();
                drop(st);
                w.wait();
            }
        }
    }
}

impl std::fmt::Debug for Once {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Once")
            .field("completed", &self.is_completed())
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
    fn runs_exactly_once_sequentially() {
        let once = Once::new();
        let mut count = 0;
        once.call_once(|| count += 1);
        once.call_once(|| count += 1);
        assert_eq!(count, 1);
        assert!(once.is_completed());
    }

    #[test]
    fn runs_exactly_once_concurrently() {
        let once = Arc::new(Once::new());
        let count = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let once = Arc::clone(&once);
            let count = Arc::clone(&count);
            handles.push(std::thread::spawn(move || {
                once.call_once(|| {
                    // Make the window wide enough that others really race.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    count.fetch_add(1, Ordering::SeqCst);
                });
                // After call_once returns, the initialization must be visible.
                assert_eq!(count.load(Ordering::SeqCst), 1);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cooperative_once_under_oversubscription() {
        let usf = Usf::builder().cores(1).build();
        let p = usf.process("once-test");
        let once = Arc::new(Once::new());
        let count = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let once = Arc::clone(&once);
                let count = Arc::clone(&count);
                p.spawn(move || {
                    once.call_once(|| {
                        count.fetch_add(1, Ordering::SeqCst);
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(count.load(Ordering::SeqCst), 1);
        usf.shutdown();
    }
}
