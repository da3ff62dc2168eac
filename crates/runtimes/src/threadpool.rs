//! Transient (spawn-per-call) thread pool.
//!
//! Some inner runtimes do not keep a persistent worker pool: the BLIS pthread backend
//! ("pth" in Table 2) and PyTorch's pthreadpool create a fresh set of threads for every
//! parallel kernel and destroy them when it finishes. Under the baseline OS scheduler this
//! pattern pays thread creation/destruction and wake-up costs on every call; under USF the
//! thread cache (§4.3.1) absorbs most of it — which is exactly why the "pth" rows of Table 2
//! show the largest SCHED_COOP speedups.

use std::sync::atomic::{AtomicU64, Ordering};
use usf_core::error::panic_message;
use usf_core::exec::ExecMode;

/// A pool that spawns `n` threads per call and joins them before returning.
#[derive(Debug, Clone)]
pub struct TransientPool {
    exec: ExecMode,
    calls: std::sync::Arc<AtomicU64>,
    threads_spawned: std::sync::Arc<AtomicU64>,
}

impl TransientPool {
    /// Create a pool using the given thread backend.
    pub fn new(exec: ExecMode) -> Self {
        TransientPool {
            exec,
            calls: std::sync::Arc::new(AtomicU64::new(0)),
            threads_spawned: std::sync::Arc::new(AtomicU64::new(0)),
        }
    }

    /// The thread backend in use.
    pub fn exec(&self) -> &ExecMode {
        &self.exec
    }

    /// Number of `run` calls performed.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total threads spawned across all calls.
    pub fn threads_spawned(&self) -> u64 {
        self.threads_spawned.load(Ordering::Relaxed)
    }

    /// Run `f(0..n)` on `n` freshly spawned threads (the calling thread does not
    /// participate) and join them all before returning.
    ///
    /// A panicking worker is re-raised on the caller — but only after EVERY worker has
    /// been joined, so the remaining units always complete and no spawned thread can
    /// outlive `f`'s stack frame. Use [`TransientPool::try_run`] for the `Result` form.
    pub fn run<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if let Err(payload) = self.run_inner(n, f) {
            std::panic::resume_unwind(payload);
        }
    }

    /// [`TransientPool::run`], but a worker panic is reported as `Err` instead of
    /// re-raised (the first panic wins; every worker is joined either way).
    pub fn try_run<F>(&self, n: usize, f: F) -> Result<(), usf_core::UsfError>
    where
        F: Fn(usize) + Send + Sync,
    {
        self.run_inner(n, f)
            .map_err(|payload| usf_core::UsfError::ThreadPanicked(panic_message(&*payload)))
    }

    fn run_inner<F>(&self, n: usize, f: F) -> Result<(), Box<dyn std::any::Any + Send>>
    where
        F: Fn(usize) + Send + Sync,
    {
        if n == 0 {
            return Ok(());
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.threads_spawned.fetch_add(n as u64, Ordering::Relaxed);
        // Threads created per call must not outlive `f`, which lives on this stack frame; we
        // join every handle before returning, so erasing the lifetime is sound (same
        // discipline as `Team::parallel`). That is also why a panicking worker must NOT
        // short-circuit the join loop: bailing on the first `Err` would drop the
        // remaining handles while their threads still hold the erased pointer.
        let f_ref: &(dyn Fn(usize) + Send + Sync) = &f;
        let f_static: &'static (dyn Fn(usize) + Send + Sync) =
            unsafe { std::mem::transmute(f_ref) };
        let handles: Vec<_> = (0..n)
            .map(|i| {
                self.exec
                    .spawn_named(format!("transient-{i}"), move || f_static(i))
            })
            .collect();
        let mut first_panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
        match first_panic {
            Some(payload) => Err(payload),
            None => Ok(()),
        }
    }

    /// Run `f` over `0..len` split into `n` contiguous chunks, one per spawned thread.
    pub fn run_chunked<F>(&self, n: usize, len: usize, f: F)
    where
        F: Fn(std::ops::Range<usize>) + Send + Sync,
    {
        if len == 0 || n == 0 {
            return;
        }
        let n = n.min(len);
        let chunk = len.div_ceil(n);
        self.run(n, |i| {
            let start = i * chunk;
            let end = ((i + 1) * chunk).min(len);
            if start < end {
                f(start..end);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use usf_core::runtime::Usf;

    #[test]
    fn run_spawns_exactly_n_threads() {
        let pool = TransientPool::new(ExecMode::Os);
        let count = AtomicUsize::new(0);
        pool.run(4, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
        assert_eq!(pool.calls(), 1);
        assert_eq!(pool.threads_spawned(), 4);
        pool.run(0, |_| panic!("must not run"));
        assert_eq!(pool.calls(), 1);
    }

    #[test]
    fn run_chunked_covers_range() {
        let pool = TransientPool::new(ExecMode::Os);
        let len = 103;
        let seen = Arc::new((0..len).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        pool.run_chunked(4, len, |range| {
            for i in range {
                seen[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn usf_backend_reuses_threads_via_cache() {
        let usf = Usf::builder().cores(2).cache_capacity(16).build();
        let p = usf.process("transient-test");
        let pool = TransientPool::new(ExecMode::Usf(p));
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let c = Arc::clone(&count);
            pool.run(3, move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            });
            // Let finished workers park in the cache before the next burst.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(count.load(Ordering::SeqCst), 15);
        let stats = usf.thread_cache_stats();
        assert_eq!(stats.created + stats.reused, 15);
        assert!(
            stats.reused > 0,
            "repeated transient-pool calls must reuse cached threads (the Table 2 effect): {stats:?}"
        );
        usf.shutdown();
    }

    #[test]
    fn worker_panic_joins_everyone_before_surfacing() {
        let pool = TransientPool::new(ExecMode::Os);
        let survivors = AtomicUsize::new(0);
        let err = pool
            .try_run(4, |i| {
                if i == 0 {
                    panic!("unit 0 dies");
                }
                // Give the panicking unit a head start so an early-bail join would
                // observe its Err before these units finish.
                std::thread::sleep(std::time::Duration::from_millis(20));
                survivors.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap_err();
        assert!(
            matches!(&err, usf_core::UsfError::ThreadPanicked(m) if m.contains("unit 0 dies")),
            "got {err:?}"
        );
        assert_eq!(
            survivors.load(Ordering::SeqCst),
            3,
            "remaining units complete before the panic surfaces"
        );
        // The pool is stateless across calls: the next run is healthy.
        let count = AtomicUsize::new(0);
        pool.run(2, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn usf_backend_worker_panic_surfaces_as_err() {
        let usf = Usf::builder().cores(2).build();
        let p = usf.process("transient-panic");
        let pool = TransientPool::new(ExecMode::Usf(p));
        let survivors = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&survivors);
        let err = pool
            .try_run(3, move |i| {
                if i == 1 {
                    panic!("cooperative unit dies");
                }
                s.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap_err();
        assert!(matches!(err, usf_core::UsfError::ThreadPanicked(_)));
        assert_eq!(survivors.load(Ordering::SeqCst), 2);
        usf.shutdown();
    }

    #[test]
    fn borrows_caller_data() {
        let pool = TransientPool::new(ExecMode::Os);
        let data: Vec<usize> = (0..32).collect();
        let sum = AtomicUsize::new(0);
        pool.run(4, |i| {
            let part: usize = data.iter().skip(i).step_by(4).sum();
            sum.fetch_add(part, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), data.iter().sum::<usize>());
    }
}
