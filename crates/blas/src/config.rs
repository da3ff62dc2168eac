//! Configuration of the parallel BLAS backend.

use usf_core::exec::ExecMode;
use usf_runtimes::WaitPolicy;

/// How kernel workers synchronize at the end of a parallel kernel (§5.2/§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Custom busy-wait barrier without any yield — the unmodified "Original" BLAS
    /// behaviour that collapses under oversubscription (Figure 3d).
    BusySpin,
    /// Busy-wait barrier that yields every `yield_every` iterations — the paper's one-line
    /// fix applied to OpenBLAS/BLIS/MPICH ("Baseline"/"SCHED_COOP").
    BusyYield {
        /// Spin iterations between yields.
        yield_every: u32,
    },
    /// A fully blocking barrier (workers release their core while waiting).
    Blocking,
}

impl BarrierKind {
    /// Label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            BarrierKind::BusySpin => "busy-spin",
            BarrierKind::BusyYield { .. } => "busy-yield",
            BarrierKind::Blocking => "blocking",
        }
    }
}

impl Default for BarrierKind {
    fn default() -> Self {
        BarrierKind::BusyYield { yield_every: 64 }
    }
}

/// Which inner runtime parallelizes the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlasThreading {
    /// Persistent OpenMP-like worker teams (the gomp/libomp backends of Table 2): one team
    /// per concurrent caller, kept alive and reused across calls.
    OpenMpLike,
    /// A spawn-per-call pthread pool (the BLIS "pth" backend of Table 2): threads are
    /// created and destroyed for every kernel invocation.
    PthreadPerCall,
}

impl BlasThreading {
    /// Label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            BlasThreading::OpenMpLike => "omp",
            BlasThreading::PthreadPerCall => "pth",
        }
    }
}

/// Full configuration of a [`crate::BlasHandle`].
#[derive(Debug, Clone)]
pub struct BlasConfig {
    /// Number of inner threads per kernel call.
    pub threads: usize,
    /// Inner-runtime flavour.
    pub threading: BlasThreading,
    /// End-of-kernel synchronization behaviour.
    pub barrier: BarrierKind,
    /// Wait policy of the persistent team (ignored for the spawn-per-call backend).
    pub wait_policy: WaitPolicy,
    /// Thread backend: plain OS threads (baseline) or USF workers (SCHED_COOP).
    pub exec: ExecMode,
}

impl BlasConfig {
    /// An OpenMP-like configuration with `threads` workers on the given backend.
    pub fn omp(threads: usize, exec: ExecMode) -> Self {
        BlasConfig {
            threads,
            threading: BlasThreading::OpenMpLike,
            barrier: BarrierKind::default(),
            wait_policy: WaitPolicy::Passive,
            exec,
        }
    }

    /// A spawn-per-call ("pth") configuration with `threads` workers on the given backend.
    pub fn pth(threads: usize, exec: ExecMode) -> Self {
        BlasConfig {
            threading: BlasThreading::PthreadPerCall,
            ..BlasConfig::omp(threads, exec)
        }
    }

    /// Set the barrier kind.
    pub fn barrier(mut self, barrier: BarrierKind) -> Self {
        self.barrier = barrier;
        self
    }

    /// Set the team wait policy.
    pub fn wait_policy(mut self, policy: WaitPolicy) -> Self {
        self.wait_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_labels() {
        let c = BlasConfig::omp(4, ExecMode::Os);
        assert_eq!(c.threads, 4);
        assert_eq!(c.threading.label(), "omp");
        assert_eq!(c.barrier.label(), "busy-yield");
        let c = BlasConfig::pth(2, ExecMode::Os).barrier(BarrierKind::BusySpin);
        assert_eq!(c.threading.label(), "pth");
        assert_eq!(c.barrier.label(), "busy-spin");
        assert_eq!(BarrierKind::Blocking.label(), "blocking");
    }
}
