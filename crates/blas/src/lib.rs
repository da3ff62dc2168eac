//! `usf-blas` — the BLAS substrate of the reproduction.
//!
//! The paper's nested workloads call dense linear-algebra kernels (dgemm for the matmul of
//! §5.3, potrf/trsm/syrk/gemm for the Cholesky of §5.4) provided by OpenBLAS or BLIS. Those
//! libraries matter to the evaluation for two scheduling-relevant reasons, both reproduced
//! here:
//!
//! 1. they parallelize each kernel with an *inner* runtime (an OpenMP team or a
//!    spawn-per-call pthread pool — the "pth" backend of Table 2), and
//! 2. they synchronize their workers with *custom busy-wait barriers* whose behaviour under
//!    oversubscription (with or without the one-line `sched_yield` fix) drives Figure 3.
//!
//! Numerical peak performance is *not* the point. The serial gemm is a register-blocked
//! micro-kernel whose results equal the naive reference bit for bit, and the Cholesky tile
//! kernels are plain loops (see [`kernels`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod kernels;
pub mod matrix;
pub mod parallel;

pub use config::{BarrierKind, BlasConfig, BlasThreading};
pub use matrix::Matrix;
pub use parallel::BlasHandle;
