//! Process domains.
//!
//! The paper's nOS-V coordinates *real* OS processes through a shared-memory segment; every
//! process registers itself at startup (§4.3.3) and the single centralized scheduler serves
//! tasks of all of them, rotating a per-process quantum. In this reproduction a "process" is
//! a *scheduling domain* identified by a [`ProcessId`]; several domains share one scheduler
//! instance and the quantum rotation behaves identically (see DESIGN.md, substitutions).

/// Identifier of a process domain registered with a scheduler instance.
pub type ProcessId = u32;

use crate::topology::CoreId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Lock-free(ish) per-process liveness + placement cell, shared between the global process
/// table and every task of the process. Scheduling hot paths (intake drain, shard-local
/// placement) consult it without touching the global section: process ids are never reused,
/// so a dead cell stays dead and there is no ABA hazard. The domain is a tiny mutex-guarded
/// vector — written only by `set_process_domain` (rare) and read at placement time under a
/// shard lock, which is below the grant lock in the hierarchy and never contends with it.
#[derive(Debug)]
pub(crate) struct ProcCell {
    alive: AtomicBool,
    domain: Mutex<Option<Vec<CoreId>>>,
}

impl ProcCell {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ProcCell {
            alive: AtomicBool::new(true),
            domain: Mutex::new(None),
        })
    }

    /// Whether the owning process is still registered.
    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Mark the process dead (deregister / kill). Sticky: never resurrected.
    pub(crate) fn mark_dead(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Replace the placement domain.
    pub(crate) fn set_domain(&self, domain: Option<Vec<CoreId>>) {
        *self.domain.lock() = domain;
    }

    /// Clone the placement domain (placement decisions need an owned copy anyway since
    /// they outlive the cell lock).
    pub(crate) fn domain(&self) -> Option<Vec<CoreId>> {
        self.domain.lock().clone()
    }
}
