//! Level 1 of the scheduler's lock hierarchy: the registry of process domains and tasks.
//!
//! [`GlobalState`] holds the process and task tables and the id counters, behind the
//! scheduler's **global-section lock**, the first lock in acquisition order: it may be
//! held while taking shard locks (the rare multi-shard operations), and it is never
//! acquired while a shard or grant lock is held. Every acquisition bumps
//! `global_lock_acquisitions`, which is how
//! `wake_churn.rs::steady_state_churn_takes_no_global_section` proves that steady-state
//! wake churn never takes it. The shutdown flag is written under this lock too.
//!
//! Both tables are ordered by id, so a multi-task teardown (deregister, kill, shutdown)
//! visits its tasks in id order: the cores it frees, and every pick after them, do not
//! depend on hash order. A process is a name and its shared [`ProcCell`]: shard-local
//! paths read its liveness and domain from the cell each task carries, never from here.

use crate::error::{NosvError, Result};
use crate::process::{ProcCell, ProcessId};
use crate::task::{Task, TaskId, TaskRef};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One registered process domain.
struct ProcessInfo {
    /// Human-readable name (diagnostics only).
    name: String,
    /// Shared liveness/domain cell; each task of the process holds a clone.
    cell: Arc<ProcCell>,
}

/// The registry section behind the global-section lock.
#[derive(Default)]
pub(crate) struct GlobalState {
    tasks: BTreeMap<TaskId, TaskRef>,
    processes: BTreeMap<ProcessId, ProcessInfo>,
    /// The last ids handed out: ids start at 1, so 0 is never a valid id.
    last_task_id: TaskId,
    last_process_id: ProcessId,
}

impl GlobalState {
    /// Register a process domain and return its fresh id.
    pub(crate) fn register(&mut self, name: String) -> ProcessId {
        self.last_process_id += 1;
        let id = self.last_process_id;
        let cell = ProcCell::new();
        self.processes.insert(id, ProcessInfo { name, cell });
        id
    }

    /// Remove `process` and mark its cell dead, so the shard-local intake drains reject
    /// its tasks from now on. Returns `false` for an unknown process.
    fn unregister(&mut self, process: ProcessId) -> bool {
        let Some(p) = self.processes.remove(&process) else {
            return false;
        };
        p.cell.mark_dead();
        true
    }

    /// Deregister `process`, returning its tasks in id order. They stay registered: a
    /// running one keeps its core until it detaches.
    pub(crate) fn deregister(&mut self, process: ProcessId) -> Vec<TaskRef> {
        self.unregister(process);
        self.tasks_of(process)
    }

    /// Deregister `process` and take its tasks off the task table, returning them in id
    /// order, or `None` for an unknown process.
    pub(crate) fn kill(&mut self, process: ProcessId) -> Option<Vec<TaskRef>> {
        if !self.unregister(process) {
            return None;
        }
        let victims = self.tasks_of(process);
        for t in &victims {
            self.tasks.remove(&t.id());
        }
        Some(victims)
    }

    fn tasks_of(&self, process: ProcessId) -> Vec<TaskRef> {
        let of = |t: &&TaskRef| t.process() == process;
        self.tasks.values().filter(of).cloned().collect()
    }

    /// The shared cell of a registered process, or `None` for an unknown one.
    pub(crate) fn cell(&self, process: ProcessId) -> Option<&ProcCell> {
        self.processes.get(&process).map(|p| &*p.cell)
    }

    /// Ids and names of the registered processes, in id order.
    pub(crate) fn processes(&self) -> Vec<(ProcessId, String)> {
        self.processes
            .iter()
            .map(|(&id, p)| (id, p.name.clone()))
            .collect()
    }

    /// Create and register a task of `process`.
    pub(crate) fn create_task(
        &mut self,
        process: ProcessId,
        label: Option<String>,
    ) -> Result<TaskRef> {
        let Some(p) = self.processes.get(&process) else {
            return Err(NosvError::UnknownProcess(process));
        };
        let cell = Arc::clone(&p.cell);
        self.last_task_id += 1;
        let id = self.last_task_id;
        let task = Task::new(id, process, cell, label);
        self.tasks.insert(id, TaskRef::clone(&task));
        Ok(task)
    }

    /// Forget a finished task.
    pub(crate) fn remove_task(&mut self, id: TaskId) {
        self.tasks.remove(&id);
    }

    /// Every registered task, in id order.
    pub(crate) fn tasks(&self) -> Vec<TaskRef> {
        self.tasks.values().cloned().collect()
    }

    /// Number of registered tasks.
    pub(crate) fn live_tasks(&self) -> usize {
        self.tasks.len()
    }
}
