//! Scheduler configuration.

use crate::policy::{CoopPolicy, FifoPolicy, Policy};
use crate::topology::Topology;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Factory building a [`Policy`] from the instance configuration.
pub type PolicyFactory = Arc<dyn Fn(&NosvConfig) -> Box<dyn Policy> + Send + Sync>;

/// Which scheduling policy a [`crate::scheduler::Scheduler`] should install.
#[derive(Clone)]
pub enum PolicyKind {
    /// The paper's SCHED_COOP selection rule: per-process per-core FIFO queues, affinity →
    /// NUMA → anywhere placement, per-process quantum evaluated at scheduling points. The
    /// scheduler runs one independently locked instance per NUMA node of the topology
    /// (one node ⇒ one instance), arbitrated by [`crate::readyq::ShardLadder`].
    Coop,
    /// A single global FIFO ignoring affinity and process quanta. Used as an ablation of the
    /// locality-aware design and as an example of a user-defined policy.
    Fifo,
    /// A user-supplied policy factory (USF is a *framework*: ad-hoc policies are the point).
    Custom(PolicyFactory),
}

impl fmt::Debug for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::Coop => write!(f, "Coop"),
            PolicyKind::Fifo => write!(f, "Fifo"),
            PolicyKind::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl PolicyKind {
    /// Instantiate the policy object for this kind (the scheduler calls this once per
    /// shard).
    pub fn build(&self, config: &NosvConfig) -> Box<dyn Policy> {
        match self {
            // Over the full topology even when it is one shard of several: a shard picks
            // for a foreign core when stolen from.
            PolicyKind::Coop => Box::new(CoopPolicy::new(
                config.topology.clone(),
                config.process_quantum,
            )),
            PolicyKind::Fifo => Box::new(FifoPolicy::new()),
            PolicyKind::Custom(factory) => factory(config),
        }
    }
}

/// Configuration of a scheduler instance.
///
/// Mirrors the nOS-V configuration file; the defaults follow the paper (§4.1): a 20 ms
/// per-process quantum and the cooperative policy.
#[derive(Debug, Clone)]
pub struct NosvConfig {
    /// Virtual core topology managed by the scheduler.
    pub topology: Topology,
    /// Per-process quantum evaluated at scheduling points (default 20 ms).
    pub process_quantum: Duration,
    /// Scheduling policy.
    pub policy: PolicyKind,
}

impl NosvConfig {
    /// Configuration with the detected host parallelism, one NUMA node and default policy.
    pub fn detect() -> Self {
        NosvConfig::with_topology(Topology::detect())
    }

    /// Configuration with `cores` cores in a single NUMA node.
    pub fn with_cores(cores: usize) -> Self {
        NosvConfig::with_topology(Topology::single_node(cores))
    }

    /// Configuration with an explicit topology.
    pub fn with_topology(topology: Topology) -> Self {
        NosvConfig {
            topology,
            process_quantum: Duration::from_millis(20),
            policy: PolicyKind::Coop,
        }
    }

    /// Set the per-process quantum.
    pub fn quantum(mut self, quantum: Duration) -> Self {
        self.process_quantum = quantum;
        self
    }

    /// Set the scheduling policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }
}

impl Default for NosvConfig {
    fn default() -> Self {
        NosvConfig::detect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let cfg = NosvConfig::with_cores(4);
        assert_eq!(cfg.process_quantum, Duration::from_millis(20));
        assert!(matches!(cfg.policy, PolicyKind::Coop));
    }

    #[test]
    fn builder_style_overrides() {
        let cfg = NosvConfig::with_cores(2)
            .quantum(Duration::from_millis(5))
            .policy(PolicyKind::Fifo);
        assert_eq!(cfg.process_quantum, Duration::from_millis(5));
        assert!(matches!(cfg.policy, PolicyKind::Fifo));
    }

    #[test]
    fn policy_kind_builds_expected_policies() {
        let cfg = NosvConfig::with_cores(2);
        assert_eq!(PolicyKind::Coop.build(&cfg).name(), "sched_coop");
        assert_eq!(PolicyKind::Fifo.build(&cfg).name(), "fifo");
        let custom = PolicyKind::Custom(Arc::new(|_cfg: &NosvConfig| {
            Box::new(FifoPolicy::new()) as Box<dyn Policy>
        }));
        assert_eq!(custom.build(&cfg).name(), "fifo");
        assert!(format!("{custom:?}").contains("Custom"));
    }
}
