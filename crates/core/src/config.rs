//! USF configuration, including the environment-variable startup path.
//!
//! In the paper, a process enters USF when the `USF_ENABLE` environment variable is set at
//! startup (§4.3.3); `chrt -c <app>` simply launches the app with the variable set. The same
//! convention is supported here through [`UsfConfig::from_env`]: `USF_ENABLE=1` turns the
//! framework on and the remaining `USF_*` variables tune it.

use crate::error::UsfError;
use std::time::Duration;
use usf_nosv::{NosvConfig, PolicyKind, Topology};

/// Configuration for a [`crate::Usf`] instance.
#[derive(Debug, Clone)]
pub struct UsfConfig {
    /// Number of virtual cores (default: detected host parallelism).
    pub cores: usize,
    /// Number of NUMA nodes the cores are split into (default 1).
    pub numa_nodes: usize,
    /// Scheduling policy (default: SCHED_COOP).
    pub policy: PolicyKind,
    /// Per-process quantum evaluated at scheduling points (default 20 ms).
    pub quantum: Duration,
    /// Maximum number of finished worker threads kept for reuse by the thread cache
    /// (default 256; 0 disables caching).
    pub thread_cache_capacity: usize,
    /// Optional name of a shared instance to connect to (the multi-process shared segment).
    pub instance_name: Option<String>,
}

impl UsfConfig {
    /// Default configuration: detected cores, one NUMA node, SCHED_COOP, 20 ms quantum.
    pub fn detect() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        UsfConfig {
            cores,
            numa_nodes: 1,
            policy: PolicyKind::Coop,
            quantum: Duration::from_millis(20),
            thread_cache_capacity: 256,
            instance_name: None,
        }
    }

    /// Configuration with an explicit core count (single NUMA node).
    pub fn with_cores(cores: usize) -> Self {
        UsfConfig {
            cores,
            ..UsfConfig::detect()
        }
    }

    /// Read the configuration from `USF_*` environment variables.
    ///
    /// Returns `Ok(None)` when `USF_ENABLE` is unset or `0` (USF disabled — the application
    /// should run on the plain OS scheduler), `Ok(Some(config))` when enabled, and an error
    /// when a variable is present but unparsable.
    ///
    /// Recognised variables:
    ///
    /// | Variable | Meaning | Default |
    /// |---|---|---|
    /// | `USF_ENABLE` | `1`/`true` enables the framework | disabled |
    /// | `USF_CORES` | number of virtual cores | host parallelism |
    /// | `USF_NUMA_NODES` | NUMA nodes | 1 |
    /// | `USF_POLICY` | `coop` or `fifo` | `coop` |
    /// | `USF_QUANTUM_MS` | per-process quantum in ms | 20 |
    /// | `USF_CACHE` | thread-cache capacity | 256 |
    /// | `USF_INSTANCE` | shared instance name | none |
    pub fn from_env() -> Result<Option<Self>, UsfError> {
        let enabled = match std::env::var("USF_ENABLE") {
            Ok(v) => matches!(v.trim(), "1" | "true" | "TRUE" | "yes" | "on"),
            Err(_) => false,
        };
        if !enabled {
            return Ok(None);
        }
        let mut cfg = UsfConfig::detect();
        if let Ok(v) = std::env::var("USF_CORES") {
            cfg.cores = parse(&v, "USF_CORES")?;
        }
        if let Ok(v) = std::env::var("USF_NUMA_NODES") {
            cfg.numa_nodes = parse(&v, "USF_NUMA_NODES")?;
        }
        if let Ok(v) = std::env::var("USF_POLICY") {
            cfg.policy = match v.trim().to_ascii_lowercase().as_str() {
                "coop" | "sched_coop" => PolicyKind::Coop,
                "fifo" => PolicyKind::Fifo,
                other => {
                    return Err(UsfError::InvalidConfig(format!(
                        "USF_POLICY={other} (expected coop|fifo)"
                    )))
                }
            };
        }
        if let Ok(v) = std::env::var("USF_QUANTUM_MS") {
            cfg.quantum = Duration::from_millis(parse(&v, "USF_QUANTUM_MS")?);
        }
        if let Ok(v) = std::env::var("USF_CACHE") {
            cfg.thread_cache_capacity = parse(&v, "USF_CACHE")?;
        }
        if let Ok(v) = std::env::var("USF_INSTANCE") {
            if !v.trim().is_empty() {
                cfg.instance_name = Some(v.trim().to_string());
            }
        }
        Ok(Some(cfg))
    }

    /// Convert to the substrate configuration.
    pub fn to_nosv(&self) -> NosvConfig {
        NosvConfig::with_topology(Topology::new(self.cores, self.numa_nodes.max(1)))
            .quantum(self.quantum)
            .policy(self.policy.clone())
    }
}

impl Default for UsfConfig {
    fn default() -> Self {
        UsfConfig::detect()
    }
}

fn parse<T: std::str::FromStr>(v: &str, name: &str) -> Result<T, UsfError> {
    v.trim()
        .parse::<T>()
        .map_err(|_| UsfError::InvalidConfig(format!("{name}={v}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = UsfConfig::with_cores(4);
        assert_eq!(c.cores, 4);
        assert_eq!(c.quantum, Duration::from_millis(20));
        assert!(matches!(c.policy, PolicyKind::Coop));
        let n = c.to_nosv();
        assert_eq!(n.topology.num_cores(), 4);
        assert_eq!(n.process_quantum, Duration::from_millis(20));
    }

    #[test]
    fn to_nosv_respects_numa_split() {
        let mut c = UsfConfig::with_cores(8);
        c.numa_nodes = 2;
        let n = c.to_nosv();
        assert_eq!(n.topology.num_numa_nodes(), 2);
    }

    // Environment-variable behaviour is tested in a dedicated integration test binary
    // (tests/env_config.rs at the workspace root) because mutating the process environment
    // is racy inside a multi-threaded unit-test runner.
}
