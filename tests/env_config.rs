//! Environment-variable configuration (`USF_ENABLE` and friends, §4.3.3). Kept in its own
//! integration-test binary because mutating the process environment is only safe while no
//! other test threads are running; the tests run sequentially within this file.

use std::time::Duration;
use usf::framework::{PolicyKind, UsfConfig};

fn clear_env() {
    for var in [
        "USF_ENABLE",
        "USF_CORES",
        "USF_NUMA_NODES",
        "USF_POLICY",
        "USF_QUANTUM_MS",
        "USF_CACHE",
        "USF_INSTANCE",
    ] {
        std::env::remove_var(var);
    }
}

#[test]
fn env_configuration_round_trip() {
    // Disabled when USF_ENABLE is unset.
    clear_env();
    assert!(UsfConfig::from_env().unwrap().is_none());

    // Disabled when explicitly off.
    std::env::set_var("USF_ENABLE", "0");
    assert!(UsfConfig::from_env().unwrap().is_none());

    // Fully configured.
    std::env::set_var("USF_ENABLE", "1");
    std::env::set_var("USF_CORES", "3");
    std::env::set_var("USF_NUMA_NODES", "1");
    std::env::set_var("USF_POLICY", "fifo");
    std::env::set_var("USF_QUANTUM_MS", "7");
    std::env::set_var("USF_CACHE", "9");
    std::env::set_var("USF_INSTANCE", "shared-seg");
    let cfg = UsfConfig::from_env().unwrap().expect("enabled");
    assert_eq!(cfg.cores, 3);
    assert_eq!(cfg.numa_nodes, 1);
    assert!(matches!(cfg.policy, PolicyKind::Fifo));
    assert_eq!(cfg.quantum, Duration::from_millis(7));
    assert_eq!(cfg.thread_cache_capacity, 9);
    assert_eq!(cfg.instance_name.as_deref(), Some("shared-seg"));

    // Invalid values are reported, not silently ignored — also by `Usf::from_env`, which
    // must not fall back to the OS scheduler without a word.
    std::env::set_var("USF_CORES", "not-a-number");
    assert!(UsfConfig::from_env().is_err());
    assert!(usf::framework::Usf::from_env().is_err());
    std::env::set_var("USF_CORES", "4");
    std::env::set_var("USF_POLICY", "strange");
    assert!(UsfConfig::from_env().is_err());

    // An instance built from the environment works end to end.
    std::env::set_var("USF_POLICY", "coop");
    let usf = usf::framework::Usf::from_env()
        .unwrap()
        .expect("USF_ENABLE is set");
    let p = usf.process("env-app");
    let out = p.spawn(|| 21 * 2).join().unwrap();
    assert_eq!(out, 42);
    assert_eq!(usf.topology().num_cores(), 4);
    usf.shutdown();
    clear_env();
}
