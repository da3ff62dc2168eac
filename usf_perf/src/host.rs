//! The host fingerprint every output file carries: numbers from different hosts, kernels
//! or compilers are not comparable, and a reader must be able to tell.

use crate::json::Json;
use crate::workloads::CORES;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn fingerprint(seed: u64, window_s: f64) -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("usf_cores", Json::Num(CORES as f64)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        // A benchmark checkout need not be a git repository.
        (
            "git_sha",
            Json::Str(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("seed", Json::Num(seed as f64)),
        ("window_s", Json::Num(window_s)),
    ])
}
