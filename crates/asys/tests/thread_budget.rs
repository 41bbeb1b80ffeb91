//! The threaded runtime's thread budget: one thread per available core —
//! the coordinator, which runs the first block of hosts itself, and a
//! worker per further block — however many processes it runs. Read from
//! the kernel's own count, so it holds for whatever the runtime spawns
//! internally.

#![cfg(target_os = "linux")]

use sfs_asys::net::{Runtime, RuntimeConfig};
use sfs_asys::{Context, Process, ProcessId};

struct Idle;

impl Process<u32> for Idle {
    fn on_start(&mut self, _: &mut Context<'_, u32>) {}
    fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
}

/// This process's live thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("status carries a Threads: line")
}

#[test]
fn a_64_node_runtime_spawns_one_worker_per_core_plus_a_router() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let before = threads();
    let rt = Runtime::spawn(64, RuntimeConfig::default(), |_| Box::new(Idle));
    let during = threads();
    let trace = rt.shutdown();
    assert!(
        during - before <= cores,
        "{} threads for 64 nodes on {cores} cores: one per core, the coordinator's included",
        during - before
    );
    assert_eq!(trace.n(), 64);
}
