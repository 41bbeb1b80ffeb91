//! A cluster whose children exit before saying Hello: the parent gives
//! up at its Hello deadline with a typed error and leaves no child
//! behind. Its own test binary, so that no other test's children share
//! the process table it inspects.

use sfs_wire::{run_cluster, ClusterConfig};
use std::io;
use std::process::Command;
use std::time::{Duration, Instant};

/// The children of this process still in the process table, zombies
/// included.
#[cfg(target_os = "linux")]
fn children() -> Vec<u32> {
    let me = std::process::id().to_string();
    std::fs::read_dir("/proc")
        .unwrap()
        .filter_map(|entry| {
            let pid: u32 = entry.ok()?.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
            // The parent pid is the second field after the parenthesised
            // command name, which may itself hold spaces.
            let ppid = stat.rsplit_once(')')?.1.split_whitespace().nth(1)?;
            (ppid == me).then_some(pid)
        })
        .collect()
}

#[test]
fn children_that_exit_before_hello_time_out_and_are_reaped() {
    let hello_timeout = Duration::from_millis(300);
    let config = ClusterConfig {
        hello_timeout,
        ..ClusterConfig::new(3, Duration::from_secs(1))
    };
    let commands = (0..3).map(|_| Command::new("true")).collect();
    let started = Instant::now();
    let err = run_cluster(&config, commands, &[]).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    assert!(
        started.elapsed() < hello_timeout + Duration::from_millis(500),
        "{:?}",
        started.elapsed()
    );
    #[cfg(target_os = "linux")]
    assert_eq!(children(), Vec::<u32>::new());
}
