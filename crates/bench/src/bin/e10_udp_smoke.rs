//! CI smoke for the UDP socket backend: run the E10 `net:udp` leg —
//! one OS process per node over real localhost datagrams — against the
//! bounded (exhaustive) E9 instances and exit nonzero on any divergence
//! from the reference envelope, or if the leg could not run at all
//! (missing `sfs-udp-node` binary counts as failure here, unlike the
//! library tests, which skip).
//!
//! The optional CLI argument is the exploration budget per instance
//! (schedule cap for the reference envelope; default 20 000). Writes
//! `BENCH_E10_UDP.json` (with the full table embedded) to
//! `SFS_BENCH_OUT`.

use sfs_apps::scenarios::{ConformanceConfig, ExploreInstance};
use sfs_bench::e9_instances;
use sfs_explore::{ExploreConfig, Pruning};

fn main() {
    let budget = sfs_bench::seeds_arg(20_000);
    if let Err(e) = sfs::udp_node_binary() {
        eprintln!("[bench] E10_UDP FAILED: node binary unavailable ({e})");
        eprintln!("[bench] build it first: cargo build --release -p sfs --bin sfs-udp-node");
        std::process::exit(1);
    }
    let mut failures = 0usize;
    sfs_bench::run_with_report(
        "E10_UDP",
        "bounded E9 instances x net:udp (multi-process, localhost datagrams)",
        budget,
        || {
            let mut table = sfs_bench::Table::new(
                "E10 net:udp smoke — multi-process UDP backend vs the reference envelope",
                &[
                    "instance",
                    "ref classes",
                    "udp runs",
                    "complete",
                    "divergent",
                ],
            );
            for (i, instance) in e9_instances().iter().filter(|i| i.exhaustive).enumerate() {
                let mut inst = ExploreInstance::new(instance.spec.clone());
                inst.config = ExploreConfig {
                    max_steps: 600,
                    max_schedules: budget as usize,
                    pruning: Pruning::SleepSets,
                };
                let out = inst.conformance(&ConformanceConfig {
                    random_runs: 0,
                    threaded_runs: 0,
                    transport_runs: 0,
                    udp_runs: 2,
                    seed: 0xD0 + i as u64,
                    ..ConformanceConfig::default()
                });
                sfs_bench::note_events(out.reference.trace_events);
                let udp = out
                    .backends
                    .iter()
                    .find(|b| b.backend == "net:udp")
                    .expect("net:udp backend is always reported");
                // A skipped leg (0 runs) is a failure for this job: CI
                // builds the node binary before invoking us.
                if udp.runs < 2 || udp.divergent_runs > 0 {
                    failures += 1;
                }
                for d in &udp.divergences {
                    eprintln!("[bench] {}: {}", instance.label, d);
                }
                table.row([
                    instance.label.to_string(),
                    out.reference.classes().to_string(),
                    udp.runs.to_string(),
                    udp.complete_runs.to_string(),
                    udp.divergent_runs.to_string(),
                ]);
            }
            table.note(
                "each bounded instance is explored into its reference envelope, then \
                 executed twice across real OS processes (one per node) exchanging \
                 sfs-wire datagrams over localhost UDP; the Lamport-merged trace must \
                 land in the envelope. Nonzero exit on any divergence or skipped run.",
            );
            table
        },
    );
    if failures > 0 {
        eprintln!("[bench] E10_UDP FAILED: {failures} instance(s) diverged or skipped");
        std::process::exit(1);
    }
}
