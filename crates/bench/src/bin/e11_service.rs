//! E11 — sharded service scale: N ∈ {64, 256, 1024} total processes as
//! independent 16-process quorum groups behind a replicated directory,
//! on the simulator and on the threaded runtime (see EXPERIMENTS.md
//! §E11).
//!
//! CLI: `e11_service [max_n] [ops_per_proc]`. The CI smoke job runs
//! `e11_service 64 2` (only the N=64 cells, small op budget); the full
//! sweep defaults to `1024 4`.
//!
//! Writes `BENCH_E11.json` carrying the standard wall/events record
//! *plus* a per-cell table with throughput and detection-latency
//! columns. Exits nonzero if any cell completes zero ops (throughput
//! regression to zero), or — when
//! `SFS_E11_THREADED_BUDGET_MS` is set — if the threaded cells together
//! exceed that wall-clock budget. The budget gate is what CI's
//! threaded-runtime smoke job pins: the event-driven runtime's wall cost
//! must track events executed, so a regression back toward
//! tick-paced sleeping blows the budget by orders of magnitude.

use sfs_service::Backend;

fn main() {
    let mut args = std::env::args().skip(1);
    let max_n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1024);
    let ops_per_proc: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let mut rows = None;
    // Writes the standard BENCH_E11.json record (wall, events, rate).
    // E11 runs one fixed seed per cell (the op budget is in the configs
    // string, not the seeds field).
    let configs = format!(
        "N in {{64,256,1024}} capped at {max_n} x {{sim, threaded}}, \
         t=2, 16-process shards, ops_per_proc={ops_per_proc}"
    );
    let mut record = sfs_bench::run_with_report("E11", &configs, 1, || {
        let (table, r) = sfs_bench::run_e11(max_n, ops_per_proc);
        rows = Some(r);
        table
    });
    let rows = rows.expect("run_e11 ran");
    // ...then replaces the printable table with the per-cell measurement
    // rows the experiment is actually about.
    let cells: Vec<String> = rows
        .iter()
        .map(|row| format!("    {}", row.to_json()))
        .collect();
    record.table_json = format!("[\n{}\n  ]", cells.join(",\n"));
    let json = record.to_json();
    let out_dir = std::env::var_os("SFS_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let path = out_dir.join("BENCH_E11.json");
    match std::fs::write(&path, json + "\n") {
        Ok(()) => eprintln!(
            "[bench] E11 table -> {} ({} cells)",
            path.display(),
            rows.len()
        ),
        Err(e) => {
            // The results file IS the experiment's deliverable: losing it
            // after a long sweep must not look like success.
            eprintln!(
                "[bench] E11 FAILED: could not write {}: {e}",
                path.display()
            );
            std::process::exit(1);
        }
    }
    let stalled: Vec<String> = rows
        .iter()
        .filter(|r| r.ops_completed == 0)
        .map(|r| format!("(n={}, {})", r.n, r.backend))
        .collect();
    if !stalled.is_empty() {
        eprintln!(
            "[bench] E11 FAILED: zero throughput in {}",
            stalled.join(", ")
        );
        std::process::exit(1);
    }
    if let Some(budget_ms) = std::env::var("SFS_E11_THREADED_BUDGET_MS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
    {
        let threaded_wall: f64 = rows
            .iter()
            .filter(|r| r.backend == Backend::Threaded)
            .map(|r| r.wall_ms)
            .sum();
        if threaded_wall > budget_ms {
            eprintln!(
                "[bench] E11 FAILED: threaded cells took {threaded_wall:.0} ms \
                 wall, over the SFS_E11_THREADED_BUDGET_MS={budget_ms:.0} budget"
            );
            std::process::exit(1);
        }
        eprintln!(
            "[bench] E11 threaded wall {threaded_wall:.0} ms within budget {budget_ms:.0} ms"
        );
    }
}
