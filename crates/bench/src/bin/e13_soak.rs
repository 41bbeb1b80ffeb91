//! E13 — the chaos soak: sharded sFS deployments at N ∈ {64, 256} under
//! Poisson crash arrivals, flapping partitions, delay storms, and a
//! lossy link, three service epochs per seed, with fixed and adaptive
//! transport timeouts compared head to head (see EXPERIMENTS.md §E13).
//!
//! The optional CLI argument sets the seeds per cell. Exits nonzero when
//! any soak fails to certify FS1/sFS2a–d on every shard run, when the
//! adaptive rows do not show *strictly fewer* false suspicions than the
//! fixed rows at the same N, when an online row differs from its trace
//! twin (same seeds, same runs) in any column but the certification
//! mode, or when any shard run trips an anomaly watermark — the grid is
//! healthy chaos, which the watermarks must ride out silently. This is
//! the CI `e13-soak-smoke` entry point.
fn main() {
    let seeds = sfs_bench::seeds_arg(4);
    let mut cells = None;
    sfs_bench::run_with_report(
        "E13",
        "(64,2) and (256,2) x 3 epochs x {fixed, adaptive} timeouts, chaos overlay per seed",
        seeds,
        || {
            let (table, c) = sfs_bench::run_e13(seeds);
            cells = Some(c);
            table
        },
    );
    let cells = cells.expect("run_e13 ran");
    let cell = |n: usize, adaptive: bool, online: bool| {
        cells
            .iter()
            .find(|c| (c.n, c.adaptive, c.online) == (n, adaptive, online))
            .expect("the grid holds every cell")
    };
    let mut failures = Vec::new();
    for c in &cells {
        let name = format!(
            "n={} {} {}",
            c.n,
            if c.adaptive { "adaptive" } else { "fixed" },
            if c.online { "online" } else { "trace" }
        );
        if c.suite_ok != c.runs {
            failures.push(format!("{name} certified {}/{} soaks", c.suite_ok, c.runs));
        }
        if c.watermark_trips > 0 {
            failures.push(format!("{name}: {} watermark trip(s)", c.watermark_trips));
        }
        let as_trace = sfs_bench::E13Cell {
            online: false,
            ..c.clone()
        };
        if c.online && as_trace != *cell(c.n, c.adaptive, false) {
            failures.push(format!("{name} differs from its trace twin"));
        }
    }
    for n in [64, 256] {
        let (fixed, adaptive) = (cell(n, false, false), cell(n, true, false));
        if adaptive.false_suspicions >= fixed.false_suspicions {
            failures.push(format!(
                "n={n} adaptive false suspicions not strictly lower ({} vs {})",
                adaptive.false_suspicions, fixed.false_suspicions
            ));
        }
    }
    for f in &failures {
        eprintln!("[bench] E13 FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
