//! Machine-readable experiment reporting: `BENCH_*.json` emission and the
//! run-wide event counter behind the events/sec figure.
//!
//! Every `e*` binary wraps its table generation in [`run_with_report`],
//! which times the sweep, counts the simulator events produced (every
//! trace minted by the experiment helpers passes through [`note_trace`]),
//! and writes a machine-readable summary to `BENCH_<experiment>.json` in
//! the directory named by `SFS_BENCH_OUT` (default: the working
//! directory). The files are the perf trajectory of the repository: each
//! PR that touches a hot path regenerates them and compares.

use crate::table::{json_str, Table};
use sfs_asys::Trace;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Simulator events recorded by traces minted since the last [`take_events`].
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Counts one run's events into the current report window. Called by every
/// trace-producing experiment helper; thread-safe so parallel sweeps count
/// correctly.
pub fn note_trace(trace: &Trace) {
    EVENTS.fetch_add(trace.events().len() as u64, Ordering::Relaxed);
}

/// Counts pre-aggregated events into the current report window, for
/// experiments whose traces never individually surface here (E9's
/// explorer visits thousands of schedules and reports one total).
pub fn note_events(count: u64) {
    EVENTS.fetch_add(count, Ordering::Relaxed);
}

/// Drains the event counter.
fn take_events() -> u64 {
    EVENTS.swap(0, Ordering::Relaxed)
}

/// One experiment's machine-readable summary.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Experiment id, e.g. `"E1"`.
    pub experiment: &'static str,
    /// Human-readable `(n, t)` sweep description, e.g. `"(5,2),(10,3)"`.
    pub configs: String,
    /// Seeds per cell (0 for deterministic experiments).
    pub seeds: u64,
    /// Wall-clock duration of the sweep in milliseconds.
    pub wall_ms: f64,
    /// Simulator events produced across every run of the sweep.
    pub events: u64,
    /// Worker threads the sweep could use.
    pub threads: usize,
    /// Data rows in the produced table.
    pub rows: usize,
    /// The full table as a JSON object (title, columns, rows, notes),
    /// produced by [`Table::to_json`], so `BENCH_*.json` carries every
    /// column of the experiment — not just the row count. Empty string
    /// when no table was attached (hand-built records in tests).
    pub table_json: String,
}

impl BenchRecord {
    /// Events per wall-clock second (0 when nothing was simulated).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ms / 1_000.0)
        }
    }

    /// The record as one JSON object (hand-rolled: the workspace's serde
    /// is a no-op stand-in; see vendor/README.md).
    pub fn to_json(&self) -> String {
        let table = if self.table_json.is_empty() {
            "null".to_owned()
        } else {
            self.table_json.clone()
        };
        format!(
            "{{\n  \"experiment\": {},\n  \"configs\": {},\n  \"seeds\": {},\n  \
             \"wall_ms\": {:.3},\n  \"events\": {},\n  \"events_per_sec\": {:.1},\n  \
             \"threads\": {},\n  \"rows\": {},\n  \"table\": {}\n}}",
            json_str(self.experiment),
            json_str(&self.configs),
            self.seeds,
            self.wall_ms,
            self.events,
            self.events_per_sec(),
            self.threads,
            self.rows,
            table,
        )
    }
}

/// Output directory for `BENCH_*.json` (override with `SFS_BENCH_OUT`).
fn out_dir() -> PathBuf {
    std::env::var_os("SFS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Times `run`, prints its table, and writes `BENCH_<experiment>.json`.
///
/// Returns the record so callers (tests, meta-benchmarks) can inspect it.
pub fn run_with_report(
    experiment: &'static str,
    configs: &str,
    seeds: u64,
    run: impl FnOnce() -> Table,
) -> BenchRecord {
    let _ = take_events(); // open a fresh counting window
    let start = Instant::now();
    let table = run();
    let wall = start.elapsed();
    table.print();
    let record = BenchRecord {
        experiment,
        configs: configs.to_owned(),
        seeds,
        wall_ms: wall.as_secs_f64() * 1_000.0,
        events: take_events(),
        threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        rows: table.len(),
        table_json: table.to_json(),
    };
    let path = out_dir().join(format!("BENCH_{experiment}.json"));
    match std::fs::write(&path, record.to_json() + "\n") {
        Ok(()) => eprintln!(
            "[bench] {} -> {} ({:.0} ms, {} events, {:.0} events/sec)",
            experiment,
            path.display(),
            record.wall_ms,
            record.events,
            record.events_per_sec()
        ),
        Err(e) => eprintln!("[bench] could not write {}: {e}", path.display()),
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_renders_valid_json_shape() {
        let r = BenchRecord {
            experiment: "E0",
            configs: "(5,2)".into(),
            seeds: 10,
            wall_ms: 1500.0,
            events: 3_000_000,
            threads: 8,
            rows: 3,
            table_json: String::new(),
        };
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "experiment",
            "configs",
            "seeds",
            "wall_ms",
            "events_per_sec",
            "threads",
            "table",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key} in {json}"
            );
        }
        // No table attached -> explicit null, still valid JSON.
        assert!(json.contains("\"table\": null"), "{json}");
        assert!((r.events_per_sec() - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn record_embeds_the_full_table() {
        let mut t = Table::new("cells", &["scenario", "bytes/det"]);
        t.row(["loss 20%", "5120"]);
        let r = BenchRecord {
            experiment: "E0",
            configs: "(5,2)".into(),
            seeds: 1,
            wall_ms: 1.0,
            events: 0,
            threads: 1,
            rows: t.len(),
            table_json: t.to_json(),
        };
        let json = r.to_json();
        assert!(
            json.contains("\"columns\": [\"scenario\", \"bytes/det\"]"),
            "{json}"
        );
        assert!(
            json.contains("\"rows\": [[\"loss 20%\", \"5120\"]]"),
            "{json}"
        );
    }

    #[test]
    fn record_round_trips_through_the_json_parser() {
        // `'` and non-ASCII must pass through unescaped and `"` as `\"`:
        // Rust's `escape_default` forms (`\'`, `\u{d7}`) are not JSON.
        let configs = "N='64' x \"sim\" × {off,on}";
        let mut t = Table::new("cells × 2", &["it's", "\"q\""]);
        t.row(["a×b", "1"]);
        let r = BenchRecord {
            experiment: "E0",
            configs: configs.into(),
            seeds: 1,
            wall_ms: 1.0,
            events: 0,
            threads: 1,
            rows: t.len(),
            table_json: t.to_json(),
        };
        let parsed = sfs_obs::Json::parse(&r.to_json()).expect("record is valid JSON");
        assert_eq!(
            parsed.get("configs").and_then(|c| c.as_str()),
            Some(configs)
        );
        let table = parsed.get("table").expect("table embedded");
        assert_eq!(
            table.get("title").and_then(|c| c.as_str()),
            Some("cells × 2")
        );
        let columns = table
            .get("columns")
            .and_then(|c| c.as_arr())
            .expect("columns");
        assert_eq!(columns[0].as_str(), Some("it's"));
        assert_eq!(columns[1].as_str(), Some("\"q\""));
    }

    #[test]
    fn event_counter_drains() {
        let trace = sfs::ClusterSpec::new(3, 1)
            .seed(1)
            .suspect(sfs_asys::ProcessId::new(1), sfs_asys::ProcessId::new(0), 10)
            .try_run()
            .expect("feasible spec");
        // The counter is process-wide and sibling tests feed it: open the
        // window only once the run is done.
        let _ = take_events();
        note_trace(&trace);
        assert_eq!(take_events(), trace.events().len() as u64);
        assert_eq!(take_events(), 0);
    }
}
