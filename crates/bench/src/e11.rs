//! E11 — service-layer scale: sharded sFS deployments at N ∈ {64, 256,
//! 1024} total processes, on the simulator and on the threaded runtime
//! (see EXPERIMENTS.md §E11).
//!
//! Each cell plans `N/16` shards of 16 processes tolerating `t = 2`
//! locally, exhausts shard 0's budget with two scripted crashes, and
//! drives two epochs of closed-loop client ops through the
//! `sfs-service` engine — epoch 2 running on the directory's rebalanced
//! table. Measured per cell: completed ops, wall-clock throughput,
//! message rate, and the crash→detection latency distribution. Both
//! backends run the same virtual clock; the event-driven threaded runtime
//! advances it at compute speed, so its wall time is proportional to
//! events executed — not to the virtual horizon or a drain budget.
//!
//! Every cell also certifies **online**: a streaming `SfsMonitor` rides
//! each shard run's write-only event sink and the `cert` column counts
//! shard runs whose full suite (FS1, sFS2a–d, Conditions 1–3) held —
//! including the N = 1024 cells, whose traces were never affordable to
//! retain (and, on the simulator, are no longer even built).

use crate::report::note_events;
use crate::table::{json_str, Table};
use sfs::HeartbeatConfig;
use sfs_service::{plan_shards, run_service, Backend, LoadProfile, ServiceReport, ServiceSpec};

/// One measured E11 cell.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Total processes.
    pub n: usize,
    /// Shards in the plan.
    pub shards: usize,
    /// Backend.
    pub backend: Backend,
    /// Distinct client ops completed (both epochs).
    pub ops_completed: u64,
    /// Distinct client ops issued.
    pub ops_issued: u64,
    /// Wall-clock for the whole service run.
    pub wall_ms: f64,
    /// Completed ops per wall second.
    pub ops_per_sec: f64,
    /// Messages sent across all shard runs.
    pub messages: u64,
    /// Messages per wall second.
    pub msgs_per_sec: f64,
    /// Summed first-issue→last-completion windows (ticks); `None` on the
    /// threaded backend (see [`ServiceReport::serving_ticks`]).
    pub serving_ticks: Option<u64>,
    /// Detection-latency percentiles (ticks): p50.
    pub det_p50: u64,
    /// p95.
    pub det_p95: u64,
    /// Maximum.
    pub det_max: u64,
    /// 99th-percentile client-op latency across both epochs (ticks),
    /// from the telemetry registry's log-bucket histogram; `None` on the
    /// threaded backend (see [`ServiceReport::op_p99`]).
    pub op_p99: Option<u64>,
    /// Messages sent per detection event, from the registry counters.
    pub msgs_per_det: f64,
    /// Rounds in which a process ran more than one handler (0 on the
    /// simulator).
    pub delivery_batches: u64,
    /// Shards that exhausted their budget (must be exactly shard 0).
    pub exhausted: usize,
    /// Shard runs across both epochs (main + rescue passes).
    pub shard_runs: usize,
    /// Shard runs whose streaming monitor certified the full sFS suite
    /// online (no traces retained).
    pub certified: usize,
}

impl E11Row {
    fn from_report(r: &ServiceReport) -> Self {
        // E11's threaded shard runs are bare: no link, so every op
        // completes at the instant it is issued and both columns would
        // read a 0 that cannot move.
        let timed = r.backend == Backend::Sim;
        E11Row {
            n: r.total,
            shards: r.shard_count,
            backend: r.backend,
            ops_completed: r.ops_completed(),
            ops_issued: r.ops_issued(),
            wall_ms: r.wall_ms,
            ops_per_sec: r.ops_per_sec(),
            messages: r.messages(),
            msgs_per_sec: r.msgs_per_sec(),
            serving_ticks: timed.then(|| r.serving_ticks()),
            // Nearest-rank via linear-time selection — no full sort of
            // the latency distribution.
            det_p50: r.detection_p(50),
            det_p95: r.detection_p(95),
            det_max: r.detection_max(),
            op_p99: timed.then(|| r.op_p99()),
            msgs_per_det: r.msgs_per_detection(),
            delivery_batches: r.delivery_batches(),
            exhausted: r.exhausted.len(),
            shard_runs: r.epochs.iter().flat_map(|e| &e.shards).count(),
            certified: r
                .epochs
                .iter()
                .flat_map(|e| &e.shards)
                .filter(|s| s.verdicts.as_ref().is_some_and(|v| v.all_ok()))
                .count(),
        }
    }

    /// One JSON object for the `BENCH_E11.json` table array.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"n\": {}, \"shards\": {}, \"backend\": {}, \
             \"ops_completed\": {}, \"ops_per_sec\": {:.1}, \"messages\": {}, \
             \"msgs_per_sec\": {:.1}, \"wall_ms\": {:.1}, \"serving_ticks\": {}, \
             \"det_p50\": {}, \"det_p95\": {}, \"det_max\": {}, \
             \"op_p99\": {}, \"msgs_per_det\": {:.1}, \
             \"delivery_batches\": {}, \"shard_runs\": {}, \"certified\": {}}}",
            self.n,
            self.shards,
            json_str(&self.backend.to_string()),
            self.ops_completed,
            self.ops_per_sec,
            self.messages,
            self.msgs_per_sec,
            self.wall_ms,
            json_opt(self.serving_ticks),
            self.det_p50,
            self.det_p95,
            self.det_max,
            json_opt(self.op_p99),
            self.msgs_per_det,
            self.delivery_batches,
            self.shard_runs,
            self.certified,
        )
    }
}

/// A column that may not apply: the number, or JSON `null`.
fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

/// The spec for one E11 cell.
fn e11_spec(n: usize, backend: Backend, ops_per_proc: u64) -> ServiceSpec {
    // Shard 0's first two members crash early, exhausting its t = 2 and
    // forcing an epoch-2 rebalance; the plan is deterministic, so the
    // victims are nameable up front.
    let plan = plan_shards(n, 2, 16, 11).expect("E11 shapes are feasible");
    let victims: Vec<usize> = plan.shards[0].members.iter().take(2).copied().collect();
    ServiceSpec::new(n, 2, 16)
        .seed(11)
        .backend(backend)
        // Fast heartbeats keep crash→detection latency (and the threaded
        // drain budget riding on it) small.
        .heartbeat(Some(HeartbeatConfig {
            interval: 10,
            timeout: 60,
            check_every: 15,
        }))
        .max_time(600)
        // Online certification, no trace retention: the monitors carry
        // the suite verdicts even at N = 1024.
        .certify_online(true)
        .load(LoadProfile::closed(ops_per_proc * n as u64, 8))
        .crash(victims[0], 40)
        .crash(victims[1], 55)
}

/// Runs the E11 sweep. `max_n` bounds the deployment sizes swept (the CI
/// smoke job passes 64); `ops_per_proc` scales the per-epoch op count.
/// Returns the printable table and the rows for `BENCH_E11.json`.
pub fn run_e11(max_n: usize, ops_per_proc: u64) -> (Table, Vec<E11Row>) {
    let mut table = Table::new(
        "E11 — sharded service scale (t=2 per shard, shard 0 exhausted, 2 epochs)",
        &[
            "N", "shards", "backend", "ops", "ops/s", "msgs", "msg/s", "det p50", "det p95",
            "det max", "op p99", "msg/det", "batches", "cert",
        ],
    );
    let mut rows = Vec::new();
    for n in [64usize, 256, 1024] {
        if n > max_n {
            continue;
        }
        for backend in [Backend::Sim, Backend::Threaded] {
            let spec = e11_spec(n, backend, ops_per_proc);
            let report = run_service(&spec)
                .unwrap_or_else(|e| panic!("E11 cell (n={n}, {backend}) failed: {e}"));
            note_events(report.events());
            let row = E11Row::from_report(&report);
            table.row([
                row.n.to_string(),
                row.shards.to_string(),
                row.backend.to_string(),
                row.ops_completed.to_string(),
                format!("{:.0}", row.ops_per_sec),
                row.messages.to_string(),
                format!("{:.0}", row.msgs_per_sec),
                row.det_p50.to_string(),
                row.det_p95.to_string(),
                row.det_max.to_string(),
                row.op_p99.map_or_else(|| "-".to_owned(), |v| v.to_string()),
                format!("{:.0}", row.msgs_per_det),
                row.delivery_batches.to_string(),
                format!("{}/{}", row.certified, row.shard_runs),
            ]);
            rows.push(row);
        }
    }
    table.note(
        "batches: threaded rounds in which one process ran more than one handler, summed \
         over processes — engine mechanics, the same on any number of worker threads, \
         0 on the simulator, which never batches",
    );
    table.note("detection latency in virtual ticks on both backends");
    table.note(
        "op p99 is the 99th-percentile client-op latency (ticks, both epochs) from the \
         telemetry registry's log-bucket histogram; msg/det divides messages sent by \
         detection events — both read off the per-shard registries merged across the \
         rayon fan-out. It reads - on the threaded rows: their bare shard runs have no \
         link, so every delivery lands at the instant it is sent",
    );
    table.note(
        "cert: shard runs whose streaming sFS monitor certified the full suite \
         (FS1 + sFS2a-d + Conditions 1-3) online, over the runs executed — no traces \
         retained, so the N=1024 cells certify for the first time",
    );
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_smoke_runs_the_smallest_cell() {
        // One N=64 sweep on the simulator only is cheap enough for the
        // unit suite and pins the cell invariants: full completion,
        // measured detections, exactly one exhausted shard.
        let spec = e11_spec(64, Backend::Sim, 1);
        let report = run_service(&spec).unwrap();
        let row = E11Row::from_report(&report);
        assert_eq!(row.shards, 4);
        assert_eq!(row.exhausted, 1);
        assert_eq!(row.ops_completed, 2 * 64, "both epochs complete");
        assert!(row.det_p50 > 0, "detections were measured");
        assert!(
            row.op_p99.is_some_and(|p| p > 0),
            "op latencies flowed through the registry"
        );
        assert!(row.msgs_per_det > 0.0, "message cost per detection is live");
        assert!(row.shard_runs > 0);
        assert_eq!(
            row.certified, row.shard_runs,
            "every shard run must certify the suite online"
        );
        let json = row.to_json();
        assert!(json.contains("\"backend\": \"sim\""));
        assert!(json.contains("\"certified\""));
    }
}
