//! Experiment E13 — the chaos soak: a sharded sFS service under Poisson
//! crash arrivals, flapping partitions, delay storms, and a lossy link,
//! with adaptive transport timeouts compared against fixed ones (see
//! EXPERIMENTS.md §E13).
//!
//! Each cell runs `N ∈ {64, 256}` processes as `N/16` shards of 16
//! (`t = 2` locally) through three service epochs over a 2%-loss,
//! 2%-duplication link, with one [`ChaosSpec`] overlay per seed: a
//! Poisson crash stream (plus the deterministic floor crash), an epoch-1
//! *training flap* — a 70-tick cut of each shard's local p0 outbound
//! links, long enough to teach the adaptive prober that this peer can
//! fall silent, short enough that nobody suspects — and a 110-tick delay
//! storm that pushes the heartbeat gap past the fixed 100-tick timeout
//! but *not* past the learned threshold. The fixed rows therefore spend
//! one unit of every shard's failure budget on a false suspicion
//! (converted into a clean sFS kill, as the protocol demands); the
//! adaptive rows ride the storm out. Every kept shard trace is certified
//! against FS1/sFS2a–d on every seed, in both modes — chaos changes the
//! cost, never the properties.
//!
//! Every run also attaches the streaming [`sfs_obs::SfsMonitor`] to each shard
//! (`certify_online`): on the kept-trace rows its verdict vector is
//! asserted equal, clause by clause, to the post-hoc `check_sfs_suite`
//! on the same trace; the **certify-online** rows then drop trace
//! retention entirely (`keep_traces: false`) and certify from the
//! monitors alone — the soak's memory footprint no longer scales with
//! the event count.

use crate::report::{note_events, note_trace};
use crate::table::Table;
use rayon::prelude::*;
use sfs::{AdaptiveConfig, NetSpec, ProbeConfig};
use sfs_chaos::ChaosSpec;
use sfs_history::History;
use sfs_obs::{metrics, Registry};
use sfs_service::{run_service, LoadProfile, ServiceReport, ServiceSpec};
use sfs_tlogic::properties;

/// Epochs per soak.
const EPOCHS: u64 = 3;
/// Per-shard failure bound.
const T: usize = 2;
/// Shard size target (16-process shards, as in E11).
const SHARD: usize = 16;
/// The fixed heartbeat probe: 20-tick pings, 100-tick timeout, checked
/// every 5 ticks so a storm-length silence is never missed.
const PROBE: ProbeConfig = ProbeConfig {
    interval: 20,
    timeout: 100,
    check_every: 5,
};
/// The training flap: cut [150, 220) — observed gap ≈ 71–96 ticks,
/// under the fixed timeout (nobody suspects) but enough for the
/// adaptive prober to learn a ≈2× larger threshold.
const FLAP: (u64, u64) = (150, 220);
/// The delay storm: +110 ticks on [400, 560) — observed gap ≈ 111–136
/// ticks, over the fixed timeout (false suspicion) but under the
/// learned one.
const STORM: (u64, u64, u64) = (400, 560, 110);

/// One `(N, timeout mode)` cell of the E13 sweep, aggregated over seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct E13Cell {
    /// Total processes.
    pub n: usize,
    /// Shards in the plan.
    pub shards: usize,
    /// `true` = adaptive (Jacobson RTO + learned suspicion threshold),
    /// `false` = fixed `ProbeConfig` timeouts.
    pub adaptive: bool,
    /// `true` = the certify-online mode: `keep_traces: false`, suite
    /// verdicts from the streaming monitors alone.
    pub online: bool,
    /// Seeds run.
    pub runs: usize,
    /// Runs on which *every* shard run certified the full suite (FS1,
    /// sFS2a–d, Conditions 1–3) — from its kept trace (with the
    /// streaming verdicts asserted equal), or, on certify-online rows,
    /// from the streaming monitor alone.
    pub suite_ok: usize,
    /// Shard traces certified across all runs (main + rescue passes).
    pub shard_runs: usize,
    /// Total kills across runs: Poisson/floor crashes plus converted
    /// false suspicions.
    pub kills: usize,
    /// Suspicions of still-live targets across runs (the storm's toll on
    /// the fixed prober; the adaptive rows must stay strictly lower):
    /// `Registry::ingest_trace` over each kept trace on trace rows, the
    /// same fold run live (`ShardOutcome::obs`) on online rows.
    pub false_suspicions: usize,
    /// Anomaly-watermark trips across every shard run (a healthy grid
    /// trips none).
    pub watermark_trips: usize,
    /// Detection events across runs (one per surviving detector per
    /// kill).
    pub detections: usize,
    /// Wire frames sent across runs.
    pub frames: u64,
    /// Distinct client ops completed across runs.
    pub ops_completed: u64,
    /// Ops rescued onto healthy donors after mid-epoch exhaustions.
    pub rescued_ops: u64,
    /// Shard-exhaustion events across runs (shards marked degraded).
    pub degraded: usize,
    /// Issue→completion latency of every completed client op across all
    /// runs, from the telemetry registries' log-bucket histograms (the
    /// merge is element-wise, so folding per run loses nothing).
    pub op_hist: sfs_obs::LogHistogram,
}

impl E13Cell {
    /// False suspicions per run.
    pub fn false_susp_rate(&self) -> f64 {
        self.false_suspicions as f64 / self.runs.max(1) as f64
    }

    /// Wire frames per detection event — the message cost of one unit of
    /// failure-detection work.
    pub fn msgs_per_detection(&self) -> f64 {
        self.frames as f64 / self.detections.max(1) as f64
    }

    /// 99th-percentile client-op latency (ticks) across every run of
    /// the cell — how much the chaos (and the timeout discipline riding
    /// it) cost the served load's tail.
    pub fn op_p99(&self) -> u64 {
        self.op_hist.p99()
    }
}

/// The service deployment of one E13 run: `n` processes, three epochs,
/// a lossy/duplicating link probed at fixed or adaptive timeouts, and
/// the per-seed chaos overlay described in the module docs.
pub fn e13_spec(n: usize, adaptive: bool, seed: u64) -> ServiceSpec {
    let shards = n / SHARD;
    let chaos = ChaosSpec::new(shards, T)
        .seed(0xE13 ^ seed)
        .horizon(EPOCHS as usize, 1_000)
        .flaps(vec![FLAP])
        .storm(STORM.0, STORM.1, STORM.2);
    let mut net = NetSpec::faultless().loss(0.02).duplicate(0.02).probe(PROBE);
    if adaptive {
        net = net.adaptive(AdaptiveConfig::default());
    }
    ServiceSpec::new(n, T, SHARD)
        .seed(0xE13 ^ seed)
        // Detection is endogenous: the transport probe suspects, the
        // protocol kills. The model-level heartbeat detector stays off
        // so the two timeout disciplines are compared in isolation.
        .heartbeat(None)
        .epochs(EPOCHS)
        .max_time(2_000)
        .keep_traces(true)
        .certify_online(true)
        // Anomaly watermarks armed: an RTO or suspicion-rate excursion
        // past its learned baseline dumps the shard's flight ring (under
        // SFS_FLIGHT_DIR) before the certification gate below ever sees
        // a failed verdict.
        .watermarks(true)
        .load(LoadProfile::closed(2 * n as u64, 8))
        .net(net)
        .chaos(chaos)
}

/// Folds one service run (all epochs, all shard runs) into the cell.
/// Kept-trace rows certify post-hoc *and* assert the streaming monitor
/// agrees clause by clause; trace-free rows certify from the monitor
/// alone.
fn ingest(cell: &mut E13Cell, report: &ServiceReport) {
    cell.runs += 1;
    let mut all_ok = true;
    for s in report.epochs.iter().flat_map(|e| &e.shards) {
        let online = s.verdicts.as_ref().expect("E13 runs certify online");
        cell.shard_runs += 1;
        let ok = match s.trace.as_ref() {
            Some(trace) => {
                note_trace(trace);
                let h = History::from_trace(trace);
                let reports = properties::check_sfs_suite(&h, true);
                // The write-only monitor saw the same events the trace
                // recorded, so its verdict vector and the post-hoc
                // checker's must be *equal*, not merely consistent.
                assert_eq!(
                    online,
                    &sfs_obs::SuiteVerdicts::from_reports(&reports),
                    "online/post-hoc verdict divergence on shard {}",
                    s.shard
                );
                let ok = properties::suite_ok(&reports);
                if !ok {
                    // Black-box postmortem: when SFS_FLIGHT_DIR is set,
                    // dump the failed verdicts and the tail of the
                    // offending shard trace.
                    let mut body = format!(
                        "E13 certification failure: n={} shard={} adaptive={}\n",
                        report.total, s.shard, cell.adaptive
                    );
                    for r in &reports {
                        body.push_str(&format!("{}: {:?}\n", r.property, r.verdict));
                    }
                    body.push_str(&sfs_obs::flight::trace_tail(trace, 64));
                    sfs_obs::flight::dump_to_dir(
                        &format!(
                            "e13-cert-n{}-shard{}-run{}",
                            report.total, s.shard, cell.runs
                        ),
                        &body,
                    );
                }
                // False suspicions, replayed from the kept trace.
                let registry = Registry::new("sim");
                registry.ingest_trace(trace);
                cell.false_suspicions +=
                    registry.report().counter_total(metrics::FALSE_SUSPICIONS) as usize;
                ok
            }
            // Certify-online row: no trace was retained; the streaming
            // verdicts are the certificate, and the false suspicions come
            // from the same fold run live over the shard's event stream.
            // The shard still simulated `s.events` events, so the
            // throughput record counts them like any other row.
            None => {
                note_events(s.events);
                cell.false_suspicions += s.obs.counter_total(metrics::FALSE_SUSPICIONS) as usize;
                online.all_ok()
            }
        };
        all_ok &= ok;
        cell.watermark_trips += s.watermark_trips.len();
        cell.kills += s.stats.crashes as usize;
        cell.detections += s.stats.detections as usize;
        cell.frames += s.stats.messages_sent;
    }
    cell.suite_ok += usize::from(all_ok);
    cell.op_hist.merge(&report.op_latency_hist());
    cell.ops_completed += report.ops_completed();
    cell.rescued_ops += report.epochs.iter().map(|e| e.rescued_ops).sum::<u64>();
    cell.degraded += report.exhausted.len();
}

/// Runs one `(n, timeout mode, cert mode)` cell: `seeds` independent
/// soaks, one rayon task per seed (each soak fans out its own shard
/// runs), folded in seed order. `online` drops trace retention and
/// certifies from the streaming monitors alone.
pub fn e13_cell(n: usize, adaptive: bool, online: bool, seeds: u64) -> E13Cell {
    let reports: Vec<ServiceReport> = (0..seeds)
        .into_par_iter()
        .map(|seed| {
            run_service(&e13_spec(n, adaptive, seed).keep_traces(!online))
                .expect("E13 specs are feasible")
        })
        .collect();
    let mut cell = E13Cell {
        n,
        shards: n / SHARD,
        adaptive,
        online,
        runs: 0,
        suite_ok: 0,
        shard_runs: 0,
        kills: 0,
        false_suspicions: 0,
        watermark_trips: 0,
        detections: 0,
        frames: 0,
        ops_completed: 0,
        rescued_ops: 0,
        degraded: 0,
        op_hist: sfs_obs::LogHistogram::new(),
    };
    for report in &reports {
        ingest(&mut cell, report);
    }
    cell
}

/// Runs the full E13 table: `{64, 256} × {fixed, adaptive}` with kept
/// traces (streaming verdicts asserted equal to the post-hoc checker on
/// every shard run), plus `{64, 256} × {fixed, adaptive}` in
/// certify-online mode (`keep_traces: false`, verdicts from the
/// monitors alone). Every cell runs the same seeds, and so the same
/// chaos plans — the comparisons isolate the timeout discipline and the
/// certification mode.
pub fn run_e13(seeds: u64) -> (Table, Vec<E13Cell>) {
    let grid = [
        (64usize, false, false),
        (64, true, false),
        (256, false, false),
        (256, true, false),
        (64, false, true),
        (64, true, true),
        (256, false, true),
        (256, true, true),
    ];
    let cells: Vec<E13Cell> = grid
        .par_iter()
        .map(|&(n, adaptive, online)| e13_cell(n, adaptive, online, seeds))
        .collect();
    let mut table = Table::new(
        "E13 — chaos soak: Poisson crashes + flapping partitions + delay storms + 2% loss, \
         fixed vs adaptive transport timeouts, FS1/sFS2a-d certified on every seed \
         (trace-based and online-monitor rows)",
        &[
            "n",
            "shards",
            "timeouts",
            "cert",
            "runs",
            "suite ok",
            "kills",
            "f-susp/run",
            "msgs/det",
            "op p99",
            "ops done",
            "rescued",
            "degraded",
        ],
    );
    for c in &cells {
        table.row([
            c.n.to_string(),
            c.shards.to_string(),
            if c.adaptive { "adaptive" } else { "fixed" }.to_string(),
            if c.online { "online" } else { "trace" }.to_string(),
            c.runs.to_string(),
            format!("{}/{}", c.suite_ok, c.runs),
            c.kills.to_string(),
            format!("{:.1}", c.false_susp_rate()),
            format!("{:.0}", c.msgs_per_detection()),
            c.op_p99().to_string(),
            c.ops_completed.to_string(),
            c.rescued_ops.to_string(),
            c.degraded.to_string(),
        ]);
    }
    table.note(
        "suite ok counts soaks on which every shard run (main and rescue passes, all \
         epochs) certified FS1 + sFS2a-d with eventualities discharged — on `trace` rows \
         from the kept trace, with the streaming monitor's verdicts asserted equal clause \
         by clause; on `online` rows from the streaming monitors alone, with no trace \
         retained at all. f-susp counts suspicions of still-live targets (the delay storm \
         pushes the heartbeat gap past the fixed 100-tick timeout, while the adaptive \
         prober, trained by the earlier sub-timeout flap, rides it out) — replayed from \
         the kept trace on `trace` rows, folded live on `online` rows. degraded counts shards \
         that exhausted their budget and were shed by the directory, their stranded ops \
         rescued onto donors. op p99 is the 99th-percentile client-op latency (ticks) \
         from the telemetry registries' log-bucket histograms, merged across every seed.",
    );
    (table, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_smoke_certifies_and_separates_the_timeout_modes() {
        // One seed at N = 64 in both modes: everything certifies, the
        // storm costs the fixed prober false suspicions (one per shard),
        // and the adaptive prober strictly fewer.
        let fixed = e13_cell(64, false, false, 1);
        let adaptive = e13_cell(64, true, false, 1);
        for c in [&fixed, &adaptive] {
            assert_eq!(c.runs, 1);
            assert_eq!(
                c.suite_ok,
                1,
                "{} mode failed to certify the suite",
                if c.adaptive { "adaptive" } else { "fixed" }
            );
            assert!(c.ops_completed > 0);
            assert!(c.op_p99() > 0, "op latencies flowed through the registry");
        }
        assert!(
            fixed.false_suspicions >= fixed.shards,
            "the storm must falsely suspect every shard's p0 under fixed timeouts \
             (got {} over {} shards)",
            fixed.false_suspicions,
            fixed.shards
        );
        assert!(
            adaptive.false_suspicions < fixed.false_suspicions,
            "adaptive timeouts must strictly reduce false suspicions \
             ({} vs {})",
            adaptive.false_suspicions,
            fixed.false_suspicions
        );
    }

    #[test]
    fn e13_certify_online_matches_the_trace_based_cell() {
        // The certify-online cell keeps no traces, yet must reach the
        // same verdict and the same columns as the kept-trace cell on the
        // same seed — certification without retention.
        let traced = e13_cell(64, true, false, 1);
        let online = e13_cell(64, true, true, 1);
        assert_eq!(online.runs, 1);
        assert_eq!(
            online.suite_ok, 1,
            "certify-online must certify without traces"
        );
        // Every column agrees, false suspicions (folded live there,
        // replayed from the kept traces here) included.
        assert_eq!(
            E13Cell {
                online: false,
                ..online
            },
            traced
        );
    }

    #[test]
    fn e13_chaos_plan_is_shared_between_modes() {
        // The same seed must hand both modes the same chaos plan: the
        // comparison isolates the timeout discipline.
        let a = e13_spec(64, false, 7).chaos.unwrap().plan();
        let b = e13_spec(64, true, 7).chaos.unwrap().plan();
        assert_eq!(a, b);
        assert!(a.total_crashes() >= 1, "the crash floor guarantees one");
    }
}
