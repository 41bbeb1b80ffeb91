//! A threaded run driven by its spec is a function of spec and seed.
//!
//! The E11 smoke cell (`e11_service 64 2`: four 16-process shards, two
//! scripted crashes exhausting shard 0, two epochs of a closed loop,
//! certified online) runs on the threaded runtime again and again, and
//! every shard run must end the same way each time: the same engine
//! counters, delivery batches included, the same event count, the same
//! detection latencies and the same online verdicts. Three runs in a
//! debug build, twenty in a release build.

use sfs::HeartbeatConfig;
use sfs_asys::SimStats;
use sfs_obs::SuiteVerdicts;
use sfs_service::{
    plan_shards, run_service, Backend, LoadProfile, ServiceReport, ServiceSpec, ShardId,
};

/// E11's cell at N = 64 with two ops per process, on threads.
fn e11_cell() -> ServiceSpec {
    let n = 64;
    let plan = plan_shards(n, 2, 16, 11).expect("E11 shapes are feasible");
    let victims = &plan.shards[0].members;
    ServiceSpec::new(n, 2, 16)
        .seed(11)
        .backend(Backend::Threaded)
        .heartbeat(Some(HeartbeatConfig {
            interval: 10,
            timeout: 60,
            check_every: 15,
        }))
        .max_time(600)
        .certify_online(true)
        .load(LoadProfile::closed(2 * n as u64, 8))
        .crash(victims[0], 40)
        .crash(victims[1], 55)
}

/// Per shard run, in epoch and shard order: what must repeat.
type Outcome = Vec<(u64, ShardId, SimStats, u64, Vec<u64>, Option<SuiteVerdicts>)>;

fn outcome(report: &ServiceReport) -> Outcome {
    report
        .epochs
        .iter()
        .flat_map(|e| {
            e.shards.iter().map(|s| {
                let latencies = s.detection_latencies.clone();
                (
                    e.epoch,
                    s.shard,
                    s.stats,
                    s.events,
                    latencies,
                    s.verdicts.clone(),
                )
            })
        })
        .collect()
}

#[test]
fn threaded_shard_runs_of_the_e11_cell_repeat_exactly() {
    let repeats = if cfg!(debug_assertions) { 3 } else { 20 };
    let first = outcome(&run_service(&e11_cell()).expect("feasible spec"));
    assert!(first
        .iter()
        .any(|s| s.2.delivery_batches > 0 && s.2.detections > 0));
    assert!(first
        .iter()
        .all(|s| s.5.as_ref().is_some_and(|v| v.all_ok())));
    for run in 1..repeats {
        let again = outcome(&run_service(&e11_cell()).expect("feasible spec"));
        assert_eq!(again, first, "run {run}");
    }
}
