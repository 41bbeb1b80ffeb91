//! Differential testing of the streaming sFS monitors (ISSUE 10).
//!
//! Over bounded e9-style instances, every explored schedule — quiescent
//! or truncated, certifying or violating — is judged twice: once by the
//! post-hoc `check_sfs_suite` on the finished trace, once by an
//! [`SfsMonitor`] consuming the same events one at a time. The verdict
//! vectors must be **equal clause by clause**, on the instances within
//! the failure bound and, crucially, on the t-exceeded instances whose
//! schedule spaces contain genuine violations (failed-before cycles,
//! undetected silent crashes, self-detections under ablation).
//!
//! The post-hoc checkers are the spec transcription; the monitors are
//! an independent incremental implementation with O(n + active
//! failures) state. Agreement on every schedule of an exhaustively
//! enumerated space is the strongest equivalence this repo can test.

use sfs::{ClusterSpec, NullApp};
use sfs_asys::{FixedLatency, ProcessId};
use sfs_explore::{explore, ExploreConfig, Pruning};
use sfs_history::History;
use sfs_obs::{SfsMonitor, SuiteVerdicts};
use sfs_tlogic::properties;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Explores `spec`'s schedule space (bounded) and asserts
/// streaming == post-hoc on every schedule. Returns
/// `(schedules, schedules with ≥1 violated clause)`.
fn differential(n: usize, spec: &ClusterSpec, max_schedules: usize) -> (usize, usize) {
    let config = ExploreConfig {
        max_steps: 600,
        max_schedules,
        pruning: Pruning::SleepSets,
    };
    let mut schedules = 0usize;
    let mut violating = 0usize;
    explore(
        &config,
        || {
            spec.try_build_with_latency(FixedLatency(1), |_| NullApp)
                .expect("feasible spec")
        },
        |run| {
            schedules += 1;
            let complete = run.trace.stop_reason().is_complete();
            let monitor = SfsMonitor::new(n);
            monitor.ingest_trace(&run.trace);
            let online = monitor.finish(complete);
            let posthoc = SuiteVerdicts::from_reports(&properties::check_sfs_suite(
                &History::from_trace(&run.trace),
                complete,
            ));
            assert_eq!(
                online,
                posthoc,
                "streaming/post-hoc divergence on schedule {:?} (complete={complete}):\n{}",
                run.choices,
                run.trace.to_pretty_string()
            );
            if !online.all_ok() {
                violating += 1;
            }
        },
    );
    (schedules, violating)
}

#[test]
fn monitors_agree_on_the_within_bound_instance() {
    // n=3 t=1, one suspicion: every schedule certifies, and the monitor
    // must say so on each.
    let spec = ClusterSpec::new(3, 1).suspect(p(1), p(0), 10);
    let (schedules, violating) = differential(3, &spec, 400);
    // Sleep-set pruning collapses a single-suspicion instance to a
    // handful of canonical interleavings; each one was asserted.
    assert!(schedules >= 2, "exploration barely ran ({schedules})");
    assert_eq!(violating, 0, "a within-bound schedule was judged violated");
}

#[test]
fn monitors_agree_on_the_t_exceeded_chained_instance() {
    // n=3 t=1, chained suspicions: two crashes exceed the bound, and
    // some schedules contain real violations — the monitor must flag
    // exactly the same ones the post-hoc checker does.
    let spec = ClusterSpec::new(3, 1)
        .suspect(p(1), p(0), 10)
        .suspect(p(2), p(1), 12);
    let (schedules, violating) = differential(3, &spec, 400);
    assert!(schedules >= 2, "exploration barely ran ({schedules})");
    assert!(
        violating > 0,
        "the t-exceeded instance must exhibit violating schedules \
         ({schedules} explored, none violated)"
    );
}

#[test]
fn monitors_agree_on_the_mutual_suspicion_instance() {
    // n=3 t=1, mutual suspicion: the schedule space contains
    // failed-before cycles (sFS2b violations) in some interleavings.
    let spec = ClusterSpec::new(3, 1)
        .suspect(p(1), p(0), 10)
        .suspect(p(0), p(1), 10);
    let (schedules, _) = differential(3, &spec, 400);
    assert!(schedules >= 2, "exploration barely ran ({schedules})");
}

#[test]
fn monitors_agree_on_the_silent_crash_instance() {
    // n=3 t=1, suspicion + silent crash: complete schedules where the
    // crash goes undetected violate FS1 (no timeout mechanism in the
    // bounded instance) — liveness watermark territory.
    let spec = ClusterSpec::new(3, 1)
        .suspect(p(1), p(0), 10)
        .crash(p(2), 20);
    let (schedules, _) = differential(3, &spec, 400);
    assert!(schedules >= 2, "exploration barely ran ({schedules})");
}

#[test]
fn monitors_agree_on_the_no_self_crash_ablation() {
    // The ablation breaks sFS2a on every class; the monitor must track
    // the post-hoc verdicts through systematic violation, not just on
    // healthy runs.
    let spec = ClusterSpec::new(3, 1)
        .suspect(p(1), p(0), 10)
        .without_self_crash();
    let (schedules, violating) = differential(3, &spec, 400);
    assert!(schedules >= 2, "exploration barely ran ({schedules})");
    assert!(
        violating > 0,
        "the ablation must violate on explored schedules"
    );
}

mod random_instances {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// Random bounded instances: size, suspicion script (sometimes
        /// exceeding t), an optional silent crash. Every explored
        /// schedule must agree clause-by-clause.
        #[test]
        fn streaming_equals_posthoc_on_random_instances(
            n in 3usize..5,
            by1 in 1usize..4,
            at1 in 5u64..30,
            has_second in any::<bool>(),
            by2 in 0usize..4,
            at2 in 5u64..30,
            has_crash in any::<bool>(),
            victim in 0usize..4,
            crash_at in 10u64..40,
        ) {
            let mut spec = ClusterSpec::new(n, 1)
                .suspect(p(by1.min(n - 1)), p(0), at1);
            if has_second {
                // Suspect p1 by someone other than p1 itself.
                let by2 = if by2 % n == 1 { 2 % n } else { by2 % n };
                spec = spec.suspect(p(by2), p(1), at2);
            }
            if has_crash {
                spec = spec.crash(p(victim % n), crash_at);
            }
            // The assertion lives inside `differential`.
            let (schedules, _) = differential(n, &spec, 200);
            prop_assert!(schedules > 0);
        }
    }
}
