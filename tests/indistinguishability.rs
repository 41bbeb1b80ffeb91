//! End-to-end Theorem 5 checks: every run of the sFS protocol, across
//! sizes, seeds, and workloads, satisfies the sFS suite and is isomorphic
//! to a fail-stop run.

use failstop::prelude::*;
use sfs_history::rearrange_by_swaps;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// A run with several overlapping erroneous suspicions.
fn busy_run(n: usize, t: usize, seed: u64) -> Trace {
    let mut spec = ClusterSpec::new(n, t).seed(seed);
    // t distinct victims, suspected by distinct survivors at nearby times.
    for v in 0..t {
        spec = spec.suspect(p(t + v), p(v), 10 + (seed % 7) * (v as u64 + 1));
    }
    spec.try_run().expect("feasible spec")
}

#[test]
fn sfs_suite_holds_across_seeds_and_sizes() {
    for &(n, t) in &[(5usize, 2usize), (10, 3), (17, 4)] {
        for seed in 0..25 {
            let trace = busy_run(n, t, seed);
            assert!(
                trace.stop_reason().is_complete(),
                "n={n} seed={seed} did not quiesce"
            );
            let h = History::from_trace(&trace);
            h.validate()
                .unwrap_or_else(|e| panic!("n={n} seed={seed}: invalid history: {e}"));
            for report in properties::check_sfs_suite(&h, true) {
                assert!(report.is_ok(), "n={n} t={t} seed={seed}: {report}");
            }
        }
    }
}

#[test]
fn every_sfs_run_has_an_isomorphic_fs_run() {
    for &(n, t) in &[(5usize, 2usize), (10, 3)] {
        for seed in 0..25 {
            let trace = busy_run(n, t, seed);
            let h = History::from_trace(&trace);
            let report = rearrange_to_fs(&h)
                .unwrap_or_else(|e| panic!("n={n} seed={seed}: no FS order: {e}"));
            assert!(report.history.is_fs_ordered());
            assert!(
                report.history.isomorphic(&h),
                "projections must match for every process"
            );
            assert!(
                report.history.validate().is_ok(),
                "rearranged run must still be valid"
            );
        }
    }
}

#[test]
fn both_rearrangement_engines_agree() {
    for seed in 0..15 {
        let trace = busy_run(10, 3, seed);
        let h = History::from_trace(&trace);
        let topo = rearrange_to_fs(&h).expect("topological engine");
        let swaps = rearrange_by_swaps(&h, None).expect("paper's swap engine");
        assert_eq!(topo.bad_pairs, swaps.bad_pairs);
        for r in [&topo.history, &swaps.history] {
            assert!(r.is_fs_ordered());
            assert!(r.isomorphic(&h));
        }
    }
}

#[test]
fn witness_property_holds_for_all_sfs_detections() {
    for seed in 0..25 {
        let trace = busy_run(10, 3, seed);
        let report = properties::check_witness(&trace, 3);
        assert!(report.is_ok(), "seed {seed}: {report}");
    }
}

#[test]
fn detected_processes_really_crash_and_survivors_agree() {
    for seed in 0..25 {
        let trace = busy_run(10, 3, seed);
        let crashed: std::collections::BTreeSet<ProcessId> = trace.crashed().into_iter().collect();
        // sFS2a: every detected process is in the crashed set (quiescent run).
        let mut survivor_views: std::collections::BTreeMap<
            ProcessId,
            std::collections::BTreeSet<ProcessId>,
        > = Default::default();
        for (by, of) in trace.detections() {
            assert!(
                crashed.contains(&of),
                "seed {seed}: {of} detected but alive at quiescence"
            );
            survivor_views.entry(by).or_default().insert(of);
        }
        // FS1 ⇒ at quiescence every survivor's failed set equals the
        // crashed set exactly.
        for p in ProcessId::all(10) {
            if crashed.contains(&p) {
                continue;
            }
            let view = survivor_views.remove(&p).unwrap_or_default();
            assert_eq!(
                view, crashed,
                "seed {seed}: survivor {p} has a different view"
            );
        }
    }
}

#[test]
fn ltl_engine_agrees_with_direct_checkers() {
    use sfs_tlogic::{Evaluator, Formula};
    for seed in 0..10 {
        let trace = busy_run(5, 2, seed);
        let h = History::from_trace(&trace);
        let eval = Evaluator::new(&h);
        // FS2 as an LTL formula over all pairs.
        let mut conjuncts = Vec::new();
        for i in ProcessId::all(5) {
            for j in ProcessId::all(5) {
                conjuncts.push(Formula::implies(
                    Formula::failed_by(j, i),
                    Formula::crashed(i),
                ));
            }
        }
        let fs2 = Formula::always(Formula::And(conjuncts));
        let ltl_verdict = eval.holds(&fs2);
        let direct_verdict = properties::check_fs2(&h).is_ok();
        assert_eq!(
            ltl_verdict, direct_verdict,
            "seed {seed}: engines disagree on FS2"
        );

        // sFS2a: □(FAILED_j(i) ⇒ ◇CRASH_i).
        let mut conjuncts = Vec::new();
        for i in ProcessId::all(5) {
            for j in ProcessId::all(5) {
                conjuncts.push(Formula::implies(
                    Formula::failed_by(j, i),
                    Formula::eventually(Formula::crashed(i)),
                ));
            }
        }
        let sfs2a = Formula::always(Formula::And(conjuncts));
        assert_eq!(
            eval.holds(&sfs2a),
            properties::check_sfs2a(&h, true).is_ok(),
            "seed {seed}: engines disagree on sFS2a"
        );
    }
}
