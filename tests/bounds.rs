//! End-to-end lower-bound checks: Theorems 6–7 and Corollary 8 as
//! executable facts.

use failstop::apps::scenarios::{cycle_among_victims, WitnessAttack};
use failstop::prelude::*;
use sfs::quorum::{is_feasible, max_tolerable, min_quorum};
use sfs::{SfsConfig, SfsProcess};

#[test]
fn infeasible_configurations_are_rejected_at_construction() {
    // Corollary 8: n must exceed t².
    for t in 1usize..=6 {
        let frontier = t * t;
        if frontier >= 1 {
            let config = SfsConfig::new(frontier, t);
            assert!(
                SfsProcess::new(config, NullApp).is_err(),
                "n = t² = {frontier} must be rejected for t = {t}"
            );
        }
        let config = SfsConfig::new(frontier + 1, t);
        assert!(
            SfsProcess::new(config, NullApp).is_ok(),
            "n = t²+1 = {} must be accepted for t = {t}",
            frontier + 1
        );
    }
}

#[test]
fn quorum_bound_matches_formula_across_grid() {
    for n in 2usize..=64 {
        for t in 2usize..=8 {
            let q = min_quorum(n, t);
            assert!(q * t > n * (t - 1));
            assert!((q - 1) * t <= n * (t - 1));
        }
    }
}

#[test]
fn witness_attack_is_monotone_in_quorum_size() {
    // For a fixed scenario, raising the vote threshold can only destroy
    // the cycle, never create one.
    let (n, t) = (12usize, 3usize);
    let feasible_votes = WitnessAttack {
        n,
        t,
        quorum: 0,
        seed: 0,
    }
    .max_available_votes();
    let outcomes: Vec<(usize, bool)> = (1..=min_quorum(n, t))
        .map(|quorum| {
            let trace = WitnessAttack {
                n,
                t,
                quorum,
                seed: 0,
            }
            .run();
            (quorum, cycle_among_victims(&trace, t))
        })
        .collect();
    // Cycles form exactly up to the adversary's vote budget and never
    // above it — a sharp threshold.
    for &(quorum, cycle) in &outcomes {
        assert_eq!(
            cycle,
            quorum <= feasible_votes,
            "quorum {quorum} (budget {feasible_votes}): cycle = {cycle}"
        );
    }
    // And at the Theorem 7 bound it must be gone.
    let trace = WitnessAttack {
        n,
        t,
        quorum: min_quorum(n, t),
        seed: 0,
    }
    .run();
    assert!(!cycle_among_victims(&trace, t));
}

#[test]
fn attack_cycles_violate_sfs2b_and_nothing_detectable_survives_rearrangement() {
    let (n, t) = (6usize, 2usize);
    let quorum = WitnessAttack {
        n,
        t,
        quorum: 0,
        seed: 0,
    }
    .max_available_votes();
    let trace = WitnessAttack {
        n,
        t,
        quorum,
        seed: 0,
    }
    .run();
    let h = History::from_trace(&trace);
    // The cycle makes the run non-rearrangeable: there is no isomorphic
    // fail-stop run (the cycle forces contradictory crash orderings).
    assert!(!properties::check_sfs2b(&h).is_ok());
    let completed = h.complete_missing_crashes();
    assert!(
        rearrange_to_fs(&completed).is_err(),
        "a cyclic run must not admit an FS ordering"
    );
}

#[test]
fn max_tolerable_is_consistent_with_feasibility() {
    for n in 1usize..=100 {
        let t = max_tolerable(n);
        assert!(is_feasible(n, t) || t == 0);
        assert!(!is_feasible(n, t + 1));
    }
}

#[test]
fn wait_for_all_survives_where_fixed_quorum_cannot() {
    // n = 9, t = 3 is infeasible for fixed quorums (Cor. 8) but fine for
    // wait-for-all.
    let config = SfsConfig::new(9, 3);
    assert!(SfsProcess::new(config, NullApp).is_err());
    let config = SfsConfig::new(9, 3).quorum(QuorumPolicy::WaitForAll);
    assert!(SfsProcess::new(config, NullApp).is_ok());
    // And it actually detects:
    let trace = ClusterSpec::new(9, 3)
        .quorum(QuorumPolicy::WaitForAll)
        .suspect(ProcessId::new(1), ProcessId::new(0), 10)
        .try_run()
        .expect("feasible spec");
    assert_eq!(trace.crashed(), vec![ProcessId::new(0)]);
    assert_eq!(trace.detections().len(), 8);
}
