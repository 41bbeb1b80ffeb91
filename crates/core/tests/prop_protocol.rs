//! Property-based tests of the protocol itself: across random feasible
//! configurations, workloads, latencies, and seeds, every run satisfies
//! the simulated-fail-stop contract.

use proptest::prelude::*;
use sfs::quorum::{is_feasible, min_quorum};
use sfs::{ClusterSpec, QuorumPolicy};
use sfs_asys::ProcessId;
use sfs_history::{rearrange_to_fs, History};
use sfs_tlogic::{properties, PropertyReport};

/// A feasible (n, t) pair and a workload of at most t erroneous
/// suspicions with distinct victims and surviving suspectors.
#[derive(Debug, Clone)]
struct Workload {
    n: usize,
    t: usize,
    policy: QuorumPolicy,
    latency_max: u64,
    seed: u64,
    suspicions: Vec<(usize, usize, u64)>, // (by, victim, at)
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (2usize..=4, any::<u64>(), 1u64..40, prop::bool::ANY).prop_flat_map(
        |(t, seed, latency_max, wait_for_all)| {
            let n = t * t + 1 + (seed % 3) as usize;
            let policy = if wait_for_all {
                QuorumPolicy::WaitForAll
            } else {
                QuorumPolicy::FixedMinimum
            };
            let victims = 1..=t;
            (
                Just(n),
                Just(t),
                Just(policy),
                Just(latency_max),
                Just(seed),
                victims,
            )
                .prop_flat_map(|(n, t, policy, latency_max, seed, victims)| {
                    let susp = prop::collection::vec((t..n, 5u64..60), victims);
                    susp.prop_map(move |raw| Workload {
                        n,
                        t,
                        policy,
                        latency_max,
                        seed,
                        suspicions: raw
                            .into_iter()
                            .enumerate()
                            .map(|(v, (by, at))| (by, v, at))
                            .collect(),
                    })
                })
        },
    )
}

fn run_workload(w: &Workload) -> sfs_asys::Trace {
    let mut spec = ClusterSpec::new(w.n, w.t)
        .quorum(w.policy)
        .seed(w.seed)
        .latency(1, w.latency_max.max(1));
    for &(by, victim, at) in &w.suspicions {
        spec = spec.suspect(ProcessId::new(by), ProcessId::new(victim), at);
    }
    spec.try_run().expect("feasible spec")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The generated configurations are feasible by construction.
    #[test]
    fn workloads_are_feasible(w in arb_workload()) {
        prop_assert!(is_feasible(w.n, w.t), "n={}, t={}", w.n, w.t);
        prop_assert!(min_quorum(w.n, w.t) <= w.n - w.t);
    }

    /// Every run quiesces and satisfies the full sFS property suite.
    #[test]
    fn every_run_satisfies_the_sfs_suite(w in arb_workload()) {
        let trace = run_workload(&w);
        prop_assert!(trace.stop_reason().is_complete(), "{w:?} did not quiesce");
        let h = History::from_trace(&trace);
        prop_assert!(h.validate().is_ok());
        let reports = properties::check_sfs_suite(&h, true);
        for r in &reports {
            prop_assert!(r.is_ok(), "{w:?}: {r}\n{}", trace.to_pretty_string());
        }
        prop_assert!(reports.iter().all(PropertyReport::is_ok));
    }

    /// Theorem 5, end to end: every run has an isomorphic fail-stop run.
    #[test]
    fn every_run_is_fs_isomorphic(w in arb_workload()) {
        let trace = run_workload(&w);
        let h = History::from_trace(&trace);
        let report = rearrange_to_fs(&h);
        prop_assert!(report.is_ok(), "{w:?}: {:?}", report.err());
        let report = report.expect("checked");
        prop_assert!(report.history.is_fs_ordered());
        prop_assert!(report.history.isomorphic(&h));
    }

    /// Theorem 7 end to end: the quorums recorded at each detection
    /// always satisfy the t-wise Witness property.
    #[test]
    fn witness_property_always_holds(w in arb_workload()) {
        let trace = run_workload(&w);
        let report = properties::check_witness(&trace, w.t);
        prop_assert!(report.is_ok(), "{w:?}: {report}");
    }

    /// Exactly the suspected victims crash — the protocol never kills a
    /// process nobody suspected (no collateral damage).
    #[test]
    fn only_victims_crash(w in arb_workload()) {
        let trace = run_workload(&w);
        let victims: std::collections::BTreeSet<usize> =
            w.suspicions.iter().map(|&(_, v, _)| v).collect();
        for c in trace.crashed() {
            prop_assert!(victims.contains(&c.index()), "{w:?}: {c} crashed unsuspected");
        }
    }

    /// Detection is all-or-nothing per victim: at quiescence, either every
    /// survivor detected a victim, or none did (the round either completes
    /// system-wide or the suspicion never fired).
    #[test]
    fn survivor_agreement_per_victim(w in arb_workload()) {
        let trace = run_workload(&w);
        let crashed: std::collections::BTreeSet<ProcessId> =
            trace.crashed().into_iter().collect();
        let survivors: Vec<ProcessId> =
            ProcessId::all(w.n).filter(|p| !crashed.contains(p)).collect();
        for &victim in &crashed {
            let detectors: std::collections::BTreeSet<ProcessId> = trace
                .detections()
                .into_iter()
                .filter(|&(_, of)| of == victim)
                .map(|(by, _)| by)
                .collect();
            let surviving_detectors =
                survivors.iter().filter(|s| detectors.contains(s)).count();
            prop_assert!(
                surviving_detectors == survivors.len(),
                "{w:?}: victim {victim} detected by {surviving_detectors}/{} survivors",
                survivors.len()
            );
        }
    }
}
