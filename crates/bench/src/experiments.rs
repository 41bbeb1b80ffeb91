//! The experiment suite: one function per table of EXPERIMENTS.md.
//!
//! The paper is theory — its "evaluation" is a set of theorems plus one
//! figure (Figure 1, the sFS conditions). Each experiment here makes one
//! of those formal artifacts executable and regenerates a paper-shaped
//! table. See DESIGN.md §3 for the full index.

use crate::report::note_trace;
use crate::table::{json_str, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use sfs::quorum::{is_feasible, max_tolerable, min_quorum};
use sfs::{
    AppApi, Application, Backend, ClusterSpec, HeartbeatConfig, Instruments, ModeSpec, QuorumPolicy,
};
use sfs_apps::election::{analyze_election, ElectionApp};
use sfs_apps::last_to_fail::{recover_last_to_fail, true_last_to_fail, Recovery};
use sfs_apps::scenarios::{
    cycle_among_victims, ConformanceConfig, ConformanceOutcome, ExploreInstance, ExploreOutcome,
    WitnessAttack,
};
use sfs_asys::{ProcessId, Trace};
use sfs_explore::{ExploreConfig, Pruning, WalkConfig};
use sfs_history::{rearrange_to_fs, History, RearrangeError};
use sfs_tlogic::{properties, PropertyReport, Verdict};

/// Maps `f` over the seed range `0..seeds` on the rayon pool.
///
/// Each seed is an independent deterministic run, so the sweep
/// parallelizes embarrassingly; results come back **in seed order**
/// (guaranteed by the pool), which makes every fold below — and hence
/// every rendered table — byte-identical to a serial sweep.
pub(crate) fn par_seeds<R: Send>(seeds: u64, f: impl Fn(u64) -> R + Sync + Send) -> Vec<R> {
    (0..seeds).into_par_iter().map(f).collect()
}

/// An application that gossips on every failure notification — the exact
/// message pattern sFS2d constrains (sends *after* a detection).
#[derive(Debug, Default, Clone)]
pub struct GossipApp;

impl Application for GossipApp {
    type Msg = u8;

    fn on_message(&mut self, _: &mut AppApi<'_, '_, u8>, _: ProcessId, _: u8) {}

    fn on_failure(&mut self, api: &mut AppApi<'_, '_, u8>, failed: ProcessId) {
        api.broadcast(failed.index() as u8);
    }
}

/// Protocol variant under test in E1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E1Variant {
    /// The full protocol.
    Standard,
    /// Ablation: sFS2d receive gating disabled.
    NoGate,
    /// Ablation: victims ignore their own obituaries.
    NoSelfCrash,
}

impl E1Variant {
    fn label(self) -> &'static str {
        match self {
            E1Variant::Standard => "sFS (full)",
            E1Variant::NoGate => "ablation: no receive gating",
            E1Variant::NoSelfCrash => "ablation: no self-crash",
        }
    }
}

/// One random E1 workload: up to `t` distinct victims suspected at random
/// times by random survivors, gossiping application on top.
pub fn random_sfs_run(n: usize, t: usize, variant: E1Variant, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5f5_f00d);
    let mut spec = ClusterSpec::new(n, t).seed(seed);
    spec = match variant {
        E1Variant::Standard => spec,
        E1Variant::NoGate => spec.without_gating(),
        E1Variant::NoSelfCrash => spec.without_self_crash(),
    };
    let victims = rng.gen_range(1..=t);
    let mut pool: Vec<usize> = (0..n).collect();
    for _ in 0..victims {
        let v = pool.remove(rng.gen_range(0..pool.len()));
        // The suspector must not be a victim (it must survive to suspect).
        let by = pool[rng.gen_range(0..pool.len())];
        let at = rng.gen_range(5..50);
        spec = spec.suspect(ProcessId::new(by), ProcessId::new(v), at);
    }
    let trace = spec
        .run(Backend::Sim, Instruments::default(), |_| GossipApp)
        .expect("feasible spec")
        .into_trace();
    note_trace(&trace);
    trace
}

/// Aggregated E1 results for one configuration cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct E1Cell {
    /// Total runs.
    pub runs: usize,
    /// Runs on which every sFS property held (or was vacuous).
    pub suite_ok: usize,
    /// Per-property violation counts, in suite order.
    pub violations: Vec<(&'static str, usize)>,
    /// Runs successfully rearranged into an isomorphic FS history.
    pub rearranged: usize,
    /// Runs where rearrangement legitimately could not apply
    /// (a detected process never crashed — only in the no-self-crash
    /// ablation).
    pub rearrange_inapplicable: usize,
}

/// How one seed's rearrangement attempt ended (E1).
enum RearrangeOutcome {
    Rearranged,
    Inapplicable,
    Failed,
}

/// Runs E1 for one `(n, t, variant)` cell over `seeds` seeds, one rayon
/// task per seed.
pub fn e1_cell(n: usize, t: usize, variant: E1Variant, seeds: u64) -> E1Cell {
    let outcomes = par_seeds(seeds, |seed| {
        let trace = random_sfs_run(n, t, variant, seed);
        let complete = trace.stop_reason().is_complete();
        let h = History::from_trace(&trace);
        let reports = properties::check_sfs_suite(&h, complete);
        let ok = reports.iter().all(PropertyReport::is_ok);
        let violated: Vec<&'static str> = reports
            .iter()
            .filter(|r| r.verdict == Verdict::Violated)
            .map(|r| r.property)
            .collect();
        let completed = h.complete_missing_crashes();
        let rearrange = match rearrange_to_fs(&completed) {
            Ok(report) => {
                debug_assert!(report.history.isomorphic(&completed));
                RearrangeOutcome::Rearranged
            }
            Err(RearrangeError::MissingCrash { .. }) => RearrangeOutcome::Inapplicable,
            Err(_) => RearrangeOutcome::Failed,
        };
        (ok, violated, rearrange)
    });
    // Fold in seed order: identical counts (and table bytes) to a serial
    // sweep.
    let mut cell = E1Cell::default();
    let mut violation_counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for (ok, violated, rearrange) in outcomes {
        cell.runs += 1;
        cell.suite_ok += usize::from(ok);
        for property in violated {
            *violation_counts.entry(property).or_default() += 1;
        }
        match rearrange {
            RearrangeOutcome::Rearranged => cell.rearranged += 1,
            RearrangeOutcome::Inapplicable => cell.rearrange_inapplicable += 1,
            RearrangeOutcome::Failed => {}
        }
    }
    cell.violations = violation_counts.into_iter().collect();
    cell
}

/// E1 — Figure 1 / Theorem 5: the protocol satisfies every sFS property,
/// and every run is isomorphic to a fail-stop run; the ablations break
/// exactly the property their mechanism exists for.
pub fn run_e1(seeds: u64) -> Table {
    let mut table = Table::new(
        "E1 — sFS property satisfaction and Theorem 5 rearrangement \
         (per paper Figure 1: FS1, sFS2a-d)",
        &[
            "variant",
            "n",
            "t",
            "runs",
            "suite ok",
            "violated properties",
            "FS-isomorphic",
        ],
    );
    for &(n, t) in &[(5usize, 2usize), (10, 3), (17, 4)] {
        for variant in [
            E1Variant::Standard,
            E1Variant::NoGate,
            E1Variant::NoSelfCrash,
        ] {
            let cell = e1_cell(n, t, variant, seeds);
            let violated = if cell.violations.is_empty() {
                "none".to_string()
            } else {
                cell.violations
                    .iter()
                    .map(|(p, c)| format!("{p}×{c}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let iso = format!(
                "{}/{}",
                cell.rearranged,
                cell.runs - cell.rearrange_inapplicable
            );
            table.row([
                variant.label().to_string(),
                n.to_string(),
                t.to_string(),
                cell.runs.to_string(),
                format!("{}/{}", cell.suite_ok, cell.runs),
                violated,
                iso,
            ]);
        }
    }
    table.note(
        "expected shape: the full protocol passes everything and rearranges 100%; \
         no-gating violates sFS2d; no-self-crash violates sFS2a (victims survive), \
         making rearrangement inapplicable.",
    );
    table
}

/// E2 — Theorems 6–7: below the quorum bound the A.3 adversary builds a
/// failed-before cycle; at the bound it cannot.
pub fn run_e2() -> Table {
    let mut table = Table::new(
        "E2 — tightness of the Theorem 7 quorum bound (A.3 adversary)",
        &[
            "n",
            "t",
            "quorum",
            "vs bound ⌊n(t-1)/t⌋+1",
            "detections",
            "failed-before cycle",
        ],
    );
    for &(n, t) in &[(6usize, 2usize), (10, 2), (9, 3), (12, 3), (16, 4), (20, 4)] {
        let safe = min_quorum(n, t);
        let attack_q = WitnessAttack {
            n,
            t,
            quorum: 0,
            seed: 0,
        }
        .max_available_votes();
        for quorum in [attack_q, safe] {
            if quorum == safe && !is_feasible(n, t) {
                table.row([
                    n.to_string(),
                    t.to_string(),
                    quorum.to_string(),
                    "at bound".into(),
                    "-".into(),
                    "infeasible (Cor. 8: n ≤ t²)".into(),
                ]);
                continue;
            }
            let attack = WitnessAttack {
                n,
                t,
                quorum,
                seed: 0,
            };
            let trace = attack.run();
            note_trace(&trace);
            let cycle = cycle_among_victims(&trace, t);
            let relation = if quorum >= safe {
                "at bound"
            } else {
                "below bound"
            };
            table.row([
                n.to_string(),
                t.to_string(),
                quorum.to_string(),
                relation.into(),
                trace.detections().len().to_string(),
                if cycle {
                    "CYCLE".into()
                } else {
                    "acyclic".to_string()
                },
            ]);
        }
    }
    table.note(
        "the concrete §5 protocol resists one vote below the abstract §4 bound \
         because a victim cannot ACK its own obituary — see scenarios.rs.",
    );
    table
}

/// E3 — Corollary 8: the replication frontier `n > t²`.
pub fn run_e3() -> Table {
    let mut table = Table::new(
        "E3 — replication frontier (Corollary 8: fixed-quorum protocols need n > t²)",
        &[
            "t",
            "min quorum at n=t²",
            "feasible at n=t²",
            "min feasible n",
            "quorum there",
            "max_tolerable(min n)",
        ],
    );
    for t in 1usize..=8 {
        let frontier = t * t;
        let min_n = frontier + 1;
        table.row([
            t.to_string(),
            if frontier > 0 {
                min_quorum(frontier.max(1), t).to_string()
            } else {
                "-".into()
            },
            is_feasible(frontier, t).to_string(),
            min_n.to_string(),
            min_quorum(min_n, t).to_string(),
            max_tolerable(min_n).to_string(),
        ]);
    }
    table.note("expected shape: infeasible at exactly n = t², feasible at n = t² + 1, and max_tolerable(t²+1) = t.");
    table
}

/// E4 — Theorems 2 and 3: Conditions 1–3 are necessary but not
/// sufficient.
pub fn run_e4(seeds: u64) -> Table {
    let mut table = Table::new(
        "E4 — necessary conditions (Thm 2) and their insufficiency (Thm 3)",
        &[
            "run",
            "Cond1",
            "Cond2",
            "Cond3",
            "FS2",
            "FS-isomorphic rearrangement",
        ],
    );
    // The Theorem 3 counterexample.
    let t3 = sfs_history::scenarios::theorem3_run();
    let c1 = properties::check_condition1(&t3, true).verdict;
    let c2 = properties::check_condition2(&t3).verdict;
    let c3 = properties::check_condition3(&t3).verdict;
    let fs2 = properties::check_fs2(&t3).verdict;
    let rearrange = match rearrange_to_fs(&t3) {
        Ok(_) => "found (unexpected!)".to_string(),
        Err(RearrangeError::NoFsOrder { .. }) => "NONE EXISTS (constraint cycle)".to_string(),
        Err(e) => format!("error: {e}"),
    };
    table.row([
        "Theorem 3 counterexample".to_string(),
        c1.to_string(),
        c2.to_string(),
        c3.to_string(),
        fs2.to_string(),
        rearrange,
    ]);
    // Random sFS runs: conditions hold AND rearrangement exists. One
    // rayon task per seed; counts folded in seed order.
    let outcomes = par_seeds(seeds, |seed| {
        let trace = random_sfs_run(10, 3, E1Variant::Standard, seed);
        let h = History::from_trace(&trace);
        let ok = properties::check_condition1(&h, true).is_ok()
            && properties::check_condition2(&h).is_ok()
            && properties::check_condition3(&h).is_ok();
        (ok, rearrange_to_fs(&h).is_ok())
    });
    let mut all_ok = 0usize;
    let mut rearranged = 0usize;
    for (ok, rearr) in outcomes {
        all_ok += usize::from(ok);
        rearranged += usize::from(rearr);
    }
    table.row([
        format!("{seeds} random sFS runs (n=10, t=3)"),
        format!("{all_ok}/{seeds}"),
        format!("{all_ok}/{seeds}"),
        format!("{all_ok}/{seeds}"),
        "violated (by design)".to_string(),
        format!("{rearranged}/{seeds}"),
    ]);
    table.note(
        "the Theorem 3 run satisfies all three necessary conditions yet admits no \
         isomorphic FS run — the conditions are not sufficient; sFS runs always do.",
    );
    table
}

/// Cost metrics for one detection run (E5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionCost {
    /// Protocol messages sent over the whole run.
    pub messages: u64,
    /// Failure detections executed.
    pub detections: u64,
    /// Virtual time from the triggering suspicion to the last detection.
    pub latency: u64,
    /// Votes each detection had to wait for.
    pub votes_needed: usize,
}

/// Measures the cost of detecting one (erroneously) suspected process.
pub fn detection_cost(n: usize, t: usize, policy: QuorumPolicy, seed: u64) -> DetectionCost {
    let suspect_at = 10u64;
    let trace = ClusterSpec::new(n, t)
        .quorum(policy)
        .seed(seed)
        .suspect(ProcessId::new(1), ProcessId::new(0), suspect_at)
        .try_run()
        .expect("feasible spec");
    let last_detection = trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            sfs_asys::TraceEventKind::Failed { .. } => Some(e.time.ticks()),
            _ => None,
        })
        .max()
        .unwrap_or(suspect_at);
    let votes_needed = policy.fixed_threshold(n, t).unwrap_or(n - 1);
    note_trace(&trace);
    DetectionCost {
        messages: trace.stats().messages_sent,
        detections: trace.stats().detections,
        latency: last_detection - suspect_at,
        votes_needed,
    }
}

/// E5 — the §4 trade-off: wait-for-all vs minimum fixed quorums.
pub fn run_e5(seeds: u64) -> Table {
    let mut table = Table::new(
        "E5 — cost of one detection: wait-for-all vs fixed minimum quorum (§4)",
        &[
            "n",
            "t",
            "policy",
            "votes needed",
            "msgs (avg)",
            "msgs/detection",
            "latency avg (ticks)",
        ],
    );
    for &(n, t) in &[
        (5usize, 2usize),
        (10, 3),
        (17, 4),
        (26, 5),
        (37, 6),
        (50, 7),
    ] {
        for (label, policy) in [
            ("wait-for-all", QuorumPolicy::WaitForAll),
            ("fixed-min", QuorumPolicy::FixedMinimum),
        ] {
            let costs = par_seeds(seeds, |seed| detection_cost(n, t, policy, seed));
            let mut messages = 0u64;
            let mut detections = 0u64;
            let mut latency = 0u64;
            let mut votes = 0usize;
            for cost in costs {
                messages += cost.messages;
                detections += cost.detections;
                latency += cost.latency;
                votes = cost.votes_needed;
            }
            let runs = seeds.max(1);
            table.row([
                n.to_string(),
                t.to_string(),
                label.to_string(),
                votes.to_string(),
                (messages / runs).to_string(),
                format!("{:.1}", messages as f64 / detections.max(1) as f64),
                (latency / runs).to_string(),
            ]);
        }
    }
    table.note(
        "message complexity is Θ(n²) per suspicion either way (everyone re-broadcasts \
         the obituary once); the policies differ in how many votes — and hence how much \
         waiting — each detection needs.",
    );
    table
}

/// E6 — last-to-fail recovery (§6): consistent under acyclic detection,
/// broken under cyclic detection.
pub fn run_e6(seeds: u64) -> Table {
    let mut table = Table::new(
        "E6 — last-process-to-fail recovery after total failure (§6, [Ske85])",
        &[
            "detector",
            "runs",
            "recovery consistent",
            "true last in candidates",
        ],
    );
    for (label, mode) in [
        ("oracle (perfect)", ModeSpec::Oracle),
        ("sFS one-round", ModeSpec::SfsOneRound),
        ("cheap broadcast (no sFS2b)", ModeSpec::CheapBroadcast),
        ("unilateral", ModeSpec::Unilateral),
    ] {
        let outcomes = par_seeds(seeds, |seed| {
            let n = 4usize;
            let mut spec = ClusterSpec::new(n, 1)
                .mode(mode)
                .heartbeat(HeartbeatConfig {
                    interval: 10,
                    timeout: 50,
                    check_every: 10,
                })
                .seed(seed)
                .max_time(6_000);
            // A false mutual suspicion to provoke cycles where possible,
            // then staggered total failure.
            if matches!(mode, ModeSpec::CheapBroadcast | ModeSpec::Unilateral) {
                spec = spec
                    .without_self_crash()
                    .suspect(ProcessId::new(0), ProcessId::new(1), 20)
                    .suspect(ProcessId::new(1), ProcessId::new(0), 20);
            }
            for i in 0..n {
                spec = spec.crash(ProcessId::new(i), 500 + 400 * i as u64);
            }
            let trace = spec.try_run().expect("feasible spec");
            note_trace(&trace);
            let truth = true_last_to_fail(&trace);
            match recover_last_to_fail(&trace) {
                Recovery::Candidates(c) => (true, truth.is_some_and(|t| c.contains(&t))),
                Recovery::Inconsistent(_) => (false, false),
            }
        });
        let mut consistent = 0usize;
        let mut truth_in = 0usize;
        for (ok, truth) in outcomes {
            consistent += usize::from(ok);
            truth_in += usize::from(truth);
        }
        table.row([
            label.to_string(),
            seeds.to_string(),
            format!("{consistent}/{seeds}"),
            format!("{truth_in}/{seeds}"),
        ]);
    }
    table.note(
        "under sFS the candidate set is consistent with SOME fail-stop run isomorphic \
         to what happened (that is all any process can know); cyclic detectors produce \
         either no consistent answer or a confidently wrong one.",
    );
    table
}

/// E7 — election (§1): observable split-brain by detector.
pub fn run_e7(seeds: u64) -> Table {
    let mut table = Table::new(
        "E7 — leader election under a false suspicion of the leader (§1)",
        &[
            "detector",
            "runs",
            "FS-impossible observations",
            "runs w/ global 2-leader window",
            "leader killed",
        ],
    );
    for (label, mode) in [
        ("oracle (perfect)", ModeSpec::Oracle),
        ("sFS one-round", ModeSpec::SfsOneRound),
        ("cheap broadcast", ModeSpec::CheapBroadcast),
        ("unilateral", ModeSpec::Unilateral),
    ] {
        let outcomes = par_seeds(seeds, |seed| {
            let trace = ClusterSpec::new(5, 2)
                .mode(mode)
                .seed(seed)
                .suspect(ProcessId::new(1), ProcessId::new(0), 10)
                .run(Backend::Sim, Instruments::default(), |_| ElectionApp::new())
                .expect("feasible spec")
                .into_trace();
            note_trace(&trace);
            let outcome = analyze_election(&trace);
            (
                outcome.observed_anomalies,
                outcome.max_concurrent_leaders >= 2,
                trace.crashed().contains(&ProcessId::new(0)),
            )
        });
        let mut anomalies = 0usize;
        let mut windows = 0usize;
        let mut killed = 0usize;
        for (a, window, kill) in outcomes {
            anomalies += a;
            windows += usize::from(window);
            killed += usize::from(kill);
        }
        table.row([
            label.to_string(),
            seeds.to_string(),
            anomalies.to_string(),
            windows.to_string(),
            format!("{killed}/{seeds}"),
        ]);
    }
    table.note(
        "sFS may allow a brief global two-leader window but never an internal \
         observation inconsistent with fail-stop; unilateral detection leaks one \
         in essentially every run.",
    );
    table
}

/// E8 — §6 discussion: the sFS failed-before relation is not transitive.
///
/// The paper closes by noting that a *stronger* model whose failed-before
/// relation is transitive (as well as acyclic) would let last-to-fail
/// recovery conclude as soon as the last processes recover, and that sFS
/// does not provide this. This experiment quantifies the gap: how often
/// random sFS runs happen to produce transitive relations anyway, and how
/// many ordered pairs the transitive closure adds (each added pair is an
/// ordering a recovering process could not deduce locally under plain
/// sFS).
pub fn run_e8(seeds: u64) -> Table {
    use sfs_history::FailedBefore;
    let mut table = Table::new(
        "E8 — (non-)transitivity of the sFS failed-before relation (§6)",
        &[
            "n",
            "t",
            "runs w/ ≥2 victims",
            "already transitive",
            "avg edges",
            "avg closure edges",
            "avg orderings gained",
        ],
    );
    for &(n, t) in &[(5usize, 2usize), (10, 3), (17, 4)] {
        // (edges, closure edges, transitive?) per seed with >= 2 victims.
        let outcomes = par_seeds(seeds, |seed| {
            let trace = random_sfs_run(n, t, E1Variant::Standard, seed);
            let h = History::from_trace(&trace);
            let victims: std::collections::BTreeSet<_> = h.crashed().into_iter().collect();
            if victims.len() < 2 {
                return None; // transitivity is trivial with one victim
            }
            let fb = FailedBefore::from_history(&h);
            let closure = fb.transitive_closure();
            let count = |r: &FailedBefore| -> u64 {
                let mut c = 0;
                for i in ProcessId::all(n) {
                    for j in ProcessId::all(n) {
                        if r.failed_before(i, j) {
                            c += 1;
                        }
                    }
                }
                c
            };
            Some((count(&fb), count(&closure), fb.is_transitive()))
        });
        let mut considered = 0u64;
        let mut transitive = 0u64;
        let mut edges = 0u64;
        let mut closed_edges = 0u64;
        for (e, ce, is_transitive) in outcomes.into_iter().flatten() {
            considered += 1;
            edges += e;
            closed_edges += ce;
            if is_transitive {
                transitive += 1;
            }
        }
        let denom = considered.max(1);
        table.row([
            n.to_string(),
            t.to_string(),
            considered.to_string(),
            format!("{transitive}/{considered}"),
            format!("{:.1}", edges as f64 / denom as f64),
            format!("{:.1}", closed_edges as f64 / denom as f64),
            format!("{:.2}", (closed_edges - edges) as f64 / denom as f64),
        ]);
    }
    // Spec-level check: the sFS *axioms* do not require transitivity — a
    // hand-built run with failed_b(a), failed_c(b) and no failed_c(a)
    // satisfies every sFS2 condition.
    let a = ProcessId::new(0);
    let b = ProcessId::new(1);
    let c = ProcessId::new(2);
    let spec_run = History::new(
        4,
        vec![
            sfs_history::Event::failed(b, a),
            sfs_history::Event::crash(a),
            sfs_history::Event::failed(c, b),
            sfs_history::Event::crash(b),
        ],
    );
    let fb = sfs_history::FailedBefore::from_history(&spec_run);
    let suite_ok = [
        properties::check_sfs2a(&spec_run, true),
        properties::check_sfs2b(&spec_run),
        properties::check_sfs2c(&spec_run),
        properties::check_sfs2d(&spec_run),
    ]
    .iter()
    .all(PropertyReport::is_ok);
    table.row([
        "spec-level witness".to_string(),
        "-".to_string(),
        "1".to_string(),
        if suite_ok {
            "sFS2a-d all hold".to_string()
        } else {
            "BUG".to_string()
        },
        "2.0".to_string(),
        "3.0".to_string(),
        if fb.is_transitive() {
            "0 (BUG)".to_string()
        } else {
            "1.00".to_string()
        },
    ]);
    table.note(
        "each 'ordering gained' is a failed-before fact a recovering process could \
         use under a transitive (stronger-than-sFS) model but cannot deduce under \
         plain sFS. Finding: the sFS AXIOMS admit non-transitive runs (last row — \
         a hand-built run satisfying sFS2a-d with failed_b(a), failed_c(b) but no \
         failed_c(a)), yet the concrete §5 protocol produced a transitive relation \
         in every benign random run measured here. Conjecture recorded in \
         EXPERIMENTS.md: quorum intersection (2q > n) forces 2-chain transitivity \
         in the implemented protocol; the paper's §6 remark is about the model, \
         which makes no such promise.",
    );
    table
}

/// One E9 instance: a bounded cluster whose schedule space is explored.
#[derive(Debug, Clone)]
pub struct E9Instance {
    /// Row label.
    pub label: &'static str,
    /// The cluster under exploration.
    pub spec: ClusterSpec,
    /// `true`: bounded-exhaustive DFS (certification possible);
    /// `false`: random-walk sampling (violation search only).
    pub exhaustive: bool,
}

/// The E9 instance sweep: 3-process instances small enough to enumerate
/// completely — within the failure bound (everything certifies), beyond
/// it (a failed-before cycle exists and is found), one silent crash
/// (FS1's dependence on the timeout mechanism), the no-self-crash
/// ablation (sFS2a violated on every class) — plus a 5-process instance
/// explored by random walks.
pub fn e9_instances() -> Vec<E9Instance> {
    let p = ProcessId::new;
    vec![
        E9Instance {
            label: "n=3 t=1, 1 suspicion (within bound)",
            spec: ClusterSpec::new(3, 1).suspect(p(1), p(0), 10),
            exhaustive: true,
        },
        E9Instance {
            label: "n=3 t=1, chained suspicions (2 crashes > t)",
            spec: ClusterSpec::new(3, 1)
                .suspect(p(1), p(0), 10)
                .suspect(p(2), p(1), 12),
            exhaustive: true,
        },
        E9Instance {
            label: "n=3 t=1, mutual suspicion (2 crashes > t)",
            spec: ClusterSpec::new(3, 1)
                .suspect(p(1), p(0), 10)
                .suspect(p(0), p(1), 10),
            exhaustive: true,
        },
        E9Instance {
            label: "n=3 t=1, suspicion + silent crash",
            spec: ClusterSpec::new(3, 1)
                .suspect(p(1), p(0), 10)
                .crash(p(2), 20),
            exhaustive: true,
        },
        E9Instance {
            label: "n=3 t=1, ablation: no self-crash",
            spec: ClusterSpec::new(3, 1)
                .suspect(p(1), p(0), 10)
                .without_self_crash(),
            exhaustive: true,
        },
        E9Instance {
            label: "n=5 t=2, mutual suspicion (random walks)",
            spec: ClusterSpec::new(5, 2)
                .suspect(p(1), p(0), 10)
                .suspect(p(0), p(1), 10),
            exhaustive: false,
        },
    ]
}

/// Explores one E9 instance, one rayon task per root branch of its
/// schedule tree, with an order-preserving merge (byte-identical tables
/// regardless of thread count).
pub fn e9_cell(instance: &E9Instance, budget: u64) -> ExploreOutcome {
    let mut inst = ExploreInstance::new(instance.spec.clone());
    if instance.exhaustive {
        inst.config = ExploreConfig {
            max_steps: 600,
            max_schedules: budget as usize,
            pruning: Pruning::SleepSets,
        };
        let width = inst.width().max(1);
        let shared = &inst;
        (0..width as u32)
            .into_par_iter()
            .map(|branch| shared.explore_prefix(&[branch]))
            .collect::<Vec<_>>()
            .into_iter()
            .reduce(ExploreOutcome::merge)
            .expect("width >= 1")
    } else {
        // Sampling cells cap their walk count: walks are for finding
        // violations, and a few hundred deep walks already dwarf the
        // schedule diversity any latency-seeded sweep reaches.
        inst.random_walks(&WalkConfig {
            walks: (budget as usize).min(256),
            max_steps: 4096,
            seed: 9,
        })
    }
}

/// E9 — schedule-space exploration: per-property certify/violate
/// verdicts over *every* schedule of bounded instances.
///
/// `budget` is the schedule budget per exhaustive cell and the walk
/// count for sampling cells.
pub fn run_e9(budget: u64) -> Table {
    let mut table = Table::new(
        "E9 — schedule-space exploration (universal adversary; sFS suite + Theorem 5 per schedule class)",
        &[
            "instance",
            "mode",
            "schedules",
            "checked",
            "classes",
            "skipped (sleep/forced)",
            "complete",
            "certified",
            "violated",
        ],
    );
    let mut witness_note: Option<String> = None;
    for instance in e9_instances() {
        let out = e9_cell(&instance, budget);
        crate::report::note_events(out.trace_events);
        let certified: Vec<&str> = out
            .properties
            .iter()
            .filter(|c| c.certified)
            .map(|c| c.property.as_str())
            .collect();
        let violated: Vec<String> = out
            .properties
            .iter()
            .filter(|c| c.violations > 0)
            .map(|c| format!("{}×{}", c.property, c.violations))
            .collect();
        table.row([
            instance.label.to_string(),
            if instance.exhaustive {
                "DFS+sleep-sets"
            } else {
                "random walks"
            }
            .to_string(),
            out.stats.schedules.to_string(),
            out.stats.visited.to_string(),
            out.classes().to_string(),
            format!("{}/{}", out.stats.sleep_skips, out.stats.forced_skips),
            if out.stats.complete { "yes" } else { "no" }.to_string(),
            format!("{}/{}", certified.len(), out.properties.len()),
            if violated.is_empty() {
                "-".to_string()
            } else {
                violated.join(" ")
            },
        ]);
        // Reproduce the first discovered violation from its recorded
        // choice trace, once, to demonstrate replayability end to end.
        if witness_note.is_none() {
            if let Some(cert) = out.properties.iter().find(|c| c.witness.is_some()) {
                let witness = cert.witness.clone().expect("checked");
                let inst = ExploreInstance::new(instance.spec.clone());
                let trace = inst.replay(&witness);
                note_trace(&trace);
                let h = History::from_trace(&trace);
                let reproduced = if cert.property == "Theorem5" {
                    rearrange_to_fs(&h.complete_missing_crashes()).is_err()
                } else {
                    properties::check_sfs_suite(&h, trace.stop_reason().is_complete())
                        .iter()
                        .find(|r| r.property == cert.property)
                        .is_some_and(|r| r.verdict == Verdict::Violated)
                };
                witness_note = Some(format!(
                    "witness replay: `{}` violation on \"{}\" re-executed from its {}-choice \
                     trace — {}",
                    cert.property,
                    instance.label,
                    witness.len(),
                    if reproduced {
                        "reproduced"
                    } else {
                        "NOT REPRODUCED (BUG)"
                    },
                ));
            }
        }
    }
    table.note(
        "each exhaustive cell enumerates EVERY schedule (delivery order × crash placement) \
         of its instance, one rayon task per root branch, pruned by sleep sets to one \
         representative per commutation class; 'certified' counts properties proved to hold \
         on all schedules (FS1, sFS2a-d, Conditions 1-3, and 'Theorem5' = an isomorphic \
         fail-stop run exists). Findings: within the failure bound the full protocol \
         certifies everything; two crashes against t=1 create a replayable failed-before \
         cycle (sFS2b, and with it Theorem 5's premise, fails — the paper's t-boundedness \
         is load-bearing); a silent crash without heartbeats leaves FS1 unmet (detection \
         needs the timeout mechanism); the no-self-crash ablation violates sFS2a on every \
         class. Random-walk cells sample (never certify).",
    );
    if let Some(note) = witness_note {
        table.note(note);
    }
    table
}

/// Machine-checkable summary of one E10 sweep, for the binary's exit
/// status and the witness artifact.
#[derive(Debug, Clone, Default)]
pub struct E10Summary {
    /// Total divergences across every instance and backend (0 = full
    /// agreement; the `e10_conformance` binary exits nonzero otherwise).
    pub divergences: usize,
    /// Backend runs across the sweep.
    pub runs: usize,
    /// Every shrunk witness: `(instance, property, before, after,
    /// minimal choice trace)`.
    pub witnesses: Vec<(String, String, usize, usize, Vec<u32>)>,
    /// Rendered divergence descriptions, for the artifact file.
    pub divergence_reports: Vec<String>,
}

impl E10Summary {
    /// Median `(before, after)` witness length across all shrunk
    /// witnesses; `None` when no property was violated anywhere.
    pub fn median_witness_lengths(&self) -> Option<(usize, usize)> {
        if self.witnesses.is_empty() {
            return None;
        }
        let median = |mut v: Vec<usize>| -> usize {
            v.sort_unstable();
            v[v.len() / 2]
        };
        Some((
            median(self.witnesses.iter().map(|w| w.2).collect()),
            median(self.witnesses.iter().map(|w| w.3).collect()),
        ))
    }

    /// The witness artifact as hand-rolled JSON (the workspace serde is a
    /// no-op stand-in), written next to `BENCH_E10.json` so CI can upload
    /// minimized witnesses.
    pub fn witnesses_json(&self) -> String {
        let mut out = String::from("{\n  \"witnesses\": [\n");
        for (i, (instance, property, before, after, choices)) in self.witnesses.iter().enumerate() {
            let sep = if i + 1 == self.witnesses.len() {
                ""
            } else {
                ","
            };
            let rendered: Vec<String> = choices.iter().map(u32::to_string).collect();
            out.push_str(&format!(
                "    {{\"instance\": {}, \"property\": {}, \"before\": {}, \
                 \"after\": {}, \"choices\": [{}]}}{}\n",
                json_str(instance),
                json_str(property),
                before,
                after,
                rendered.join(","),
                sep,
            ));
        }
        out.push_str("  ],\n  \"divergences\": [\n");
        for (i, d) in self.divergence_reports.iter().enumerate() {
            let sep = if i + 1 == self.divergence_reports.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("    {}{}\n", json_str(d), sep));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The per-instance conformance budget for E10. `budget` bounds the
/// reference exploration; the backend fan (random campaigns, threaded
/// repetitions) is fixed so tables stay comparable across budgets.
fn e10_conformance_config(seed: u64) -> ConformanceConfig {
    ConformanceConfig {
        random_runs: 24,
        threaded_runs: 2,
        // One multi-process run per instance: real sockets are the slow
        // column (wall-clock ticks), and one run per instance across the
        // whole E9 family set is already a broad sweep.
        udp_runs: 1,
        seed,
        ..ConformanceConfig::default()
    }
}

/// One E10 cell: the full differential-conformance check of one E9
/// instance family (reference exploration → envelope → time-ordered,
/// random-campaign, replay, and threaded backends → witness shrinking).
pub fn e10_cell(instance: &E9Instance, budget: u64, seed: u64) -> ConformanceOutcome {
    let mut inst = ExploreInstance::new(instance.spec.clone());
    inst.config = ExploreConfig {
        max_steps: 600,
        // Sampling families get a token exploration budget: their
        // reference envelope is incomplete by design (nothing certified,
        // nothing universal), which leaves replay fidelity and the
        // certified-bound checks of the small families to carry E10's
        // assertions there.
        max_schedules: if instance.exhaustive {
            budget as usize
        } else {
            (budget as usize).min(2_000)
        },
        pruning: Pruning::SleepSets,
    };
    inst.conformance(&e10_conformance_config(seed))
}

/// E10 — differential conformance: every runtime (simulator strategies,
/// schedule replay, event-driven threaded — bare and over the link seam —
/// the transport-backed legs, and the multi-process UDP socket backend)
/// cross-checked per instance, with counterexample shrinking. One rayon
/// task per instance.
pub fn run_e10(budget: u64) -> (Table, E10Summary) {
    let mut table = Table::new(
        "E10 — differential conformance across backends (envelope oracle + ddmin shrinking)",
        &[
            "instance",
            "ref classes",
            "ref complete",
            "runs to/rnd/rpl/thr/thr+net/tp/tpa/udp",
            "complete runs",
            "divergent",
            "agreement",
            "witness shrink (before→after)",
        ],
    );
    let mut summary = E10Summary::default();
    let instances = e9_instances();
    let outcomes: Vec<ConformanceOutcome> = (0..instances.len())
        .into_par_iter()
        .map(|i| e10_cell(&instances[i], budget, 0x10 + i as u64))
        .collect();
    for (instance, out) in instances.iter().zip(&outcomes) {
        crate::report::note_events(out.reference.trace_events);
        for backend in &out.backends {
            for d in &backend.divergences {
                summary
                    .divergence_reports
                    .push(format!("{}: {}", instance.label, d));
            }
        }
        if !out.agreement() {
            // Black-box postmortem: when SFS_FLIGHT_DIR is set, leave a
            // per-instance dump of every divergence next to the CI
            // artifacts before the binary exits nonzero.
            let mut body = format!("E10 divergence on instance \"{}\"\n", instance.label);
            for backend in &out.backends {
                for d in &backend.divergences {
                    body.push_str(&format!("{}: {d}\n", backend.backend));
                }
            }
            sfs_obs::flight::dump_to_dir(&format!("e10-divergence-{}", instance.label), &body);
        }
        summary.divergences += out.divergences().count();
        summary.runs += out.total_runs();
        let runs: Vec<String> = out.backends.iter().map(|b| b.runs.to_string()).collect();
        let complete: Vec<String> = out
            .backends
            .iter()
            .map(|b| b.complete_runs.to_string())
            .collect();
        let shrinks: Vec<String> = out
            .shrunk
            .iter()
            .map(|s| {
                summary.witnesses.push((
                    instance.label.to_owned(),
                    s.property.clone(),
                    s.outcome.initial_len,
                    s.outcome.final_len,
                    s.outcome.run.choices.clone(),
                ));
                format!(
                    "{} {}→{}",
                    s.property, s.outcome.initial_len, s.outcome.final_len
                )
            })
            .collect();
        table.row([
            instance.label.to_string(),
            out.reference.classes().to_string(),
            if out.reference.stats.complete {
                "yes"
            } else {
                "no"
            }
            .to_string(),
            runs.join("/"),
            complete.join("/"),
            out.backends
                .iter()
                .map(|b| b.divergent_runs)
                .sum::<usize>()
                .to_string(),
            format!("{:.0}%", out.agreement_rate() * 100.0),
            if shrinks.is_empty() {
                "-".to_string()
            } else {
                shrinks.join(" ")
            },
        ]);
    }
    table.note(
        "each instance is explored into a reference envelope (class fingerprints + \
         certified/universal property bounds), then cross-checked against eight \
         backends: the time-ordered strategy (the default engine's schedule), 24 \
         random-strategy campaigns, strict byte-compare replay of every recording, \
         2 executions each on the event-driven threaded runtime (threaded:event) and \
         on its link-seam variant with ARQ-wrapped processes (threaded:event+net), \
         the simulated transport legs (fixed and adaptive timeouts), and one run per \
         instance on the UDP socket backend (net:udp) — one OS process per node over \
         real localhost datagrams. A divergence is any certified \
         property violated, any universal violation missed, any unknown happens-before \
         class on a complete run, or any replay that is not byte-identical — each \
         reported with both traces attached. Witness columns show the delta-debugging \
         shrinker (tail truncation + ddmin deletion + choice canonicalization, every \
         candidate re-validated by replay) minimizing the reference's violating \
         schedules.",
    );
    if let Some((before, after)) = summary.median_witness_lengths() {
        table.note(format!(
            "median witness length across violated properties: {before} choices before \
             shrinking, {after} after; every minimized witness replays strictly \
             (E10_WITNESSES.json holds the choice traces)."
        ));
    }
    table.note(if summary.divergences == 0 {
        format!(
            "RESULT: 100% backend agreement across {} runs, 0 divergences.",
            summary.runs
        )
    } else {
        format!(
            "RESULT: {} DIVERGENCES across {} runs — the backends disagree; see \
             E10_WITNESSES.json.",
            summary.divergences, summary.runs
        )
    });
    (table, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_standard_cell_is_clean() {
        let cell = e1_cell(5, 2, E1Variant::Standard, 10);
        assert_eq!(cell.suite_ok, cell.runs);
        assert_eq!(cell.rearranged, cell.runs);
        assert!(cell.violations.is_empty());
    }

    #[test]
    fn e1_no_self_crash_violates_sfs2a() {
        let cell = e1_cell(5, 2, E1Variant::NoSelfCrash, 10);
        assert!(
            cell.violations.iter().any(|&(p, c)| p == "sFS2a" && c > 0),
            "{cell:?}"
        );
    }

    #[test]
    fn e1_no_gate_violates_sfs2d_somewhere() {
        // Gossip right after detection races application messages against
        // open rounds; without gating some seed must violate sFS2d.
        let cell = e1_cell(10, 3, E1Variant::NoGate, 30);
        assert!(
            cell.violations.iter().any(|&(p, c)| p == "sFS2d" && c > 0),
            "{cell:?}"
        );
    }

    #[test]
    fn e9_within_bound_cell_certifies_everything() {
        let instances = e9_instances();
        let out = e9_cell(&instances[0], 100_000);
        assert!(out.stats.complete, "{:?}", out.stats);
        assert!(out.all_certified(), "{:#?}", out.properties);
    }

    #[test]
    fn e9_beyond_bound_cell_finds_a_replayable_cycle() {
        let instances = e9_instances();
        let out = e9_cell(&instances[1], 100_000);
        assert!(out.stats.complete);
        let cert = out.certificate("sFS2b").expect("sFS2b checked");
        assert!(cert.violations > 0 && cert.witness.is_some(), "{cert:?}");
        // The recorded witness replays to a genuine sFS2b violation.
        let inst = ExploreInstance::new(instances[1].spec.clone());
        let trace = inst.replay(cert.witness.as_ref().expect("checked"));
        let h = History::from_trace(&trace);
        assert_eq!(properties::check_sfs2b(&h).verdict, Verdict::Violated);
    }

    #[test]
    fn e9_parallel_cells_are_deterministic() {
        // The root-branch fan-out must fold in branch order: two runs of
        // the same cell produce identical outcomes (and hence tables).
        let instances = e9_instances();
        let a = e9_cell(&instances[2], 100_000);
        let b = e9_cell(&instances[2], 100_000);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.fingerprints, b.fingerprints);
        assert_eq!(a.properties, b.properties);
    }

    #[test]
    fn e10_within_bound_cell_fully_agrees() {
        let instances = e9_instances();
        let out = e10_cell(&instances[0], 100_000, 0x10);
        assert!(out.reference.stats.complete);
        assert!(
            out.agreement(),
            "{:#?}",
            out.divergences().collect::<Vec<_>>()
        );
        assert!((out.agreement_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn e10_cycle_instance_agrees_and_shrinks_its_witness() {
        let instances = e9_instances();
        let out = e10_cell(&instances[2], 100_000, 0x12);
        assert!(
            out.agreement(),
            "{:#?}",
            out.divergences().collect::<Vec<_>>()
        );
        let cycle = out
            .shrunk
            .iter()
            .find(|s| s.property == "sFS2b")
            .expect("sFS2b witness shrunk");
        assert!(
            cycle.outcome.final_len < cycle.outcome.initial_len,
            "{} -> {}",
            cycle.outcome.initial_len,
            cycle.outcome.final_len
        );
    }

    #[test]
    fn e10_threaded_event_backends_agree_on_every_bounded_instance() {
        // The event-driven threaded backends (bare and over the link
        // seam) must produce zero divergences on the WHOLE E9 instance
        // set — exhaustive and sampling families alike. This is the pin
        // that the wheel-scheduled injections, the outstanding-count
        // quiescence protocol, and the virtual-clock horizon reproduce
        // the simulator's envelope, instance by instance.
        let config = ConformanceConfig {
            random_runs: 1,
            threaded_runs: 2,
            transport_runs: 1,
            seed: 0x7E57,
            ..ConformanceConfig::default()
        };
        for instance in &e9_instances() {
            let mut inst = ExploreInstance::new(instance.spec.clone());
            inst.config = ExploreConfig {
                max_steps: 600,
                max_schedules: if instance.exhaustive { 100_000 } else { 2_000 },
                pruning: Pruning::SleepSets,
            };
            let out = inst.conformance(&config);
            for backend in out
                .backends
                .iter()
                .filter(|b| b.backend.starts_with("threaded:"))
            {
                assert_eq!(backend.runs, 2, "{}: {:?}", instance.label, backend);
                assert!(
                    backend.divergences.is_empty(),
                    "{} / {}: {:#?}",
                    instance.label,
                    backend.backend,
                    backend.divergences
                );
            }
        }
    }

    #[test]
    fn e5_wait_for_all_needs_more_votes() {
        let all = detection_cost(10, 3, QuorumPolicy::WaitForAll, 1);
        let fixed = detection_cost(10, 3, QuorumPolicy::FixedMinimum, 1);
        assert!(all.votes_needed > fixed.votes_needed);
        assert!(all.detections >= 9);
        assert!(fixed.detections >= 9);
    }

    #[test]
    fn tables_render_nonempty() {
        assert!(!run_e2().is_empty());
        assert!(!run_e3().is_empty());
        assert!(!run_e4(3).is_empty());
    }

    /// The rayon sweep must be a drop-in for the serial loop: same values,
    /// same order, hence byte-identical tables.
    #[test]
    fn parallel_sweep_matches_serial_order() {
        let parallel = par_seeds(24, |seed| {
            let trace = random_sfs_run(5, 2, E1Variant::Standard, seed);
            (trace.events().len(), trace.stats().messages_sent)
        });
        let serial: Vec<_> = (0..24)
            .map(|seed| {
                let trace = random_sfs_run(5, 2, E1Variant::Standard, seed);
                (trace.events().len(), trace.stats().messages_sent)
            })
            .collect();
        assert_eq!(parallel, serial);
    }

    /// Rendered experiment tables are reproducible run to run (no
    /// scheduling-dependent accumulation).
    #[test]
    fn parallel_tables_are_byte_identical_across_runs() {
        assert_eq!(run_e5(4).render(), run_e5(4).render());
        assert_eq!(run_e7(6).render(), run_e7(6).render());
    }
}
