//! The paper's motivating example (§1): leader election on a failure
//! detector.
//!
//! Each process keeps the list `⟨1, 2, ..., n⟩`; whoever is the smallest
//! not-yet-detected process considers itself the leader. On fail-stop this
//! is trivially safe (at most one leader at a time). Under simulated
//! fail-stop, a *global* observer may see two leaders simultaneously — but
//! no process can ever observe evidence of it (Theorem 5). Under weaker
//! detectors (unilateral timeouts), a process *can* observe such evidence.
//!
//! The observable evidence we instrument is causal: a leader broadcasts a
//! claim; any process that still considers itself leader *rebukes* claims
//! from others. Receiving a rebuke from a process you have already
//! detected as failed is impossible in any fail-stop run — the rebuke is
//! causally after your claim, which is causally after your detection, so
//! in a fail-stop run the rebuker would have crashed before sending it
//! (Condition 3 of the paper). The election app counts these
//! "FS-impossible observations".

use serde::{Deserialize, Serialize};
use sfs::{AppApi, Application};
use sfs_asys::{Note, ProcessId, Trace, TraceEventKind, NOTE_LEADER};
use std::collections::BTreeSet;

/// Trace-note key recording an FS-impossible observation.
pub const NOTE_ANOMALY: &str = "fs-impossible";

/// Messages exchanged by the election application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElectionMsg {
    /// "I am the leader."
    Claim,
    /// "No you are not — I am." Sent by a self-believed leader in response
    /// to another process's claim.
    Rebuke,
}

/// The election automaton.
#[derive(Debug, Clone)]
pub struct ElectionApp {
    /// Whether this process currently believes it is the leader.
    is_leader: bool,
    /// Processes this app has been told have failed.
    failed: BTreeSet<ProcessId>,
    /// FS-impossible observations (rebukes from detected-failed processes).
    anomalies: u64,
}

impl ElectionApp {
    /// A fresh, followership-assuming instance.
    pub fn new() -> Self {
        ElectionApp {
            is_leader: false,
            failed: BTreeSet::new(),
            anomalies: 0,
        }
    }

    /// Whether this process currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.is_leader
    }

    /// FS-impossible observations made so far.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    fn leader_of(&self, api: &AppApi<'_, '_, ElectionMsg>) -> ProcessId {
        // The first element of the list that has not been removed.
        ProcessId::all(api.n())
            .find(|p| !self.failed.contains(p))
            .expect("a process that runs cannot have removed everyone including itself")
    }

    fn reconsider(&mut self, api: &mut AppApi<'_, '_, ElectionMsg>) {
        let leader = self.leader_of(api);
        let me = api.id();
        if leader == me && !self.is_leader {
            self.is_leader = true;
            api.annotate(Note::key_val(NOTE_LEADER, me));
            api.broadcast(ElectionMsg::Claim);
        }
    }
}

impl Default for ElectionApp {
    fn default() -> Self {
        Self::new()
    }
}

impl Application for ElectionApp {
    type Msg = ElectionMsg;

    fn on_start(&mut self, api: &mut AppApi<'_, '_, ElectionMsg>) {
        self.reconsider(api);
    }

    fn on_failure(&mut self, api: &mut AppApi<'_, '_, ElectionMsg>, failed: ProcessId) {
        self.failed.insert(failed);
        self.reconsider(api);
    }

    fn on_message(
        &mut self,
        api: &mut AppApi<'_, '_, ElectionMsg>,
        from: ProcessId,
        msg: ElectionMsg,
    ) {
        match msg {
            ElectionMsg::Claim => {
                if self.is_leader && from != api.id() {
                    api.send(from, ElectionMsg::Rebuke);
                }
            }
            ElectionMsg::Rebuke => {
                if self.is_leader && self.failed.contains(&from) {
                    // Causally: my claim → their rebuke; but I detected
                    // them before claiming. In a fail-stop run they crashed
                    // before my detection, so they could not have received
                    // my claim. This observation has no fail-stop
                    // explanation.
                    self.anomalies += 1;
                    api.annotate(Note::key_val(NOTE_ANOMALY, format!("rebuke-from-{from}")));
                }
            }
        }
    }
}

/// Post-run election analysis extracted from a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElectionOutcome {
    /// Leadership claims in order `(seq, claimant)`.
    pub claims: Vec<(usize, ProcessId)>,
    /// Maximum number of *globally* concurrent leaders (a claimant stays
    /// leader until it crashes; under sFS this can exceed 1 even though no
    /// process can tell).
    pub max_concurrent_leaders: usize,
    /// FS-impossible observations recorded by any process.
    pub observed_anomalies: usize,
}

/// Computes leadership intervals and anomaly counts from a trace.
pub fn analyze_election(trace: &Trace) -> ElectionOutcome {
    let claims: Vec<(usize, ProcessId)> = trace
        .notes_with_key(NOTE_LEADER)
        .map(|(seq, pid, _)| (seq, pid))
        .collect();
    let observed_anomalies = trace.notes_with_key(NOTE_ANOMALY).count();
    // Leadership interval of claimant c: [claim_seq, crash_seq or end).
    let end = trace.events().len();
    let mut intervals: Vec<(usize, usize)> = Vec::new();
    for &(start, claimant) in &claims {
        let stop = trace
            .events()
            .iter()
            .skip(start)
            .find_map(|e| match e.kind {
                TraceEventKind::Crash { pid } if pid == claimant => Some(e.seq),
                _ => None,
            })
            .unwrap_or(end);
        intervals.push((start, stop));
    }
    let mut max_concurrent = 0;
    for &(start, _) in &intervals {
        let concurrent = intervals
            .iter()
            .filter(|&&(s, e)| s <= start && start < e)
            .count();
        max_concurrent = max_concurrent.max(concurrent);
    }
    ElectionOutcome {
        claims,
        max_concurrent_leaders: max_concurrent,
        observed_anomalies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs::{Backend, ClusterSpec, Instruments, ModeSpec};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn run_election(mode: ModeSpec, seed: u64) -> Trace {
        ClusterSpec::new(5, 2)
            .mode(mode)
            .seed(seed)
            .suspect(p(1), p(0), 10) // p1 falsely suspects the leader
            .run(Backend::Sim, Instruments::default(), |_| ElectionApp::new())
            .expect("feasible spec")
            .into_trace()
    }

    #[test]
    fn initial_leader_is_p0() {
        let trace = ClusterSpec::new(4, 1)
            .run(Backend::Sim, Instruments::default(), |_| ElectionApp::new())
            .expect("feasible spec")
            .into_trace();
        let outcome = analyze_election(&trace);
        assert_eq!(outcome.claims.len(), 1);
        assert_eq!(outcome.claims[0].1, p(0));
        assert_eq!(outcome.observed_anomalies, 0);
    }

    #[test]
    fn sfs_election_observes_no_anomalies() {
        for seed in 0..20 {
            let trace = run_election(ModeSpec::SfsOneRound, seed);
            let outcome = analyze_election(&trace);
            assert_eq!(
                outcome.observed_anomalies,
                0,
                "seed {seed}: sFS run leaked an FS-impossible observation\n{}",
                trace.to_pretty_string()
            );
            // Leadership must transfer to p1 once p0 is detected+killed.
            assert!(
                outcome.claims.iter().any(|&(_, c)| c == p(1)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn unilateral_election_observes_split_brain() {
        // With unilateral detection, p0 is never killed, so p1's false
        // detection creates a live second leader; p0 rebukes p1's claim,
        // and p1 observes the FS-impossible rebuke.
        let mut anomaly_seen = false;
        for seed in 0..20 {
            let trace = run_election(ModeSpec::Unilateral, seed);
            let outcome = analyze_election(&trace);
            if outcome.observed_anomalies > 0 {
                anomaly_seen = true;
            }
        }
        assert!(
            anomaly_seen,
            "unilateral detection never produced an observable anomaly"
        );
    }

    #[test]
    fn global_two_leader_window_exists_even_under_sfs() {
        // Under sFS a global observer may see both p0 (not yet crashed) and
        // p1 (already detected p0) as leaders simultaneously; internally
        // this is undetectable. At least one seed should exhibit it.
        let mut window_seen = false;
        for seed in 0..60 {
            let trace = run_election(ModeSpec::SfsOneRound, seed);
            let outcome = analyze_election(&trace);
            if outcome.max_concurrent_leaders >= 2 {
                window_seen = true;
                assert_eq!(outcome.observed_anomalies, 0, "internally invisible");
            }
        }
        assert!(window_seen, "no seed produced a concurrent-leader window");
    }
}
