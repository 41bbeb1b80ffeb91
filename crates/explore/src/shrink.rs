//! Counterexample shrinking: delta debugging over recorded choice traces.
//!
//! A violating schedule found by [`explore`](crate::explore) or
//! [`random_walks`](crate::random_walks) is replayable but rarely
//! *readable*: its [`ChoiceTrace`] interleaves the few decisions that
//! matter with hundreds that do not. This module reduces such a witness
//! to a minimal one by the classic delta-debugging loop (Zeller &
//! Hildebrandt's ddmin, adapted to schedules):
//!
//! 1. **Tail truncation** — a safety violation is already present in some
//!    prefix; exponentially probe shorter and shorter prefixes.
//! 2. **Chunk deletion** — splice out windows of decisions
//!    ([`surgery::without_range`](sfs_asys::strategy::surgery)), halving
//!    the window size down to single decisions.
//! 3. **Choice canonicalization** — rewrite surviving decisions to `0`
//!    (the first enabled step), which empties the trace's information
//!    content position by position and often unlocks further deletions.
//!
//! Deleting a decision changes which steps are enabled at every later
//! point, so a spliced trace is only a *guess*. Every candidate is
//! therefore **re-validated by replay**: it is re-executed under a
//! tolerant strategy (out-of-range choices clamp to the enabled range),
//! the engine's [`ScheduleLog`] of that execution
//! becomes the candidate's canonical form, and the candidate is accepted
//! only if the caller's predicate still holds on the re-executed trace.
//! Accepted witnesses are thus always exact: the returned choice trace
//! replays byte-identically through the strict
//! [`ReplayStrategy`](sfs_asys::ReplayStrategy) (see
//! [`replay`](crate::replay)), never relying on clamping.

use crate::dfs::ScheduleRun;
use sfs_asys::strategy::surgery;
use sfs_asys::{ChoiceTrace, EnabledStep, ScheduleLog, Sim, StopReason, Strategy};
use std::fmt;

/// Replays a candidate choice sequence leniently: out-of-range choices
/// clamp to the last enabled step, choices past the end fall back to the
/// first enabled step. Only used to *generate* candidates; accepted
/// witnesses are the engine's own record of the clamped run, which
/// replays strictly.
struct TolerantReplay {
    choices: ChoiceTrace,
    pos: usize,
}

impl Strategy for TolerantReplay {
    fn choose(&mut self, enabled: &[EnabledStep]) -> usize {
        let c = self.choices.get(self.pos).copied().unwrap_or(0) as usize;
        self.pos += 1;
        c.min(enabled.len() - 1)
    }
}

/// Budgets for one shrink.
#[derive(Debug, Clone, Copy)]
pub struct ShrinkConfig {
    /// Maximum candidate re-executions (each candidate costs one full
    /// replay of the instance).
    pub max_replays: usize,
    /// Whether pass 3 (rewriting choices to the canonical first-enabled
    /// step) runs. It does not shorten the trace by itself but usually
    /// enables further deletions and makes the witness deterministic to
    /// read; switch it off for very wide instances where replays are
    /// expensive.
    pub canonicalize: bool,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig {
            max_replays: 4096,
            canonicalize: true,
        }
    }
}

/// Counters and result of one shrink.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimal witness: re-validated, strictly replayable.
    pub run: ScheduleRun,
    /// Decisions in the witness as given.
    pub initial_len: usize,
    /// Decisions in the minimal witness.
    pub final_len: usize,
    /// Candidate re-executions spent.
    pub replays: usize,
    /// Full passes over the ddmin loop until fixpoint (or budget).
    pub rounds: usize,
}

impl ShrinkOutcome {
    /// `initial_len → final_len` as a ratio, for reporting.
    pub fn reduction(&self) -> f64 {
        if self.initial_len == 0 {
            1.0
        } else {
            self.final_len as f64 / self.initial_len as f64
        }
    }
}

/// One tolerant re-execution of `candidate`, capped at its own length so
/// recordings of early-quiescing candidates stay short.
fn execute<M, F>(build: &mut F, candidate: &[u32]) -> (ScheduleRun, ScheduleLog)
where
    M: Clone + fmt::Debug + 'static,
    F: FnMut() -> Sim<M>,
{
    let mut sim = build();
    sim.set_max_steps(candidate.len());
    sim.set_strategy(TolerantReplay {
        choices: candidate.to_vec(),
        pos: 0,
    });
    let (trace, log) = sim.run_scheduled();
    let truncated = trace.stop_reason() == StopReason::MaxSteps;
    (
        ScheduleRun {
            choices: log.choices(),
            truncated,
            trace,
        },
        log,
    )
}

/// Shrinks `witness` to a minimal choice trace whose replay still
/// satisfies `violates`, by delta debugging with replay re-validation
/// (see the module docs for the passes).
///
/// `build` must produce the same system every time (the contract of
/// [`explore`](crate::explore)); `violates` judges a re-executed
/// candidate — typically "property P is violated on this trace".
///
/// Returns `None` when the *original* witness does not reproduce under
/// re-execution (a conformance failure in its own right — the
/// differential oracle reports it separately). Otherwise the returned
/// witness is at most as long as the original and strictly replayable.
pub fn shrink<M, F, P>(
    config: &ShrinkConfig,
    mut build: F,
    witness: &[u32],
    mut violates: P,
) -> Option<ShrinkOutcome>
where
    M: Clone + fmt::Debug + 'static,
    F: FnMut() -> Sim<M>,
    P: FnMut(&ScheduleRun) -> bool,
{
    let initial_len = witness.len();
    let mut replays = 0usize;
    // Baseline: canonicalize the witness itself by re-execution.
    let (mut best, mut best_log) = execute(&mut build, witness);
    replays += 1;
    if !violates(&best) {
        return None;
    }

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let len_at_round_start = best.choices.len();

        // Pass 1: tail truncation, probing exponentially shorter prefixes.
        let mut cut = best.choices.len() / 2;
        while cut >= 1 && replays < config.max_replays {
            let keep = best.choices.len().saturating_sub(cut);
            let candidate = surgery::truncated(&best.choices, keep);
            let (run, log) = execute(&mut build, &candidate);
            replays += 1;
            if violates(&run) {
                best = run;
                best_log = log;
                cut = best.choices.len() / 2;
            } else {
                cut /= 2;
            }
        }

        // Pass 2: ddmin chunk deletion, windows halving to single steps.
        let mut chunk = (best.choices.len() / 2).max(1);
        while chunk >= 1 && replays < config.max_replays {
            let mut i = 0;
            let mut deleted_any = false;
            while i < best.choices.len() && replays < config.max_replays {
                let candidate = surgery::without_range(&best.choices, i..i + chunk);
                if candidate.len() == best.choices.len() {
                    break;
                }
                let (run, log) = execute(&mut build, &candidate);
                replays += 1;
                if violates(&run) && run.choices.len() < best.choices.len() {
                    best = run;
                    best_log = log;
                    deleted_any = true;
                    // The trace shifted under us; rescan from the same
                    // offset (the next chunk now sits there).
                } else {
                    i += chunk;
                }
            }
            if !deleted_any || chunk == 1 {
                if chunk == 1 {
                    break;
                }
                chunk /= 2;
            }
        }

        // Pass 3: canonicalize remaining free choices to 0. Forced
        // decisions (width 1) are skipped — rewriting them is a no-op.
        if config.canonicalize {
            let mut pos = 0;
            while pos < best.choices.len() && replays < config.max_replays {
                let width = best_log.steps.get(pos).map_or(1, |s| s.enabled.len());
                if best.choices[pos] != 0 && width > 1 {
                    let candidate = surgery::with_choice(&best.choices, pos, 0);
                    let (run, log) = execute(&mut build, &candidate);
                    replays += 1;
                    if violates(&run) && run.choices.len() <= best.choices.len() {
                        best = run;
                        best_log = log;
                    }
                }
                pos += 1;
            }
        }

        if best.choices.len() >= len_at_round_start || replays >= config.max_replays {
            break;
        }
    }

    let final_len = best.choices.len();
    Some(ShrinkOutcome {
        run: best,
        initial_len,
        final_len,
        replays,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, replay, ExploreConfig, Pruning};
    use sfs_asys::{Context, FixedLatency, Process, ProcessId, Trace, TraceEventKind};

    /// p1..p_{n-1} each send one message to p0; p0 crashes itself upon
    /// receiving from the HIGHEST-index sender. The "violation" is p0's
    /// crash — most schedules reach it, but deliveries from other senders
    /// are noise a shrinker must remove.
    struct Trigger {
        n: usize,
    }
    impl Process<u8> for Trigger {
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            if ctx.id().index() > 0 {
                ctx.send(ProcessId::new(0), ctx.id().index() as u8);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u8>, _: ProcessId, msg: u8) {
            if msg as usize == self.n - 1 {
                ctx.crash_self();
            }
        }
    }

    fn sys(n: usize) -> Sim<u8> {
        Sim::<u8>::builder(n)
            .link(FixedLatency(1))
            .build(move |_| Box::new(Trigger { n }))
    }

    fn crashed(trace: &Trace) -> bool {
        trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Crash { .. }))
    }

    #[test]
    fn shrinks_noise_deliveries_out_of_the_witness() {
        let n = 5;
        // Find a deliberately long witness: the last explored schedule
        // delivers the trigger message last.
        let mut witness: Option<ChoiceTrace> = None;
        explore(
            &ExploreConfig {
                pruning: Pruning::None,
                ..ExploreConfig::default()
            },
            || sys(n),
            |run| {
                if crashed(&run.trace) && run.choices.len() >= n - 1 {
                    witness = Some(run.choices.clone());
                }
            },
        );
        let witness = witness.expect("some schedule crashes p0");
        let out = shrink(
            &ShrinkConfig::default(),
            || sys(n),
            &witness,
            |run| crashed(&run.trace),
        )
        .expect("witness reproduces");
        // Minimal: deliver the trigger message, nothing else.
        assert_eq!(out.final_len, 1, "minimal witness is one delivery");
        assert!(out.final_len < out.initial_len);
        assert!(crashed(&out.run.trace));
        // Strict replayability of the shrunk witness.
        let replayed = replay(sys(n), &out.run.choices);
        assert_eq!(replayed, out.run.trace);
    }

    #[test]
    fn non_reproducing_witness_is_rejected() {
        // A predicate the witness's re-execution does not satisfy must be
        // rejected up front, not "shrunk" into vacuity.
        let never = shrink(&ShrinkConfig::default(), || sys(2), &[0], |_| false);
        assert!(never.is_none());
    }

    #[test]
    fn shrink_respects_the_replay_budget() {
        let out = shrink(
            &ShrinkConfig {
                max_replays: 3,
                canonicalize: true,
            },
            || sys(6),
            &[4, 3, 2, 1, 0],
            |run| crashed(&run.trace),
        );
        if let Some(out) = out {
            assert!(out.replays <= 3 + 1, "{}", out.replays);
        }
    }
}
