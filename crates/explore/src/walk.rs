//! The random-walk fallback for instances too large to enumerate.
//!
//! The schedule tree grows factorially; past a handful of concurrent
//! steps, bounded-exhaustive DFS stops being feasible and the explorer
//! degrades to sampling: independent depth-bounded walks, each driven by
//! a seeded [`RandomStrategy`] that picks uniformly among the enabled
//! steps. Unlike the latency-randomized default engine, the walk
//! adversary ignores virtual time entirely, so it reaches schedules
//! (long starvations, pathological reorderings) that no latency draw
//! makes likely. Walks can only *find* violations, never certify their
//! absence — [`ExploreStats::complete`] is always `false` here.

use crate::dfs::{ExploreStats, ScheduleRun};
use sfs_asys::{RandomStrategy, Sim};
use std::fmt;

/// Budgets for a random-walk sweep.
#[derive(Debug, Clone, Copy)]
pub struct WalkConfig {
    /// Number of independent walks.
    pub walks: usize,
    /// Depth bound per walk (scheduling decisions).
    pub max_steps: usize,
    /// Base seed; walk `i` uses `seed + i`, so a sweep is fully
    /// deterministic and any single walk can be re-run in isolation.
    pub seed: u64,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            walks: 64,
            max_steps: 4096,
            seed: 0,
        }
    }
}

/// Runs `config.walks` random schedules of the system produced by
/// `build`, invoking `visit` for each. Every walk's choices are recorded,
/// so a violating walk replays exactly via [`replay`](crate::replay).
pub fn random_walks<M, F>(
    config: &WalkConfig,
    mut build: F,
    mut visit: impl FnMut(ScheduleRun),
) -> ExploreStats
where
    M: Clone + fmt::Debug + 'static,
    F: FnMut() -> Sim<M>,
{
    let mut stats = ExploreStats::default();
    for walk in 0..config.walks {
        let mut sim = build();
        sim.set_max_steps(config.max_steps);
        sim.set_strategy(RandomStrategy::new(config.seed.wrapping_add(walk as u64)));
        let (trace, log) = sim.run_scheduled();
        stats.schedules += 1;
        stats.visited += 1;
        stats.steps += log.len() as u64;
        let truncated = !trace.stop_reason().is_complete();
        if truncated {
            stats.truncated += 1;
        }
        visit(ScheduleRun {
            trace,
            choices: log.choices(),
            truncated,
        });
    }
    // Sampling never certifies.
    stats.complete = false;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay;
    use sfs_asys::{Context, FixedLatency, Process, ProcessId};

    struct Chat;
    impl Process<u8> for Chat {
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            ctx.broadcast(0, false);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u8>, from: ProcessId, msg: u8) {
            if msg < 2 {
                ctx.send(from, msg + 1);
            }
        }
    }

    fn sim() -> Sim<u8> {
        Sim::<u8>::builder(3)
            .link(FixedLatency(1))
            .build(|_| Box::new(Chat))
    }

    #[test]
    fn walks_are_deterministic_and_replayable() {
        let collect = || {
            let mut runs = Vec::new();
            random_walks(
                &WalkConfig {
                    walks: 8,
                    ..WalkConfig::default()
                },
                sim,
                |r| runs.push(r),
            );
            runs
        };
        let a = collect();
        let b = collect();
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace, y.trace, "sweep must be deterministic");
        }
        for run in &a {
            assert_eq!(replay(sim(), &run.choices), run.trace);
        }
    }

    #[test]
    fn walks_never_claim_completeness() {
        let stats = random_walks(&WalkConfig::default(), sim, |_| {});
        assert!(!stats.complete);
        assert_eq!(stats.schedules, WalkConfig::default().walks);
    }
}
