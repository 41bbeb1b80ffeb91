//! Bounded-exhaustive depth-first exploration of the schedule tree.
//!
//! # The schedule tree
//!
//! A scheduled run of [`Sim`] is a path in a tree: each node is a global
//! state, each edge one enabled step (a deliverable channel head, an
//! armed timer, a pending crash/stimulus injection). The simulator cannot
//! be snapshotted — processes are opaque boxed automata — so the explorer
//! is **stateless** in the model-checking sense: every schedule is
//! produced by re-executing the system from its initial state under a
//! guided strategy that follows a prescribed choice prefix and then
//! free-runs. Determinism of the engine guarantees that equal prefixes
//! reach equal states, which is what makes the recorded
//! [`ScheduleLog`](sfs_asys::ScheduleLog)s comparable across executions
//! and every explored schedule replayable from its [`ChoiceTrace`].
//!
//! # Partial-order pruning (sleep sets)
//!
//! Exhaustive enumeration is factorial in the number of concurrent
//! steps, but most interleavings are equivalent: two enabled steps with
//! distinct *loci* (the process whose state they touch, see
//! [`StepKind::locus`](sfs_asys::StepKind::locus)) commute — executing them in either order yields
//! the same global state, the same per-process event sequences, and
//! therefore the same happens-before relation (`hb.rs` proves HB depends
//! only on per-process order and send/receive matching). Every property
//! the explorer certifies is invariant under such commutations: FS1 and
//! sFS2a–c depend on the event set and per-process order, sFS2d and
//! Condition 3 on happens-before, and "does an isomorphic fail-stop run
//! exist" ([`rearrange_to_fs`]) on the constraint graph built from
//! happens-before — the paper's own Theorem 5 rests on exactly this
//! invariance. (Raw FS2 *is* interleaving-sensitive, which is why the
//! explorer reports rearrangeability, the isomorphism-invariant version
//! of it, instead.)
//!
//! [`Pruning::SleepSets`] exploits this with Godefroid-style sleep sets:
//! after a child `a` of node `s` is fully explored, `a` is put to sleep
//! at `s`; siblings explored later pass the sleep set down, waking any
//! step that is *dependent* on (shares a locus with) the step taken.
//! Schedules that begin with a sleeping step are exactly those
//! equivalent, by a sequence of adjacent commutations, to one already
//! explored, so subtrees whose every enabled step sleeps are skipped
//! entirely. One representative per Mazurkiewicz trace class survives;
//! verdicts are unchanged. On top of this, *no-op steps* (deliveries,
//! timers, and injections whose target already crashed or whose timer
//! was cancelled — see [`EnabledStep::noop`]) are executed immediately
//! without branching: they run no process code, record no event, and
//! commute with everything.
//!
//! [`rearrange_to_fs`]: sfs_history::rearrange_to_fs
//! [`Sim`]: sfs_asys::Sim

use sfs_asys::{ChoiceTrace, EnabledStep, ProcessId, Sim, Strategy, Trace};
use std::fmt;

/// Which redundant-schedule elimination the DFS applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pruning {
    /// Enumerate every interleaving (no equivalence reduction). The
    /// choice for differential tests and for counting interleavings.
    None,
    /// Sleep-set pruning over the locus-disjointness independence
    /// relation, plus forced execution of no-op steps: one
    /// representative per commutation-equivalence class. Sound for every
    /// interleaving-invariant verdict (see the module docs) — **provided
    /// process handlers are functions of (local state, delivered event)
    /// alone**, the determinism the paper's model and the
    /// [`Process`](sfs_asys::Process) contract already assume. Handlers
    /// that read ambient simulator state — the virtual clock
    /// ([`Context::now`](sfs_asys::Context::now)), a shared
    /// [`CrashRegistry`](sfs_asys::CrashRegistry), the shared RNG — can
    /// observe *when* their step ran relative to steps at other loci, so
    /// commuting locus-disjoint steps stops being behaviour-preserving
    /// and a "complete" pruned exploration could falsely certify. For
    /// such systems use [`Pruning::None`] or [`random_walks`].
    ///
    /// [`random_walks`]: crate::random_walks
    #[default]
    SleepSets,
}

/// Budgets and policy for one exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Per-schedule depth bound: scheduling decisions before the run is
    /// truncated ([`StopReason::MaxSteps`](sfs_asys::StopReason)).
    pub max_steps: usize,
    /// Total executed-schedule budget; exploration reports
    /// `complete = false` when it runs out.
    pub max_schedules: usize,
    /// Redundancy elimination.
    pub pruning: Pruning,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_steps: 256,
            max_schedules: 1_000_000,
            pruning: Pruning::SleepSets,
        }
    }
}

/// Aggregate counters for one exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Schedules executed (including redundant ones cut before visiting).
    pub schedules: usize,
    /// Schedules handed to the visitor.
    pub visited: usize,
    /// Total scheduling decisions across all executions.
    pub steps: u64,
    /// Children skipped because they were asleep when their node was
    /// exhausted — interleavings proven redundant without executing them.
    pub sleep_skips: u64,
    /// Siblings never branched on because a no-op step was forced.
    pub forced_skips: u64,
    /// Executed schedules discarded as redundant (every enabled step of
    /// some reached node was asleep).
    pub redundant: usize,
    /// Schedules truncated by the depth bound (or an engine budget).
    pub truncated: usize,
    /// Whether the (pruned) tree was fully enumerated: no truncation and
    /// the schedule budget was not exhausted. Only a `complete`
    /// exploration certifies a property.
    pub complete: bool,
}

impl ExploreStats {
    /// Folds another exploration's counters into this one — the
    /// order-preserving reduction step when a tree is explored one root
    /// branch per task. The merged result is `complete` only if every
    /// part was.
    pub fn absorb(&mut self, other: &ExploreStats) {
        self.schedules += other.schedules;
        self.visited += other.visited;
        self.steps += other.steps;
        self.sleep_skips += other.sleep_skips;
        self.forced_skips += other.forced_skips;
        self.redundant += other.redundant;
        self.truncated += other.truncated;
        self.complete &= other.complete;
    }
}

/// One explored schedule, as handed to the visitor.
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// The trace of the execution.
    pub trace: Trace,
    /// The choice sequence that reproduces it (feed to
    /// [`ReplayStrategy`](sfs_asys::ReplayStrategy), or to
    /// [`replay`]).
    pub choices: ChoiceTrace,
    /// Whether the run hit the depth bound (its verdict on liveness
    /// properties is then only partial).
    pub truncated: bool,
}

/// A sleeping or explored step identity: `(order, locus)`. The engine's
/// creation-sequence `order` is unique per step and stable across
/// executions sharing the choice prefix that created the step.
type StepId = (u64, ProcessId);

fn id_of(step: &EnabledStep) -> StepId {
    (step.order, step.kind.locus())
}

fn contains(set: &[StepId], step: &EnabledStep) -> bool {
    set.iter().any(|&(order, _)| order == step.order)
}

/// Sleep-set propagation: executing `chosen` wakes (removes) every
/// sleeping step dependent on it — those sharing its locus.
fn propagate(sleep: &mut Vec<StepId>, chosen: &EnabledStep) {
    let locus = chosen.kind.locus();
    sleep.retain(|&(_, l)| l != locus);
}

/// One node of the current DFS path.
#[derive(Debug, Clone)]
struct Frame {
    enabled: Vec<EnabledStep>,
    /// Steps asleep on entry to this node.
    sleep_in: Vec<StepId>,
    /// Children fully explored from this node (they join the sleep set
    /// for later siblings).
    done: Vec<StepId>,
    /// Index (into `enabled`) of the child currently being explored.
    chosen: usize,
    /// A no-op step was executed here without branching; the node has
    /// exactly one child.
    forced: bool,
    /// Pinned by an external prefix (root-branch parallelism): never
    /// advanced past its prescribed child.
    pinned: bool,
}

/// The guided strategy: follows the prescribed prefix, then free-runs —
/// forcing no-op steps and respecting the propagated sleep set when
/// pruning is on, first-enabled otherwise.
struct GuidedStrategy {
    script: Vec<u32>,
    pos: usize,
    /// Sleep set, valid from the first free node on (seeded by the
    /// explorer with the frontier node's sleep-in set).
    sleep: Vec<StepId>,
    prune: bool,
}

impl Strategy for GuidedStrategy {
    fn choose(&mut self, enabled: &[EnabledStep]) -> usize {
        let scripted = self.pos < self.script.len();
        let idx = if scripted {
            let c = self.script[self.pos] as usize;
            debug_assert!(c < enabled.len(), "stale script: prefix not reproducible");
            c
        } else if self.prune {
            enabled
                .iter()
                .position(|s| s.noop)
                .or_else(|| enabled.iter().position(|s| !contains(&self.sleep, s)))
                // Every enabled step asleep: the subtree is redundant.
                // Pick canonically; the explorer detects this from the
                // log and discards the run.
                .unwrap_or(0)
        } else {
            0
        };
        if !scripted && self.prune {
            propagate(&mut self.sleep, &enabled[idx]);
        }
        self.pos += 1;
        idx
    }
}

/// Explores the schedule tree of the system produced by `build`,
/// invoking `visit` once per non-redundant schedule, in deterministic
/// depth-first order.
///
/// `build` must produce the *same* system every time it is called (same
/// processes, same fault plan, same seed): the explorer re-executes it
/// once per schedule. Any strategy installed by the factory is replaced.
///
/// See [`ExploreConfig`] for budgets and [`ExploreStats::complete`] for
/// whether the enumeration finished — only then do universally-quantified
/// verdicts ("no schedule violates P") follow.
pub fn explore<M, F>(
    config: &ExploreConfig,
    build: F,
    visit: impl FnMut(ScheduleRun),
) -> ExploreStats
where
    M: Clone + fmt::Debug + 'static,
    F: FnMut() -> Sim<M>,
{
    explore_with_prefix(config, &[], build, visit)
}

/// [`explore`], restricted to the subtree under a fixed choice prefix.
///
/// This is the unit of parallelism for experiment E9: enumerate the root
/// node's enabled steps once (via [`probe_width`]), then explore each
/// root branch in its own task. Sleep sets do not propagate across
/// pinned prefix nodes, so the union of the per-branch explorations may
/// revisit classes a sequential run would have pruned — sound, merely
/// less sharp.
pub fn explore_with_prefix<M, F>(
    config: &ExploreConfig,
    prefix: &[u32],
    mut build: F,
    mut visit: impl FnMut(ScheduleRun),
) -> ExploreStats
where
    M: Clone + fmt::Debug + 'static,
    F: FnMut() -> Sim<M>,
{
    let prune = config.pruning == Pruning::SleepSets;
    let mut stats = ExploreStats::default();
    let mut path: Vec<Frame> = Vec::new();
    let mut exhausted = false;
    loop {
        if stats.schedules > 0 {
            // Advance to the next unexplored branch, popping finished
            // frames.
            loop {
                let Some(frame) = path.last_mut() else {
                    exhausted = true;
                    break;
                };
                frame.done.push(id_of(&frame.enabled[frame.chosen]));
                if frame.forced || frame.pinned {
                    if frame.forced {
                        stats.forced_skips += frame.enabled.len() as u64 - 1;
                    }
                    path.pop();
                    continue;
                }
                let next = frame.enabled.iter().position(|s| {
                    !(contains(&frame.done, s) || prune && contains(&frame.sleep_in, s))
                });
                match next {
                    Some(i) => {
                        frame.chosen = i;
                        break;
                    }
                    None => {
                        stats.sleep_skips += (frame.enabled.len() - frame.done.len()) as u64;
                        path.pop();
                    }
                }
            }
            if exhausted {
                break;
            }
        }
        if stats.schedules >= config.max_schedules {
            break;
        }

        // Prescribe the current path and execute one schedule.
        let script: Vec<u32> = prefix
            .iter()
            .copied()
            .chain(path.iter().skip(prefix.len()).map(|f| f.chosen as u32))
            .collect();
        debug_assert!(path.is_empty() || script.len() == path.len());
        let frontier_sleep = match path.last() {
            Some(f) => {
                let mut sleep: Vec<StepId> =
                    f.sleep_in.iter().chain(f.done.iter()).copied().collect();
                propagate(&mut sleep, &f.enabled[f.chosen]);
                sleep
            }
            None => Vec::new(),
        };
        let mut sim = build();
        sim.set_max_steps(config.max_steps);
        sim.set_strategy(GuidedStrategy {
            script: script.clone(),
            pos: 0,
            sleep: frontier_sleep.clone(),
            prune,
        });
        let (trace, log) = sim.run_scheduled();
        stats.schedules += 1;
        stats.steps += log.len() as u64;

        // Reconstruct frames for the newly-executed free suffix, mirroring
        // the strategy's sleep propagation, and detect redundant nodes.
        let mut sleep = frontier_sleep;
        let mut redundant = false;
        for (depth, step) in log.steps.iter().enumerate() {
            if depth < path.len() {
                debug_assert_eq!(
                    step.chosen as usize, path[depth].chosen,
                    "determinism violation: prefix diverged on re-execution"
                );
                continue;
            }
            let forced = prune && step.enabled.iter().any(|s| s.noop);
            if prune && !forced && step.enabled.iter().all(|s| contains(&sleep, s)) {
                redundant = true;
                break;
            }
            path.push(Frame {
                enabled: step.enabled.clone(),
                sleep_in: sleep.clone(),
                done: Vec::new(),
                chosen: step.chosen as usize,
                forced,
                pinned: depth < prefix.len(),
            });
            propagate(&mut sleep, &step.enabled[step.chosen as usize]);
        }

        if redundant {
            stats.redundant += 1;
            continue;
        }
        let truncated = !trace.stop_reason().is_complete();
        if truncated {
            stats.truncated += 1;
        }
        stats.visited += 1;
        visit(ScheduleRun {
            trace,
            choices: log.choices(),
            truncated,
        });
    }
    stats.complete = exhausted && stats.truncated == 0;
    stats
}

/// Runs one canonical schedule and returns the branching width of the
/// root node (0 when the system has no step at all) — the number of
/// subtrees [`explore_with_prefix`] can fan out over.
pub fn probe_width<M, F>(mut build: F) -> usize
where
    M: Clone + fmt::Debug + 'static,
    F: FnMut() -> Sim<M>,
{
    let mut sim = build();
    // One decision is enough to see the root's enabled set.
    sim.set_max_steps(1);
    sim.set_strategy(GuidedStrategy {
        script: Vec::new(),
        pos: 0,
        sleep: Vec::new(),
        prune: false,
    });
    let (_, log) = sim.run_scheduled();
    log.steps.first().map_or(0, |s| s.enabled.len())
}

/// Replays a recorded choice trace against a fresh instance of the same
/// system and returns its trace — byte-identical to the recorded run.
/// The witness-reproduction path for explored violations.
///
/// The run is bounded to exactly `choices.len()` decisions, so witnesses
/// recorded from depth-truncated schedules reproduce the truncated trace
/// (rather than free-running past the point the violation was observed);
/// recordings that ended in quiescence still replay to quiescence, since
/// the engine checks terminal conditions before the step budget.
pub fn replay<M>(mut sim: Sim<M>, choices: &[u32]) -> Trace
where
    M: Clone + fmt::Debug + 'static,
{
    sim.set_max_steps(choices.len());
    sim.set_strategy(sfs_asys::ReplayStrategy::new(choices.to_vec()));
    sim.run_scheduled().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_asys::{Context, FixedLatency, Process};

    /// `k` sender processes each send one message to a common sink.
    struct OneShot {
        target: ProcessId,
    }
    impl Process<u8> for OneShot {
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            if ctx.id() != self.target {
                ctx.send(self.target, ctx.id().index() as u8);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: u8) {}
    }

    fn star(n: usize) -> Sim<u8> {
        Sim::<u8>::builder(n).link(FixedLatency(1)).build(|_| {
            Box::new(OneShot {
                target: ProcessId::new(n - 1),
            })
        })
    }

    #[test]
    fn unpruned_star_counts_interleavings() {
        // k = 3 senders to one sink: 3 concurrent sends interleave with
        // the (FIFO-independent) deliveries. The send steps... are not
        // steps at all (sends happen inside on_start); the schedule tree
        // branches only over the 3 deliveries: 3! = 6 interleavings.
        let cfg = ExploreConfig {
            pruning: Pruning::None,
            ..ExploreConfig::default()
        };
        let mut seen = Vec::new();
        let stats = explore(&cfg, || star(4), |run| seen.push(run.choices.clone()));
        assert_eq!(stats.visited, 6);
        assert!(stats.complete);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6, "each interleaving visited exactly once");
    }

    #[test]
    fn sleep_sets_collapse_equivalent_deliveries_to_one_class() {
        // All three deliveries share the sink locus, so they are pairwise
        // DEPENDENT: sleep sets must not prune anything here.
        let cfg = ExploreConfig::default();
        let stats = explore(&cfg, || star(4), |_| {});
        assert_eq!(stats.visited, 6, "dependent steps are never pruned");
        assert!(stats.complete);
    }

    /// Two disjoint sender→sink pairs: the deliveries are independent.
    struct Pairs;
    impl Process<u8> for Pairs {
        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            let i = ctx.id().index();
            if i % 2 == 0 {
                ctx.send(ProcessId::new(i + 1), 0);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: u8) {}
    }

    fn pairs() -> Sim<u8> {
        Sim::<u8>::builder(4)
            .link(FixedLatency(1))
            .build(|_| Box::new(Pairs))
    }

    #[test]
    fn sleep_sets_prune_independent_interleavings() {
        let full = explore(
            &ExploreConfig {
                pruning: Pruning::None,
                ..ExploreConfig::default()
            },
            pairs,
            |_| {},
        );
        assert_eq!(full.visited, 2, "two independent deliveries: 2 orders");
        let pruned = explore(&ExploreConfig::default(), pairs, |_| {});
        assert_eq!(
            pruned.visited, 1,
            "one representative of the single commutation class"
        );
        assert!(pruned.complete);
        assert!(pruned.sleep_skips + pruned.redundant as u64 > 0);
    }

    #[test]
    fn every_schedule_is_replayable() {
        let mut runs = Vec::new();
        let stats = explore(
            &ExploreConfig {
                pruning: Pruning::None,
                ..ExploreConfig::default()
            },
            || star(3),
            |run| runs.push(run),
        );
        assert!(stats.complete);
        for run in runs {
            let replayed = replay(star(3), &run.choices);
            assert_eq!(replayed, run.trace, "replay must be byte-identical");
        }
    }

    #[test]
    fn depth_bound_truncates_and_reports_incomplete() {
        let cfg = ExploreConfig {
            max_steps: 1,
            pruning: Pruning::None,
            ..ExploreConfig::default()
        };
        let stats = explore(&cfg, || star(4), |run| assert!(run.truncated));
        assert!(!stats.complete);
        assert!(stats.truncated > 0);
    }

    #[test]
    fn schedule_budget_is_respected() {
        let cfg = ExploreConfig {
            max_schedules: 2,
            pruning: Pruning::None,
            ..ExploreConfig::default()
        };
        let stats = explore(&cfg, || star(4), |_| {});
        assert_eq!(stats.schedules, 2);
        assert!(!stats.complete);
    }

    #[test]
    fn prefix_partition_covers_the_whole_tree() {
        let width = probe_width(|| star(4));
        assert_eq!(width, 3);
        let mut total = 0;
        for branch in 0..width {
            let stats = explore_with_prefix(
                &ExploreConfig {
                    pruning: Pruning::None,
                    ..ExploreConfig::default()
                },
                &[branch as u32],
                || star(4),
                |_| {},
            );
            assert!(stats.complete);
            total += stats.visited;
        }
        assert_eq!(total, 6, "root partition covers every interleaving once");
    }
}
