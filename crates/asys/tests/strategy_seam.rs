//! Regression tests for the `Strategy` scheduler seam.
//!
//! The seam refactor must be invisible to existing users: a scheduled run
//! under [`TimeOrderedStrategy`] has to reproduce the default heap loop's
//! trace **byte-identically** (events, timestamps, stats, stop reason),
//! and any scheduled run must be replayable from its recorded choices.

use sfs_asys::{
    Context, FaultPlan, FixedLatency, Process, ProcessId, RandomStrategy, ReplayStrategy, Sim,
    SimBuilder, StopReason, TimeOrderedStrategy, TimerId, Trace, UniformLatency, VirtualTime,
};

/// A process exercising every action kind: sends on start, re-sends on
/// receipt (bounded), arms and cancels timers, declares failures, and
/// crashes itself late.
struct Churn {
    hops: u32,
}

impl Process<u32> for Churn {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        for peer in ctx.peers().collect::<Vec<_>>() {
            ctx.send(peer, 0);
        }
        let keep = ctx.set_timer(7);
        let drop = ctx.set_timer(9);
        ctx.cancel_timer(drop);
        let _ = keep;
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, msg: u32) {
        if msg < self.hops {
            ctx.send(from, msg + 1);
        }
        if msg == 2 && ctx.id().index() == 2 {
            ctx.declare_failed(from);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _timer: TimerId) {
        if ctx.id().index() == 1 {
            ctx.crash_self();
        }
    }
}

fn builder(seed: u64) -> SimBuilder<u32> {
    Sim::<u32>::builder(3)
        .seed(seed)
        .link(UniformLatency::new(1, 20))
        .faults(FaultPlan::new().crash_at(ProcessId::new(0), VirtualTime::from_ticks(40)))
}

fn run_default(seed: u64) -> Trace {
    builder(seed).build(|_| Box::new(Churn { hops: 4 })).run()
}

#[test]
fn time_ordered_strategy_reproduces_default_trace_byte_identically() {
    for seed in 0..25u64 {
        let baseline = run_default(seed);
        let (scheduled, log) = builder(seed)
            .strategy(TimeOrderedStrategy)
            .build(|_| Box::new(Churn { hops: 4 }))
            .run_scheduled();
        assert_eq!(
            baseline, scheduled,
            "seed {seed}: scheduled run diverged from the pre-seam engine"
        );
        assert_eq!(
            log.len(),
            log.choices().len(),
            "one choice per scheduling decision"
        );
    }
}

#[test]
fn run_routes_through_installed_strategy() {
    // `run()` with a strategy installed is the scheduled run.
    let via_run = builder(3)
        .strategy(TimeOrderedStrategy)
        .build(|_| Box::new(Churn { hops: 4 }))
        .run();
    assert_eq!(via_run, run_default(3));
}

#[test]
fn random_strategy_runs_are_deterministic_and_replayable() {
    let run_random = || {
        builder(11)
            .strategy(RandomStrategy::new(99))
            .build(|_| Box::new(Churn { hops: 4 }))
            .run_scheduled()
    };
    let (a, log_a) = run_random();
    let (b, log_b) = run_random();
    assert_eq!(a, b, "same seeds: identical scheduled run");
    assert_eq!(log_a, log_b);

    // Replaying the recorded choices reproduces the run exactly.
    let (replayed, replay_log) = builder(11)
        .strategy(ReplayStrategy::new(log_a.choices()))
        .build(|_| Box::new(Churn { hops: 4 }))
        .run_scheduled();
    assert_eq!(replayed, a, "choice trace must replay byte-identically");
    assert_eq!(replay_log.choices(), log_a.choices());
}

#[test]
fn adversarial_schedules_reach_states_time_order_does_not() {
    // Under time order with symmetric fixed latency, p1's broadcast and
    // p2's broadcast deliver in lockstep. A random adversary can starve
    // one channel for many steps; assert that some seed produces an
    // event order the time-ordered schedule never shows.
    let time_ordered = builder(5)
        .link(FixedLatency(3))
        .build(|_| Box::new(Churn { hops: 4 }))
        .run();
    let mut diverged = false;
    for seed in 0..10 {
        let (t, _) = builder(5)
            .link(FixedLatency(3))
            .strategy(RandomStrategy::new(seed))
            .build(|_| Box::new(Churn { hops: 4 }))
            .run_scheduled();
        if t.events() != time_ordered.events() {
            diverged = true;
        }
    }
    assert!(diverged, "random scheduling never changed the event order");
}

#[test]
fn step_budget_stops_scheduled_runs() {
    let (trace, log) = builder(1)
        .max_steps(4)
        .strategy(TimeOrderedStrategy)
        .build(|_| Box::new(Churn { hops: 4 }))
        .run_scheduled();
    assert_eq!(trace.stop_reason(), StopReason::MaxSteps);
    assert_eq!(log.len(), 4);
    assert!(!trace.stop_reason().is_complete());
}

#[test]
fn enabled_sets_are_exposed_and_canonical() {
    // The log's first decision must offer every on-start send plus the
    // injected crash, in creation order (fault-plan entries first).
    let (_, log) = builder(2)
        .strategy(TimeOrderedStrategy)
        .build(|_| Box::new(Churn { hops: 4 }))
        .run_scheduled();
    let first = &log.steps[0];
    assert!(!first.enabled.is_empty());
    let orders: Vec<u64> = first.enabled.iter().map(|s| s.order).collect();
    let mut sorted = orders.clone();
    sorted.sort_unstable();
    assert_eq!(orders, sorted, "enabled list is creation-ordered");
    assert!(
        first
            .enabled
            .iter()
            .any(|s| matches!(s.kind, sfs_asys::StepKind::Inject { pid } if pid.index() == 0)),
        "the scheduled crash injection is visible as an enabled step"
    );
}
