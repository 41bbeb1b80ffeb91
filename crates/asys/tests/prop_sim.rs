//! Property-based tests for the simulation engine's core guarantees:
//! determinism, per-channel FIFO, crash finality, and message
//! conservation.

use proptest::prelude::*;
use sfs_asys::{
    Context, FaultPlan, Process, ProcessId, Sim, Trace, TraceEventKind, UniformLatency, VirtualTime,
};
use std::collections::HashMap;

/// A process that, on start, sends a scripted number of messages to each
/// peer, and echoes nothing.
struct Scripted {
    /// Messages to send to each destination index at start.
    plan: Vec<usize>,
}

impl Process<u32> for Scripted {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        for (dst, &count) in self.plan.iter().enumerate() {
            for k in 0..count {
                ctx.send(ProcessId::new(dst), k as u32);
            }
        }
    }
    fn on_message(&mut self, _: &mut Context<'_, u32>, _: ProcessId, _: u32) {}
}

/// A process that relays each received message to a fixed next hop,
/// bounded by a hop counter in the payload.
struct Relay {
    next: usize,
}

impl Process<u32> for Relay {
    fn on_start(&mut self, _: &mut Context<'_, u32>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, msg: u32) {
        if msg > 0 {
            ctx.send(ProcessId::new(self.next), msg - 1);
        }
    }
}

fn scripted_run(n: usize, plans: Vec<Vec<usize>>, seed: u64, lat_max: u64) -> Trace {
    let sim = Sim::<u32>::builder(n)
        .seed(seed)
        .link(UniformLatency::new(1, lat_max.max(1)))
        .build(|pid| {
            Box::new(Scripted {
                plan: plans[pid.index()].clone(),
            })
        });
    sim.run()
}

fn arb_plans(n: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..5, n), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identical inputs produce identical traces, always.
    #[test]
    fn runs_are_deterministic(
        n in 2usize..6,
        seed in any::<u64>(),
        lat in 1u64..40,
        plans_seed in 0usize..1000,
    ) {
        let plans: Vec<Vec<usize>> =
            (0..n).map(|i| (0..n).map(|j| (i * 7 + j * 3 + plans_seed) % 4).collect()).collect();
        let a = scripted_run(n, plans.clone(), seed, lat);
        let b = scripted_run(n, plans, seed, lat);
        prop_assert_eq!(a, b);
    }

    /// Receives on every channel happen in send order (FIFO), and every
    /// receive has a prior matching send.
    #[test]
    fn fifo_per_channel(
        n in 2usize..6,
        seed in any::<u64>(),
        lat in 1u64..60,
        plans in (2usize..6).prop_flat_map(arb_plans),
    ) {
        prop_assume!(plans.len() >= n && plans.iter().all(|p| p.len() >= n));
        let plans: Vec<Vec<usize>> =
            plans.into_iter().take(n).map(|p| p.into_iter().take(n).collect()).collect();
        let trace = scripted_run(n, plans, seed, lat);
        let mut last_seq: HashMap<(ProcessId, ProcessId), u64> = HashMap::new();
        let mut sent: HashMap<(ProcessId, ProcessId), Vec<u64>> = HashMap::new();
        for e in trace.events() {
            match e.kind {
                TraceEventKind::Send { from, to, msg, .. } => {
                    sent.entry((from, to)).or_default().push(msg.seq());
                }
                TraceEventKind::Recv { by, from, msg, .. } => {
                    let channel = (from, by);
                    if let Some(&prev) = last_seq.get(&channel) {
                        prop_assert!(
                            msg.seq() > prev,
                            "channel {from}->{by}: {} after {}", msg.seq(), prev
                        );
                    }
                    last_seq.insert(channel, msg.seq());
                    prop_assert!(
                        sent.get(&channel).is_some_and(|s| s.contains(&msg.seq())),
                        "recv of unsent message"
                    );
                }
                _ => {}
            }
        }
    }

    /// A crashed process executes no further events, under arbitrary crash
    /// schedules.
    #[test]
    fn crash_finality(
        n in 2usize..6,
        seed in any::<u64>(),
        crash_times in prop::collection::vec(1u64..100, 1..4),
    ) {
        let mut plan = FaultPlan::new();
        for (i, &at) in crash_times.iter().enumerate() {
            plan = plan.crash_at(ProcessId::new(i % n), VirtualTime::from_ticks(at));
        }
        let sim = Sim::<u32>::builder(n)
            .seed(seed)
            .faults(plan)
            .build(|_| Box::new(Relay { next: 0 }));
        let trace = sim.run();
        let mut crashed_at: HashMap<ProcessId, usize> = HashMap::new();
        for e in trace.events() {
            if let TraceEventKind::Crash { pid } = e.kind {
                crashed_at.entry(pid).or_insert(e.seq);
            }
        }
        for e in trace.events() {
            let p = e.kind.process();
            if let Some(&c) = crashed_at.get(&p) {
                prop_assert!(
                    e.seq <= c,
                    "event {e} of {p} after its crash at {c}"
                );
            }
        }
    }

    /// Message conservation: delivered + to-crashed + still-in-channel
    /// equals sent. On a quiescent run with no crashes, delivered == sent.
    #[test]
    fn message_conservation_without_crashes(
        n in 2usize..6,
        seed in any::<u64>(),
        plans in (2usize..6).prop_flat_map(arb_plans),
    ) {
        prop_assume!(plans.len() >= n && plans.iter().all(|p| p.len() >= n));
        let plans: Vec<Vec<usize>> =
            plans.into_iter().take(n).map(|p| p.into_iter().take(n).collect()).collect();
        let trace = scripted_run(n, plans, seed, 10);
        prop_assert_eq!(trace.stats().messages_delivered, trace.stats().messages_sent);
        prop_assert_eq!(trace.stats().messages_to_crashed, 0);
    }

    /// Relay chains terminate and the hop budget bounds total traffic.
    #[test]
    fn relay_chains_terminate(
        n in 2usize..5,
        seed in any::<u64>(),
        hops in 1u32..20,
    ) {
        struct Kick { hops: u32 }
        impl Process<u32> for Kick {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(ProcessId::new(1 % ctx.n()), self.hops);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, msg: u32) {
                if msg > 0 {
                    let next = (ctx.id().index() + 1) % ctx.n();
                    ctx.send(ProcessId::new(next), msg - 1);
                }
            }
        }
        let sim = Sim::<u32>::builder(n).seed(seed).build(|pid| {
            if pid.index() == 0 {
                Box::new(Kick { hops }) as Box<dyn Process<u32>>
            } else {
                Box::new(Relay { next: (pid.index() + 1) % n })
            }
        });
        let trace = sim.run();
        prop_assert!(trace.stop_reason().is_complete());
        prop_assert_eq!(trace.stats().messages_sent, u64::from(hops) + 1);
    }
}
