//! Exhaustiveness and pruning-soundness tests for the explorer.

use sfs_asys::{
    Context, FaultPlan, FixedLatency, Process, ProcessId, Sim, TraceEventKind, VirtualTime,
};
use sfs_explore::{class_fingerprint, explore, ExploreConfig, Pruning};
use sfs_history::History;
use std::collections::BTreeSet;

/// Each of two processes sends one message to the other.
struct PingPeer;
impl Process<u8> for PingPeer {
    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        let other = ProcessId::new(1 - ctx.id().index());
        ctx.send(other, ctx.id().index() as u8);
    }
    fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: u8) {}
}

fn two_process() -> Sim<u8> {
    Sim::<u8>::builder(2)
        .link(FixedLatency(1))
        .build(|_| Box::new(PingPeer))
}

#[test]
fn two_process_toy_visits_every_interleaving_exactly_once() {
    // Two concurrent deliveries (p0's message to p1, p1's to p0): the
    // schedule tree has exactly 2! = 2 interleavings.
    let cfg = ExploreConfig {
        pruning: Pruning::None,
        ..ExploreConfig::default()
    };
    let mut orders = Vec::new();
    let stats = explore(&cfg, two_process, |run| {
        let recvs: Vec<usize> = run
            .trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Recv { by, .. } => Some(by.index()),
                _ => None,
            })
            .collect();
        orders.push(recvs);
    });
    assert!(stats.complete, "tiny tree must be fully enumerated");
    assert_eq!(stats.visited, 2, "exactly every interleaving, once");
    orders.sort();
    assert_eq!(orders, vec![vec![0, 1], vec![1, 0]]);
}

/// Three processes: p0 and p1 each send one message to p2 AND exchange a
/// message with each other — a mix of dependent and independent steps.
struct Mesh;
impl Process<u8> for Mesh {
    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        let i = ctx.id().index();
        if i < 2 {
            ctx.send(ProcessId::new(2), 0);
            ctx.send(ProcessId::new(1 - i), 1);
        }
    }
    fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: u8) {}
}

fn mesh() -> Sim<u8> {
    Sim::<u8>::builder(3)
        .link(FixedLatency(1))
        .build(|_| Box::new(Mesh))
}

#[test]
fn sleep_set_pruning_preserves_class_coverage() {
    // Soundness: the pruned exploration must reach exactly the same set
    // of commutation classes (happens-before fingerprints) as the full
    // enumeration — with fewer executions.
    let classes = |pruning| {
        let mut set = BTreeSet::new();
        let stats = explore(
            &ExploreConfig {
                pruning,
                ..ExploreConfig::default()
            },
            mesh,
            |run| {
                set.insert(class_fingerprint(&History::from_trace_full(&run.trace)));
            },
        );
        assert!(stats.complete);
        (set, stats)
    };
    let (full, full_stats) = classes(Pruning::None);
    let (pruned, pruned_stats) = classes(Pruning::SleepSets);
    assert_eq!(full, pruned, "pruning must not lose a class");
    assert!(
        pruned_stats.visited < full_stats.visited,
        "pruning must help on independent steps: {} vs {}",
        pruned_stats.visited,
        full_stats.visited
    );
}

/// One sender floods p1; a crash injection for p1 is in the plan.
struct Flood;
impl Process<u8> for Flood {
    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        if ctx.id().index() == 0 {
            ctx.send(ProcessId::new(1), 0);
            ctx.send(ProcessId::new(1), 1);
        }
    }
    fn on_message(&mut self, _: &mut Context<'_, u8>, _: ProcessId, _: u8) {}
}

fn crashy() -> Sim<u8> {
    Sim::<u8>::builder(2)
        .link(FixedLatency(1))
        .faults(FaultPlan::new().crash_at(ProcessId::new(1), VirtualTime::from_ticks(50)))
        .build(|_| Box::new(Flood))
}

#[test]
fn crash_placements_are_enumerated() {
    // FIFO fixes the delivery order of the two messages, but the crash
    // may land before either, between them, or after both: the explorer
    // must produce all three outcomes (0, 1, or 2 messages received).
    let cfg = ExploreConfig {
        pruning: Pruning::None,
        ..ExploreConfig::default()
    };
    let mut received = BTreeSet::new();
    let stats = explore(&cfg, crashy, |run| {
        received.insert(run.trace.stats().messages_delivered);
    });
    assert!(stats.complete);
    assert_eq!(
        received.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2],
        "every crash placement relative to the deliveries"
    );
    // And pruning reaches the same three outcomes.
    let mut pruned = BTreeSet::new();
    let stats = explore(&ExploreConfig::default(), crashy, |run| {
        pruned.insert(run.trace.stats().messages_delivered);
    });
    assert!(stats.complete);
    assert_eq!(pruned.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
}
