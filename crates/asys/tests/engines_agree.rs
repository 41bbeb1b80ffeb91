//! The simulator and the threaded runtime drive one engine core, so on a
//! run whose outcome does not hinge on how the events of one instant are
//! ordered they must agree exactly: same counters, same messages received
//! on every channel, both drained.
//!
//! The relay below is built to be such a run. Every process forwards each
//! token it receives to its ring successor with one hop less, so a
//! process only ever receives on one channel and sends in the order that
//! channel delivered; the link delay is fixed; a receive filter refuses
//! odd tokens until each process's timer fires; the fault plan crashes
//! the last process mid-relay and injects a fresh token at `p0`. Parking,
//! unparking at the timer, copies consumed at a crash, plan entries
//! preceding same-instant deliveries and the classifier and measure hooks
//! all take part.
//!
//! The runtime runs one [`Host`](sfs_asys::Host) per process, as the UDP
//! backend does, so this is also the check that a system of hosts counts
//! what the simulator counts.
//!
//! The runtime with its recorder off must end the same relay the same
//! way: the summary it returns equals the recorded run's, batches
//! included, and its sink is offered every event the recorded run kept.

use sfs_asys::net::{Runtime, RuntimeConfig};
use sfs_asys::{
    Context, EventSink, EventSinkHandle, FaultPlan, FixedLatency, Interest, Process, ProcessId,
    ReceiveFilter, Sim, Text, TimerId, Trace, TraceEvent, TraceEventKind, VirtualTime,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Ticks every copy spends on the link.
const DELAY: u64 = 2;
/// When each process's filter opens to odd tokens.
const OPEN_AFTER: u64 = 9;
/// When the fault plan injects a token (of this many hops) at `p0`.
const EXTERNAL: (u64, u32) = (5, 7);

struct Relay;

fn forward(ctx: &mut Context<'_, u32>, hops: u32) {
    let next = ProcessId::new((ctx.id().index() + 1) % ctx.n());
    ctx.send(next, hops);
}

impl Process<u32> for Relay {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.set_receive_filter(Some(ReceiveFilter::new(|hops: &u32| {
            hops.is_multiple_of(2)
        })));
        ctx.set_timer(OPEN_AFTER);
        for hops in [4, 3, 6, 5] {
            forward(ctx, hops);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, hops: u32) {
        if hops > 0 {
            forward(ctx, hops - 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _: TimerId) {
        ctx.set_receive_filter(None);
    }

    fn on_external(&mut self, ctx: &mut Context<'_, u32>, hops: u32) {
        forward(ctx, hops);
    }
}

/// The last process crashes mid-relay. Alone, it is also the only
/// process, and an all-crashed simulator stops on the spot with copies
/// still in flight that the runtime would go on consuming — so then its
/// crash waits until the relay is over.
fn plan(n: usize) -> FaultPlan<u32> {
    let crash_at = if n == 1 { 1_000 } else { 7 };
    FaultPlan::new()
        .crash_at(ProcessId::new(n - 1), VirtualTime::from_ticks(crash_at))
        .external_at(
            ProcessId::new(0),
            VirtualTime::from_ticks(EXTERNAL.0),
            EXTERNAL.1,
        )
}

fn infra(hops: &u32) -> bool {
    hops.is_multiple_of(3)
}

fn wire_cost(hops: &u32) -> u64 {
    u64::from(*hops) + 1
}

fn on_sim(n: usize) -> Trace {
    Sim::builder(n)
        .link(FixedLatency(DELAY))
        .faults(plan(n))
        .classify(infra)
        .measure(wire_cost)
        .build(|_| Box::new(Relay))
        .run()
}

/// The relay's configuration on the runtime.
fn config(n: usize, record: bool, sink: Option<EventSinkHandle>) -> RuntimeConfig<u32> {
    RuntimeConfig {
        link: Some(Box::new(FixedLatency(DELAY))),
        record,
        faults: plan(n),
        classify: Some(Arc::new(infra)),
        measure: Some(Arc::new(wire_cost)),
        sink,
        ..RuntimeConfig::default()
    }
}

/// The relay on the runtime, settled and not yet shut down.
fn settled_runtime(n: usize, record: bool, sink: Option<EventSinkHandle>) -> Runtime<u32> {
    let rt = Runtime::spawn(n, config(n, record, sink), |_| Box::new(Relay));
    assert!(
        rt.drain(Duration::from_secs(10)),
        "n={n}: relay must settle"
    );
    rt
}

fn on_runtime(n: usize) -> Trace {
    settled_runtime(n, true, None).shutdown()
}

/// Counts every event it is offered.
#[derive(Default)]
struct Count(AtomicUsize);

impl EventSink for Count {
    fn on_event(&self, _: &TraceEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    fn interest(&self) -> Interest {
        Interest::ALL
    }
}

impl Count {
    /// A fresh counter and a sink handle feeding it.
    fn attached() -> (Arc<Count>, Option<EventSinkHandle>) {
        let count = Arc::new(Count::default());
        let handle = EventSinkHandle::new(count.clone());
        (count, Some(handle))
    }

    fn seen(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// Every channel's received messages (id and class), sorted.
fn received<'a>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
) -> BTreeMap<(ProcessId, ProcessId), Vec<(u64, bool)>> {
    let mut channels: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for e in events {
        if let TraceEventKind::Recv {
            by,
            from,
            msg,
            infra,
            ..
        } = e.kind
        {
            channels
                .entry((from, by))
                .or_default()
                .push((msg.seq(), infra));
        }
    }
    for msgs in channels.values_mut() {
        msgs.sort_unstable();
    }
    channels
}

fn externals(trace: &Trace) -> Vec<Option<Text>> {
    trace
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::External { payload, .. } => Some(payload.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn simulator_and_runtime_agree_on_a_relay() {
    for n in [1, 2, 3, 5, 17] {
        let sim = on_sim(n);
        let threaded = on_runtime(n);
        let (mut s, mut t) = (sim.stats(), threaded.stats());
        // The simulator runs no rounds, so it counts no batches.
        (s.delivery_batches, t.delivery_batches) = (0, 0);
        assert_eq!(s, t, "n={n}\nsim:\n{}", sim.to_pretty_string());
        assert_eq!(received(sim.events()), received(threaded.events()), "n={n}");
        assert_eq!(sim.stop_reason(), threaded.stop_reason(), "n={n}");
        assert!(
            sim.channels_drained() && threaded.channels_drained(),
            "n={n}"
        );
        // Payload recording is off: neither engine renders the stimulus.
        assert_eq!(externals(&sim), vec![None], "n={n}");
        assert_eq!(externals(&threaded), vec![None], "n={n}");
        // The run exercised what it is meant to: the crash consumed copies,
        // the filter's timer fired, both hooks saw traffic.
        if n > 1 {
            assert!(s.messages_to_crashed > 0, "n={n}: {s:?}");
        }
        assert_eq!(s.crashes, 1);
        assert!(s.timers_fired > 0 && s.wire_bytes > 0, "n={n}: {s:?}");
        assert!(received(sim.events())
            .values()
            .flatten()
            .any(|&(_, infra)| infra));
    }
}

#[test]
fn an_unrecorded_runtime_ends_as_the_recorded_one() {
    // With `record` off the runtime builds no trace, yet every event is
    // still numbered and offered to the sink: the summary it ends with
    // must be the recorded run's, event count and batches included.
    for n in [1, 2, 3, 5, 17] {
        let (kept, sink) = Count::attached();
        let trace = settled_runtime(n, true, sink).shutdown();
        let (unkept, sink) = Count::attached();
        let run = settled_runtime(n, false, sink).shutdown_unrecorded();
        assert_eq!(trace.stats(), run.stats, "n={n}");
        assert_eq!(run.stop, trace.stop_reason(), "n={n}");
        assert_eq!(run.end_time, trace.end_time(), "n={n}");
        assert_eq!(run.events, trace.events().len(), "n={n}");
        assert_eq!(kept.seen(), trace.events().len(), "n={n}");
        assert_eq!(unkept.seen(), run.events, "n={n}");
    }
}
