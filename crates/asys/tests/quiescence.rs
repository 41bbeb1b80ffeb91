//! Race tests for the event-driven runtime's quiescence protocol.
//!
//! [`Runtime::drain`] answers `true` only when the coordinator has judged
//! the system genuinely quiescent between rounds: every command before
//! the drain taken, nothing due on any host, no copy in transit and no
//! injection waiting. The judgement is the coordinator's alone, but the
//! *stimuli* arrive from arbitrary threads — so these tests storm
//! the runtime from an injector thread while the main thread hammers
//! `drain`, and then hold the runtime to exact message accounting: if a
//! drain ever declared quiescence with a relay chain still in flight, the
//! immediate shutdown that follows would truncate the chain and the
//! delivered count would fall short.

use sfs_asys::net::{Runtime, RuntimeConfig};
use sfs_asys::{Context, Process, ProcessId, StopReason};
use std::time::Duration;

/// Ping relay: an external stimulus launches a TTL-bounded token around
/// the ring; every hop forwards with the TTL decremented. One storm of
/// TTL `k` is therefore exactly `k` sends and `k` deliveries.
struct Relay {
    next: ProcessId,
}

impl Process<u32> for Relay {
    fn on_start(&mut self, _ctx: &mut Context<'_, u32>) {}

    fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ProcessId, ttl: u32) {
        if ttl > 1 {
            ctx.send(self.next, ttl - 1);
        }
    }

    fn on_external(&mut self, ctx: &mut Context<'_, u32>, ttl: u32) {
        ctx.send(self.next, ttl);
    }
}

fn spawn_ring(n: usize) -> Runtime<u32> {
    Runtime::spawn(n, RuntimeConfig::default(), move |pid| {
        Box::new(Relay {
            next: ProcessId::new((pid.index() + 1) % n),
        })
    })
}

/// The core race: storms injected from another thread while the main
/// thread drains. The final `drain(..) == true` is taken at the exact
/// moment a stale quiescence verdict could still have a chain in flight;
/// shutting down right there must nevertheless observe every hop.
#[test]
fn drain_never_declares_quiescence_with_a_message_in_flight() {
    const ITERATIONS: usize = 200;
    const STORMS: u32 = 5;
    const TTL: u32 = 8;

    for iteration in 0..ITERATIONS {
        let n = 2 + iteration % 8; // small clusters: N in {2, ..., 9}
        let rt = spawn_ring(n);

        let injector = {
            let handle = rt.injector();
            std::thread::spawn(move || {
                for s in 0..STORMS {
                    handle.inject_external(ProcessId::new(s as usize % n), TTL);
                    if s % 2 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        };

        // Hammer the drain while the storm is still being injected; any
        // `true` here claims "nothing in flight" and must only reflect
        // injections that were fully processed at judgement time.
        for _ in 0..4 {
            let _ = rt.drain(Duration::from_micros(200));
        }
        injector.join().expect("injector thread");

        // All storms are now in the coordinator's inbox or already processed.
        // This verdict is the one with teeth: a false `true` with a hop
        // in flight makes the accounting below fail.
        assert!(
            rt.drain(Duration::from_secs(10)),
            "iteration {iteration}: storm system failed to quiesce"
        );
        let trace = rt.shutdown();
        let expected = u64::from(STORMS * TTL);
        assert_eq!(
            trace.stats().messages_sent,
            expected,
            "iteration {iteration}: lost sends\n{}",
            trace.to_pretty_string()
        );
        assert_eq!(
            trace.stats().messages_delivered,
            expected,
            "iteration {iteration}: undelivered messages at quiescence\n{}",
            trace.to_pretty_string()
        );
        assert_eq!(trace.stop_reason(), StopReason::Quiescent);
    }
}

/// After a `true` drain, a fresh stimulus must wake the runtime back up
/// and drain to exactly one more chain — quiescence is a state, not a
/// latch.
#[test]
fn quiescence_is_reentrant_across_storm_waves() {
    const WAVES: u32 = 10;
    const TTL: u32 = 6;

    let rt = spawn_ring(3);
    assert!(rt.drain(Duration::from_secs(5)), "idle ring quiesces");
    for wave in 0..WAVES {
        rt.inject_external(ProcessId::new(wave as usize % 3), TTL);
        assert!(
            rt.drain(Duration::from_secs(5)),
            "wave {wave} failed to quiesce"
        );
    }
    let trace = rt.shutdown();
    assert_eq!(trace.stats().messages_sent, u64::from(WAVES * TTL));
    assert_eq!(trace.stats().messages_delivered, u64::from(WAVES * TTL));
}
