//! Every cell of the runner matrix through the one entry,
//! `ClusterSpec::run`: each engine in `Backend::ALL`, on the bare leg
//! (`net: None`) and on the transport-backed leg (`net: Some(faultless)`),
//! with the trace kept and not kept.
//!
//! `spec.net` alone picks the leg: a net cell's sends are transport
//! frames — a wire-byte measure sees every one of them — while a bare
//! cell sends none, and asking it for a measure is a typed error. The
//! record switch changes what comes back, never how the run went: a
//! recorded and an unrecorded run of one cell end with equal counters and
//! event counts (on threads, up to how the router batched its handovers,
//! as in `engines_agree`).

use sfs::{
    Backend, ClusterSpec, Instruments, NetSpec, NullApp, RunOutcome, SfsMsg, SpecError,
    TransportMsg,
};
use sfs_asys::{ProcessId, SimStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A wire-byte measure over the frames of a `NullApp` cluster.
type Measure = Box<dyn Fn(&TransportMsg<SfsMsg<()>>) -> u64 + Send>;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// p0 crashes at tick 5 and p1 suspects it at tick 10: every survivor
/// detects p0, and every copy sent to p0 meets a crashed process. How the
/// threaded router orders the events of one instant changes nothing the
/// counters see — unlike a false suspicion, where p0's death by its own
/// obituary races the survivors' votes on the bare leg's zero-delay
/// channels.
fn spec(net: Option<NetSpec>) -> ClusterSpec {
    ClusterSpec {
        net,
        ..ClusterSpec::new(4, 1)
            .seed(5)
            .crash(p(0), 5)
            .suspect(p(1), p(0), 10)
    }
}

/// One run of a cell; on a net cell a measure counts the frames sent.
fn run(backend: Backend, net: Option<NetSpec>, record: bool) -> (RunOutcome, Option<u64>) {
    let bare = net.is_none();
    let frames = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&frames);
    let count: Measure = Box::new(move |_| {
        counter.fetch_add(1, Ordering::Relaxed);
        1
    });
    let instruments = Instruments {
        record,
        measure: (!bare).then_some(count),
    };
    let out = spec(net)
        .run(backend, instruments, |_| NullApp)
        .expect("feasible spec");
    (out, (!bare).then(|| frames.load(Ordering::Relaxed)))
}

fn counters(backend: Backend, out: &RunOutcome) -> SimStats {
    let mut stats = out.summary.stats;
    if backend == Backend::Threaded {
        // How the router batched its handovers is its own business.
        stats.delivery_batches = 0;
    }
    stats
}

#[test]
fn every_cell_of_the_runner_matrix() {
    for backend in Backend::ALL {
        for net in [None, Some(NetSpec::faultless())] {
            let cell = format!("{backend} / net {}", net.is_some());
            let (kept, frames) = run(backend, net.clone(), true);
            let (unkept, unkept_frames) = run(backend, net.clone(), false);

            // The record switch: what comes back, not how the run went.
            let trace = kept.trace.as_ref().expect("a recorded run keeps its trace");
            assert!(unkept.trace.is_none(), "{cell}");
            assert_eq!(kept.summary.events, trace.events().len(), "{cell}");
            assert_eq!(kept.summary.events, unkept.summary.events, "{cell}");
            assert_eq!(
                counters(backend, &kept),
                counters(backend, &unkept),
                "{cell}"
            );
            assert_eq!(kept.summary.stop, unkept.summary.stop, "{cell}");
            assert!(kept.quiesced && unkept.quiesced, "{cell}");
            assert_eq!(frames, unkept_frames, "{cell}");

            // The leg: transport frames exactly when the spec has a net.
            let stats = kept.summary.stats;
            match frames {
                Some(frames) => {
                    assert!(frames > 0, "{cell}: no transport frames");
                    assert_eq!(frames, stats.messages_sent, "{cell}");
                    assert_eq!(stats.wire_bytes, frames, "{cell}");
                }
                None => {
                    assert_eq!(stats.wire_bytes, 0, "{cell}");
                    let measure: Measure = Box::new(|_| 1);
                    let instruments = Instruments {
                        measure: Some(measure),
                        ..Instruments::default()
                    };
                    let refused = spec(None).run(backend, instruments, |_| NullApp);
                    assert_eq!(refused.unwrap_err(), SpecError::MeasureWithoutNet, "{cell}");
                }
            }

            // Either leg runs the same protocol to the same end.
            assert_eq!(trace.crashed(), vec![p(0)], "{cell}");
            assert_eq!(stats.detections, 3, "{cell}");
        }
    }
}
