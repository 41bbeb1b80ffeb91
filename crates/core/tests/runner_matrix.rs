//! Every cell of the runner matrix through the one entry,
//! `ClusterSpec::run`: each engine in `Backend::ALL`, on the bare leg
//! (`net: None`) and on the transport-backed leg (`net: Some(faultless)`),
//! with the trace kept and not kept.
//!
//! `spec.net` alone picks the leg: a net cell's sends are transport
//! frames — a wire-byte measure sees every one of them — while a bare
//! cell sends none, and asking it for a measure is a typed error. The
//! record switch changes what comes back, never how the run went: a
//! recorded and an unrecorded run of one cell end with equal counters,
//! batches included, and equal event counts — on threads too, where a
//! run is a function of its spec and seed. Each cell runs two specs: a
//! scripted crash, and a false suspicion whose victim's self-kill races
//! the survivors' votes on the bare leg's zero-delay channels.

use sfs::{
    Backend, ClusterSpec, Instruments, NetSpec, NullApp, RunOutcome, SfsMsg, SpecError,
    TransportMsg,
};
use sfs_asys::ProcessId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A wire-byte measure over the frames of a `NullApp` cluster.
type Measure = Arc<dyn Fn(&TransportMsg<SfsMsg<()>>) -> u64 + Send + Sync>;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// p1 suspects p0 at tick 10, and p0 either crashes at tick 5 first or
/// is alive and learns of it: either way every survivor detects p0, and
/// p0 ends crashed.
fn spec(net: Option<NetSpec>, crash: bool) -> ClusterSpec {
    let spec = ClusterSpec::new(4, 1).seed(5).suspect(p(1), p(0), 10);
    ClusterSpec {
        net,
        ..if crash { spec.crash(p(0), 5) } else { spec }
    }
}

/// One run of a cell; on a net cell a measure counts the frames sent.
fn run(spec: &ClusterSpec, backend: Backend, record: bool) -> (RunOutcome, Option<u64>) {
    let bare = spec.net.is_none();
    let frames = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&frames);
    let count: Measure = Arc::new(move |_| {
        counter.fetch_add(1, Ordering::Relaxed);
        1
    });
    let instruments = Instruments {
        record,
        measure: (!bare).then_some(count),
    };
    let out = spec
        .run(backend, instruments, |_| NullApp)
        .expect("feasible spec");
    (out, (!bare).then(|| frames.load(Ordering::Relaxed)))
}

#[test]
fn every_cell_of_the_runner_matrix() {
    for backend in Backend::ALL {
        for (net, crash) in [None, Some(NetSpec::faultless())]
            .into_iter()
            .flat_map(|net| [(net.clone(), true), (net, false)])
        {
            let cell = format!("{backend} / net {} / crash {crash}", net.is_some());
            let spec = spec(net, crash);
            let (kept, frames) = run(&spec, backend, true);
            let (unkept, unkept_frames) = run(&spec, backend, false);

            // The record switch: what comes back, not how the run went.
            let trace = kept.trace.as_ref().expect("a recorded run keeps its trace");
            assert!(unkept.trace.is_none(), "{cell}");
            assert_eq!(kept.summary.events, trace.events().len(), "{cell}");
            assert_eq!(kept.summary.events, unkept.summary.events, "{cell}");
            assert_eq!(kept.summary.stats, unkept.summary.stats, "{cell}");
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
                    let measure: Measure = Arc::new(|_| 1);
                    let instruments = Instruments {
                        measure: Some(measure),
                        ..Instruments::default()
                    };
                    let refused = spec.run(backend, instruments, |_| NullApp);
                    assert_eq!(refused.unwrap_err(), SpecError::MeasureWithoutNet, "{cell}");
                }
            }

            // Either leg runs the same protocol to the same end.
            assert_eq!(trace.crashed(), vec![p(0)], "{cell}");
            assert_eq!(stats.detections, 3, "{cell}");
        }
    }
}
