//! The protocol on the threaded runtime: same code, real concurrency.
//! The suspicion tests deliberately drive injections *live*
//! (`inject_external` racing the running coordinator), exercising the
//! asynchronous-arrival path that wheel-scheduled fault plans bypass,
//! then use the quiescence handshake (`drain`) to know the cascade is
//! complete. The heartbeat test runs the other way: a scripted crash on
//! the timer wheel at an exact virtual tick, detected by
//! virtual-clock heartbeats inside a bounded horizon. Exact-tick
//! injection at the harness level is covered by `ClusterSpec::crash`
//! tests in `sfs-core`.

use sfs::{Control, HeartbeatConfig, NullApp, SfsConfig, SfsMsg, SfsProcess};
use sfs_asys::net::{Runtime, RuntimeConfig};
use sfs_asys::ProcessId;
use sfs_history::History;
use sfs_tlogic::{properties, Verdict};
use std::sync::Arc;
use std::time::Duration;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn config_with_classifier<M: Clone + std::fmt::Debug + Send + 'static>() -> RuntimeConfig<SfsMsg<M>>
{
    RuntimeConfig {
        classify: Some(Arc::new(|m: &SfsMsg<M>| !m.is_app())),
        ..RuntimeConfig::default()
    }
}

#[test]
fn injected_suspicion_detects_and_kills_on_real_threads() {
    let n = 4;
    let rt = Runtime::spawn(n, config_with_classifier::<()>(), |_| {
        let config = SfsConfig::new(n, 1).heartbeat(None);
        Box::new(SfsProcess::new(config, NullApp).expect("feasible"))
    });
    rt.inject_external(p(1), SfsMsg::Control(Control::Suspect { suspect: p(0) }));
    assert!(
        rt.drain(Duration::from_secs(10)),
        "a timerless cascade quiesces"
    );
    let trace = rt.shutdown();
    assert_eq!(trace.crashed(), vec![p(0)], "{}", trace.to_pretty_string());
    let detectors: std::collections::BTreeSet<_> =
        trace.detections().iter().map(|&(by, _)| by).collect();
    assert_eq!(detectors.len(), 3, "all survivors detected");
    let h = History::from_trace(&trace);
    assert_eq!(properties::check_sfs2b(&h).verdict, Verdict::Holds);
    assert_eq!(properties::check_sfs2c(&h).verdict, Verdict::Holds);
    assert_eq!(properties::check_sfs2d(&h).verdict, Verdict::Holds);
}

#[test]
fn virtual_clock_heartbeats_detect_a_scripted_crash() {
    let n = 4;
    let config = RuntimeConfig {
        faults: sfs_asys::FaultPlan::new().crash_at(p(2), sfs_asys::VirtualTime::from_ticks(150)),
        max_time: sfs_asys::VirtualTime::from_ticks(600),
        ..config_with_classifier::<()>()
    };
    let rt = Runtime::spawn(n, config, |_| {
        let config = SfsConfig::new(n, 1).heartbeat(Some(HeartbeatConfig {
            interval: 25,
            timeout: 120,
            check_every: 30,
        }));
        Box::new(SfsProcess::new(config, NullApp).expect("feasible"))
    });
    // Self-rearming heartbeats never quiesce: the drain reports the
    // stall at the 600-tick horizon, which is the maximal bounded run.
    assert!(!rt.drain(Duration::from_secs(30)));
    let trace = rt.shutdown();
    let victims: std::collections::BTreeSet<_> =
        trace.detections().iter().map(|&(_, of)| of).collect();
    assert!(
        victims.contains(&p(2)),
        "crash went undetected:\n{}",
        trace.to_pretty_string()
    );
    let h = History::from_trace(&trace);
    assert_eq!(properties::check_sfs2b(&h).verdict, Verdict::Holds);
}

#[test]
fn mutual_suspicion_on_threads_never_cycles() {
    for round in 0..3 {
        let n = 5;
        let rt = Runtime::spawn(n, config_with_classifier::<()>(), |_| {
            let config = SfsConfig::new(n, 2).heartbeat(None);
            Box::new(SfsProcess::new(config, NullApp).expect("feasible"))
        });
        rt.inject_external(p(0), SfsMsg::Control(Control::Suspect { suspect: p(1) }));
        rt.inject_external(p(1), SfsMsg::Control(Control::Suspect { suspect: p(0) }));
        assert!(
            rt.drain(Duration::from_secs(10)),
            "a timerless cascade quiesces"
        );
        let trace = rt.shutdown();
        let h = History::from_trace(&trace);
        assert_eq!(
            properties::check_sfs2b(&h).verdict,
            Verdict::Holds,
            "round {round}:\n{}",
            trace.to_pretty_string()
        );
        assert_eq!(properties::check_sfs2c(&h).verdict, Verdict::Holds);
    }
}
