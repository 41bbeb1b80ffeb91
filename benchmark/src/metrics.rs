//! The metric tables — names and units exactly as `BENCHMARK.json` lists
//! them (a unit test holds the two together) — and the arithmetic that
//! turns iteration samples into reported values.

use crate::drive::Outcome;
use crate::stats::{median, percentile, Metric};
use crate::trace::Tracer;
use crate::workloads::events_of;

/// End-to-end metrics: every workload reports every one, untraced.
pub const END_TO_END: [(&str, &str); 6] = [
    ("iter_wall_s", "s"),
    ("events_per_s", "1/s"),
    ("det_p95_ticks", "ticks"),
    ("msgs_per_unit", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: every workload reports every one in the traced
/// pass; a layer the workload bypasses reads 0. Metrics with a bare time
/// unit come from the replay probes, each of which runs under the one
/// workload it should move and reads 0 under the others.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("asys.sim.events", "count"),
    ("asys.sim.share", "ratio"),
    ("asys.sim.ns_per_event", "ns/event"),
    ("asys.sim.bare_ns_per_event", "ns/event"),
    ("asys.timers_fired", "count"),
    ("asys.link.dropped", "count"),
    ("asys.link.duplicated", "count"),
    ("asys.router.events", "count"),
    ("asys.router.share", "ratio"),
    ("asys.router.ns_per_event", "ns/event"),
    ("asys.router.delivery_batches", "count"),
    ("asys.router.spawn_shutdown_us", "us"),
    ("asys.wheel.insert_ns", "ns"),
    ("asys.wheel.fire_ns", "ns"),
    ("asys.wheel.cancel_ns", "ns"),
    ("core.msgs_sent", "count"),
    ("core.detections", "count"),
    ("core.crashes", "count"),
    ("core.wire_bytes", "bytes"),
    ("core.wire_bytes_per_detection", "bytes"),
    ("core.msgs_per_detection", "count"),
    ("core.det_p50_ticks", "ticks"),
    ("transport.frames_sent", "count"),
    ("transport.retx_frames", "count"),
    ("transport.retx_ratio", "ratio"),
    ("transport.false_suspicions", "count"),
    ("transport.faultless_overhead_ratio", "ratio"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.cost_ns_per_msg", "ns"),
    ("wire.bytes_per_frame", "bytes"),
    ("obs.monitor_ns_per_event", "ns"),
    ("obs.monitor_overhead_ratio", "ratio"),
    ("obs.registry_ingest_ns_per_event", "ns"),
    ("obs.registry_record_ns", "ns"),
    ("obs.hist_record_ns", "ns"),
    ("service.plan_us", "us"),
    ("service.epoch1_share", "ratio"),
    ("service.epoch2_share", "ratio"),
    ("service.epoch3_share", "ratio"),
    ("service.non_epoch_share", "ratio"),
    ("service.shard_runs", "count"),
    ("service.rescued_ops", "count"),
    ("service.exhausted_shards", "count"),
    ("service.us_per_shard_run", "us/run"),
    ("service.ops_per_s", "1/s"),
    ("service.msgs_per_op", "count"),
    ("service.op_p99_ticks", "ticks"),
    ("chaos.us_per_plan", "us/plan"),
    ("chaos.crashes_planned", "count"),
    ("history.trace_events", "count"),
    ("history.model_events", "count"),
    ("history.from_trace_ns_per_event", "ns/event"),
    ("history.hb_ns_per_event", "ns/event"),
    ("history.rearrange_ns_per_event", "ns/event"),
    ("history.certified_events_per_s", "1/s"),
    ("tlogic.suite_ns_per_event", "ns/event"),
    ("explore.schedules", "count"),
    ("explore.visited", "count"),
    ("explore.steps", "count"),
    ("explore.classes", "count"),
    ("explore.redundant_ratio", "ratio"),
    ("explore.pruned_ratio", "ratio"),
    ("explore.ns_per_schedule", "ns/schedule"),
    ("explore.schedules_per_s", "1/s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.traced_iterations", "count"),
    ("bench.spans_per_iteration", "count"),
];

/// `a / b`, or 0 when the denominator is (a layer the workload bypasses).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One timed iteration: its wall seconds, and what it produced.
pub struct Sample {
    pub wall_s: f64,
    pub out: Outcome,
}

/// Messages sent per unit of useful work: per completed client op where
/// the workload serves ops, per detection event where detection is all it
/// does.
fn msgs_per_unit(out: &Outcome) -> f64 {
    let ops = out.count("service.ops_completed");
    let unit = if ops > 0 {
        ops
    } else {
        out.count("core.detections")
    };
    ratio(out.count("core.msgs_sent") as f64, unit as f64)
}

fn det_percentile(out: &Outcome, q: usize) -> f64 {
    percentile(&mut out.det_latencies.clone(), q) as f64
}

/// Looks names up in a table and attaches units, in table order.
fn tabulate(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
        })
        .collect()
}

/// The end-to-end metrics of an untraced run: medians over the timed
/// iterations (simulated-time values repeat exactly on the simulator, so
/// their median is that value).
pub fn end_to_end(samples: &[Sample], setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let over = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    tabulate(
        &END_TO_END,
        &[
            ("iter_wall_s", over(&|s| s.wall_s)),
            (
                "events_per_s",
                over(&|s| ratio(events_of(&s.out) as f64, s.wall_s)),
            ),
            ("det_p95_ticks", over(&|s| det_percentile(&s.out, 95))),
            ("msgs_per_unit", over(&|s| msgs_per_unit(&s.out))),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", setup_s),
        ],
    )
}

/// Values measured outside the traced iterations: the replay probes and
/// the two whole-iteration ratios.
pub type Extras = Vec<(&'static str, f64)>;

/// The per-layer metrics of a traced pass. `traced[k]` is iteration `k+1`
/// in `tr`. Timing-derived values are medians over the traced iterations;
/// counts are the last traced iteration's.
pub fn per_layer(
    tr: &Tracer,
    traced: &[Sample],
    transport_backed: bool,
    extras: &Extras,
) -> Vec<Metric> {
    let Some(last) = traced.last() else {
        return tabulate(&PER_LAYER, extras);
    };
    let c = |name: &str| last.out.count(name) as f64;
    // Per-iteration value → median over iterations. `f` gets the
    // iteration number (1-based) and its sample.
    let over = |f: &dyn Fn(u32, &Sample) -> f64| {
        median(
            &traced
                .iter()
                .enumerate()
                .map(|(k, s)| f(k as u32 + 1, s))
                .collect::<Vec<_>>(),
        )
    };
    // Seconds inside engine runs: direct spans around `try_run*`, or —
    // for service workloads, whose engine calls sit inside the library —
    // the epoch walls the service itself reports.
    let sim_s = |k: u32, s: &Sample| {
        tr.self_seconds(k, "asys.sim.")
            + if s.out.count("asys.router.events") == 0 {
                s.out.seconds("service.epochs")
            } else {
                0.0
            }
    };
    let router_s = |s: &Sample| {
        if s.out.count("asys.router.events") > 0 {
            s.out.seconds("service.epochs")
        } else {
            0.0
        }
    };
    // `from_trace` scans every trace event; the checkers behind it see
    // only the model-level events the history keeps.
    let per_event = |prefix: &'static str, events: &'static str| {
        over(&|k, s| ratio(tr.self_seconds(k, prefix) * 1e9, s.out.count(events) as f64))
    };
    let skips = c("explore.skips");
    let spans_last = tr.span_count(traced.len() as u32, "");
    let mut values: Vec<(&str, f64)> = vec![
        ("asys.sim.events", c("asys.sim.events")),
        ("asys.sim.share", over(&|k, s| ratio(sim_s(k, s), s.wall_s))),
        (
            "asys.sim.ns_per_event",
            over(&|k, s| ratio(sim_s(k, s) * 1e9, s.out.count("asys.sim.events") as f64)),
        ),
        ("asys.timers_fired", c("asys.timers_fired")),
        ("asys.link.dropped", c("asys.link.dropped")),
        ("asys.link.duplicated", c("asys.link.duplicated")),
        ("asys.router.events", c("asys.router.events")),
        (
            "asys.router.share",
            over(&|_, s| ratio(router_s(s), s.wall_s)),
        ),
        (
            "asys.router.ns_per_event",
            over(&|_, s| ratio(router_s(s) * 1e9, s.out.count("asys.router.events") as f64)),
        ),
        (
            "asys.router.delivery_batches",
            c("asys.router.delivery_batches"),
        ),
        ("core.msgs_sent", c("core.msgs_sent")),
        ("core.detections", c("core.detections")),
        ("core.crashes", c("core.crashes")),
        ("core.wire_bytes", c("core.wire_bytes")),
        (
            "core.wire_bytes_per_detection",
            ratio(c("core.wire_bytes"), c("core.detections")),
        ),
        (
            "core.msgs_per_detection",
            ratio(c("core.msgs_sent"), c("core.detections")),
        ),
        ("core.det_p50_ticks", det_percentile(&last.out, 50)),
        (
            "transport.frames_sent",
            if transport_backed {
                c("core.msgs_sent")
            } else {
                0.0
            },
        ),
        ("transport.retx_frames", c("transport.retx_frames")),
        (
            "transport.retx_ratio",
            if transport_backed {
                ratio(c("transport.retx_frames"), c("core.msgs_sent"))
            } else {
                0.0
            },
        ),
        (
            "transport.false_suspicions",
            c("transport.false_suspicions"),
        ),
        (
            "service.epoch1_share",
            over(&|_, s| ratio(s.out.seconds("service.epoch1"), s.wall_s)),
        ),
        (
            "service.epoch2_share",
            over(&|_, s| ratio(s.out.seconds("service.epoch2"), s.wall_s)),
        ),
        (
            "service.epoch3_share",
            over(&|_, s| ratio(s.out.seconds("service.epoch3plus"), s.wall_s)),
        ),
        (
            "service.non_epoch_share",
            over(&|_, s| ratio(s.out.seconds("service.non_epoch"), s.wall_s)),
        ),
        ("service.shard_runs", c("service.shard_runs")),
        ("service.rescued_ops", c("service.rescued_ops")),
        ("service.exhausted_shards", c("service.exhausted_shards")),
        (
            "service.us_per_shard_run",
            over(&|_, s| {
                ratio(
                    s.out.seconds("service.epochs") * 1e6,
                    s.out.count("service.shard_runs") as f64,
                )
            }),
        ),
        (
            "service.ops_per_s",
            over(&|_, s| ratio(s.out.count("service.ops_completed") as f64, s.wall_s)),
        ),
        (
            "service.msgs_per_op",
            ratio(c("core.msgs_sent"), c("service.ops_completed")),
        ),
        (
            "service.op_p99_ticks",
            percentile(&mut last.out.op_latencies.clone(), 99) as f64,
        ),
        (
            "chaos.us_per_plan",
            over(&|k, _| {
                ratio(
                    tr.self_seconds(k, "chaos.plan") * 1e6,
                    tr.span_count(k, "chaos.plan") as f64,
                )
            }),
        ),
        ("chaos.crashes_planned", c("chaos.crashes_planned")),
        ("history.trace_events", c("history.trace_events")),
        ("history.model_events", c("history.model_events")),
        (
            "history.from_trace_ns_per_event",
            per_event("history.from_trace", "history.trace_events"),
        ),
        (
            "history.hb_ns_per_event",
            per_event("history.hb_compute", "history.model_events"),
        ),
        (
            "history.rearrange_ns_per_event",
            per_event("history.rearrange_to_fs", "history.model_events"),
        ),
        (
            "tlogic.suite_ns_per_event",
            per_event("tlogic.check_sfs_suite", "history.model_events"),
        ),
        (
            "history.certified_events_per_s",
            over(&|k, s| {
                ratio(
                    s.out.count("history.trace_events") as f64,
                    tr.self_seconds(k, "history.") + tr.self_seconds(k, "tlogic."),
                )
            }),
        ),
        ("explore.schedules", c("explore.schedules")),
        ("explore.visited", c("explore.visited")),
        ("explore.steps", c("explore.steps")),
        ("explore.classes", c("explore.classes")),
        (
            "explore.redundant_ratio",
            ratio(c("explore.redundant"), c("explore.schedules")),
        ),
        (
            "explore.pruned_ratio",
            ratio(skips, skips + c("explore.schedules")),
        ),
        (
            "explore.ns_per_schedule",
            over(&|k, s| {
                ratio(
                    tr.self_seconds(k, "explore.") * 1e9,
                    s.out.count("explore.schedules") as f64,
                )
            }),
        ),
        (
            "explore.schedules_per_s",
            over(&|k, s| {
                ratio(
                    s.out.count("explore.schedules") as f64,
                    tr.self_seconds(k, "explore."),
                )
            }),
        ),
        ("bench.traced_iterations", traced.len() as f64),
        ("bench.spans_per_iteration", spans_last as f64),
    ];
    values.extend(extras.iter().copied());
    tabulate(&PER_LAYER, &values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Json;
    use crate::stats::{valid_name, valid_unit, Direction};
    use crate::workloads::NAMES;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                )
            })
            .collect()
    }

    fn own(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, NAMES);
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let mut names = std::collections::BTreeSet::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for m in doc.get(key).and_then(Json::as_arr).unwrap() {
                let name = m.get("name").and_then(Json::as_str).unwrap();
                assert!(valid_name(name), "{name}");
                assert!(names.insert(name.to_owned()), "{name} used twice");
                if key == "workloads" {
                    let why = m.get("why").and_then(Json::as_str).unwrap();
                    assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
                    continue;
                }
                assert!(
                    valid_unit(m.get("unit").and_then(Json::as_str).unwrap()),
                    "{name}"
                );
                let better = m.get("better").and_then(Json::as_str).unwrap();
                assert!(Direction::parse(better).is_some(), "{name}");
                if key == "end_to_end" {
                    let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{name}");
                }
            }
        }
        let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&seconds));
        assert!(listed(&doc, "end_to_end")
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn bypassed_layers_read_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        let tr = Tracer::new(true);
        let metrics = per_layer(&tr, &[], false, &vec![("service.plan_us", 3.5)]);
        assert_eq!(metrics.len(), PER_LAYER.len());
        for m in &metrics {
            let want = if m.name == "service.plan_us" {
                3.5
            } else {
                0.0
            };
            assert_eq!(m.value, want, "{}", m.name);
        }
    }
}
