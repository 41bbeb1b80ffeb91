//! [`RunReport`]: the merged, queryable outcome of one observed run.
//!
//! Per-engine / per-shard / per-process [`Registry`](crate::Registry)
//! snapshots fold into one report with [`RunReport::merge`] — counters
//! add, gauges max, histograms merge element-wise, so the fold is
//! associative and the merge order across rayon shards or UDP node
//! processes never matters. The report renders to JSON (hand-rolled; the
//! vendored serde is a no-op stand-in) for CI artifacts and to a compact
//! text table for terminal use.

use crate::hist::LogHistogram;
use crate::json;
use crate::registry::{Metric, MetricKey};
use sfs_asys::MsgClass;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated metrics for one run (or several merged runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    engine: String,
    rows: BTreeMap<MetricKey, Metric>,
}

impl RunReport {
    /// An empty report for the named engine.
    pub fn empty(engine: impl Into<String>) -> Self {
        RunReport {
            engine: engine.into(),
            rows: BTreeMap::new(),
        }
    }

    pub(crate) fn from_rows(engine: String, rows: BTreeMap<MetricKey, Metric>) -> Self {
        RunReport { engine, rows }
    }

    /// The engine label (`"sim"`, `"threaded"`, `"udp"`, or a `+`-join
    /// after cross-engine merges).
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// Number of instruments.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report holds no instruments.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Folds `other` into `self`. Same-key rows combine (add/max/merge by
    /// shape); differing engine labels join with `+`.
    pub fn merge(&mut self, other: &RunReport) {
        if self.engine != other.engine && !other.engine.is_empty() {
            if self.engine.is_empty() {
                self.engine = other.engine.clone();
            } else if !self
                .engine
                .split('+')
                .any(|part| part == other.engine.as_str())
            {
                self.engine.push('+');
                self.engine.push_str(&other.engine);
            }
        }
        for (key, metric) in &other.rows {
            self.rows
                .entry(key.clone())
                .and_modify(|m| m.merge(metric))
                .or_insert_with(|| metric.clone());
        }
    }

    /// Total over every counter row named `name`, across all nodes,
    /// shards, and classes.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, m)| match m {
                Metric::Counter(c) | Metric::Gauge(c) => *c,
                Metric::Hist(h) => h.count(),
            })
            .sum()
    }

    /// The merge of every histogram row named `name` (empty when none).
    pub fn hist(&self, name: &str) -> LogHistogram {
        let mut out = LogHistogram::new();
        for (k, m) in &self.rows {
            if k.name == name {
                if let Metric::Hist(h) = m {
                    out.merge(h);
                }
            }
        }
        out
    }

    /// Renders the report as JSON (one `rows` array of flat objects).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"engine\":");
        json::write_str(&mut out, &self.engine);
        out.push_str(",\"rows\":[");
        for (i, (key, metric)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_str(&mut out, &key.name);
            let _ = write!(
                out,
                ",\"shard\":{},\"node\":{},\"class\":\"{}\"",
                key.shard,
                key.node,
                key.class.label()
            );
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, ",\"kind\":\"counter\",\"value\":{c}}}");
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, ",\"kind\":\"gauge\",\"value\":{g}}}");
                }
                Metric::Hist(h) => {
                    let _ = write!(
                        out,
                        ",\"kind\":\"hist\",\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                        h.count(),
                        h.sum(),
                        h.mean(),
                        h.p50(),
                        h.p95(),
                        h.p99(),
                        h.max()
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Renders a compact per-metric summary table (rows collapsed across
    /// nodes and shards, split by class), for terminal diagnostics.
    pub fn to_table(&self) -> String {
        let mut names: Vec<(&str, MsgClass)> = self
            .rows
            .keys()
            .map(|k| (k.name.as_str(), k.class))
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut out = format!("RunReport [{}]\n", self.engine);
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>14} {:>10} {:>10} {:>10}",
            "metric", "class", "total/count", "p50", "p99", "max"
        );
        for (name, class) in names {
            let mut counter = 0u64;
            let mut hist = LogHistogram::new();
            let mut has_hist = false;
            for (k, m) in &self.rows {
                if k.name != name || k.class != class {
                    continue;
                }
                match m {
                    Metric::Counter(c) | Metric::Gauge(c) => counter += c,
                    Metric::Hist(h) => {
                        hist.merge(h);
                        has_hist = true;
                    }
                }
            }
            if has_hist {
                let _ = writeln!(
                    out,
                    "{:<28} {:>6} {:>14} {:>10} {:>10} {:>10}",
                    name,
                    class.label(),
                    hist.count(),
                    hist.p50(),
                    hist.p99(),
                    hist.max()
                );
            } else {
                let _ = writeln!(
                    out,
                    "{:<28} {:>6} {:>14} {:>10} {:>10} {:>10}",
                    name,
                    class.label(),
                    counter,
                    "-",
                    "-",
                    "-"
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::Registry;

    #[test]
    fn merge_is_order_insensitive_and_json_parses() {
        let a = Registry::for_shard("sim", 0);
        let b = Registry::for_shard("sim", 1);
        a.add(0, MsgClass::App, "sent", 10);
        b.add(0, MsgClass::App, "sent", 5);
        a.observe(1, MsgClass::None, "lat", 100);
        b.observe(1, MsgClass::None, "lat", 200);

        let mut ab = a.report();
        ab.merge(&b.report());
        let mut ba = b.report();
        ba.merge(&a.report());
        assert_eq!(ab, ba);
        assert_eq!(ab.counter_total("sent"), 15);
        assert_eq!(ab.hist("lat").count(), 2);
        assert_eq!(ab.hist("lat").max(), 200);

        let parsed = Json::parse(&ab.to_json()).expect("report JSON must parse");
        assert_eq!(parsed.get("engine").unwrap().as_str(), Some("sim"));
        assert_eq!(parsed.get("rows").unwrap().as_arr().unwrap().len(), 4);
        assert!(ab.to_table().contains("sent"));
    }

    #[test]
    fn cross_engine_merge_joins_labels() {
        let mut r = Registry::new("sim").report();
        r.merge(&Registry::new("udp").report());
        r.merge(&Registry::new("udp").report());
        assert_eq!(r.engine(), "sim+udp");
    }
}
