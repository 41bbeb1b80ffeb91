//! Sample statistics, the regression rule, and the hand-rolled JSON
//! emitter behind every file and line the benchmark writes.

use std::fmt::Write as _;

/// Median / min / max of a timing sample. Seven-odd samples support no
/// percentile beyond the median, so none is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

/// Summarises `values`; `None` on an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Some(Summary {
        median,
        min: v[0],
        max: v[n - 1],
        samples: n,
    })
}

/// The median alone; 0 on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// Nearest-rank percentile (0–100) of an integer sample; 0 when empty.
pub fn percentile(values: &mut [u64], q: usize) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (q * values.len()).div_ceil(100).max(1) - 1;
    values[rank.min(values.len() - 1)]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method) — the ruler the acceptance
/// driver uses for run-to-run spread. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median (0 when it cannot
/// be computed).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1).abs() / m.abs(),
        _ => 0.0,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Lower,
    Higher,
}

impl Direction {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Direction::Lower),
            "higher" => Some(Direction::Higher),
            _ => None,
        }
    }
}

/// By what share of `base` the value `new` is *worse* (negative = better).
pub fn worsening(dir: Direction, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match dir {
        Direction::Lower => (new - base) / base.abs(),
        Direction::Higher => (base - new) / base.abs(),
    }
}

/// Outcome of comparing two sets of runs on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread exceeds the bound, so the medians decide nothing.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved (spread > bound)",
        }
    }
}

/// The no-regression rule: `b`'s median may be worse than `a`'s by at
/// most `bound`. When either side's spread exceeds the bound the pair is
/// unresolved, unless every run of `b` reads better than every run of `a`.
pub fn judge(dir: Direction, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        let b_wins_everywhere = a
            .iter()
            .all(|&x| b.iter().all(|&y| worsening(dir, x, y) < 0.0));
        return if b_wins_everywhere {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(dir, median(a), median(b)) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Whether `s` is a legal metric or workload name: starts with a letter
/// or digit, at most 64 of `[A-Za-z0-9_.-]`. The names are compile-time
/// tables, so the tests are the only caller.
#[cfg(test)]
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `s` is a legal unit: 1–16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one benchmark invocation reports: the acceptance driver's result
/// line, and one entry of `results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Writes exactly the keys the driver contract names.
    fn write_contract_keys(&self, w: &mut JsonWriter) {
        w.key("correct");
        w.boolean(self.correct);
        w.key("attempted");
        w.uint(self.attempted);
        w.key("failed");
        w.uint(self.failed);
        w.key("metrics");
        w.begin_object();
        for m in &self.metrics {
            w.key(m.name);
            w.begin_object();
            w.key("value");
            w.number(m.value);
            w.key("unit");
            w.string(m.unit);
            w.end_object();
        }
        w.end_object();
    }

    /// The single-line JSON object printed last on standard output.
    pub fn contract_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_contract_keys(&mut w);
        w.end_object();
        w.finish()
    }

    /// The `results.json` entry: provenance around the contract object.
    pub fn write_entry(&self, w: &mut JsonWriter) {
        write_entry(
            w,
            &self.workload,
            self.seed,
            self.trace,
            &self.contract_line(),
        );
    }
}

/// One `results.json` entry around an already serialised contract object
/// (`--all` passes each child's result line through verbatim, so no digit
/// is re-rendered on the way into the file).
pub fn write_entry(w: &mut JsonWriter, workload: &str, seed: u64, trace: bool, result: &str) {
    w.begin_object();
    w.key("workload");
    w.string(workload);
    w.key("seed");
    w.uint(seed);
    w.key("trace");
    w.boolean(trace);
    w.key("result");
    w.raw(result);
    w.end_object();
}

/// Minimal streaming JSON writer: tracks commas, escapes strings, prints
/// numbers with every digit `f64` carries. No serde.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Per open container: whether a value has been written in it.
    dirty: Vec<bool>,
    after_key: bool,
}

impl JsonWriter {
    pub fn new() -> Self {
        Self::default()
    }

    fn separate(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(d) = self.dirty.last_mut() {
            if *d {
                self.out.push_str(", ");
            }
            *d = true;
        }
    }

    pub fn begin_object(&mut self) {
        self.separate();
        self.out.push('{');
        self.dirty.push(false);
    }

    pub fn end_object(&mut self) {
        self.dirty.pop();
        self.out.push('}');
    }

    pub fn begin_array(&mut self) {
        self.separate();
        self.out.push('[');
        self.dirty.push(false);
    }

    pub fn end_array(&mut self) {
        self.dirty.pop();
        self.out.push(']');
    }

    pub fn key(&mut self, k: &str) {
        self.separate();
        self.push_escaped(k);
        self.out.push_str(": ");
        self.after_key = true;
    }

    pub fn string(&mut self, s: &str) {
        self.separate();
        self.push_escaped(s);
    }

    pub fn uint(&mut self, v: u64) {
        self.separate();
        let _ = write!(self.out, "{v}");
    }

    /// A finite number, as measured. A non-finite value is a bug in the
    /// caller; it is written as `null` so the file stays valid JSON.
    pub fn number(&mut self, v: f64) {
        self.separate();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    pub fn boolean(&mut self, v: bool) {
        self.separate();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Inserts `json`, which must be one serialised JSON value, as is.
    pub fn raw(&mut self, json: &str) {
        self.separate();
        self.out.push_str(json);
    }

    pub fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }

    /// Starts a new line inside the current container (readability of
    /// the files only; the contract line never calls this).
    pub fn newline(&mut self) {
        self.out.push('\n');
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    pub fn finish(self) -> String {
        debug_assert!(self.dirty.is_empty(), "unbalanced JSON containers");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Json;

    #[test]
    fn median_min_max_on_odd_even_and_singleton_samples() {
        let odd = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(
            (odd.median, odd.min, odd.max, odd.samples),
            (2.0, 1.0, 3.0, 3)
        );
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((even.median, even.min, even.max), (2.5, 1.0, 4.0));
        let one = summarize(&[7.5]).unwrap();
        assert_eq!(
            (one.median, one.min, one.max, one.samples),
            (7.5, 7.5, 7.5, 1)
        );
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![40, 10, 30, 20];
        assert_eq!(percentile(&mut v, 50), 20);
        assert_eq!(percentile(&mut v, 95), 40);
        assert_eq!(percentile(&mut [], 50), 0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        assert!((worsening(Direction::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Direction::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Direction::Lower, 10.0, 9.0) < 0.0);
        assert!(worsening(Direction::Higher, 10.0, 11.0) < 0.0);

        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(Direction::Lower, 0.1, &steady, &[10.5, 10.6, 10.4, 10.5]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Direction::Lower, 0.1, &steady, &[12.0, 12.1, 11.9, 12.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(Direction::Higher, 0.1, &steady, &[12.0, 12.1, 11.9, 12.0]),
            Verdict::Ok
        );
        let noisy = [10.0, 14.0, 7.0, 12.0];
        assert_eq!(
            judge(Direction::Lower, 0.1, &noisy, &[10.0, 13.0, 8.0, 11.0]),
            Verdict::Unresolved
        );
        // Wide spread, but every run of b beats every run of a.
        assert_eq!(
            judge(Direction::Lower, 0.1, &noisy, &[5.0, 6.0, 4.0, 5.5]),
            Verdict::Ok
        );
    }

    #[test]
    fn names_and_units_are_restricted() {
        for ok in ["detect_sim", "asys.sim.ns_per_event", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "1/s", "ns/event", "%", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn results_round_trip_through_the_emitter() {
        let run = RunResult {
            workload: "detect_sim".to_owned(),
            seed: 7,
            trace: false,
            correct: true,
            attempted: 168,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "iter_wall_s",
                    unit: "s",
                    value: 0.123_456_789_012_345_68,
                },
                Metric {
                    name: "det_p95_ticks",
                    unit: "ticks",
                    value: 72.0,
                },
            ],
        };
        let line = run.contract_line();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(parsed.get("attempted").unwrap().as_u64(), Some(168));
        let m = parsed.get("metrics").unwrap();
        let wall = m.get("iter_wall_s").unwrap();
        // Every digit survives: the parsed value is bit-identical.
        assert_eq!(
            wall.get("value").unwrap().as_f64(),
            Some(0.123_456_789_012_345_68)
        );
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));

        let mut w = JsonWriter::new();
        w.begin_array();
        run.write_entry(&mut w);
        run.write_entry(&mut w);
        w.end_array();
        let arr = Json::parse(&w.finish()).expect("valid JSON");
        let first = &arr.as_arr().unwrap()[0];
        assert_eq!(first.get("workload").unwrap().as_str(), Some("detect_sim"));
        assert_eq!(first.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(first.get("trace").unwrap().as_bool(), Some(false));
        assert_eq!(first.get("result"), Some(&parsed));
    }

    #[test]
    fn writer_escapes_and_survives_non_finite_numbers() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a\"b");
        w.string("line\nbreak\\");
        w.key("nan");
        w.number(f64::NAN);
        w.end_object();
        let parsed = Json::parse(&w.finish()).expect("valid JSON");
        assert_eq!(parsed.get("a\"b").unwrap().as_str(), Some("line\nbreak\\"));
        assert_eq!(parsed.get("nan"), Some(&Json::Null));
    }
}
