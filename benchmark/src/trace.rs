//! In-memory span recorder for the traced pass.
//!
//! `drive.rs` opens one span around every call into a library layer
//! (`<layer>.<fn>`); the workload loop opens one root span per iteration.
//! Spans are kept in memory and written once, at exit. A disabled tracer
//! takes no timestamps, so the untraced pass pays one branch per call.

use crate::stats::JsonWriter;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Nanoseconds covered by direct children; self time is the span's
    /// duration minus this.
    pub children_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The iteration the span belongs to (0 = outside any iteration).
    pub iteration: u32,
}

impl Span {
    /// Duration minus the part direct children cover.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.children_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Switches recording on or off between iterations (the traced pass
    /// alternates traced and untraced iterations to price the tracer).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Spans recorded from here on carry this iteration number.
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            children_ns: 0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must nest");
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        let (duration, parent) = (end_ns - span.start_ns, span.parent);
        if let Some(p) = parent {
            self.spans[p].children_ns += duration;
        }
    }

    /// Summed self time (seconds) of the spans of `iteration` whose name
    /// starts with `prefix`.
    pub fn self_seconds(&self, iteration: u32, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.iteration == iteration && s.name.starts_with(prefix))
            .map(|s| s.self_ns() as f64 / 1e9)
            .sum()
    }

    /// Number of spans of `iteration` whose name starts with `prefix`.
    pub fn span_count(&self, iteration: u32, prefix: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.iteration == iteration && s.name.starts_with(prefix))
            .count()
    }

    /// Writes the spans as a JSON array value.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for (i, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.key("id");
            w.uint(i as u64);
            w.key("name");
            w.string(s.name);
            w.key("start_ns");
            w.uint(s.start_ns);
            w.key("end_ns");
            w.uint(s.end_ns);
            w.key("self_ns");
            w.uint(s.self_ns());
            w.key("parent");
            match s.parent {
                Some(p) => w.uint(p as u64),
                None => w.null(),
            }
            w.key("iteration");
            w.uint(u64::from(s.iteration));
            w.end_object();
        }
        w.end_array();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("a.b");
        t.exit(id);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.set_iteration(1);
        let outer = t.enter("iteration");
        let inner = t.enter("asys.sim.try_run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let spans = &t.spans;
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let child = spans[1].end_ns - spans[1].start_ns;
        let parent = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(spans[1].self_ns(), child);
        assert_eq!(spans[0].self_ns(), parent - child);
        assert!(t.self_seconds(1, "asys.sim") >= 0.002);
        assert_eq!(t.self_seconds(2, "asys.sim"), 0.0);
    }
}
