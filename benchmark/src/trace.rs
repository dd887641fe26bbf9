//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the workload ends.
//!
//! Nothing here is compiled into the system under test: the spans are
//! the benchmark's own, taken at the layer boundaries it can see from
//! outside.  A span carries a name, start and end (µs since the recorder
//! was created), the span that caused it, and the trace (one traced rep
//! of one workload) it belongs to.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub trace: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Counts and timings read at the same boundary (job counters,
    /// phase timings, sample counts).
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    trace: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            trace: 0,
            spans: Vec::new(),
        }
    }

    /// Spans begun from now on belong to trace `trace`.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            trace: self.trace,
            name: name.to_string(),
            start_us: now,
            end_us: now,
            attrs: Vec::new(),
        });
        id
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_us = self.now_us();
    }

    /// Times `work` inside a span named `name` under `parent`.
    pub fn span<T>(&mut self, name: &str, parent: Option<SpanId>, work: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = work();
        self.end(id);
        out
    }

    pub fn attr(&mut self, id: SpanId, key: &str, value: f64) {
        self.spans[id].attrs.push((key.to_string(), value));
    }

    pub fn duration_s(&self, id: SpanId) -> f64 {
        self.spans[id].duration_us() / 1e6
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, self time included.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{{\"workload\":\"{workload}\",\"trace\":{},\"id\":{},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1},\"attrs\":{{",
                span.trace,
                span.id,
                span.name,
                span.start_us,
                span.end_us,
                self_time_us(span, &self.spans),
            );
            for (i, (key, value)) in span.attrs.iter().enumerate() {
                let comma = if i == 0 { "" } else { "," };
                let _ = write!(out, "{comma}\"{key}\":{value}");
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover.  Children may overlap each other (parallel
/// parts) or stick out of the parent; overlapping cover is counted once
/// and cover outside the parent not at all.
pub fn self_time_us(span: &Span, all: &[Span]) -> f64 {
    let mut cover: Vec<(f64, f64)> = all
        .iter()
        .filter(|s| s.parent == Some(span.id) && s.trace == span.trace)
        .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
        .filter(|(start, end)| end > start)
        .collect();
    cover.sort_by(|a, b| a.partial_cmp(b).expect("span times are finite"));
    let mut covered = 0.0;
    let mut reach = span.start_us;
    for (start, end) in cover {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_us() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name: format!("s{id}"),
            start_us,
            end_us,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let all = vec![
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 30.0),
            span(2, Some(0), 50.0, 90.0),
        ];
        assert_eq!(self_time_us(&all[0], &all), 40.0);
        assert_eq!(self_time_us(&all[1], &all), 20.0);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let all = vec![
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 60.0),
            span(2, Some(0), 40.0, 80.0),
            span(3, Some(0), 45.0, 50.0),
        ];
        // Children cover [10, 80] once: 70 of the parent's 100.
        assert_eq!(self_time_us(&all[0], &all), 30.0);
    }

    #[test]
    fn nested_grandchildren_do_not_count_twice() {
        let all = vec![
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 20.0, 70.0),
            span(2, Some(1), 30.0, 60.0),
        ];
        // Only the direct child covers the root; the grandchild is the
        // child's business.
        assert_eq!(self_time_us(&all[0], &all), 50.0);
        assert_eq!(self_time_us(&all[1], &all), 20.0);
    }

    #[test]
    fn cover_outside_the_parent_is_clipped() {
        let all = vec![span(0, None, 10.0, 50.0), span(1, Some(0), 0.0, 30.0)];
        assert_eq!(self_time_us(&all[0], &all), 20.0);
    }

    #[test]
    fn spans_of_another_trace_are_not_children() {
        let mut other = span(1, Some(0), 10.0, 30.0);
        other.trace = 7;
        let all = vec![span(0, None, 0.0, 100.0), other];
        assert_eq!(self_time_us(&all[0], &all), 100.0);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut rec = Recorder::new();
        rec.set_trace(3);
        let root = rec.begin("pipeline", None);
        let child = rec.span("text", Some(root), || 7);
        rec.end(root);
        assert_eq!(child, 7);
        rec.attr(root, "jobs", 34.0);
        let jsonl = rec.to_jsonl("batch-greedy");
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"pipeline\""));
        assert!(jsonl.contains("\"parent\":0"));
        assert!(jsonl.contains("\"jobs\":34"));
        assert!(jsonl.contains("\"trace\":3"));
        let spans = rec.spans();
        assert!(spans[0].duration_us() >= spans[1].duration_us());
    }
}
