//! Harness-side spans around the calls into each layer.
//!
//! Spans are recorded from outside the program (spans inside it are a
//! later issue), kept in memory and written when the run ends. A span has
//! a name, start and end, the span that caused it, and a request id (the
//! frame sequence number or the instance id). A layer's *self time* is
//! its span minus the part its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Count, total and self time of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Single-thread span recorder: `begin` nests under the innermost open
/// span, `end` closes it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        id
    }

    /// # Panics
    /// Panics when `id` is not the innermost open span — spans nest.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = end_ns;
    }

    /// Times `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// The trace file: one object per span, parents by index.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("request", Json::Num(s.request as f64)),
                ])
            })
            .collect();
        Json::obj([("workload", Json::str(workload)), ("spans", Json::Arr(spans))])
    }
}

/// Self time = own duration minus the children's; children of one parent
/// never overlap on a single thread, so their durations simply add.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request: 0 }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("frame", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("offer", 30, 70, Some(0)),
            span("fold", 40, 60, Some(2)),
            span("frame", 100, 150, None),
            span("decode", 105, 115, Some(4)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["frame"], LayerTime { count: 2, total_ns: 150, self_ns: 40 + 40 });
        assert_eq!(t["decode"], LayerTime { count: 2, total_ns: 30, self_ns: 30 });
        assert_eq!(t["offer"], LayerTime { count: 1, total_ns: 40, self_ns: 20 });
        assert_eq!(t["fold"], LayerTime { count: 1, total_ns: 20, self_ns: 20 });
        // Self times partition the root spans exactly.
        let self_sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 150);
    }

    #[test]
    fn tracer_parents_nested_spans() {
        let mut tr = Tracer::new();
        let root = tr.begin("root", 7);
        tr.span("child", 8, || std::hint::black_box(1 + 1));
        let mid = tr.begin("child", 9);
        tr.span("grandchild", 9, || ());
        tr.end(mid);
        tr.end(root);
        let parents: Vec<Option<usize>> = tr.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert_eq!(tr.spans()[0].request, 7);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let doc = tr.to_json("w");
        assert_eq!(doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len), Some(4));
        assert_eq!(crate::json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tr = Tracer::new();
        let a = tr.begin("a", 0);
        let _b = tr.begin("b", 0);
        tr.end(a);
    }
}
