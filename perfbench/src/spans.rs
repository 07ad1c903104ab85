//! In-memory span recording for traced runs. Spans are kept in memory
//! while the workload runs and written out as JSON lines at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (index in the tracer).
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub request: u64,
    /// Layer boundary name (`compile`, `profile`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span { id, parent, request, name, start_ns: now, end_ns: now });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let id = self.begin(name, request, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured root span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent: None, request, name, start_ns, end_ns });
    }

    /// Records an already-measured child span of `parent`.
    pub fn record_child(
        &mut self,
        parent: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.spans.len();
        let request = self.spans[parent].request;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent: Some(parent), request, name, start_ns, end_ns });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: total ms not covered by child spans, and
    /// the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += s.ms() - child_ms[s.id];
            e.1 += 1;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("request", 7, None);
        t.child(root, "stage", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(root);
        let times = t.self_times();
        assert_eq!(times["stage"].1, 1);
        assert!(times["stage"].0 >= 2.0);
        assert!(times["request"].0 < times["stage"].0);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
