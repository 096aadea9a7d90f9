//! In-memory spans recorded around the benchmark's calls into each
//! layer. Nothing is written until the run ends.

use std::time::{Duration, Instant};

/// One timed call: its name, its interval in nanoseconds since the
/// tracer started, and the span open around it when it began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `chains.decompose`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the time it took. Spans opened inside `f` become its children.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, Duration) {
        let start = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(start),
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id].end_ns = self.ns(end);
        (out, end - start)
    }

    /// Records a span whose interval was measured elsewhere (e.g. by a
    /// load-generator thread) under `parent`, or else under the innermost
    /// open span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.or(self.open.last().copied()),
        });
        self.spans.len() - 1
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_calls_record_their_parent() {
        let mut t = Tracer::new();
        let (v, outer) = t.time("outer", |t| {
            let (a, _) = t.time("inner", |_| 2);
            let (b, _) = t.time("inner2", |_| 3);
            a + b
        });
        assert_eq!(v, 5);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent), ("inner2", Some(0)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(Duration::from_nanos(spans[0].end_ns - spans[0].start_ns) <= outer);
    }

    #[test]
    fn recorded_spans_take_the_given_or_the_open_parent() {
        let mut t = Tracer::new();
        let before = Instant::now();
        t.time("load", |t| t.record("frame", before, Instant::now(), None));
        let load = t.record("load2", before, Instant::now(), None);
        t.record("frame2", before, Instant::now(), Some(load));
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("load", None),
                ("frame", Some(0)),
                ("load2", None),
                ("frame2", Some(2))
            ]
        );
    }
}
