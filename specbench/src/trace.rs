//! In-memory spans for the traced run.
//!
//! A span is one call into a layer's public function: its name, start,
//! end, the span that was open around it, and the op it served. Spans are
//! kept in memory and written out once, when the run ends. The untraced
//! op loop records no spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    op: u64,
}

/// Runs `f`, recorded as a span named `name` when a tracer is given.
pub fn maybe_span<T>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin` (share one origin
    /// across threads so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tags the spans recorded from now on with op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Records `f` as a span named `name`, nested in the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Records an already-measured interval (used where the timed call ran
    /// on another thread, e.g. a daemon round trip).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Moves another recorder's spans into this one, re-based onto this
    /// recorder's origin (which must not be later than `other`'s).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.origin.saturating_duration_since(self.origin);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start += shift;
            s.end += shift;
            s
        }));
    }

    /// Total milliseconds per span name.
    pub fn totals_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start).as_secs_f64() * 1e3;
        }
        out
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Tab-separated dump, one span per line: op, id, parent, name, start
    /// and end in µs from the run's origin, and self time (the span's
    /// duration minus the part its children cover).
    pub fn render(&self) -> String {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += (s.end - s.start).as_secs_f64() * 1e6;
            }
        }
        let mut out = String::from("op\tid\tparent\tname\tstart_us\tend_us\tself_us\n");
        for (i, s) in self.spans.iter().enumerate() {
            let start = s.start.as_secs_f64() * 1e6;
            let end = s.end.as_secs_f64() * 1e6;
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{start:.1}\t{end:.1}\t{:.1}",
                s.op,
                s.name,
                (end - start - child_us[i]).max(0.0)
            );
        }
        out
    }
}
