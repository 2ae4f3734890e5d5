//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions, kept in memory, and written out once when the run
//! ends. A span's self time is its duration minus the part of its
//! interval that its child spans cover; children recorded on worker
//! threads may overlap, so the covered part is the union of their
//! intervals.

use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `EndSystem::next_batch`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Training round (or probe iteration) the span belongs to.
    pub round: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    rounds: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose origin is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rounds: 0,
        }
    }

    /// The time origin, for spans measured on worker threads.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// A fresh round id: spans of one training round (or one probe
    /// iteration) share it.
    pub fn new_round(&mut self) -> u64 {
        self.rounds += 1;
        self.rounds - 1
    }

    /// Nanoseconds from the origin to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        round: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.record(name, round, None, Instant::now(), Instant::now());
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns_at(Instant::now());
        out
    }

    /// Records an already-measured interval as a child of `parent`, or
    /// of the innermost open span when `parent` is `None`.
    pub fn record(
        &mut self,
        name: &'static str,
        round: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            parent: parent.or_else(|| self.open.last().copied()),
            round,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every recorded span, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of span `id` in nanoseconds: its duration minus the
    /// union of its children's intervals.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        self.spans[id].ns().saturating_sub(covered)
    }

    /// Self times in milliseconds of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.self_ns(id) as f64 / 1e6)
            .collect()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}",
                    s.name, s.start_ns, s.end_ns, parent, s.round
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nesting_sets_parents() {
        let mut t = Tracer::new();
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| ());
        });
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[1].ns() <= t.spans()[0].ns());
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut t = Tracer::new();
        let o = t.origin();
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.record("round", 0, None, at(0), at(100));
        t.record("a", 0, Some(root), at(10), at(50));
        t.record("b", 0, Some(root), at(30), at(60));
        t.record("c", 0, Some(root), at(80), at(90));
        assert_eq!(t.self_ns(root), 40_000_000);
        assert_eq!(t.self_ms("round"), vec![40.0]);
    }
}
