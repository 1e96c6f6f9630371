//! The benchmark's own spans: one record per public call it makes into
//! the program (name, start, end, parent span, request index), kept in
//! memory and written out as JSONL when the run ends.
//!
//! A disabled recorder makes `begin`/`end` a single branch, so timed
//! (untraced) passes share the code of traced ones.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `wire.decode` or `service.execute`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or batch) index within the pass.
    pub op: u64,
}

impl SpanRec {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span must be ended"]
pub struct Open(Option<usize>);

/// In-memory span recorder of one pass.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    recs: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let at = self.recs.len();
        self.recs.push(SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(at);
        Open(Some(at))
    }

    /// Closes `span` (spans close innermost first).
    pub fn end(&mut self, span: Open) {
        if let Some(at) = span.0 {
            let end = self.now_ns();
            self.recs[at].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(at), "spans must close innermost first");
        }
    }

    /// Every recorded span, start order.
    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    /// Total duration (ms) of the top-level spans: the part of a pass's
    /// timed wall time the spans account for.
    pub fn top_level_ms(&self) -> f64 {
        self.recs
            .iter()
            .filter(|r| r.parent.is_none())
            .map(SpanRec::ms)
            .sum()
    }

    /// Appends the spans as JSONL records tagged with `pass`.
    pub fn write_jsonl(&self, pass: usize, out: &mut String) {
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"pass\":{pass},\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                r.name, r.start_ns, r.end_ns, r.op
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_totals() {
        let mut spans = Spans::new(true);
        let outer = spans.begin("request", 0);
        let inner = spans.begin("service.execute", 0);
        spans.end(inner);
        spans.end(outer);
        let recs = spans.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].parent, Some(0));
        assert!(spans.top_level_ms() >= recs[1].ms());
        let mut out = String::new();
        spans.write_jsonl(3, &mut out);
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut spans = Spans::new(false);
        let s = spans.begin("request", 0);
        spans.end(s);
        assert!(spans.records().is_empty());
    }
}
