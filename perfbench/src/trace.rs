//! In-memory spans for the traced run.
//!
//! A span is a named interval with a parent; the spans of one request form
//! a tree and share the request id. A span's *self time* is its duration
//! minus the part of it its children cover. Spans are recorded from the
//! benchmark around its calls into each layer; the program itself carries
//! no instrumentation.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Index of the parent span within the same request, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// Records span trees, folds their self times, and keeps the first
/// [`Tracer::RETAIN`] spans to write out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    request: u64,
    spans: Vec<Span>,
    retained: Vec<(u64, Span)>,
    /// Requests whose self times did not add up to the root span.
    pub accounting_errors: u64,
    /// Requests traced.
    pub requests: u64,
}

/// Self time per span name of one finished request.
pub type SelfTimes = BTreeMap<&'static str, u64>;

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Spans kept for the end-of-run dump; aggregates cover every request.
    pub const RETAIN: usize = 50_000;

    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            request: 0,
            spans: Vec::with_capacity(64),
            retained: Vec::new(),
            accounting_errors: 0,
            requests: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant taken elsewhere to epoch nanoseconds.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span of the current request; returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Re-times an already recorded span (for parents recorded before their
    /// children finished).
    pub fn set_end(&mut self, idx: usize, end: u64) {
        self.spans[idx].end = end;
    }

    /// Ends the current request: computes each span's self time, checks
    /// that they sum to the root span's duration, folds them by name, and
    /// starts a new request.
    pub fn finish(&mut self) -> SelfTimes {
        let mut out = SelfTimes::new();
        let mut total = 0u64;
        let mut root_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let mut kids: Vec<(u64, u64)> = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end - s.start).saturating_sub(covered);
            *out.entry(s.name).or_default() += own;
            total += own;
            if s.parent.is_none() {
                root_ns += s.end - s.start;
            }
        }
        // Misnested or overlapping children break the identity.
        if total != root_ns {
            self.accounting_errors += 1;
        }
        for s in self.spans.drain(..) {
            if self.retained.len() < Self::RETAIN {
                self.retained.push((self.request, s));
            }
        }
        self.request += 1;
        self.requests += 1;
        out
    }

    /// Writes the retained spans as JSON lines.
    pub fn write_out(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (req, s) in &self.retained {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"request\":{req},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start, s.end
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new();
        let root = t.span("root", None, 0, 100);
        let a = t.span("a", Some(root), 10, 40);
        t.span("a.child", Some(a), 15, 25);
        t.span("b", Some(root), 50, 90);
        let st = t.finish();
        assert_eq!(st["root"], 30);
        assert_eq!(st["a"], 20);
        assert_eq!(st["a.child"], 10);
        assert_eq!(st["b"], 40);
        assert_eq!(t.accounting_errors, 0);
    }

    #[test]
    fn overlapping_children_are_an_accounting_error() {
        let mut t = Tracer::new();
        let root = t.span("root", None, 0, 100);
        t.span("a", Some(root), 10, 60);
        t.span("b", Some(root), 50, 90);
        let st = t.finish();
        assert_eq!(st["root"], 20);
        assert_eq!(t.accounting_errors, 1);
    }
}
