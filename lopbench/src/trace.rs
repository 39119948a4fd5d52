//! In-memory spans for the traced run.
//!
//! A span is a name, a start, an end, and the span that caused it. Spans
//! are recorded from the benchmark's own code around calls into a layer's
//! public functions, kept in memory, and written out when the run ends. A
//! layer's number is its **self time**: the span's duration minus the part
//! covered by its child spans. A disabled tracer records nothing, so the
//! untraced run pays only an `Option` check per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

struct Span {
    name: &'static str,
    /// Seconds since the tracer's epoch.
    start: f64,
    end: f64,
    parent: Option<SpanId>,
    /// The op this span belongs to (spans of one op share it).
    op: u64,
}

/// Per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans recorded from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start = self.secs(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op: self.op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::enter`] (spans close LIFO).
    pub fn exit(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.secs(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-timed span as a child of the innermost open one
    /// (timestamps taken elsewhere, e.g. by a progress observer).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start, end) = (self.secs(start), self.secs(end));
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op: self.op,
        });
    }

    /// Moves another thread's spans into this tracer (same epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + offset);
            self.spans.push(s);
        }
    }

    /// Self time per span name: `(total self seconds, span count)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            let entry = out.entry(s.name).or_default();
            entry.0 += (s.end - s.start - covered).max(0.0);
            entry.1 += 1;
        }
        out
    }

    /// Total duration and count of the spans named `name`.
    pub fn totals(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + (s.end - s.start), n + 1))
    }

    /// Self seconds of `name` divided by `per` (0 when `per` is 0).
    pub fn self_per(&self, name: &str, per: f64) -> f64 {
        let total = self.self_times().get(name).map_or(0.0, |e| e.0);
        crate::report::ratio(total, per)
    }

    /// Writes every span as a TSV row: id, parent, op, name, start, end.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_s\tend_s")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{:.9}\t{:.9}",
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let op = t.enter("op");
        let child = t.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.exit(child);
        std::thread::sleep(std::time::Duration::from_millis(10));
        t.exit(op);
        let times = t.self_times();
        let (op_self, _) = times["op"];
        let (child_self, _) = times["child"];
        assert!(child_self >= 0.019, "{child_self}");
        assert!((0.009..0.019).contains(&op_self), "{op_self}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.enter("op");
        t.exit(id);
        t.record("x", Instant::now(), Instant::now());
        assert!(t.self_times().is_empty());
    }
}
