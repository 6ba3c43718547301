//! In-memory spans, written out as JSON lines when the run ends.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each crate and around every HTTP request it sends; nothing
//! inside the program under test is instrumented. Per-layer metrics of a
//! traced run are computed from these spans.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the trace, from 1.
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// The request or document the span belongs to.
    pub req: u64,
    /// Layer-qualified name, such as `xml.parse`.
    pub name: &'static str,
    /// Start, nanoseconds from the trace origin.
    pub start_ns: u64,
    /// End, nanoseconds from the trace origin.
    pub end_ns: u64,
}

/// A span recorder with one time origin.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose offsets count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `at`.
    pub fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (start, end) = (self.offset(start), self.offset(end));
        self.record(name, parent, req, start, end);
        out
    }

    /// Opens a parent span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: u64) -> u64 {
        let now = self.offset(Instant::now());
        self.record(name, parent, 0, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: u64) {
        let now = self.offset(Instant::now());
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end_ns = now;
        }
    }

    /// Mean duration of the spans named `name`, microseconds (NaN when
    /// there are none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (sum, count) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, count), s| {
                (sum + s.end_ns.saturating_sub(s.start_ns), count + 1)
            });
        sum as f64 / count as f64 / 1e3
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"req":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
