//! In-memory span ledger for the traced run.
//!
//! A span is a named interval around one call into a layer, with the
//! operation it belongs to and the span that caused it. Spans are kept in
//! memory and written out as JSON lines when the run ends. With tracing
//! off every method is a no-op and records nothing.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in the ledger.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end.saturating_sub(self.start)).as_secs_f64()
    }
}

/// The span ledger. `on = false` makes it inert.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Spans opened by [`Tracer::span`] and not yet closed: the parent of
    /// the next nested span.
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span that starts now, under an explicit parent (or, when
    /// `parent` is `None`, under the innermost open closure span).
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return usize::MAX;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent: parent.or_else(|| self.open.last().copied()),
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if self.on {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Runs `f` inside a span; spans opened within `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.begin(name, op, None);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.end(id);
        out
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    /// Self times in seconds of every span named `name`: its duration
    /// minus the part of its interval that its child spans cover.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let mut kids: Vec<(Duration, Duration)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                    .collect();
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.secs() - covered.as_secs_f64()
            })
            .collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
