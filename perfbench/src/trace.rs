//! Spans recorded from the benchmark's own side of each call into a
//! layer. They are kept in memory and written out as JSON lines when the
//! benchmark ends. A disabled tracer records nothing, so untraced runs
//! only pay for the few phase-boundary clock reads they share with traced
//! runs.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the tracer was
/// created, inside the span `parent` of the same iteration.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Layer-qualified name, e.g. `core.request.view_change`.
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Which repetition of the workload the span belongs to.
    iteration: u32,
    /// Start, in ns since the tracer's origin.
    start_ns: u64,
    /// End, in ns since the tracer's origin.
    end_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    iteration: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            iteration: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (between iterations).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts the next iteration's span numbering.
    pub fn next_iteration(&mut self) {
        self.iteration += 1;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (`None` when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            parent,
            iteration: self.iteration,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Records a span whose extent is not known yet; finish it with
    /// [`Tracer::close`]. Children recorded meanwhile name it as parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Sets the end of an [`Tracer::open`]ed span to now.
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            let end = self.ns(Instant::now());
            self.spans[i].end_ns = end;
        }
    }

    /// Writes the spans as JSON lines, one object per span, with each
    /// span's self time (its duration minus what its children cover).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"iteration\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.iteration,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i]),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
