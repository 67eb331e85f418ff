//! In-memory spans recorded around the calls the benchmark makes into
//! each layer's public API. One `Trace` per thread; threads' traces are
//! merged when the run ends and written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Identifies a span: recording thread and position in its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    thread: u32,
    index: u32,
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `service.submit`.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// The span this call was made from.
    pub parent: Option<SpanId>,
    /// Request the call served (shared by all spans of one request).
    pub request: u64,
    id: SpanId,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A thread's span recorder. Spans recorded here have thread 0; spans
/// of absorbed traces are renumbered to threads 1, 2, ...
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    absorbed: u32,
}

impl Trace {
    /// A recorder timing from `origin` (shared by every thread of the
    /// run so spans line up).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            absorbed: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let id = SpanId {
            thread: 0,
            index: self.spans.len() as u32,
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            id,
        });
        id
    }

    /// Closes a span opened on this thread.
    pub fn end(&mut self, id: SpanId) {
        debug_assert_eq!(id.thread, 0, "span closed on another thread");
        let now = self.now_ns();
        self.spans[id.index as usize].end_ns = now;
    }

    /// Records `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Moves another thread's spans into this trace, renumbering them
    /// so their ids stay unique.
    pub fn absorb(&mut self, other: Trace) {
        debug_assert_eq!(other.absorbed, 0, "absorbed traces are not nested");
        self.absorbed += 1;
        let remap = |id: SpanId| SpanId {
            thread: self.absorbed,
            index: id.index,
        };
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id = remap(s.id);
            s.parent = s.parent.map(remap);
            s
        }));
    }

    /// Median duration in microseconds of the spans named `name`.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let xs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect();
        (!xs.is_empty()).then(|| crate::stats::median(&xs))
    }

    /// Per name: span count, total time and self time (duration minus
    /// the time its child spans cover), in microseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_us: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_us.entry((p.thread, p.index)).or_default() += s.micros();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let children = child_us
                .get(&(s.id.thread, s.id.index))
                .copied()
                .unwrap_or(0.0);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.micros();
            e.2 += (s.micros() - children).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        let fmt = |id: SpanId| format!("\"{}.{}\"", id.thread, id.index);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"span\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"request\": {}}}",
                fmt(s.id),
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), fmt),
                s.request
            )?;
        }
        Ok(())
    }
}
