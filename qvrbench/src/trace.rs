//! In-memory span recording around the public calls the benchmark makes
//! into the simulator, written out once at the end as Chrome-trace JSON
//! (`chrome://tracing` / Perfetto "traceEvents" form).
//!
//! A disabled tracer records nothing and costs one branch per call, so the
//! untraced end-to-end run and the traced per-layer run execute the same
//! code.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.fleet/step_next`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The operation (room, cell, or fleet) the call belongs to.
    pub op: u32,
    /// Worker thread that ran the call (Chrome-trace `tid`).
    pub tid: u32,
}

impl Span {
    /// Duration, µs.
    #[must_use]
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-3
    }
}

/// A span recorder owned by one thread of work.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    #[must_use]
    pub fn new(enabled: bool, origin: Instant, tid: u32) -> Self {
        Tracer {
            enabled,
            origin,
            tid,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("trace clock fits u64")
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns `None` when
    /// disabled.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = SpanId::try_from(self.spans.len()).expect("span count fits u32");
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            tid: self.tid,
        });
        Some(id)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Renames the most recently opened span (a call whose layer is known
    /// only once it returns).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let r = f();
        self.close(id);
        r
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans in (parents are re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = SpanId::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Renders the spans as Chrome-trace complete events (`ph: "X"`, µs
    /// timestamps), each carrying its operation id and parent index.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 * 1e-3,
                s.us(),
                i,
                s.op,
                s.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Writes [`Tracer::chrome_json`] to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory or file cannot be written.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(self.chrome_json().as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let id = t.open("x", None, 0);
        t.close(id);
        assert_eq!(t.span("y", None, 0, || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_render() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin, 0);
        let root = t.open("root", None, 3);
        t.span("child", root, 3, || ());
        t.close(root);
        let mut other = Tracer::new(true, origin, 1);
        let r = other.open("w", None, 4);
        other.span("wc", r, 4, || ());
        other.close(r);
        t.absorb(other);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(2), "absorbed parents re-base");
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let json = t.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"op\":3") && json.contains("\"parent\":-1"));
    }
}
