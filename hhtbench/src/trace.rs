//! Benchmark-side spans around each call into a layer.
//!
//! Spans live in memory while the benchmark runs and are written out once
//! at exit. A disabled tracer records nothing and hands out no ids, so the
//! untraced passes run the same code with no recording cost beyond a
//! branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One closed (or still open) interval of host time.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`run`, `plan`, `serve.wave`, ...).
    pub name: &'static str,
    /// The span this one was called from.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span (no-op returning `None` when disabled).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let t = self.now_ns();
        self.spans.push(Span { name, parent, start_ns: t, end_ns: t });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Total nanoseconds of spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
    }

    /// Per span, the nanoseconds its direct children cover. Children of
    /// one parent run one after another on one thread, so they never
    /// overlap and their lengths add.
    pub fn child_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                covered[p] += s.ns();
            }
        }
        covered
    }

    /// Share of the time of spans named in `roots` that their child spans
    /// cover (1 minus the roots' self-time share).
    pub fn coverage(&self, roots: &[&str]) -> f64 {
        let covered = self.child_ns();
        let (mut total, mut inside) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if roots.contains(&s.name) {
                total += s.ns();
                inside += covered[i];
            }
        }
        if total == 0 {
            0.0
        } else {
            inside as f64 / total as f64
        }
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let covered = self.child_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |SpanId(p)| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.ns() - covered[i].min(s.ns())
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("job", None);
        t.time("run", id, || ());
        t.end(id);
        assert!(id.is_none());
        assert!(t.ms("run").is_empty());
    }

    #[test]
    fn children_cover_part_of_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.begin("job", None);
        t.time("run", root, || std::thread::sleep(std::time::Duration::from_millis(2)));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(root);
        let c = t.coverage(&["job"]);
        assert!(c > 0.0 && c < 1.0, "coverage {c}");
        assert_eq!(t.ms("run").len(), 1);
    }
}
