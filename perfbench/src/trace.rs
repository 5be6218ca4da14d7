//! In-memory spans recorded around the benchmark's calls into the program.
//!
//! A span has a name, a start and an end (ns since the tracer was made),
//! the span that encloses it, and the image it belongs to, if any. Spans
//! stay in memory and are written out when the run ends. A span's self
//! time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index into [`Tracer::names`].
    pub name: u32,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The enclosing span, by index.
    pub parent: Option<u32>,
    /// The image this span worked on.
    pub image: Option<u32>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Time and count of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ self time (duration minus children), ns.
    pub self_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Intern a span name, so hot loops record no strings.
    pub fn name(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u32
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named by an interned id. Spans opened inside
    /// `f` become its children.
    pub fn span_id<R>(
        &mut self,
        name: u32,
        image: Option<u32>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            image,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
        r
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.name(name);
        self.span_id(id, None, f)
    }

    /// The name of an interned id.
    pub fn name_of(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p as usize] = self_ns[p as usize].saturating_sub(s.dur_ns());
            }
        }
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(self.name_of(s.name).to_string()).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += own;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"image\":{}}}",
                self.name_of(s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.image),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
