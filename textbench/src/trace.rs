//! In-memory spans recorded around the calls into each layer.
//!
//! A span is a name, a start and an end (nanoseconds since the tracer was
//! created), the index of the span that caused it and the request it
//! belongs to. Nothing is recorded when tracing is off: the untraced run
//! pays only the two clock reads per request that its latency needs.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a span that no other span caused.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Counts recorded beside the spans, by name.
    tallies: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), tallies: BTreeMap::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index ([`NO_PARENT`] when tracing is off).
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        if span != NO_PARENT {
            let end = self.now_ns();
            self.spans[span as usize].end_ns = end;
        }
    }

    /// Renames a span once its classification is known (a cache hit or
    /// miss is only known after the call returns).
    pub fn rename(&mut self, span: u32, name: &'static str) {
        if span != NO_PARENT {
            self.spans[span as usize].name = name;
        }
    }

    /// Adds `v` to the count `name`.
    pub fn tally(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.tallies.entry(name).or_default() += v;
        }
    }

    /// Sets the count `name` to `v`.
    pub fn set_tally(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.tallies.insert(name, v);
        }
    }

    /// A recorded count, 0 if it was never recorded.
    pub fn tallied(&self, name: &str) -> f64 {
        self.tallies.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.open(name, parent, request);
        let out = f();
        self.close(s);
        out
    }

    /// Call count and total nanoseconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `index name start_ns end_ns parent request` (`-` for no parent).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_owned() } else { s.parent.to_string() };
            writeln!(w, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.request)?;
        }
        w.flush()
    }
}

/// The context of one request: the tracer plus the request's root span.
pub struct Req<'a> {
    pub tracer: &'a mut Tracer,
    pub root: u32,
    pub id: u64,
}

impl Req<'_> {
    pub fn traced(&self) -> bool {
        self.tracer.on()
    }

    pub fn tally(&mut self, name: &'static str, v: f64) {
        self.tracer.tally(name, v);
    }

    /// Runs `f` inside a child span of the request.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(name, self.root, self.id, f)
    }
}
