//! In-memory spans around the benchmark's calls into each layer. Every run
//! times its calls through [`Spans::time`]; only a traced run keeps the
//! spans, and writes them out when it ends. A span's self time is its
//! duration minus what its children cover.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// The traced-run round this span belongs to.
    round: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    keep: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub round: usize,
}

impl Spans {
    /// `keep = false` (untraced runs) times calls and records nothing.
    pub fn new(keep: bool) -> Self {
        Self {
            keep,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Run `f` inside a span named `name`; returns its result and seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        if !self.keep {
            let t = Instant::now();
            let out = f(self);
            return (out, t.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            round: self.round,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = end;
        (out, (end - self.spans[id].start_ns) as f64 / 1e9)
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"round\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.round,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i])
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}
