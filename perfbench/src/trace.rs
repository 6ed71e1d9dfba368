//! A minimal in-memory span recorder: (id, parent, name, start, end),
//! kept in memory and written as JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span named `name`, child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let span = &mut self.spans[id];
        span.end_s = self.epoch.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    /// Run `f` inside a span; returns its value and the span's duration.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Share of the last span named `root` covered by its direct children
    /// (children never overlap: spans are recorded on one thread).
    pub fn child_coverage(&self, root: &str) -> f64 {
        let Some(id) = self.spans.iter().rposition(|s| s.name == root) else {
            return 0.0;
        };
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_s - s.start_s)
            .sum();
        covered / (self.spans[id].end_s - self.spans[id].start_s)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}}}",
                s.name, s.start_s, s.end_s
            );
        }
        out.push_str("\n]");
        out
    }
}
