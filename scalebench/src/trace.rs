//! The traced run's spans: one around each stage call and each layer
//! probe, kept in memory and written out once when the run ends.

use std::time::Instant;

/// A closed or open span: its name, the span it runs inside, and its
/// bounds in seconds since the recorder started.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: Option<f64>,
}

/// An in-memory span recorder. Spans nest: a span opened while another
/// is open becomes its child.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name`; returns its id for [`Spans::close`].
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: None,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and any span opened inside it and left open.
    pub fn close(&mut self, id: usize) {
        let now = self.origin.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_s = Some(now);
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// The spans as JSON, with each span's self time: its duration
    /// minus what its children cover.
    pub fn to_json(&self) -> serde_json::Value {
        let dur = |s: &Span| s.end_s.unwrap_or(s.start_s) - s.start_s;
        let rows: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(dur)
                    .sum();
                serde_json::json!({
                    "name": s.name,
                    "parent": s.parent,
                    "start_s": s.start_s,
                    "dur_s": dur(s),
                    "self_s": dur(s) - children,
                })
            })
            .collect();
        serde_json::Value::Array(rows)
    }
}
