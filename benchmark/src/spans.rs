//! Spans of the traced pass, recorded from the benchmark's own files
//! around the calls into each layer: root = workload, child = rung,
//! grandchild = one call at batch / window granularity. Kept in memory,
//! written out once at exit.

use std::path::Path;
use std::time::Instant;

use serde_json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: u64,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            // Sized so the per-call spans of a rung never reallocate
            // inside the loop they time.
            spans: Vec::with_capacity(1 << 17),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            items: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self, items: u64) {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = self.ns(Instant::now());
        self.spans[id].items = items;
    }

    /// One finished call under the innermost open span.
    pub fn call(&mut self, name: &'static str, start: Instant, end: Instant, items: u64) {
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            items,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in µs of the `name` calls recorded since `mark`.
    pub fn call_us_since(&self, mark: usize, name: &str) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let rows = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Object(vec![
                    ("id".to_string(), Value::UInt(id as u64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("name".to_string(), Value::String(s.name.to_string())),
                    ("start_ns".to_string(), Value::UInt(s.start_ns)),
                    ("end_ns".to_string(), Value::UInt(s.end_ns)),
                    ("items".to_string(), Value::UInt(s.items)),
                ])
            })
            .collect();
        std::fs::write(path, Value::Array(rows).to_string())
    }
}
