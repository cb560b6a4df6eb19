//! Benchmark-side spans around each layer call. Spans stay in memory and
//! are written once, at exit. A disabled tracer records nothing and costs
//! one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans made while handling one input share this id.
    pub input: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    input: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            input: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_input(&mut self, input: u32) {
        self.input = input;
    }

    /// Runs `f` inside a span named `name` (a `layer.call` label).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            input: self.input,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// A position in the span log, for [`Tracer::total_ms`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Σ duration of the spans named `name` opened since `mark`, in
    /// milliseconds.
    pub fn total_ms(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Self time per layer (the label before the first `.`): each span's
    /// duration minus the part of it its child spans cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out += &format!(
                "{{\"id\":{},\"parent\":{parent},\"input\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.input, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
