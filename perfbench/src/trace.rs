//! The traced run's recorder: spans (name, start, end, parent, request)
//! and counts, kept in memory and written out once the run ends.
//!
//! Spans come from the benchmark's own calls into the harness layers; the
//! harness itself is not instrumented. A span's self time is its duration
//! minus the time its child spans cover. Layer spans carry a layer name
//! (`dispatch.ideal`, `replay.record`, ...); structural spans (`run`,
//! `probe`, `prepare`, `serve.request`, and one per experiment, named
//! after it) only group them, so their self time is glue that no layer
//! accounts for.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished (or open) span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span and count recorder for one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    counts: BTreeMap<&'static str, f64>,
}

/// Structural span names: everything else is a layer span.
const STRUCTURAL: [&str; 4] = ["run", "probe", "serve.request", "prepare"];

fn is_layer(name: &str) -> bool {
    !STRUCTURAL.contains(&name) && multiscalar_harness::registry::find(name).is_none()
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Tags the spans opened from now on with request `id` (0 = none).
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Adds `n` to the count `name`.
    pub fn add(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Durations (seconds) of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self time (seconds) summed per layer name, over every span.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if is_layer(s.name) {
                *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
            }
        }
        out
    }

    /// `(root wall, layer self time inside it)` in seconds for the first
    /// top-level span named `root`.
    pub fn attribution(&self, root: &str) -> (f64, f64) {
        let Some(r) = self
            .spans
            .iter()
            .position(|s| s.parent.is_none() && s.name == root)
        else {
            return (0.0, 0.0);
        };
        let own = self.self_ns();
        let mut inside = vec![false; self.spans.len()];
        inside[r] = true;
        let mut attributed = 0u64;
        // Parents always precede their children in `spans`.
        for i in r + 1..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                inside[i] = inside[p];
            }
            if inside[i] && is_layer(self.spans[i].name) {
                attributed += own[i];
            }
        }
        let root = &self.spans[r];
        (
            (root.end_ns - root.start_ns) as f64 / 1e9,
            attributed as f64 / 1e9,
        )
    }

    /// Writes every span and count as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, n) in &self.counts {
            writeln!(out, "{{\"count\":\"{name}\",\"value\":{n}}}")?;
        }
        out.flush()
    }
}
