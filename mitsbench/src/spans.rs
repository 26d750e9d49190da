//! Host-time spans recorded by the traced run around each call into the
//! program's public API. Spans are kept in memory and summarised (and,
//! on request, written out as JSON lines) when the run ends. They do not
//! nest, so a span's self time is its duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layers the traced run records, in report order.
pub const LAYERS: [&str; 9] = [
    "core.build",
    "db.preload",
    "core.fetch_courseware",
    "core.fetch_content",
    "db.state_digest",
    "sim.export",
    "sim.trace_jsonl",
    "sim.rollup",
    "core.teardown",
];

struct Span {
    name: &'static str,
    /// The session (or fetch) the span belongs to.
    trace: u64,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder; a disabled one only runs the wrapped calls.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` of session `trace`.
    pub fn time<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        debug_assert!(LAYERS.contains(&name), "unknown layer {name}");
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            trace,
            start_ns,
            end_ns,
        });
        out
    }

    /// Self time in seconds and call count per layer; every layer in
    /// [`LAYERS`] is present.
    pub fn summary(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> =
            LAYERS.iter().map(|&l| (l, (0.0, 0))).collect();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns) as f64 * 1e-9;
            e.1 += 1;
        }
        out
    }

    /// Write every span as one JSON line: name, trace id, start and end
    /// in nanoseconds since the recorder was created.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"trace\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
