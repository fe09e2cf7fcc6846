//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, pass, start, end, parent)`: the pass identifier is
//! shared by every span of one workload pass, and `parent` is the span
//! that was open when this one started. Spans stay in memory and are
//! written as one JSON document when the traced run ends. A disabled
//! tracer records nothing, so untraced passes run the same code with
//! one branch per call.

use bfw_stats::JsonValue;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `wordgraph.build`.
    pub name: &'static str,
    /// The pass this span belongs to.
    pub pass: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled; does nothing otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans (`on`) or ignores every call.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// `true` when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts the next pass: later spans carry the new pass identifier.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// The current pass identifier.
    pub fn pass(&self) -> u32 {
        self.pass
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            pass: self.pass,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans named `name` in `pass`.
    pub fn total_s(&self, name: &str, pass: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Seconds of every span named `name` in `pass`, in order.
    pub fn each_s(&self, name: &str, pass: u32) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Spans recorded in `pass`.
    pub fn count(&self, pass: u32) -> usize {
        self.spans.iter().filter(|s| s.pass == pass).count()
    }

    /// The spans as a JSON document, with the run's provenance.
    pub fn to_json(&self, provenance: JsonValue) -> JsonValue {
        JsonValue::object([
            ("provenance", provenance),
            (
                "spans",
                JsonValue::array(self.spans.iter().map(|s| {
                    JsonValue::object([
                        ("name", JsonValue::from(s.name)),
                        ("pass", JsonValue::from(s.pass)),
                        ("start_ns", JsonValue::from(s.start_ns)),
                        ("end_ns", JsonValue::from(s.end_ns)),
                        ("parent", JsonValue::from(s.parent)),
                    ])
                })),
            ),
        ])
    }

    /// Writes [`Self::to_json`] to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write(&self, path: &Path, provenance: JsonValue) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(provenance).render_pretty())
    }
}

/// Measured cost of one enter/exit pair, in seconds — the tracer's own
/// overhead per span.
pub fn span_cost_s() -> f64 {
    const PAIRS: u32 = 20_000;
    let mut tracer = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..PAIRS {
        tracer.enter("calibrate");
        tracer.exit();
    }
    start.elapsed().as_secs_f64() / f64::from(PAIRS)
}
