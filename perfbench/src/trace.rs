//! The benchmark's own span recorder.
//!
//! Spans wrap calls into the workspace's public functions from the
//! benchmark side; the program itself is never edited or switched into
//! its own tracing mode. A span is named like the per-layer metric it
//! feeds (`client.encrypt_s`, `core.execute_s`, ...), carries the id of
//! the request it belongs to and the phase of the run, and is kept in
//! memory until the run ends.

use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// One-time work a user pays per process (timed into `setup_s`).
    Setup,
    /// Requests run before the measured window; excluded from every
    /// statistic.
    Warmup,
    /// Requests of the measured window.
    Measured,
    /// Off-path layer measurements made after the window in traced runs.
    Probe,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Warmup => "warmup",
            Phase::Measured => "measured",
            Phase::Probe => "probe",
        }
    }
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Metric-style name; the layer is the part before the first `.`.
    pub name: &'static str,
    /// Request id (0 for setup and probe spans).
    pub req: u64,
    /// Part of the run the span belongs to.
    pub phase: Phase,
    /// Recording thread (tenant threads of `serve_mix` have their own).
    pub thread: u32,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer this span times.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing was off.
#[must_use]
pub struct SpanId(Option<usize>);

/// Per-thread span recorder. With tracing off, `begin`/`end` record
/// nothing, and [`Tracer::time`] only reads the clock it needs for its
/// own return value.
pub struct Tracer {
    origin: Instant,
    on: bool,
    thread: u32,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder stamping times relative to `origin`.
    pub fn new(origin: Instant, thread: u32, on: bool) -> Self {
        Tracer { origin, on, thread, spans: Vec::new(), open: Vec::new() }
    }

    /// Turns recording on or off for the spans begun from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span (a no-op while tracing is off).
    pub fn begin(&mut self, name: &'static str, req: u64, phase: Phase) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            req,
            phase,
            thread: self.thread,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
    }

    /// Runs `f`, returning its result and its wall time in seconds; the
    /// call is recorded as span `name` while tracing is on.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        phase: Phase,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, req, phase);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Concatenates span lists of several recorders, rebasing parent links.
pub fn merge(lists: Vec<Vec<SpanRec>>) -> Vec<SpanRec> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Median duration of the spans named `name`, warm-up excluded.
pub fn median_secs(spans: &[SpanRec], name: &str) -> Option<f64> {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && s.phase != Phase::Warmup)
        .map(SpanRec::secs)
        .collect();
    crate::stats::median(&mut v)
}

/// Self time per layer and measured request: each measured span's
/// duration minus the part its direct children cover, summed by layer and
/// divided by `requests`. Layers are returned in first-seen order.
pub fn self_time_per_request(spans: &[SpanRec], requests: usize) -> Vec<(&'static str, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.phase != Phase::Measured {
            continue;
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 * 1e-9;
        match layers.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some((_, total)) => *total += own,
            None => layers.push((s.layer(), own)),
        }
    }
    let n = requests.max(1) as f64;
    layers.into_iter().map(|(l, t)| (l, t / n)).collect()
}

/// Renders spans in the Chrome trace-event format (`chrome://tracing`,
/// Perfetto), microsecond timestamps.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"req\":{},\"phase\":\"{}\"}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.thread,
                s.req,
                s.phase.name()
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}
