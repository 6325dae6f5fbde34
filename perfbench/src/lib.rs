//! End-to-end and per-layer benchmark of the PyTFHE workspace.
//!
//! Four closed-loop workloads each stress one layer of the stack and
//! bypass the others:
//!
//! | workload    | path                                                                  |
//! |-------------|-----------------------------------------------------------------------|
//! | `nn_128`    | ChiselTorch → asm → `Server::execute_graph` at `default_128`          |
//! | `vip_deep`  | VIP-Bench Parrando → `Server::execute` (wavefront) at `testing`       |
//! | `serve_mix` | 2 tenants × 4 outstanding Distinctness jobs through `pytfhe-serve`    |
//! | `lut_wide`  | RobertsCross → `lut_cover` → `Server::execute_graph` at `testing_shortint` |
//!
//! Every request is verified: decrypted bits must equal
//! `Netlist::eval_plain` of the executed netlist, and the decoded values
//! must match the source program's own oracle. Layers are timed from the
//! outside, by wrapping calls into each crate's public functions in the
//! benchmark's own spans (see [`trace`]).

pub mod trace;

mod direct;
mod layers;
mod serve;
mod stats;

use std::time::Instant;

use trace::SpanRec;

/// Worker count passed to every executor call, and the width of the
/// process-wide worker pool the serving scheduler dispatches onto.
pub const WORKERS: usize = 2;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["nn_128", "vip_deep", "serve_mix", "lut_wide"];

/// End-to-end metrics and their units, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("request_p50_s", "s"), ("requests_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics and their units, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("tfhe.bootstrap_s", "s"),
    ("tfhe.batch8_bootstrap_s", "s"),
    ("tfhe.keyswitch_s", "s"),
    ("tfhe.fft_roundtrip_s", "s"),
    ("tfhe.pbs_s", "s"),
    ("tfhe.bootstraps_per_s", "1/s"),
    ("netlist.gates", "count"),
    ("netlist.depth", "count"),
    ("netlist.bootstraps_per_request", "count"),
    ("netlist.luts", "count"),
    ("netlist.lut_cover_s", "s"),
    ("chiseltorch.compile_s", "s"),
    ("asm.assemble_s", "s"),
    ("asm.disassemble_s", "s"),
    ("asm.binary_bytes", "bytes"),
    ("backend.capture_s", "s"),
    ("backend.plan_waves", "count"),
    ("backend.replay_s", "s"),
    ("backend.kernel_launches", "count"),
    ("backend.lut_launches", "count"),
    ("backend.lane_fill", "share"),
    ("backend.waves", "count"),
    ("backend.steals", "count"),
    ("backend.sched_overhead_s", "s"),
    ("core.execute_s", "s"),
    ("client.keygen_s", "s"),
    ("client.encrypt_s", "s"),
    ("client.decrypt_s", "s"),
    ("serve.install_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.submit_bytes", "bytes"),
    ("serve.fetch_wait_s", "s"),
    ("serve.refused", "count"),
    ("serve.waves", "count"),
    ("serve.occupancy", "count"),
    ("serve.request_p90_s", "s"),
    ("requests_failed_share", "share"),
    ("selftime.bench_s", "s"),
    ("selftime.client_s", "s"),
    ("selftime.server_s", "s"),
    ("trace.overhead_s", "s"),
    ("host.probe_before_s", "s"),
    ("host.probe_after_s", "s"),
];

/// Full set-ups at each end of a run: before the warm-up and after the
/// window. `setup_s` is the median of all of them. Set-up time follows
/// the host's slow stretches, which last seconds to minutes, so sampling
/// both ends of the run keeps one stretch from setting the whole figure;
/// no measured request ever follows a fresh set-up.
pub const SETUP_REPS: usize = 2;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input and key of the run derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Stop the window after this many measured requests (self-tests).
    pub max_requests: Option<u64>,
    /// Corrupt one output ciphertext of this measured request, to prove
    /// the correctness gate can fail (self-tests).
    pub tamper_request: Option<u64>,
}

impl Config {
    /// A benchmark run over the whole window, untampered.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            max_requests: None,
            tamper_request: None,
        }
    }

    /// Whether the window goes on after `measured` requests and
    /// `elapsed` seconds of it.
    fn keep_going(&self, elapsed: f64, measured: u64) -> bool {
        let time_left = measured == 0 || elapsed < self.seconds;
        time_left && self.max_requests.is_none_or(|max| measured < max)
    }

    /// Measured request `m` is traced in a traced run when `m` is even;
    /// the odd ones give the untraced latencies behind `trace.overhead_s`.
    fn traced(&self, m: u64) -> bool {
        self.trace && m.is_multiple_of(2)
    }
}

/// A named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// One measured request.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sample {
    /// Seconds from handing ciphertexts to the server API until the
    /// output ciphertexts came back; `INFINITY` for a failed request, so
    /// that it misses every latency limit.
    pub latency_s: f64,
    pub ok: bool,
    pub traced: bool,
}

impl Sample {
    pub(crate) fn new(latency_s: f64, ok: bool, traced: bool) -> Self {
        Sample { latency_s: if ok { latency_s } else { f64::INFINITY }, ok, traced }
    }
}

/// What a workload hands back to [`run`].
#[derive(Default)]
pub(crate) struct WorkloadRun {
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    pub warmup: u64,
    pub warmup_failed: u64,
    pub window_s: f64,
    pub bootstraps_per_request: u64,
    pub params: &'static str,
    /// Per-layer metrics the workload computed itself (traced runs).
    pub layers: Vec<Metric>,
    /// Extra provenance entries (`key`, JSON value).
    pub notes: Vec<(&'static str, String)>,
    pub spans: Vec<SpanRec>,
    pub errors: Vec<String>,
}

impl WorkloadRun {
    pub(crate) fn error(&mut self, e: impl std::fmt::Display) {
        if self.errors.len() < 5 {
            self.errors.push(e.to_string());
        }
    }
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// Requests attempted, warm-up included.
    pub attempted: u64,
    /// Requests that errored, were refused, or decrypted wrong.
    pub failed: u64,
    /// The metrics of this run: end-to-end when untraced, per-layer when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Provenance entries (`key`, JSON value).
    pub provenance: Vec<(&'static str, String)>,
    /// The recorded spans (empty when untraced).
    pub spans: Vec<SpanRec>,
}

impl Report {
    /// The one-line result object the benchmark prints last.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The provenance line printed just before the result.
    pub fn provenance_json(&self) -> String {
        let fields: Vec<String> =
            self.provenance.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }
}

/// JSON has no infinities: a failed-request latency prints as the
/// largest finite double.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a description when the workload name is unknown or set-up
/// fails; request failures are counted in the report instead.
pub fn run(cfg: &Config) -> Result<Report, String> {
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}; expected one of {WORKLOADS:?}", cfg.workload));
    }
    let probe_before = host_probe();
    let origin = Instant::now();
    let mut w = match cfg.workload.as_str() {
        "nn_128" => direct::run(direct::Kind::Nn, cfg, origin)?,
        "vip_deep" => direct::run(direct::Kind::Vip, cfg, origin)?,
        "lut_wide" => direct::run(direct::Kind::Lut, cfg, origin)?,
        _ => serve::run(cfg, origin)?,
    };
    let probe_after = host_probe();
    let rss_mb = peak_rss_mb()?;

    let measured = w.samples.len() as u64;
    let failed_measured = w.samples.iter().filter(|s| !s.ok).count() as u64;
    let ok = measured - failed_measured;
    let attempted = measured + w.warmup;
    let failed = failed_measured + w.warmup_failed;
    let window_s = w.window_s.max(f64::MIN_POSITIVE);
    let mut lat: Vec<f64> = w.samples.iter().filter(|s| !s.traced).map(|s| s.latency_s).collect();
    let p50_untraced = stats::median(&mut lat);

    let metrics = if cfg.trace {
        let mut traced: Vec<f64> =
            w.samples.iter().filter(|s| s.traced).map(|s| s.latency_s).collect();
        let p50_traced = stats::median(&mut traced);
        let traced_requests = w.samples.iter().filter(|s| s.traced).count();
        let mut m = std::mem::take(&mut w.layers);
        m.push(metric(
            "tfhe.bootstraps_per_s",
            (ok * w.bootstraps_per_request) as f64 / window_s,
            "1/s",
        ));
        m.push(metric("requests_failed_share", failed as f64 / attempted.max(1) as f64, "share"));
        let self_time = trace::self_time_per_request(&w.spans, traced_requests);
        for (name, layers) in [
            ("selftime.bench_s", &["bench"][..]),
            ("selftime.client_s", &["client"][..]),
            ("selftime.server_s", &["core", "serve"][..]),
        ] {
            let t: f64 = self_time.iter().filter(|(l, _)| layers.contains(l)).map(|(_, t)| t).sum();
            m.push(metric(name, t, "s"));
        }
        let overhead = match (p50_traced, p50_untraced) {
            (Some(t), Some(u)) => t - u,
            _ => 0.0,
        };
        m.push(metric("trace.overhead_s", overhead, "s"));
        m.push(metric("host.probe_before_s", probe_before, "s"));
        m.push(metric("host.probe_after_s", probe_after, "s"));
        span_metrics(&w.spans, &mut m)?;
        order_like(&mut m, &PER_LAYER)?;
        m
    } else {
        let mut m = vec![
            metric("setup_s", stats::median(&mut w.setup_s.clone()).unwrap_or(0.0), "s"),
            metric("request_p50_s", p50_untraced.unwrap_or(f64::INFINITY), "s"),
            metric("requests_per_s", ok as f64 / window_s, "1/s"),
            metric("peak_rss_mb", rss_mb, "MB"),
        ];
        order_like(&mut m, &END_TO_END)?;
        m
    };

    let mut all: Vec<f64> = w.samples.iter().map(|s| s.latency_s).collect();
    all.sort_by(f64::total_cmp);
    let tail = match stats::tail_percentile(all.len()) {
        Some(p) => format!(
            "{{\"percentile\": {p}, \"samples\": {}, \"beyond\": {}, \"latency_s\": {}}}",
            all.len(),
            all.len() - (all.len() * p as usize).div_ceil(100),
            json_num(stats::quantile(&all, f64::from(p) / 100.0))
        ),
        None => format!("{{\"percentile\": null, \"samples\": {}}}", all.len()),
    };
    let mut provenance = vec![
        ("workload", json_str(&cfg.workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", json_num(cfg.seconds)),
        ("trace", cfg.trace.to_string()),
        ("commit", json_str(&git_commit())),
        ("params", json_str(w.params)),
        ("simd_path", json_str(pytfhe_tfhe::simd::active_path().name())),
        (
            "transform",
            json_str(&format!(
                "{} (PYTFHE_TRANSFORM={})",
                pytfhe_tfhe::ntt::active_transform().name(),
                std::env::var("PYTFHE_TRANSFORM").unwrap_or_else(|_| "unset".into())
            )),
        ),
        ("workers", WORKERS.to_string()),
        ("pool_width", pytfhe_backend::WorkerPool::global().width().to_string()),
        ("setup_reps", w.setup_s.len().to_string()),
        (
            "setup_times_s",
            format!("[{}]", w.setup_s.iter().map(|&t| json_num(t)).collect::<Vec<_>>().join(", ")),
        ),
        ("warmup_requests_excluded", w.warmup.to_string()),
        ("requests_timed", measured.to_string()),
        ("requests_traced", w.samples.iter().filter(|s| s.traced).count().to_string()),
        ("spans", w.spans.len().to_string()),
        ("window_s", json_num(w.window_s)),
        ("p50_samples", lat.len().to_string()),
        ("tail", tail),
        ("host_probe_before_s", json_num(probe_before)),
        ("host_probe_after_s", json_num(probe_after)),
    ];
    provenance.append(&mut w.notes);
    if !w.errors.is_empty() {
        let errs: Vec<String> = w.errors.iter().map(|e| json_str(e)).collect();
        provenance.push(("errors", format!("[{}]", errs.join(", "))));
    }
    Ok(Report { attempted, failed, metrics, provenance, spans: w.spans })
}

/// Per-layer timings that are medians of the spans of the same name.
const SPAN_METRICS: [&str; 18] = [
    "tfhe.bootstrap_s",
    "tfhe.keyswitch_s",
    "tfhe.fft_roundtrip_s",
    "tfhe.pbs_s",
    "netlist.lut_cover_s",
    "chiseltorch.compile_s",
    "asm.assemble_s",
    "asm.disassemble_s",
    "backend.capture_s",
    "backend.sched_overhead_s",
    "core.execute_s",
    "client.keygen_s",
    "client.encrypt_s",
    "client.decrypt_s",
    "serve.install_s",
    "serve.submit_s",
    "serve.fetch_wait_s",
    // The whole 8-lane launch; divided per lane below.
    "tfhe.batch8_bootstrap_s",
];

fn span_metrics(spans: &[SpanRec], out: &mut Vec<Metric>) -> Result<(), String> {
    for name in SPAN_METRICS {
        let v = trace::median_secs(spans, name)
            .ok_or_else(|| format!("no span recorded for per-layer metric {name}"))?;
        let v = if name == "tfhe.batch8_bootstrap_s" { v / 8.0 } else { v };
        out.push(metric(name, v, "s"));
    }
    Ok(())
}

/// Sorts `metrics` into the order of `want` and checks the set matches.
fn order_like(metrics: &mut Vec<Metric>, want: &[(&str, &str)]) -> Result<(), String> {
    let mut ordered = Vec::with_capacity(want.len());
    for (name, unit) in want {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != *unit {
            return Err(format!("metric {name} has unit {} instead of {unit}", m.unit));
        }
        ordered.push(m.clone());
    }
    if let Some(extra) = metrics.iter().find(|m| !want.iter().any(|(n, _)| *n == m.name)) {
        return Err(format!("metric {} is not declared", extra.name));
    }
    *metrics = ordered;
    Ok(())
}

/// Runs [`SETUP_REPS`] full set-ups, each replacing the one before:
/// `retire` releases the live one (so memory holds one at a time) and
/// `make` builds the next. Pushes each `make` time onto `times` and
/// returns the last set-up.
pub(crate) fn repeat_setup<T>(
    mut live: Option<T>,
    times: &mut Vec<f64>,
    mut retire: impl FnMut(T) -> Result<(), String>,
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    for _ in 0..SETUP_REPS {
        if let Some(old) = live.take() {
            retire(old)?;
        }
        let t0 = Instant::now();
        live = Some(make()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(live.expect("SETUP_REPS is at least 1"))
}

/// Seeds one request's or key's randomness from the run seed and an
/// index (splitmix64 finalizer).
pub(crate) fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host-noise diagnostic: a floating-point and memory sweep over 4 MiB
/// that uses no repository code, timed as the median of five sweeps.
/// It is reported next to the results only; nothing is normalised,
/// filtered or rerun by it.
pub fn host_probe() -> f64 {
    const N: usize = 1 << 19;
    let mut a: Vec<f64> = (0..N).map(|i| i as f64 * 1e-6).collect();
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0.0f64;
            for pass in 0..16 {
                for i in 0..N {
                    let j = (i.wrapping_mul(7919) + pass) & (N - 1);
                    acc = acc * 0.999_999 + a[j];
                    a[i] = a[i] * 1.000_000_1 + 1e-9;
                }
            }
            std::hint::black_box(acc);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&mut times).unwrap_or(0.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without spawning git; `"unknown"` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.len() - reference.len()].trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Writes the run's spans as a Chrome trace under `.bench_build/` in the
/// working directory, returning the path.
///
/// # Errors
///
/// Returns the I/O error text.
pub fn write_trace(cfg: &Config, spans: &[SpanRec]) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_build").join("perfbench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", cfg.workload, cfg.seed));
    std::fs::write(&path, trace::chrome_json(spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
