//! `serve_mix`: the `pytfhe-serve` front over in-memory `duplex()` pipes.
//! Two tenants, each with its own `Params::testing()` key installed in
//! set-up, keep up to four VIP-Bench Distinctness jobs outstanding (the
//! default tenant quota) through `ServeClient::submit`/`fetch`, one client
//! thread per tenant.

use std::collections::VecDeque;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

use pytfhe::Server;
use pytfhe_serve::{duplex, PipeEnd, ServeClient, ServeConfig, ServeError, ServeHandle};
use pytfhe_tfhe::{ClientKey, Params, SecureRng, ServerKey};
use pytfhe_vipbench::{Benchmark, Scale};

use crate::layers;
use crate::stats::quantile;
use crate::trace::{merge, Phase, SpanRec, Tracer};
use crate::{metric, mix, repeat_setup, Config, Metric, Sample, WorkloadRun, WORKERS};

const TENANTS: u64 = 2;

/// Request ids of tenant `i` start at `TENANT_BASE * (i + 1)`; a
/// tampering test corrupts the first tenant's output only.
const TENANT_BASE: u64 = 1 << 32;

/// Jobs each tenant keeps in flight: `ServeConfig::default().tenant_quota`.
fn outstanding() -> usize {
    ServeConfig::default().tenant_quota
}

struct Tenant {
    ck: ClientKey,
    rng: SecureRng,
    /// Kept for the off-path `core.execute_s` probe.
    server_key: ServerKey,
    client: ServeClient<PipeEnd>,
    handler: JoinHandle<()>,
    fingerprint: u64,
}

struct Front {
    handle: ServeHandle,
    tenants: Vec<Tenant>,
    bench: Benchmark,
}

/// Key generation per tenant, the serving front, session admission and
/// key install, plus the client-side program build.
fn setup(seed: u64, tenants: u64, tr: &mut Tracer) -> Result<Front, String> {
    let ph = Phase::Setup;
    let bench = pytfhe_vipbench::distinctness(Scale::Test);
    let handle = ServeHandle::start(ServeConfig::default(), None);
    let mut list = Vec::new();
    for t in 0..tenants {
        let ((ck, rng, server_key, key_bytes), _) = tr.time("client.keygen_s", 0, ph, || {
            let mut rng = SecureRng::seed_from_u64(mix(seed, u64::MAX - t));
            let ck = ClientKey::generate(Params::testing(), &mut rng);
            let sk = ck.server_key(&mut rng);
            let bytes = pytfhe_tfhe::io::server_key_to_bytes(&sk);
            (ck, rng, sk, bytes)
        });
        let (near, far) = duplex();
        let handler = handle.attach(far).map_err(|e| format!("attach: {e}"))?;
        let mut client = ServeClient::new(near);
        let (fp, _) = tr.time("serve.install_s", 0, ph, || client.install_key(&key_bytes));
        let fingerprint = fp.map_err(|e| format!("install: {e}"))?;
        list.push(Tenant { ck, rng, server_key, client, handler, fingerprint });
    }
    Ok(Front { handle, tenants: list, bench })
}

impl Front {
    /// Closes every session and joins its handler thread; the front's
    /// scheduler thread is joined when the handle drops.
    fn close(self) -> Result<(), String> {
        for t in self.tenants {
            t.client.close().map_err(|e| format!("close: {e}"))?;
            t.handler.join().map_err(|_| "serve session handler panicked".to_string())?;
        }
        drop(self.handle);
        Ok(())
    }
}

/// What one tenant thread saw.
#[derive(Default)]
struct TenantOut {
    samples: Vec<Sample>,
    warmup: u64,
    warmup_failed: u64,
    refused: u64,
    errors: Vec<String>,
    spans: Vec<SpanRec>,
}

struct Job {
    req: u64,
    measured: Option<u64>,
    bits: Vec<bool>,
    x: Vec<f64>,
    submitted: Instant,
    id: Result<u64, ServeError>,
}

struct Loop<'a> {
    cfg: &'a Config,
    tenant: &'a mut Tenant,
    bench: &'a Benchmark,
    tr: Tracer,
    out: TenantOut,
    base: u64,
}

impl Loop<'_> {
    fn submit(&mut self, k: u64, measured: Option<u64>, phase: Phase) -> Job {
        let req = self.base + k;
        let x = self.bench.sample_input(mix(self.cfg.seed, req));
        let bits = self.bench.encode_input(&x);
        let t = &mut *self.tenant;
        let (cts, _) =
            self.tr.time("client.encrypt_s", req, phase, || t.ck.encrypt_bits(&bits, &mut t.rng));
        let submitted = Instant::now();
        let (id, _) = self.tr.time("serve.submit_s", req, phase, || {
            t.client.submit(t.fingerprint, self.bench.netlist(), &cts, &Params::testing())
        });
        Job { req, measured, bits, x, submitted, id }
    }

    fn complete(&mut self, job: Job, phase: Phase) -> bool {
        let req = job.req;
        let t = &mut *self.tenant;
        let out = match job.id {
            Ok(id) => self.tr.time("serve.fetch_wait_s", req, phase, || t.client.fetch(id)).0,
            Err(e) => Err(e),
        };
        let latency = job.submitted.elapsed().as_secs_f64();
        let ok = match out {
            Err(e) => {
                if matches!(e, ServeError::QuotaExceeded { .. } | ServeError::Overloaded { .. }) {
                    self.out.refused += 1;
                }
                self.out.errors.push(format!("request {req}: {e}"));
                false
            }
            Ok(mut cts) => {
                if self.base == TENANT_BASE
                    && job.measured.is_some()
                    && job.measured == self.cfg.tamper_request
                {
                    cts[0].negate();
                }
                let (dec, _) =
                    self.tr.time("client.decrypt_s", req, phase, || t.ck.decrypt_bits(&cts));
                let bench = self.bench;
                let (ok, _) = self.tr.time("bench.verify_s", req, phase, || {
                    dec == bench.netlist().eval_plain(&job.bits) && bench.check(&job.x)
                });
                if !ok {
                    self.out.errors.push(format!("request {req}: output does not verify"));
                }
                ok
            }
        };
        match job.measured {
            Some(m) => self.out.samples.push(Sample::new(latency, ok, self.cfg.traced(m))),
            None => self.out.warmup_failed += u64::from(!ok),
        }
        ok
    }

    /// One round of jobs, fetched in full, then the barrier; then the
    /// closed loop keeps `depth` jobs in flight until the window closes,
    /// and drains.
    fn run(mut self, depth: usize, barrier: &Barrier) -> TenantOut {
        self.tr.set_on(self.cfg.trace);
        let warm: Vec<Job> =
            (0..depth as u64).map(|k| self.submit(k, None, Phase::Warmup)).collect();
        self.out.warmup = warm.len() as u64;
        for job in warm {
            self.complete(job, Phase::Warmup);
        }
        barrier.wait();
        let start = Instant::now();
        let mut queue = VecDeque::new();
        let mut m = 0;
        loop {
            while queue.len() < depth && self.cfg.keep_going(start.elapsed().as_secs_f64(), m) {
                self.tr.set_on(self.cfg.traced(m));
                queue.push_back(self.submit(depth as u64 + m, Some(m), Phase::Measured));
                m += 1;
            }
            let Some(job) = queue.pop_front() else { break };
            self.tr.set_on(job.measured.is_some_and(|m| self.cfg.traced(m)));
            self.complete(job, Phase::Measured);
        }
        self.out.spans = self.tr.into_spans();
        self.out
    }
}

fn counter(name: &str) -> u64 {
    pytfhe_telemetry::metrics().snapshot().counters.get(name).copied().unwrap_or(0)
}

/// Runs the tenants' closed loops on one client thread each, returning
/// the merged outcome, the window length, and the scheduler's wave and
/// batched-gate counts over the window.
fn drive(
    cfg: &Config,
    front: &mut Front,
    depth: usize,
    origin: Instant,
) -> (TenantOut, f64, u64, u64) {
    let barrier = Barrier::new(front.tenants.len() + 1);
    let bench = &front.bench;
    let (outs, window_s, waves, gates) = std::thread::scope(|s| {
        let handles: Vec<_> = front
            .tenants
            .iter_mut()
            .enumerate()
            .map(|(i, tenant)| {
                let lp = Loop {
                    cfg,
                    tenant,
                    bench,
                    tr: Tracer::new(origin, i as u32 + 1, cfg.trace),
                    out: TenantOut::default(),
                    base: TENANT_BASE * (i as u64 + 1),
                };
                let barrier = &barrier;
                s.spawn(move || lp.run(depth, barrier))
            })
            .collect();
        barrier.wait();
        let (waves0, gates0) = (counter("serve_waves_total"), counter("serve_gates_batched_total"));
        let start = Instant::now();
        let outs: Vec<TenantOut> =
            handles.into_iter().map(|h| h.join().expect("tenant client thread panicked")).collect();
        let window_s = start.elapsed().as_secs_f64();
        let waves = counter("serve_waves_total") - waves0;
        let gates = counter("serve_gates_batched_total") - gates0;
        (outs, window_s, waves, gates)
    });
    let mut all = TenantOut::default();
    let mut spans = Vec::new();
    for o in outs {
        all.samples.extend(o.samples);
        all.warmup += o.warmup;
        all.warmup_failed += o.warmup_failed;
        all.refused += o.refused;
        all.errors.extend(o.errors);
        spans.push(o.spans);
    }
    all.spans = merge(spans);
    (all, window_s, waves, gates)
}

/// Serve-layer metrics that are not span medians.
fn serve_metrics(front: &mut Front, out: &TenantOut, waves: u64, gates: u64) -> Vec<Metric> {
    let t = &mut front.tenants[0];
    let x = front.bench.sample_input(0);
    let cts = t.ck.encrypt_bits(&front.bench.encode_input(&x), &mut t.rng);
    let bytes = pytfhe_serve::frame::encode_submit(
        t.fingerprint,
        front.bench.netlist(),
        &cts,
        &Params::testing(),
    );
    let mut lat: Vec<f64> = out.samples.iter().map(|s| s.latency_s).collect();
    lat.sort_by(f64::total_cmp);
    let p90 = if lat.is_empty() { f64::INFINITY } else { quantile(&lat, 0.9) };
    vec![
        metric("serve.submit_bytes", bytes.len() as f64, "bytes"),
        metric("serve.refused", out.refused as f64, "count"),
        metric("serve.waves", waves as f64, "count"),
        metric("serve.occupancy", gates as f64 / waves.max(1) as f64, "count"),
        metric("serve.request_p90_s", p90, "s"),
    ]
}

pub(crate) fn run(cfg: &Config, origin: Instant) -> Result<WorkloadRun, String> {
    let mut tr = Tracer::new(origin, 0, cfg.trace);
    let mut run = WorkloadRun { params: "testing", ..WorkloadRun::default() };
    let mut front =
        repeat_setup(None, &mut run.setup_s, Front::close, || setup(cfg.seed, TENANTS, &mut tr))?;
    let program = front.bench.netlist().clone();
    run.bootstraps_per_request = pytfhe_backend::netlist_bootstraps(&program);
    let depth = outstanding();
    let (out, window_s, waves, gates) = drive(cfg, &mut front, depth, origin);
    run.window_s = window_s;
    run.warmup = out.warmup;
    run.warmup_failed = out.warmup_failed;
    for e in &out.errors {
        run.error(e);
    }
    let mut front = repeat_setup(Some(front), &mut run.setup_s, Front::close, || {
        setup(cfg.seed, TENANTS, &mut tr)
    })?;
    if cfg.trace {
        run.layers.extend(serve_metrics(&mut front, &out, waves, gates));
        let t = &mut front.tenants[0];
        let bits = front.bench.encode_input(&front.bench.sample_input(1));
        let cts = t.ck.encrypt_bits(&bits, &mut t.rng);
        let server = Server::new(t.server_key.clone());
        layers::repeat(&mut tr, "core.execute_s", 3, 0.2, || {
            server.execute(&program, &cts, WORKERS).expect("direct execute");
        });
        layers::tfhe_kernels(server.key(), &t.ck, &mut t.rng, 2, &mut tr);
        run.layers.extend(layers::netlist_counts(&program));
        layers::lut_cover_probe(&program, &mut tr);
        crate::direct::compile_probe(&mut tr);
        layers::capture_probe(&program, &mut tr);
        run.layers.push(metric("backend.plan_waves", layers::plan_waves(&program) as f64, "count"));
        let binary_bytes = layers::asm_probe(&program, &mut tr);
        run.layers.push(metric("asm.binary_bytes", binary_bytes as f64, "bytes"));
        layers::sched_overhead(&program, &bits, false, &mut tr);
        let (replay, wave) = layers::backend_probe(server.key(), &program, &cts);
        run.layers.extend(layers::backend_metrics(&[replay], &[wave]));
        run.notes.push((
            "off_path_probes",
            "\"tfhe.* kernels, core.execute_s, asm.*, backend.*, netlist.lut_cover_s on the Distinctness program under tenant 0's key; chiseltorch.compile_s of the nn_128 model\"".into(),
        ));
    }
    run.samples = out.samples;
    run.spans = merge(vec![out.spans, tr.into_spans()]);
    front.close()?;
    run.notes.push(("tenants", TENANTS.to_string()));
    run.notes.push(("outstanding_per_tenant", depth.to_string()));
    run.notes.push(("scheduler_waves_in_window", waves.to_string()));
    run.notes.push(("bootstraps_per_request", run.bootstraps_per_request.to_string()));
    run.notes.push((
        "verify",
        "\"decrypted bits == eval_plain of the submitted netlist, and Benchmark::check accepts it against the Distinctness oracle\"".into(),
    ));
    Ok(run)
}

/// The serve layer measured off the path of a workload that does not
/// use it: a one-tenant `testing`-params session running Distinctness
/// one job at a time, three jobs after one warm-up. Returns the serve
/// metrics and the `serve.*` spans, relabelled as probe spans.
pub(crate) fn probe(seed: u64, origin: Instant) -> Result<(Vec<Metric>, Vec<SpanRec>), String> {
    let cfg = Config { max_requests: Some(3), ..Config::new("serve_mix", seed, 60.0, true) };
    let mut tr = Tracer::new(origin, 100, true);
    let mut front = setup(seed, 1, &mut tr)?;
    let (out, _, waves, gates) = drive(&cfg, &mut front, 1, origin);
    if let Some(e) = out.errors.first() {
        return Err(format!("serve probe: {e}"));
    }
    let metrics = serve_metrics(&mut front, &out, waves, gates);
    front.close()?;
    let spans = merge(vec![tr.into_spans(), out.spans])
        .into_iter()
        .filter(|s| s.layer() == "serve" && s.phase != Phase::Warmup)
        .map(|mut s| {
            s.phase = Phase::Probe;
            s.parent = None;
            s
        })
        .collect();
    Ok((metrics, spans))
}
