//! The single-client workloads: one closed-loop client hands fresh
//! ciphertexts straight to a `pytfhe::Server` and waits for the result.
//!
//! - `nn_128`: a ChiselTorch `Linear(2,2)+ReLU` slice compiled, assembled
//!   and disassembled, replayed through `Server::execute_graph` at
//!   `Params::default_128()`.
//! - `vip_deep`: VIP-Bench Parrando (`Scale::Test`) through
//!   `Server::execute`, the Algorithm 1 wavefront, at `Params::testing()`.
//! - `lut_wide`: VIP-Bench RobertsCross lowered by `lut_cover`, replayed
//!   through `Server::execute_graph` at `Params::testing_shortint()` on
//!   message-encoded inputs.

use std::sync::Arc;
use std::time::Instant;

use chiseltorch::nn::{self, Module};
use chiseltorch::{DType, PlainTensor};
use pytfhe::Server;
use pytfhe_backend::{capture, ExecStats};
use pytfhe_netlist::opt::{lut_cover, LutCoverConfig};
use pytfhe_netlist::Netlist;
use pytfhe_tfhe::{encode_message, ClientKey, LweCiphertext, Params, SecureRng};
use pytfhe_vipbench::{Benchmark, Scale};

use crate::layers;
use crate::trace::{merge, Phase, Tracer};
use crate::{metric, mix, repeat_setup, Config, Sample, WorkloadRun, WORKERS};

/// Which single-client workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Nn,
    Vip,
    Lut,
}

/// How bits travel in ciphertexts.
#[derive(Clone, Copy)]
enum Encoding {
    /// Gate bootstrapping's `±1/8` encoding.
    Gate,
    /// Message encoding at this many bits (LUT-lowered programs).
    Message(u32),
}

/// Checks decoded outputs against the source program's oracle.
type Oracle = Box<dyn Fn(&[bool]) -> bool>;

/// Input bits for request `k`, with the oracle for its outputs.
type Inputs = Box<dyn Fn(u64) -> (Vec<bool>, Oracle)>;

/// The model of `nn_128`: `Linear(2,2)` with weights and bias on the
/// `Fixed{3,1}` grid (so the circuit's constants equal the reference
/// weights), then `ReLU`.
const NN_DTYPE: DType = DType::Fixed { width: 3, frac: 1 };

fn nn_model() -> nn::Sequential {
    let weight = PlainTensor::from_vec(&[2, 2], vec![1.0, -0.5, 0.5, 1.0]).expect("2x2 weight");
    let bias = PlainTensor::from_vec(&[2], vec![0.0, -0.5]).expect("2 biases");
    let linear = nn::Linear::new(2, 2)
        .with_weight(weight)
        .and_then(|l| l.with_bias(bias))
        .expect("shapes match Linear(2,2)");
    nn::Sequential::new(NN_DTYPE).add(linear).add(nn::ReLU::new())
}

/// Times `chiseltorch::compile` of the `nn_128` model off the path of a
/// workload that does not compile (span `chiseltorch.compile_s`).
pub(crate) fn compile_probe(tr: &mut Tracer) {
    let model = nn_model();
    layers::repeat(tr, "chiseltorch.compile_s", 3, 0.1, || {
        chiseltorch::compile(&model, &[2]).expect("the nn_128 model compiles");
    });
}

/// Inputs on the `{-1, -0.5, 0, 0.5, 1}` grid keep every partial sum of
/// the model inside `Fixed{3,1}`'s range, so no value wraps. Each product
/// truncates by less than one resolution step, so the circuit may trail
/// the exact `forward_plain` by under `in_features` steps.
fn nn_inputs(
    seed: u64,
    model: Arc<nn::Sequential>,
    compiled: Arc<chiseltorch::CompiledModel>,
) -> Inputs {
    Box::new(move |k| {
        let r = mix(seed, k);
        let x: Vec<f64> = (0..2).map(|i| ((r >> (8 * i)) % 5) as f64 * 0.5 - 1.0).collect();
        let bits = compiled.encode_input(&x);
        let model = Arc::clone(&model);
        let compiled = Arc::clone(&compiled);
        let oracle: Oracle = Box::new(move |dec| {
            let want = model
                .forward_plain(&PlainTensor::from_vec(&[2], x.clone()).expect("2 inputs"))
                .expect("forward_plain on the compiled shape");
            let tol = 2.0 * NN_DTYPE.resolution();
            let got = compiled.decode_output(dec);
            got.len() == want.len() && got.iter().zip(want.data()).all(|(g, w)| (g - w).abs() < tol)
        });
        (bits, oracle)
    })
}

/// VIP-Bench inputs from the workload's own generator. The decrypted bits
/// must equal the source netlist's output, and `Benchmark::check` must
/// accept the source netlist against the program's oracle within the
/// benchmark's tolerance, so the decoded result matches the oracle.
fn vip_inputs(seed: u64, bench: Arc<Benchmark>) -> Inputs {
    Box::new(move |k| {
        let x = bench.sample_input(mix(seed, k));
        let bits = bench.encode_input(&x);
        let bench = Arc::clone(&bench);
        let source_out = bench.netlist().eval_plain(&bits);
        let oracle: Oracle = Box::new(move |dec| dec == source_out && bench.check(&x));
        (bits, oracle)
    })
}

/// One set-up's products.
struct Direct {
    kind: Kind,
    encoding: Encoding,
    client: ClientKey,
    rng: SecureRng,
    server: Server,
    /// The boolean program as compiled.
    source: Netlist,
    /// The netlist the server executes.
    program: Netlist,
    inputs: Inputs,
}

fn params(kind: Kind) -> (Params, &'static str) {
    match kind {
        Kind::Nn => (Params::default_128(), "default_128"),
        Kind::Vip => (Params::testing(), "testing"),
        Kind::Lut => (Params::testing_shortint(), "testing_shortint"),
    }
}

/// Everything a user pays once per process: key generation, compile,
/// assemble/disassemble, `lut_cover`, server construction and plan
/// capture.
fn setup(kind: Kind, seed: u64, tr: &mut Tracer) -> Result<Direct, String> {
    let ph = Phase::Setup;
    let (params, _) = params(kind);
    let ((client, rng, server_key), _) = tr.time("client.keygen_s", 0, ph, || {
        let mut rng = SecureRng::seed_from_u64(mix(seed, u64::MAX));
        let client = ClientKey::generate(params, &mut rng);
        let server_key = client.server_key(&mut rng);
        (client, rng, server_key)
    });
    let (source, inputs): (Netlist, Inputs) = match kind {
        Kind::Nn => {
            let model = nn_model();
            let (compiled, _) =
                tr.time("chiseltorch.compile_s", 0, ph, || chiseltorch::compile(&model, &[2]));
            let compiled = Arc::new(compiled.map_err(|e| format!("compile: {e}"))?);
            (compiled.netlist().clone(), nn_inputs(seed, Arc::new(model), compiled))
        }
        Kind::Vip | Kind::Lut => {
            // VIP-Bench builds its circuits without ChiselTorch; the build
            // counts in `setup_s` only.
            let bench = Arc::new(match kind {
                Kind::Vip => pytfhe_vipbench::parrando(Scale::Test),
                _ => pytfhe_vipbench::roberts_cross(Scale::Test),
            });
            (bench.netlist().clone(), vip_inputs(seed, bench))
        }
    };
    let (binary, _) = tr.time("asm.assemble_s", 0, ph, || pytfhe_asm::assemble(&source));
    let (shipped, _) = tr.time("asm.disassemble_s", 0, ph, || pytfhe_asm::disassemble(&binary));
    let shipped = shipped.map_err(|e| format!("disassemble: {e}"))?;
    let (program, encoding) = if kind == Kind::Lut {
        let (lowered, _) = tr
            .time("netlist.lut_cover_s", 0, ph, || lut_cover(&shipped, &LutCoverConfig::default()));
        let (lowered, _) = lowered.map_err(|e| format!("lut_cover: {e}"))?;
        let precision = lowered.lut_precision().ok_or("lowered program carries no precision")?;
        (lowered, Encoding::Message(u32::from(precision)))
    } else {
        (shipped, Encoding::Gate)
    };
    let server = Server::new(server_key);
    if kind != Kind::Vip {
        // `Server::execute_graph` captures on first sight; this times the
        // same public capture from outside. The server's own capture runs
        // in the excluded warm-up request.
        let (plan, _) =
            tr.time("backend.capture_s", 0, ph, || capture(&program, &Default::default()));
        plan.map_err(|e| format!("capture: {e}"))?;
    }
    Ok(Direct { kind, encoding, client, rng, server, source, program, inputs })
}

/// Negates the bit a ciphertext carries, as a tampering server would.
fn flip(ct: &mut LweCiphertext, encoding: Encoding) {
    match encoding {
        Encoding::Gate => ct.negate(),
        Encoding::Message(p) => {
            let both = encode_message(0, p) + encode_message(1, p);
            let mut flipped = LweCiphertext::trivial(both, ct.dim());
            flipped.sub_assign(ct);
            *ct = flipped;
        }
    }
}

impl Direct {
    fn encrypt(&mut self, bits: &[bool]) -> Vec<LweCiphertext> {
        match self.encoding {
            Encoding::Gate => self.client.encrypt_bits(bits, &mut self.rng),
            Encoding::Message(p) => bits
                .iter()
                .map(|&b| self.client.encrypt_message(u32::from(b), p, &mut self.rng))
                .collect(),
        }
    }

    /// Decrypts to bits; `None` when a message decodes outside `{0, 1}`.
    fn decrypt(&self, cts: &[LweCiphertext]) -> Option<Vec<bool>> {
        match self.encoding {
            Encoding::Gate => Some(self.client.decrypt_bits(cts)),
            Encoding::Message(p) => cts
                .iter()
                .map(|ct| match self.client.decrypt_message(ct, p) {
                    0 => Some(false),
                    1 => Some(true),
                    _ => None,
                })
                .collect(),
        }
    }

    /// Runs request `req`: encrypt, execute, decrypt, verify. Returns the
    /// verified outcome, the server-call latency, and the executor's
    /// statistics when it reports them.
    fn request(
        &mut self,
        req: u64,
        phase: Phase,
        tamper: bool,
        tr: &mut Tracer,
        run: &mut WorkloadRun,
    ) -> (bool, f64, Option<ExecStats>) {
        let span = tr.begin("bench.request", req, phase);
        let (bits, oracle) = (self.inputs)(req);
        let (cts, _) = tr.time("client.encrypt_s", req, phase, || self.encrypt(&bits));
        let (result, latency) = tr.time("core.execute_s", req, phase, || match self.kind {
            Kind::Vip => self.server.execute(&self.program, &cts, WORKERS).map(|o| (o, None)),
            _ => self.server.execute_graph(&self.program, &cts, WORKERS).map(|(o, s)| (o, Some(s))),
        });
        let (ok, stats) = match result {
            Err(e) => {
                run.error(format!("request {req}: {e}"));
                (false, None)
            }
            Ok((mut out, stats)) => {
                if tamper {
                    flip(&mut out[0], self.encoding);
                }
                let (dec, _) = tr.time("client.decrypt_s", req, phase, || self.decrypt(&out));
                let (ok, _) = tr.time("bench.verify_s", req, phase, || {
                    dec.is_some_and(|d| d == self.program.eval_plain(&bits) && oracle(&d))
                });
                if !ok {
                    run.error(format!("request {req}: output does not verify"));
                }
                (ok, stats)
            }
        };
        tr.end(span);
        (ok, latency, stats)
    }
}

/// Warm-up requests excluded from each run: they pay the pool spawn,
/// lazily built tables, first-touch pages and, for the graph executor,
/// the server's own plan capture.
fn warmup(kind: Kind) -> u64 {
    match kind {
        Kind::Vip => 2,
        Kind::Nn | Kind::Lut => 1,
    }
}

pub(crate) fn run(kind: Kind, cfg: &Config, origin: Instant) -> Result<WorkloadRun, String> {
    let mut tr = Tracer::new(origin, 0, cfg.trace);
    let mut run = WorkloadRun { params: params(kind).1, ..WorkloadRun::default() };
    let retire = |d: Direct| {
        drop(d);
        Ok(())
    };
    let mut d = repeat_setup(None, &mut run.setup_s, retire, || setup(kind, cfg.seed, &mut tr))?;
    run.bootstraps_per_request = pytfhe_backend::netlist_bootstraps(&d.program);

    run.warmup = warmup(kind);
    for k in 0..run.warmup {
        let (ok, _, _) = d.request(k, Phase::Warmup, false, &mut tr, &mut run);
        run.warmup_failed += u64::from(!ok);
    }
    let mut stats = Vec::new();
    let start = Instant::now();
    let mut m = 0;
    while cfg.keep_going(start.elapsed().as_secs_f64(), m) {
        tr.set_on(cfg.traced(m));
        let tamper = cfg.tamper_request == Some(m);
        let (ok, latency, s) =
            d.request(run.warmup + m, Phase::Measured, tamper, &mut tr, &mut run);
        run.samples.push(Sample::new(latency, ok, cfg.traced(m)));
        stats.extend(s);
        m += 1;
    }
    run.window_s = start.elapsed().as_secs_f64();
    tr.set_on(cfg.trace);
    let mut d = repeat_setup(Some(d), &mut run.setup_s, retire, || setup(kind, cfg.seed, &mut tr))?;

    if cfg.trace {
        let precision = match d.encoding {
            Encoding::Message(p) => p,
            Encoding::Gate => 2,
        };
        layers::tfhe_kernels(d.server.key(), &d.client, &mut d.rng, precision, &mut tr);
        run.layers.extend(layers::netlist_counts(&d.program));
        run.layers.push(metric(
            "asm.binary_bytes",
            pytfhe_asm::assemble(&d.source).len() as f64,
            "bytes",
        ));
        run.layers.push(metric(
            "backend.plan_waves",
            layers::plan_waves(&d.program) as f64,
            "count",
        ));
        if kind != Kind::Lut {
            layers::lut_cover_probe(&d.source, &mut tr);
        }
        if kind != Kind::Nn {
            compile_probe(&mut tr);
        }
        let (bits, _) = (d.inputs)(u64::MAX);
        layers::sched_overhead(&d.program, &bits, kind != Kind::Vip, &mut tr);
        if kind == Kind::Vip {
            layers::capture_probe(&d.program, &mut tr);
            let cts = d.encrypt(&bits);
            let (replay, wave) = layers::backend_probe(d.server.key(), &d.program, &cts);
            run.layers.extend(layers::backend_metrics(&[replay], &[wave]));
        } else {
            run.layers.extend(layers::backend_metrics(&stats, &stats));
        }
        let (serve_layers, serve_spans) = crate::serve::probe(cfg.seed, origin)?;
        run.layers.extend(serve_layers);
        run.spans = merge(vec![tr.into_spans(), serve_spans]);
        run.notes.push((
            "off_path_probes",
            "\"tfhe.* kernels at the workload's params; serve.* from a 1-tenant testing-params serve session; backend.replay_s/launches/lane_fill/waves/steals, backend.capture_s, netlist.lut_cover_s and chiseltorch.compile_s (of the nn_128 model) where the workload's own path does not run them\"".into(),
        ));
    } else {
        run.spans = tr.into_spans();
    }
    run.notes.push(("program_gates", d.program.num_gates().to_string()));
    run.notes.push(("bootstraps_per_request", run.bootstraps_per_request.to_string()));
    run.notes.push((
        "verify",
        "\"decrypted bits == eval_plain of the executed netlist, and decoded outputs match the program's oracle (forward_plain within 2 steps, or Benchmark::check)\"".into(),
    ));
    Ok(run)
}
