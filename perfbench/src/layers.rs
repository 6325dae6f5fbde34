//! Off-path layer measurements made after the window of a traced run:
//! TFHE kernels at the workload's own parameters, and backend, netlist
//! and assembler timings on the workload's own program.

use std::time::Instant;

use pytfhe_backend::{
    execute_parallel, netlist_bootstraps, ExecStats, KernelGraph, PlainEngine, TfheEngine,
};
use pytfhe_netlist::opt::{lut_cover, LutCoverConfig};
use pytfhe_netlist::{Levels, Netlist};
use pytfhe_tfhe::fft::FreqPoly;
use pytfhe_tfhe::poly::TorusPoly;
use pytfhe_tfhe::{BootGate, ClientKey, LweCiphertext, SecureRng, ServerKey, Torus32};

use crate::stats::median;
use crate::trace::{Phase, Tracer};
use crate::{metric, Metric, WORKERS};

/// Times `f` as probe spans named `name`: one untimed warm call, then
/// at least `min_reps` timed calls and more while `budget_s` lasts.
pub(crate) fn repeat(
    tr: &mut Tracer,
    name: &'static str,
    min_reps: usize,
    budget_s: f64,
    mut f: impl FnMut(),
) {
    f();
    let t0 = Instant::now();
    let mut reps = 0;
    while reps < min_reps || (reps < 500 && t0.elapsed().as_secs_f64() < budget_s) {
        tr.time(name, 0, Phase::Probe, &mut f);
        reps += 1;
    }
}

/// Single-lane gate, 8-lane batched gate, key switch, transform round
/// trip and programmable bootstrap, each on fresh ciphertexts under the
/// workload's key (spans `tfhe.*`). `precision` is the message precision
/// of the programmable bootstrap's table.
pub(crate) fn tfhe_kernels(
    key: &ServerKey,
    client: &ClientKey,
    rng: &mut SecureRng,
    precision: u32,
    tr: &mut Tracer,
) {
    let params = *key.params();
    let cts: Vec<LweCiphertext> = (0..16).map(|i| client.encrypt_bit(i % 3 == 0, rng)).collect();
    let mut scratch = key.gate_scratch();
    let mut out = LweCiphertext::trivial(Torus32::ZERO, params.lwe_dim);
    repeat(tr, "tfhe.bootstrap_s", 3, 0.2, || {
        key.gate_into(BootGate::Nand, &cts[0], &cts[1], &mut scratch, &mut out);
    });

    let pairs: Vec<(&LweCiphertext, &LweCiphertext)> =
        (0..8).map(|i| (&cts[2 * i], &cts[2 * i + 1])).collect();
    let mut outs = vec![out.clone(); 8];
    repeat(tr, "tfhe.batch8_bootstrap_s", 3, 0.2, || {
        key.batch_bootstrap(BootGate::Nand, &pairs, &mut outs, &mut scratch);
    });

    let bk = key.bootstrapping_key();
    let mut boot = bk.boot_scratch();
    let raw = bk.bootstrap_raw(&cts[0], Torus32::from_fraction(1, 3), &mut boot);
    repeat(tr, "tfhe.keyswitch_s", 3, 0.1, || key.keyswitch_key().switch_into(&raw, &mut out));

    let n = params.poly_size;
    let poly = TorusPoly::from_coeffs(
        (0..n).map(|i| Torus32((i as u32).wrapping_mul(0x9E37_79B9))).collect(),
    );
    let mut freq = FreqPoly::zero(n);
    let mut back = TorusPoly::zero(n);
    repeat(tr, "tfhe.fft_roundtrip_s", 3, 0.1, || {
        bk.plan().forward_torus_into(&poly, &mut freq);
        bk.plan().inverse_torus_destructive(&mut freq, &mut back);
    });

    let table: Vec<u32> = (0..1u32 << precision).map(|m| (m + 1) % (1 << precision)).collect();
    let msg = client.encrypt_message(1, precision, rng);
    repeat(tr, "tfhe.pbs_s", 3, 0.2, || {
        key.apply_lut_into(&msg, &table, precision, &mut scratch, &mut out);
    });
}

/// Exact counts of the executed netlist.
pub(crate) fn netlist_counts(program: &Netlist) -> Vec<Metric> {
    vec![
        metric("netlist.gates", program.num_gates() as f64, "count"),
        metric("netlist.depth", f64::from(Levels::compute(program).depth()), "count"),
        metric("netlist.bootstraps_per_request", netlist_bootstraps(program) as f64, "count"),
        metric("netlist.luts", program.num_luts() as f64, "count"),
    ]
}

/// Times `lut_cover` on a boolean program the workload runs unlowered.
pub(crate) fn lut_cover_probe(source: &Netlist, tr: &mut Tracer) {
    repeat(tr, "netlist.lut_cover_s", 3, 0.1, || {
        lut_cover(source, &LutCoverConfig::default()).expect("lut_cover accepts compiled programs");
    });
}

/// Times plan capture of a program the workload runs without a plan.
pub(crate) fn capture_probe(program: &Netlist, tr: &mut Tracer) {
    repeat(tr, "backend.capture_s", 3, 0.1, || {
        pytfhe_backend::capture(program, &Default::default()).expect("capture accepts the program");
    });
}

/// Waves of the program's kernel plan.
pub(crate) fn plan_waves(program: &Netlist) -> usize {
    pytfhe_backend::capture(program, &Default::default()).map_or(0, |p| p.num_waves())
}

/// Times assembly and disassembly of a program the workload ships
/// inside another call (spans `asm.*`), returning the binary size.
pub(crate) fn asm_probe(program: &Netlist, tr: &mut Tracer) -> usize {
    let binary = pytfhe_asm::assemble(program);
    repeat(tr, "asm.assemble_s", 3, 0.1, || drop(pytfhe_asm::assemble(program)));
    repeat(tr, "asm.disassemble_s", 3, 0.1, || {
        pytfhe_asm::disassemble(&binary).expect("assembled programs disassemble");
    });
    binary.len()
}

/// Scheduler overhead: the workload's executor over the same program
/// with `PlainEngine`, which evaluates gates on plaintext bits (span
/// `backend.sched_overhead_s`). Not FHE throughput.
pub(crate) fn sched_overhead(program: &Netlist, bits: &[bool], graph: bool, tr: &mut Tracer) {
    let engine = PlainEngine::new();
    if graph {
        let kg = KernelGraph::new();
        repeat(tr, "backend.sched_overhead_s", 5, 0.1, || {
            kg.execute(&engine, program, bits, WORKERS).expect("plain replay");
        });
    } else {
        repeat(tr, "backend.sched_overhead_s", 5, 0.1, || {
            execute_parallel(&engine, program, bits, WORKERS).expect("plain wavefront");
        });
    }
}

/// One encrypted run of the program through each backend executor the
/// workload does not call itself: kernel-graph replay (its `replay_s`
/// leaves out the capture) and the wavefront. Returns `(replay,
/// wavefront)` stats.
pub(crate) fn backend_probe(
    key: &ServerKey,
    program: &Netlist,
    cts: &[LweCiphertext],
) -> (ExecStats, ExecStats) {
    let engine = TfheEngine::new(key);
    let (_, replay) =
        KernelGraph::new().execute(&engine, program, cts, WORKERS).expect("encrypted replay");
    let (_, wave) = execute_parallel(&engine, program, cts, WORKERS).expect("encrypted wavefront");
    (replay, wave)
}

/// Backend metrics: replay time, launches and lane fill from
/// kernel-graph executions, waves and steals from the executor the
/// workload runs (medians over the given executions).
pub(crate) fn backend_metrics(replays: &[ExecStats], execs: &[ExecStats]) -> Vec<Metric> {
    let med = |stats: &[ExecStats], f: &dyn Fn(&ExecStats) -> f64| {
        let mut v: Vec<f64> = stats.iter().map(f).collect();
        median(&mut v).unwrap_or(0.0)
    };
    let launches = med(replays, &|s| (s.kernel_launches + s.lut_launches) as f64);
    let bootstraps = med(replays, &|s| s.bootstraps as f64);
    vec![
        metric("backend.replay_s", med(replays, &|s| s.replay_s), "s"),
        metric("backend.kernel_launches", med(replays, &|s| s.kernel_launches as f64), "count"),
        metric("backend.lut_launches", med(replays, &|s| s.lut_launches as f64), "count"),
        metric("backend.lane_fill", bootstraps / (launches * 8.0).max(1.0), "share"),
        metric("backend.waves", med(execs, &|s| s.waves as f64), "count"),
        metric("backend.steals", med(execs, &|s| s.steals as f64), "count"),
    ]
}
