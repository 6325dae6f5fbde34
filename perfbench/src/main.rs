//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last on standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics when untraced, the per-layer metrics when traced.
//! The line before it holds the run's provenance. A traced run also
//! writes its spans as a Chrome trace under `.bench_build/`.

use std::process::ExitCode;

fn parse(args: &[String]) -> Result<perfbench::Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(perfbench::Config::new(
        &workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace,
    ))
}

fn main() -> ExitCode {
    // Every executor call passes `WORKERS`; the process-wide pool the
    // serving scheduler uses takes its width from the environment, read
    // once on first use.
    std::env::set_var("PYTFHE_WORKERS", perfbench::WORKERS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cfg.trace {
        match perfbench::write_trace(&cfg, &report.spans) {
            Ok(path) => eprintln!("perfbench: trace written to {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.provenance_json());
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
