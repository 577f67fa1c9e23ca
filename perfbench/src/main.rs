//! Benchmark command line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9_sweep --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Prints a run-environment record, the run's simulated outcome and, as
//! the last line, `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when a correctness check failed and 2 on bad arguments. A traced run
//! also writes its spans to `perfbench/out/<workload>-seed<seed>.json`.

use std::process::ExitCode;

use astriflash_perfbench::envrec::{self, LoadSample};
use astriflash_perfbench::{golden, run, RunOpts, Scale, Workload};

fn parse_args(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: Workload::Fig9Sweep,
        seed: 1,
        seconds: 40.0,
        trace: false,
        scale: Scale::Quick,
        golden: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value} (0 or 1)")),
                }
            }
            "--scale" => {
                opts.scale = match value {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    _ => return Err(format!("bad scale {value} (quick or full)")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.golden = golden(opts.workload, opts.scale, opts.seed);
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fig9_sweep|fig1_lru \
                 [--seed N] [--seconds S] [--trace 0|1] [--scale quick|full]"
            );
            return ExitCode::from(2);
        }
    };
    let before = LoadSample::now();
    let mut outcome = run(&opts);
    let after = LoadSample::now();
    println!(
        "{}",
        envrec::record_json(outcome.workers, &outcome.unit_wall_s, &before, &after)
    );
    if let Some(trace) = outcome.trace_json.take() {
        let path = format!(
            "perfbench/out/{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        );
        let written = astriflash_trace::json::validate(&trace)
            .map_err(|e| format!("invalid trace JSON: {e}"))
            .and_then(|()| {
                std::fs::create_dir_all("perfbench/out")
                    .and_then(|()| std::fs::write(&path, trace))
                    .map_err(|e| format!("cannot write {path}: {e}"))
            });
        if let Err(e) = written {
            outcome.fail(outcome.attempted, e);
        }
    }
    for f in &outcome.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    println!("{}", outcome.sim_json());
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
