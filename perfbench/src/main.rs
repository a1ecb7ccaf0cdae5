//! lardb's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload la_dense|relational|served_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload in its own process (the LA dispatch
//! knobs are process-global, and peak memory is per process). With
//! `--trace 0` it prints the end-to-end metrics, measured with the
//! benchmark's tracing off; with `--trace 1` it prints the per-layer
//! metrics of a separate traced run. The last line of standard output is
//! the result as one JSON object; lines before it starting with `#` give
//! context (sizes, percentiles, sample counts). Spans of the traced run are
//! written to `.bench_out/`.

mod embedded;
mod gen;
mod la_dense;
mod layers;
mod oracle;
mod probes;
mod relational;
mod report;
mod served_mix;
mod session;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Where the benchmark writes spans and spill files, relative to the
/// directory it runs in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

const WORKLOADS: [&str; 3] = ["la_dense", "relational", "served_mix"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(w);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "la_dense" => embedded::run(&la_dense::LaDense::new(args.seed), &args),
        "relational" => embedded::run(&relational::Relational::new(args.seed), &args),
        _ => served_mix::run(&args),
    };
    match result {
        Ok(report) if report.attempted > 0 => {
            for n in &report.notes {
                println!("# {n}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: no statement ran");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
