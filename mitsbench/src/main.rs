//! Benchmark of the MITS telelearning simulator.
//!
//! ```text
//! mitsbench --workload <campus|lecture|faults> [--seed N] [--seconds S]
//!           [--trace 0|1] [--spans-out FILE]
//! ```
//!
//! Generates the workload's inputs from the seed, runs it for the given
//! host seconds, checks every output, and prints one line per metric
//! followed by a JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer breakdown. See README.md.

mod inputs;
mod lecture;
mod report;
mod sessions;
mod spans;

use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--spans-out" => args.spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mitsbench: {e}");
            eprintln!(
                "usage: mitsbench --workload <campus|lecture|faults> [--seed N] \
                 [--seconds S] [--trace 0|1] [--spans-out FILE]"
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let spans_out = args.spans_out.as_deref();
    let result = match args.workload.as_str() {
        "campus" => sessions::run(
            sessions::Kind::Campus,
            args.seed,
            budget,
            args.trace,
            spans_out,
        ),
        "faults" => sessions::run(
            sessions::Kind::Faults,
            args.seed,
            budget,
            args.trace,
            spans_out,
        ),
        "lecture" => lecture::run(args.seed, budget, args.trace, spans_out),
        other => {
            eprintln!("mitsbench: unknown workload {other:?} (campus, lecture, faults)");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(r) => {
            r.print(&args.workload);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mitsbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
