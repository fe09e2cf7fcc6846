//! Command line of the BFW workspace benchmark.
//!
//! ```text
//! perfbench --workload <ring-1m|geo-churn|trials> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; the
//! line before it records provenance. A traced run also writes its spans
//! to `<target dir>/perfbench-spans/<workload>-<seed>.json`.

use perfbench::{provenance, Options, Scale, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <ring-1m|geo-churn|trials> --seed <n> \
                     --seconds <s> --trace <0|1> [--smoke]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if flag == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        force_failure: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&opts);
    let record = provenance::record(&opts, &outcome);
    for failure in &outcome.checks.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    if let Some(tracer) = &outcome.tracer {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench").join("target"), PathBuf::from);
        let path = dir.join("perfbench-spans").join(format!(
            "{}-{}.json",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) = tracer.write(&path, record.clone()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("perfbench provenance: {}", record.render());
    let units = if opts.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.result_line(units));
    ExitCode::SUCCESS
}
