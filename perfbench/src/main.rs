//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time, checks its outputs, and prints one JSON result
//! object as the last line of standard output: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. A failed check exits with code 1 and prints
//! no result.

use perfbench::analyst;
use perfbench::report::{context_line, result_line, Outcome, END_TO_END, PER_LAYER};
use perfbench::synth::{self, Engine};
use perfbench::Fail;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, Fail> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| Fail(format!("{flag} needs a value")))?;
        let bad = || Fail(format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(Fail(format!("unknown flag {flag}"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| Fail("--workload is required".into()))?,
        seed: seed.ok_or_else(|| Fail("--seed is required".into()))?,
        seconds: seconds.ok_or_else(|| Fail("--seconds is required".into()))?,
        trace: trace.ok_or_else(|| Fail("--trace is required".into()))?,
    })
}

fn run() -> Result<String, Fail> {
    let set = perfbench::wpinq_env_vars();
    if !set.is_empty() {
        return Err(Fail(format!(
            "refusing to run with {} set: the benchmark pins its own configuration",
            set.join(", ")
        )));
    }
    let args = parse_args()?;
    let outcome = match args.workload.as_str() {
        "synth-seq" | "synth-shard2" => {
            let engine = if args.workload == "synth-seq" {
                Engine::Sequential
            } else {
                Engine::Sharded2
            };
            let secret = bench::smallsets::grqc_small();
            synth::run(
                &secret,
                engine,
                synth::STEPS,
                args.seed,
                args.seconds,
                args.trace,
            )?
        }
        "analyst-mix" => {
            let edges =
                wpinq_analyses::edges::symmetric_edge_dataset(&bench::smallsets::grqc_small());
            analyst::run(&edges, args.seed, args.seconds, args.trace)?
        }
        other => return Err(Fail(format!("unknown workload {other:?}"))),
    };
    let (list, zero_missing) = if args.trace {
        (&PER_LAYER[..], true)
    } else {
        (&END_TO_END[..], false)
    };
    let outcome = Outcome {
        metrics: outcome.metrics.complete(list, zero_missing).map_err(Fail)?,
        ..outcome
    };
    println!("{}", context_line(&outcome));
    Ok(result_line(&outcome))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(fail) => {
            eprintln!("perfbench: {fail}");
            std::process::exit(1);
        }
    }
}
