//! Benchmark of the gqed verification pipeline.
//!
//! ```text
//! perfbench --workload <prove|hunt|portfolio|resubmit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) re-executes the workload with spans around every
//! layer call and prints the per-layer metrics. Either way the last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is 0 only when every
//! correctness check passed. See `README.md` beside this file.

mod campaign;
mod harness;
mod service;
mod spans;

use campaign::Workload;
use harness::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 25u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?.max(1),
            "--trace" => trace = number(value()?)? != 0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let span_file =
        PathBuf::from(".bench_trace").join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let campaign = match args.workload.as_str() {
        "prove" => Workload::Prove,
        "hunt" => Workload::Hunt,
        "portfolio" => Workload::Portfolio,
        "resubmit" if args.trace => return service::trace(args.seed, args.seconds, &span_file),
        "resubmit" => return service::measure(args.seed, args.seconds),
        other => return Err(format!("unknown workload {other}")),
    };
    // The campaign workloads are fixed catalogue sets: the seed is
    // recorded with the spans but selects nothing.
    Ok(if args.trace {
        campaign::trace(campaign, &span_file)
    } else {
        campaign::measure(campaign, args.seconds)
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.render(table));
    if !outcome.correct {
        std::process::exit(1);
    }
}
