//! `dosgi-benchmark --workload <name|all> [--seed N] [--seconds S | --ops N] [--trace 0|1]`
//!
//! Prints every metric by name and unit, then, as the last line of
//! standard output, the result object. Exits non-zero when a state check
//! failed, an op failed, or an exact metric differed between repetitions.

use dosgi_benchmark::{harness, result_line, run, Size, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: dosgi-benchmark --workload <serve_read|serve_write|migrate|failover|all> \
[--seed N] [--seconds S | --ops N] [--trace 0|1] [--out DIR]";

struct Args {
    workload: String,
    seed: u64,
    size: Size,
    trace: bool,
    out: String,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 12,
        size: Size::Seconds(harness::RUN_SECONDS),
        trace: false,
        out: "benchmark/out".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let seconds = value.parse().ok().filter(|s| (1..=60).contains(s));
                args.size = Size::Seconds(seconds.ok_or_else(|| bad("1 to 60"))?);
            }
            "--ops" => {
                let ops = value.parse().ok().filter(|n| *n >= 10);
                args.size = Size::Ops(ops.ok_or_else(|| bad("10 or more"))?);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be all or one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for workload in WORKLOADS {
        if args.workload != "all" && args.workload != workload {
            continue;
        }
        let out = Path::new(&args.out);
        let outcome = match run(workload, args.seed, args.size, args.trace, out) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{workload}, span file under {}: {e}", args.out);
                return ExitCode::from(2);
            }
        };
        for note in &outcome.notes {
            println!("{note}");
        }
        for m in &outcome.metrics {
            println!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", result_line(&outcome));
        correct &= outcome.correct;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
