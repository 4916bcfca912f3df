//! Command line of the benchmark (`benchmark/run.sh` builds and runs it).

use mknn_benchmark::suite::{self, SuiteArgs};
use mknn_benchmark::workloads::{Scale, Workload, WORKLOADS};
use mknn_benchmark::{timed, traced, RUN_SECONDS};
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--seconds S] [--quick] [--check-repeat]
       benchmark/run.sh --workload NAME --trace 0|1 [--seed N] [--seconds S] [--quick]

Without --workload: runs every workload timed and traced, each in a fresh
process, and prints one JSON document. With --check-repeat: runs the timed
set twice and fails unless the second repeats the first within the
benchmark's own bounds.

With --workload: one run in this process. Prints an info line, then the
result line {\"correct\", \"attempted\", \"failed\", \"metrics\"} — the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

  --seed N      workload seed (WorkloadSpec::seed); default 42
  --seconds S   host seconds one run measures for; default 24
  --quick       a tenth of the population, 20 timed ticks, no time box";

/// The parsed command line.
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                args.workload = Some(Workload::by_name(&name).ok_or(format!(
                    "unknown workload {name}; one of {}",
                    names.join(", ")
                ))?);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be finite and >= 0, got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // --quick steps its 20 ticks and stops; otherwise the time box applies.
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 0.0 } else { RUN_SECONDS });
    let outcome = match args.workload {
        Some(w) => {
            let scale = if args.quick {
                Scale::QUICK
            } else {
                Scale::FULL
            };
            let report = if args.trace {
                traced::run(w, args.seed, seconds, scale)
            } else {
                timed::run(w, args.seed, seconds, scale)
            };
            println!("{}", report.info_json().render());
            println!("{}", report.result_json().render());
            if report.correct {
                Ok(())
            } else {
                Err(suite::INCORRECT.to_string())
            }
        }
        None => {
            let suite_args = SuiteArgs {
                seed: args.seed,
                seconds,
                quick: args.quick,
            };
            if args.check_repeat {
                suite::check_repeat(suite_args)
            } else {
                suite::run_all(suite_args)
            }
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
