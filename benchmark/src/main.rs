//! Command line of the benchmark. `run` measures, `aa` checks that two
//! measurements of the same code agree within the bounds.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --traced
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --workload watch-day --seed 7
//! cargo run --release --manifest-path benchmark/Cargo.toml -- aa
//! ```

use std::process::ExitCode;

use kcc_benchmark::aa;
use kcc_benchmark::report::{Outcome, END_TO_END};
use kcc_benchmark::workloads::{self, RunOpts, DEFAULT_SEED, RUN_SECONDS};

const USAGE: &str = "usage: kcc_benchmark <run|aa> [--workload NAME] [--seed N] [--seconds N] \
    [--trace 0|1] [--traced] [--quick]\n\
    run   every workload (each in its own child process), or the one named; the last line of a \n\
          single-workload run is its machine-readable result\n\
    aa    the suite twice on the seed and twice on seed+1: relative difference of every \n\
          end-to-end metric beside its bound; non-zero exit on a breach";

struct Args {
    command: String,
    workload: Option<String>,
    opts: RunOpts,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let command = it.next().ok_or("missing command")?.clone();
    let mut workload = None;
    let mut opts =
        RunOpts { seed: DEFAULT_SEED, seconds: RUN_SECONDS, traced: false, quick: false };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => opts.traced = value()? == "1",
            "--traced" => opts.traced = true,
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.seconds.is_nan() || opts.seconds < 1.0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args { command, workload, opts })
}

/// Runs one workload in this process: human report, then the result
/// line last.
fn run_here(name: &str, opts: &RunOpts) -> ExitCode {
    let Some(workload) = workloads::by_name(name) else {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", names.join(", "));
        return ExitCode::from(2);
    };
    let outcome: Outcome = (workload.run)(opts);
    print!("{}", outcome.render(name));
    println!("{}", outcome.result_line(opts.traced));
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the suite, one child per workload, echoing each report.
fn run_suite(opts: &RunOpts) -> ExitCode {
    let mut failed = Vec::new();
    for workload in workloads::ALL {
        match aa::run_child(workload.name, opts).map(|text| (aa::parse_result(&text), text)) {
            Ok((Some(result), text)) => {
                let report = text.trim_end().rsplit_once('\n').map_or("", |(report, _)| report);
                println!("{report}");
                if !result.correct {
                    failed.push(workload.name);
                }
            }
            Ok((None, text)) => {
                println!("{text}");
                failed.push(workload.name);
            }
            Err(e) => {
                eprintln!("{}: cannot run child: {e}", workload.name);
                failed.push(workload.name);
            }
        }
    }
    let gated: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    println!(
        "== suite ==\n   {} workloads, seed {}, {} s of timed passes each{}; gated metrics: {}",
        workloads::ALL.len(),
        opts.seed,
        opts.seconds,
        if opts.traced { " (half untraced, then traced)" } else { "" },
        gated.join(", ")
    );
    if failed.is_empty() {
        println!("   failed_share 0 on every workload");
        ExitCode::SUCCESS
    } else {
        println!("   FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_str(), &args.workload) {
        ("run", Some(name)) => run_here(name, &args.opts),
        ("run", None) => run_suite(&args.opts),
        ("aa", _) => aa::run(&args.opts),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
