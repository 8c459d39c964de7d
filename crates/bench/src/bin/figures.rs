//! Every paper table, figure and ablation, from one table
//! ([`kcc_bench::ARTIFACTS`]).
//!
//! ```sh
//! figures <name> [--seed N] [--scale F] [--quick]   # one artifact in full
//! figures all    [--seed N] [--scale F] [--quick]   # the reproduction ledger
//! ```
//!
//! `figures all` at the default flags is the committed `/REPRODUCTION.md`.

use std::process::ExitCode;

use kcc_bench::{ledger, Args, ARTIFACTS};

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let artifact = ARTIFACTS.iter().find(|(n, _, _)| *n == name);
    let args = match Args::parse(argv) {
        Ok(args) if name == "all" || artifact.is_some() => args,
        parsed => {
            if let Err(e) = parsed {
                eprintln!("figures: {e}");
            }
            eprintln!("usage: figures <name|all> [--seed N] [--scale F] [--quick]\n\nartifacts:");
            for (name, what, _) in ARTIFACTS {
                eprintln!("  {name:<19} {what}");
            }
            return ExitCode::from(2);
        }
    };
    match artifact {
        Some((_, _, run)) => print!("{}", run(&args).render()),
        None => print!("{}", ledger(&args)),
    }
    ExitCode::SUCCESS
}
