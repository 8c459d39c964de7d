//! The reproduction ledger is regenerated and diffed.
//!
//! `/REPRODUCTION.md` is the committed stdout of `figures all`. These
//! tests rebuild it in-process from the artifact table, so the file, a
//! verdict or a written cause cannot go stale; they also run every
//! artifact at `--quick`, which no ledger covers.

use kcc_bench::{render_ledger, Args, Artifact, ARTIFACTS};

const COMMITTED: &str = include_str!("../../../REPRODUCTION.md");

#[test]
fn committed_ledger_is_what_figures_all_prints() {
    let args = Args::default();
    let runs: Vec<Artifact> = ARTIFACTS.iter().map(|(_, _, run)| run(&args)).collect();

    // A row may flip to DEVIATES only with its cause written next to it.
    for ((name, _, _), run) in ARTIFACTS.iter().zip(&runs) {
        for row in run.comparison.rows().iter().filter(|r| !r.ok) {
            assert!(!row.cause.is_empty(), "{name}: `{}` deviates without a cause", row.name);
        }
    }

    let ledger = render_ledger(&args, &runs);
    assert!(
        ledger == COMMITTED,
        "REPRODUCTION.md is stale; regenerate it with\n  \
         cargo run --release -p kcc_bench --bin figures -- all > REPRODUCTION.md\n\n{ledger}"
    );
}

#[test]
fn every_artifact_runs_at_quick_size() {
    let quick = Args { quick: true, ..Args::default() };
    for (name, _, run) in ARTIFACTS {
        let artifact = run(&quick);
        assert!(artifact.render().starts_with("== "), "{name} prints its banner");
        // fig5 finds no egress-cleaning collector session in the quick
        // topology and says so instead of comparing; the rest compare.
        if name == "fig5" {
            assert!(artifact.comparison.is_empty());
            assert!(artifact.body.ends_with(
                "no egress-cleaning collector session found — re-run with another --seed\n"
            ));
        } else {
            assert!(!artifact.comparison.is_empty(), "{name} compares nothing at --quick");
        }
    }
}
