//! The reproduction ledger is regenerated and diffed.
//!
//! `/REPRODUCTION.md` is the committed stdout of `figures all`. These
//! tests rebuild it in-process from the artifact table, so the file, a
//! verdict or a written cause cannot go stale; they also run every
//! artifact at `--quick`, which no ledger covers, and the seeds where an
//! artifact once judged nothing or deviated without a cause.

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
         cargo run --release -p kcc_bench --bin kcc -- figures all > REPRODUCTION.md\n\n{ledger}"
    );
}

#[test]
fn every_artifact_runs_at_quick_size() {
    let quick = Args { quick: true, ..Args::default() };
    for (name, _, run) in ARTIFACTS {
        let artifact = run(&quick);
        assert!(artifact.render().starts_with("== "), "{name} prints its banner");
        assert!(!artifact.comparison.is_empty(), "{name} compares nothing at --quick");
    }
}

/// The seeds where an artifact once compared nothing (`fig4` at 3) or
/// deviated without a word (`fig3` at 11, `fig4` at 8 and 12,
/// `ablation_dampening` at 4): each now prints at least one row, and
/// every `DEVIATES` row says why.
#[test]
fn rows_that_cannot_hold_say_why() {
    let seeds = [("fig3", 11), ("fig4", 3), ("fig4", 8), ("fig4", 12), ("ablation_dampening", 4)];
    for (name, seed) in seeds {
        let (_, _, run) = ARTIFACTS.iter().find(|(n, _, _)| *n == name).expect("listed");
        let rows = run(&Args { seed, ..Args::default() }).comparison;
        assert!(!rows.is_empty(), "{name} --seed {seed} compares nothing");
        for row in rows.rows().iter().filter(|r| !r.ok) {
            assert!(!row.cause.is_empty(), "{name} --seed {seed}: `{}` has no cause", row.name);
        }
    }
}
