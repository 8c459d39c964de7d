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

/// The seeds where an artifact once compared nothing (`fig4` at 3),
/// deviated without a word (`fig3` at 11, `fig4` at 8 and 12,
/// `ablation_dampening` at 4) or gave seed 42's cause (`fig5` and
/// `ablation_cleaning` at 8): each now prints at least one row, every
/// `DEVIATES` row says why, fig5's causes quote the row's own measured
/// value (its `pn then nn*` row deviates at 8, where the picked path
/// carries no `pn`), and ablation_cleaning's quotes the ingress and egress totals
/// its sessions' differences add up to.
#[test]
fn rows_that_cannot_hold_say_why() {
    let seeds = [
        ("fig3", 11),
        ("fig4", 3),
        ("fig4", 8),
        ("fig4", 12),
        ("fig5", 8),
        ("ablation_cleaning", 8),
        ("ablation_dampening", 4),
    ];
    for (name, seed) in seeds {
        let (_, _, run) = ARTIFACTS.iter().find(|(n, _, _)| *n == name).expect("listed");
        let rows = run(&Args { seed, ..Args::default() }).comparison;
        assert!(!rows.is_empty(), "{name} --seed {seed} compares nothing");
        if name == "fig5" {
            let row = rows.rows().iter().find(|r| r.name.starts_with("phases begin with path"));
            assert!(row.is_some_and(|r| !r.ok), "fig5 --seed {seed}: `pn then nn*` holds on pn=0");
        }
        for row in rows.rows().iter().filter(|r| !r.ok) {
            assert!(!row.cause.is_empty(), "{name} --seed {seed}: `{}` has no cause", row.name);
            if name == "fig5" {
                assert!(
                    row.cause.contains(&format!("{} = ", row.measured)),
                    "fig5 --seed {seed}: the cause does not quote {}: {}",
                    row.measured,
                    row.cause
                );
            }
            if name == "ablation_cleaning" {
                let [_, egress, ingress] = row.measured.split(" vs ").collect::<Vec<_>>()[..]
                else {
                    panic!(
                        "ablation_cleaning --seed {seed}: `{}` is not three totals",
                        row.measured
                    );
                };
                let whole = format!("which is the whole {ingress} vs {egress};");
                assert!(
                    row.cause.contains(&whole),
                    "ablation_cleaning --seed {seed}: the cause does not say `{whole}`: {}",
                    row.cause
                );
            }
        }
    }
}
