//! # kcc-bench — experiment harnesses
//!
//! One `kcc` binary: `kcc figures` runs every paper table/figure/ablation
//! from the [`ARTIFACTS`] table below (`kcc figures all` prints the
//! reproduction ledger committed as `/REPRODUCTION.md`), next to the
//! daemon and the MRT tools, over this shared harness library: the
//! command-line table ([`args`]), the simulated beacon-day driver, and
//! paper-vs-measured comparison rendering. Performance is measured by the
//! standalone `benchmark/` package and gated by `ci/bench-pair.sh` (this
//! change against its parent, in alternating pairs), not by binaries here.
//!
//! | `kcc` subcommand | what it is |
//! |---|---|
//! | `figures` | `figures <name>` for each row of [`ARTIFACTS`] (`figures sweep` is the scenario grid); `figures all` → the ledger |
//! | `daemon` | the live BGP collector daemon (TCP sessions → pipeline → MRT dumps) |
//! | `report` | multi-collector corpus report (per-collector + combined tables) |
//! | `watch` | the CommunityWatch service over the same inputs |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
mod artifacts;
pub mod beacon_day;
pub mod compare;
pub mod sweep;
#[cfg(test)]
mod watch_eval;

pub use args::Args;
pub use beacon_day::{run_beacon_day, BeaconDayConfig, BeaconDayOutput};
pub use compare::Comparison;
pub use sweep::{run_cell, CellResult, CleaningPlacement, SweepCell, SweepConfig};

/// What one paper artifact produced.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The banner line's text.
    pub title: String,
    /// The tables, CSV and notes between the banner and the comparison.
    pub body: String,
    /// Paper vs measured: at least one row, and a row that cannot be
    /// measured says so as a `DEVIATES` row with its cause.
    pub comparison: Comparison,
}

impl Artifact {
    /// An artifact whose body is `printed`, one `println!` each.
    fn new(title: &str, printed: Vec<String>, comparison: Comparison) -> Self {
        Artifact { title: title.to_string(), body: printed.join("\n") + "\n", comparison }
    }

    /// What `figures <name>` prints: banner, body, comparison block.
    pub fn render(&self) -> String {
        format!("== {} ==\n\n{}{}\n", self.title, self.body, self.comparison.render())
    }
}

/// One row of [`ARTIFACTS`]: `(name, what it reproduces, how to run it)`.
pub(crate) type ArtifactRow = (&'static str, &'static str, fn(&Args) -> Artifact);

/// Every paper artifact, in ledger order. Each takes `--seed`, `--scale`
/// and `--quick` from [`Args`] (the lab ignores all three: it has no
/// random input; the sweep ignores `--scale`).
pub const ARTIFACTS: [ArtifactRow; 12] = [
    ("exp_lab", "§3 Exp1–Exp4 across all vendor profiles", artifacts::exp_lab),
    ("table1", "Table 1 (*d_mar20* overview)", artifacts::table1),
    ("table2", "Table 2 (type shares, *d_mar20* and *d_beacon*)", artifacts::table2),
    ("fig2", "Fig. 2 (daily announcements per type, 2010–2020)", artifacts::fig2),
    ("fig3", "Fig. 3 (types per session, one beacon prefix, simulated)", artifacts::fig3),
    ("fig4", "Fig. 4 (cumulative types, geo-tagging path)", artifacts::fig4),
    ("fig5", "Fig. 5 (cumulative types, egress-cleaning path)", artifacts::fig5),
    (
        "fig6",
        "Fig. 6 and §6's ≈ 60 % (community attributes revealed in withdrawal phases)",
        artifacts::fig6,
    ),
    (
        "ablation_cleaning",
        "§7 recommendation: cleaning strategy vs. message load",
        artifacts::ablation_cleaning,
    ),
    ("ablation_mrai", "§2: MRAI pacing vs. exploration burst size", artifacts::ablation_mrai),
    (
        "ablation_dampening",
        "§2: route-flap dampening vs. update traffic",
        artifacts::ablation_dampening,
    ),
    (
        "sweep",
        "§3 duplicates, §7 cleaning placement and §2 MRAI on one scenario grid",
        artifacts::sweep,
    ),
];

/// The reproduction ledger — what `kcc figures all` prints and
/// `/REPRODUCTION.md` holds: every artifact of [`ARTIFACTS`] run with
/// `args`, its comparison as one markdown table, and under each table
/// the written cause of every row that deviates.
pub fn ledger(args: &Args) -> String {
    let runs: Vec<Artifact> = ARTIFACTS.iter().map(|(_, _, run)| run(args)).collect();
    render_ledger(args, &runs)
}

/// [`ledger`] over artifacts already run (`runs[i]` is `ARTIFACTS[i]`'s).
pub fn render_ledger(args: &Args, runs: &[Artifact]) -> String {
    fn tally<'a>(rows: impl IntoIterator<Item = &'a compare::ComparisonRow>) -> String {
        let (ok, deviates): (Vec<_>, Vec<_>) = rows.into_iter().partition(|r| r.ok);
        format!("{} rows: {} ok, {} DEVIATES", ok.len() + deviates.len(), ok.len(), deviates.len())
    }
    let flags = format!(
        "--seed {} --scale {}{}",
        args.seed,
        args.scale,
        if args.quick { " --quick" } else { "" }
    );
    let mut md = format!(
        "# Reproduction ledger\n\n{}\n\n\
         Which of the paper's claims this repository reproduces, and how closely: the stdout of\n\
         `cargo run --release -p kcc_bench --bin kcc -- figures all`, regenerated and diffed by\n\
         `crates/bench/tests/reproduction.rs` and CI. The substrate is a scaled synthetic workload,\n\
         so a row compares *shape*: `band` is the relative tolerance around the paper's value, or\n\
         `shape` for a yes/no criterion. A `DEVIATES` row is followed by its cause; the sentence\n\
         sits next to the row in `crates/bench/src/artifacts.rs`. `figures <name>` prints one\n\
         artifact in full.\n",
        tally(runs.iter().flat_map(|a| a.comparison.rows()))
    );
    for ((name, what, _), run) in ARTIFACTS.iter().zip(runs) {
        let rows = run.comparison.rows();
        md.push_str(&format!(
            "\n## `{name}` — {what}\n\n`figures {name} {flags}` · {}\n\n",
            tally(rows)
        ));
        md.push_str("| quantity | paper | measured | band | verdict |\n|---|---|---|---|---|\n");
        for r in rows {
            let band = r.band.map_or("shape".to_string(), |b| format!("±{:.0}%", b * 100.0));
            let verdict = if r.ok { "ok" } else { "DEVIATES" };
            md.push_str(&format!(
                "| {} | {} | {} | {band} | {verdict} |\n",
                r.name, r.paper, r.measured
            ));
        }
        for r in rows.iter().filter(|r| !r.ok) {
            md.push_str(&format!("\n**{}** deviates: {}\n", r.name, r.cause));
        }
    }
    md
}
