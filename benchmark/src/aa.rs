//! Child runs and A/A: each workload runs in a child process of this
//! binary, and two measurements of the same code must agree within the
//! benchmark's own bounds, or the bounds mean nothing.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::report::{Better, END_TO_END};
use crate::workloads::{self, RunOpts};

/// A child's result line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    /// `correct` of the result line.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the last line of a child's stdout.
pub fn parse_result(stdout: &str) -> Option<ChildResult> {
    let line = stdout.trim_end().lines().last()?;
    let json = Json::parse(line).ok()?;
    let correct = json.get("correct")? == &Json::Bool(true);
    let Json::Obj(members) = json.get("metrics")? else { return None };
    let metrics = members
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some(ChildResult { correct, metrics })
}

/// Runs one workload in a child process of this binary (its peak RSS is
/// then its own) and returns its stdout.
pub fn run_child(name: &str, opts: &RunOpts) -> std::io::Result<String> {
    let mut child = Command::new(std::env::current_exe()?);
    child.args(["run", "--workload", name]);
    child.args(["--seed", &opts.seed.to_string(), "--seconds", &opts.seconds.to_string()]);
    child.args(["--trace", if opts.traced { "1" } else { "0" }]);
    if opts.quick {
        child.arg("--quick");
    }
    let output = child.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Runs the untraced suite twice on `opts.seed` and twice on the next
/// seed, and prints, per workload and end-to-end metric, how far the
/// two runs of a pair disagree beside the metric's bound. A
/// disagreement over the bound is a breach: that metric cannot gate
/// anything at that bound on this machine and, by the benchmark's own
/// rule, is to be demoted to a per-layer metric rather than given a
/// wider bound.
pub fn run(opts: &RunOpts) -> ExitCode {
    let suite = |seed: u64| -> Vec<Option<ChildResult>> {
        let opts = RunOpts { seed, traced: false, ..*opts };
        workloads::ALL
            .iter()
            .map(|w| {
                eprintln!("aa: seed {seed}, {} …", w.name);
                run_child(w.name, &opts).ok().and_then(|text| parse_result(&text))
            })
            .collect()
    };
    let mut breaches = Vec::new();
    let mut incorrect = 0;
    println!(
        "{:<13} {:<17} {:>6} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "seed", "run A", "run B", "B vs A", "bound"
    );
    for seed in [opts.seed, opts.seed + 1] {
        let (a, b) = (suite(seed), suite(seed));
        for ((workload, a), b) in workloads::ALL.iter().zip(&a).zip(&b) {
            let (Some(a), Some(b)) = (a, b) else {
                println!("{:<13} no result from a child", workload.name);
                incorrect += 1;
                continue;
            };
            incorrect += usize::from(!a.correct) + usize::from(!b.correct);
            for def in END_TO_END {
                let (va, vb) = (a.metrics[def.name], b.metrics[def.name]);
                let worse = worsening(def.better, va, vb);
                let bound = def.bound.unwrap_or(0.0);
                let breach = worse.abs() > bound;
                println!(
                    "{:<13} {:<17} {:>6} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%{}",
                    workload.name,
                    def.name,
                    seed,
                    va,
                    vb,
                    worse * 100.0,
                    bound * 100.0,
                    if breach { "  BREACH" } else { "" }
                );
                if breach {
                    breaches.push(format!(
                        "{} {} (seed {seed}): {:+.2}%",
                        workload.name,
                        def.name,
                        worse * 100.0
                    ));
                }
            }
        }
    }
    if incorrect > 0 {
        println!("{incorrect} runs were incorrect or gave no result");
    }
    if breaches.is_empty() && incorrect == 0 {
        println!("A/A holds: every end-to-end metric repeats within its bound on both seeds");
        ExitCode::SUCCESS
    } else {
        for breach in &breaches {
            println!("breach → demote to per-layer: {breach}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_direction() {
        assert_eq!(worsening(Better::Lower, 10.0, 11.0), 0.1);
        assert_eq!(worsening(Better::Higher, 10.0, 11.0), -0.1);
        assert_eq!(worsening(Better::Higher, 10.0, 9.0), 0.1);
    }

    #[test]
    fn parses_the_last_line_only() {
        let stdout = "== x ==\n   note\n{\"correct\":true,\"attempted\":3,\"failed\":0,\
            \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}\n";
        let r = parse_result(stdout).unwrap();
        assert!(r.correct);
        assert_eq!(r.metrics["setup_s"], 0.25);
        assert_eq!(parse_result("no json here"), None);
    }
}
