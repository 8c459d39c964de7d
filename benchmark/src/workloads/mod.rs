//! The five workloads and what they share: the options of a run, the
//! pass loop, and set-up repetition.

use std::time::Instant;

use crate::report::Outcome;
use crate::stats;

pub mod live_flood;
pub mod live_paced;
pub mod offline_day;
pub mod sim_internet;
pub mod watch_day;

/// One workload of the suite.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Final name; later issues cite it.
    pub name: &'static str,
    /// One line on why it exists (repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Runs it.
    pub run: fn(&RunOpts) -> Outcome,
}

/// The suite, in report order.
pub const ALL: &[Workload] = &[
    Workload { name: "offline-day", why: offline_day::WHY, run: offline_day::run },
    Workload { name: "watch-day", why: watch_day::WHY, run: watch_day::run },
    Workload { name: "live-flood", why: live_flood::WHY, run: live_flood::run },
    Workload { name: "live-paced", why: live_paced::WHY, run: live_paced::run },
    Workload { name: "sim-internet", why: sim_internet::WHY, run: sim_internet::run },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Seed used when none is given; the counts in `benchmark/BASELINE.json`
/// were recorded with it.
pub const DEFAULT_SEED: u64 = 42;

/// Seconds of timed passes when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 8.0;

/// `--quick` divides every input size by this.
pub const QUICK_DIVISOR: u64 = 20;

/// Options of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Input seed: equal seeds give equal inputs.
    pub seed: u64,
    /// Seconds the timed passes should fill.
    pub seconds: f64,
    /// Add the traced passes and replay loops, and report per-layer
    /// metrics.
    pub traced: bool,
    /// Inputs ÷ [`QUICK_DIVISOR`], three passes, one set-up: a smoke
    /// run, not a measurement.
    pub quick: bool,
}

impl RunOpts {
    /// `full` scaled down in quick mode (never below 1).
    pub fn sized(&self, full: u64) -> u64 {
        if self.quick {
            (full / QUICK_DIVISOR).max(1)
        } else {
            full
        }
    }

    /// Seconds the untraced passes fill: all of `seconds`, or half of it
    /// when the traced passes and replay loops must fit in the same run.
    pub fn pass_budget(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Passes in a quick run.
const QUICK_PASSES: usize = 3;
/// Fewest timed passes in a full run, however slow the machine.
const MIN_PASSES: usize = 5;

/// Fewest set-up repetitions of a full run.
const MIN_SETUPS: usize = 3;
/// Most set-up repetitions of a full run.
const MAX_SETUPS: usize = 25;
/// A cheap set-up is repeated until this many seconds of it were timed,
/// so a 20 ms set-up is not reported from three samples.
const SETUP_FILL_S: f64 = 1.5;

/// Repeats `setup` (once in a quick run; otherwise at least
/// [`MIN_SETUPS`] times, and while under [`SETUP_FILL_S`] in total, at
/// most [`MAX_SETUPS`]), dropping each product before making the next
/// so peak memory holds one. Records the median as `setup_s` and returns
/// the last product.
pub fn repeat_setup<T>(opts: &RunOpts, out: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let mut seconds: Vec<f64> = Vec::new();
    let mut product = None;
    loop {
        drop(product.take());
        let start = Instant::now();
        product = Some(setup());
        seconds.push(start.elapsed().as_secs_f64());
        let filled = seconds.len() >= MIN_SETUPS && seconds.iter().sum::<f64>() >= SETUP_FILL_S;
        if opts.quick || filled || seconds.len() >= MAX_SETUPS {
            break;
        }
    }
    out.set("setup_s", stats::median(&seconds));
    out.note(format!("set-up repeated {}×, median reported", seconds.len()));
    product.expect("set-up runs at least once")
}

/// One untimed warm-up pass, then timed passes until the budget is
/// filled (quick: exactly three). `pass` returns the seconds it
/// measured — the pass decides what its clock covers. Records
/// `harness.passes` and `harness.pass_spread_pct` and returns the
/// median pass seconds.
pub fn timed_passes(opts: &RunOpts, out: &mut Outcome, mut pass: impl FnMut() -> f64) -> f64 {
    pass();
    let started = Instant::now();
    let mut seconds = Vec::new();
    loop {
        seconds.push(pass());
        let done = if opts.quick {
            seconds.len() >= QUICK_PASSES
        } else {
            seconds.len() >= MIN_PASSES && started.elapsed().as_secs_f64() >= opts.pass_budget()
        };
        if done {
            break;
        }
    }
    out.set("harness.passes", seconds.len() as f64);
    out.set("harness.pass_spread_pct", stats::spread_pct(&seconds));
    let median = stats::median(&seconds);
    out.note(format!(
        "{} timed passes after 1 warm-up; median {:.4} s, quartile spread {:.2}% of it",
        seconds.len(),
        median,
        stats::spread_pct(&seconds)
    ));
    let listed: Vec<String> = seconds.iter().map(|s| format!("{s:.4}")).collect();
    out.note(format!("pass seconds: {}", listed.join(" ")));
    median
}

/// Records the two memory metrics every workload reports.
pub fn record_memory(out: &mut Outcome, peak_state_bytes: u64) {
    out.set("peak_rss_bytes", crate::sys::peak_rss_bytes() as f64);
    out.set("peak_state_bytes", peak_state_bytes as f64);
}

/// Writes the run's spans to `benchmark/out/trace-<workload>.jsonl`.
pub fn write_trace(workload: &str, rec: &crate::trace::Recorder, out: &mut Outcome) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_jsonl())) {
        Ok(()) => out.note(format!("{} spans written to {}", rec.spans().len(), path.display())),
        Err(e) => out.check(1, 1, &format!("cannot write {}: {e}", path.display())),
    }
}
