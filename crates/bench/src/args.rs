//! The `kcc` command line, declared once. [`COMMANDS`] lists the
//! subcommands and [`FLAGS`] every flag of each, with what it takes and
//! its help line; parsing ([`parse`]), the usage text ([`usage`]) and
//! every refusal come from those two tables.

use std::str::FromStr;

use Kind::{Switch, Value};

/// Parsed arguments of `kcc figures`: `--seed N`, `--scale F`, `--quick`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// RNG seed (default 42).
    pub seed: u64,
    /// Scale multiplier on default workload sizes (default 1.0).
    pub scale: f64,
    /// Quick mode: shrink workloads for smoke runs.
    pub quick: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args { seed: 42, scale: 1.0, quick: false }
    }
}

impl Args {
    /// The `figures` flags of `m`, each defaulting as [`Args::default`].
    pub fn from_matches(m: &Matches) -> Result<Args, String> {
        let mut args = Args { quick: m.switch("--quick"), ..Args::default() };
        m.set("--seed", &mut args.seed)?;
        m.set("--scale", &mut args.scale)?;
        Ok(args)
    }

    /// A workload size scaled by `--scale` (and `/10` under `--quick`).
    pub fn sized(&self, base: u64) -> u64 {
        let scaled = (base as f64 * self.scale) as u64;
        if self.quick {
            (scaled / 10).max(1)
        } else {
            scaled.max(1)
        }
    }
}

/// Every subcommand: `(name, operands, what it does)`. An operand
/// synopsis ending in `...` takes any number of operands, an empty one
/// none, any other exactly one.
pub const COMMANDS: [(&str, &str, &str); 4] = [
    ("daemon", "", "the live BGP collector: sessions -> pipeline -> tables, MRT dumps"),
    ("report", "<file.mrt | dir>...", "cross-collector Table 1, Table 2 and community agreement"),
    ("watch", "<file.mrt | dir>...", "CommunityWatch alerts over the same inputs"),
    ("figures", "<name | all>", "one paper artifact in full, or the reproduction ledger"),
];

/// What a flag takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Nothing: present or absent.
    Switch,
    /// One value, always; the text names it in the usage.
    Value(&'static str),
}

/// One row of [`FLAGS`]: `(the subcommands that take it, --name, what
/// it takes, its help line)`.
pub type Flag = (&'static [&'static str], &'static str, Kind, &'static str);

const DAEMON: &[&str] = &["daemon"];
const INPUTS: &[&str] = &["report", "watch"];
const WATCH: &[&str] = &["watch"];
const FIGURES: &[&str] = &["figures"];

/// Every flag of every subcommand.
pub const FLAGS: &[Flag] = &[
    (DAEMON, "--listen", Value("ADDR"), "accept BGP sessions here (default 127.0.0.1:1790)"),
    (DAEMON, "--collector", Value("NAME"), "collector name (default rrc00)"),
    (DAEMON, "--asn", Value("ASN"), "local AS number (default 3333)"),
    (DAEMON, "--bgp-id", Value("IP"), "BGP identifier (default 198.51.100.1)"),
    (DAEMON, "--hold", Value("SECS"), "proposed hold time (default 90)"),
    (DAEMON, "--epoch", Value("SECONDS"), "update times count from this Unix time (default 0)"),
    (DAEMON, "--stamp", Value("MODE"), "arrival, or logical[:US] spacing (default arrival)"),
    (DAEMON, "--route-server", Value("ASN@IP"), "an IXP route-server peer (repeatable)"),
    (DAEMON, "--mrt-dir", Value("DIR"), "tee the feed into rotating MRT dumps here"),
    (DAEMON, "--mrt-rotate", Value("N"), "records per MRT dump (default 100000)"),
    (DAEMON, "--duration", Value("SECS"), "shut down after SECS (default 0: when killed)"),
    (DAEMON, "--watch", Switch, "add CommunityWatch; its alerts end the summary"),
    (DAEMON, "--workers", Value("N"), "reactor shard threads"),
    (DAEMON, "--control", Value("ADDR"), "open the line-protocol control socket here"),
    (DAEMON, "--profile-every", Value("N"), "time every N-th update through each phase"),
    (DAEMON, "--trace-default", Value("LEVEL"), "off|error|info|debug|trace"),
    (DAEMON, "--trace", Value("TARGET=LEVEL"), "one target's trace level (repeatable)"),
    (INPUTS, "--epoch", Value("SECONDS"), "day anchor (default: first record's day, UTC)"),
    (INPUTS, "--threads", Value("N"), "collectors run at once (default 4)"),
    (INPUTS, "--clamp", Switch, "count records before the epoch instead of failing"),
    (INPUTS, "--metrics-out", Value("FILE"), "write the run's metrics, Prometheus text"),
    (WATCH, "--follow", Value("SECS"), "tail directory feeds for SECS, then drain"),
    (WATCH, "--window-us", Value("N"), "detection window length in µs (default 15 min)"),
    (WATCH, "--learn", Value("N"), "windows a baseline learns before it is scored"),
    (WATCH, "--rate-min", Value("N"), "smallest rate or fan-out a shift fires on"),
    (WATCH, "--outage-windows", Value("N"), "silent windows before a collector outage fires"),
    (WATCH, "--train", Value("INPUT"), "train the community profile (repeatable)"),
    (FIGURES, "--seed", Value("N"), "RNG seed (default 42)"),
    (FIGURES, "--scale", Value("F"), "workload size multiplier (default 1)"),
    (FIGURES, "--quick", Switch, "shrink every workload tenfold"),
];

/// One subcommand's command line, checked against [`FLAGS`].
#[derive(Debug, Clone, PartialEq)]
pub struct Matches {
    command: &'static str,
    /// The operands, in order.
    pub operands: Vec<String>,
    given: Vec<(&'static str, Option<String>)>,
}

/// Reads `words` (after the subcommand) as `command`'s flags and
/// operands. `Ok(None)` is a request for help (`--help` or `-h`). An
/// unknown flag, a flag without its value or an operand the command does
/// not take is an error that names it. Values are parsed later, by the
/// [`Matches`] getters.
pub fn parse(
    command: &str,
    words: impl IntoIterator<Item = String>,
) -> Result<Option<Matches>, String> {
    let (command, operands, _) = *COMMANDS
        .iter()
        .find(|c| c.0 == command)
        .ok_or_else(|| format!("unknown command `{command}`"))?;
    let mut m = Matches { command, operands: Vec::new(), given: Vec::new() };
    let mut words = words.into_iter();
    while let Some(word) = words.next() {
        if word == "--help" || word == "-h" {
            return Ok(None);
        }
        if !word.starts_with('-') {
            let room = match operands {
                "" => 0,
                o if o.ends_with("...") => usize::MAX,
                _ => 1,
            };
            if m.operands.len() == room {
                return Err(format!("unknown argument `{word}`"));
            }
            m.operands.push(word);
            continue;
        }
        let &(_, name, kind, _) = FLAGS
            .iter()
            .find(|f| f.1 == word && f.0.contains(&command))
            .ok_or_else(|| format!("unknown argument `{word}`"))?;
        let value = match kind {
            Switch => None,
            Value(_) => Some(words.next().ok_or_else(|| format!("`{word}` needs a value"))?),
        };
        m.given.push((name, value));
    }
    Ok(Some(m))
}

impl Matches {
    fn given<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = Option<&'a str>> + 'a {
        let known = FLAGS.iter().any(|f| f.1 == flag && f.0.contains(&self.command));
        debug_assert!(known, "`{flag}` is not a flag of `{}`", self.command);
        self.given.iter().filter(move |(name, _)| *name == flag).map(|(_, v)| v.as_deref())
    }

    /// Whether switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given(flag).next().is_some()
    }

    /// Every value given to `flag`, in order, unparsed.
    pub fn raw<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.given(flag).flatten()
    }

    /// The last value given to `flag`, parsed; `None` when absent.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.raw(flag).last().map(|text| value(flag, text)).transpose()
    }

    /// Overwrites `slot` with `flag`'s parsed value, if it was given.
    pub fn set<T: FromStr>(&self, flag: &str, slot: &mut T) -> Result<(), String> {
        if let Some(v) = self.value(flag)? {
            *slot = v;
        }
        Ok(())
    }
}

/// `text` as the value of `flag`. An unparsable value is an error that
/// names the flag.
pub fn value<T: FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("`{flag}` cannot take `{text}`"))
}

/// The usage text: the command list for `None`, one command's flags
/// (and, for `figures`, its artifacts) for `Some`.
pub fn usage(command: Option<&str>) -> String {
    let Some((name, operands, what)) = command.and_then(|c| COMMANDS.iter().find(|e| e.0 == c))
    else {
        let mut out = String::from("usage: kcc <command> [FLAGS]\n\ncommands:\n");
        for (name, _, what) in COMMANDS {
            out.push_str(&format!("  {name:<9} {what}\n"));
        }
        return out + "\n`kcc <command> --help` lists a command's flags.\n";
    };
    let synopsis = format!("kcc {name} [FLAGS] {operands}");
    let mut out = format!("usage: {}\n\n{what}\n\nflags:\n", synopsis.trim_end());
    for (_, flag, kind, help) in FLAGS.iter().filter(|f| f.0.contains(name)) {
        let head = match kind {
            Switch => flag.to_string(),
            Value(v) => format!("{flag} {v}"),
        };
        out.push_str(&format!("  {head:<28} {help}\n"));
    }
    if *name == "figures" {
        out.push_str("\nartifacts:\n");
        for (name, what, _) in crate::ARTIFACTS {
            out.push_str(&format!("  {name:<19} {what}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(command: &str, words: &[&str]) -> Result<Option<Matches>, String> {
        parse(command, words.iter().map(|s| s.to_string()))
    }

    fn figures(words: &[&str]) -> Result<Args, String> {
        Args::from_matches(&try_parse("figures", words)?.expect("not a help request"))
    }

    #[test]
    fn parses_all_flags() {
        assert_eq!(figures(&[]), Ok(Args::default()));
        let a = figures(&["--seed", "7", "--scale", "0.5", "--quick"]);
        assert_eq!(a, Ok(Args { seed: 7, scale: 0.5, quick: true }));
    }

    #[test]
    fn rejects_unknown_flags_and_missing_or_bad_values() {
        assert_eq!(figures(&["--sede", "7"]), Err("unknown argument `--sede`".into()));
        assert_eq!(figures(&["--seed", "7x"]), Err("`--seed` cannot take `7x`".into()));
        assert_eq!(figures(&["--scale", "half"]), Err("`--scale` cannot take `half`".into()));
        assert_eq!(figures(&["--quick", "--seed"]), Err("`--seed` needs a value".into()));
        // A flag of another subcommand is unknown here.
        assert_eq!(figures(&["--clamp"]), Err("unknown argument `--clamp`".into()));
    }

    #[test]
    fn operands_follow_the_command_table() {
        assert_eq!(figures(&["all", "fig2"]), Err("unknown argument `fig2`".into()));
        assert_eq!(try_parse("daemon", &["x"]), Err("unknown argument `x`".into()));
        let m = try_parse("watch", &["a.mrt", "--train", "t.mrt", "b"]).unwrap().unwrap();
        assert_eq!(m.operands, ["a.mrt", "b"]);
        assert_eq!(m.raw("--train").collect::<Vec<_>>(), ["t.mrt"]);
        assert_eq!(try_parse("report", &["a.mrt", "-h"]), Ok(None));
    }

    #[test]
    fn sized_scaling() {
        let a = figures(&["--scale", "2"]).unwrap();
        assert_eq!(a.sized(100), 200);
        let q = figures(&["--quick"]).unwrap();
        assert_eq!(q.sized(100), 10);
        assert_eq!(q.sized(1), 1);
    }
}
