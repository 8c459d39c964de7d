//! Minimal command-line argument parsing for the harness binaries.

use std::str::FromStr;

/// Parsed common arguments: `--seed N`, `--scale F`, `--quick`.
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
    /// Parses from an iterator of arguments (without the program name).
    /// An unknown argument, or a flag whose value is missing or does not
    /// parse, is an error that names it.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => out.seed = value(&a, it.next())?,
                "--scale" => out.scale = value(&a, it.next())?,
                "--quick" => out.quick = true,
                _ => return Err(format!("unknown argument `{a}`")),
            }
        }
        Ok(out)
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

/// The value after `flag`, parsed. A missing or unparsable value is an
/// error that names the flag.
pub fn value<T: FromStr>(flag: &str, next: Option<String>) -> Result<T, String> {
    let text = next.ok_or_else(|| format!("`{flag}` needs a value"))?;
    text.parse().map_err(|_| format!("`{flag}` cannot take `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    fn parse(words: &[&str]) -> Args {
        try_parse(words).unwrap()
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a, Args::default());
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&["--seed", "7", "--scale", "0.5", "--quick"]);
        assert_eq!(a.seed, 7);
        assert!((a.scale - 0.5).abs() < 1e-12);
        assert!(a.quick);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_or_bad_values() {
        assert_eq!(try_parse(&["--sede", "7"]), Err("unknown argument `--sede`".into()));
        assert_eq!(try_parse(&["--seed", "7x"]), Err("`--seed` cannot take `7x`".into()));
        assert_eq!(try_parse(&["--scale", "half"]), Err("`--scale` cannot take `half`".into()));
        assert_eq!(try_parse(&["--quick", "--seed"]), Err("`--seed` needs a value".into()));
    }

    #[test]
    fn sized_scaling() {
        let a = parse(&["--scale", "2"]);
        assert_eq!(a.sized(100), 200);
        let q = parse(&["--quick"]);
        assert_eq!(q.sized(100), 10);
        assert_eq!(q.sized(1), 1);
    }
}
