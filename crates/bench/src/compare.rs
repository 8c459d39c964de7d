//! Paper-vs-measured comparison rendering.
//!
//! Every artifact ends with a comparison block: the value the paper
//! reports, the value this reproduction measured, and whether the *shape*
//! holds (within a stated band). Absolute magnitudes are expected to
//! differ — the substrate is a scaled synthetic workload, not the
//! authors' testbed. A row that does not hold says why
//! ([`ComparisonRow::deviates_because`]); the reproduction ledger prints
//! the sentence and its test refuses a `DEVIATES` without one.

use kcc_core::report::render_table;

/// One compared quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// What is being compared.
    pub name: String,
    /// The paper's value, as printed.
    pub paper: String,
    /// Our measured value, as printed.
    pub measured: String,
    /// Whether the shape criterion holds.
    pub ok: bool,
    /// The relative band an [`add_pct`](Comparison::add_pct) row was
    /// judged by; `None` for a free-form shape check.
    pub band: Option<f64>,
    /// Why the row reads `DEVIATES` where it does (empty for a row that
    /// has not been seen to deviate).
    pub cause: String,
}

impl ComparisonRow {
    /// Records why this row deviates: one sentence, read from the
    /// generator or scenario that produces the number, naming the flags
    /// it was probed at when those are not the defaults, or built from
    /// the artifact's own numbers when it holds at every seed. Shown by
    /// the ledger only while the row reads `DEVIATES`.
    pub fn deviates_because(&mut self, cause: impl Into<String>) {
        self.cause = cause.into();
    }
}

/// A block of comparisons.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    rows: Vec<ComparisonRow>,
}

impl Comparison {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a numeric comparison judged by relative band: ok when
    /// `measured` is within `band` (e.g. 0.35 = ±35 %) of `paper`.
    pub fn add_pct(
        &mut self,
        name: &str,
        paper: f64,
        measured: f64,
        band: f64,
    ) -> &mut ComparisonRow {
        let ok = if paper == 0.0 {
            measured.abs() < 1e-9 || measured.abs() <= band
        } else {
            (measured - paper).abs() / paper.abs() <= band
        };
        self.push(name, format!("{paper:.1}"), format!("{measured:.1}"), ok, Some(band))
    }

    /// Adds a free-form comparison with an explicit verdict.
    pub fn add(&mut self, name: &str, paper: &str, measured: &str, ok: bool) -> &mut ComparisonRow {
        self.push(name, paper.to_string(), measured.to_string(), ok, None)
    }

    fn push(
        &mut self,
        name: &str,
        paper: String,
        measured: String,
        ok: bool,
        band: Option<f64>,
    ) -> &mut ComparisonRow {
        self.rows.push(ComparisonRow {
            name: name.to_string(),
            paper,
            measured,
            ok,
            band,
            cause: String::new(),
        });
        self.rows.last_mut().expect("just pushed")
    }

    /// The rows, in the order added.
    pub fn rows(&self) -> &[ComparisonRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the block.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.paper.clone(),
                    r.measured.clone(),
                    if r.ok { "ok".into() } else { "DEVIATES".into() },
                ]
            })
            .collect();
        format!(
            "paper vs measured (shape check)\n{}",
            render_table(&["quantity", "paper", "measured", "verdict"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_band_judgement() {
        let mut c = Comparison::new();
        c.add_pct("pc share", 33.7, 35.0, 0.15);
        c.add_pct("nn share", 25.7, 50.0, 0.15);
        assert_eq!(c.len(), 2);
        assert!(c.rows()[0].ok);
        assert!(!c.rows()[1].ok);
        let text = c.render();
        assert!(text.contains("ok"));
        assert!(text.contains("DEVIATES"));
    }

    #[test]
    fn zero_paper_value() {
        let mut c = Comparison::new();
        c.add_pct("zero", 0.0, 0.0, 0.1);
        assert!(c.rows()[0].ok);
    }

    #[test]
    fn freeform_rows() {
        let mut c = Comparison::new();
        c.add("junos", "suppresses", "suppresses", true);
        assert!(c.rows()[0].ok);
        assert!(!c.is_empty());
    }
}
