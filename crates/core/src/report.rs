//! Plain-text and CSV rendering helpers for tables and figure data.

/// Formats a count the way the paper's tables do: large values in
/// millions (`1,008M`), mid-range with thousands separators.
pub fn fmt_count(n: u64) -> String {
    if n >= 100_000_000 {
        format!("{}M", group_thousands(n / 1_000_000))
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1_000_000.0)
    } else {
        group_thousands(n)
    }
}

/// Inserts `,` thousands separators.
pub(crate) fn group_thousands(n: u64) -> String {
    let s = n.to_string();
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*b as char);
    }
    out
}

/// Renders an aligned fixed-width text table. Empty header strings are
/// allowed (unlabeled columns).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len().max(rows.iter().map(|r| r.len()).max().unwrap_or(0));
    let mut widths = vec![0usize; cols];
    for (i, h) in headers.iter().enumerate() {
        widths[i] = widths[i].max(h.len());
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    if headers.iter().any(|h| !h.is_empty()) {
        out.push_str(&fmt_row(headers.to_vec(), &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
    }
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Renders CSV (no quoting needed for our numeric/label content; commas
/// in cells are replaced with `;`).
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| c.replace(',', ";")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(581), "581");
        assert_eq!(fmt_count(68_911), "68,911");
        assert_eq!(fmt_count(1_071_150), "1.1M");
        assert_eq!(fmt_count(737_000_000), "737M");
        assert_eq!(fmt_count(1_008_000_000), "1,008M");
    }

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(1_000), "1,000");
        assert_eq!(group_thousands(1_234_567), "1,234,567");
    }

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["type", "share"],
            &[vec!["pc".into(), "33.7%".into()], vec!["nn".into(), "25.7%".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, 2 rows
        assert!(lines[0].starts_with("type"));
        assert!(lines[2].starts_with("pc"));
    }

    #[test]
    fn headerless_table_has_no_rule() {
        let t = render_table(&["", ""], &[vec!["a".into(), "b".into()]]);
        assert_eq!(t.lines().count(), 1);
    }

    #[test]
    fn csv_replaces_commas() {
        let c = render_csv(&["a", "b"], &[vec!["1,5".into(), "x".into()]]);
        assert_eq!(c, "a,b\n1;5,x\n");
    }
}
