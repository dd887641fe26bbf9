//! Plain-text table rendering for experiment reports.

use std::fmt::Write as _;

/// A simple aligned-column table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must have as many cells as the header).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row has {} cells for {} columns",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header_line: Vec<String> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("  "));
        let total_width: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total_width));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with a fixed number of decimals, for table cells.
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a percentage.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["dataset", "edges"]);
        t.push_row(vec!["flickr-small".to_string(), "550667".to_string()]);
        t.push_row(vec!["ya".to_string(), "7".to_string()]);
        let rendered = t.render();
        assert!(rendered.contains("== demo =="));
        assert!(rendered.contains("flickr-small"));
        let lines: Vec<&str> = rendered.lines().collect();
        // Title + header + separator + 2 rows.
        assert_eq!(lines.len(), 5);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn row_arity_is_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only-one".to_string()]);
    }

    #[test]
    fn float_and_percent_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(0.0612), "6.12%");
    }
}
