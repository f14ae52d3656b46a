//! Plain-text table rendering for experiment output.
//!
//! Every bench binary prints its table/figure through this module, so
//! every experiment's output shares one format.

use core::fmt::Write as _;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use btgs_metrics::Table;
///
/// let mut t = Table::new(vec!["flow", "rate [kbps]"]);
/// t.row(vec!["1".into(), "64.0".into()]);
/// t.row(vec!["2".into(), "128.0".into()]);
/// let s = t.render();
/// assert!(s.contains("flow"));
/// assert!(s.lines().count() >= 4); // header, rule, two rows
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != column count {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let sep = if i + 1 == cols { "\n" } else { "  " };
            let _ = write!(out, "{h:<w$}{sep}", w = widths[i]);
        }
        for (i, &w) in widths.iter().enumerate() {
            let sep = if i + 1 == cols { "\n" } else { "  " };
            let _ = write!(out, "{:-<w$}{sep}", "", w = w);
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let sep = if i + 1 == cols { "\n" } else { "  " };
                let _ = write!(out, "{cell:<w$}{sep}", w = widths[i]);
            }
        }
        out
    }
}

/// Formats a float with the given number of decimals (helper for table
/// cells).
pub fn fmt_f64(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["xxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a  "));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].starts_with("xxx"));
        // Columns align: the second column starts at the same offset.
        let col = lines[0].find("bb").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_rejected() {
        let _ = Table::new(Vec::<String>::new());
    }

    #[test]
    fn row_and_len() {
        let mut t = Table::new(vec!["n"]);
        assert!(t.is_empty());
        t.row(vec!["42".into()]);
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("42"));
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(64.0, 1), "64.0");
    }
}
