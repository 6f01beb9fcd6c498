//! Minimal fixed-width table printer for experiment output.

use std::fmt::Display;

/// A simple table that prints aligned columns to stdout.
///
/// # Example
///
/// ```
/// use ftclust_bench::table::Table;
///
/// let mut t = Table::new(&["n", "ratio"]);
/// t.row(&[&100, &1.25]);
/// t.row(&[&200, &1.31]);
/// let rendered = t.render();
/// assert!(rendered.contains("ratio"));
/// assert!(rendered.contains("1.31"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; each cell is rendered with `Display` (floats should
    /// be pre-formatted by the caller when specific precision matters).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[&dyn Display]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| format!("{c}")).collect());
        self
    }

    /// Appends a row of pre-rendered cells — the shape worker threads
    /// return (rows are computed in parallel, then appended in order).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends many pre-rendered rows in iteration order.
    pub fn push_rows(&mut self, rows: impl IntoIterator<Item = Vec<String>>) -> &mut Self {
        for r in rows {
            self.push_row(r);
        }
        self
    }

    /// Renders the table as a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Renders a list of `Display` values into the `Vec<String>` row shape of
/// [`Table::push_row`] — the convenient form for rows built on worker
/// threads, where `&dyn Display` borrows cannot outlive the closure.
#[macro_export]
macro_rules! cells {
    ($($v:expr),+ $(,)?) => {
        vec![$(format!("{}", $v)),+]
    };
}

/// Formats a float with 3 decimal places (the experiments' default).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimal places.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&[&"x", &1]).row(&[&"longer", &22]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("longer"));
        // All lines equal width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        Table::new(&["a", "b"]).row(&[&1]);
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
    }
}
