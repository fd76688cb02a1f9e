//! Table and CSV output for experiment results.

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// A simple result table: header row + data rows, printed aligned and
/// mirrored to `results/<name>.csv`.
#[derive(Debug)]
pub struct Table {
    name: String,
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table; `name` becomes the CSV file stem.
    pub fn new(name: &str, title: &str, header: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            title: title.to_string(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (already formatted).
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Formats a float with sensible precision for table cells.
    pub fn num(x: impl Display) -> String {
        format!("{x}")
    }

    /// Milliseconds with three decimals.
    pub fn ms(d: std::time::Duration) -> String {
        format!("{:.3}", d.as_secs_f64() * 1e3)
    }

    /// Prints the aligned table to stdout and writes the CSV.
    pub fn finish(self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
        // CSV mirror.
        let dir = PathBuf::from("results");
        if fs::create_dir_all(&dir).is_ok() {
            let mut csv = String::new();
            csv.push_str(&self.header.join(","));
            csv.push('\n');
            for row in &self.rows {
                csv.push_str(&row.join(","));
                csv.push('\n');
            }
            let path = dir.join(format!("{}.csv", self.name));
            if let Err(e) = fs::write(&path, csv) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("(csv: {})", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("unit_test_table", "demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.finish();
        let csv = std::fs::read_to_string("results/unit_test_table.csv").unwrap();
        assert_eq!(csv, "a,b\n1,2\n");
        let _ = std::fs::remove_file("results/unit_test_table.csv");
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(Table::ms(std::time::Duration::from_micros(1500)), "1.500");
    }
}
