//! Table rendering for the figures and JSON emission for the gated suites.
//!
//! A figure is a `String`: titles and notes around [`Table`]s, which
//! render through `Display` (`results/logs/*.txt` are the recorded runs the
//! figures are compared with). The three gated suites also write their rows
//! as `BENCH_<suite>.json`.

use std::fmt::{self, Display};
use std::fs;
use std::path::PathBuf;

use tempi_trace::json::ToJson;

/// A simple fixed-width table: right-aligned columns two spaces apart,
/// a dashed rule under the header, every line newline-terminated.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<H: ToString>(headers: impl IntoIterator<Item = H>) -> Table {
        Table {
            headers: headers.into_iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringifies each cell).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }
}

impl Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        for cells in [&self.headers, &rule].into_iter().chain(&self.rows) {
            let padded: Vec<String> = (cells.iter().zip(&widths))
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "{}", padded.join("  ").trim_end())?;
        }
        Ok(())
    }
}

/// The smallest and largest of `values` (the "range" lines of the figures).
pub fn range(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    values
        .into_iter()
        .fold((f64::INFINITY, 0.0), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

/// Write `rows` as pretty JSON to `dir/name`, creating `dir` if needed.
/// These are gate inputs, where a silent write failure would let CI pass
/// on stale rows — so failures are returned for the binary to exit
/// non-zero on, not swallowed.
pub fn write_rows<T: ToJson>(
    dir: &std::path::Path,
    name: &str,
    rows: &T,
) -> Result<PathBuf, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    fs::write(&path, rows.to_json().pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Format a speedup like the paper quotes them ("720,400x").
pub fn fmt_speedup(s: f64) -> String {
    if s >= 1000.0 {
        let v = s.round() as u64;
        let mut out = String::new();
        let digits = v.to_string();
        for (i, ch) in digits.chars().enumerate() {
            if i > 0 && (digits.len() - i) % 3 == 0 {
                out.push(',');
            }
            out.push(ch);
        }
        format!("{out}x")
    } else if s >= 10.0 {
        format!("{s:.0}x")
    } else {
        format!("{s:.2}x")
    }
}

/// Format a byte count compactly ("4 KiB", "1 MiB").
pub fn fmt_bytes(b: usize) -> String {
    if b >= (1 << 20) && b % (1 << 20) == 0 {
        format!("{} MiB", b >> 20)
    } else if b >= (1 << 10) && b % (1 << 10) == 0 {
        format!("{} KiB", b >> 10)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(720_400.0), "720,400x");
        assert_eq!(fmt_speedup(2850.0), "2,850x");
        assert_eq!(fmt_speedup(59.0), "59x");
        assert_eq!(fmt_speedup(0.94), "0.94x");
        assert_eq!(fmt_speedup(1.07), "1.07x");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(1 << 20), "1 MiB");
        assert_eq!(fmt_bytes(1 << 10), "1 KiB");
        assert_eq!(fmt_bytes(37), "37 B");
        assert_eq!(fmt_bytes(4 << 20), "4 MiB");
    }

    #[test]
    fn write_rows_round_trips_and_reports_failures() {
        let dir = std::env::temp_dir().join("tempi_bench_write_rows_test");
        let p = write_rows(&dir, "x.json", &vec![1, 2, 3]).unwrap();
        let back: Vec<i32> = tempi_trace::json::from_str(&fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        // a file in the directory position errors instead of panicking
        let bad = p.join("nested");
        assert!(write_rows(&bad, "y.json", &1).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_table_renders_right_aligned_under_a_rule() {
        let mut t = Table::new(["a", "bb"]);
        t.row(&[&1, &"x"]);
        t.row(&[&22, &"yyy"]);
        assert_eq!(t.to_string(), " a   bb\n--  ---\n 1    x\n22  yyy\n");
        assert_eq!(range([3.0, 0.5, 7.0]), (0.5, 7.0));
    }
}
