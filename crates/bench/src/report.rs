//! Result tables: pretty-printed to stdout and saved as markdown under
//! `results/` so EXPERIMENTS.md can reference them, and `save`, the one
//! writer of every file under `results/` (tables and `BENCH_*.json`).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;

/// A rectangular result table with a title.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. `"Fig. 7 (synth-gowalla): F1 vs sigma"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells, each row the same length as `headers`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch in {:?}", self.title);
        self.rows.push(cells);
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ =
            writeln!(out, "|{}|", self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Prints the markdown rendering to stdout.
    ///
    /// The tables *are* the program output of the experiment binaries, so
    /// this writes to stdout directly rather than going through a
    /// `seeker-obs` sink.
    pub fn print(&self) {
        // lint:allow(no-print) -- tables are the experiment binaries' stdout
        println!("{}", self.to_markdown());
    }
}

/// Prints the tables and writes them to `results/<name>.md`.
/// I/O failures are reported to stderr but never abort an experiment.
pub fn emit(name: &str, tables: &[Table]) {
    let mut combined = String::new();
    for t in tables {
        t.print();
        combined.push_str(&t.to_markdown());
        combined.push('\n');
    }
    if let Err(e) = save(&format!("{name}.md"), &combined) {
        // lint:allow(no-print) -- I/O failure warning must reach stderr
        eprintln!("warning: cannot write results/{name}.md: {e}");
    }
}

/// Writes `contents` to `results/<file>` (under the workspace root, falling
/// back to the current directory), creating the directory: every file
/// under `results/` is written here.
///
/// # Errors
///
/// Returns the I/O error of creating the directory or writing the file.
pub fn save(file: &str, contents: &str) -> io::Result<()> {
    // Not a SEEKER_ knob: a cargo-provided build-time path, so it stays a
    // direct read instead of a registry row. lint:allow(env-read)
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    let dir = root.join("results");
    fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    fs::write(&path, contents)?;
    seeker_obs::info!("saved {}", path.display());
    Ok(())
}

/// Formats a float with 3 decimals (the precision used throughout the
/// experiment tables).
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering_shape() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn fmt3_rounds() {
        assert_eq!(fmt3(0.12349), "0.123");
        assert_eq!(fmt3(1.0), "1.000");
    }
}
