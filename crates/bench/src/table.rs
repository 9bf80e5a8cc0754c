//! Result tables: aligned console rendering plus CSV export.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where every experiment output (CSVs, JSONL exports) goes:
/// `target/experiments` of the workspace the process *runs* in, as a path
/// relative to the current directory. `cargo bench` and `cargo test` run
/// from the package directory, hence the walk up; a
/// binary run from another checkout (an A/B copy, a scratch archive)
/// writes there and nowhere else.
pub(crate) fn experiments_dir() -> PathBuf {
    experiments_dir_from(&std::env::current_dir().unwrap_or_default())
}

/// [`experiments_dir`] for a process running in `start`, relative to
/// `start`: under the nearest ancestor holding a `Cargo.lock`, else under
/// `start` itself.
fn experiments_dir_from(start: &Path) -> PathBuf {
    let up = start
        .ancestors()
        .position(|dir| dir.join("Cargo.lock").is_file())
        .unwrap_or(0);
    let mut dir: PathBuf = std::iter::repeat_n("..", up).collect();
    dir.extend(["target", "experiments"]);
    dir
}

/// Writes `contents` to `target/experiments/<file>` and returns the path;
/// an error names the path it could not write.
pub(crate) fn save(file: &str, contents: &str) -> io::Result<PathBuf> {
    let dir = experiments_dir();
    let path = dir.join(file);
    let named = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    fs::create_dir_all(&dir).map_err(named)?;
    fs::write(&path, contents).map_err(named)?;
    Ok(path)
}

/// A small result table, printed aligned and exportable as CSV.
///
/// # Examples
///
/// ```
/// let mut t = whisper_bench::Table::new("demo", &["n", "messages"]);
/// t.row(["2", "412"]);
/// t.row(["4", "806"]);
/// assert!(t.render().contains("messages"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            name: name.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count does not match the header count.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table {}",
            self.name
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned console form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.name);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV under `target/experiments/<name>.csv` and returns the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_csv(&self) -> io::Result<PathBuf> {
        save(&format!("{}.csv", self.name), &self.to_csv())
    }

    /// What every experiment does with a finished table: prints it, saves
    /// the CSV ([`Table::save_csv`]) and prints `csv: <path>`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors — a full disk or a read-only `target/`
    /// fails the experiment, it does not silently yield no CSV.
    pub fn emit(&self) -> io::Result<()> {
        self.print();
        println!("csv: {}", self.save_csv()?.display());
        Ok(())
    }
}

/// Formats a millisecond value with three decimals.
pub(crate) fn ms(d: whisper_simnet::SimDuration) -> String {
    format!("{:.3}", d.as_millis_f64())
}

/// Formats an optional duration as milliseconds.
pub(crate) fn ms_opt(d: Option<whisper_simnet::SimDuration>) -> String {
    d.map(ms).unwrap_or_else(|| "-".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_simnet::SimDuration;

    #[test]
    fn render_and_csv() {
        let mut t = Table::new("t", &["a", "bb"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        let r = t.render();
        assert!(r.contains("## t"));
        assert!(r.contains("333"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next(), Some("a,bb"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("e", &["x"]);
        t.row(["a,b"]);
        t.row(["say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("t", &["a"]);
        t.row(["1", "2"]);
    }

    /// Outputs land in the workspace the process runs in — found from the
    /// start directory at run time, not from where the crate was compiled.
    #[test]
    fn experiments_dir_is_under_the_nearest_workspace_root_above_the_start() {
        let root = std::env::temp_dir().join(format!("whisper-expdir-{}", std::process::id()));
        let package = root.join("crates").join("bench");
        fs::create_dir_all(&package).expect("temp dirs");
        let out = Path::new("target").join("experiments");

        // no Cargo.lock anywhere above: fall back to the start itself
        assert_eq!(experiments_dir_from(&package), out);
        fs::write(root.join("Cargo.lock"), "").expect("temp file");
        assert_eq!(experiments_dir_from(&root), out);
        assert_eq!(
            experiments_dir_from(&package),
            Path::new("..").join("..").join(&out)
        );
        // the nearest lock file wins (a nested workspace of its own)
        fs::write(package.join("Cargo.lock"), "").expect("temp file");
        assert_eq!(experiments_dir_from(&package), out);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(SimDuration::from_micros(1_500)), "1.500");
        assert_eq!(ms_opt(None), "-");
    }
}
