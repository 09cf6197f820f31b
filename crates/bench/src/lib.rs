//! The reproduction harness behind the `repro` program. A study returns
//! its output as [`Table`]s; one writer puts them in `results/`, one
//! printer shows them on stdout, and one checker compares them byte for
//! byte with the committed files and with the excerpts EXPERIMENTS.md
//! quotes from them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator_study;

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One CSV file of a study: its name under `results/`, its header line
/// and its rows, each a preformatted CSV line.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// File name under `results/`.
    pub name: String,
    /// The header line.
    pub header: String,
    /// The data lines.
    pub rows: Vec<String>,
}

impl Table {
    /// A table named `name` (a file name under `results/`).
    pub fn new(name: impl Into<String>, header: impl Into<String>, rows: Vec<String>) -> Self {
        Self {
            name: name.into(),
            header: header.into(),
            rows,
        }
    }

    /// The file's bytes: the header and every row, each ended by `\n`.
    pub fn csv(&self) -> String {
        let mut out = String::new();
        for line in std::iter::once(&self.header).chain(&self.rows) {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Prints the table as aligned columns under its file name. A column
    /// whose cells all parse as numbers is right-aligned.
    pub fn print(&self) {
        let lines: Vec<Vec<&str>> = std::iter::once(&self.header)
            .chain(&self.rows)
            .map(|l| fields(l))
            .collect();
        let columns = lines.iter().map(Vec::len).max().unwrap_or(0);
        let mut width = vec![0; columns];
        let mut numeric = vec![true; columns];
        for (r, cells) in lines.iter().enumerate() {
            for (c, cell) in cells.iter().enumerate() {
                width[c] = width[c].max(cell.chars().count());
                numeric[c] &= r == 0 || cell.is_empty() || cell.parse::<f64>().is_ok();
            }
        }
        println!("results/{}", self.name);
        for cells in &lines {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(c, cell)| match numeric[c] {
                    true => format!("{cell:>w$}", w = width[c]),
                    false => format!("{cell:<w$}", w = width[c]),
                })
                .collect();
            println!("  {}", padded.join("  ").trim_end());
        }
        println!();
    }
}

/// Splits a CSV line into its fields. A comma inside parentheses, as in
/// `Ext(120, 36)`, belongs to its field.
fn fields(line: &str) -> Vec<&str> {
    let (mut out, mut depth, mut start) = (Vec::new(), 0i32, 0);
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b',' if depth == 0 => {
                out.push(&line[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&line[start..]);
    out
}

/// The repository root.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The repository-level `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = repo_root().join("results");
    // lint:allow(unwrap): the harness cannot run without its results/ directory, and the message names the step
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes each table into `dir` as `dir/<name>`.
pub fn write_tables(dir: &Path, tables: &[Table]) -> io::Result<()> {
    for t in tables {
        fs::write(dir.join(&t.name), t.csv())?;
    }
    Ok(())
}

/// Compares each table with its committed file in `dir`, byte for byte.
/// Returns one message per file that is missing or differs; a message
/// names the file, the first differing line and both versions of it.
pub fn check_tables(dir: &Path, tables: &[Table]) -> Vec<String> {
    tables
        .iter()
        .filter_map(|t| {
            let committed = match fs::read_to_string(dir.join(&t.name)) {
                Ok(c) => c,
                Err(e) => return Some(format!("results/{}: cannot read it: {e}", t.name)),
            };
            first_difference(&committed, &t.csv()).map(|(n, old, new)| {
                format!(
                    "results/{}: line {n} differs\n  committed: {old}\n  generated: {new}",
                    t.name
                )
            })
        })
        .collect()
}

/// The 1-based number of the first line where `committed` and
/// `generated` differ, with both lines (`<end of file>` past the end),
/// or `None` when the two are the same bytes.
fn first_difference(committed: &str, generated: &str) -> Option<(usize, String, String)> {
    let shown = |l: Option<&str>| l.map_or("<end of file>".into(), |l| format!("{l:?}"));
    let (mut a, mut b) = (
        committed.split_inclusive('\n'),
        generated.split_inclusive('\n'),
    );
    let mut n = 1;
    loop {
        match (a.next(), b.next()) {
            (None, None) => return None,
            (x, y) if x != y => return Some((n, shown(x), shown(y))),
            _ => n += 1,
        }
    }
}

/// Names every `*.csv` in `dir` that is not in `known`: a file no study
/// writes, such as the leftover of a renamed study.
pub fn orphans(dir: &Path, known: &BTreeSet<&str>) -> Vec<String> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => return vec![format!("{}: cannot list it: {e}", dir.display())],
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".csv") && !known.contains(n.as_str()))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|n| format!("results/{n}: no study writes this file"))
        .collect()
}

/// Checks the CSV excerpts of a document against `dir`. An excerpt is a
/// fenced block opened by ```` ```csv results/<name> ````; every line in
/// it, without its indentation, must be a line of that file. Returns one
/// message per line that is not, and per excerpt whose file cannot be
/// read or whose fence is never closed.
pub fn check_excerpts(doc_name: &str, doc: &str, dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let mut lines = doc.lines().enumerate();
    while let Some((i, line)) = lines.next() {
        let Some(name) = line.trim_start().strip_prefix("```csv results/") else {
            continue;
        };
        let committed = fs::read_to_string(dir.join(name))
            .map_err(|e| problems.push(format!("{doc_name}:{}: results/{name}: {e}", i + 1)))
            .ok();
        let mut closed = false;
        for (j, quoted) in lines.by_ref() {
            let quoted = quoted.trim_start();
            if quoted == "```" {
                closed = true;
                break;
            }
            if committed
                .as_ref()
                .is_some_and(|c| !c.lines().any(|l| l == quoted))
            {
                problems.push(format!(
                    "{doc_name}:{}: not a line of results/{name}: {quoted:?}",
                    j + 1
                ));
            }
        }
        if !closed {
            problems.push(format!(
                "{doc_name}:{}: excerpt of results/{name} is never closed",
                i + 1
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory under the system temp dir, unique to this
    /// process and `tag`.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fpsping-bench-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn table() -> Table {
        Table::new("t.csv", "a,b", vec!["1,2".into(), "3,4".into()])
    }

    #[test]
    fn results_dir_exists_after_call() {
        assert!(results_dir().is_dir());
    }

    #[test]
    fn csv_round_trip() {
        let dir = scratch_dir("round-trip");
        write_tables(&dir, &[table()]).unwrap();
        let content = fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        assert!(check_tables(&dir, &[table()]).is_empty());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn fields_keep_parenthesised_commas() {
        assert_eq!(fields("U(0, 2 ms),5950.0,"), ["U(0, 2 ms)", "5950.0", ""]);
        assert_eq!(fields("x,Ext(120, 36)"), ["x", "Ext(120, 36)"]);
    }

    #[test]
    fn a_difference_names_the_file_the_line_and_both_versions() {
        let dir = scratch_dir("difference");
        fs::write(dir.join("t.csv"), "a,b\n1,2\n3,5\n").unwrap();
        let problems = check_tables(&dir, &[table()]);
        assert_eq!(
            problems,
            ["results/t.csv: line 3 differs\n  committed: \"3,5\\n\"\n  generated: \"3,4\\n\""]
        );
        fs::write(dir.join("t.csv"), "a,b\n1,2\n").unwrap();
        assert!(check_tables(&dir, &[table()])[0].contains("committed: <end of file>"));
        fs::write(dir.join("t.csv"), "a,b\n1,2\n3,4").unwrap();
        assert!(check_tables(&dir, &[table()])[0].contains("line 3 differs"));
        fs::remove_file(dir.join("t.csv")).unwrap();
        assert!(check_tables(&dir, &[table()])[0].starts_with("results/t.csv: cannot read it"));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_csv_no_study_writes_is_an_orphan() {
        let dir = scratch_dir("orphans");
        for name in ["t.csv", "x.csv", "notes.json"] {
            fs::write(dir.join(name), "").unwrap();
        }
        let known = BTreeSet::from(["t.csv"]);
        assert_eq!(
            orphans(&dir, &known),
            ["results/x.csv: no study writes this file"]
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn every_excerpt_line_must_be_a_line_of_its_file() {
        let dir = scratch_dir("excerpts");
        write_tables(&dir, &[table()]).unwrap();
        let good = "text\n```csv results/t.csv\na,b\n3,4\n```\n1,9\n";
        let indented = "* item\n\n  ```csv results/t.csv\n  3,4\n  ```\n";
        assert!(check_excerpts("D.md", indented, &dir).is_empty());
        assert!(check_excerpts("D.md", good, &dir).is_empty());
        let stale = "```csv results/t.csv\na,b\n3,5\n```\n";
        assert_eq!(
            check_excerpts("D.md", stale, &dir),
            ["D.md:3: not a line of results/t.csv: \"3,5\""]
        );
        let missing = "```csv results/u.csv\n1\n```\n";
        assert!(check_excerpts("D.md", missing, &dir)[0].starts_with("D.md:1: results/u.csv"));
        let open = "```csv results/t.csv\na,b\n";
        assert!(check_excerpts("D.md", open, &dir)[0].contains("never closed"));
        fs::remove_dir_all(dir).unwrap();
    }
}
