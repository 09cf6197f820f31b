//! # xtask — first-party static analysis for the fpsping workspace
//!
//! `cargo xtask lint` walks every first-party `crates/*/src` source file
//! with a comment/string-aware line lexer and enforces the domain rules
//! the tier-1 gate cannot delegate to clippy (which is conditionally
//! installed at best, and cannot express them anyway):
//!
//! | rule | what it rejects |
//! |------|-----------------|
//! | L01  | exact float `==` / `!=` outside `#[cfg(test)]` |
//! | L02  | `unwrap()` / `expect()` in library code without a waiver |
//! | L03  | `panic!` / `todo!` / `unimplemented!` in library code |
//! | L04  | `println!` / `eprintln!` outside bins, `crates/bench`, the CLI |
//! | L05  | `pub fn … -> f64` in `fpsping-num` / `fpsping-queue` without a NaN/domain doc contract |
//! | L06  | a first-party `lib.rs` missing `#![forbid(unsafe_code)]` |
//! | L07  | `std::process::exit` outside `src/bin` |
//! | L08  | direct `std::time::Instant` in library crates outside `crates/obs` |
//! | L09  | `.push(…)` onto a growable buffer in `crates/sim` library code without a documented size bound (pending-event queues exempt) |
//! | L10  | a lock acquired, bound or temporary, or an `fpsping_obs` registry call (metric record, `span(`, `warn_once(`, `snapshot(`), while a bound guard section is open |
//! | L11  | a lock guard held across a `fpsping_num`/`fpsping_queue` solver call or blocking I/O (`read`/`write`/`accept`) |
//! | L12  | raw `.lock()`, ad-hoc poison recovery or any `RwLock` outside the audited `fpsping_obs::lock` helper |
//!
//! Every rule is a pure function of one file, so the workspace run is one
//! pass of [`rules::check_file`] over each file. L10–L12 walk the file
//! with a guard-section tracker (see [`locks`]); L10 is the only
//! enforcement of the workspace's one lock rule — never hold two guards.
//!
//! A finding is silenced only inline, with
//! `// lint:allow(<slug>): <non-empty reason>` on the same or preceding
//! line; an empty reason is itself a finding (W01).
//!
//! Everything here is pure `std` — the registry is unreachable in the
//! build environment and the lint gate must run fully offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod classify;
pub mod lexer;
pub mod locks;
pub mod rules;

pub use classify::FileClass;

/// The rule identifiers. `W*` rules police the waiver mechanism itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Exact float `==`/`!=` outside tests.
    L01,
    /// `unwrap()`/`expect()` in library code.
    L02,
    /// `panic!`/`todo!`/`unimplemented!` in library code.
    L03,
    /// `println!`/`eprintln!` outside bins / bench / CLI.
    L04,
    /// Undocumented `pub fn … -> f64` in the numeric kernels.
    L05,
    /// Missing `#![forbid(unsafe_code)]` in a first-party `lib.rs`.
    L06,
    /// `std::process::exit` outside `src/bin`.
    L07,
    /// Direct `std::time::Instant` in a library crate outside `crates/obs`.
    L08,
    /// Undocumented growable-buffer `.push(…)` in `crates/sim` library code.
    L09,
    /// A lock acquired while a bound guard is held.
    L10,
    /// Lock guard held across a solver call or blocking I/O.
    L11,
    /// Raw `.lock()`, ad-hoc poison recovery or an `RwLock` outside `fpsping_obs::lock`.
    L12,
    /// An inline waiver with an empty justification.
    W01,
}

impl Rule {
    /// The slug accepted by `// lint:allow(<slug>): …` for this rule.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::L01 => "float_eq",
            Rule::L02 => "unwrap",
            Rule::L03 => "panic",
            Rule::L04 => "println",
            Rule::L05 => "doc_contract",
            Rule::L06 => "forbid_unsafe",
            Rule::L07 => "process_exit",
            Rule::L08 => "instant",
            Rule::L09 => "unbounded_push",
            Rule::L10 => "lock_order",
            Rule::L11 => "lock_held",
            Rule::L12 => "raw_lock",
            Rule::W01 => "waiver",
        }
    }

    /// Parses a rule ID (`"L02"`) or slug (`"unwrap"`).
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "L01" | "float_eq" => Some(Rule::L01),
            "L02" | "unwrap" => Some(Rule::L02),
            "L03" | "panic" => Some(Rule::L03),
            "L04" | "println" => Some(Rule::L04),
            "L05" | "doc_contract" => Some(Rule::L05),
            "L06" | "forbid_unsafe" => Some(Rule::L06),
            "L07" | "process_exit" => Some(Rule::L07),
            "L08" | "instant" => Some(Rule::L08),
            "L09" | "unbounded_push" => Some(Rule::L09),
            "L10" | "lock_order" => Some(Rule::L10),
            "L11" | "lock_held" => Some(Rule::L11),
            "L12" | "raw_lock" => Some(Rule::L12),
            "W01" | "waiver" => Some(Rule::W01),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One lint finding, pinned to a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number (0 for whole-file findings such as L06).
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-oriented description of this specific occurrence.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Outcome of a lint run: the gate-failing findings and the waived count.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that fail the gate.
    pub active: Vec<Finding>,
    /// Count of findings silenced by inline `lint:allow` comments.
    pub inline_waived: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.active.is_empty()
    }

    /// One-line status, the same line tier1.sh surfaces when clippy is
    /// absent.
    pub fn summary(&self) -> String {
        format!(
            "xtask lint: {} finding(s) ({} inline-waived) across {} files",
            self.active.len(),
            self.inline_waived,
            self.files_scanned
        )
    }

    /// Serializes the report as a small, dependency-free JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.active.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(&f.rule.to_string()),
                json_str(&f.message)
            ));
        }
        if !self.active.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"inline_waived\": {},\n  \"files_scanned\": {},\n  \"ok\": {}\n}}\n",
            self.inline_waived,
            self.files_scanned,
            self.ok()
        ));
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Errors from driving a lint run.
#[derive(Debug)]
pub enum LintError {
    /// Filesystem error while walking or reading sources.
    Io(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Lints a single source text as if it lived at `rel_path` (workspace
/// relative, `/`-separated). Returns `(findings, inline_waived_count)`.
pub fn lint_source(rel_path: &str, source: &str) -> (Vec<Finding>, usize) {
    rules::check_file(rel_path, source, &classify::classify(rel_path))
}

/// Walks `crates/*/src` under `root` and lints every `.rs` file, one
/// file at a time. Findings come out sorted by file and line.
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    let mut files = collect_sources(root)?;
    files.sort();
    let mut report = Report::default();
    for rel in &files {
        let full = root.join(rel);
        let source = std::fs::read_to_string(&full)
            .map_err(|e| LintError::Io(format!("{}: {e}", full.display())))?;
        let (mut findings, inline) = lint_source(rel, &source);
        findings.sort_by_key(|f| (f.line, f.rule));
        report.active.extend(findings);
        report.inline_waived += inline;
        report.files_scanned += 1;
    }
    Ok(report)
}

/// Collects workspace-relative paths of every first-party source file:
/// `crates/<crate>/src/**/*.rs`. Vendored shims (`vendor/*`) are out of
/// scope by construction.
pub fn collect_sources(root: &Path) -> Result<Vec<String>, LintError> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| LintError::Io(format!("{}: {e}", crates_dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(e.to_string()))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(&src, root, &mut out)?;
        }
    }
    Ok(out)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| LintError::Io(format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(e.to_string()))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| LintError::Io(e.to_string()))?;
            out.push(rel_to_slash(rel));
        }
    }
    Ok(())
}

fn rel_to_slash(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The workspace root this binary was built in, falling back to the
/// current directory when the baked-in path no longer exists (e.g. a
/// relocated checkout).
pub fn default_root() -> PathBuf {
    let baked = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if baked.join("Cargo.toml").is_file() {
        baked
    } else {
        PathBuf::from(".")
    }
}
