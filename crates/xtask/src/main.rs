//! `cargo xtask` — the workspace's first-party task runner.
//!
//! Subcommands:
//!
//! * `lint` — run the domain lint pass (see the library docs for the rule
//!   table). Exits 0 when clean (inline `lint:allow` waivers aside), 1 on
//!   findings, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::{lint_source, lint_workspace, Report};

const USAGE: &str = "\
usage: cargo xtask lint [options]

options:
  --format <human|json|summary>   output format (default: human)
  --root <path>                   workspace root (default: autodetected)
  --file <path> --as <rel-path>   lint one file as if at <rel-path>
                                  instead of walking the workspace
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("xtask: {msg}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
    Summary,
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("lint") => {}
        Some(other) => return Err(format!("unknown subcommand `{other}`")),
        None => return Err("missing subcommand".into()),
    }
    let mut format = Format::Human;
    let mut root: Option<PathBuf> = None;
    let mut single_file: Option<PathBuf> = None;
    let mut pretend: Option<String> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    Some("summary") => Format::Summary,
                    other => return Err(format!("bad --format {other:?}")),
                };
            }
            "--root" => root = Some(PathBuf::from(it.next().ok_or("missing --root value")?)),
            "--file" => single_file = Some(PathBuf::from(it.next().ok_or("missing --file value")?)),
            "--as" => pretend = Some(it.next().ok_or("missing --as value")?.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }

    let report = if let Some(file) = single_file {
        let rel = pretend.ok_or("--file requires --as <rel-path>")?;
        let source =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let (findings, inline_waived) = lint_source(&rel, &source);
        Report {
            active: findings,
            inline_waived,
            files_scanned: 1,
        }
    } else {
        let root = root.unwrap_or_else(xtask::default_root);
        lint_workspace(&root).map_err(|e| e.to_string())?
    };

    match format {
        Format::Human => {
            for f in &report.active {
                println!("{f}");
            }
            println!("{}", report.summary());
        }
        Format::Json => print!("{}", report.to_json()),
        Format::Summary => println!("{}", report.summary()),
    }
    Ok(if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
