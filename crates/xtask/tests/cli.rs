//! End-to-end tests of the `cargo xtask lint` binary: each seeded fixture
//! must produce its rule's finding (and a non-zero exit), and the real
//! workspace, with only its inline `lint:allow` waivers, must come back
//! clean.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn xtask() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Lints one fixture under a pretend path and returns the finished output.
fn lint_fixture(name: &str, pretend: &str) -> Output {
    xtask()
        .args(["lint", "--file"])
        .arg(fixture(name))
        .args(["--as", pretend])
        .output()
        .expect("spawn xtask")
}

/// Asserts the fixture run failed (exit 1) and flagged `rule` at
/// `pretend:line` in its human output.
fn assert_finding(out: &Output, rule: &str, pretend: &str, line: usize) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected lint failure for {rule}; stdout:\n{stdout}"
    );
    let needle = format!("{pretend}:{line}: {rule} ");
    assert!(
        stdout.contains(&needle),
        "missing `{needle}` in output:\n{stdout}"
    );
}

#[test]
fn l01_fixture_flags_exact_float_eq() {
    let out = lint_fixture("l01_float_eq.rs", "crates/num/src/fixture.rs");
    assert_finding(&out, "L01", "crates/num/src/fixture.rs", 4);
}

#[test]
fn l02_fixture_flags_unwrap() {
    let out = lint_fixture("l02_unwrap.rs", "crates/sim/src/fixture.rs");
    assert_finding(&out, "L02", "crates/sim/src/fixture.rs", 4);
}

#[test]
fn l03_fixture_flags_panic() {
    let out = lint_fixture("l03_panic.rs", "crates/sim/src/fixture.rs");
    assert_finding(&out, "L03", "crates/sim/src/fixture.rs", 5);
}

#[test]
fn l04_fixture_flags_println() {
    let out = lint_fixture("l04_println.rs", "crates/sim/src/fixture.rs");
    assert_finding(&out, "L04", "crates/sim/src/fixture.rs", 4);
}

#[test]
fn l04_fixture_is_clean_under_bench() {
    // The same println! is policy-allowed in the bench harness crate.
    let out = lint_fixture("l04_println.rs", "crates/bench/src/fixture.rs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn l05_fixture_flags_missing_doc_contract() {
    let out = lint_fixture("l05_missing_contract.rs", "crates/queue/src/fixture.rs");
    assert_finding(&out, "L05", "crates/queue/src/fixture.rs", 4);
}

#[test]
fn l05_fixture_is_clean_outside_kernel_crates() {
    // The doc-contract rule is scoped to fpsping-num / fpsping-queue.
    let out = lint_fixture("l05_missing_contract.rs", "crates/traffic/src/fixture.rs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn l06_fixture_flags_missing_forbid() {
    let out = lint_fixture("l06_missing_forbid.rs", "crates/num/src/lib.rs");
    // L06 is a whole-file finding reported at line 0.
    assert_finding(&out, "L06", "crates/num/src/lib.rs", 0);
}

#[test]
fn l07_fixture_flags_process_exit() {
    let out = lint_fixture("l07_process_exit.rs", "crates/sim/src/fixture.rs");
    assert_finding(&out, "L07", "crates/sim/src/fixture.rs", 4);
}

#[test]
fn l08_fixture_flags_instant_in_library_code() {
    let out = lint_fixture("l08_instant.rs", "crates/sim/src/fixture.rs");
    assert_finding(&out, "L08", "crates/sim/src/fixture.rs", 4);
}

#[test]
fn l08_fixture_is_clean_in_obs_and_bins() {
    // `crates/obs` owns the clock; bins may time themselves directly.
    let out = lint_fixture("l08_instant.rs", "crates/obs/src/fixture.rs");
    assert_eq!(out.status.code(), Some(0));
    let out = lint_fixture("l08_instant.rs", "crates/sim/src/bin/fixture.rs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn l09_fixture_flags_buffer_push_in_sim_only() {
    let out = lint_fixture("l09_unbounded_push.rs", "crates/sim/src/fixture.rs");
    assert_finding(&out, "L09", "crates/sim/src/fixture.rs", 4);
    // The rule is scoped to the simulator crate's library code.
    let out = lint_fixture("l09_unbounded_push.rs", "crates/queue/src/fixture.rs");
    assert_eq!(out.status.code(), Some(0));
    let out = lint_fixture("l09_unbounded_push.rs", "crates/sim/src/bin/fixture.rs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn l10_fixture_flags_unordered_nesting() {
    // Any second guard under a held one is a finding; there is no order
    // file that could bless it.
    let out = lint_fixture("l10_lock_order.rs", "crates/serve/src/fixture.rs");
    assert_finding(&out, "L10", "crates/serve/src/fixture.rs", 10);
    // The registry route: a counter record under the held guard.
    assert_finding(&out, "L10", "crates/serve/src/fixture.rs", 20);
}

#[test]
fn l11_fixture_flags_guard_held_across_io_and_solver() {
    let out = lint_fixture("l11_lock_held.rs", "crates/serve/src/fixture.rs");
    assert_finding(&out, "L11", "crates/serve/src/fixture.rs", 9);
    assert_finding(&out, "L11", "crates/serve/src/fixture.rs", 10);
}

#[test]
fn l12_fixture_flags_raw_lock_outside_obs_only() {
    let out = lint_fixture("l12_raw_lock.rs", "crates/serve/src/fixture.rs");
    assert_finding(&out, "L12", "crates/serve/src/fixture.rs", 4);
    // `crates/obs` hosts the audited helpers themselves.
    let out = lint_fixture("l12_raw_lock.rs", "crates/obs/src/fixture.rs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn temporaries_fixture_is_clean() {
    // The guard-span blind spot: statement-scoped guards must not
    // produce L10/L11 false positives.
    let out = lint_fixture("lock_temporaries.rs", "crates/obs/src/fixture.rs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
}

#[test]
fn fixture_findings_survive_into_json() {
    let out = xtask()
        .args(["lint", "--file"])
        .arg(fixture("l02_unwrap.rs"))
        .args(["--as", "crates/sim/src/fixture.rs", "--format", "json"])
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"rule\": \"L02\""), "json:\n{stdout}");
    assert!(stdout.contains("\"ok\": false"), "json:\n{stdout}");
}

#[test]
fn workspace_is_clean_with_checked_in_baseline() {
    let root = workspace_root();
    let out = xtask()
        .args(["lint", "--root"])
        .arg(&root)
        .args(["--format", "summary"])
        .output()
        .expect("spawn xtask");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace lint not clean:\n{stdout}\n{stderr}"
    );
    assert!(stdout.contains("0 finding(s)"), "summary:\n{stdout}");
}

#[test]
fn usage_errors_exit_2() {
    let out = xtask().args(["frobnicate"]).output().expect("spawn xtask");
    assert_eq!(out.status.code(), Some(2));
    let out = xtask()
        .args(["lint", "--format", "xml"])
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(2));
    let out = xtask()
        .args(["lint", "--baseline", "lint.toml"])
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(2));
}
