//! The domain lint rules (L01–L12) and the inline-waiver mechanism.
//! Every rule is a pure function of one file; L10–L12 live in
//! [`crate::locks`].

use crate::classify::FileClass;
use crate::lexer::{lex, test_regions, LexedLine};
use crate::locks::check_locks;
use crate::{Finding, Rule};

/// Runs every rule against one file. Returns the surviving findings and
/// the number of findings silenced by valid inline waivers.
pub fn check_file(rel_path: &str, source: &str, class: &FileClass) -> (Vec<Finding>, usize) {
    let lines = lex(source);
    let in_test = test_regions(&lines);
    let mut raw: Vec<Finding> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if !in_test[idx] {
            check_l01(rel_path, lineno, code, &mut raw);
            if !class.is_bin {
                check_l02(rel_path, lineno, code, &mut raw);
                check_l03(rel_path, lineno, code, &mut raw);
            }
            if !class.println_allowed {
                check_l04(rel_path, lineno, code, &mut raw);
            }
            if !class.is_bin && code.contains("process::exit") {
                raw.push(Finding {
                    file: rel_path.into(),
                    line: lineno,
                    rule: Rule::L07,
                    message: "`std::process::exit` outside `src/bin` — return an error instead"
                        .into(),
                });
            }
            if class.crate_dir == "sim" && !class.is_bin {
                check_l09(rel_path, lineno, code, &mut raw);
            }
            if !class.is_bin
                && class.crate_dir != "obs"
                && (code.contains("std::time::Instant") || code.contains("Instant::now"))
            {
                raw.push(Finding {
                    file: rel_path.into(),
                    line: lineno,
                    rule: Rule::L08,
                    message: "direct `std::time::Instant` in library code — time scopes with \
                              `fpsping_obs::Histogram::start_timer` so the measurement lands \
                              in the metrics registry (or waive with \
                              `// lint:allow(instant): <reason>`)"
                        .into(),
                });
            }
        }
    }

    if class.l05_applies {
        check_l05(rel_path, &lines, &in_test, &mut raw);
    }

    check_locks(rel_path, &lines, &in_test, class, &mut raw);

    if class.is_lib_rs
        && !lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"))
    {
        raw.push(Finding {
            file: rel_path.into(),
            line: 0,
            rule: Rule::L06,
            message: "first-party `lib.rs` must retain `#![forbid(unsafe_code)]`".into(),
        });
    }

    apply_inline_waivers(raw, &lines, rel_path)
}

/// Scans the finding list against `// lint:allow(<slug>): <reason>`
/// comments on the finding's own line or the comment-only line above it.
/// A matching waiver with an empty reason does not silence anything and
/// raises W01 instead.
fn apply_inline_waivers(
    raw: Vec<Finding>,
    lines: &[LexedLine],
    rel_path: &str,
) -> (Vec<Finding>, usize) {
    let mut kept = Vec::new();
    let mut waived = 0usize;
    let mut bad_waivers: Vec<Finding> = Vec::new();
    for f in raw {
        let mut silenced = false;
        if f.line > 0 {
            let idx = f.line - 1;
            let mut candidates = vec![idx];
            if idx > 0 && lines[idx - 1].code.trim().is_empty() {
                candidates.push(idx - 1);
            }
            for c in candidates {
                match parse_waiver(&lines[c].comment) {
                    Some((slug, reason)) if slug == f.rule.slug() => {
                        if reason.is_empty() {
                            let finding = Finding {
                                file: rel_path.into(),
                                line: c + 1,
                                rule: Rule::W01,
                                message: format!(
                                    "inline waiver for `{}` has an empty justification",
                                    slug
                                ),
                            };
                            if !bad_waivers.contains(&finding) {
                                bad_waivers.push(finding);
                            }
                        } else {
                            silenced = true;
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        if silenced {
            waived += 1;
        } else {
            kept.push(f);
        }
    }
    kept.extend(bad_waivers);
    (kept, waived)
}

/// Parses `lint:allow(<slug>): <reason>` out of a comment, returning the
/// slug and the trimmed reason.
fn parse_waiver(comment: &str) -> Option<(&str, &str)> {
    let start = comment.find("lint:allow(")?;
    let rest = &comment[start + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let slug = &rest[..close];
    let after = rest[close + 1..].strip_prefix(':')?;
    Some((slug, after.trim()))
}

// ---------------------------------------------------------------- L01 --

fn check_l01(file: &str, lineno: usize, code: &str, out: &mut Vec<Finding>) {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &code[i..i + 2];
        let is_eq = two == "==";
        let is_ne = two == "!=";
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        // Exclude `<=`, `>=`, `=>`, `===`-like runs and `..=`.
        let prev = if i > 0 { bytes[i - 1] as char } else { ' ' };
        let next = if i + 2 < bytes.len() {
            bytes[i + 2] as char
        } else {
            ' '
        };
        if is_eq && (prev == '=' || prev == '<' || prev == '>' || prev == '!' || next == '=') {
            i += 2;
            continue;
        }
        if is_ne && next == '=' {
            i += 2;
            continue;
        }
        let left = trailing_token(&code[..i]);
        let right = leading_token(&code[i + 2..]);
        if is_floaty(left) || is_floaty(right) {
            out.push(Finding {
                file: file.into(),
                line: lineno,
                rule: Rule::L01,
                message: format!(
                    "exact float `{}` against `{}` — use `fpsping_num::cmp::approx_eq` \
                     (or waive with `// lint:allow(float_eq): <reason>`)",
                    two,
                    if is_floaty(left) { left } else { right }
                ),
            });
        }
        i += 2;
    }
}

fn token_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':')
}

fn trailing_token(s: &str) -> &str {
    let s = s.trim_end();
    let end = s.len();
    let start = s
        .char_indices()
        .rev()
        .take_while(|&(_, c)| token_char(c))
        .last()
        .map(|(i, _)| i)
        .unwrap_or(end);
    &s[start..]
}

fn leading_token(s: &str) -> &str {
    let s = s.trim_start();
    let end = s
        .char_indices()
        .find(|&(_, c)| !token_char(c))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    &s[..end]
}

/// A token "looks float" when it is a float literal (`0.0`, `1e-9`,
/// `2.5f64`) or a float-typed constant path (`f64::NAN`,
/// `std::f64::consts::PI`). Plain integers and arbitrary identifiers do
/// not count — the rule is a high-precision heuristic, not a type checker.
fn is_floaty(token: &str) -> bool {
    if token.is_empty() {
        return false;
    }
    if token.contains("f64::") || token.contains("f32::") {
        return true;
    }
    let t = token.replace('_', "");
    let t = t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .map(str::to_owned)
        .unwrap_or(t);
    if !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    t.parse::<f64>().is_ok() && (t.contains('.') || t.contains('e') || t.contains('E'))
}

// ---------------------------------------------------------------- L02 --

fn check_l02(file: &str, lineno: usize, code: &str, out: &mut Vec<Finding>) {
    for (what, needle) in [("unwrap()", ".unwrap()"), ("expect()", ".expect(")] {
        let mut n = 0;
        let mut rest = code;
        while let Some(p) = rest.find(needle) {
            n += 1;
            rest = &rest[p + needle.len()..];
        }
        for _ in 0..n {
            out.push(Finding {
                file: file.into(),
                line: lineno,
                rule: Rule::L02,
                message: format!(
                    "`{}` in library code — propagate a `Result` or waive with \
                     `// lint:allow(unwrap): <reason>`",
                    what
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L03 --

fn check_l03(file: &str, lineno: usize, code: &str, out: &mut Vec<Finding>) {
    for mac in ["panic!", "todo!", "unimplemented!"] {
        let mut start = 0;
        while let Some(p) = code[start..].find(mac) {
            let abs = start + p;
            let boundary = abs == 0
                || !code[..abs]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
            if boundary {
                out.push(Finding {
                    file: file.into(),
                    line: lineno,
                    rule: Rule::L03,
                    message: format!(
                        "`{mac}` in library code — return an error (or waive with \
                         `// lint:allow(panic): <reason>`)"
                    ),
                });
            }
            start = abs + mac.len();
        }
    }
}

// ---------------------------------------------------------------- L04 --

fn check_l04(file: &str, lineno: usize, code: &str, out: &mut Vec<Finding>) {
    for mac in ["println!", "eprintln!"] {
        let mut start = 0;
        while let Some(p) = code[start..].find(mac) {
            let abs = start + p;
            let boundary = abs == 0
                || !code[..abs]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
            if boundary {
                out.push(Finding {
                    file: file.into(),
                    line: lineno,
                    rule: Rule::L04,
                    message: format!(
                        "`{mac}` outside `crates/bench` / bins / the CLI — route output \
                         through the caller"
                    ),
                });
            }
            start = abs + mac.len();
        }
    }
}

// ---------------------------------------------------------------- L09 --

/// Receiver-name suffixes that denote pending-event / k-way-merge
/// queues, whose size is the pending-event set the simulator bounds by
/// construction — pushes there are not sample-buffer growth. Like L01,
/// a high-precision name heuristic, not a type checker.
const L09_BOUNDED_RECEIVERS: &[&str] = &["calendar", "heap", "bucket", "overflow", "heads"];

/// Per-packet `Vec` growth is how a 10⁶-player scale run OOMs: every
/// sample buffer in `crates/sim` must either stream (probes), recycle
/// (ring buckets), or carry a waiver documenting its size bound — the
/// eager-probe path and the core-stage hand-off buffer are the two
/// documented ones.
fn check_l09(file: &str, lineno: usize, code: &str, out: &mut Vec<Finding>) {
    let needle = ".push(";
    let mut start = 0;
    while let Some(p) = code[start..].find(needle) {
        let abs = start + p;
        let recv = trailing_token(&code[..abs]);
        let last = recv.rsplit(['.', ':']).next().unwrap_or(recv);
        if !L09_BOUNDED_RECEIVERS.contains(&last) {
            out.push(Finding {
                file: file.into(),
                line: lineno,
                rule: Rule::L09,
                message: format!(
                    "`{last}.push(…)` grows a buffer in simulator library code — per-packet \
                     growth is unbounded at scale; stream/bound it, or document the size bound \
                     with `// lint:allow(unbounded_push): <bound>`"
                ),
            });
        }
        start = abs + needle.len();
    }
}

// ---------------------------------------------------------------- L05 --

/// Doc-contract keywords: one of these (case-insensitive) in the doc
/// comment counts as stating the NaN/domain behavior.
const CONTRACT_KEYWORDS: &[&str] = &["nan", "finite", "inf", "domain", "panic"];

fn check_l05(file: &str, lines: &[LexedLine], in_test: &[bool], out: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let Some(fn_pos) = find_pub_fn(&line.code) else {
            continue;
        };
        // Join the signature until its body opens (or a `;`).
        let mut sig = String::new();
        let mut end = idx;
        for (j, l) in lines.iter().enumerate().skip(idx).take(16) {
            let frag = if j == idx { &l.code[fn_pos..] } else { &l.code };
            sig.push_str(frag);
            sig.push(' ');
            end = j;
            if frag.contains('{') || frag.contains(';') {
                break;
            }
        }
        let _ = end;
        if !returns_bare_f64(&sig) {
            continue;
        }
        if has_doc_contract(lines, idx) {
            continue;
        }
        out.push(Finding {
            file: file.into(),
            line: idx + 1,
            rule: Rule::L05,
            message: format!(
                "`{}` returns `f64` without a NaN/domain doc contract — document when the \
                 result is NaN/non-finite or what the inputs must satisfy \
                 (keywords: {})",
                fn_name(&sig).unwrap_or("pub fn"),
                CONTRACT_KEYWORDS.join("/")
            ),
        });
    }
}

fn find_pub_fn(code: &str) -> Option<usize> {
    let p = code.find("pub fn ")?;
    // `pub(crate) fn` does not match; make sure `pub fn` is not preceded
    // by an identifier character (e.g. inside a longer word).
    let ok = p == 0
        || !code[..p]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    ok.then_some(p)
}

fn fn_name(sig: &str) -> Option<&str> {
    let rest = sig.strip_prefix("pub fn ")?;
    let end = rest
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// True when the signature's return type is a bare `f64` (not
/// `Result<f64, _>` / `Option<f64>` / a tuple / a generic).
fn returns_bare_f64(sig: &str) -> bool {
    let Some(arrow) = sig.rfind("->") else {
        return false;
    };
    let ret = sig[arrow + 2..].trim_start();
    let ret = ret.split(['{', ';']).next().unwrap_or("").trim();
    ret == "f64"
}

fn has_doc_contract(lines: &[LexedLine], fn_idx: usize) -> bool {
    let mut i = fn_idx;
    while i > 0 {
        i -= 1;
        let code = lines[i].code.trim();
        let comment = lines[i].comment.trim();
        if comment.starts_with("///") {
            let lower = comment.to_lowercase();
            if CONTRACT_KEYWORDS.iter().any(|k| lower.contains(k)) {
                return true;
            }
            continue;
        }
        // Attributes (`#[inline]`, `#[must_use]`) sit between docs and fn.
        if code.starts_with("#[") || (code.is_empty() && comment.is_empty()) {
            continue;
        }
        break;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        check_file(path, src, &classify(path)).0
    }

    #[test]
    fn l01_fires_on_float_literal_compare_only() {
        let f = lint("crates/num/src/x.rs", "fn a(x: f64) -> bool { x == 0.0 }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::L01);
        assert!(lint("crates/num/src/x.rs", "fn a(n: u32) -> bool { n == 0 }\n").is_empty());
        assert!(lint("crates/num/src/x.rs", "fn a(n: u32) -> bool { n <= 1 }\n").is_empty());
        let f = lint(
            "crates/num/src/x.rs",
            "fn a(x: f64) -> bool { x != f64::NAN }\n",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn l01_ignores_tests_and_comments() {
        let src = "#[cfg(test)]\nmod tests {\n fn a(x: f64) -> bool { x == 0.0 }\n}\n";
        assert!(lint("crates/num/src/x.rs", src).is_empty());
        assert!(lint("crates/num/src/x.rs", "// x == 0.0\n").is_empty());
    }

    #[test]
    fn l02_waiver_with_reason_silences() {
        let src = "fn a() { b().unwrap(); } // lint:allow(unwrap): b is infallible here\n";
        let (f, waived) = check_file("crates/num/src/x.rs", src, &classify("crates/num/src/x.rs"));
        assert!(f.is_empty());
        assert_eq!(waived, 1);
    }

    #[test]
    fn l02_empty_waiver_reason_is_its_own_finding() {
        let src = "fn a() { b().unwrap(); } // lint:allow(unwrap):\n";
        let f = lint("crates/num/src/x.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::L02));
        assert!(f.iter().any(|f| f.rule == Rule::W01));
    }

    #[test]
    fn l02_preceding_line_waiver() {
        let src = "// lint:allow(unwrap): length checked above\nfn a() { xs.first().unwrap(); }\n";
        let (f, waived) = check_file("crates/num/src/x.rs", src, &classify("crates/num/src/x.rs"));
        assert!(f.is_empty());
        assert_eq!(waived, 1);
    }

    #[test]
    fn l02_skips_unwrap_or_variants() {
        let src = "fn a() -> f64 { b().unwrap_or(0.0) + c().unwrap_or_else(|| 1.0) }\n";
        assert!(lint("crates/dist/src/x.rs", src)
            .iter()
            .all(|f| f.rule != Rule::L02));
    }

    #[test]
    fn l03_and_l04_and_l07() {
        let f = lint(
            "crates/sim/src/x.rs",
            "fn a() { panic!(\"boom\"); println!(\"x\"); std::process::exit(1); }\n",
        );
        assert!(f.iter().any(|f| f.rule == Rule::L03));
        assert!(f.iter().any(|f| f.rule == Rule::L04));
        assert!(f.iter().any(|f| f.rule == Rule::L07));
        // All three are fine in a bin.
        let f = lint(
            "crates/sim/src/bin/x.rs",
            "fn main() { panic!(\"boom\"); println!(\"x\"); std::process::exit(1); }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn l08_fires_in_library_code_outside_obs_only() {
        let src = "fn a() { let t = std::time::Instant::now(); }\n";
        let f = lint("crates/sim/src/x.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::L08));
        // `crates/obs` owns the clock; bins may time themselves.
        assert!(lint("crates/obs/src/x.rs", src).is_empty());
        let bin = "fn main() { let t = std::time::Instant::now(); }\n";
        assert!(lint("crates/sim/src/bin/x.rs", bin).is_empty());
        // `use` of the type alone is enough to flag.
        let f = lint("crates/queue/src/x.rs", "use std::time::Instant;\n");
        assert!(f.iter().any(|f| f.rule == Rule::L08));
        // Prose like "Instantiates" must not trip the rule.
        let f = lint(
            "crates/sim/src/x.rs",
            "/// Instantiates the scheduler.\nfn a() { instantiate(); }\n",
        );
        assert!(f.iter().all(|f| f.rule != Rule::L08));
    }

    #[test]
    fn l08_waiver_with_reason_silences() {
        let src = "// lint:allow(instant): coarse one-shot timing, not a metric\n\
                   fn a() { let t = std::time::Instant::now(); }\n";
        let (f, waived) = check_file("crates/sim/src/x.rs", src, &classify("crates/sim/src/x.rs"));
        assert!(f.iter().all(|f| f.rule != Rule::L08));
        assert_eq!(waived, 1);
    }

    #[test]
    fn l09_flags_buffer_push_in_sim_library_code_only() {
        let src = "fn a(&mut self, x: f64) { self.samples.push(x); }\n";
        let f = lint("crates/sim/src/x.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::L09));
        // Other crates, bins, and tests are out of scope.
        assert!(lint("crates/queue/src/x.rs", src).is_empty());
        assert!(lint("crates/sim/src/bin/x.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n fn a(v: &mut Vec<f64>) { v.push(1.0); }\n}\n";
        assert!(lint("crates/sim/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn l09_exempts_pending_event_queues() {
        for src in [
            "fn a(&mut self) { self.calendar.push(s); }\n",
            "fn a(&mut self) { heap.push(Reverse(s)); }\n",
            "fn a(&mut self) { self.overflow.push(Reverse(s)); }\n",
            "fn a(&mut self) { heads.push(Reverse((t, i))); }\n",
            "fn a(&mut self) { bucket.push(s); }\n",
        ] {
            assert!(
                lint("crates/sim/src/x.rs", src).is_empty(),
                "false positive on {src}"
            );
        }
        // `push_str` and similar are not `.push(`.
        assert!(lint(
            "crates/sim/src/x.rs",
            "fn a(s: &mut String) { s.push_str(\"x\"); }\n"
        )
        .is_empty());
    }

    #[test]
    fn l09_waiver_with_bound_silences() {
        let src = "// lint:allow(unbounded_push): one entry per client, fixed at construction\n\
                   fn a(&mut self) { self.links.push(link); }\n";
        let (f, waived) = check_file("crates/sim/src/x.rs", src, &classify("crates/sim/src/x.rs"));
        assert!(f.iter().all(|f| f.rule != Rule::L09));
        assert_eq!(waived, 1);
    }

    #[test]
    fn l05_requires_contract_in_num_and_queue_only() {
        let undocumented = "/// Mean of the thing.\npub fn mean(&self) -> f64 { 0.0 }\n";
        assert!(lint("crates/num/src/x.rs", undocumented)
            .iter()
            .any(|f| f.rule == Rule::L05));
        assert!(lint("crates/dist/src/x.rs", undocumented)
            .iter()
            .all(|f| f.rule != Rule::L05));
        let documented =
            "/// Mean of the thing; always finite for valid input.\npub fn mean(&self) -> f64 { 0.0 }\n";
        assert!(lint("crates/num/src/x.rs", documented)
            .iter()
            .all(|f| f.rule != Rule::L05));
        let result = "pub fn mean(&self) -> Result<f64, E> { Ok(0.0) }\n";
        assert!(lint("crates/queue/src/x.rs", result)
            .iter()
            .all(|f| f.rule != Rule::L05));
    }

    #[test]
    fn l06_missing_forbid() {
        let f = lint("crates/num/src/lib.rs", "pub mod x;\n");
        assert!(f.iter().any(|f| f.rule == Rule::L06));
        let f = lint(
            "crates/num/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod x;\n",
        );
        assert!(f.iter().all(|f| f.rule != Rule::L06));
    }
}
