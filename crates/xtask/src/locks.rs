//! Lock-discipline analysis: the guard-section tracker behind rules
//! L10 / L11 / L12.
//!
//! The workspace keeps one lock rule: no lock guard is acquired while
//! another is held, and L10 is its only enforcement. Like L01–L09, these
//! rules are a pure function of one file: [`check_locks`] walks it with a
//! lightweight block tracker on top of the comment/string-aware lexer. A
//! `let`-bound guard opens a **section** that stays open until its
//! enclosing block closes (or an explicit `drop(guard)`); a guard that is
//! a temporary (`lock(&m).field`, `m.lock()?.len()`) never opens a
//! section — it is dropped at the end of its statement, which is exactly
//! the blind spot a naive span tracker gets wrong. Findings name each lock by its
//! receiver as written (`self.q`).
//!
//! Inside an open section:
//!
//! * any other acquisition, bound or temporary, is a second guard under
//!   the first (**L10**);
//! * so is a call that takes an `fpsping_obs` registry lock (**L10**,
//!   the registry route): a metric record (a metric registers itself on
//!   first record), a `span(` (its drop aggregates into the span map),
//!   `warn_once(` or `snapshot(`. That is the one nesting through a call
//!   the workspace ever had (a counter registering itself under serve's
//!   stats guard). An acquisition reached through any other call is not
//!   seen;
//! * a call into the `fpsping_num`/`fpsping_queue` solver entry points
//!   or blocking I/O (`read`/`write`/`accept`/`flush`) is the
//!   lock-convoy smell that corrupts serve's tail latency (**L11**).
//!
//! **L12** is positional: a raw `.lock()`, ad-hoc
//! `PoisonError::into_inner` recovery or any `RwLock` anywhere outside
//! `crates/obs` — every acquisition must route through the audited
//! `fpsping_obs::lock` helper (which takes a `Mutex`) so its poison
//! recovery covers it and L10 sees it.

use crate::classify::FileClass;
use crate::lexer::LexedLine;
use crate::{Finding, Rule};

/// Calls that must never run under a held lock guard (L11): the solver
/// entry points whose latency is data-dependent and unbounded relative
/// to a lock hold budget…
const SOLVER_NEEDLES: &[&str] = &[
    "fpsping_num::",
    "fpsping_queue::",
    ".rtt_batch(",
    ".rtt_ms(",
    ".max_load(",
    ".breakdown(",
];

/// …and blocking I/O.
const IO_NEEDLES: &[&str] = &[
    ".read(",
    ".write(",
    ".accept(",
    ".write_all(",
    ".read_exact(",
    ".read_to_end(",
    ".flush(",
];

/// Calls that take an `fpsping_obs` registry lock (L10): recording a
/// counter, gauge or histogram (each registers itself on first record),
/// opening a span (its drop takes the span map), `warn_once` and
/// `snapshot`. Needles without a leading `.` match only free calls.
const REGISTRY_NEEDLES: &[&str] = &[
    ".incr(",
    ".add(",
    ".set(",
    ".set_max(",
    ".record(",
    ".start_timer(",
    "span(",
    "warn_once(",
    "snapshot(",
];

/// One acquisition site on a line.
struct Acq {
    /// Byte column of the acquisition on the line's code text.
    col: usize,
    /// The lock's receiver as written (`self.q`).
    lock: String,
    /// `let`-bound guard name, when the acquisition is the whole
    /// initializer (`let g = lock(&m);`). `None` ⇒ a temporary, dropped
    /// at the end of its statement — it still counts as a second guard
    /// under an open section, but never opens a section of its own.
    bound: Option<String>,
    /// Raw `.lock()` method form (L12 outside `crates/obs`).
    raw: bool,
}

/// An open guard section.
struct Section {
    lock: String,
    name: String,
    depth: i64,
    open_line: usize,
}

/// Runs the lock-discipline rules over one file, appending findings.
/// `in_test` gates out `#[cfg(test)]` regions (raw locks and ad-hoc
/// nesting in tests exercise the machinery rather than ship it).
pub fn check_locks(
    rel_path: &str,
    lines: &[LexedLine],
    in_test: &[bool],
    class: &FileClass,
    out: &mut Vec<Finding>,
) {
    let mut depth: i64 = 0;
    let mut sections: Vec<Section> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if in_test[idx] {
            // Keep the depth tracker honest through test regions.
            for c in code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        sections.retain(|s| s.depth < depth + 1);
                    }
                    _ => {}
                }
            }
            continue;
        }

        let acqs = find_acquisitions(code);
        // L12 is positional and independent of nesting.
        if class.crate_dir != "obs" {
            for a in acqs.iter().filter(|a| a.raw) {
                out.push(Finding {
                    file: rel_path.into(),
                    line: lineno,
                    rule: Rule::L12,
                    message: format!(
                        "raw `.lock()` on `{}` — route through the audited \
                         `fpsping_obs::lock` helper so its poison recovery covers it and \
                         L10 sees it (or waive with `// lint:allow(raw_lock): <reason>`)",
                        a.lock
                    ),
                });
            }
            if code.contains("PoisonError") && !code.contains("use ") {
                out.push(Finding {
                    file: rel_path.into(),
                    line: lineno,
                    rule: Rule::L12,
                    message: "ad-hoc mutex poison recovery — `fpsping_obs::lock` is the one \
                              audited recovery site (or waive with \
                              `// lint:allow(raw_lock): <reason>`)"
                        .into(),
                });
            }
            if find_kw(code, "RwLock").is_some() {
                out.push(Finding {
                    file: rel_path.into(),
                    line: lineno,
                    rule: Rule::L12,
                    message: "`RwLock` outside `crates/obs` — every lock goes through \
                              `fpsping_obs::lock`, which takes a `Mutex` (or waive with \
                              `// lint:allow(raw_lock): <reason>`)"
                        .into(),
                });
            }
        }

        let needles = find_held_call_needles(code);
        let drops = find_drops(code);

        // Walk the line's events in column order so "held at this point"
        // is exact even when several events share a line.
        let mut acq_it = acqs.iter().peekable();
        let mut needle_it = needles.iter().peekable();
        let mut drop_it = drops.iter().peekable();
        for (col, c) in code.char_indices() {
            while let Some((_, name)) = drop_it.next_if(|&&(p, _)| p == col) {
                if let Some(pos) = sections.iter().rposition(|s| &s.name == name) {
                    sections.remove(pos);
                }
            }
            while let Some(a) = acq_it.next_if(|a| a.col == col) {
                if let Some(s) = sections.last() {
                    out.push(nested_finding(rel_path, lineno, s, a));
                }
                if let Some(name) = &a.bound {
                    sections.push(Section {
                        lock: a.lock.clone(),
                        name: name.clone(),
                        depth,
                        open_line: lineno,
                    });
                }
            }
            while let Some(&(_, needle, rule)) = needle_it.next_if(|&&(p, ..)| p == col) {
                if let Some(s) = sections.last() {
                    let why = if rule == Rule::L10 {
                        "this call takes an `fpsping_obs` registry lock, a second guard \
                         under the first; make the call after the guard drops (or waive with \
                         `// lint:allow(lock_order): <reason>`)"
                    } else {
                        "a solver call or blocking I/O under a lock is the convoy that \
                         corrupts p99; drop the guard first (or waive with \
                         `// lint:allow(lock_held): <reason>`)"
                    };
                    out.push(Finding {
                        file: rel_path.into(),
                        line: lineno,
                        rule,
                        message: format!(
                            "`{needle}` while holding `{}` (guard `{}` since line {}) — {why}",
                            s.lock, s.name, s.open_line
                        ),
                    });
                }
            }
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    // A section opened at depth d dies when its block
                    // (entered at d-1 → d) closes, i.e. when depth drops
                    // below d.
                    sections.retain(|s| s.depth <= depth);
                }
                _ => {}
            }
        }
    }
}

/// The L10 finding for acquiring `inner` while `outer` is held.
fn nested_finding(rel_path: &str, lineno: usize, outer: &Section, inner: &Acq) -> Finding {
    let a = outer.lock.as_str();
    let b = inner.lock.as_str();
    let message = if a == b {
        format!(
            "lock `{a}` acquired while already held (guard `{}` since line {}) — \
             same-lock nesting self-deadlocks",
            outer.name, outer.open_line
        )
    } else {
        format!(
            "lock `{b}` acquired while holding `{a}` (guard `{}` since line {}) — the \
             workspace holds one lock guard at a time; drop the guard first (or waive with \
             `// lint:allow(lock_order): <reason>`)",
            outer.name, outer.open_line
        )
    };
    Finding {
        file: rel_path.into(),
        line: lineno,
        rule: Rule::L10,
        message,
    }
}

/// Finds every lock acquisition on a (lexed) code line.
fn find_acquisitions(code: &str) -> Vec<Acq> {
    let mut out = Vec::new();
    // Helper form: `lock(&expr)`.
    let needle = "lock(";
    let mut start = 0;
    while let Some(p) = code[start..].find(needle) {
        let abs = start + p;
        start = abs + needle.len();
        let prev = code[..abs].chars().next_back();
        if prev.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.') {
            continue; // `.lock(` handled below; `try_lock(`/idents skipped
        }
        let Some((args_end, args_text)) = balanced_paren_span(code, abs + needle.len() - 1) else {
            continue;
        };
        out.push(Acq {
            col: abs,
            lock: args_text.trim().trim_start_matches('&').trim().to_string(),
            bound: binding_of(code, abs, args_end),
            raw: false,
        });
    }
    // Raw method form: `expr.lock()`.
    let needle = ".lock()";
    let mut start = 0;
    while let Some(p) = code[start..].find(needle) {
        let abs = start + p;
        start = abs + needle.len();
        out.push(Acq {
            col: abs,
            lock: receiver_before(&code[..abs]).to_string(),
            bound: binding_of(code, abs, abs + needle.len() - 1),
            raw: true,
        });
    }
    out.sort_by_key(|a| a.col);
    out
}

/// The span of a balanced `(...)` starting at `open` (which must index a
/// `(`); returns the index of the closing `)` and the interior text.
fn balanced_paren_span(code: &str, open: usize) -> Option<(usize, String)> {
    let bytes = code.as_bytes();
    if bytes.get(open) != Some(&b'(') {
        return None;
    }
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some((i, code[open + 1..i].to_string()));
                }
            }
            _ => {}
        }
    }
    None
}

/// The receiver expression that `code` ends with: `self.shards[i]` for
/// `let g = self.shards[i]`, `registry().counters` for `*registry().counters`.
fn receiver_before(code: &str) -> &str {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut i = bytes.len();
    while i > 0 {
        match bytes[i - 1] {
            b')' | b']' => depth += 1,
            b'(' | b'[' if depth > 0 => depth -= 1,
            _ if depth > 0 => {}
            b if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':') => {}
            _ => break,
        }
        i -= 1;
    }
    &code[i..]
}

/// When the acquisition ending at byte `close` is the whole initializer
/// of a simple `let` binding (`let [mut] name = <acq>;`), returns the
/// bound guard name. Chained temporaries (`lock(&m).field`,
/// `m.lock()?.len()`) return `None`: the guard dies at the end of the
/// statement and must not open a held section.
fn binding_of(code: &str, acq_start: usize, close: usize) -> Option<String> {
    // Everything after the acquisition up to `;` must be empty.
    let after = code[close + 1..].trim_start();
    if !after.starts_with(';') {
        return None;
    }
    // Everything before must be `… let [mut] name = `, modulo the
    // call's own qualified-path prefix (`fpsping_obs::lock(…)`).
    let before = code[..acq_start]
        .trim_end_matches(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        .trim_end();
    let before = before.strip_suffix('=')?.trim_end();
    let let_pos = find_kw(before, "let ")?;
    let mut pat = before[let_pos + 4..].trim();
    pat = pat.strip_prefix("mut ").unwrap_or(pat).trim();
    // Only simple identifier patterns open sections; `let (a, b) = …`
    // and friends stay temporaries for this analysis.
    if let Some(colon) = pat.find(':') {
        pat = pat[..colon].trim_end();
    }
    is_ident(pat).then(|| pat.to_string())
}

/// `(column, needle, rule)` for every call on the line that must not run
/// under a held guard: L10 for the registry route, L11 for solver calls
/// and blocking I/O.
fn find_held_call_needles(code: &str) -> Vec<(usize, &'static str, Rule)> {
    let mut out = Vec::new();
    let tagged = REGISTRY_NEEDLES.iter().map(|n| (n, Rule::L10)).chain(
        SOLVER_NEEDLES
            .iter()
            .chain(IO_NEEDLES)
            .map(|n| (n, Rule::L11)),
    );
    for (&needle, rule) in tagged {
        let mut start = 0;
        while let Some(p) = code[start..].find(needle) {
            let abs = start + p;
            start = abs + needle.len();
            // `span(` must not match `x.span(` or `lock_span(`.
            let prev = code[..abs].chars().next_back();
            if needle.starts_with('.')
                || !prev.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                out.push((abs, needle, rule));
            }
        }
    }
    out.sort_by_key(|&(c, ..)| c);
    out
}

/// `(column, guard-name)` for every `drop(name)` on the line.
fn find_drops(code: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(p) = code[start..].find("drop(") {
        let abs = start + p;
        start = abs + 5;
        let prev = code[..abs].chars().next_back();
        if prev.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') && prev != Some(':') {
            continue;
        }
        if let Some((_, inner)) = balanced_paren_span(code, abs + 4) {
            let name = inner.trim();
            if is_ident(name) {
                out.push((abs, name.to_string()));
            }
        }
    }
    out
}

/// Finds `kw` at a word boundary (preceded by start/non-ident).
fn find_kw(s: &str, kw: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(p) = s[start..].find(kw) {
        let abs = start + p;
        let ok = abs == 0
            || !s[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if ok {
            return Some(abs);
        }
        start = abs + kw.len();
    }
    None
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::lexer::{lex, test_regions};

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let lines = lex(src);
        let in_test = test_regions(&lines);
        let mut out = Vec::new();
        check_locks(path, &lines, &in_test, &classify(path), &mut out);
        out
    }

    #[test]
    fn l10_flags_a_second_bound_guard() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self) {\n\
                   let ga = lock(&self.a);\n\
                   let gb = lock(&self.b);\n\
                   drop(gb); drop(ga);\n\
                   }\n\
                   }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::L10);
        assert!(f[0].message.contains("`self.a`"), "{}", f[0].message);
    }

    #[test]
    fn l10_flags_temporary_acquired_under_a_bound_guard() {
        // The shape of a counter's lazy registration under a held stats
        // guard: a statement-scoped acquisition inside a bound section.
        let src = "struct S { a: Mutex<u32>, b: Mutex<Vec<u32>> }\n\
                   fn f(s: &S) {\n\
                   let g = lock(&s.a);\n\
                   lock(&s.b).push(1);\n\
                   }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), (Rule::L10, 4));
        assert!(f[0].message.contains("`s.b`"), "{}", f[0].message);
        assert!(f[0].message.contains("`s.a`"), "{}", f[0].message);
    }

    #[test]
    fn l10_flags_reentrant_same_class() {
        let src = "struct S { a: Mutex<u32> }\n\
                   fn f(s: &S) {\n\
                   let g1 = lock(&s.a);\n\
                   let g2 = lock(&s.a);\n\
                   }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("self-deadlock"), "{}", f[0].message);
    }

    #[test]
    fn l10_flags_registry_calls_under_a_bound_guard() {
        // The registry route: each call takes an `fpsping_obs` registry
        // lock, so under a bound guard it is a second guard.
        let f = run(
            "crates/serve/src/x.rs",
            "fn f(s: &S) {\nlet g = lock(&s.a); HITS.incr();\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), (Rule::L10, 2));
        assert!(f[0].message.contains("registry lock"), "{}", f[0].message);
        for call in [
            "HITS.add(2);",
            "DEPTH.set(1);",
            "DEPTH.set_max(1);",
            "LATENCY.record(3);",
            "let _t = LATENCY.start_timer();",
            "let _s = span(\"x\");",
            "let _s = fpsping_obs::span(\"x\");",
            "warn_once(\"k\", \"m\");",
            "let snap = crate::snapshot();",
        ] {
            let src = format!("fn f(s: &S) {{\nlet g = lock(&s.a);\n{call}\n}}\n");
            let f = run("crates/obs/src/x.rs", &src);
            assert_eq!(f.len(), 1, "{call}: {f:?}");
            assert_eq!((f[0].rule, f[0].line), (Rule::L10, 3), "{call}");
        }
    }

    #[test]
    fn registry_calls_after_a_temporary_guard_or_lookalikes_are_clean() {
        let src = "fn f(s: &S, m: &Mutex<Vec<u32>>, x: u32) {\n\
                   lock(&m).push(x); HITS.incr();\n\
                   let g = lock(&s.a);\n\
                   let w = tok.span(); balanced_paren_span(w); lock_snapshot(w);\n\
                   drop(g);\n\
                   let _s = span(\"after\");\n\
                   }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn qualified_helper_calls_still_bind_guards() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   fn f(s: &S) {\n\
                   let ga = fpsping_obs::lock(&s.a);\n\
                   let gb = crate::lock(&s.b);\n\
                   }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::L10);
    }

    #[test]
    fn temporaries_do_not_open_sections() {
        // The satellite fixture case: a statement-scoped guard must not
        // count as held on the next line.
        let src = "struct S { a: Mutex<Vec<u32>>, b: Mutex<u32> }\n\
                   fn f(s: &S) -> usize {\n\
                   let n = lock(&s.a).len();\n\
                   let gb = lock(&s.b);\n\
                   n\n\
                   }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn drop_closes_a_section_early() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   fn f(s: &S) {\n\
                   let ga = lock(&s.a);\n\
                   drop(ga);\n\
                   let gb = lock(&s.b);\n\
                   }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn block_end_closes_sections() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   fn f(s: &S) {\n\
                   { let ga = lock(&s.a); }\n\
                   let gb = lock(&s.b);\n\
                   }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn l11_flags_blocking_io_and_solver_calls_under_guard() {
        let src = "struct S { a: Mutex<u32> }\n\
                   fn f(s: &S, st: &mut TcpStream, buf: &mut [u8]) {\n\
                   let ga = lock(&s.a);\n\
                   st.read(buf);\n\
                   let x = fpsping_num::roots::brent(0.0);\n\
                   }\n";
        let f = run("crates/serve/src/x.rs", src);
        let l11: Vec<&Finding> = f.iter().filter(|f| f.rule == Rule::L11).collect();
        assert_eq!(l11.len(), 2, "{f:?}");
    }

    #[test]
    fn l11_ignores_io_with_no_guard_and_rwlock_read() {
        let src = "struct S { r: RwLock<u32> }\n\
                   fn f(s: &S, st: &mut TcpStream, buf: &mut [u8]) {\n\
                   st.read(buf);\n\
                   let g = s.r.read();\n\
                   }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert!(f.iter().all(|f| f.rule != Rule::L11), "{f:?}");
    }

    #[test]
    fn l12_flags_raw_lock_outside_obs_only() {
        let src = "struct S { a: Mutex<u32> }\n\
                   fn f(s: &S) { let v = *s.a.lock().unwrap(); }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::L12), "{f:?}");
        let f = run("crates/obs/src/x.rs", src);
        assert!(f.iter().all(|f| f.rule != Rule::L12), "{f:?}");
    }

    #[test]
    fn l12_flags_rwlock_outside_obs_only() {
        let src = "struct S { r: RwLock<u8> }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), (Rule::L12, 1));
        assert!(run("crates/obs/src/x.rs", src).is_empty());
    }

    #[test]
    fn l12_flags_adhoc_poison_recovery() {
        let src = "struct S { a: Mutex<u32> }\n\
                   fn f(s: &S) { let g = s.a.lock().unwrap_or_else(PoisonError::into_inner); }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert!(
            f.iter().filter(|f| f.rule == Rule::L12).count() >= 2,
            "{f:?}"
        );
    }
}
