//! Cross-file lock-discipline analysis: the lock index and the
//! guard-section tracker behind rules L10 / L11 / L12.
//!
//! The workspace keeps one lock rule: no lock guard is acquired while
//! another is held (the runtime witness `fpsping_obs::lockdep` enforces
//! the same rule in debug builds). Unlike L01–L09 (each a pure function
//! of one file), these rules need a **workspace-wide pass**: the lock
//! acquired at one site is frequently a field declared in another file
//! (`lock(&registry().counters)` in `metrics.rs` locks a field of
//! `Registry`, declared in `lib.rs`). The analysis therefore runs in two
//! stages:
//!
//! 1. [`LockIndex::index_file`] scans every source file for locks — one
//!    per `Mutex`/`RwLock` struct field (`crate::Type::field`), per
//!    mutex-typed `static` (`crate::NAME`), and per accessor returning
//!    `&Mutex<…>` — so findings can name the lock and `.read()`/`.write()`
//!    on an `RwLock` count as acquisitions.
//! 2. [`check_locks`] re-walks each file with a lightweight block
//!    tracker on top of the comment/string-aware lexer: a `let`-bound
//!    guard opens a **section** that stays open until its enclosing
//!    block closes (or an explicit `drop(guard)`); a guard that is a
//!    temporary (`lock(&m).field`, `m.lock()?.len()`) never opens a
//!    section — it is dropped at the end of its statement, which is
//!    exactly the blind spot a naive span tracker gets wrong.
//!
//! Inside an open section:
//!
//! * any other acquisition, bound or temporary, is a second guard under
//!   the first (**L10**);
//! * a call into the `fpsping_num`/`fpsping_queue` solver entry points
//!   or blocking I/O (`read`/`write`/`accept`/`flush`) is the
//!   lock-convoy smell that corrupts serve's tail latency (**L11**).
//!
//! **L12** is positional: a raw `.lock()` (or ad-hoc
//! `PoisonError::into_inner` recovery) anywhere outside `crates/obs` —
//! every mutex acquisition must route through the audited
//! `fpsping_obs::lock` helper so poison recovery and the lockdep witness
//! cover it.

use crate::classify::FileClass;
use crate::lexer::LexedLine;
use crate::{Finding, Rule};
use std::collections::BTreeMap;

/// What kind of lock a class definition guards (affects which method
/// names count as acquisitions on resolved receivers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex`.
    Mutex,
    /// `std::sync::RwLock`.
    RwLock,
}

/// One lock definition site.
#[derive(Debug, Clone)]
pub struct ClassDef {
    /// Canonical lock name, `crate::Type::field` / `crate::STATIC`.
    pub class: String,
    /// Crate directory the definition lives in (`"serve"`, `"obs"`, …).
    pub crate_dir: String,
    /// Workspace-relative file of the definition.
    pub file: String,
    /// Mutex or RwLock.
    pub kind: LockKind,
}

/// The workspace-wide lock index (stage 1 of the cross-file pass).
#[derive(Debug, Default)]
pub struct LockIndex {
    /// Field / static / accessor name → candidate definitions.
    by_name: BTreeMap<String, Vec<ClassDef>>,
}

impl LockIndex {
    /// Indexes one file's lock definitions from its lexed lines.
    pub fn index_file(&mut self, rel_path: &str, lines: &[LexedLine]) {
        let crate_dir = crate_dir_of(rel_path);
        let mut depth: i64 = 0;
        // Innermost named item context: (type name, depth at its `{`).
        let mut ctx: Vec<(String, i64)> = Vec::new();
        for line in lines {
            let code = line.code.as_str();
            let trimmed = code.trim();

            // `static NAME: … Mutex<…>`.
            if let Some(name) = static_decl_name(trimmed) {
                if let Some(kind) = lock_type_in(trimmed) {
                    self.push_def(
                        name.to_string(),
                        ClassDef {
                            class: format!("{crate_dir}::{name}"),
                            crate_dir: crate_dir.clone(),
                            file: rel_path.to_string(),
                            kind,
                        },
                    );
                }
            }

            // Single-line struct declarations carry their fields on the
            // `{` line itself: `struct S { a: Mutex<u32>, b: Mutex<u32> }`.
            if let Some(pos) = find_kw(trimmed, "struct ").or_else(|| find_kw(trimmed, "union ")) {
                let after_kw = &trimmed[pos..];
                let name = leading_ident(after_kw.split_once(' ').map_or("", |(_, r)| r.trim()));
                if !name.is_empty() {
                    if let Some(body) = inline_brace_body(after_kw) {
                        for piece in split_top_level(&body) {
                            if let Some((field, kind)) = field_decl(piece.trim()) {
                                self.push_def(
                                    field.to_string(),
                                    ClassDef {
                                        class: format!("{crate_dir}::{name}::{field}"),
                                        crate_dir: crate_dir.clone(),
                                        file: rel_path.to_string(),
                                        kind,
                                    },
                                );
                            }
                        }
                    }
                }
            }

            // Struct fields: `name: … Mutex<…>` inside a named item, not a
            // `fn` signature, not a `&Mutex` reference parameter.
            if let Some((_, ctx_depth)) = ctx.last() {
                if depth == ctx_depth + 1
                    && !trimmed.starts_with("let ")
                    && !trimmed.contains("fn ")
                {
                    if let Some((field, kind)) = field_decl(trimmed) {
                        let owner = ctx.last().map(|(n, _)| n.clone()).unwrap_or_default();
                        self.push_def(
                            field.to_string(),
                            ClassDef {
                                class: format!("{crate_dir}::{owner}::{field}"),
                                crate_dir: crate_dir.clone(),
                                file: rel_path.to_string(),
                                kind,
                            },
                        );
                    }
                }
            }

            // Accessor methods returning a lock: `fn name(…) -> &Mutex<…>`.
            if let Some((name, kind)) = accessor_decl(trimmed) {
                let owner = ctx
                    .last()
                    .map(|(n, _)| format!("::{n}"))
                    .unwrap_or_default();
                self.push_def(
                    name.to_string(),
                    ClassDef {
                        class: format!("{crate_dir}{owner}::{name}"),
                        crate_dir: crate_dir.clone(),
                        file: rel_path.to_string(),
                        kind,
                    },
                );
            }

            // Track item context and brace depth.
            let item = item_decl_name(trimmed);
            for c in code.chars() {
                match c {
                    '{' => {
                        if let Some(name) = item.as_deref() {
                            if ctx.last().map(|(n, _)| n.as_str()) != Some(name)
                                || ctx.last().map(|(_, d)| *d) != Some(depth)
                            {
                                ctx.push((name.to_string(), depth));
                            }
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth -= 1;
                        while ctx.last().is_some_and(|(_, d)| *d >= depth) {
                            ctx.pop();
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    fn push_def(&mut self, name: String, def: ClassDef) {
        let defs = self.by_name.entry(name).or_default();
        if !defs.iter().any(|d| d.class == def.class) {
            defs.push(def);
        }
    }

    /// Resolves an acquisition's key token to a lock name. Preference:
    /// definition in the same file, then the same crate, then a globally
    /// unique name; ambiguous or unknown names resolve to `?token`.
    fn resolve(&self, token: &str, rel_path: &str) -> String {
        let Some(defs) = self.by_name.get(token) else {
            return format!("?{token}");
        };
        let same_file: Vec<&ClassDef> = defs.iter().filter(|d| d.file == rel_path).collect();
        if let [d] = same_file.as_slice() {
            return d.class.clone();
        }
        let crate_dir = crate_dir_of(rel_path);
        let same_crate: Vec<&ClassDef> = defs.iter().filter(|d| d.crate_dir == crate_dir).collect();
        if let [d] = same_crate.as_slice() {
            return d.class.clone();
        }
        if let [d] = defs.as_slice() {
            return d.class.clone();
        }
        format!("?{token}")
    }

    fn kind_of(&self, class: &str) -> Option<LockKind> {
        self.by_name
            .values()
            .flatten()
            .find(|d| d.class == class)
            .map(|d| d.kind)
    }
}

/// The crate directory of a workspace-relative path (`crates/serve/src/…`
/// → `serve`); empty for paths outside `crates/`.
fn crate_dir_of(rel_path: &str) -> String {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.len() >= 2 && parts[0] == "crates" {
        parts[1].to_string()
    } else {
        String::new()
    }
}

/// `static NAME: …` / `pub static NAME: …` → `NAME`.
fn static_decl_name(trimmed: &str) -> Option<&str> {
    let rest = trimmed
        .strip_prefix("pub static ")
        .or_else(|| trimmed.strip_prefix("pub(crate) static "))
        .or_else(|| trimmed.strip_prefix("static "))?;
    let end = rest.find([':', ' '])?;
    let name = &rest[..end];
    is_ident(name).then_some(name)
}

/// `struct Name` / `enum Name` / `impl … Name` on an item-opening line.
fn item_decl_name(trimmed: &str) -> Option<String> {
    for kw in ["struct ", "enum ", "union "] {
        if let Some(pos) = find_kw(trimmed, kw) {
            let rest = &trimmed[pos + kw.len()..];
            return Some(leading_ident(rest).to_string());
        }
    }
    if let Some(pos) = find_kw(trimmed, "impl") {
        let mut rest = trimmed[pos + 4..].trim_start();
        // Skip the generic parameter list: `impl<K: Eq, V> Type<K, V>`.
        if rest.starts_with('<') {
            let mut depth = 0usize;
            let mut cut = rest.len();
            for (i, c) in rest.char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            cut = i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            rest = rest[cut..].trim_start();
        }
        // `impl Trait for Type` → take the type after `for`.
        if let Some(for_pos) = find_kw(rest, "for ") {
            rest = rest[for_pos + 4..].trim_start();
        }
        let name = leading_ident(rest);
        if !name.is_empty() {
            return Some(name.to_string());
        }
    }
    None
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

fn leading_ident(s: &str) -> &str {
    let end = s
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    &s[..end]
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// `Mutex<` / `RwLock<` in type position on this line.
fn lock_type_in(s: &str) -> Option<LockKind> {
    if s.contains("Mutex<") {
        Some(LockKind::Mutex)
    } else if s.contains("RwLock<") {
        Some(LockKind::RwLock)
    } else {
        None
    }
}

/// A struct-field declaration `name: …Mutex<…>` with an owned (not `&`)
/// lock type; returns the field name and kind.
fn field_decl(trimmed: &str) -> Option<(&str, LockKind)> {
    let s = trimmed.strip_prefix("pub ").unwrap_or(trimmed);
    let s = s.strip_prefix("pub(crate) ").unwrap_or(s);
    let colon = s.find(':')?;
    let name = s[..colon].trim();
    if !is_ident(name) {
        return None;
    }
    let ty = &s[colon + 1..];
    let kind = lock_type_in(ty)?;
    // A `&Mutex` before the lock type is a reference (parameter/return),
    // not an owning field.
    let lock_pos = ty.find("Mutex<").or_else(|| ty.find("RwLock<"))?;
    if ty[..lock_pos].contains('&') {
        return None;
    }
    Some((name, kind))
}

/// `fn name(…) -> &Mutex<…>` — an accessor that hands out a lock.
fn accessor_decl(trimmed: &str) -> Option<(&str, LockKind)> {
    let fn_pos = find_kw(trimmed, "fn ")?;
    let arrow = trimmed.rfind("->")?;
    let ret = &trimmed[arrow + 2..];
    let kind = lock_type_in(ret)?;
    let lock_pos = ret.find("Mutex<").or_else(|| ret.find("RwLock<"))?;
    if !ret[..lock_pos].contains('&') {
        return None;
    }
    let name = leading_ident(&trimmed[fn_pos + 3..]);
    (!name.is_empty()).then_some((name, kind))
}

/// The text between the first `{` and its matching `}` when both sit on
/// this line (a one-line struct body); `None` for multi-line items.
fn inline_brace_body(s: &str) -> Option<String> {
    let open = s.find('{')?;
    let mut depth = 0usize;
    for (i, c) in s.char_indices().skip(open) {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(s[open + 1..i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits on commas not nested inside `<>`/`()`/`[]`/`{}`.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '<' | '(' | '[' | '{' => depth += 1,
            '>' | ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

// ------------------------------------------------- per-file lock checks --

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

/// …and blocking I/O. `.read(`/`.write(` must be followed by an actual
/// argument so zero-arg `RwLock::read()`/`write()` guard acquisitions
/// are not mistaken for I/O.
const IO_NEEDLES: &[&str] = &[
    ".read(",
    ".write(",
    ".accept(",
    ".write_all(",
    ".read_exact(",
    ".read_to_end(",
    ".flush(",
];

/// One acquisition site on a line.
struct Acq {
    /// Byte column of the acquisition on the line's code text.
    col: usize,
    /// Resolved lock name (`?token` when unresolved).
    class: String,
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
    class: String,
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
    index: &LockIndex,
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

        let acqs = find_acquisitions(code, rel_path, index);
        // L12 is positional and independent of nesting.
        if class.crate_dir != "obs" {
            for a in acqs.iter().filter(|a| a.raw) {
                out.push(Finding {
                    file: rel_path.into(),
                    line: lineno,
                    rule: Rule::L12,
                    message: format!(
                        "raw `.lock()` on `{}` — route through the audited \
                         `fpsping_obs::lock` helper so poison recovery and the lockdep \
                         witness cover it (or waive with `// lint:allow(raw_lock): <reason>`)",
                        a.class.trim_start_matches('?')
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
                        class: a.class.clone(),
                        name: name.clone(),
                        depth,
                        open_line: lineno,
                    });
                }
            }
            while let Some(&(_, needle)) = needle_it.next_if(|&&(p, _)| p == col) {
                if let Some(s) = sections.last() {
                    out.push(Finding {
                        file: rel_path.into(),
                        line: lineno,
                        rule: Rule::L11,
                        message: format!(
                            "`{needle}` while holding `{}` (guard `{}` since line {}) — a \
                             solver call or blocking I/O under a lock is the convoy that \
                             corrupts p99; drop the guard first (or waive with \
                             `// lint:allow(lock_held): <reason>`)",
                            s.class, s.name, s.open_line
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
    let a = outer.class.as_str();
    let b = inner.class.as_str();
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
fn find_acquisitions(code: &str, rel_path: &str, index: &LockIndex) -> Vec<Acq> {
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
            class: index.resolve(receiver_token(&args_text), rel_path),
            bound: binding_of(code, abs, args_end),
            raw: false,
        });
    }
    // Raw method form: `expr.lock()`, plus `.read()`/`.write()` on
    // receivers that resolve to an RwLock class.
    for (needle, rw_only) in [(".lock()", false), (".read()", true), (".write()", true)] {
        let mut start = 0;
        while let Some(p) = code[start..].find(needle) {
            let abs = start + p;
            start = abs + needle.len();
            let token = receiver_token(&code[..abs]);
            let class = index.resolve(token, rel_path);
            if rw_only && index.kind_of(&class) != Some(LockKind::RwLock) {
                continue;
            }
            out.push(Acq {
                col: abs,
                class,
                bound: binding_of(code, abs, abs + needle.len() - 1),
                raw: !rw_only,
            });
        }
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

/// The key token of a receiver expression: the trailing field/static
/// name, or the method name when the expression ends in a call
/// (`self.shard_of(&key)` → `shard_of`, `&registry().counters` →
/// `counters`, `&self.q` → `q`, `FOO` → `FOO`).
fn receiver_token(expr: &str) -> &str {
    let mut s = expr.trim().trim_start_matches('&').trim();
    // Strip a trailing call's argument list.
    if s.ends_with(')') {
        let bytes = s.as_bytes();
        let mut depth = 0usize;
        let mut open = None;
        for i in (0..bytes.len()).rev() {
            match bytes[i] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        open = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some(open) = open {
            s = &s[..open];
        }
    }
    let tail = s
        .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .next()
        .unwrap_or(s);
    tail
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

/// `(column, needle)` for every held-call needle on the line.
fn find_held_call_needles(code: &str) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for &needle in SOLVER_NEEDLES.iter().chain(IO_NEEDLES) {
        let arg_required = needle == ".read(" || needle == ".write(";
        let mut start = 0;
        while let Some(p) = code[start..].find(needle) {
            let abs = start + p;
            start = abs + needle.len();
            if arg_required {
                // `.read()` with no argument is a lock-guard acquisition,
                // not I/O; require a real argument.
                let next = code[abs + needle.len()..].trim_start().chars().next();
                if next == Some(')') || next.is_none() {
                    continue;
                }
            }
            // Longer needles subsume `.read(`/`.write(` (`.read_exact(`
            // contains neither, but `.write_all(` contains `.write(`?
            // No — `.write_all(` does not match `.write(` since `_` ≠
            // `(`). Needles are prefix-free by construction.
            out.push((abs, needle));
        }
    }
    out.sort_by_key(|&(c, _)| c);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::lexer::{lex, test_regions};

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let mut index = LockIndex::default();
        let lines = lex(src);
        index.index_file(path, &lines);
        let in_test = test_regions(&lines);
        let mut out = Vec::new();
        check_locks(path, &lines, &in_test, &classify(path), &index, &mut out);
        out
    }

    /// Every lock name the index holds.
    fn indexed(index: &LockIndex) -> Vec<&str> {
        let mut names: Vec<&str> = index
            .by_name
            .values()
            .flatten()
            .map(|d| d.class.as_str())
            .collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn index_finds_fields_and_statics() {
        let src = "static GLOBAL: Mutex<u8> = Mutex::new(0);\n\
                   struct Conn { q: Mutex<u8>, r: RwLock<u8> }\n";
        let mut index = LockIndex::default();
        let lines = lex(src);
        index.index_file("crates/serve/src/x.rs", &lines);
        assert_eq!(
            indexed(&index),
            ["serve::Conn::q", "serve::Conn::r", "serve::GLOBAL"]
        );
        assert_eq!(
            index.resolve("q", "crates/serve/src/x.rs"),
            "serve::Conn::q"
        );
        assert_eq!(index.kind_of("serve::Conn::r"), Some(LockKind::RwLock));
    }

    #[test]
    fn index_skips_reference_params_and_initializers() {
        let src = "struct S { q: Mutex<u8> }\n\
                   impl S {\n\
                   fn new() -> Self { Self { q: Mutex::new(0) } }\n\
                   fn lockish(m: &Mutex<u8>) {}\n\
                   }\n";
        let mut index = LockIndex::default();
        let lines = lex(src);
        index.index_file("crates/serve/src/x.rs", &lines);
        assert_eq!(indexed(&index), ["serve::S::q"]);
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
        assert!(f[0].message.contains("serve::S::a"), "{}", f[0].message);
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
        assert!(f[0].message.contains("serve::S::b"), "{}", f[0].message);
        assert!(f[0].message.contains("serve::S::a"), "{}", f[0].message);
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
