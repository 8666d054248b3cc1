//! Workspace source lints behind `cargo xtask analyze`.
//!
//! Ten lints, all operating on a comment-and-string-stripped view of
//! the source ([`strip_source`]) refined by a lexical scope model
//! ([`SourceModel`]) that knows which lines sit in `#[cfg(test)]` code
//! and which named function encloses a given line:
//!
//! 1. **`safety-comment`** — every `unsafe` occurrence (block, `fn`,
//!    `impl`) must have a `SAFETY:` comment within the six lines above it
//!    (or on the same line).
//! 2. **`unsafe-allowlist`** — `unsafe` may appear only in the audited
//!    modules of [`UNSAFE_ALLOWLIST`]; everything else must stay safe.
//! 3. **`forbid-unsafe`** — every crate root off that allowlist must
//!    carry `#![forbid(unsafe_code)]`, so a future `unsafe` block cannot
//!    slip in without showing up in this file's allowlist diff.
//! 4. **`hot-path-panic`** — no `.unwrap()` / `.expect(` inside the
//!    lookup hot path ([`HOT_PATHS`]): a malformed table must fail a
//!    lookup, not take down the forwarding thread.
//! 5. **`update-path-panic`** — no `.unwrap()` / `.expect(` anywhere in
//!    the control-plane files of [`NO_PANIC_PATHS`] outside test
//!    modules: a failed update or a corrupt image must surface as a
//!    typed error, never a panic. A deliberate exception needs a
//!    `// PANIC-OK:` justification comment within the same window a
//!    `SAFETY:` comment gets.
//! 6. **`atomic-ordering`** — every `Ordering::Relaxed` outside test
//!    code needs an `// ORDERING:` comment saying why relaxed suffices
//!    (which happens-before edge, if any, covers the access). The
//!    loom-lite model checker maps orderings to synchronization edges,
//!    so an unjustified `Relaxed` is exactly the token most likely to
//!    hide a racy publish. Vendored crates are exempt (their orderings
//!    are the shims' own plumbing, audited by the model-checker tests).
//! 7. **`hot-path-alloc`** — no `Vec::new` / `Box::new` / `format!` /
//!    `.collect(` inside the [`HOT_PATHS`] lookup scopes: the forwarding
//!    path works in caller-provided or shard-owned buffers, and an
//!    allocation there is a latency cliff. `// ALLOC-OK:` escapes
//!    one-time or cold-side allocations (constructors, error paths).
//! 8. **`lock-discipline`** — no `Mutex` / `RwLock` in the lock-free
//!    scopes of [`LOCK_FREE_PATHS`] (shard hot loops, the reader side of
//!    the snapshot protocol): blocking a forwarding thread on a lock
//!    voids the run-to-completion design. `// LOCK-OK:` escapes
//!    deliberate cold-side uses (e.g. the write-side update mutex).
//! 9. **`assert-discipline`** — hot-path scopes assert with
//!    `debug_assert!` only; a release-mode `assert!` is a panic branch
//!    *and* a check the paper's per-lookup budget does not pay for.
//!    `// ASSERT-OK:` escapes asserts that guard `unsafe` preconditions
//!    (those must hold in release builds too).
//! 10. **`stale-scope`** — every [`HOT_PATHS`] and [`LOCK_FREE_PATHS`]
//!     entry names a file that exists, and its `Some(fns)` list names
//!     only functions that file defines outside `#[cfg(test)]`: a
//!     renamed or deleted function would otherwise drop out of lints 4,
//!     7, 8 and 9 without a word.
//!
//! The analyzer is deliberately lexical (no rustc plumbing): it runs in
//! milliseconds, works offline, and the stripping state machine handles
//! the corner cases that would otherwise cause false positives (nested
//! block comments, raw strings, char literals vs. lifetimes). The scope
//! model layered on top keeps the lints out of test modules and inside
//! exactly the named hot functions without a full parse.
//!
//! Each lint has a stable exit code ([`Lint::exit_code`]) so CI and
//! scripts can tell *what kind* of violation failed the gate; mixed
//! violations report the smallest code. `cargo xtask analyze --json`
//! emits the machine-readable report ([`json_report`]).

#![forbid(unsafe_code)]

mod scopes;

pub use scopes::{Scope, ScopeKind, SourceModel};

use std::fmt;
use std::path::{Path, PathBuf};

/// Audited modules where `unsafe` is permitted (lint 2) and crate roots
/// exempt from `#![forbid(unsafe_code)]` (lint 3).
///
/// - `snapshot.rs`: epoch-based reclamation (model-checked by the
///   loom-lite tests in `crates/chisel-core/tests/loom_snapshot.rs`).
/// - `packed.rs`: bit-packed arena flat views for hashing.
/// - `chisel-bloomier/src/lib.rs`: the `_mm_prefetch` / `prfm` prefetch
///   intrinsics used by the pipelined batch lookup.
/// - `chisel-bloomier/src/simd.rs`: the AVX2 gather kernel behind the
///   `simd` feature (runtime-detected; bit-identical scalar fallback).
/// - `chisel-dataplane/src/signal.rs`: the `signal(2)` FFI registration
///   behind the graceful SIGINT/SIGTERM drain (atomic-store handler).
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/chisel-core/src/snapshot.rs",
    "crates/chisel-bloomier/src/packed.rs",
    "crates/chisel-bloomier/src/lib.rs",
    "crates/chisel-bloomier/src/simd.rs",
    "crates/chisel-dataplane/src/signal.rs",
];

/// Crates owning an allowlisted module; their roots cannot carry
/// `#![forbid(unsafe_code)]`.
const UNSAFE_CRATE_ROOTS: &[&str] = &[
    "crates/chisel-core/src/lib.rs",
    "crates/chisel-bloomier/src/lib.rs",
    "crates/chisel-dataplane/src/lib.rs",
];

/// Lookup hot-path scopes (lints 4, 7, 9): `None` covers the whole
/// file, `Some(fns)` only the named functions. Test modules are always
/// exempt.
pub const HOT_PATHS: &[(&str, Option<&[&str]>)] = &[
    ("crates/chisel-bloomier/src/packed.rs", None),
    ("crates/chisel-bloomier/src/simd.rs", None),
    ("crates/chisel-core/src/bitvector.rs", None),
    ("crates/chisel-core/src/flowcache.rs", None),
    ("crates/chisel-hash/src/digest.rs", None),
    (
        "crates/chisel-core/src/subcell.rs",
        Some(&[
            "lookup_at",
            "prepare",
            "probe",
            "probe_slot",
            "probe_slots",
            "prefetch_index",
            "prefetch_row",
            "slot_of",
            "spill_slot",
        ]),
    ),
    (
        "crates/chisel-core/src/engine.rs",
        Some(&[
            "lookup",
            "lookup_traced",
            "walk",
            "lookup_batch",
            "lookup_batch_traced",
            "lookup_lanes",
        ]),
    ),
    (
        "crates/chisel-bloomier/src/partition.rs",
        Some(&["lookup_digest", "lookup_digest_batch"]),
    ),
    (
        "crates/chisel-bloomier/src/filter.rs",
        Some(&["index_xor_lookup", "lookup_digest", "probe_bits_into"]),
    ),
    ("crates/chisel-core/src/result_table.rs", Some(&["read"])),
];

/// Control-plane files where `.unwrap()` / `.expect(` is banned outside
/// test modules (lint 5). These are the update pipeline, the image
/// loader and the daemon orchestration — the code that handles
/// untrusted or failing input and must degrade into the `ChiselError` /
/// `ImageError` taxonomies instead of panicking. A deliberate panic
/// needs a `// PANIC-OK:` justification within `SAFETY_WINDOW` lines
/// above it (or on the same line).
pub const NO_PANIC_PATHS: &[&str] = &[
    "crates/chisel-core/src/update.rs",
    "crates/chisel-core/src/batch.rs",
    "crates/chisel-core/src/image.rs",
    "crates/chisel-core/src/journal.rs",
    "crates/chisel-dataplane/src/daemon.rs",
];

/// Lock-free scopes (lint 8): code that runs on a forwarding thread or
/// on the reader side of the snapshot protocol, where a `Mutex` /
/// `RwLock` would block run-to-completion progress. Same shape as
/// [`HOT_PATHS`]: `None` covers the whole file, `Some(fns)` only the
/// named functions; test modules are always exempt.
pub const LOCK_FREE_PATHS: &[(&str, Option<&[&str]>)] = &[
    (
        "crates/chisel-dataplane/src/daemon.rs",
        Some(&["shard_main"]),
    ),
    ("crates/chisel-dataplane/src/dispatch.rs", None),
    ("crates/chisel-core/src/flowcache.rs", None),
    (
        "crates/chisel-core/src/concurrent.rs",
        Some(&[
            "lookup",
            "lookup_batch",
            "lookup_batch_pinned",
            "lookup_batch_traced",
        ]),
    ),
];

/// How many lines above a flagged token its justification comment
/// (`SAFETY:` / `PANIC-OK:` / `ORDERING:` / `ALLOC-OK:` / `LOCK-OK:` /
/// `ASSERT-OK:`) may sit.
const SAFETY_WINDOW: usize = 6;

/// Which lint produced a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// `unsafe` without a nearby `SAFETY:` comment.
    SafetyComment,
    /// `unsafe` outside [`UNSAFE_ALLOWLIST`].
    UnsafeAllowlist,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// `.unwrap()` / `.expect(` inside a lookup hot-path scope.
    HotPathPanic,
    /// Unjustified `.unwrap()` / `.expect(` in a control-plane file.
    UpdatePathPanic,
    /// `Ordering::Relaxed` without an `// ORDERING:` justification.
    AtomicOrdering,
    /// Allocation (`Vec::new` / `Box::new` / `format!` / `.collect(`)
    /// inside a lookup hot-path scope.
    HotPathAlloc,
    /// `Mutex` / `RwLock` inside a lock-free scope.
    LockDiscipline,
    /// Release-mode `assert!` family inside a lookup hot-path scope.
    AssertDiscipline,
    /// A lint-scope table entry naming a missing file or function.
    StaleScope,
}

impl Lint {
    /// The kebab-case name used in human and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Lint::SafetyComment => "safety-comment",
            Lint::UnsafeAllowlist => "unsafe-allowlist",
            Lint::ForbidUnsafe => "forbid-unsafe",
            Lint::HotPathPanic => "hot-path-panic",
            Lint::UpdatePathPanic => "update-path-panic",
            Lint::AtomicOrdering => "atomic-ordering",
            Lint::HotPathAlloc => "hot-path-alloc",
            Lint::LockDiscipline => "lock-discipline",
            Lint::AssertDiscipline => "assert-discipline",
            Lint::StaleScope => "stale-scope",
        }
    }

    /// Stable per-lint process exit code (`cargo xtask analyze`): 0 is
    /// clean, 2 an I/O error, and each lint owns one code so CI can
    /// branch on the failure class. Mixed violations exit with the
    /// smallest code present.
    pub fn exit_code(self) -> u8 {
        match self {
            Lint::SafetyComment => 10,
            Lint::UnsafeAllowlist => 11,
            Lint::ForbidUnsafe => 12,
            Lint::HotPathPanic => 13,
            Lint::UpdatePathPanic => 14,
            Lint::AtomicOrdering => 15,
            Lint::HotPathAlloc => 16,
            Lint::LockDiscipline => 17,
            Lint::AssertDiscipline => 18,
            Lint::StaleScope => 19,
        }
    }

    /// Every lint, in exit-code order.
    pub const ALL: &'static [Lint] = &[
        Lint::SafetyComment,
        Lint::UnsafeAllowlist,
        Lint::ForbidUnsafe,
        Lint::HotPathPanic,
        Lint::UpdatePathPanic,
        Lint::AtomicOrdering,
        Lint::HotPathAlloc,
        Lint::LockDiscipline,
        Lint::AssertDiscipline,
        Lint::StaleScope,
    ];
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation: file, 1-based line, lint, human-readable message.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub lint: Lint,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

/// Replaces every comment, string literal and char literal with spaces,
/// preserving length and line structure, so token scans and brace
/// tracking see only real code.
pub fn strip_source(src: &str) -> String {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }

    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut state = State::Code;
    let mut i = 0;
    // Whether the previous *code* byte could end an identifier (to tell
    // raw-string prefixes from identifiers ending in `r`/`b`).
    let mut prev_ident = false;
    while i < b.len() {
        let c = b[i];
        match state {
            State::Code => match c {
                b'/' if b.get(i + 1) == Some(&b'/') => {
                    state = State::LineComment;
                    out.extend_from_slice(b"  ");
                    i += 2;
                    prev_ident = false;
                    continue;
                }
                b'/' if b.get(i + 1) == Some(&b'*') => {
                    state = State::BlockComment(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                    prev_ident = false;
                    continue;
                }
                b'"' => {
                    state = State::Str;
                    out.push(b' ');
                    i += 1;
                    prev_ident = false;
                    continue;
                }
                b'r' | b'b' if !prev_ident => {
                    // Possible raw-string opener: r"", r#""#, br"", b"".
                    let mut j = i + 1;
                    if c == b'b' && b.get(j) == Some(&b'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&b'"') && (c == b'r' || j > i + 1 || hashes > 0) {
                        state = State::RawStr(hashes);
                        out.extend(std::iter::repeat_n(b' ', j - i + 1));
                        i = j + 1;
                        prev_ident = false;
                        continue;
                    }
                    if c == b'b' && b.get(i + 1) == Some(&b'"') {
                        state = State::Str;
                        out.extend_from_slice(b"  ");
                        i += 2;
                        prev_ident = false;
                        continue;
                    }
                    out.push(c);
                    i += 1;
                    prev_ident = true;
                    continue;
                }
                b'\'' => {
                    // Char literal vs. lifetime: a literal is '\...' or
                    // 'x' (any single char followed by a closing quote).
                    let is_escape = b.get(i + 1) == Some(&b'\\');
                    let closes = b.get(i + 2) == Some(&b'\'') && b.get(i + 1) != Some(&b'\'');
                    if is_escape || closes {
                        state = State::Char;
                        out.push(b' ');
                        i += 1;
                        prev_ident = false;
                        continue;
                    }
                    out.push(c);
                    i += 1;
                    prev_ident = false;
                    continue;
                }
                _ => {
                    out.push(c);
                    i += 1;
                    prev_ident = c == b'_' || c.is_ascii_alphanumeric();
                    continue;
                }
            },
            State::LineComment => {
                if c == b'\n' {
                    state = State::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::Str => {
                if c == b'\\' {
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'"' {
                    state = State::Code;
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && b.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        state = State::Code;
                        out.extend(std::iter::repeat_n(b' ', j - i));
                        i = j;
                        continue;
                    }
                }
                out.push(if c == b'\n' { b'\n' } else { b' ' });
                i += 1;
            }
            State::Char => {
                if c == b'\\' {
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'\'' {
                    state = State::Code;
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
        }
    }
    out.truncate(src.len());
    // The byte-wise replacement only ever writes ASCII over ASCII and
    // leaves multi-byte UTF-8 either intact or inside stripped regions
    // replaced byte-for-byte with spaces, so this cannot fail.
    String::from_utf8_lossy(&out).into_owned()
}

fn is_ident(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Byte offsets of every word-boundary occurrence of `word` in `code`.
fn word_occurrences(code: &str, word: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let mut found = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(b[at - 1]);
        let after = at + word.len();
        let after_ok = after >= b.len() || !is_ident(b[after]);
        if before_ok && after_ok {
            found.push(at);
        }
        start = at + word.len();
    }
    found
}

/// 1-based line number of a byte offset.
fn line_of(src: &str, offset: usize) -> usize {
    src.as_bytes()[..offset]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

/// Whether a `tag` justification comment sits within [`SAFETY_WINDOW`]
/// lines above `line` (1-based) or on the line itself. `lines` is the
/// *original* source, so the tag is read out of real comments.
fn justified(lines: &[&str], line: usize, tag: &str) -> bool {
    let from = line.saturating_sub(SAFETY_WINDOW + 1);
    lines[from..line.min(lines.len())]
        .iter()
        .any(|l| l.contains(tag))
}

/// Whether `line` falls inside the lint scope for a path-table entry:
/// the whole file (`None`) or the body of one of the named functions.
fn in_lint_scope(model: &SourceModel, scope: Option<&[&str]>, line: usize) -> bool {
    match scope {
        None => true,
        Some(names) => model.enclosing_fn(line).is_some_and(|f| names.contains(&f)),
    }
}

/// Runs the per-file lints on one file. `rel` is the workspace-relative
/// path with `/` separators (used for the path tables); the crate-root
/// lint (`forbid-unsafe`) lives in [`analyze_workspace`] because it
/// needs the *unstripped* source's attributes only.
pub fn analyze_file(rel: &str, src: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    let stripped = strip_source(src);
    let model = SourceModel::build(&stripped);
    let lines: Vec<&str> = src.lines().collect();
    let allowlisted = UNSAFE_ALLOWLIST.contains(&rel);

    // Lints 1 + 2: `unsafe` must be documented and allowlisted.
    for at in word_occurrences(&stripped, "unsafe") {
        let line = line_of(&stripped, at);
        if !allowlisted {
            violations.push(Violation {
                file: PathBuf::from(rel),
                line,
                lint: Lint::UnsafeAllowlist,
                message: format!(
                    "`unsafe` outside the audited-module allowlist ({})",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            });
        }
        if !justified(&lines, line, "SAFETY:") {
            violations.push(Violation {
                file: PathBuf::from(rel),
                line,
                lint: Lint::SafetyComment,
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW} lines"
                ),
            });
        }
    }

    let hot_scope = HOT_PATHS.iter().find(|(f, _)| *f == rel).map(|(_, s)| *s);

    // Lint 4: no panic branches on the lookup hot path.
    if let Some(scope) = hot_scope {
        for token in ["unwrap", "expect"] {
            for at in word_occurrences(&stripped, token) {
                // Only method calls: `.unwrap()` / `.expect(...)`.
                if at == 0 || stripped.as_bytes()[at - 1] != b'.' {
                    continue;
                }
                let line = line_of(&stripped, at);
                if model.in_cfg_test(line) || !in_lint_scope(&model, scope, line) {
                    continue;
                }
                violations.push(Violation {
                    file: PathBuf::from(rel),
                    line,
                    lint: Lint::HotPathPanic,
                    message: format!(
                        ".{token}() on the lookup hot path; propagate None/Err instead"
                    ),
                });
            }
        }
    }

    // Lint 5: control-plane files degrade into typed errors.
    if NO_PANIC_PATHS.contains(&rel) {
        for token in ["unwrap", "expect"] {
            for at in word_occurrences(&stripped, token) {
                // Only method calls: `.unwrap()` / `.expect(...)`.
                if at == 0 || stripped.as_bytes()[at - 1] != b'.' {
                    continue;
                }
                let line = line_of(&stripped, at);
                if model.in_cfg_test(line) || justified(&lines, line, "PANIC-OK:") {
                    continue;
                }
                violations.push(Violation {
                    file: PathBuf::from(rel),
                    line,
                    lint: Lint::UpdatePathPanic,
                    message: format!(
                        ".{token}() on the update/image control path; return a typed \
                         error or justify with a `// PANIC-OK:` comment"
                    ),
                });
            }
        }
    }

    // Lint 6: every relaxed atomic access carries its reasoning.
    // Vendored crates are exempt — their `Relaxed` sites are the model
    // checker's own shim plumbing, audited by its test suite.
    if !rel.starts_with("vendor/") {
        for at in word_occurrences(&stripped, "Relaxed") {
            // Only path uses (`Ordering::Relaxed`), not a bare ident.
            if at < 2 || &stripped[at - 2..at] != "::" {
                continue;
            }
            let line = line_of(&stripped, at);
            if model.in_cfg_test(line) || justified(&lines, line, "ORDERING:") {
                continue;
            }
            violations.push(Violation {
                file: PathBuf::from(rel),
                line,
                lint: Lint::AtomicOrdering,
                message: format!(
                    "Ordering::Relaxed without an `// ORDERING:` comment within \
                     {SAFETY_WINDOW} lines; say which happens-before edge (if any) \
                     covers this access, or upgrade the ordering"
                ),
            });
        }
    }

    // Lint 7: the lookup hot path does not allocate.
    if let Some(scope) = hot_scope {
        let b = stripped.as_bytes();
        let mut allocs: Vec<(usize, &str)> = Vec::new();
        for word in ["Vec", "Box"] {
            for at in word_occurrences(&stripped, word) {
                if stripped[at + word.len()..].starts_with("::new") {
                    allocs.push((
                        at,
                        if word == "Vec" {
                            "Vec::new"
                        } else {
                            "Box::new"
                        },
                    ));
                }
            }
        }
        for at in word_occurrences(&stripped, "format") {
            if b.get(at + "format".len()) == Some(&b'!') {
                allocs.push((at, "format!"));
            }
        }
        for at in word_occurrences(&stripped, "collect") {
            if at > 0 && b[at - 1] == b'.' {
                allocs.push((at, ".collect("));
            }
        }
        for (at, what) in allocs {
            let line = line_of(&stripped, at);
            if model.in_cfg_test(line)
                || !in_lint_scope(&model, scope, line)
                || justified(&lines, line, "ALLOC-OK:")
            {
                continue;
            }
            violations.push(Violation {
                file: PathBuf::from(rel),
                line,
                lint: Lint::HotPathAlloc,
                message: format!(
                    "{what} on the lookup hot path; reuse a caller-provided or \
                     shard-owned buffer, or justify with `// ALLOC-OK:`"
                ),
            });
        }
    }

    // Lint 8: lock-free scopes stay lock-free.
    if let Some(scope) = LOCK_FREE_PATHS
        .iter()
        .find(|(f, _)| *f == rel)
        .map(|(_, s)| *s)
    {
        for word in ["Mutex", "RwLock"] {
            for at in word_occurrences(&stripped, word) {
                let line = line_of(&stripped, at);
                if model.in_cfg_test(line)
                    || !in_lint_scope(&model, scope, line)
                    || justified(&lines, line, "LOCK-OK:")
                {
                    continue;
                }
                violations.push(Violation {
                    file: PathBuf::from(rel),
                    line,
                    lint: Lint::LockDiscipline,
                    message: format!(
                        "{word} in a lock-free scope; forwarding threads are \
                         run-to-completion — use the snapshot protocol or justify \
                         with `// LOCK-OK:`"
                    ),
                });
            }
        }
    }

    // Lint 9: release-mode asserts stay off the hot path.
    if let Some(scope) = hot_scope {
        let b = stripped.as_bytes();
        for token in ["assert", "assert_eq", "assert_ne"] {
            for at in word_occurrences(&stripped, token) {
                // Macro invocations only; word boundaries already
                // exclude the `debug_assert*` family (the `_` before
                // `assert` is an identifier byte).
                if b.get(at + token.len()) != Some(&b'!') {
                    continue;
                }
                let line = line_of(&stripped, at);
                if model.in_cfg_test(line)
                    || !in_lint_scope(&model, scope, line)
                    || justified(&lines, line, "ASSERT-OK:")
                {
                    continue;
                }
                violations.push(Violation {
                    file: PathBuf::from(rel),
                    line,
                    lint: Lint::AssertDiscipline,
                    message: format!(
                        "{token}! on the lookup hot path; use debug_assert{} or \
                         justify with `// ASSERT-OK:` (e.g. it guards an `unsafe` \
                         precondition)",
                        token.strip_prefix("assert").unwrap_or("")
                    ),
                });
            }
        }
    }

    violations
}

/// Whether `rel` is a crate root that lint 3 requires to carry
/// `#![forbid(unsafe_code)]`.
fn requires_forbid(rel: &str) -> bool {
    if UNSAFE_CRATE_ROOTS.contains(&rel) {
        return false;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    matches!(
        parts.as_slice(),
        ["src", "lib.rs"]
            | ["src", "bin", _]
            | ["xtask", "src", "lib.rs"]
            | ["xtask", "src", "main.rs"]
            | ["crates", _, "src", "lib.rs"]
            | ["crates", _, "src", "main.rs"]
            | ["crates", _, "src", "bin", _]
            | ["vendor", _, "src", "lib.rs"]
    )
}

/// Directories never scanned. `fixtures` holds deliberately-violating
/// inputs for the analyzer's own tests.
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | ".git" | "fixtures" | ".claude")
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect_rust_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint 10 over one lint-scope table, named `table` in the messages.
pub fn stale_scopes(
    root: &Path,
    table: &str,
    entries: &[(&str, Option<&[&str]>)],
) -> std::io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for &(rel, scope) in entries {
        let messages = match std::fs::read_to_string(root.join(rel)) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                vec![format!("{table} names a file that does not exist")]
            }
            Err(e) => return Err(e),
            Ok(src) => {
                let model = SourceModel::build(&strip_source(&src));
                let live = |name: &str| {
                    let kind = ScopeKind::Function(name.to_string());
                    model.scopes().iter().any(|s| !s.cfg_test && s.kind == kind)
                };
                scope
                    .unwrap_or_default()
                    .iter()
                    .filter(|name| !live(name))
                    .map(|name| format!("{table} names `fn {name}`, not defined outside tests"))
                    .collect()
            }
        };
        violations.extend(messages.into_iter().map(|message| Violation {
            file: PathBuf::from(rel),
            line: 1,
            lint: Lint::StaleScope,
            message,
        }));
    }
    Ok(violations)
}

/// Runs every lint over the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rust_files(root, &mut files)?;
    let mut violations = stale_scopes(root, "HOT_PATHS", HOT_PATHS)?;
    violations.extend(stale_scopes(root, "LOCK_FREE_PATHS", LOCK_FREE_PATHS)?);
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)?;
        violations.extend(analyze_file(&rel, &src));
        if requires_forbid(&rel) && !src.contains("#![forbid(unsafe_code)]") {
            violations.push(Violation {
                file: PathBuf::from(rel),
                line: 1,
                lint: Lint::ForbidUnsafe,
                message: "crate root missing #![forbid(unsafe_code)] \
                          (or add the crate to the audited allowlist)"
                    .to_string(),
            });
        }
    }
    Ok(violations)
}

/// The process exit code for a violation set: 0 when clean, otherwise
/// the smallest per-lint code present (see [`Lint::exit_code`]).
pub fn exit_code_for(violations: &[Violation]) -> u8 {
    violations
        .iter()
        .map(|v| v.lint.exit_code())
        .min()
        .unwrap_or(0)
}

/// Minimal JSON string escaping (the only metacharacters our paths and
/// messages can contain); xtask deliberately has no dependencies, so
/// the report is hand-rolled.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The machine-readable report behind `cargo xtask analyze --json`:
/// overall verdict, per-lint counts, and one record per violation with
/// its stable exit code. Stable field order, one violation per array
/// element, so CI annotation scripts can consume it without a JSON
/// dependency on our side.
pub fn json_report(violations: &[Violation]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"clean\": {},\n  \"total\": {},\n",
        violations.is_empty(),
        violations.len()
    ));
    out.push_str(&format!(
        "  \"exit_code\": {},\n",
        exit_code_for(violations)
    ));
    out.push_str("  \"counts\": {");
    let mut first = true;
    for &lint in Lint::ALL {
        let n = violations.iter().filter(|v| v.lint == lint).count();
        if n == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {n}", lint.name()));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \
             \"exit_code\": {}, \"message\": \"{}\"}}",
            json_escape(&v.file.display().to_string()),
            v.line,
            v.lint.name(),
            v.lint.exit_code(),
            json_escape(&v.message)
        ));
    }
    out.push_str(if violations.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripping_preserves_length_and_lines() {
        let src = "let a = \"un{safe}\"; // unsafe\n/* unsafe */ let b = 'x';\n";
        let stripped = strip_source(src);
        assert_eq!(stripped.len(), src.len());
        assert_eq!(stripped.matches('\n').count(), src.matches('\n').count());
        assert!(word_occurrences(&stripped, "unsafe").is_empty());
        assert!(!stripped.contains('{'), "string contents blanked");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let stripped = strip_source(src);
        assert!(stripped.contains("{ x }"), "body survived: {stripped}");
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let s = r#\"unsafe { \"quoted\" }\"#; let t = 1;";
        let stripped = strip_source(src);
        assert!(word_occurrences(&stripped, "unsafe").is_empty());
        assert!(stripped.contains("let t = 1;"));
    }

    #[test]
    fn raw_strings_with_multiple_hash_guards_are_blanked() {
        // The `"#` inside must not close the `r##"..."##` literal.
        let src = "let s = r##\"end: \"# unsafe { }\"##; let u = 2;";
        let stripped = strip_source(src);
        assert!(word_occurrences(&stripped, "unsafe").is_empty());
        assert!(stripped.contains("let u = 2;"), "{stripped}");
    }

    #[test]
    fn nested_block_comments_track_depth() {
        let src = "/* outer /* inner unsafe */ still a comment */ let v = 3;";
        let stripped = strip_source(src);
        assert!(word_occurrences(&stripped, "unsafe").is_empty());
        assert!(stripped.contains("let v = 3;"), "{stripped}");
        assert!(!stripped.contains("still"), "outer comment survived");
    }

    #[test]
    fn escaped_quotes_and_char_escapes_do_not_desync() {
        let src = "let q = \"a\\\"b\"; let c = '\\''; let w = 4;";
        let stripped = strip_source(src);
        assert!(stripped.contains("let w = 4;"), "{stripped}");
    }

    #[test]
    fn word_boundaries_exclude_unsafe_code_token() {
        let src = "#![forbid(unsafe_code)]\n";
        assert!(word_occurrences(&strip_source(src), "unsafe").is_empty());
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_allowlist_enforced() {
        let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let v = analyze_file("crates/chisel-hash/src/lib.rs", src);
        assert!(v.iter().any(|v| v.lint == Lint::SafetyComment));
        assert!(v.iter().any(|v| v.lint == Lint::UnsafeAllowlist));
    }

    #[test]
    fn documented_allowlisted_unsafe_passes() {
        let src =
            "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller upholds it\n    unsafe { *p }\n}\n";
        let v = analyze_file("crates/chisel-core/src/snapshot.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hot_path_unwrap_is_flagged_only_in_scoped_functions() {
        let src = "impl X {\n    pub fn lookup(&self) -> u32 {\n        self.v.get(0).unwrap()\n    }\n    pub fn build(&self) -> u32 {\n        self.v.get(0).unwrap()\n    }\n}\n";
        let v = analyze_file("crates/chisel-core/src/engine.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::HotPathPanic);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn update_path_unwrap_is_flagged() {
        let src = "pub fn apply(&mut self) {\n    self.fifo.pop_front().unwrap();\n}\n";
        let v = analyze_file("crates/chisel-core/src/update.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::UpdatePathPanic);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn panic_ok_justification_is_honoured() {
        let src = "pub fn apply(&mut self) {\n    // PANIC-OK: fifo checked non-empty above\n    self.fifo.pop_front().unwrap();\n}\n";
        let v = analyze_file("crates/chisel-core/src/image.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn update_path_test_modules_are_exempt() {
        let src = "pub fn apply(&mut self) {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        let v = analyze_file("crates/chisel-core/src/update.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn daemon_is_a_no_panic_path() {
        let src = "pub fn run(&self) {\n    h.join().unwrap();\n}\n";
        let v = analyze_file("crates/chisel-dataplane/src/daemon.rs", src);
        assert!(v.iter().any(|v| v.lint == Lint::UpdatePathPanic), "{v:?}");
    }

    #[test]
    fn unjustified_expect_in_non_listed_file_passes() {
        let src = "pub fn apply(&mut self) {\n    self.fifo.pop_front().expect(\"x\");\n}\n";
        let v = analyze_file("crates/chisel-core/src/config.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_modules_are_exempt_from_hot_path_lint() {
        let src = "pub fn get(&self) -> u32 { 0 }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        let v = analyze_file("crates/chisel-core/src/bitvector.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn relaxed_ordering_needs_a_justification() {
        let src = "pub fn bump(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let v = analyze_file("crates/chisel-core/src/anywhere.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::AtomicOrdering);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn ordering_comment_and_test_scopes_satisfy_the_atomic_lint() {
        let justified = "pub fn bump(c: &AtomicU64) {\n    // ORDERING: pure counter, read only after join\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(analyze_file("crates/x/src/a.rs", justified).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n}\n";
        assert!(analyze_file("crates/x/src/b.rs", in_test).is_empty());
        // A bare `Relaxed` ident (not a path) is someone's own enum.
        let bare = "fn f() -> Mode { Relaxed }\n";
        assert!(analyze_file("crates/x/src/c.rs", bare).is_empty());
    }

    #[test]
    fn vendored_crates_are_exempt_from_the_atomic_lint() {
        let src = "pub fn load(&self) -> u64 {\n    self.v.load(Ordering::Relaxed)\n}\n";
        let v = analyze_file("vendor/loom-lite/src/sync.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hot_path_allocation_is_flagged_in_scope() {
        let src = "impl X {\n    pub fn lookup(&self) -> Vec<u32> {\n        let v = Vec::new();\n        self.it().collect()\n    }\n    pub fn build(&self) -> Vec<u32> {\n        (0..4).collect()\n    }\n}\n";
        let v = analyze_file("crates/chisel-core/src/engine.rs", src);
        let allocs: Vec<_> = v.iter().filter(|v| v.lint == Lint::HotPathAlloc).collect();
        assert_eq!(allocs.len(), 2, "{v:?}");
        assert_eq!(allocs[0].line, 3);
        assert_eq!(allocs[1].line, 4, "`.collect()` in lookup");
    }

    #[test]
    fn alloc_ok_and_vec_types_are_not_flagged() {
        // `Vec<u32>` in a signature is a type, not an allocation; the
        // justified `Vec::new` passes.
        let src = "pub fn get(&self, out: &mut Vec<u32>) {\n    // ALLOC-OK: cold constructor path\n    let _scratch: Vec<u32> = Vec::new();\n}\n";
        let v = analyze_file("crates/chisel-core/src/flowcache.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn format_macro_is_flagged_on_the_hot_path() {
        let src = "pub fn get(&self) -> String {\n    format!(\"{}\", self.x)\n}\n";
        let v = analyze_file("crates/chisel-hash/src/digest.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::HotPathAlloc);
    }

    #[test]
    fn locks_are_flagged_only_in_lock_free_scopes() {
        let src = "use std::sync::Mutex;\nfn shard_main(m: &Mutex<u32>) {\n    let _g = m.lock();\n}\nfn run(m: &Mutex<u32>) {\n    let _g = m.lock();\n}\n";
        let v = analyze_file("crates/chisel-dataplane/src/daemon.rs", src);
        let locks: Vec<_> = v
            .iter()
            .filter(|v| v.lint == Lint::LockDiscipline)
            .collect();
        // Only the use inside `shard_main` (line 2 is its signature —
        // the body spans from the `{` line).
        assert_eq!(locks.len(), 1, "{v:?}");
        assert_eq!(locks[0].line, 2);
    }

    #[test]
    fn lock_ok_justifies_a_cold_side_mutex() {
        let src = "pub struct S {\n    // LOCK-OK: write-side update serialization, never on a shard\n    writer: Mutex<()>,\n}\n";
        let v = analyze_file("crates/chisel-core/src/flowcache.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn release_asserts_are_flagged_but_debug_asserts_pass() {
        let src = "pub fn get(&self, i: usize) -> u32 {\n    debug_assert!(i < self.len);\n    assert!(i < self.len);\n    assert_eq!(self.a, self.b);\n    0\n}\n";
        let v = analyze_file("crates/chisel-core/src/bitvector.rs", src);
        let asserts: Vec<_> = v
            .iter()
            .filter(|v| v.lint == Lint::AssertDiscipline)
            .collect();
        assert_eq!(asserts.len(), 2, "{v:?}");
        assert_eq!(asserts[0].line, 3);
        assert_eq!(asserts[1].line, 4);
    }

    #[test]
    fn assert_ok_escapes_an_unsafe_guard() {
        let src = "pub fn get(&self, i: usize) -> u32 {\n    // ASSERT-OK: bounds gate for the unchecked gather below\n    assert!(i < self.len);\n    0\n}\n";
        let v = analyze_file("crates/chisel-hash/src/digest.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn exit_codes_are_stable_and_smallest_wins() {
        for &lint in Lint::ALL {
            assert_eq!(
                lint.exit_code() as usize - 10,
                Lint::ALL.iter().position(|&l| l == lint).unwrap(),
                "exit codes follow declaration order"
            );
        }
        let v = vec![
            Violation {
                file: PathBuf::from("a.rs"),
                line: 1,
                lint: Lint::AssertDiscipline,
                message: String::new(),
            },
            Violation {
                file: PathBuf::from("a.rs"),
                line: 2,
                lint: Lint::HotPathPanic,
                message: String::new(),
            },
        ];
        assert_eq!(exit_code_for(&v), 13);
        assert_eq!(exit_code_for(&[]), 0);
    }

    #[test]
    fn json_report_is_well_formed() {
        let v = vec![Violation {
            file: PathBuf::from("crates/x/src/a.rs"),
            line: 7,
            lint: Lint::AtomicOrdering,
            message: "say \"why\"".to_string(),
        }];
        let json = json_report(&v);
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"total\": 1"));
        assert!(json.contains("\"exit_code\": 15"));
        assert!(json.contains("\"atomic-ordering\": 1"));
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains("say \\\"why\\\""), "{json}");
        let clean = json_report(&[]);
        assert!(clean.contains("\"clean\": true"));
        assert!(clean.contains("\"violations\": []"));
    }
}
