//! Repo-specific static analysis for the Willump workspace.
//!
//! Six PRs in, the runtime's correctness rests on cross-cutting
//! invariants that no general-purpose tool checks: a frozen binary
//! wire layout, lock hygiene on hot paths, experiment-schema
//! registration, and the offline vendored dependency policy. This
//! crate is a small line/token-level Rust and TOML scanner
//! (deliberately dependency-free — no `syn`, because no crates.io
//! access is itself one of the invariants) that enforces them
//! mechanically:
//!
//! | ID | name | invariant |
//! |----|------|-----------|
//! | WL001 | `wire-compat` | `crates/serve/src/wire2.rs`'s binary `WIRE2_LAYOUT` matches its frozen per-version copy, so layout changes must bump `WIRE2_VERSION` |
//! | WL003 | `no-lock-unwrap` | no `.unwrap()`/`.expect()` on lock, condvar-wait or channel results in `crates/serve`/`crates/core` non-test code |
//! | WL004 | `schema-registration` | every recording bench binary's schema header is registered in `RECORDED_SCHEMAS`, no registry entry is stale, every registered section exists in `EXPERIMENTS.md`, and no section there carries an older version of a registered schema |
//! | WL005 | `vendor-hygiene` | every dependency across workspace manifests resolves to a path inside `vendor/` or `crates/` (no registry/git deps — the build env is offline) |
//!
//! Run with `cargo run -p xtask -- lint`. A finding can be suppressed
//! — with a reason — by a `lint:allow(WLxxx: why)` comment on the
//! offending line or the line directly above it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Stable metadata for one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable identifier (`WL001` …), used in reports and
    /// `lint:allow(...)` markers.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
}

/// Every rule this linter knows, in ID order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "WL001",
        name: "wire-compat",
        summary: "wire2.rs binary layout changes bump WIRE2_VERSION",
    },
    Rule {
        id: "WL003",
        name: "no-lock-unwrap",
        summary: "no .unwrap()/.expect() on lock, condvar-wait or channel results in serve/core non-test code",
    },
    Rule {
        id: "WL004",
        name: "schema-registration",
        summary: "recording binaries, RECORDED_SCHEMAS, and EXPERIMENTS.md sections stay in sync",
    },
    Rule {
        id: "WL005",
        name: "vendor-hygiene",
        summary: "every workspace dependency is a path into vendor/ or crates/",
    },
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule ID (`WL001` …).
    pub rule: &'static str,
    /// Rule name (`wire-compat` …).
    pub name: &'static str,
    /// File path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}:{}: {}",
            self.rule, self.name, self.file, self.line, self.message
        )
    }
}

// ---- source model ---------------------------------------------------

/// A loaded Rust source file with the derived views the rules scan.
struct SourceFile {
    rel: String,
    /// Comments and literals blanked out, newlines preserved, so
    /// token scans cannot match inside strings or docs.
    stripped: String,
    /// `true` for lines inside a `#[cfg(test)] mod … { … }` block.
    test_mask: Vec<bool>,
}

impl SourceFile {
    fn load(root: &Path, rel: &str) -> io::Result<Option<SourceFile>> {
        let path = root.join(rel);
        if !path.is_file() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path)?;
        let stripped = strip_source(&text);
        let test_mask = test_line_mask(&stripped);
        Ok(Some(SourceFile {
            rel: rel.to_string(),
            stripped,
            test_mask,
        }))
    }

    fn line_of_offset(&self, offset: usize) -> usize {
        self.stripped[..offset].matches('\n').count() + 1
    }

    fn in_test(&self, line: usize) -> bool {
        self.test_mask
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }
}

/// The `.rs` files under `dir` as sorted paths relative to `root`
/// (none when `dir` is missing). Hidden directories, `target` (build
/// output) and `tests` (integration tests and lint fixtures) are not
/// entered.
fn rust_files(root: &Path, dir: &Path) -> io::Result<Vec<String>> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if !(name.starts_with('.') || name == "target" || name == "tests") {
                    walk(&path, files)?;
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    if dir.is_dir() {
        walk(dir, &mut files)?;
    }
    let mut rels: Vec<String> = files
        .iter()
        .map(|path| {
            path.strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    rels.sort();
    Ok(rels)
}

/// Blank out comments, string/char literals, and raw strings,
/// preserving every newline (so byte offsets map to the original line
/// numbers) and the delimiting quotes (so string positions stay
/// visible without their contents).
fn strip_source(src: &str) -> String {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0;
    let keep = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        let c = b[i];
        match st {
            St::Code => {
                if c == '/' && b.get(i + 1) == Some(&'/') {
                    st = St::Line;
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && b.get(i + 1) == Some(&'*') {
                    st = St::Block(1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    out.push('"');
                    i += 1;
                } else if c == 'r' && matches!(b.get(i + 1), Some(&'"') | Some(&'#')) {
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        out.extend(std::iter::repeat_n(' ', j - i + 1));
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal when the quote closes within two
                    // chars (or an escape follows); lifetime otherwise.
                    let is_char = b.get(i + 1) == Some(&'\\')
                        || (b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\''));
                    if is_char {
                        st = St::Char;
                    }
                    out.push('\'');
                    i += 1;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            St::Line => {
                if c == '\n' {
                    st = St::Code;
                }
                out.push(keep(c));
                i += 1;
            }
            St::Block(d) => {
                if c == '/' && b.get(i + 1) == Some(&'*') {
                    st = St::Block(d + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && b.get(i + 1) == Some(&'/') {
                    st = if d == 1 { St::Code } else { St::Block(d - 1) };
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(keep(c));
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    out.push(' ');
                    if let Some(&n) = b.get(i + 1) {
                        out.push(keep(n));
                    }
                    i += 2;
                } else if c == '"' {
                    st = St::Code;
                    out.push('"');
                    i += 1;
                } else {
                    out.push(keep(c));
                    i += 1;
                }
            }
            St::RawStr(h) => {
                if c == '"' && (0..h).all(|k| b.get(i + 1 + k) == Some(&'#')) {
                    st = St::Code;
                    out.extend(std::iter::repeat_n(' ', h + 1));
                    i += h + 1;
                } else {
                    out.push(keep(c));
                    i += 1;
                }
            }
            St::Char => {
                if c == '\\' {
                    out.push(' ');
                    if let Some(&n) = b.get(i + 1) {
                        out.push(keep(n));
                    }
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    out.push('\'');
                    i += 1;
                } else {
                    out.push(keep(c));
                    i += 1;
                }
            }
        }
    }
    out
}

/// Mark the lines belonging to `#[cfg(test)] mod … { … }` blocks
/// (the workspace convention for unit tests) so hot-path rules skip
/// test code.
fn test_line_mask(stripped: &str) -> Vec<bool> {
    let lines: Vec<&str> = stripped.lines().collect();
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim() == "#[cfg(test)]" {
            // The mod item follows, possibly after more attributes.
            let mut j = i + 1;
            while j < lines.len() && j <= i + 5 && !lines[j].contains("mod ") {
                j += 1;
            }
            if j < lines.len() && lines[j].contains("mod ") {
                let mut depth: i64 = 0;
                let mut opened = false;
                let mut k = j;
                while k < lines.len() {
                    for ch in lines[k].chars() {
                        match ch {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    mask[k] = true;
                    if opened && depth <= 0 {
                        break;
                    }
                    k += 1;
                }
                let hi = j.min(mask.len() - 1);
                mask[i..=hi].fill(true);
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// Whole-word containment (`_`-aware), so counter `rows` does not
/// match inside `coalesced_rows`.
fn contains_word(hay: &str, word: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut start = 0;
    while let Some(pos) = hay[start..].find(word) {
        let p = start + pos;
        let word_char = |b: u8| b == b'_' || (b as char).is_ascii_alphanumeric();
        let before_ok = p == 0 || !word_char(bytes[p - 1]);
        let after = p + word.len();
        let after_ok = after >= bytes.len() || !word_char(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        start = p + 1;
    }
    false
}

/// Extract every double-quoted string literal from original source
/// text along with its 1-based line (good enough for the literal
/// tables the WL004 rule reads — no escapes in schema strings).
fn string_literals(src: &str) -> Vec<(usize, String)> {
    let stripped = strip_source(src);
    let bytes = stripped.as_bytes();
    let src_chars: Vec<char> = src.chars().collect();
    // Stripped text keeps the quote positions; contents come from the
    // original. Both are pure ASCII in the files this reads, so byte
    // offsets line up; fall back to char indexing for safety.
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != b'"' {
                j += 1;
            }
            if j < bytes.len() {
                let content: String = src_chars.get(i + 1..j).unwrap_or(&[]).iter().collect();
                let line = stripped[..i].matches('\n').count() + 1;
                out.push((line, content));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

// ---- rule 1: wire-compat -------------------------------------------

const WIRE2_RS: &str = "crates/serve/src/wire2.rs";

/// The frozen v2 binary layout: `WIRE2_LAYOUT`'s string literals,
/// flattened in declaration order (struct/enum names interleaved with
/// their field/variant sequences). While `WIRE2_VERSION == 2`, the
/// source constant must match this copy exactly — reordering, adding,
/// or removing an entry is a wire break that requires bumping the
/// negotiation version byte (at which point this copy is re-frozen).
const WIRE2_V2_LAYOUT: &[&str] = &[
    "Request",
    "id",
    "rows",
    "endpoint",
    "version",
    "key",
    "forwarded",
    "control",
    "Response",
    "id",
    "scores",
    "error",
    "endpoint",
    "version",
    "counters",
    "degraded",
    "overloaded",
    "EndpointCounters",
    "endpoint",
    "version",
    "counters",
    "PlanCountersSnapshot",
    "rows",
    "gate_resolved",
    "escalated",
    "filter_dropped",
    "Value",
    "Null",
    "Bool",
    "Int",
    "Float",
    "Str",
];

/// The frozen v4 binary layout: v2 plus the `ControlRequest`
/// variant-tag order, which holds the counters probe alone. Same
/// discipline as [`WIRE2_V2_LAYOUT`] — while `WIRE2_VERSION == 4` the
/// source manifest must match this copy exactly.
const WIRE2_V4_LAYOUT: &[&str] = &[
    "Request",
    "id",
    "rows",
    "endpoint",
    "version",
    "key",
    "forwarded",
    "control",
    "Response",
    "id",
    "scores",
    "error",
    "endpoint",
    "version",
    "counters",
    "degraded",
    "overloaded",
    "EndpointCounters",
    "endpoint",
    "version",
    "counters",
    "PlanCountersSnapshot",
    "rows",
    "gate_resolved",
    "escalated",
    "filter_dropped",
    "Value",
    "Null",
    "Bool",
    "Int",
    "Float",
    "Str",
    "ControlRequest",
    "Counters",
];

/// WL001: the source's `WIRE2_LAYOUT` manifest must match the frozen
/// copy for its declared `WIRE2_VERSION`
/// ([`WIRE2_V2_LAYOUT`] / [`WIRE2_V4_LAYOUT`]) exactly; any drift
/// means the binary encoding changed shape and the version byte must
/// be bumped (a new version is accepted — its layout gets frozen in
/// the PR that bumps).
fn rule_wire_compat(root: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    let path = root.join(WIRE2_RS);
    if !path.is_file() {
        return Ok(());
    }
    let src = fs::read_to_string(&path)?;
    let stripped = strip_source(&src);

    let version: Option<u8> = stripped.find("WIRE2_VERSION").and_then(|p| {
        let rest = &stripped[p..];
        let eq = rest.find('=')?;
        rest[eq + 1..].split(';').next()?.trim().parse::<u8>().ok()
    });
    let Some(version) = version else {
        out.push(Violation {
            rule: "WL001",
            name: "wire-compat",
            file: WIRE2_RS.to_string(),
            line: 1,
            message: "could not parse `WIRE2_VERSION: u8 = <n>;` — the layout freeze \
                      cannot be checked"
                .to_string(),
        });
        return Ok(());
    };
    let frozen: &[&str] = match version {
        2 => WIRE2_V2_LAYOUT,
        4 => WIRE2_V4_LAYOUT,
        // A version this linter has no freeze for: the bumping PR
        // re-freezes the new layout here.
        _ => return Ok(()),
    };

    // Anchor on the declaration, not the (earlier) doc-comment
    // mentions of the constant's name.
    let Some(layout_start) = src.find("const WIRE2_LAYOUT") else {
        out.push(Violation {
            rule: "WL001",
            name: "wire-compat",
            file: WIRE2_RS.to_string(),
            line: 1,
            message: "wire2.rs has no WIRE2_LAYOUT manifest to check the frozen binary \
                      field order against"
                .to_string(),
        });
        return Ok(());
    };
    let layout_end = src[layout_start..]
        .find("];")
        .map_or(src.len(), |e| layout_start + e);
    let base_line = src[..layout_start].matches('\n').count();
    let literals: Vec<(usize, String)> = string_literals(&src[layout_start..layout_end])
        .into_iter()
        .map(|(l, s)| (base_line + l, s))
        .collect();
    let declared: Vec<&str> = literals.iter().map(|(_, s)| s.as_str()).collect();
    if declared != frozen {
        // Anchor the finding at the first diverging entry when one
        // exists, else at the manifest head (pure add/remove at the
        // tail).
        let (line, detail) = declared
            .iter()
            .zip(frozen)
            .position(|(d, f)| d != f)
            .map_or_else(
                || {
                    (
                        base_line + 1,
                        format!(
                            "{} entries declared, {} frozen",
                            declared.len(),
                            frozen.len()
                        ),
                    )
                },
                |i| {
                    (
                        literals[i].0,
                        format!("`{}` where v{version} froze `{}`", declared[i], frozen[i]),
                    )
                },
            );
        out.push(Violation {
            rule: "WL001",
            name: "wire-compat",
            file: WIRE2_RS.to_string(),
            line,
            message: format!(
                "WIRE2_LAYOUT diverges from the frozen v{version} binary layout ({detail}) \
                 but WIRE2_VERSION is still {version} — layout changes must bump the \
                 version byte so peers renegotiate instead of misdecoding frames"
            ),
        });
    }
    Ok(())
}

// ---- rule 3: no-lock-unwrap ----------------------------------------

/// Methods whose `Result` must not be `.unwrap()`/`.expect()`ed on
/// hot paths. `no_args == true` requires an empty argument list, so
/// `io::Read::read(buf)` and friends don't false-positive.
const GUARDED_METHODS: &[(&str, bool)] = &[
    ("lock", true),
    ("try_lock", true),
    ("read", true),
    ("write", true),
    ("recv", true),
    ("try_recv", true),
    ("send", false),
    ("try_send", false),
    ("recv_timeout", false),
    ("wait", false),
    ("wait_timeout", false),
    ("wait_while", false),
];

/// The crate sources WL003 sweeps (unit-test modules excluded).
const HOT_PATH_DIRS: &[&str] = &["crates/serve/src", "crates/core/src"];

fn rule_no_lock_unwrap(root: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    for dir in HOT_PATH_DIRS {
        for rel in rust_files(root, &root.join(dir))? {
            let Some(src) = SourceFile::load(root, &rel)? else {
                continue;
            };
            scan_guarded_unwraps(&src, out);
        }
    }
    Ok(())
}

fn scan_guarded_unwraps(src: &SourceFile, out: &mut Vec<Violation>) {
    let text = &src.stripped;
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(dot) = text[i..].find('.') {
        let p = i + dot;
        i = p + 1;
        let rest = &text[p + 1..];
        let Some((method, no_args)) = GUARDED_METHODS
            .iter()
            .find(|(m, _)| rest.starts_with(m) && rest[m.len()..].starts_with('('))
            .copied()
        else {
            continue;
        };
        let open = p + 1 + method.len();
        let Some(close) = matching_paren(text, open) else {
            continue;
        };
        if no_args && !text[open + 1..close].trim().is_empty() {
            continue;
        }
        // Skip whitespace after the call, expect `.unwrap()`/`.expect(`.
        let mut q = close + 1;
        while q < bytes.len() && (bytes[q] as char).is_whitespace() {
            q += 1;
        }
        let tail = &text[q..];
        let offender = if tail.starts_with(".unwrap()") {
            "unwrap"
        } else if tail.starts_with(".expect(") {
            "expect"
        } else {
            continue;
        };
        let line = src.line_of_offset(p);
        if src.in_test(line) {
            continue;
        }
        out.push(Violation {
            rule: "WL003",
            name: "no-lock-unwrap",
            file: src.rel.clone(),
            line,
            message: format!(
                ".{method}(…).{offender}() on a hot path — a poisoned lock or closed \
                 channel must degrade, not panic the worker; handle the Err or route \
                 through the shutdown path"
            ),
        });
    }
}

/// Offset of the `)` matching the `(` at `open`.
fn matching_paren(text: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, c) in text[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + i);
                }
            }
            _ => {}
        }
    }
    None
}

// ---- rule 4: schema-registration -----------------------------------

const BENCH_LIB: &str = "crates/bench/src/lib.rs";
const BENCH_BIN_DIR: &str = "crates/bench/src/bin";
const EXPERIMENTS_MD: &str = "EXPERIMENTS.md";
const SCHEMA_PREFIX: &str = "<!-- schema:";

fn rule_schema_registration(root: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    let lib_path = root.join(BENCH_LIB);
    if !lib_path.is_file() {
        return Ok(());
    }
    let lib_src = fs::read_to_string(&lib_path)?;
    // The registry block: every schema literal between the const's
    // opening bracket and its closing `];`.
    let Some(reg_start) = lib_src.find("RECORDED_SCHEMAS") else {
        return Ok(());
    };
    let reg_end = lib_src[reg_start..]
        .find("];")
        .map_or(lib_src.len(), |e| reg_start + e);
    let registry: Vec<(usize, String)> = string_literals(&lib_src[reg_start..reg_end])
        .into_iter()
        .filter(|(_, s)| s.starts_with(SCHEMA_PREFIX))
        .map(|(l, s)| (lib_src[..reg_start].matches('\n').count() + l, s))
        .collect();

    // Every recording binary's schema literal(s).
    let mut declared: Vec<(String, usize, String)> = Vec::new(); // (file, line, schema)
    let bin_dir = root.join(BENCH_BIN_DIR);
    if bin_dir.is_dir() {
        let mut bins: Vec<PathBuf> = fs::read_dir(&bin_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        bins.sort();
        for bin in bins {
            let rel = format!(
                "{BENCH_BIN_DIR}/{}",
                bin.file_name().and_then(|n| n.to_str()).unwrap_or("?")
            );
            let src = fs::read_to_string(&bin)?;
            if !contains_word(&strip_source(&src), "run_recorded_experiment") {
                continue;
            }
            let schemas: Vec<(usize, String)> = string_literals(&src)
                .into_iter()
                .filter(|(_, s)| s.starts_with(SCHEMA_PREFIX))
                .collect();
            if schemas.is_empty() {
                out.push(Violation {
                    rule: "WL004",
                    name: "schema-registration",
                    file: rel.clone(),
                    line: 1,
                    message: "recording binary calls run_recorded_experiment but declares \
                              no `<!-- schema: … -->` header constant"
                        .to_string(),
                });
            }
            for (line, schema) in schemas {
                if !registry.iter().any(|(_, r)| *r == schema) {
                    out.push(Violation {
                        rule: "WL004",
                        name: "schema-registration",
                        file: rel.clone(),
                        line,
                        message: format!(
                            "schema {schema:?} is not registered in RECORDED_SCHEMAS \
                             ({BENCH_LIB}); the schema sweep would miss this binary"
                        ),
                    });
                }
                declared.push((rel.clone(), line, schema));
            }
        }
    }

    // Stale registry entries: registered but no binary declares them.
    for (line, schema) in &registry {
        if !declared.iter().any(|(_, _, s)| s == schema) {
            out.push(Violation {
                rule: "WL004",
                name: "schema-registration",
                file: BENCH_LIB.to_string(),
                line: *line,
                message: format!(
                    "registry entry {schema:?} is declared by no recording binary \
                     under {BENCH_BIN_DIR}/ — stale after a rename or deletion?"
                ),
            });
        }
    }

    // Folded `--check-schemas`: every registered section must exist in
    // the committed EXPERIMENTS.md.
    let experiments = fs::read_to_string(root.join(EXPERIMENTS_MD)).unwrap_or_default();
    let cmds: Vec<(usize, String)> = string_literals(&lib_src[reg_start..reg_end])
        .into_iter()
        .filter(|(_, s)| !s.starts_with(SCHEMA_PREFIX))
        .collect();
    for (idx, (_, schema)) in registry.iter().enumerate() {
        if !experiments.contains(schema.as_str()) {
            let cmd = cmds
                .get(idx)
                .map_or("its --record mode".to_string(), |(_, c)| format!("`{c}`"));
            out.push(Violation {
                rule: "WL004",
                name: "schema-registration",
                file: EXPERIMENTS_MD.to_string(),
                line: 1,
                message: format!(
                    "missing recorded section {schema:?}; re-record with {cmd} and commit"
                ),
            });
        }
    }

    // A section recorded under an older version of a registered schema
    // is superseded: re-recording upserts by the full marker, so the
    // old block would otherwise sit beside the live one forever.
    for (idx, line) in experiments.lines().enumerate() {
        let Some((name, version)) = schema_name_version(line) else {
            continue;
        };
        let newer = registry
            .iter()
            .filter_map(|(_, r)| schema_name_version(r))
            .find(|(n, v)| *n == name && *v > version);
        if let Some((_, live)) = newer {
            out.push(Violation {
                rule: "WL004",
                name: "schema-registration",
                file: EXPERIMENTS_MD.to_string(),
                line: idx + 1,
                message: format!(
                    "section `{name} v{version}` is superseded by the registered v{live}; \
                     delete the stale block"
                ),
            });
        }
    }
    Ok(())
}

/// Split a `<!-- schema: NAME vN -->` marker line into `(NAME, N)`.
fn schema_name_version(marker: &str) -> Option<(&str, u32)> {
    let body = marker
        .trim()
        .strip_prefix(SCHEMA_PREFIX)?
        .strip_suffix("-->")?
        .trim();
    let (name, version) = body.rsplit_once(' ')?;
    Some((name.trim(), version.strip_prefix('v')?.parse().ok()?))
}

// ---- rule 5: vendor-hygiene ----------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum DepSpec {
    /// `path = "…"` (the path, manifest-relative).
    Path(String),
    /// `workspace = true` — resolved through `[workspace.dependencies]`.
    Workspace,
    /// Anything else: bare version string, `version =`, `git =`, … —
    /// all of which need registry or network access.
    External(String),
}

struct DepEntry {
    name: String,
    line: usize,
    spec: DepSpec,
}

/// Parse the dependency entries of one manifest. Handles the forms
/// this workspace uses: `[dependencies]` tables with `name = "ver"`,
/// `name = { … }`, `name.workspace = true`, and `[dependencies.name]`
/// sub-tables.
fn parse_manifest_deps(src: &str) -> Vec<DepEntry> {
    let mut out: Vec<DepEntry> = Vec::new();
    let mut in_dep_table = false;
    let mut sub_table: Option<usize> = None; // index into out
    for (i, raw) in src.lines().enumerate() {
        let line = i + 1;
        let t = raw.split('#').next().unwrap_or("").trim();
        if t.is_empty() {
            continue;
        }
        if t.starts_with('[') {
            let section = t.trim_matches(['[', ']']);
            sub_table = None;
            in_dep_table = section == "dependencies"
                || section == "dev-dependencies"
                || section == "build-dependencies"
                || section == "workspace.dependencies";
            if !in_dep_table {
                // `[dependencies.foo]` sub-table form.
                for prefix in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
                    if let Some(name) = section.strip_prefix(prefix) {
                        out.push(DepEntry {
                            name: name.to_string(),
                            line,
                            spec: DepSpec::External("(empty sub-table)".to_string()),
                        });
                        sub_table = Some(out.len() - 1);
                    }
                }
            }
            continue;
        }
        if let Some(idx) = sub_table {
            if let Some((k, v)) = t.split_once('=') {
                let (k, v) = (k.trim(), v.trim().trim_matches('"'));
                match k {
                    "path" => out[idx].spec = DepSpec::Path(v.to_string()),
                    "workspace" if v == "true" => out[idx].spec = DepSpec::Workspace,
                    _ => {}
                }
            }
            continue;
        }
        if !in_dep_table {
            continue;
        }
        let Some((key, value)) = t.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        let (name, spec) = if let Some(name) = key.strip_suffix(".workspace") {
            (name.trim(), DepSpec::Workspace)
        } else if value.starts_with('{') {
            let spec = if let Some(p) = value.find("path") {
                let after = value[p + "path".len()..].trim_start();
                let path = after
                    .strip_prefix('=')
                    .map(|r| r.trim_start().trim_start_matches('"'))
                    .and_then(|r| r.split('"').next())
                    .unwrap_or("");
                DepSpec::Path(path.to_string())
            } else if value.contains("workspace = true") {
                DepSpec::Workspace
            } else {
                DepSpec::External(value.to_string())
            };
            (key, spec)
        } else {
            (key, DepSpec::External(value.to_string()))
        };
        out.push(DepEntry {
            name: name.to_string(),
            line,
            spec,
        });
    }
    out
}

/// Lexically normalize `dir/path` against the workspace root and
/// return it root-relative, or `None` when it escapes the root.
fn resolve_rel(root: &Path, manifest_dir: &Path, path: &str) -> Option<PathBuf> {
    let joined = manifest_dir.join(path);
    let mut stack: Vec<std::ffi::OsString> = Vec::new();
    for comp in joined.components() {
        match comp {
            std::path::Component::ParentDir => {
                stack.pop()?;
            }
            std::path::Component::CurDir => {}
            c => stack.push(c.as_os_str().to_os_string()),
        }
    }
    let normalized: PathBuf = stack.iter().collect();
    normalized.strip_prefix(root).ok().map(Path::to_path_buf)
}

fn rule_vendor_hygiene(root: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    let root_manifest = root.join("Cargo.toml");
    if !root_manifest.is_file() {
        return Ok(());
    }
    let root_src = fs::read_to_string(&root_manifest)?;

    // Workspace members: string literals of the `members = [ … ]`
    // array.
    let mut manifests: Vec<String> = vec!["Cargo.toml".to_string()];
    if let Some(members_start) = root_src.find("members") {
        if let Some(close) = root_src[members_start..].find(']') {
            for (_, member) in string_literals(&root_src[members_start..members_start + close]) {
                manifests.push(format!("{member}/Cargo.toml"));
            }
        }
    }

    // `[workspace.dependencies]` — the table `workspace = true`
    // entries resolve through. Parse the root manifest once; entries
    // found under the workspace.dependencies section are keyed by
    // name.
    let mut ws_deps: BTreeMap<String, DepSpec> = BTreeMap::new();
    if let Some(ws_start) = root_src.find("[workspace.dependencies]") {
        let rest = &root_src[ws_start + 1..];
        let ws_end = rest
            .find("\n[")
            .map_or(root_src.len(), |e| ws_start + 1 + e);
        let section = &root_src[ws_start..ws_end];
        for dep in parse_manifest_deps(section) {
            ws_deps.insert(dep.name, dep.spec);
        }
    }

    let in_repo = |rel: &Path| {
        rel.components().next().is_some_and(|c| {
            let c = c.as_os_str();
            c == "vendor" || c == "crates"
        }) || rel.as_os_str().is_empty()
    };

    for rel_manifest in manifests {
        let path = root.join(&rel_manifest);
        if !path.is_file() {
            continue;
        }
        let src = fs::read_to_string(&path)?;
        let manifest_dir = path.parent().unwrap_or(root).to_path_buf();
        for dep in parse_manifest_deps(&src) {
            let verdict: Result<(), String> = match &dep.spec {
                DepSpec::Path(p) => match resolve_rel(root, &manifest_dir, p) {
                    Some(rel) if in_repo(&rel) => Ok(()),
                    Some(rel) => Err(format!(
                        "path dependency resolves to `{}`, outside vendor/ and crates/",
                        rel.display()
                    )),
                    None => Err(format!("path dependency `{p}` escapes the workspace root")),
                },
                DepSpec::Workspace => match ws_deps.get(&dep.name) {
                    Some(DepSpec::Path(p)) => match resolve_rel(root, root, p) {
                        Some(rel) if in_repo(&rel) => Ok(()),
                        _ => Err(format!(
                            "workspace dependency `{}` resolves outside vendor/ and crates/",
                            dep.name
                        )),
                    },
                    Some(other) => Err(format!(
                        "workspace dependency `{}` is not a path entry ({other:?})",
                        dep.name
                    )),
                    None => Err(format!(
                        "`{}` uses workspace = true but [workspace.dependencies] has no \
                         such entry",
                        dep.name
                    )),
                },
                DepSpec::External(v) => Err(format!(
                    "`{} = {v}` needs registry/network access; the build env is offline — \
                     vendor a stand-in under vendor/ instead",
                    dep.name
                )),
            };
            if let Err(why) = verdict {
                out.push(Violation {
                    rule: "WL005",
                    name: "vendor-hygiene",
                    file: rel_manifest.clone(),
                    line: dep.line,
                    message: why,
                });
            }
        }
    }
    Ok(())
}

// ---- production lines -----------------------------------------------

/// Production line counts (`cargo run -p xtask -- lines`): every Rust
/// source file under `root` with its number of lines outside
/// `#[cfg(test)] mod … { … }` blocks, sorted by path relative to
/// `root`. Integration tests (`tests/` directories), build output
/// (`target/`) and hidden directories are skipped.
///
/// # Errors
/// Returns any I/O error encountered while reading the tree.
pub fn production_lines(root: &Path) -> io::Result<Vec<(String, usize)>> {
    let mut counts = Vec::new();
    for rel in rust_files(root, root)? {
        if let Some(src) = SourceFile::load(root, &rel)? {
            let lines = src.test_mask.iter().filter(|&&test| !test).count();
            counts.push((rel, lines));
        }
    }
    Ok(counts)
}

// ---- driver ---------------------------------------------------------

/// Run every rule against the workspace at `root`, returning the
/// surviving violations (allow-marker suppressions already applied),
/// sorted by file/line/rule.
///
/// # Errors
/// Returns any I/O error encountered while reading workspace files.
pub fn lint(root: &Path) -> io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    rule_wire_compat(root, &mut out)?;
    rule_no_lock_unwrap(root, &mut out)?;
    rule_schema_registration(root, &mut out)?;
    rule_vendor_hygiene(root, &mut out)?;
    let out = filter_allowed(root, out);
    let mut out = out;
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(out)
}

/// Drop violations suppressed by a `lint:allow(WLxxx…)` marker on the
/// offending line or the line directly above it.
fn filter_allowed(root: &Path, violations: Vec<Violation>) -> Vec<Violation> {
    let mut cache: BTreeMap<String, Vec<String>> = BTreeMap::new();
    violations
        .into_iter()
        .filter(|v| {
            let lines = cache.entry(v.file.clone()).or_insert_with(|| {
                fs::read_to_string(root.join(&v.file))
                    .map(|s| s.lines().map(str::to_string).collect())
                    .unwrap_or_default()
            });
            let marker = format!("lint:allow({}", v.rule);
            let hit =
                |idx: usize| idx >= 1 && lines.get(idx - 1).is_some_and(|l| l.contains(&marker));
            !(hit(v.line) || hit(v.line.saturating_sub(1)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_blanks_comments_and_strings() {
        let src = "let a = \"lock().unwrap()\"; // lock().unwrap()\nlet b = 1;\n";
        let s = strip_source(src);
        assert!(!s.contains("unwrap"));
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
        assert!(s.contains("let b = 1;"));
    }

    #[test]
    fn strip_handles_raw_strings_and_chars() {
        let src = "let r = r#\"x.lock().unwrap()\"#;\nlet c = '\"';\nlet l: &'static str = \"\";\n";
        let s = strip_source(src);
        assert!(!s.contains("unwrap"));
        assert!(s.contains("'static"));
        assert_eq!(s.matches('\n').count(), 3);
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(contains_word("a + rows + b", "rows"));
        assert!(!contains_word("coalesced_rows", "rows"));
        assert!(contains_word("self.rows()", "rows"));
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let mask = test_line_mask(&strip_source(src));
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn guarded_scan_matches_channels_and_locks_only() {
        let mk = |code: &str| {
            let stripped = strip_source(code);
            let test_mask = test_line_mask(&stripped);
            SourceFile {
                rel: "x.rs".to_string(),
                stripped,
                test_mask,
            }
        };
        let mut v = Vec::new();
        scan_guarded_unwraps(&mk("let g = m.lock().unwrap();\n"), &mut v);
        scan_guarded_unwraps(&mk("tx.send(job).expect(\"send\");\n"), &mut v);
        scan_guarded_unwraps(&mk("let n = file.read(&mut buf).unwrap();\n"), &mut v);
        scan_guarded_unwraps(&mk("let x = rx.recv()\n    .unwrap();\n"), &mut v);
        scan_guarded_unwraps(&mk("let g = cv.wait(g).unwrap();\n"), &mut v);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "WL003"));
    }

    #[test]
    fn manifest_parser_classifies_specs() {
        let src = "[dependencies]\n\
                   serde = { path = \"vendor/serde\", features = [\"derive\"] }\n\
                   willump.workspace = true\n\
                   rand = \"0.8\"\n\
                   [dev-dependencies]\n\
                   evil = { git = \"https://example.com\" }\n";
        let deps = parse_manifest_deps(src);
        assert_eq!(deps.len(), 4);
        assert_eq!(deps[0].spec, DepSpec::Path("vendor/serde".to_string()));
        assert_eq!(deps[1].spec, DepSpec::Workspace);
        assert!(matches!(deps[2].spec, DepSpec::External(_)));
        assert!(matches!(deps[3].spec, DepSpec::External(_)));
    }

    #[test]
    fn resolve_rel_normalizes_parent_hops() {
        let root = Path::new("/repo");
        let rel = resolve_rel(root, &root.join("vendor/serde"), "../serde_derive").unwrap();
        assert_eq!(rel, Path::new("vendor/serde_derive"));
        assert!(resolve_rel(root, root, "../outside").is_none());
    }
}
