//! Fixture-backed coverage for every lint rule: each rule fires in
//! its own known-bad fixture tree (and only there), the real tree is
//! clean, and the binary's exit codes match.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lint a fixture and return the set of rule IDs that fired plus the
/// violations themselves.
fn lint_fixture(name: &str) -> (BTreeSet<&'static str>, Vec<xtask::Violation>) {
    let violations = xtask::lint(&fixture(name)).expect("lint fixture");
    let ids = violations.iter().map(|v| v.rule).collect();
    (ids, violations)
}

/// The real tree satisfies every invariant — the PR that breaks one
/// must either fix the code or add a reasoned `lint:allow`.
#[test]
fn real_tree_is_clean() {
    let violations = xtask::lint(&repo_root()).expect("lint repo");
    assert!(
        violations.is_empty(),
        "real tree has violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn wire2_compat_fixture_fires_exactly_wl001() {
    let (ids, violations) = lint_fixture("wire2-compat");
    assert_eq!(ids, BTreeSet::from(["WL001"]), "{violations:?}");
    // One finding, anchored at the first diverging layout entry.
    assert_eq!(violations.len(), 1, "{violations:?}");
    let v = &violations[0];
    assert!(v.file.ends_with("wire2.rs"), "{v}");
    assert!(v.message.contains("WIRE2_VERSION is still 2"), "{v}");
    assert!(
        v.message.contains("`version` where v2 froze `endpoint`"),
        "{v}"
    );
}

#[test]
fn no_lock_unwrap_fixture_fires_exactly_wl003() {
    let (ids, violations) = lint_fixture("no-lock-unwrap");
    assert_eq!(ids, BTreeSet::from(["WL003"]), "{violations:?}");
    // The hot-path unwrap and expect fire; the allow-marked line, the
    // #[cfg(test)] copy, the string literal, and `read(&mut buf)` do
    // not.
    assert_eq!(violations.len(), 2, "{violations:?}");
    assert!(violations.iter().any(|v| v.message.contains(".lock(")));
    assert!(violations.iter().any(|v| v.message.contains(".send(")));
}

#[test]
fn schema_registration_fixture_fires_exactly_wl004() {
    let (ids, violations) = lint_fixture("schema-registration");
    assert_eq!(ids, BTreeSet::from(["WL004"]), "{violations:?}");
    // Unregistered binary schema + stale registry entry + registered
    // schema missing from EXPERIMENTS.md + a superseded v1 block
    // beside the registered v2.
    assert_eq!(violations.len(), 4, "{violations:?}");
    assert!(violations
        .iter()
        .any(|v| v.file.ends_with("table2.rs") && v.message.contains("not registered")));
    assert!(violations
        .iter()
        .any(|v| v.file.ends_with("lib.rs") && v.message.contains("stale")));
    assert!(violations
        .iter()
        .any(|v| v.file == "EXPERIMENTS.md" && v.message.contains("missing recorded section")));
    assert!(violations.iter().any(|v| v.file == "EXPERIMENTS.md"
        && v.line == 3
        && v.message
            .contains("`table1-good v1` is superseded by the registered v2")));
}

#[test]
fn vendor_hygiene_fixture_fires_exactly_wl005() {
    let (ids, violations) = lint_fixture("vendor-hygiene");
    assert_eq!(ids, BTreeSet::from(["WL005"]), "{violations:?}");
    // `rand = "0.8"` fires; the git dep is suppressed by its
    // lint:allow marker.
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].message.contains("rand"), "{violations:?}");
}

/// The shipped binary exits 0 on the real tree and nonzero on every
/// fixture — the exact contract the CI lint job relies on.
#[test]
fn binary_exit_codes_match_contract() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let ok = Command::new(bin)
        .args(["lint", "--root"])
        .arg(repo_root())
        .output()
        .expect("run xtask");
    assert!(
        ok.status.success(),
        "stdout: {}",
        String::from_utf8_lossy(&ok.stdout)
    );
    for name in [
        "wire2-compat",
        "no-lock-unwrap",
        "schema-registration",
        "vendor-hygiene",
    ] {
        let out = Command::new(bin)
            .args(["lint", "--root"])
            .arg(fixture(name))
            .output()
            .expect("run xtask on fixture");
        assert_eq!(
            out.status.code(),
            Some(1),
            "fixture {name}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// Rule metadata stays well-formed: ids unique and in order (a
/// retired id is never reused), names unique, summaries present.
#[test]
fn rule_table_is_consistent() {
    let ids: Vec<&str> = xtask::RULES.iter().map(|r| r.id).collect();
    assert_eq!(ids, ["WL001", "WL003", "WL004", "WL005"]);
    let names: BTreeSet<&str> = xtask::RULES.iter().map(|r| r.name).collect();
    assert_eq!(names.len(), xtask::RULES.len());
    assert!(xtask::RULES.iter().all(|r| !r.summary.is_empty()));
}

/// `lines` counts a file's lines outside its `#[cfg(test)] mod`: the
/// WL003 fixture's 36 lines end in a 10-line test module.
#[test]
fn lines_skips_the_test_module() {
    let root = fixture("no-lock-unwrap");
    let counts = xtask::production_lines(&root).expect("count fixture");
    assert_eq!(counts, [("crates/serve/src/hot.rs".to_string(), 26)]);
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lines", "--root"])
        .arg(&root)
        .output()
        .expect("run xtask lines");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "     26  crates/serve/src/hot.rs\n     26  total\n"
    );
}
