//! `cargo run -p xtask -- lint [--root PATH]`
//! `cargo run -p xtask -- lines [--root PATH]`
//!
//! `lint` exits 0 when the workspace satisfies every invariant, 1 when
//! violations remain, 2 on usage or I/O errors. `lines` prints each
//! Rust source file's production line count (lines outside
//! `#[cfg(test)] mod` blocks) and their total.

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- lint [--root PATH]");
    eprintln!("       cargo run -p xtask -- lines [--root PATH]");
    eprintln!();
    eprintln!("rules:");
    for r in xtask::RULES {
        eprintln!("  {} {:<20} {}", r.id, r.name, r.summary);
    }
    ExitCode::from(2)
}

/// The workspace root: `--root` override, else the directory cargo
/// launched us from (cargo sets the cwd to the invocation dir; `cargo
/// run -p xtask` from anywhere inside the repo still compiles with
/// the manifest dir baked in as a fallback).
fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(root) = explicit {
        return root;
    }
    if let Ok(cwd) = env::current_dir() {
        for dir in cwd.ancestors() {
            if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
                return dir.to_path_buf();
            }
        }
    }
    // Compiled-in fallback: crates/xtask/../..
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut args = env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    if cmd != "lint" && cmd != "lines" {
        return usage();
    }
    let mut root_arg: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root_arg = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let root = workspace_root(root_arg);
    if cmd == "lines" {
        lines(&root)
    } else {
        lint(&root)
    }
}

fn lines(root: &Path) -> ExitCode {
    let counts = match xtask::production_lines(root) {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("xtask lines: I/O error: {e}");
            return ExitCode::from(2);
        }
    };
    for (file, n) in &counts {
        println!("{n:>7}  {file}");
    }
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    println!("{total:>7}  total");
    ExitCode::SUCCESS
}

fn lint(root: &Path) -> ExitCode {
    let violations = match xtask::lint(root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask lint: I/O error: {e}");
            return ExitCode::from(2);
        }
    };

    if violations.is_empty() {
        println!(
            "xtask lint: clean ({} rules checked against {})",
            xtask::RULES.len(),
            root.display()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!(
            "xtask lint: {} violation(s); suppress with a `lint:allow(WLxxx: reason)` \
             comment only when the invariant genuinely does not apply",
            violations.len()
        );
        ExitCode::FAILURE
    }
}
