//! `perf`: the repository benchmark.
//!
//! ```text
//! perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perf all [--seed N] [--seconds S] [--runs R] [--smoke]
//! perf diff A.json B.json
//! ```
//!
//! `run` measures one workload and prints its metrics; the last line
//! of its output is the machine-readable result. `all` runs the four
//! workloads, untraced (`R` times over, reporting medians) and traced,
//! and writes `perf/out/summary.json`.
//! `diff` compares two summaries under the bounds in `BENCHMARK.json`.
//! See `perf/README.md` for what is measured and why.

mod alloc;
mod diff;
mod layers;
mod loadgen;
mod report;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use serde::Content;

use report::Report;
use setup::{err, Res};
use workloads::{Params, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Measured seconds per run unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
const DEFAULT_SEED: u64 = 42;

/// `--flag value` pairs after the subcommand, plus bare flags.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0
            .get(at + 1)
            .map(String::as_str)
            .filter(|v| !v.starts_with("--"))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Res<T> {
        match self.value(flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read `{v}`")),
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
        }
    }

    fn params(&self) -> Res<Params> {
        let smoke = self.has("--smoke");
        let seconds = self.parsed("--seconds", if smoke { 1.0 } else { DEFAULT_SECONDS })?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds}: expected 0 < seconds <= 600"));
        }
        Ok(Params {
            seed: self.parsed("--seed", DEFAULT_SEED)?,
            seconds,
            setups: if smoke { 1 } else { SETUPS },
        })
    }

    /// `--trace`, `--trace 1` and `--trace 0` are all accepted.
    fn trace(&self) -> Res<bool> {
        match self.value("--trace") {
            Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("--trace: expected 0 or 1, got `{v}`")),
            None => Ok(self.has("--trace")),
        }
    }
}

/// Measure one workload. The spans of a traced run go to
/// `perf/out/<workload>.trace.json`.
fn measure(workload: Workload, params: Params, trace: bool) -> Res<Report> {
    let outcome = if trace {
        let traced = layers::run(workload, &params)?;
        report::write_out(
            &format!("{}.trace.json", workload.name()),
            trace::to_json(&traced.spans),
        )?;
        traced.outcome
    } else {
        workloads::run(workload, &params)?
    };
    Ok(Report {
        workload,
        params,
        trace,
        outcome,
    })
}

/// Closure residuals and generator lag beyond their stated tolerance.
fn flags(report: &Report) -> Vec<String> {
    let mut out = Vec::new();
    for (name, stat) in &report.outcome.metrics {
        if name.starts_with("closure.") && stat.value > layers::CLOSURE_TOLERANCE {
            out.push(format!(
                "FLAG {name} = {:.3} exceeds the stated tolerance {}",
                stat.value,
                layers::CLOSURE_TOLERANCE
            ));
        }
    }
    if report.outcome.notes.get("valid") == Some(&0.0) {
        out.push(format!(
            "INVALID median generator lag is more than {} of median latency",
            workloads::MAX_LAG_SHARE
        ));
    }
    out
}

fn run(args: &Args) -> Res<ExitCode> {
    let workload = Workload::parse(
        args.value("--workload")
            .ok_or("run needs --workload <name>")?,
    )?;
    let report = measure(workload, args.params()?, args.trace()?)?;
    print!("{}", report.table());
    for flag in flags(&report) {
        println!("  {flag}");
    }
    report::write_out(&report.result_file(), report.to_json())?;
    println!("{}", report.result_line()?);
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// First line of a command's standard output, or `unknown`.
fn first_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run every workload untraced (`--runs` times) and traced, each run in
/// a process of its own so `peak_rss_mb` is that workload's, and gather
/// the result files into `perf/out/summary.json`.
fn all(args: &Args) -> Res<ExitCode> {
    let params = args.params()?;
    let exe = std::env::current_exe().map_err(err)?;
    let mut workloads = Vec::new();
    let mut failures = 0;
    let repeats: usize = args.parsed("--runs", 1)?;
    for workload in Workload::ALL {
        let mut sections = Vec::new();
        // The traced run explains; only the untraced one is repeated.
        for (key, trace, repeats) in [("end_to_end", "0", repeats.max(1)), ("per_layer", "1", 1)] {
            let mut runs = Vec::new();
            for _ in 0..repeats {
                let mut child = Command::new(&exe);
                child.args(["run", "--workload", workload.name(), "--trace", trace]);
                child.args(["--seed", &params.seed.to_string()]);
                child.args(["--seconds", &params.seconds.to_string()]);
                if args.has("--smoke") {
                    child.arg("--smoke");
                }
                // Inherits stdout, so each run's table scrolls by.
                let status = child.status().map_err(err)?;
                failures += usize::from(!status.success());
                let kind = if trace == "1" {
                    "trace.result"
                } else {
                    "result"
                };
                let file = report::out_dir().join(format!("{}.{kind}.json", workload.name()));
                let text = std::fs::read_to_string(&file)
                    .map_err(|e| format!("{}: {e}", file.display()))?;
                runs.push(report::parse(&text)?);
            }
            sections.push((key, report::fold_runs(runs)?));
        }
        workloads.push((workload.name().to_string(), report::map(sections)));
    }
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let host = report::map(vec![
        ("nproc", Content::UInt(nproc as u64)),
        (
            "rustc",
            Content::Str(first_line("rustc", &["-V"], manifest_dir)),
        ),
        (
            "commit",
            Content::Str(first_line("git", &["rev-parse", "HEAD"], manifest_dir)),
        ),
        ("seed", Content::UInt(params.seed)),
        ("seconds", Content::Float(params.seconds)),
        ("throughput_phase_s", Content::Float(params.phase_s())),
        ("latency_phase_s", Content::Float(params.phase_s())),
        ("setups", Content::UInt(params.setups as u64)),
        (
            "windows_per_slice",
            Content::UInt(stats::WINDOWS_PER_SLICE as u64),
        ),
        ("best_windows", Content::UInt(stats::BEST as u64)),
        (
            "open_loop_rate_per_s",
            Content::Float(workloads::OPEN_LOOP_RATE),
        ),
        ("senders", Content::UInt(workloads::SENDERS as u64)),
    ]);
    let path = report::write_out(
        "summary.json",
        report::map(vec![
            ("host", host),
            ("workloads", Content::Map(workloads)),
            // This harness measures; it claims no gain.
            ("claim", Content::Null),
        ]),
    )?;
    println!("wrote {}", path.display());
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn diff_cmd(args: &Args) -> Res<ExitCode> {
    let [a, b] = args.0.as_slice() else {
        return Err("diff needs two summary files: perf diff A.json B.json".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let benchmark = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds = diff::read_bounds(&read(&benchmark.to_string_lossy())?)?;
    let (table, regressions) = diff::diff(
        &bounds,
        &report::read_summary(&read(a)?)?,
        &report::read_summary(&read(b)?)?,
    );
    print!("{table}");
    println!("{regressions} regression(s)");
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let result = match command.as_str() {
        "run" => run(&args),
        "all" => all(&args),
        "diff" => diff_cmd(&args),
        _ => Err("usage: perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] | perf all [...] | perf diff A.json B.json".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args(s.split_whitespace().map(str::to_string).collect())
    }

    #[test]
    fn flags_parse_as_the_driver_passes_them() {
        let a = args("--workload serve-local --seed 7 --seconds 3 --trace 1");
        assert_eq!(a.value("--workload"), Some("serve-local"));
        let p = a.params().unwrap();
        assert_eq!((p.seed, p.seconds, p.setups), (7, 3.0, SETUPS));
        assert!(a.trace().unwrap());
        assert!(!args("--trace 0").trace().unwrap());
        assert!(args("--trace").trace().unwrap());
        assert!(args("--trace --smoke").trace().unwrap());
        assert!(!args("--smoke").trace().unwrap());
        assert!(args("--trace 2").trace().is_err());
        assert!(args("--seed x").params().is_err());
        assert!(args("--seconds 0").params().is_err());
        let smoke = args("--smoke").params().unwrap();
        assert_eq!(
            (smoke.seed, smoke.seconds, smoke.setups),
            (DEFAULT_SEED, 1.0, 1)
        );
    }

    /// `BENCHMARK.json` and the binary must name the same workloads,
    /// metrics, units and run length.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = report::parse(&text).unwrap();
        let list = |key: &str, field: &str| -> Vec<String> {
            let Some(Content::Seq(items)) = doc.get(key) else {
                panic!("no `{key}` list")
            };
            items
                .iter()
                .map(|i| match i.get(field) {
                    Some(Content::Str(s)) => s.clone(),
                    other => panic!("{key} entry without `{field}`: {other:?}"),
                })
                .collect()
        };
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(list("workloads", "name"), names);
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let (names, units): (Vec<_>, Vec<_>) = report::expected(trace)
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .unzip();
            assert_eq!(list(key, "name"), names);
            assert_eq!(list(key, "unit"), units);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(report::number),
            Some(DEFAULT_SECONDS)
        );
        assert!(diff::read_bounds(&text)
            .unwrap()
            .values()
            .all(|b| b.share > 0.0 && b.share <= 0.25));
    }

    /// Every workload, untraced and traced, at smoke length: outputs
    /// correct and every named metric present and finite.
    #[test]
    fn smoke_runs_print_every_named_metric() {
        let params = Params {
            seed: DEFAULT_SEED,
            seconds: 1.0,
            setups: 1,
        };
        for workload in Workload::ALL {
            for trace in [false, true] {
                let report = measure(workload, params, trace).unwrap();
                assert!(
                    report.correct(),
                    "{} trace={trace}: {}",
                    workload.name(),
                    report.table()
                );
                let line = report.result_line().unwrap();
                let doc = report::parse(&line).unwrap();
                assert_eq!(doc.get("correct"), Some(&Content::Bool(true)));
                assert_eq!(doc.get("failed").and_then(report::number), Some(0.0));
                assert!(doc.get("attempted").and_then(report::number).unwrap() >= 1.0);
                let Some(Content::Map(metrics)) = doc.get("metrics") else {
                    panic!("no metrics in {line}")
                };
                let expected = report::expected(trace);
                assert_eq!(metrics.len(), expected.len());
                for ((name, entry), (want, unit)) in metrics.iter().zip(expected) {
                    assert_eq!(name, want);
                    assert_eq!(entry.get("unit"), Some(&Content::Str(unit.to_string())));
                    let value = entry.get("value").and_then(report::number).unwrap();
                    assert!(value.is_finite(), "{name} = {value}");
                    if !trace {
                        assert!(value > 0.0, "{} {name} = {value}", workload.name());
                    }
                }
            }
        }
    }
}
