//! `perf diff A.json B.json`: compare two summaries written by
//! `perf all`, metric by metric, against the bounds `BENCHMARK.json`
//! fixes.

use std::collections::BTreeMap;

use serde::Content;

use crate::report::{self, WorkloadMetrics};
use crate::setup::Res;

/// How far a metric may worsen, as a share of the base run's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub higher_is_better: bool,
    pub share: f64,
}

/// The `end_to_end` bounds of a `BENCHMARK.json`.
pub fn read_bounds(benchmark_json: &str) -> Res<BTreeMap<String, Bound>> {
    let doc = report::parse(benchmark_json)?;
    let Some(Content::Seq(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no `end_to_end` list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let text = |key: &str| match m.get(key) {
                Some(Content::Str(s)) => Ok(s.clone()),
                _ => Err(format!("end_to_end metric without `{key}`")),
            };
            let share = m
                .get("bound")
                .and_then(report::number)
                .ok_or("end_to_end metric without `bound`")?;
            let bound = Bound {
                higher_is_better: text("better")? == "higher",
                share,
            };
            Ok((text("name")?, bound))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Pass,
    /// Worse than the base by more than the bound.
    Regress,
    /// A run's own spread exceeds the bound: the pair cannot resolve a
    /// move of that size, so it is neither a pass nor a regression.
    Unresolved,
}

/// By what share of the base `a` the change `b` is worse (negative:
/// better), and what that means under `bound`. Each side is
/// `(median, spread)`.
pub fn judge(bound: Bound, a: (f64, f64), b: (f64, f64)) -> (f64, Verdict) {
    let worse = if bound.higher_is_better {
        a.0 - b.0
    } else {
        b.0 - a.0
    } / a.0.abs();
    let verdict = if a.1.max(b.1) > bound.share {
        Verdict::Unresolved
    } else if worse > bound.share {
        Verdict::Regress
    } else {
        Verdict::Pass
    };
    (worse, verdict)
}

/// One row per (workload, metric) present in both summaries, and the
/// number of regressions among them. Metrics without a bound (the
/// per-layer ones) are listed for reading, not judged.
pub fn diff(
    bounds: &BTreeMap<String, Bound>,
    a: &BTreeMap<String, WorkloadMetrics>,
    b: &BTreeMap<String, WorkloadMetrics>,
) -> (String, usize) {
    let mut table = format!(
        "{:<14} {:<38} {:>14} {:>14} {:>9} {:>9}  {:<24} verdict\n",
        "workload", "metric", "A median", "B median", "A spread", "B spread", "B/A (base A)"
    );
    let mut regressions = 0;
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for (metric, &side_a) in metrics_a {
            let Some(&side_b) = metrics_b.get(metric) else {
                continue;
            };
            let ratio = if side_a.0 == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4} (A={:.4})", side_b.0 / side_a.0, side_a.0)
            };
            let verdict = match bounds.get(metric) {
                Some(&bound) if side_a.0 != 0.0 => {
                    let (worse, verdict) = judge(bound, side_a, side_b);
                    regressions += usize::from(verdict == Verdict::Regress);
                    format!(
                        "{verdict:?} (worse by {:+.4}, bound {})",
                        worse, bound.share
                    )
                }
                _ => "-".to_string(),
            };
            table += &format!(
                "{workload:<14} {metric:<38} {:>14.4} {:>14.4} {:>9.4} {:>9.4}  {ratio:<24} {verdict}\n",
                side_a.0, side_b.0, side_a.1, side_b.1
            );
        }
    }
    (table, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        higher_is_better: false,
        share: 0.1,
    };
    const HIGHER: Bound = Bound {
        higher_is_better: true,
        share: 0.1,
    };

    #[test]
    fn judge_pass_regress_unresolved() {
        // Lower is better: +5 % passes, +20 % regresses, -50 % passes.
        assert_eq!(judge(LOWER, (100.0, 0.01), (105.0, 0.01)).1, Verdict::Pass);
        assert_eq!(
            judge(LOWER, (100.0, 0.01), (120.0, 0.01)).1,
            Verdict::Regress
        );
        assert_eq!(judge(LOWER, (100.0, 0.01), (50.0, 0.01)).1, Verdict::Pass);
        // Higher is better: the same moves, mirrored.
        assert_eq!(judge(HIGHER, (100.0, 0.01), (95.0, 0.01)).1, Verdict::Pass);
        assert_eq!(
            judge(HIGHER, (100.0, 0.01), (80.0, 0.01)).1,
            Verdict::Regress
        );
        assert_eq!(judge(HIGHER, (100.0, 0.01), (150.0, 0.01)).1, Verdict::Pass);
        // Either side's spread above the bound: unresolved, whatever the move.
        assert_eq!(
            judge(LOWER, (100.0, 0.2), (120.0, 0.01)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(LOWER, (100.0, 0.01), (100.0, 0.2)).1,
            Verdict::Unresolved
        );
        let (worse, _) = judge(HIGHER, (200.0, 0.0), (150.0, 0.0));
        assert!((worse - 0.25).abs() < 1e-12);
    }

    #[test]
    fn diff_counts_regressions_and_skips_unbounded_metrics() {
        let bounds = read_bounds(
            r#"{"end_to_end": [
                {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
                {"name": "rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.07}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds["rows_per_s"],
            Bound {
                higher_is_better: true,
                share: 0.07
            }
        );
        let side = |p50: f64, rows: f64| {
            BTreeMap::from([(
                "offline-toxic".to_string(),
                WorkloadMetrics::from([
                    ("latency_p50_us".to_string(), (p50, 0.01)),
                    ("rows_per_s".to_string(), (rows, 0.01)),
                    ("plan.self_share".to_string(), (0.2, 0.0)),
                ]),
            )])
        };
        let (table, regressions) = diff(&bounds, &side(10.0, 1000.0), &side(10.5, 1000.0));
        assert_eq!(regressions, 0, "{table}");
        let (table, regressions) = diff(&bounds, &side(10.0, 1000.0), &side(12.0, 900.0));
        assert_eq!(regressions, 2, "{table}");
        assert!(table.contains("plan.self_share"));
        assert_eq!(table.lines().count(), 4);
    }
}
