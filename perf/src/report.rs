//! Metric names and units, and the JSON a run prints and writes.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::{Content, DeError, Deserialize, Serialize};

use crate::setup::{err, Res};
use crate::stats::Stat;
use crate::workloads::{Outcome, Params, Workload};

/// The end-to-end metrics (`BENCHMARK.json` `end_to_end`), measured
/// with tracing off: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("quality", "fraction"),
    ("ok_share", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics (`BENCHMARK.json` `per_layer`), from the
/// traced run: name and unit, grouped by layer.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("featurize.tfidf_us_per_doc", "us/doc"),
    ("featurize.join_us_per_row", "us/row"),
    ("graph.features_efficient_us_per_row", "us/row"),
    ("graph.features_full_us_per_row", "us/row"),
    ("graph.features_one_us", "us"),
    ("graph.efficient_cost_share", "fraction"),
    ("models.small_predict_us_per_row", "us/row"),
    ("models.full_predict_us_per_row", "us/row"),
    ("store.get_batch_us_per_key", "us/key"),
    ("store.keys_per_row", "count"),
    ("store.round_trips_per_query", "count"),
    ("plan.run_batch_us_per_row", "us/row"),
    ("plan.run_one_us", "us"),
    ("plan.self_share", "fraction"),
    ("plan.escalation_rate", "fraction"),
    ("plan.gate_resolved_share", "fraction"),
    ("plan.filter_kept_share", "fraction"),
    ("plan.topk_precision", "fraction"),
    ("plan.allocs_per_row", "count"),
    ("plan.alloc_bytes_per_row", "bytes"),
    ("optimize.optimize_s", "s"),
    ("optimize.train_s", "s"),
    ("optimize.generate_s", "s"),
    ("runtime.call_us_p50", "us"),
    ("runtime.call_at_rate_us_p50", "us"),
    ("runtime.overhead_us", "us"),
    ("runtime.mean_model_batch_rows", "rows"),
    ("runtime.coalesced_share", "fraction"),
    ("runtime.max_batch_rows", "rows"),
    ("runtime.shed", "count"),
    ("runtime.degraded", "count"),
    ("runtime.allocs_per_request", "count"),
    ("wire2.encode_request_ns.r1", "ns"),
    ("wire2.decode_request_ns.r1", "ns"),
    ("wire2.encode_response_ns.r1", "ns"),
    ("wire2.decode_response_ns.r1", "ns"),
    ("wire2.request_bytes.r1", "bytes"),
    ("wire2.response_bytes.r1", "bytes"),
    ("wire2.allocs_per_frame.r1", "count"),
    ("wire2.encode_request_ns.r32", "ns"),
    ("wire2.decode_request_ns.r32", "ns"),
    ("wire2.encode_response_ns.r32", "ns"),
    ("wire2.decode_response_ns.r32", "ns"),
    ("wire2.request_bytes.r32", "bytes"),
    ("wire2.response_bytes.r32", "bytes"),
    ("wire2.allocs_per_frame.r32", "count"),
    ("remote.forward_us_p50", "us"),
    ("remote.forward_at_rate_us_p50", "us"),
    ("remote.hop_us", "us"),
    ("remote.residual_us", "us"),
    ("remote.bytes_sent_per_req", "bytes"),
    ("remote.bytes_received_per_req", "bytes"),
    ("remote.max_in_flight", "count"),
    ("remote.failures", "count"),
    ("remote.reconnects", "count"),
    ("loadgen.lag_p50_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.offered", "count"),
    ("loadgen.served", "count"),
    ("closure.offline_residual_share", "fraction"),
    ("closure.serve_local_residual_share", "fraction"),
    ("closure.serve_remote_residual_share", "fraction"),
    ("trace.overhead_share", "fraction"),
];

/// The metric names and units a run with `trace` on or off must print.
pub fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// A JSON document as the vendored `serde` models it.
pub struct Json(pub Content);

impl Serialize for Json {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_content(content: &Content) -> Result<Json, DeError> {
        Ok(Json(content.clone()))
    }
}

pub fn render(content: Content) -> Res<String> {
    serde_json::to_string(&Json(content)).map_err(err)
}

pub fn parse(text: &str) -> Res<Content> {
    serde_json::from_str::<Json>(text).map(|j| j.0).map_err(err)
}

pub fn number(c: &Content) -> Option<f64> {
    match c {
        Content::Int(i) => Some(*i as f64),
        Content::UInt(u) => Some(*u as f64),
        Content::Float(f) => Some(*f),
        _ => None,
    }
}

pub fn map(pairs: Vec<(&str, Content)>) -> Content {
    Content::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Where runs leave their files: `perf/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_out(file: &str, content: Content) -> Res<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(err)?;
    let path = dir.join(file);
    std::fs::write(&path, render(content)? + "\n").map_err(err)?;
    Ok(path)
}

/// One finished run, ready to print.
pub struct Report {
    pub workload: Workload,
    pub params: Params,
    pub trace: bool,
    pub outcome: Outcome,
}

impl Report {
    /// Every expected metric by name; a layer the workload does not
    /// execute reads 0.
    fn metrics(&self) -> Vec<(&'static str, &'static str, Stat)> {
        expected(self.trace)
            .iter()
            .map(|&(name, unit)| {
                let stat = self.outcome.metrics.get(name).copied();
                (name, unit, stat.unwrap_or(Stat::exact(0.0)))
            })
            .collect()
    }

    /// Outputs were right: no failed or wrong answer, no metric
    /// outside the declared set, and every end-to-end metric present.
    pub fn correct(&self) -> bool {
        let declared = expected(self.trace);
        self.outcome.failed == 0
            && self
                .outcome
                .metrics
                .keys()
                .all(|k| declared.iter().any(|(n, _)| n == k))
            && (self.trace
                || declared
                    .iter()
                    .all(|(n, _)| self.outcome.metrics.contains_key(*n)))
    }

    /// `{name: {value, unit[, spread]}}` for every expected metric.
    fn metrics_json(&self, with_spread: bool) -> Content {
        let entries = self.metrics().into_iter().map(|(name, unit, stat)| {
            let mut entry = vec![
                ("value", Content::Float(stat.value)),
                ("unit", Content::Str(unit.to_string())),
            ];
            if with_spread {
                entry.push(("spread", Content::Float(stat.spread)));
            }
            (name.to_string(), map(entry))
        });
        Content::Map(entries.collect())
    }

    /// The contract's result line: `correct`, `attempted`, `failed`,
    /// and `metrics` as `{name: {value, unit}}`.
    pub fn result_line(&self) -> Res<String> {
        render(map(vec![
            ("correct", Content::Bool(self.correct())),
            ("attempted", Content::UInt(self.outcome.attempted)),
            ("failed", Content::UInt(self.outcome.failed)),
            ("metrics", self.metrics_json(false)),
        ]))
    }

    /// The result file: the result line's content plus each metric's
    /// window spread, the notes, and the run's parameters.
    pub fn to_json(&self) -> Content {
        let notes = self
            .outcome
            .notes
            .iter()
            .map(|(k, v)| (k.clone(), Content::Float(*v)))
            .collect();
        map(vec![
            ("workload", Content::Str(self.workload.name().to_string())),
            ("seed", Content::UInt(self.params.seed)),
            ("seconds", Content::Float(self.params.seconds)),
            ("setups", Content::UInt(self.params.setups as u64)),
            ("trace", Content::Bool(self.trace)),
            ("correct", Content::Bool(self.correct())),
            ("attempted", Content::UInt(self.outcome.attempted)),
            ("failed", Content::UInt(self.outcome.failed)),
            ("metrics", self.metrics_json(true)),
            ("notes", Content::Map(notes)),
        ])
    }

    /// The table a person reads: every metric with unit and spread.
    pub fn table(&self) -> String {
        let mut s = format!(
            "{} seed={} seconds={} trace={}\n",
            self.workload.name(),
            self.params.seed,
            self.params.seconds,
            u8::from(self.trace)
        );
        for (name, unit, stat) in self.metrics() {
            s += &format!(
                "  {name:<40} {:>16.4} {unit:<9} {name}.spread {:.4}\n",
                stat.value, stat.spread
            );
        }
        for (k, v) in &self.outcome.notes {
            s += &format!("  note {k:<35} {v:>16.4}\n");
        }
        s
    }

    pub fn result_file(&self) -> String {
        let kind = if self.trace { "trace.result" } else { "result" };
        format!("{}.{kind}.json", self.workload.name())
    }
}

/// Fold the result files of repeated runs of one workload into one:
/// every metric's `value` becomes the median over the runs and its
/// `spread` their inter-quartile distance as a share of that median —
/// the run-to-run spread `diff` holds against the bounds. A single run
/// is returned as it is, with the spread of its own windows.
pub fn fold_runs(mut runs: Vec<Content>) -> Res<Content> {
    let count = runs.len();
    let Some(Content::Map(mut base)) = runs.pop() else {
        return Err("no run to fold".into());
    };
    if count > 1 {
        let Some((_, Content::Map(metrics))) = base.iter_mut().find(|(k, _)| k == "metrics") else {
            return Err("result file without `metrics`".into());
        };
        for (name, entry) in metrics.iter_mut() {
            let value =
                |run: &Content| run.get("metrics")?.get(name)?.get("value").and_then(number);
            let mut values: Vec<f64> = runs.iter().filter_map(value).collect();
            values.extend(entry.get("value").and_then(number));
            let stat = Stat::of(&values);
            if let Content::Map(fields) = entry {
                for (key, field) in fields.iter_mut() {
                    match key.as_str() {
                        "value" => *field = Content::Float(stat.value),
                        "spread" => *field = Content::Float(stat.spread),
                        _ => {}
                    }
                }
            }
        }
    }
    base.push(("runs".to_string(), Content::UInt(count as u64)));
    Ok(Content::Map(base))
}

/// Metric name → (value, spread) of one workload in a summary file.
pub type WorkloadMetrics = BTreeMap<String, (f64, f64)>;

/// Read the `workloads` of a summary written by `perf all`.
pub fn read_summary(text: &str) -> Res<BTreeMap<String, WorkloadMetrics>> {
    let doc = parse(text)?;
    let Some(Content::Map(workloads)) = doc.get("workloads") else {
        return Err("summary has no `workloads` object".into());
    };
    let mut out = BTreeMap::new();
    for (name, runs) in workloads {
        let mut metrics = WorkloadMetrics::new();
        // Both runs of a workload: `end_to_end` and `per_layer`.
        for run in ["end_to_end", "per_layer"] {
            if let Some(Content::Map(entries)) = runs.get(run).and_then(|r| r.get("metrics")) {
                for (metric, entry) in entries {
                    let value = entry
                        .get("value")
                        .and_then(number)
                        .ok_or("metric without value")?;
                    let spread = entry.get("spread").and_then(number).unwrap_or(0.0);
                    metrics.insert(metric.clone(), (value, spread));
                }
            }
        }
        out.insert(name.clone(), metrics);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(rows_per_s: f64) -> Content {
        map(vec![
            ("workload", Content::Str("w".into())),
            (
                "metrics",
                map(vec![(
                    "rows_per_s",
                    map(vec![
                        ("value", Content::Float(rows_per_s)),
                        ("unit", Content::Str("rows/s".into())),
                        ("spread", Content::Float(0.5)),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn folding_runs_reports_median_and_run_to_run_spread() {
        let folded = fold_runs(vec![result(90.0), result(110.0), result(100.0)]).unwrap();
        let m = folded.get("metrics").unwrap().get("rows_per_s").unwrap();
        assert_eq!(m.get("value").and_then(number), Some(100.0));
        // statistics.quantiles([90, 100, 110], n=4) == [90, 100, 110]
        assert_eq!(m.get("spread").and_then(number), Some(0.2));
        assert_eq!(folded.get("runs").and_then(number), Some(3.0));
        // One run keeps the spread of its own windows.
        let single = fold_runs(vec![result(90.0)]).unwrap();
        let m = single.get("metrics").unwrap().get("rows_per_s").unwrap();
        assert_eq!(m.get("spread").and_then(number), Some(0.5));
        assert!(fold_runs(Vec::new()).is_err());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let summary = map(vec![(
            "workloads",
            map(vec![("w", map(vec![("end_to_end", result(7.0))]))]),
        )]);
        let read = read_summary(&render(summary).unwrap()).unwrap();
        assert_eq!(read["w"]["rows_per_s"], (7.0, 0.5));
    }
}
