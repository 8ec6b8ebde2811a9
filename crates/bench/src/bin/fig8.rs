//! Figure 8: example-at-a-time parallelization. Left: real benchmarks
//! (Product, Toxic), where one dominant IFV Amdahl-limits the gains.
//! Right: a synthetic pipeline of four identical TF-IDF feature
//! generators, which parallelizes nearly linearly.
//!
//! Each row forces one input's generators into that many groups
//! (`Executor::features_one_in_groups`), whatever they cost; a serving
//! plan's `PlanExecutor::run_row` computes one input serially.
//!
//! Flags:
//!
//! - `--smoke`: tiny workloads, corpora, and input counts — a
//!   CI-speed sanity pass that also validates the committed
//!   EXPERIMENTS.md schema header (never rewrites the file).
//! - `--record`: re-measure at full experiment size and rewrite this
//!   binary's EXPERIMENTS.md section.

use std::sync::Arc;

use willump_bench::{fmt_speedup, format_table, generate, generate_smoke, run_recorded_experiment};
use willump_data::text::SyntheticVocab;
use willump_data::{Column, Table};
use willump_featurize::{Analyzer, TfIdfVectorizer, VectorizerConfig};
use willump_graph::cost::measure_costs;
use willump_graph::{EngineMode, Executor, GraphBuilder, InputRow, Operator};
use willump_workloads::WorkloadKind;

/// The schema header CI greps for in EXPERIMENTS.md; bump the version
/// when the recorded table shape changes.
const EXPERIMENTS_SCHEMA: &str = "<!-- schema: fig8-parallel-speedup v1 -->";
const RECORD_CMD: &str = "cargo run --release -p willump-bench --bin fig8 -- --record";

/// Mean feature-computation latency over `n` inputs: serial (`None`),
/// or split into this many generator groups whatever they cost.
fn latency(exec: &Executor, table: &Table, n: usize, groups: Option<usize>) -> f64 {
    let n = n.min(table.n_rows());
    let inputs: Vec<InputRow> = (0..n)
        .map(|r| InputRow::from_table(table, r).expect("row"))
        .collect();
    let features = |input: &InputRow| match groups {
        None => exec.features_one(input, None).map(drop),
        Some(groups) => exec.features_one_in_groups(input, None, groups).map(drop),
    };
    let _ = features(&inputs[0]);
    let start = std::time::Instant::now();
    for input in &inputs {
        features(input).expect("features");
    }
    start.elapsed().as_secs_f64() / n as f64
}

fn bench_real(kind: WorkloadKind, smoke: bool, rows: &mut Vec<Vec<String>>) {
    let w = if smoke {
        generate_smoke(kind, false)
    } else {
        generate(kind, false)
    };
    let n = if smoke { 40 } else { 200 };
    let base_exec =
        Executor::new(w.pipeline.graph().clone(), EngineMode::Compiled).expect("executor builds");
    let costs = measure_costs(&base_exec, &w.train).expect("costs measured");
    let n_fgs = base_exec.analysis().generators.len();
    let serial = latency(&base_exec, &w.test, n, None);
    let exec = base_exec.with_generator_costs(costs.per_generator);
    for groups in 1..=n_fgs {
        let lat = latency(&exec, &w.test, n, Some(groups));
        rows.push(vec![
            kind.name().to_string(),
            groups.to_string(),
            fmt_speedup(serial / lat),
        ]);
    }
}

/// The paper's synthetic benchmark: the same TF-IDF operator four
/// times over four independent inputs, concatenated, then a linear
/// model — embarrassingly parallel across IFVs.
fn bench_synthetic(smoke: bool, rows: &mut Vec<Vec<String>>) {
    let (corpus_docs, col_docs, doc_words, n_inputs) = if smoke {
        (80, 50, 80, 30)
    } else {
        (300, 200, 220, 150)
    };
    let vocab = SyntheticVocab::new(2_000);
    let mut rng = willump_data::rng::seeded(11);
    // Long documents so each TF-IDF generator does ~100 us of work per
    // input — the regime the paper's synthetic benchmark targets,
    // where per-generator compute dominates dispatch overhead.
    let corpus: Vec<String> = (0..corpus_docs)
        .map(|_| vocab.document(&mut rng, doc_words, None, 0.0))
        .collect();
    let mut tfidf = TfIdfVectorizer::new(VectorizerConfig {
        analyzer: Analyzer::Char,
        ngram_lo: 3,
        ngram_hi: 5,
        min_df: 2,
        sublinear_tf: true,
        ..VectorizerConfig::default()
    })
    .expect("config valid");
    tfidf.fit(&corpus);
    let tfidf = Arc::new(tfidf);

    let mut b = GraphBuilder::new();
    let mut fgs = Vec::new();
    for i in 0..4 {
        let src = b.source(format!("text{i}"));
        let f = b
            .add(
                format!("tfidf{i}"),
                Operator::TfIdf(Arc::clone(&tfidf)),
                [src],
            )
            .expect("node added");
        fgs.push(f);
    }
    let graph = Arc::new(b.finish_with_concat("features", fgs).expect("graph built"));

    let mut table = Table::new();
    for i in 0..4 {
        let docs: Vec<String> = (0..col_docs)
            .map(|_| vocab.document(&mut rng, doc_words, None, 0.0))
            .collect();
        table
            .add_column(format!("text{i}"), Column::from(docs))
            .expect("column added");
    }

    // Equal generators: LPT's uniform costs.
    let exec = Executor::new(graph, EngineMode::Compiled).expect("executor builds");
    let serial = latency(&exec, &table, n_inputs, None);
    for groups in 1..=4 {
        let lat = latency(&exec, &table, n_inputs, Some(groups));
        rows.push(vec![
            "synthetic-4xTFIDF".to_string(),
            groups.to_string(),
            fmt_speedup(serial / lat),
        ]);
    }
}

fn speedup_table(smoke: bool) -> String {
    let mut rows = Vec::new();
    bench_real(WorkloadKind::Product, smoke, &mut rows);
    bench_real(WorkloadKind::Toxic, smoke, &mut rows);
    bench_synthetic(smoke, &mut rows);
    format_table(
        "Figure 8: per-input parallelization speedup (feature computation latency)",
        &["pipeline", "threads", "speedup"],
        &rows,
    )
}

fn main() {
    run_recorded_experiment(EXPERIMENTS_SCHEMA, RECORD_CMD, |smoke| {
        let table = speedup_table(smoke);
        let body = format!(
            "Per-input parallelization speedup (paper Figure 8): real \
             benchmarks are Amdahl-limited by one\ndominant IFV, the \
             synthetic 4x-TF-IDF pipeline parallelizes nearly linearly. \
             Regenerate with\n`{RECORD_CMD}`.\n{table}"
        );
        (table, body)
    });
}
