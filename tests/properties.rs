//! Property-based tests on the core invariants the optimizer relies
//! on: the IFV partition, layout remapping, Algorithm 1's guarantees,
//! cascade correctness at extreme thresholds, and data-structure
//! round trips.

use proptest::prelude::*;
use std::sync::Arc;

use willump::efficient::{select_efficient_ifvs, SelectionStrategy};
use willump::stats::IfvStats;
use willump_data::{Matrix, SparseMatrix, SparseRowBuilder};
use willump_graph::analysis::identify_ifvs;
use willump_graph::{EngineMode, Executor, GraphBuilder, Operator, TransformGraph};
use willump_store::LruCache;

/// Build a random multi-generator graph: `widths[i]` string-stats
/// chains per generator are not varied (all StringStats), but the
/// number of generators and shared sources are.
fn arb_graph(n_fgs: usize, shared_source: bool) -> Arc<TransformGraph> {
    let mut b = GraphBuilder::new();
    let shared = if shared_source {
        Some(b.source("shared"))
    } else {
        None
    };
    let mut roots = Vec::new();
    for i in 0..n_fgs {
        let src = match (shared, i % 2 == 0) {
            (Some(s), true) => s,
            _ => b.source(format!("col{i}")),
        };
        let node = b
            .add(format!("stats{i}"), Operator::StringStats, [src])
            .expect("node added");
        roots.push(node);
    }
    Arc::new(b.finish_with_concat("cat", roots).expect("graph built"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rules 1-3: generators partition all non-preprocessing,
    /// non-commutative nodes, and each non-shared source belongs to
    /// exactly one generator.
    #[test]
    fn ifv_partition_is_disjoint_cover(n_fgs in 1usize..7, shared in any::<bool>()) {
        let g = arb_graph(n_fgs, shared);
        let analysis = identify_ifvs(&g).unwrap();
        prop_assert_eq!(analysis.generators.len(), n_fgs);
        let mut seen = vec![0usize; g.len()];
        for gen in &analysis.generators {
            for &id in &gen.nodes {
                seen[id] += 1;
            }
        }
        for &id in &analysis.preprocessing {
            seen[id] += 1;
        }
        for &id in &analysis.commutative {
            seen[id] += 1;
        }
        // Every node appears in exactly one bucket.
        for (id, count) in seen.iter().enumerate() {
            prop_assert_eq!(*count, 1, "node {} in {} buckets", id, count);
        }
    }

    /// Topological order: every edge goes forward.
    #[test]
    fn topo_order_respects_edges(n_fgs in 1usize..7, shared in any::<bool>()) {
        let g = arb_graph(n_fgs, shared);
        let mut pos = vec![0usize; g.len()];
        for (i, &id) in g.topo_order().iter().enumerate() {
            pos[id] = i;
        }
        for node in g.nodes() {
            for &inp in &node.inputs {
                prop_assert!(pos[inp] < pos[node.id]);
            }
        }
    }

    /// Any subset's features equal the matching column range of the
    /// full features.
    #[test]
    fn subset_features_are_slices_of_full(
        n_fgs in 2usize..5,
        pick in prop::collection::vec(any::<bool>(), 2..5),
    ) {
        let g = arb_graph(n_fgs, false);
        let exec = Executor::new(g, EngineMode::Compiled).unwrap();
        let subset: Vec<usize> = (0..n_fgs).filter(|&i| *pick.get(i).unwrap_or(&false)).collect();
        prop_assume!(!subset.is_empty());

        let mut table = willump_data::Table::new();
        for i in 0..n_fgs {
            table
                .add_column(
                    format!("col{i}"),
                    willump_data::Column::from(vec![format!("text {i} one"), format!("x{i}!!")]),
                )
                .unwrap();
        }
        let full = exec.features_batch(&table, None).unwrap();
        let sub = exec.features_batch(&table, Some(&subset)).unwrap();
        // Column offsets: each generator occupies 8 columns.
        for r in 0..table.n_rows() {
            let full_e = full.row_entries(r);
            let mut expected: Vec<(usize, f64)> = Vec::new();
            for (new_idx, &gidx) in subset.iter().enumerate() {
                let lo = gidx * 8;
                for (c, v) in &full_e {
                    if *c >= lo && *c < lo + 8 {
                        expected.push((c - lo + new_idx * 8, *v));
                    }
                }
            }
            expected.sort_unstable_by_key(|(c, _)| *c);
            prop_assert_eq!(sub.row_entries(r), expected);
        }
    }

    /// Algorithm 1 always respects the cost budget and returns sorted,
    /// deduplicated indices.
    #[test]
    fn efficient_selection_respects_budget(
        importance in prop::collection::vec(0.0f64..10.0, 1..10),
        cost in prop::collection::vec(0.001f64..10.0, 1..10),
        gamma in 0.0f64..1.0,
        frac in 0.05f64..1.0,
    ) {
        let n = importance.len().min(cost.len());
        let stats = IfvStats {
            importance: importance[..n].to_vec(),
            cost: cost[..n].to_vec(),
            boundary_cost: 0.0,
        };
        let subset = select_efficient_ifvs(
            &stats,
            SelectionStrategy::CostEffective { gamma, use_gamma_rule: true },
            frac,
        );
        let total: f64 = stats.cost.iter().sum();
        let chosen: f64 = subset.iter().map(|&g| stats.cost[g]).sum();
        prop_assert!(chosen <= total * frac + 1e-9);
        let mut sorted = subset.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted, subset);
    }

    /// Sparse matrices round-trip through dense.
    #[test]
    fn sparse_dense_round_trip(
        rows in prop::collection::vec(
            prop::collection::vec((0usize..16, -5.0f64..5.0), 0..8),
            0..8,
        )
    ) {
        let mut b = SparseRowBuilder::new(16);
        for r in &rows {
            b.push_row(r);
        }
        let m = b.finish();
        let d: Matrix = m.to_dense();
        let back = SparseMatrix::from_dense(&d);
        prop_assert_eq!(m.to_dense(), back.to_dense());
    }

    /// The LRU cache never exceeds its capacity and always returns the
    /// latest value written for a key.
    #[test]
    fn lru_capacity_and_freshness(
        capacity in 1usize..8,
        ops in prop::collection::vec((0u8..16, 0i32..100), 1..100),
    ) {
        let mut cache = LruCache::with_capacity(capacity);
        let mut last: std::collections::HashMap<u8, i32> = std::collections::HashMap::new();
        for (k, v) in ops {
            cache.put(k, v);
            last.insert(k, v);
            prop_assert!(cache.len() <= capacity);
        }
        // Any cached value must be the most recently written one.
        for (k, v) in &last {
            if let Some(cached) = cache.peek(k) {
                prop_assert_eq!(cached, v);
            }
        }
    }

    /// Matrix hstack width/row bookkeeping.
    #[test]
    fn hstack_shapes(
        a_cols in 1usize..5,
        b_cols in 1usize..5,
        rows in 1usize..6,
    ) {
        let a = Matrix::zeros(rows, a_cols);
        let b = Matrix::zeros(rows, b_cols);
        let h = Matrix::hstack(&[&a, &b]).unwrap();
        prop_assert_eq!(h.n_rows(), rows);
        prop_assert_eq!(h.n_cols(), a_cols + b_cols);
    }

    /// Quantile binning is monotone: larger inputs never land in a
    /// smaller bin, and every output is a valid bin index.
    #[test]
    fn quantile_binner_is_monotone(
        values in prop::collection::vec(-1e6f64..1e6, 2..200),
        n_bins in 2usize..12,
        queries in prop::collection::vec(-2e6f64..2e6, 0..50),
    ) {
        use willump_featurize::QuantileBinner;
        let mut b = QuantileBinner::new(n_bins).unwrap();
        b.fit(&values).unwrap();
        prop_assert!(b.n_bins() >= 1 && b.n_bins() <= n_bins);
        let mut sorted_queries = queries;
        sorted_queries.sort_unstable_by(|a, c| a.partial_cmp(c).unwrap());
        let mut prev_bin = 0usize;
        for q in sorted_queries {
            let bin = b.transform_one(q).unwrap();
            prop_assert!(bin < b.n_bins());
            prop_assert!(bin >= prev_bin, "monotonicity violated");
            prev_bin = bin;
        }
    }

    /// Target encoding always lands between the extreme labels and
    /// unknown categories hit the prior exactly.
    #[test]
    fn target_encoder_bounded_by_labels(
        pairs in prop::collection::vec((0u8..6, any::<bool>()), 1..100),
        smoothing in 0.0f64..50.0,
    ) {
        use willump_featurize::TargetEncoder;
        let cats: Vec<String> = pairs.iter().map(|(c, _)| format!("c{c}")).collect();
        let labels: Vec<f64> = pairs.iter().map(|(_, y)| f64::from(*y)).collect();
        let mut e = TargetEncoder::new(smoothing).unwrap();
        e.fit(&cats, &labels).unwrap();
        let lo = labels.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = labels.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for c in &cats {
            let code = e.transform_one(c).unwrap();
            prop_assert!(code >= lo - 1e-12 && code <= hi + 1e-12);
        }
        prop_assert!((e.transform_one("never-seen").unwrap() - e.prior()).abs() < 1e-12);
    }

    /// Isotonic calibration output is non-decreasing over any query
    /// sequence and stays in the label range.
    #[test]
    fn isotonic_calibration_is_monotone(
        pairs in prop::collection::vec((0.0f64..1.0, any::<bool>()), 2..150),
    ) {
        use willump_models::IsotonicCalibrator;
        let scores: Vec<f64> = pairs.iter().map(|(s, _)| *s).collect();
        let labels: Vec<f64> = pairs.iter().map(|(_, y)| f64::from(*y)).collect();
        let iso = IsotonicCalibrator::fit(&scores, &labels).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=50 {
            let q = i as f64 / 50.0;
            let c = iso.calibrate(q);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    /// `top_k_indices` selects before it sorts; its definition sorts
    /// everything (score descending, index ascending) and truncates.
    /// Few distinct scores, so ties are the common case.
    #[test]
    fn top_k_is_the_prefix_of_the_full_sort(
        levels in prop::collection::vec(0u8..5, 0..60),
        all_equal in any::<bool>(),
        k in 0usize..70,
    ) {
        use willump_models::metrics::top_k_indices;
        let scores: Vec<f64> = levels
            .iter()
            .map(|l| if all_equal { 0.5 } else { f64::from(*l) / 4.0 })
            .collect();
        let mut sorted: Vec<usize> = (0..scores.len()).collect();
        sorted.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
        sorted.truncate(k);
        prop_assert_eq!(top_k_indices(&scores, k), sorted);
        prop_assert!(top_k_indices(&scores, 0).is_empty());
        prop_assert_eq!(
            top_k_indices(&scores, scores.len() + k).len(),
            scores.len()
        );
    }

    /// Fault plans are deterministic and hit close to the nominal rate.
    #[test]
    fn fault_plan_rate_is_respected(rate in 0.0f64..1.0, seed in any::<u64>()) {
        use willump_store::FaultPlan;
        let plan = FaultPlan { rate, seed };
        let n = 2000u64;
        let hits = (0..n).filter(|&i| plan.fails(i)).count() as f64;
        let observed = hits / n as f64;
        prop_assert!((observed - rate).abs() < 0.08, "rate {rate}, observed {observed}");
        // Determinism.
        prop_assert_eq!(plan.fails(7), plan.fails(7));
    }

    /// The hashing vectorizer is deterministic, bounded, and agrees
    /// between batch and single-row paths on arbitrary text.
    #[test]
    fn hashing_vectorizer_batch_matches_single(
        docs in prop::collection::vec(".{0,40}", 1..10),
        width_pow in 3u32..10,
    ) {
        use willump_featurize::{HashingVectorizer, VectorizerConfig};
        let v = HashingVectorizer::new(
            VectorizerConfig::default(),
            1usize << width_pow,
        ).unwrap();
        let batch = v.transform(&docs);
        for (r, d) in docs.iter().enumerate() {
            let row = v.transform_one(d);
            prop_assert_eq!(batch.row_pairs(r), row.clone());
            prop_assert!(row.iter().all(|(c, _)| *c < v.n_features()));
        }
    }

    /// The pipeline DSL accepts any topology of valid statements and
    /// produces a graph whose sources match the declared ones.
    #[test]
    fn pipeline_dsl_builds_declared_sources(n_sources in 1usize..6) {
        use std::collections::HashMap;
        use willump_graph::parse_pipeline;
        let mut text = String::new();
        for i in 0..n_sources {
            text.push_str(&format!("source col{i}\n"));
        }
        for i in 0..n_sources {
            text.push_str(&format!("f{i} = string_stats(col{i})\n"));
        }
        let args: Vec<String> = (0..n_sources).map(|i| format!("f{i}")).collect();
        text.push_str(&format!("features = concat({})\n", args.join(", ")));
        let g = parse_pipeline(&text, &HashMap::new()).unwrap();
        let sources = g.source_columns();
        prop_assert_eq!(sources.len(), n_sources);
        prop_assert_eq!(g.out_dim(), 8 * n_sources);
    }
}

/// Cascade at threshold 1.0 equals the full model exactly (not a
/// proptest: needs training, so run once).
#[test]
fn cascade_threshold_one_is_exact() {
    use willump::{Willump, WillumpConfig};
    use willump_workloads::{WorkloadConfig, WorkloadKind};

    let w = WorkloadKind::Product
        .generate(&WorkloadConfig::small())
        .expect("generates");
    let cfg = WillumpConfig {
        cascade_gate: false,
        ..WillumpConfig::default()
    };
    let mut opt = Willump::new(cfg)
        .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
        .expect("optimizes");
    if let Some(c) = opt.cascade_mut() {
        c.set_threshold(1.0);
    } else {
        return;
    }
    let scores = opt.predict_batch(&w.test).expect("predicts");
    let feats = opt
        .executor()
        .features_batch(&w.test, None)
        .expect("features");
    let full = opt.full_model().predict_scores(&feats);
    for (a, b) in scores.iter().zip(&full) {
        assert!((a - b).abs() < 1e-12);
    }
}
