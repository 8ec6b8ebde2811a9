//! The executor: compiled and interpreted engines over one graph.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use willump_data::{FeatureMatrix, Table, Value};

use crate::analysis::{identify_ifvs, IfvAnalysis};
use crate::cache::{source_key, FeatureCaches};
use crate::graph::{NodeId, TransformGraph};
use crate::interp;
use crate::op::{BatchOut, RowOut};
use crate::parallel::{claim, lpt_assign};
use crate::row::{InputRow, RowFeatures};
use crate::{GraphError, Operator};

/// Which engine executes the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Row-at-a-time boxed-value execution: the Python-baseline
    /// stand-in (see DESIGN.md substitutions).
    Interpreted,
    /// Columnar, batched, fused execution: the Weld stand-in.
    Compiled,
}

/// Per-input parallelization (paper §4.4: query-aware
/// parallelization, the example-at-a-time half).
///
/// The batch half — different data inputs on different threads — is
/// not an executor setting: `willump::PlanExecutor::run_batch` splits a
/// large batch of a row-local plan into row chunks and runs the whole
/// plan on each, so model scoring and escalation run in parallel too,
/// not only feature computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded.
    None,
    /// Example-at-a-time queries: one input's feature generators run
    /// concurrently as this many groups, statically LPT-assigned by
    /// cost, which the calling thread and the process's helper pool
    /// claim in turn (see [`crate::parallel`]).
    PerInput(usize),
}

/// Execution counters (cache effectiveness, work performed).
#[derive(Debug, Default)]
pub struct ExecStats {
    generators_computed: AtomicU64,
    cache_hits: AtomicU64,
}

impl ExecStats {
    /// Number of feature-generator evaluations actually performed.
    pub fn generators_computed(&self) -> u64 {
        self.generators_computed.load(Ordering::Relaxed)
    }

    /// Number of generator evaluations skipped via the feature cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Reset counters.
    pub fn reset(&self) {
        self.generators_computed.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
    }
}

/// Executes a [`TransformGraph`] under a chosen engine, optionally
/// restricted to a subset of feature generators (the mechanism behind
/// cascades), with optional feature-level caching and parallelism.
#[derive(Debug, Clone)]
pub struct Executor {
    graph: Arc<TransformGraph>,
    analysis: Arc<IfvAnalysis>,
    mode: EngineMode,
    parallelism: Parallelism,
    caches: Option<FeatureCaches>,
    /// Per-generator source columns the IFV depends on (cache keys;
    /// precomputed because the serving path consults them per row).
    key_columns: Arc<Vec<Vec<String>>>,
    /// Per-generator evaluation order of the single-input path: the
    /// preprocessing nodes and the generator's own, topologically.
    row_orders: Arc<Vec<Vec<NodeId>>>,
    /// Per-generator feature widths.
    widths: Arc<Vec<usize>>,
    /// Per-generator per-row costs (seconds) for LPT assignment.
    generator_costs: Option<Arc<Vec<f64>>>,
    stats: Arc<ExecStats>,
}

impl Executor {
    /// Build an executor; runs IFV identification once.
    ///
    /// # Errors
    /// Propagates analysis failures.
    pub fn new(graph: Arc<TransformGraph>, mode: EngineMode) -> Result<Executor, GraphError> {
        let analysis = identify_ifvs(&graph)?;
        let key_columns = Arc::new(
            analysis
                .generators
                .iter()
                .map(|g| {
                    g.key_source_columns(&graph)
                        .into_iter()
                        .map(str::to_string)
                        .collect()
                })
                .collect(),
        );
        let row_orders = Arc::new(
            analysis
                .generators
                .iter()
                .map(|g| {
                    graph
                        .topo_order()
                        .iter()
                        .copied()
                        .filter(|id| analysis.preprocessing.contains(id) || g.nodes.contains(id))
                        .collect()
                })
                .collect(),
        );
        let widths = Arc::new(
            analysis
                .generators
                .iter()
                .map(|g| graph.node(g.root).op.out_dim())
                .collect(),
        );
        Ok(Executor {
            graph,
            analysis: Arc::new(analysis),
            mode,
            parallelism: Parallelism::None,
            caches: None,
            key_columns,
            row_orders,
            widths,
            generator_costs: None,
            stats: Arc::new(ExecStats::default()),
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &TransformGraph {
        &self.graph
    }

    /// The IFV analysis.
    pub fn analysis(&self) -> &IfvAnalysis {
        &self.analysis
    }

    /// The engine mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Execution counters.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Set the parallelization strategy (compiled engine only; the
    /// interpreted engine models a GIL-bound runtime and ignores it).
    /// Starts no thread: the groups of a `PerInput(t)` query run on the
    /// process's helper pool, started by its first job.
    pub fn with_parallelism(mut self, p: Parallelism) -> Executor {
        self.parallelism = p;
        self
    }

    /// Attach per-IFV feature caches (paper §4.5). Effective on the
    /// compiled single-input path, where caching is defined.
    pub fn with_caches(mut self, caches: FeatureCaches) -> Executor {
        self.caches = Some(caches);
        self
    }

    /// Attached caches, if any.
    pub fn caches(&self) -> Option<&FeatureCaches> {
        self.caches.as_ref()
    }

    /// Provide measured per-generator costs for LPT thread assignment.
    pub fn with_generator_costs(mut self, costs: Vec<f64>) -> Executor {
        self.generator_costs = Some(Arc::new(costs));
        self
    }

    /// The canonical full subset (all generators, concatenation order).
    pub fn full_subset(&self) -> Vec<usize> {
        (0..self.analysis.generators.len()).collect()
    }

    /// The complement of a generator subset, in canonical order — the
    /// "inefficient" set a cascade escalates to. Out-of-range indices
    /// in `subset` are ignored (they never match a generator).
    pub fn complement_subset(&self, subset: &[usize]) -> Vec<usize> {
        (0..self.analysis.generators.len())
            .filter(|g| !subset.contains(g))
            .collect()
    }

    /// Total feature width of a generator subset (`None` = all).
    ///
    /// # Errors
    /// Returns [`GraphError::BadSubset`] for invalid indices.
    pub fn subset_width(&self, subset: Option<&[usize]>) -> Result<usize, GraphError> {
        let Some(subset) = subset else {
            return Ok(self.widths.iter().sum());
        };
        self.check_subset(subset)?;
        Ok(subset.iter().map(|&g| self.widths[g]).sum())
    }

    /// Compute the (possibly subset) feature matrix for a batch of
    /// inputs.
    ///
    /// # Errors
    /// Returns [`GraphError`] on missing inputs, bad subsets, or
    /// operator failures.
    pub fn features_batch(
        &self,
        table: &Table,
        subset: Option<&[usize]>,
    ) -> Result<FeatureMatrix, GraphError> {
        let full = self.full_subset();
        let subset: &[usize] = subset.unwrap_or(&full);
        self.check_subset(subset)?;
        match self.mode {
            EngineMode::Interpreted => interp::features_batch(self, table, subset),
            EngineMode::Compiled => self.compiled_batch(table, subset),
        }
    }

    /// Compute the (possibly subset) feature row for one input.
    ///
    /// # Errors
    /// Returns [`GraphError`] on missing inputs, bad subsets, or
    /// operator failures.
    pub fn features_one(
        &self,
        input: &InputRow,
        subset: Option<&[usize]>,
    ) -> Result<RowFeatures, GraphError> {
        let full = self.full_subset();
        let subset: &[usize] = subset.unwrap_or(&full);
        self.check_subset(subset)?;
        match self.mode {
            EngineMode::Interpreted => interp::features_one(self, input, subset),
            EngineMode::Compiled => match self.parallelism {
                Parallelism::PerInput(threads) if threads > 1 && subset.len() > 1 => {
                    self.compiled_one_parallel(input, subset, threads)
                }
                _ => self.compiled_one(input, subset),
            },
        }
    }

    /// Reject generator indices the graph does not have, before any
    /// of them is evaluated.
    fn check_subset(&self, subset: &[usize]) -> Result<(), GraphError> {
        let n_fgs = self.widths.len();
        match subset.iter().find(|&&g| g >= n_fgs) {
            Some(&index) => Err(GraphError::BadSubset { index, n_fgs }),
            None => Ok(()),
        }
    }

    // ----- compiled batch path -------------------------------------

    /// Nodes needed to evaluate `subset` (preprocessing + generator
    /// nodes), in topological order.
    pub(crate) fn needed_nodes(&self, subset: &[usize]) -> Vec<NodeId> {
        let mut needed = vec![false; self.graph.len()];
        for &id in &self.analysis.preprocessing {
            needed[id] = true;
        }
        for &g in subset {
            for &id in &self.analysis.generators[g].nodes {
                needed[id] = true;
            }
        }
        self.graph
            .topo_order()
            .iter()
            .copied()
            .filter(|&id| needed[id])
            .collect()
    }

    fn compiled_batch(&self, table: &Table, subset: &[usize]) -> Result<FeatureMatrix, GraphError> {
        let order = self.needed_nodes(subset);
        let mut values: Vec<Option<BatchOut>> = vec![None; self.graph.len()];
        for id in order {
            let node = self.graph.node(id);
            let out = match &node.op {
                Operator::Source { column } => {
                    let col = table
                        .column(column)
                        .ok_or_else(|| GraphError::MissingInput {
                            name: column.clone(),
                        })?;
                    BatchOut::Column(col.clone())
                }
                op => {
                    let inputs: Vec<&BatchOut> = node
                        .inputs
                        .iter()
                        .map(|&i| values[i].as_ref().expect("topo order computed inputs"))
                        .collect();
                    op.eval_batch(&node.name, &inputs, table.n_rows())?
                }
            };
            values[id] = Some(out);
        }
        self.stats
            .generators_computed
            .fetch_add(subset.len() as u64, Ordering::Relaxed);
        let roots: Vec<NodeId> = subset
            .iter()
            .map(|&g| self.analysis.generators[g].root)
            .collect();
        let parts: Vec<&FeatureMatrix> = roots
            .iter()
            .map(|&root| {
                values[root]
                    .as_ref()
                    .expect("generator root computed")
                    .as_features(&self.graph.node(root).name)
            })
            .collect::<Result<_, _>>()?;
        if let [root] = roots[..] {
            // Nothing to concatenate with: hand the block over.
            return match values[root].take() {
                Some(BatchOut::Features(only)) => Ok(only),
                _ => unreachable!("checked to be features above"),
            };
        }
        Ok(FeatureMatrix::hstack(&parts)?)
    }

    // ----- compiled single-input path -------------------------------

    /// Evaluate one generator for one input, going through the feature
    /// cache when attached.
    pub(crate) fn compute_generator_row(
        &self,
        input: &InputRow,
        g: usize,
    ) -> Result<Vec<(usize, f64)>, GraphError> {
        let generator = &self.analysis.generators[g];
        // Cache lookup keyed by the source values the generator's IFV
        // depends on — exclusive sources plus the preprocessing
        // sources that are its ancestors, and nothing else, so inputs
        // sharing an entity hit regardless of their other columns
        // (paper §4.5).
        let cache_key = if self.caches.is_some() {
            let mut vals: Vec<&Value> = Vec::new();
            for col in &self.key_columns[g] {
                vals.push(input.try_get(col)?);
            }
            Some(source_key(&vals))
        } else {
            None
        };
        if let (Some(caches), Some(key)) = (&self.caches, &cache_key) {
            if let Some(hit) = caches.get(g, key) {
                self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
        }
        let mut values: Vec<Option<RowOut>> = vec![None; self.graph.len()];
        // Preprocessing nodes evaluate first (rule 3).
        for &id in &self.row_orders[g] {
            let node = self.graph.node(id);
            let out = match &node.op {
                Operator::Source { column } => RowOut::Value(input.try_get(column)?.clone()),
                op => {
                    let inputs: Vec<&RowOut> = node
                        .inputs
                        .iter()
                        .map(|&i| values[i].as_ref().expect("topo order computed inputs"))
                        .collect();
                    op.eval_row(&node.name, &inputs)?
                }
            };
            values[id] = Some(out);
        }
        self.stats
            .generators_computed
            .fetch_add(1, Ordering::Relaxed);
        let root = generator.root;
        let feats = match values[root].take().expect("root computed") {
            RowOut::Features(feats) => feats,
            // Not features: `as_features` words the error.
            value => value.as_features(&self.graph.node(root).name)?.to_vec(),
        };
        if let (Some(caches), Some(key)) = (&self.caches, cache_key) {
            caches.put(g, key, feats.clone());
        }
        Ok(feats)
    }

    fn compiled_one(&self, input: &InputRow, subset: &[usize]) -> Result<RowFeatures, GraphError> {
        let mut entries = Vec::new();
        let mut width = 0;
        for &g in subset {
            let feats = self.compute_generator_row(input, g)?;
            entries.extend(feats.into_iter().map(|(c, v)| (c + width, v)));
            width += self.widths[g];
        }
        Ok(RowFeatures::new(entries, width))
    }

    fn compiled_one_parallel(
        &self,
        input: &InputRow,
        subset: &[usize],
        threads: usize,
    ) -> Result<RowFeatures, GraphError> {
        // LPT-assign generators to threads by measured cost (uniform
        // when no costs were provided).
        let costs: Vec<f64> = match &self.generator_costs {
            Some(c) => subset
                .iter()
                .map(|&g| c.get(g).copied().unwrap_or(1.0))
                .collect(),
            None => vec![1.0; subset.len()],
        };
        // The caller and the helper pool claim the groups in turn (paper
        // §5.2: threads compute feature generators concurrently, the
        // main thread combines). LPT puts the heaviest items first, so
        // group 0, claimed first, carries the largest load. The work
        // owns what it reads: an (Arc-backed) executor clone, the input
        // row, the subset and each position's column offset.
        let groups: Vec<Vec<usize>> = lpt_assign(&costs, threads.min(subset.len()))
            .into_iter()
            .filter(|g| !g.is_empty())
            .collect();
        let (mut offsets, mut width) = (Vec::with_capacity(subset.len()), 0);
        for &g in subset {
            offsets.push(width);
            width += self.widths[g];
        }
        let (exec, input, subset) = (self.clone(), input.clone(), subset.to_vec());
        let (per_group, _) = claim(groups.len(), groups.len() - 1, move |i| {
            let mut entries = Vec::new();
            for &pos in &groups[i] {
                let feats = exec.compute_generator_row(&input, subset[pos])?;
                entries.extend(feats.into_iter().map(|(c, v)| (c + offsets[pos], v)));
            }
            Ok::<_, GraphError>(entries)
        })?;
        let mut entries = per_group.concat();
        entries.sort_unstable_by_key(|(c, _)| *c);
        Ok(RowFeatures::new(entries, width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use willump_data::Column;

    fn sample_graph() -> Arc<TransformGraph> {
        let mut b = GraphBuilder::new();
        let title = b.source("title");
        let body = b.source("body");
        let ts = b
            .add("title_stats", Operator::StringStats, [title])
            .unwrap();
        let bs = b.add("body_stats", Operator::StringStats, [body]).unwrap();
        Arc::new(b.finish_with_concat("features", [ts, bs]).unwrap())
    }

    fn sample_table() -> Table {
        let mut t = Table::new();
        t.add_column("title", Column::from(vec!["Nice Hat!", "meh"]))
            .unwrap();
        t.add_column("body", Column::from(vec!["long body text here", "x"]))
            .unwrap();
        t
    }

    #[test]
    fn compiled_batch_full_width() {
        let exec = Executor::new(sample_graph(), EngineMode::Compiled).unwrap();
        let f = exec.features_batch(&sample_table(), None).unwrap();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.n_cols(), 16);
        assert_eq!(exec.stats().generators_computed(), 2);
    }

    #[test]
    fn subset_narrows_features() {
        let exec = Executor::new(sample_graph(), EngineMode::Compiled).unwrap();
        let f = exec.features_batch(&sample_table(), Some(&[1])).unwrap();
        assert_eq!(f.n_cols(), 8);
        // Subset [1] must equal columns 8..16 of the full features.
        let full = exec.features_batch(&sample_table(), None).unwrap();
        for r in 0..2 {
            let sub: Vec<(usize, f64)> = f.row_entries(r);
            let full_right: Vec<(usize, f64)> = full
                .row_entries(r)
                .into_iter()
                .filter(|(c, _)| *c >= 8)
                .map(|(c, v)| (c - 8, v))
                .collect();
            assert_eq!(sub, full_right);
        }
    }

    #[test]
    fn complement_subset_covers_rest() {
        let exec = Executor::new(sample_graph(), EngineMode::Compiled).unwrap();
        assert_eq!(exec.complement_subset(&[0]), vec![1]);
        assert_eq!(exec.complement_subset(&[1]), vec![0]);
        assert_eq!(exec.complement_subset(&[]), vec![0, 1]);
        assert!(exec.complement_subset(&[0, 1]).is_empty());
    }

    #[test]
    fn bad_subset_rejected() {
        let exec = Executor::new(sample_graph(), EngineMode::Compiled).unwrap();
        assert!(matches!(
            exec.features_batch(&sample_table(), Some(&[9])),
            Err(GraphError::BadSubset { .. })
        ));
    }

    #[test]
    fn row_matches_batch() {
        let exec = Executor::new(sample_graph(), EngineMode::Compiled).unwrap();
        let t = sample_table();
        let batch = exec.features_batch(&t, None).unwrap();
        for r in 0..t.n_rows() {
            let input = InputRow::from_table(&t, r).unwrap();
            let row = exec.features_one(&input, None).unwrap();
            assert_eq!(row.width, 16);
            assert_eq!(row.entries, batch.row_entries(r));
        }
    }

    #[test]
    fn interp_and_compiled_agree() {
        let g = sample_graph();
        let t = sample_table();
        let compiled = Executor::new(g.clone(), EngineMode::Compiled).unwrap();
        let interp = Executor::new(g, EngineMode::Interpreted).unwrap();
        let a = compiled.features_batch(&t, None).unwrap();
        let b = interp.features_batch(&t, None).unwrap();
        for r in 0..t.n_rows() {
            let ae = a.row_entries(r);
            let be = b.row_entries(r);
            assert_eq!(ae.len(), be.len());
            for ((c1, v1), (c2, v2)) in ae.iter().zip(&be) {
                assert_eq!(c1, c2);
                assert!((v1 - v2).abs() < 1e-9);
            }
        }
    }

    /// Scaled string statistics, word TF-IDF and char TF-IDF over one
    /// shared source: dense and sparse blocks side by side, a
    /// preprocessing node, a two-node generator.
    fn text_graph_and_table() -> (Arc<TransformGraph>, Table) {
        use willump_featurize::stringstats::string_stats_batch;
        use willump_featurize::{Analyzer, StandardScaler, TfIdfVectorizer, VectorizerConfig};
        let docs = [
            "Nice hat, NICE hat!",
            "",
            "you are a muppet\u{a0}and a half",
            "Stra\u{df}e \u{130}stanbul caf\u{e9}",
            "meh meh meh",
            "\x0B vertical\x0Btab ...",
        ];
        let mut scaler = StandardScaler::new();
        scaler.fit(&string_stats_batch(&docs));
        let mut word = TfIdfVectorizer::new(VectorizerConfig::default()).unwrap();
        word.fit(&docs);
        let mut chars = TfIdfVectorizer::new(VectorizerConfig {
            analyzer: Analyzer::Char,
            ngram_lo: 2,
            ngram_hi: 4,
            ..VectorizerConfig::default()
        })
        .unwrap();
        chars.fit(&docs);

        let mut b = GraphBuilder::new();
        let text = b.source("text");
        let stats = b.add("stats", Operator::StringStats, [text]).unwrap();
        let scaled = b
            .add("scaled", Operator::Scale(Arc::new(scaler)), [stats])
            .unwrap();
        let w = b
            .add("word", Operator::TfIdf(Arc::new(word)), [text])
            .unwrap();
        let c = b
            .add("chars", Operator::TfIdf(Arc::new(chars)), [text])
            .unwrap();
        let g = Arc::new(b.finish_with_concat("features", [scaled, w, c]).unwrap());
        let mut t = Table::new();
        t.add_column("text", Column::from(docs.to_vec())).unwrap();
        (g, t)
    }

    #[test]
    fn text_features_agree_across_engines_paths_and_subsets() {
        let (g, t) = text_graph_and_table();
        let compiled = Executor::new(g.clone(), EngineMode::Compiled).unwrap();
        let interp = Executor::new(g, EngineMode::Interpreted).unwrap();
        let full = compiled.features_batch(&t, None).unwrap();
        assert!(matches!(full, FeatureMatrix::Sparse(_)));
        let subsets: [&[usize]; 6] = [&[0, 1, 2], &[0], &[1], &[2], &[2, 0], &[1, 2]];
        for subset in subsets {
            let batch = compiled.features_batch(&t, Some(subset)).unwrap();
            let reference = interp.features_batch(&t, Some(subset)).unwrap();
            assert_eq!(batch.n_cols(), compiled.subset_width(Some(subset)).unwrap());
            // A lone dense generator is handed over as it is.
            assert_eq!(
                matches!(batch, FeatureMatrix::Dense(_)),
                subset == [0],
                "{subset:?}"
            );
            for r in 0..t.n_rows() {
                let input = InputRow::from_table(&t, r).unwrap();
                let row = compiled.features_one(&input, Some(subset)).unwrap();
                assert_eq!(row.width, batch.n_cols());
                assert_eq!(row.entries, batch.row_entries(r), "{subset:?} row {r}");
                assert_eq!(
                    reference.row_entries(r),
                    batch.row_entries(r),
                    "{subset:?} row {r}"
                );
            }
        }
        // The full matrix is its generators' blocks side by side.
        let word_offset = compiled.subset_width(Some(&[0])).unwrap();
        let word = compiled.features_batch(&t, Some(&[1])).unwrap();
        for r in 0..t.n_rows() {
            let block: Vec<(usize, f64)> = full
                .row_entries(r)
                .into_iter()
                .filter(|(c, _)| (word_offset..word_offset + word.n_cols()).contains(c))
                .map(|(c, v)| (c - word_offset, v))
                .collect();
            assert_eq!(block, word.row_entries(r));
        }
    }

    #[test]
    fn missing_input_column_errors() {
        let exec = Executor::new(sample_graph(), EngineMode::Compiled).unwrap();
        let mut t = Table::new();
        t.add_column("title", Column::from(vec!["x"])).unwrap();
        assert!(matches!(
            exec.features_batch(&t, None),
            Err(GraphError::MissingInput { .. })
        ));
        let input = InputRow::new([("title", Value::from("x"))]);
        assert!(exec.features_one(&input, None).is_err());
    }

    #[test]
    fn parallel_per_input_matches_serial() {
        let exec = Executor::new(sample_graph(), EngineMode::Compiled).unwrap();
        let par = exec
            .clone()
            .with_parallelism(Parallelism::PerInput(2))
            .with_generator_costs(vec![2.0, 1.0]);
        let t = sample_table();
        for r in 0..t.n_rows() {
            let input = InputRow::from_table(&t, r).unwrap();
            let a = exec.features_one(&input, None).unwrap();
            let b = par.features_one(&input, None).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn feature_cache_skips_recomputation() {
        let caches = FeatureCaches::new(2, None);
        let exec = Executor::new(sample_graph(), EngineMode::Compiled)
            .unwrap()
            .with_caches(caches.clone());
        let input = InputRow::new([
            ("title", Value::from("Nice Hat!")),
            ("body", Value::from("some body")),
        ]);
        let first = exec.features_one(&input, None).unwrap();
        let computed_after_first = exec.stats().generators_computed();
        let second = exec.features_one(&input, None).unwrap();
        assert_eq!(first, second);
        assert_eq!(exec.stats().generators_computed(), computed_after_first);
        assert_eq!(exec.stats().cache_hits(), 2);
        assert_eq!(caches.hits(), 2);
    }

    #[test]
    fn cache_distinguishes_inputs() {
        let caches = FeatureCaches::new(2, None);
        let exec = Executor::new(sample_graph(), EngineMode::Compiled)
            .unwrap()
            .with_caches(caches);
        let a = InputRow::new([("title", Value::from("a")), ("body", Value::from("b"))]);
        let b = InputRow::new([("title", Value::from("c")), ("body", Value::from("b"))]);
        exec.features_one(&a, None).unwrap();
        exec.features_one(&b, None).unwrap();
        // Title generator missed for b (different title); body hit.
        assert_eq!(exec.stats().cache_hits(), 1);
    }
}
