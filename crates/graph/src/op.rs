//! Operators: the node kinds of a transformation graph.

use std::sync::Arc;

use willump_data::{Column, FeatureMatrix, Matrix, SparseRowBuilder, Value};
use willump_featurize::stringstats::{string_stats, string_stats_batch};
use willump_featurize::{
    CountVectorizer, OneHotEncoder, OrdinalEncoder, StandardScaler, StoreJoin, TfIdfVectorizer,
};
use willump_store::Key;

use crate::GraphError;

/// Batch output of a node (columnar).
#[derive(Debug, Clone)]
pub enum BatchOut {
    /// A raw column (sources and column-to-column transforms).
    Column(Column),
    /// Computed features.
    Features(FeatureMatrix),
}

impl BatchOut {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        match self {
            BatchOut::Column(c) => c.len(),
            BatchOut::Features(f) => f.n_rows(),
        }
    }

    /// Borrow as features.
    ///
    /// # Errors
    /// Returns [`GraphError::BadInput`] if this is a raw column.
    pub fn as_features(&self, node: &str) -> Result<&FeatureMatrix, GraphError> {
        match self {
            BatchOut::Features(f) => Ok(f),
            BatchOut::Column(_) => Err(GraphError::BadInput {
                node: node.to_string(),
                reason: "expected features, found raw column".into(),
            }),
        }
    }

    /// Borrow as a raw column.
    ///
    /// # Errors
    /// Returns [`GraphError::BadInput`] if this is a feature matrix.
    pub fn as_column(&self, node: &str) -> Result<&Column, GraphError> {
        match self {
            BatchOut::Column(c) => Ok(c),
            BatchOut::Features(_) => Err(GraphError::BadInput {
                node: node.to_string(),
                reason: "expected raw column, found features".into(),
            }),
        }
    }
}

/// Single-row output of a node.
#[derive(Debug, Clone)]
pub enum RowOut {
    /// A raw value.
    Value(Value),
    /// Sparse feature entries (sorted by column).
    Features(Vec<(usize, f64)>),
}

impl RowOut {
    /// Borrow as feature entries.
    ///
    /// # Errors
    /// Returns [`GraphError::BadInput`] if this is a raw value.
    pub fn as_features(&self, node: &str) -> Result<&[(usize, f64)], GraphError> {
        match self {
            RowOut::Features(f) => Ok(f),
            RowOut::Value(_) => Err(GraphError::BadInput {
                node: node.to_string(),
                reason: "expected features, found raw value".into(),
            }),
        }
    }

    /// Borrow as a raw value.
    ///
    /// # Errors
    /// Returns [`GraphError::BadInput`] if this holds features.
    pub fn as_value(&self, node: &str) -> Result<&Value, GraphError> {
        match self {
            RowOut::Value(v) => Ok(v),
            RowOut::Features(_) => Err(GraphError::BadInput {
                node: node.to_string(),
                reason: "expected raw value, found features".into(),
            }),
        }
    }
}

fn value_to_key(v: &Value) -> Result<Key, GraphError> {
    match v {
        Value::Int(i) => Ok(Key::Int(*i)),
        Value::Str(s) => Ok(Key::Str(Arc::clone(s))),
        other => Err(GraphError::Feature(format!(
            "value `{other}` cannot be used as a lookup key"
        ))),
    }
}

fn column_to_keys(c: &Column, node: &str) -> Result<Vec<Key>, GraphError> {
    match c {
        Column::Int(v) => Ok(v.iter().map(|i| Key::Int(*i)).collect()),
        Column::Str(v) => Ok(v.iter().map(|s| Key::Str(Arc::clone(s))).collect()),
        _ => Err(GraphError::BadInput {
            node: node.to_string(),
            reason: "lookup keys must be int or string columns".into(),
        }),
    }
}

/// A transformation operator.
///
/// Each operator supports a columnar batch path ([`Operator::eval_batch`],
/// used by the compiled engine) and a single-row path
/// ([`Operator::eval_row`], used for example-at-a-time serving). The
/// interpreted engine reuses the row path but adds the boxing and
/// materialization overheads of a dynamic language (see
/// `crate::interp`).
#[derive(Debug, Clone)]
pub enum Operator {
    /// A raw input: reads the named column from the pipeline input.
    Source {
        /// Input column name.
        column: String,
    },
    /// Pass a numeric column through as a 1-wide feature block.
    NumericColumn,
    /// The eight cheap string statistics.
    StringStats,
    /// TF-IDF featurization (fitted).
    TfIdf(Arc<TfIdfVectorizer>),
    /// Count (bag-of-n-grams) featurization (fitted).
    CountVec(Arc<CountVectorizer>),
    /// One-hot encoding of a string column (fitted).
    OneHot(Arc<OneHotEncoder>),
    /// Ordinal encoding of a string column (fitted).
    Ordinal(Arc<OrdinalEncoder>),
    /// Standardize a dense feature block (fitted).
    Scale(Arc<StandardScaler>),
    /// Keyed lookup join against a feature store table.
    StoreLookup(Arc<StoreJoin>),
    /// Concatenate feature blocks (the commutative node of §5.1).
    Concat {
        /// Widths of each input block, in input order.
        widths: Vec<usize>,
    },
}

impl Operator {
    /// Short kind name for debugging/printing.
    pub fn kind(&self) -> &'static str {
        match self {
            Operator::Source { .. } => "source",
            Operator::NumericColumn => "numeric",
            Operator::StringStats => "string_stats",
            Operator::TfIdf(_) => "tfidf",
            Operator::CountVec(_) => "count_vec",
            Operator::OneHot(_) => "one_hot",
            Operator::Ordinal(_) => "ordinal",
            Operator::Scale(_) => "scale",
            Operator::StoreLookup(_) => "store_lookup",
            Operator::Concat { .. } => "concat",
        }
    }

    /// Output feature width (0 for raw sources).
    pub fn out_dim(&self) -> usize {
        match self {
            Operator::Source { .. } => 0,
            Operator::NumericColumn => 1,
            Operator::StringStats => willump_featurize::STRING_STAT_NAMES.len(),
            Operator::TfIdf(v) => v.n_features(),
            Operator::CountVec(v) => v.n_features(),
            Operator::OneHot(e) => e.n_features(),
            Operator::Ordinal(_) => 1,
            Operator::Scale(s) => s.means().len(),
            Operator::StoreLookup(j) => j.dim(),
            Operator::Concat { widths } => widths.iter().sum(),
        }
    }

    /// Whether this node queries a (possibly remote) feature store.
    pub fn is_lookup(&self) -> bool {
        matches!(self, Operator::StoreLookup(_))
    }

    /// Whether this node commutes with feature concatenation
    /// (paper §5.1; concatenation itself is the canonical case).
    pub fn is_commutative(&self) -> bool {
        matches!(self, Operator::Concat { .. })
    }

    /// Whether the compiled engine can compile this node (everything
    /// in the built-in set is compilable; the paper's non-compilable
    /// Python nodes are modeled in the interpreted engine).
    pub fn is_compilable(&self) -> bool {
        true
    }

    /// Evaluate the batch (columnar) path.
    ///
    /// # Errors
    /// Returns [`GraphError`] on arity/type mismatches or featurizer
    /// failures.
    pub fn eval_batch(
        &self,
        name: &str,
        inputs: &[&BatchOut],
        input_table_len: usize,
    ) -> Result<BatchOut, GraphError> {
        let arity = |n: usize| -> Result<(), GraphError> {
            if inputs.len() != n {
                return Err(GraphError::BadInput {
                    node: name.to_string(),
                    reason: format!("expected {n} inputs, got {}", inputs.len()),
                });
            }
            Ok(())
        };
        match self {
            Operator::Source { .. } => Err(GraphError::BadInput {
                node: name.to_string(),
                reason: "sources are evaluated by the engine, not eval_batch".into(),
            }),
            Operator::NumericColumn => {
                arity(1)?;
                let col = inputs[0].as_column(name)?;
                let vals = col.to_f64_vec().map_err(|e| GraphError::BadInput {
                    node: name.to_string(),
                    reason: e.to_string(),
                })?;
                Ok(BatchOut::Features(Matrix::column_vector(vals).into()))
            }
            Operator::StringStats => {
                arity(1)?;
                let col = inputs[0].as_column(name)?;
                let strs = col.as_str_slice().ok_or_else(|| GraphError::BadInput {
                    node: name.to_string(),
                    reason: "string stats need a string column".into(),
                })?;
                Ok(BatchOut::Features(string_stats_batch(strs).into()))
            }
            Operator::TfIdf(v) => {
                arity(1)?;
                let col = inputs[0].as_column(name)?;
                let strs = col.as_str_slice().ok_or_else(|| GraphError::BadInput {
                    node: name.to_string(),
                    reason: "tf-idf needs a string column".into(),
                })?;
                Ok(BatchOut::Features(v.transform(strs)?.into()))
            }
            Operator::CountVec(v) => {
                arity(1)?;
                let col = inputs[0].as_column(name)?;
                let strs = col.as_str_slice().ok_or_else(|| GraphError::BadInput {
                    node: name.to_string(),
                    reason: "count vectorizer needs a string column".into(),
                })?;
                Ok(BatchOut::Features(v.transform(strs)?.into()))
            }
            Operator::OneHot(e) => {
                arity(1)?;
                let col = inputs[0].as_column(name)?;
                let strs = col.as_str_slice().ok_or_else(|| GraphError::BadInput {
                    node: name.to_string(),
                    reason: "one-hot needs a string column".into(),
                })?;
                Ok(BatchOut::Features(e.transform(strs)?.into()))
            }
            Operator::Ordinal(e) => {
                arity(1)?;
                let col = inputs[0].as_column(name)?;
                let strs = col.as_str_slice().ok_or_else(|| GraphError::BadInput {
                    node: name.to_string(),
                    reason: "ordinal encoding needs a string column".into(),
                })?;
                Ok(BatchOut::Features(e.transform(strs)?.into()))
            }
            Operator::Scale(s) => {
                arity(1)?;
                let scaled = match inputs[0].as_features(name)? {
                    FeatureMatrix::Dense(m) => s.transform(m)?,
                    FeatureMatrix::Sparse(m) => s.transform(&m.to_dense())?,
                };
                Ok(BatchOut::Features(scaled.into()))
            }
            Operator::StoreLookup(j) => {
                arity(1)?;
                let col = inputs[0].as_column(name)?;
                let keys = column_to_keys(col, name)?;
                Ok(BatchOut::Features(j.join_batch(&keys)?.into()))
            }
            Operator::Concat { widths } => {
                if inputs.is_empty() {
                    return Err(GraphError::BadInput {
                        node: name.to_string(),
                        reason: "concat needs at least one input".into(),
                    });
                }
                if inputs.len() != widths.len() {
                    return Err(GraphError::BadInput {
                        node: name.to_string(),
                        reason: format!(
                            "concat fitted for {} inputs, got {}",
                            widths.len(),
                            inputs.len()
                        ),
                    });
                }
                let mats: Vec<&FeatureMatrix> = inputs
                    .iter()
                    .map(|i| i.as_features(name))
                    .collect::<Result<_, _>>()?;
                let _ = input_table_len;
                Ok(BatchOut::Features(FeatureMatrix::hstack(&mats)?))
            }
        }
    }

    /// Evaluate the single-row path.
    ///
    /// # Errors
    /// Returns [`GraphError`] on arity/type mismatches or featurizer
    /// failures.
    pub fn eval_row(&self, name: &str, inputs: &[&RowOut]) -> Result<RowOut, GraphError> {
        let arity = |n: usize| -> Result<(), GraphError> {
            if inputs.len() != n {
                return Err(GraphError::BadInput {
                    node: name.to_string(),
                    reason: format!("expected {n} inputs, got {}", inputs.len()),
                });
            }
            Ok(())
        };
        let str_input = |i: usize| -> Result<&str, GraphError> {
            inputs[i]
                .as_value(name)?
                .as_str()
                .ok_or_else(|| GraphError::BadInput {
                    node: name.to_string(),
                    reason: "expected a string value".into(),
                })
        };
        match self {
            Operator::Source { .. } => Err(GraphError::BadInput {
                node: name.to_string(),
                reason: "sources are evaluated by the engine, not eval_row".into(),
            }),
            Operator::NumericColumn => {
                arity(1)?;
                let v = inputs[0]
                    .as_value(name)?
                    .as_f64()
                    .ok_or_else(|| GraphError::BadInput {
                        node: name.to_string(),
                        reason: "expected a numeric value".into(),
                    })?;
                Ok(RowOut::Features(if v == 0.0 {
                    vec![]
                } else {
                    vec![(0, v)]
                }))
            }
            Operator::StringStats => {
                arity(1)?;
                let stats = string_stats(str_input(0)?);
                Ok(RowOut::Features(
                    stats
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| **v != 0.0)
                        .map(|(c, v)| (c, *v))
                        .collect(),
                ))
            }
            Operator::TfIdf(v) => {
                arity(1)?;
                Ok(RowOut::Features(v.transform_one(str_input(0)?)?))
            }
            Operator::CountVec(v) => {
                arity(1)?;
                Ok(RowOut::Features(v.transform_one(str_input(0)?)?))
            }
            Operator::OneHot(e) => {
                arity(1)?;
                Ok(RowOut::Features(e.transform_one(str_input(0)?)?))
            }
            Operator::Ordinal(e) => {
                arity(1)?;
                let code = e.transform_one(str_input(0)?)?;
                Ok(RowOut::Features(if code == 0.0 {
                    vec![]
                } else {
                    vec![(0, code)]
                }))
            }
            Operator::Scale(s) => {
                arity(1)?;
                let entries = inputs[0].as_features(name)?;
                let mut dense = vec![0.0; s.means().len()];
                for (c, v) in entries {
                    dense[*c] = *v;
                }
                s.transform_one(&mut dense)?;
                Ok(RowOut::Features(
                    dense
                        .into_iter()
                        .enumerate()
                        .filter(|(_, v)| *v != 0.0)
                        .collect(),
                ))
            }
            Operator::StoreLookup(j) => {
                arity(1)?;
                let key = value_to_key(inputs[0].as_value(name)?)?;
                let row = j.join_one(&key)?;
                Ok(RowOut::Features(
                    row.into_iter()
                        .enumerate()
                        .filter(|(_, v)| *v != 0.0)
                        .collect(),
                ))
            }
            Operator::Concat { widths } => {
                if inputs.len() != widths.len() {
                    return Err(GraphError::BadInput {
                        node: name.to_string(),
                        reason: format!(
                            "concat fitted for {} inputs, got {}",
                            widths.len(),
                            inputs.len()
                        ),
                    });
                }
                let mut out = Vec::new();
                let mut offset = 0;
                for (inp, w) in inputs.iter().zip(widths) {
                    for (c, v) in inp.as_features(name)? {
                        out.push((c + offset, *v));
                    }
                    offset += w;
                }
                Ok(RowOut::Features(out))
            }
        }
    }

    /// Build a sparse matrix from per-row feature entries (used by the
    /// interpreted engine's final materialization).
    pub fn rows_to_sparse(rows: &[Vec<(usize, f64)>], width: usize) -> FeatureMatrix {
        let mut b = SparseRowBuilder::new(width);
        for r in rows {
            b.push_row(r);
        }
        FeatureMatrix::Sparse(b.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use willump_featurize::VectorizerConfig;
    use willump_store::{FeatureTable, LatencyModel, Store};

    fn tfidf() -> Arc<TfIdfVectorizer> {
        let mut v = TfIdfVectorizer::new(VectorizerConfig::default()).unwrap();
        v.fit(&["hello world", "goodbye world"]);
        Arc::new(v)
    }

    #[test]
    fn out_dims() {
        assert_eq!(Operator::NumericColumn.out_dim(), 1);
        assert_eq!(Operator::StringStats.out_dim(), 8);
        assert_eq!(Operator::TfIdf(tfidf()).out_dim(), 3);
        assert_eq!(
            Operator::Concat {
                widths: vec![2, 3, 4]
            }
            .out_dim(),
            9
        );
    }

    #[test]
    fn batch_and_row_agree_for_tfidf() {
        let op = Operator::TfIdf(tfidf());
        let col = Column::from(vec!["hello world", "nothing here"]);
        let batch = op
            .eval_batch("t", &[&BatchOut::Column(col.clone())], 2)
            .unwrap();
        let bf = batch.as_features("t").unwrap();
        for r in 0..2 {
            let row_out = op
                .eval_row("t", &[&RowOut::Value(col.value(r).unwrap())])
                .unwrap();
            assert_eq!(row_out.as_features("t").unwrap(), bf.row_entries(r));
        }
    }

    #[test]
    fn concat_offsets_row_path() {
        let op = Operator::Concat { widths: vec![2, 3] };
        let a = RowOut::Features(vec![(1, 1.0)]);
        let b = RowOut::Features(vec![(0, 2.0), (2, 3.0)]);
        let out = op.eval_row("c", &[&a, &b]).unwrap();
        assert_eq!(
            out.as_features("c").unwrap(),
            &[(1, 1.0), (2, 2.0), (4, 3.0)]
        );
    }

    #[test]
    fn concat_arity_mismatch() {
        let op = Operator::Concat { widths: vec![2] };
        let a = RowOut::Features(vec![]);
        let b = RowOut::Features(vec![]);
        assert!(op.eval_row("c", &[&a, &b]).is_err());
    }

    #[test]
    fn store_lookup_both_paths() {
        let mut t = FeatureTable::new(2);
        t.insert(Key::Int(5), vec![1.5, 0.0]).unwrap();
        let store = Store::remote(
            [("u".to_string(), t)],
            LatencyModel::virtual_network(100, 1),
        );
        let join = StoreJoin::new(store.clone(), "u").unwrap();
        let op = Operator::StoreLookup(Arc::new(join));
        let batch = op
            .eval_batch("l", &[&BatchOut::Column(Column::from(vec![5i64]))], 1)
            .unwrap();
        assert_eq!(
            batch.as_features("l").unwrap().row_entries(0),
            vec![(0, 1.5)]
        );
        let row = op.eval_row("l", &[&RowOut::Value(Value::Int(5))]).unwrap();
        assert_eq!(row.as_features("l").unwrap(), &[(0, 1.5)]);
        assert_eq!(store.stats().round_trips(), 2);
    }

    #[test]
    fn numeric_column_paths() {
        let op = Operator::NumericColumn;
        let batch = op
            .eval_batch(
                "n",
                &[&BatchOut::Column(Column::from(vec![1.0f64, 0.0]))],
                2,
            )
            .unwrap();
        assert_eq!(batch.as_features("n").unwrap().n_cols(), 1);
        let row = op
            .eval_row("n", &[&RowOut::Value(Value::Float(0.0))])
            .unwrap();
        assert_eq!(row.as_features("n").unwrap(), &[]);
    }

    #[test]
    fn type_errors_are_reported() {
        let op = Operator::StringStats;
        let bad = BatchOut::Column(Column::from(vec![1i64]));
        assert!(matches!(
            op.eval_batch("s", &[&bad], 1),
            Err(GraphError::BadInput { .. })
        ));
        let bad_row = RowOut::Value(Value::Int(1));
        assert!(op.eval_row("s", &[&bad_row]).is_err());
    }

    #[test]
    fn kind_strings() {
        assert_eq!(Operator::StringStats.kind(), "string_stats");
        assert_eq!(Operator::Source { column: "x".into() }.kind(), "source");
    }
}
