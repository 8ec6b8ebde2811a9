//! # willump-data
//!
//! Data substrate for the Willump reproduction: dynamic [`Value`]s,
//! typed [`Column`]s and [`Table`]s (the role Pandas plays in the
//! paper's pipelines), dense [`Matrix`] and CSR [`SparseMatrix`]
//! feature containers (the role NumPy/SciPy play), and seeded
//! generators ([`rng`]) used by the synthetic benchmark workloads.
//!
//! Everything here is deterministic given a seed so that experiment
//! binaries regenerate the same tables on every run.
//!
//! ```
//! use willump_data::{Table, Column, Value};
//!
//! # fn main() -> Result<(), willump_data::DataError> {
//! let mut t = Table::new();
//! t.add_column("user_id", Column::from(vec![1i64, 2, 3]))?;
//! t.add_column("score", Column::from(vec![0.5f64, 0.25, 0.75]))?;
//! assert_eq!(t.n_rows(), 3);
//! assert_eq!(t.value(1, "score").unwrap(), Value::Float(0.25));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::borrow::Cow;

mod column;
mod error;
mod matrix;
pub mod rng;
mod sparse;
pub mod split;
mod table;
pub mod text;
mod value;

pub use column::Column;
pub use error::DataError;
pub use matrix::Matrix;
pub use sparse::{SparseMatrix, SparseRowBuilder};
pub use table::Table;
pub use value::{DataType, Value};

/// A feature container that is either dense or sparse (CSR).
///
/// Text featurization (TF-IDF over n-grams) produces very wide, very
/// sparse outputs, while tabular lookups produce narrow dense outputs;
/// models in `willump-models` accept either through this enum.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureMatrix {
    /// Row-major dense features.
    Dense(Matrix),
    /// Compressed sparse row features.
    Sparse(SparseMatrix),
}

impl FeatureMatrix {
    /// Number of rows (data inputs).
    pub fn n_rows(&self) -> usize {
        match self {
            FeatureMatrix::Dense(m) => m.n_rows(),
            FeatureMatrix::Sparse(m) => m.n_rows(),
        }
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        match self {
            FeatureMatrix::Dense(m) => m.n_cols(),
            FeatureMatrix::Sparse(m) => m.n_cols(),
        }
    }

    /// Dot product of row `row` with a dense weight vector.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds or `w.len() < self.n_cols()`.
    pub fn row_dot(&self, row: usize, w: &[f64]) -> f64 {
        match self {
            FeatureMatrix::Dense(m) => m.row(row).iter().zip(w).map(|(x, wi)| x * wi).sum(),
            FeatureMatrix::Sparse(m) => m.row_dot(row, w),
        }
    }

    /// Call `f` with each `(column, value)` pair of one row, in column
    /// order and in place: the pairs [`row_entries`](Self::row_entries)
    /// returns, without collecting them.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn for_each_entry(&self, row: usize, mut f: impl FnMut(usize, f64)) {
        match self {
            FeatureMatrix::Dense(m) => {
                for (c, &v) in m.row(row).iter().enumerate() {
                    if v != 0.0 {
                        f(c, v);
                    }
                }
            }
            FeatureMatrix::Sparse(m) => {
                let (cols, vals) = m.row_view(row);
                for (&c, &v) in cols.iter().zip(vals) {
                    f(c as usize, v);
                }
            }
        }
    }

    /// The `(column, value)` pairs of one row, zeros omitted.
    pub fn row_entries(&self, row: usize) -> Vec<(usize, f64)> {
        match self {
            FeatureMatrix::Dense(m) => m
                .row(row)
                .iter()
                .enumerate()
                .filter(|(_, v)| **v != 0.0)
                .map(|(c, v)| (c, *v))
                .collect(),
            FeatureMatrix::Sparse(m) => m.row_pairs(row),
        }
    }

    /// The features as a dense matrix without copying a dense input:
    /// dense borrows, sparse converts (models that index features
    /// positionally read their input through this).
    pub fn dense_view(&self) -> Cow<'_, Matrix> {
        match self {
            FeatureMatrix::Dense(m) => Cow::Borrowed(m),
            FeatureMatrix::Sparse(m) => Cow::Owned(m.to_dense()),
        }
    }

    /// Convert to an owned dense matrix (copies in both cases).
    pub fn to_dense(&self) -> Matrix {
        match self {
            FeatureMatrix::Dense(m) => m.clone(),
            FeatureMatrix::Sparse(m) => m.to_dense(),
        }
    }

    /// Horizontally concatenate feature matrices with equal row counts.
    ///
    /// The result is sparse if any input is sparse (wide text blocks
    /// dominate), dense otherwise. This is the "feature concatenation"
    /// node at the bottom of every Willump transformation graph.
    ///
    /// # Errors
    /// Returns [`DataError::ShapeMismatch`] if row counts differ or
    /// `parts` is empty.
    pub fn hstack(parts: &[&FeatureMatrix]) -> Result<FeatureMatrix, DataError> {
        if parts.is_empty() {
            return Err(DataError::ShapeMismatch {
                context: "hstack of zero feature matrices".into(),
            });
        }
        let n = parts[0].n_rows();
        if parts.iter().any(|p| p.n_rows() != n) {
            return Err(DataError::ShapeMismatch {
                context: format!(
                    "hstack row counts differ: {:?}",
                    parts.iter().map(|p| p.n_rows()).collect::<Vec<_>>()
                ),
            });
        }
        let dense: Vec<&Matrix> = parts
            .iter()
            .filter_map(|p| match p {
                FeatureMatrix::Dense(m) => Some(m),
                FeatureMatrix::Sparse(_) => None,
            })
            .collect();
        if dense.len() == parts.len() {
            return Ok(FeatureMatrix::Dense(Matrix::hstack(&dense)?));
        }
        // Dense blocks next to text are narrow (string statistics,
        // lookups): each becomes CSR once; sparse parts are borrowed.
        let from_dense: Vec<SparseMatrix> =
            dense.into_iter().map(SparseMatrix::from_dense).collect();
        let mut converted = from_dense.iter();
        let sparse: Vec<&SparseMatrix> = parts
            .iter()
            .map(|p| match p {
                FeatureMatrix::Dense(_) => converted.next().expect("one per dense part"),
                FeatureMatrix::Sparse(m) => m,
            })
            .collect();
        Ok(FeatureMatrix::Sparse(SparseMatrix::hstack(&sparse)?))
    }

    /// Select a subset of rows (in the given order) into a new matrix.
    ///
    /// # Panics
    /// Panics if any index in `rows` is out of bounds.
    pub fn take_rows(&self, rows: &[usize]) -> FeatureMatrix {
        match self {
            FeatureMatrix::Dense(m) => FeatureMatrix::Dense(m.take_rows(rows)),
            FeatureMatrix::Sparse(m) => FeatureMatrix::Sparse(m.take_rows(rows)),
        }
    }
}

impl From<Matrix> for FeatureMatrix {
    fn from(m: Matrix) -> Self {
        FeatureMatrix::Dense(m)
    }
}

impl From<SparseMatrix> for FeatureMatrix {
    fn from(m: SparseMatrix) -> Self {
        FeatureMatrix::Sparse(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hstack_mixed_promotes_to_sparse() {
        let d = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut b = SparseRowBuilder::new(3);
        b.push_row(&[(0, 5.0)]);
        b.push_row(&[(2, 6.0)]);
        let s = b.finish();
        let out = FeatureMatrix::hstack(&[&d.into(), &s.into()]).unwrap();
        assert!(matches!(out, FeatureMatrix::Sparse(_)));
        assert_eq!(out.n_cols(), 5);
        assert_eq!(out.row_entries(1), vec![(0, 3.0), (1, 4.0), (4, 6.0)]);
    }

    #[test]
    fn hstack_dense_stays_dense() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let b = Matrix::from_rows(&[vec![3.0], vec![4.0]]);
        let out = FeatureMatrix::hstack(&[&a.into(), &b.into()]).unwrap();
        assert!(matches!(out, FeatureMatrix::Dense(_)));
        assert_eq!(out.to_dense().row(0), &[1.0, 3.0]);
    }

    #[test]
    fn hstack_rejects_mismatched_rows() {
        let a = Matrix::from_rows(&[vec![1.0]]);
        let b = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        assert!(FeatureMatrix::hstack(&[&a.into(), &b.into()]).is_err());
    }

    #[test]
    fn row_dot_agrees_between_representations() {
        let d = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        let w = [0.5, 1.5, -1.0];
        for r in 0..2 {
            let dd = FeatureMatrix::Dense(d.clone()).row_dot(r, &w);
            let ss = FeatureMatrix::Sparse(s.clone()).row_dot(r, &w);
            assert!((dd - ss).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_view_borrows_dense_and_converts_sparse() {
        let d = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
        let dense = FeatureMatrix::Dense(d.clone());
        let FeatureMatrix::Dense(inner) = &dense else {
            unreachable!()
        };
        match dense.dense_view() {
            Cow::Borrowed(m) => assert!(std::ptr::eq(m, inner)),
            Cow::Owned(_) => panic!("a dense input must not be copied"),
        }
        let sparse = FeatureMatrix::Sparse(SparseMatrix::from_dense(&d));
        assert_eq!(*sparse.dense_view(), d);
    }

    #[test]
    fn take_rows_reorders() {
        let d = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let fm = FeatureMatrix::Dense(d).take_rows(&[2, 0]);
        assert_eq!(fm.to_dense().row(0), &[3.0]);
        assert_eq!(fm.to_dense().row(1), &[1.0]);
    }
}
