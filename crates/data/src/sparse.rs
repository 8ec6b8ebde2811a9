//! Compressed sparse row (CSR) matrices for wide text features.
//!
//! TF-IDF over word and character n-grams (the Product, Toxic, and
//! Price workloads) produces feature vectors with 10^4-10^6 columns of
//! which only dozens are nonzero; CSR keeps the compiled engine's
//! memory traffic proportional to the nonzeros.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::{DataError, Matrix};

/// A CSR sparse `f64` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseMatrix {
    /// Row start offsets into `indices`/`data`; length `rows + 1`.
    indptr: Vec<usize>,
    /// Column index of each stored value.
    indices: Vec<u32>,
    /// Stored (nonzero) values.
    data: Vec<f64>,
    cols: usize,
}

/// Incremental row-by-row builder for [`SparseMatrix`].
///
/// ```
/// use willump_data::SparseRowBuilder;
///
/// let mut b = SparseRowBuilder::new(4);
/// b.push_row(&[(1, 2.0), (3, 1.0)]);
/// b.push_row(&[]);
/// let m = b.finish();
/// assert_eq!(m.n_rows(), 2);
/// assert_eq!(m.nnz(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SparseRowBuilder {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    data: Vec<f64>,
    cols: usize,
}

impl SparseRowBuilder {
    /// A builder for matrices with `cols` columns.
    pub fn new(cols: usize) -> SparseRowBuilder {
        SparseRowBuilder {
            indptr: vec![0],
            indices: Vec::new(),
            data: Vec::new(),
            cols,
        }
    }

    /// Append one row given `(column, value)` pairs.
    ///
    /// Entries are sorted by column and zero values are dropped;
    /// duplicate columns within a row are summed. A row that already
    /// is strictly ascending and free of zeros — what every
    /// featurizer and matrix operation in this workspace hands over —
    /// is appended as it stands, with no intermediate copy.
    ///
    /// # Panics
    /// Panics if any column index is out of range.
    pub fn push_row(&mut self, entries: &[(usize, f64)]) {
        let canonical =
            entries.windows(2).all(|w| w[0].0 < w[1].0) && entries.iter().all(|(_, v)| *v != 0.0);
        if canonical {
            // Ascending, so the last column is the largest.
            if let Some(&(c, _)) = entries.last() {
                assert!(c < self.cols, "column {c} out of range ({})", self.cols);
            }
            self.indices.extend(entries.iter().map(|(c, _)| *c as u32));
            self.data.extend(entries.iter().map(|(_, v)| *v));
        } else {
            self.push_unordered(entries);
        }
        self.indptr.push(self.indices.len());
    }

    /// The general case of [`push_row`](Self::push_row): sort, merge
    /// duplicates, drop zeros.
    fn push_unordered(&mut self, entries: &[(usize, f64)]) {
        let mut row: Vec<(usize, f64)> =
            entries.iter().copied().filter(|(_, v)| *v != 0.0).collect();
        row.sort_unstable_by_key(|(c, _)| *c);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(row.len());
        for (c, v) in row {
            assert!(c < self.cols, "column {c} out of range ({})", self.cols);
            match merged.last_mut() {
                Some((lc, lv)) if *lc == c => *lv += v,
                _ => merged.push((c, v)),
            }
        }
        for (c, v) in merged {
            if v != 0.0 {
                self.indices.push(c as u32);
                self.data.push(v);
            }
        }
    }

    /// Number of rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Finish the build, producing the matrix.
    pub fn finish(self) -> SparseMatrix {
        SparseMatrix {
            indptr: self.indptr,
            indices: self.indices,
            data: self.data,
            cols: self.cols,
        }
    }
}

impl SparseMatrix {
    /// An empty matrix with `rows` rows and `cols` columns (all zero).
    pub fn zeros(rows: usize, cols: usize) -> SparseMatrix {
        SparseMatrix {
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            data: Vec::new(),
            cols,
        }
    }

    /// Convert a dense matrix, dropping zeros.
    pub fn from_dense(m: &Matrix) -> SparseMatrix {
        let mut out = SparseMatrix::zeros(0, m.n_cols());
        out.indptr.reserve(m.n_rows());
        for r in 0..m.n_rows() {
            for (c, v) in m.row(r).iter().enumerate() {
                if *v != 0.0 {
                    out.indices.push(c as u32);
                    out.data.push(*v);
                }
            }
            out.indptr.push(out.indices.len());
        }
        out
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (nonzero) values.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// The `(column, value)` pairs of row `r` in column order.
    ///
    /// # Panics
    /// Panics if `r >= n_rows()`.
    pub fn row_pairs(&self, r: usize) -> Vec<(usize, f64)> {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        self.indices[lo..hi]
            .iter()
            .zip(&self.data[lo..hi])
            .map(|(c, v)| (*c as usize, *v))
            .collect()
    }

    /// Borrowed view of row `r` as parallel column/value slices.
    ///
    /// # Panics
    /// Panics if `r >= n_rows()`.
    pub fn row_view(&self, r: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    /// Dot product of row `r` with a dense weight vector.
    ///
    /// # Panics
    /// Panics if `r` is out of bounds or `w` is shorter than `n_cols()`.
    pub fn row_dot(&self, r: usize, w: &[f64]) -> f64 {
        assert!(w.len() >= self.cols, "weight vector too short");
        let (cols, vals) = self.row_view(r);
        cols.iter().zip(vals).map(|(c, v)| w[*c as usize] * v).sum()
    }

    /// Materialize as a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n_rows(), self.cols);
        for r in 0..self.n_rows() {
            let (cols, vals) = self.row_view(r);
            let row = out.row_mut(r);
            for (c, v) in cols.iter().zip(vals) {
                row[*c as usize] = *v;
            }
        }
        out
    }

    /// Horizontally concatenate sparse matrices with equal row counts.
    ///
    /// # Errors
    /// Returns [`DataError::ShapeMismatch`] on differing row counts or
    /// an empty input.
    pub fn hstack(parts: &[&SparseMatrix]) -> Result<SparseMatrix, DataError> {
        let Some(first) = parts.first() else {
            return Err(DataError::ShapeMismatch {
                context: "hstack of zero sparse matrices".into(),
            });
        };
        let rows = first.n_rows();
        if parts.iter().any(|p| p.n_rows() != rows) {
            return Err(DataError::ShapeMismatch {
                context: "sparse hstack row counts differ".into(),
            });
        }
        let mut out = SparseMatrix::zeros(0, parts.iter().map(|p| p.cols).sum());
        let nnz = parts.iter().map(|p| p.nnz()).sum();
        out.indptr.reserve(rows);
        out.indices.reserve(nnz);
        out.data.reserve(nnz);
        for r in 0..rows {
            let mut offset = 0u32;
            for p in parts {
                let (cs, vs) = p.row_view(r);
                out.indices.extend(cs.iter().map(|c| c + offset));
                out.data.extend_from_slice(vs);
                offset += p.cols as u32;
            }
            out.indptr.push(out.indices.len());
        }
        Ok(out)
    }

    /// Gather rows by index into a new matrix (indices may repeat).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, rows: &[usize]) -> SparseMatrix {
        let mut out = SparseMatrix::zeros(0, self.cols);
        let nnz = rows
            .iter()
            .map(|&r| self.indptr[r + 1] - self.indptr[r])
            .sum();
        out.indptr.reserve(rows.len());
        out.indices.reserve(nnz);
        out.data.reserve(nnz);
        for &r in rows {
            let (cs, vs) = self.row_view(r);
            out.indices.extend_from_slice(cs);
            out.data.extend_from_slice(vs);
            out.indptr.push(out.indices.len());
        }
        out
    }

    /// Copy the contiguous rows `rows` into a new matrix.
    ///
    /// # Panics
    /// Panics if `rows` runs past the last row.
    pub fn slice_rows(&self, rows: Range<usize>) -> SparseMatrix {
        let (lo, hi) = (self.indptr[rows.start], self.indptr[rows.end]);
        SparseMatrix {
            indptr: self.indptr[rows.start..=rows.end]
                .iter()
                .map(|&p| p - lo)
                .collect(),
            indices: self.indices[lo..hi].to_vec(),
            data: self.data[lo..hi].to_vec(),
            cols: self.cols,
        }
    }

    /// Per-column mean absolute values over all rows (implicit zeros
    /// included in the denominator).
    pub fn column_mean_abs(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for (c, v) in self.indices.iter().zip(&self.data) {
            sums[*c as usize] += v.abs();
        }
        let n = self.n_rows();
        if n > 0 {
            for s in &mut sums {
                *s /= n as f64;
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        let mut b = SparseRowBuilder::new(5);
        b.push_row(&[(0, 1.0), (3, 2.0)]);
        b.push_row(&[]);
        b.push_row(&[(4, -1.0)]);
        b.finish()
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 5);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn rows_sorted_and_merged() {
        let mut b = SparseRowBuilder::new(4);
        b.push_row(&[(3, 1.0), (1, 2.0), (3, 4.0), (2, 0.0)]);
        let m = b.finish();
        assert_eq!(m.row_pairs(0), vec![(1, 2.0), (3, 5.0)]);
    }

    #[test]
    fn canonical_rows_take_the_same_form_as_unordered_ones() {
        let mut b = SparseRowBuilder::new(6);
        b.push_row(&[(0, 1.0), (2, -2.0), (5, f64::NAN)]);
        b.push_row(&[(5, 3.0), (2, -2.0), (0, 1.0)]);
        b.push_row(&[(1, 0.0)]);
        b.push_row(&[(4, 1.0)]);
        let m = b.finish();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.row_view(0).0, &[0, 2, 5]);
        assert!(m.row_view(0).1[2].is_nan());
        assert_eq!(m.row_pairs(1), vec![(0, 1.0), (2, -2.0), (5, 3.0)]);
        assert!(m.row_pairs(2).is_empty());
        assert_eq!(m.row_pairs(3), vec![(4, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "column 4 out of range")]
    fn out_of_range_column_panics_on_a_canonical_row() {
        let mut b = SparseRowBuilder::new(4);
        b.push_row(&[(1, 1.0), (4, 1.0)]);
    }

    #[test]
    fn merged_to_zero_is_dropped() {
        let mut b = SparseRowBuilder::new(2);
        b.push_row(&[(1, 1.0), (1, -1.0)]);
        let m = b.finish();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn dense_round_trip() {
        let d = Matrix::from_rows(&[vec![0.0, 1.5, 0.0], vec![2.0, 0.0, -3.0]]);
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn row_dot_matches_dense() {
        let m = sample();
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(m.row_dot(0, &w), 1.0 + 8.0);
        assert_eq!(m.row_dot(1, &w), 0.0);
        assert_eq!(m.row_dot(2, &w), -5.0);
    }

    #[test]
    fn hstack_offsets_columns() {
        let a = sample();
        let joined = SparseMatrix::hstack(&[&a, &a]).unwrap();
        assert_eq!(joined.n_cols(), 10);
        assert_eq!(
            joined.row_pairs(0),
            vec![(0, 1.0), (3, 2.0), (5, 1.0), (8, 2.0)]
        );
        assert!(SparseMatrix::hstack(&[]).is_err());
    }

    #[test]
    fn hstack_and_take_rows_keep_empty_rows() {
        let a = sample();
        let joined = SparseMatrix::hstack(&[&a, &SparseMatrix::zeros(3, 2), &a]).unwrap();
        assert_eq!(joined.n_cols(), 12);
        assert!(joined.row_pairs(1).is_empty());
        assert_eq!(joined.row_pairs(2), vec![(4, -1.0), (11, -1.0)]);
        assert_eq!(joined.nnz(), 6);
        let taken = joined.take_rows(&[1, 1, 2]);
        assert_eq!(taken.n_rows(), 3);
        assert_eq!(taken.nnz(), 2);
        assert_eq!(taken.row_pairs(2), joined.row_pairs(2));
        assert_eq!(a.take_rows(&[]), SparseMatrix::zeros(0, 5));
    }

    #[test]
    fn take_rows_repeats() {
        let m = sample();
        let t = m.take_rows(&[2, 0, 2]);
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.row_pairs(0), vec![(4, -1.0)]);
        assert_eq!(t.row_pairs(1), vec![(0, 1.0), (3, 2.0)]);
    }

    #[test]
    fn column_mean_abs_counts_zeros() {
        let m = sample();
        let means = m.column_mean_abs();
        assert!((means[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((means[4] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(means[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "column 9 out of range")]
    fn out_of_range_column_panics() {
        let mut b = SparseRowBuilder::new(4);
        b.push_row(&[(9, 1.0)]);
    }
}
