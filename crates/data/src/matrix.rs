//! Row-major dense matrices: the feature vectors consumed by models.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::DataError;

/// A row-major dense `f64` matrix.
///
/// Rows are data inputs; columns are features. The compiled engine
/// writes feature blocks directly into `Matrix` buffers with no
/// per-value boxing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// A `rows` x `cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from explicit rows.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let cols = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must share a length"
        );
        Matrix {
            data: rows.iter().flatten().copied().collect(),
            rows: rows.len(),
            cols,
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`DataError::ShapeMismatch`] if `data.len() != rows*cols`.
    pub fn from_vec(data: Vec<f64>, rows: usize, cols: usize) -> Result<Matrix, DataError> {
        if data.len() != rows * cols {
            return Err(DataError::ShapeMismatch {
                context: format!(
                    "buffer of {} values cannot form a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(Matrix { data, rows, cols })
    }

    /// Build a single-column matrix from a vector.
    pub fn column_vector(v: Vec<f64>) -> Matrix {
        let rows = v.len();
        Matrix {
            data: v,
            rows,
            cols: 1,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r`.
    ///
    /// # Panics
    /// Panics if `r >= n_rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    ///
    /// # Panics
    /// Panics if `r >= n_rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value at `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Set the value at `(r, c)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// The whole buffer in row-major order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Copy column `c` out of the matrix.
    ///
    /// # Panics
    /// Panics if `c >= n_cols()`.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column out of bounds");
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Per-column means.
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (m, v) in means.iter_mut().zip(self.row(r)) {
                *m += v;
            }
        }
        if self.rows > 0 {
            for m in &mut means {
                *m /= self.rows as f64;
            }
        }
        means
    }

    /// Per-column mean absolute values (used for linear-model
    /// prediction importances: |coef| x mean |feature|).
    pub fn column_mean_abs(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (m, v) in means.iter_mut().zip(self.row(r)) {
                *m += v.abs();
            }
        }
        if self.rows > 0 {
            for m in &mut means {
                *m /= self.rows as f64;
            }
        }
        means
    }

    /// Horizontally concatenate matrices with equal row counts.
    ///
    /// # Errors
    /// Returns [`DataError::ShapeMismatch`] on differing row counts or
    /// an empty input.
    pub fn hstack(parts: &[&Matrix]) -> Result<Matrix, DataError> {
        let Some(first) = parts.first() else {
            return Err(DataError::ShapeMismatch {
                context: "hstack of zero matrices".into(),
            });
        };
        let rows = first.rows;
        if parts.iter().any(|p| p.rows != rows) {
            return Err(DataError::ShapeMismatch {
                context: "hstack row counts differ".into(),
            });
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        Ok(out)
    }

    /// Vertically concatenate matrices with equal column counts.
    ///
    /// # Errors
    /// Returns [`DataError::ShapeMismatch`] on differing column counts
    /// or an empty input.
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix, DataError> {
        let Some(first) = parts.first() else {
            return Err(DataError::ShapeMismatch {
                context: "vstack of zero matrices".into(),
            });
        };
        let cols = first.cols;
        if parts.iter().any(|p| p.cols != cols) {
            return Err(DataError::ShapeMismatch {
                context: "vstack column counts differ".into(),
            });
        }
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(Matrix { data, rows, cols })
    }

    /// Gather rows by index into a new matrix (indices may repeat).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Copy the contiguous rows `rows` into a new matrix.
    ///
    /// # Panics
    /// Panics if `rows` runs past the last row.
    pub fn slice_rows(&self, rows: Range<usize>) -> Matrix {
        Matrix {
            data: self.data[rows.start * self.cols..rows.end * self.cols].to_vec(),
            rows: rows.len(),
            cols: self.cols,
        }
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != n_cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.column(1), vec![2.0, 4.0]);
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Matrix::from_vec(vec![1.0, 2.0, 3.0], 2, 2).is_err());
        let m = Matrix::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        assert_eq!(m.get(0, 1), 2.0);
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let h = Matrix::hstack(&[&a, &b]).unwrap();
        assert_eq!(h.row(1), &[2.0, 5.0, 6.0]);
        let v = Matrix::vstack(&[&a, &a]).unwrap();
        assert_eq!(v.n_rows(), 4);
        assert!(Matrix::hstack(&[]).is_err());
        let c = Matrix::from_rows(&[vec![9.0]]);
        assert!(Matrix::hstack(&[&a, &c]).is_err());
        assert!(Matrix::vstack(&[&a, &b]).is_err());
    }

    #[test]
    fn means_and_abs_means() {
        let m = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, 2.0]]);
        assert_eq!(m.column_means(), vec![2.0, 0.0]);
        assert_eq!(m.column_mean_abs(), vec![2.0, 2.0]);
        assert_eq!(Matrix::zeros(0, 2).column_means(), vec![0.0, 0.0]);
    }

    #[test]
    fn matvec_multiplies() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn take_rows_gathers() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let t = m.take_rows(&[2, 2, 0]);
        assert_eq!(t.as_slice(), &[3.0, 3.0, 1.0]);
    }

    #[test]
    fn set_updates_cell() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 7.0);
        assert_eq!(m.get(0, 1), 7.0);
    }
}
