//! Named-column tables, analogous to Pandas DataFrames in the paper's
//! pipelines and to the feature tables stored in Redis.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;

use crate::{Column, DataError, DataType, Value};

/// An ordered collection of equal-length named [`Column`]s.
///
/// ```
/// use willump_data::{Table, Column};
///
/// # fn main() -> Result<(), willump_data::DataError> {
/// let mut t = Table::new();
/// t.add_column("id", Column::from(vec![10i64, 20]))?;
/// t.add_column("name", Column::from(vec!["a", "b"]))?;
/// assert_eq!(t.column_names(), vec!["id", "name"]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table {
    columns: Vec<(String, Column)>,
    #[serde(skip)]
    index: HashMap<String, usize>,
}

impl Table {
    /// An empty table with no columns.
    pub fn new() -> Table {
        Table::default()
    }

    /// Build a table from `(name, column)` pairs.
    ///
    /// # Errors
    /// Returns an error on duplicate names or mismatched lengths.
    pub fn from_columns(
        cols: impl IntoIterator<Item = (String, Column)>,
    ) -> Result<Table, DataError> {
        let mut t = Table::new();
        for (name, col) in cols {
            t.add_column(name, col)?;
        }
        Ok(t)
    }

    /// Number of rows (0 for a table with no columns).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, c)| c.len())
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names in insertion order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The schema as `(name, type)` pairs in insertion order.
    pub fn schema(&self) -> Vec<(&str, DataType)> {
        self.columns
            .iter()
            .map(|(n, c)| (n.as_str(), c.data_type()))
            .collect()
    }

    /// Append a column.
    ///
    /// # Errors
    /// Returns [`DataError::DuplicateColumn`] if `name` exists, or
    /// [`DataError::ShapeMismatch`] if the length differs from the
    /// table's current row count (for non-empty tables).
    pub fn add_column(&mut self, name: impl Into<String>, col: Column) -> Result<(), DataError> {
        let name = name.into();
        if self.index.contains_key(&name) {
            return Err(DataError::DuplicateColumn { name });
        }
        if !self.columns.is_empty() && col.len() != self.n_rows() {
            return Err(DataError::ShapeMismatch {
                context: format!(
                    "column `{name}` has {} rows, table has {}",
                    col.len(),
                    self.n_rows()
                ),
            });
        }
        self.index.insert(name.clone(), self.columns.len());
        self.columns.push((name, col));
        Ok(())
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.index.get(name).map(|&i| &self.columns[i].1)
    }

    /// Borrow a column by name, erroring when missing.
    ///
    /// # Errors
    /// Returns [`DataError::UnknownColumn`] when the name is absent.
    pub fn try_column(&self, name: &str) -> Result<&Column, DataError> {
        self.column(name).ok_or_else(|| DataError::UnknownColumn {
            name: name.to_string(),
        })
    }

    /// The value at (`row`, `name`), if both exist.
    pub fn value(&self, row: usize, name: &str) -> Option<Value> {
        self.column(name).and_then(|c| c.value(row))
    }

    /// A full row as boxed values in column order.
    ///
    /// # Errors
    /// Returns [`DataError::RowOutOfBounds`] when `row >= n_rows()`.
    pub fn row(&self, row: usize) -> Result<Vec<Value>, DataError> {
        if row >= self.n_rows() {
            return Err(DataError::RowOutOfBounds {
                index: row,
                len: self.n_rows(),
            });
        }
        Ok(self
            .columns
            .iter()
            .map(|(_, c)| c.value(row).expect("bounds checked"))
            .collect())
    }

    /// Gather rows by index into a new table (indices may repeat).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn take_rows(&self, rows: &[usize]) -> Table {
        let mut t = Table::new();
        for (name, col) in &self.columns {
            t.add_column(name.clone(), col.take(rows))
                .expect("taken columns share length");
        }
        t
    }

    /// Copy the contiguous rows `rows` into a new table.
    ///
    /// # Panics
    /// Panics if `rows` runs past the last row.
    pub fn slice_rows(&self, rows: Range<usize>) -> Table {
        let mut t = Table::new();
        for (name, col) in &self.columns {
            t.add_column(name.clone(), col.slice(rows.clone()))
                .expect("sliced columns share length");
        }
        t
    }

    /// Keep only the named columns, in the given order.
    ///
    /// # Errors
    /// Returns [`DataError::UnknownColumn`] for any missing name.
    pub fn select(&self, names: &[&str]) -> Result<Table, DataError> {
        let mut t = Table::new();
        for &name in names {
            let col = self.try_column(name)?.clone();
            t.add_column(name, col)?;
        }
        Ok(t)
    }

    /// Iterate `(name, column)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.columns.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Rebuild the name index (used after deserialization).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.clone(), i))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_columns([
            ("id".to_string(), Column::from(vec![1i64, 2, 3])),
            ("x".to_string(), Column::from(vec![0.1, 0.2, 0.3])),
            ("s".to_string(), Column::from(vec!["a", "b", "c"])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let t = sample();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.value(2, "s"), Some(Value::from("c")));
        assert_eq!(t.value(3, "s"), None);
        assert!(t.column("missing").is_none());
    }

    #[test]
    fn slice_rows_matches_take_rows_of_the_range() {
        let t = sample();
        assert_eq!(t.slice_rows(1..3), t.take_rows(&[1, 2]));
        assert_eq!(t.slice_rows(0..0).n_rows(), 0);
    }

    #[test]
    fn duplicate_and_mismatch_rejected() {
        let mut t = sample();
        assert!(matches!(
            t.add_column("id", Column::from(vec![9i64, 9, 9])),
            Err(DataError::DuplicateColumn { .. })
        ));
        assert!(matches!(
            t.add_column("bad", Column::from(vec![1i64])),
            Err(DataError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn row_extraction() {
        let t = sample();
        let r = t.row(1).unwrap();
        assert_eq!(r, vec![Value::Int(2), Value::Float(0.2), Value::from("b")]);
        assert!(t.row(5).is_err());
    }

    #[test]
    fn take_and_select() {
        let t = sample();
        let sub = t.take_rows(&[2, 0]);
        assert_eq!(sub.value(0, "id"), Some(Value::Int(3)));
        let sel = t.select(&["s", "id"]).unwrap();
        assert_eq!(sel.column_names(), vec!["s", "id"]);
        assert!(t.select(&["nope"]).is_err());
    }

    #[test]
    fn schema_reports_types() {
        let t = sample();
        assert_eq!(
            t.schema(),
            vec![
                ("id", DataType::Int),
                ("x", DataType::Float),
                ("s", DataType::Str)
            ]
        );
    }
}
