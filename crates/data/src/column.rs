//! Typed columns: the building block of [`crate::Table`].

use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

use crate::{DataError, DataType, Value};

/// A homogeneously typed column of data, analogous to a Pandas Series.
///
/// Columns are the storage behind [`crate::Table`]; the interpreted
/// engine reads them value-at-a-time through [`Column::value`], while
/// the compiled engine reads whole typed vectors without boxing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Boolean column.
    Bool(Vec<bool>),
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<Arc<str>>),
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool(_) => DataType::Bool,
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
        }
    }

    /// The boxed value at `row`, or `None` if out of bounds.
    pub fn value(&self, row: usize) -> Option<Value> {
        match self {
            Column::Bool(v) => v.get(row).map(|b| Value::Bool(*b)),
            Column::Int(v) => v.get(row).map(|i| Value::Int(*i)),
            Column::Float(v) => v.get(row).map(|f| Value::Float(*f)),
            Column::Str(v) => v.get(row).map(|s| Value::Str(Arc::clone(s))),
        }
    }

    /// Append a value of the matching type.
    ///
    /// # Errors
    /// Returns [`DataError::TypeMismatch`] if `v`'s type differs from
    /// the column type.
    pub fn push(&mut self, v: Value) -> Result<(), DataError> {
        match (self, v) {
            (Column::Bool(c), Value::Bool(b)) => c.push(b),
            (Column::Int(c), Value::Int(i)) => c.push(i),
            (Column::Float(c), Value::Float(f)) => c.push(f),
            (Column::Float(c), Value::Int(i)) => c.push(i as f64),
            (Column::Str(c), Value::Str(s)) => c.push(s),
            (col, v) => {
                return Err(DataError::TypeMismatch {
                    expected: col.data_type(),
                    found: v.data_type(),
                })
            }
        }
        Ok(())
    }

    /// View the column as numeric values (bools as 0/1, ints widened).
    ///
    /// # Errors
    /// Returns [`DataError::TypeMismatch`] for string columns.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>, DataError> {
        match self {
            Column::Bool(v) => Ok(v.iter().map(|b| f64::from(u8::from(*b))).collect()),
            Column::Int(v) => Ok(v.iter().map(|i| *i as f64).collect()),
            Column::Float(v) => Ok(v.clone()),
            Column::Str(_) => Err(DataError::TypeMismatch {
                expected: DataType::Float,
                found: DataType::Str,
            }),
        }
    }

    /// Borrow the underlying strings, if this is a string column.
    pub fn as_str_slice(&self) -> Option<&[Arc<str>]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the underlying ints, if this is an int column.
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the underlying floats, if this is a float column.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Gather rows by index into a new column (indices may repeat).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn take(&self, rows: &[usize]) -> Column {
        match self {
            Column::Bool(v) => Column::Bool(rows.iter().map(|&r| v[r]).collect()),
            Column::Int(v) => Column::Int(rows.iter().map(|&r| v[r]).collect()),
            Column::Float(v) => Column::Float(rows.iter().map(|&r| v[r]).collect()),
            Column::Str(v) => Column::Str(rows.iter().map(|&r| Arc::clone(&v[r])).collect()),
        }
    }

    /// Copy the contiguous rows `rows` into a new column.
    ///
    /// # Panics
    /// Panics if `rows` runs past the last row.
    pub fn slice(&self, rows: Range<usize>) -> Column {
        match self {
            Column::Bool(v) => Column::Bool(v[rows].to_vec()),
            Column::Int(v) => Column::Int(v[rows].to_vec()),
            Column::Float(v) => Column::Float(v[rows].to_vec()),
            Column::Str(v) => Column::Str(v[rows].to_vec()),
        }
    }

    /// An empty column of the given type.
    pub fn empty(dt: DataType) -> Option<Column> {
        match dt {
            DataType::Bool => Some(Column::Bool(Vec::new())),
            DataType::Int => Some(Column::Int(Vec::new())),
            DataType::Float => Some(Column::Float(Vec::new())),
            DataType::Str => Some(Column::Str(Vec::new())),
            DataType::Null => None,
        }
    }

    /// Iterate the column as boxed [`Value`]s (interpreted-engine path).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i).expect("index in range"))
    }
}

impl From<Vec<bool>> for Column {
    fn from(v: Vec<bool>) -> Self {
        Column::Bool(v)
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::Int(v)
    }
}

impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::Float(v)
    }
}

impl From<Vec<String>> for Column {
    fn from(v: Vec<String>) -> Self {
        Column::Str(v.into_iter().map(Arc::from).collect())
    }
}

impl From<Vec<&str>> for Column {
    fn from(v: Vec<&str>) -> Self {
        Column::Str(v.into_iter().map(Arc::from).collect())
    }
}

impl FromIterator<f64> for Column {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Column::Float(iter.into_iter().collect())
    }
}

impl FromIterator<i64> for Column {
    fn from_iter<T: IntoIterator<Item = i64>>(iter: T) -> Self {
        Column::Int(iter.into_iter().collect())
    }
}

impl FromIterator<String> for Column {
    fn from_iter<T: IntoIterator<Item = String>>(iter: T) -> Self {
        Column::Str(iter.into_iter().map(Arc::from).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = Column::from(vec![1i64, 2]);
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(2), Some(Value::Int(3)));
        assert_eq!(c.value(3), None);
        assert!(c.push(Value::str("no")).is_err());
    }

    #[test]
    fn float_column_accepts_ints() {
        let mut c = Column::from(vec![1.0f64]);
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.value(1), Some(Value::Float(2.0)));
    }

    #[test]
    fn to_f64_vec_coerces_bools() {
        let c = Column::from(vec![true, false, true]);
        assert_eq!(c.to_f64_vec().unwrap(), vec![1.0, 0.0, 1.0]);
        let s = Column::from(vec!["a", "b"]);
        assert!(s.to_f64_vec().is_err());
    }

    #[test]
    fn take_gathers_with_repeats() {
        let c = Column::from(vec!["a", "b", "c"]);
        let t = c.take(&[2, 2, 0]);
        assert_eq!(t.value(0), Some(Value::from("c")));
        assert_eq!(t.value(1), Some(Value::from("c")));
        assert_eq!(t.value(2), Some(Value::from("a")));
    }

    #[test]
    fn empty_of_type() {
        assert_eq!(Column::empty(DataType::Int).unwrap().len(), 0);
        assert!(Column::empty(DataType::Null).is_none());
    }

    #[test]
    fn iter_values_yields_all() {
        let c = Column::from(vec![1.5f64, 2.5]);
        let vals: Vec<Value> = c.iter_values().collect();
        assert_eq!(vals, vec![Value::Float(1.5), Value::Float(2.5)]);
    }

    #[test]
    fn collect_from_iterators() {
        let c: Column = (0..3).map(|i| i as f64).collect();
        assert_eq!(c.data_type(), DataType::Float);
        let c: Column = (0i64..3).collect();
        assert_eq!(c.data_type(), DataType::Int);
    }
}
