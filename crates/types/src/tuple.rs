//! Timestamped tuples and tuple batches.
//!
//! A [`Tuple`] is an immutable row of [`Value`]s plus the [`SimTime`] at
//! which it was produced. Tuples are reference-counted ([`Arc`]) because
//! windowed operators keep them in multiple indexes simultaneously.
//! [`Batch`]es are what exchange operators move between simulated nodes.

use std::fmt;
use std::sync::Arc;

use crate::schema::SchemaRef;
use crate::time::SimTime;
use crate::value::Value;

/// An immutable, timestamped row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Arc<[Value]>,
    timestamp: SimTime,
}

impl Tuple {
    pub fn new(values: Vec<Value>, timestamp: SimTime) -> Self {
        Tuple {
            values: values.into(),
            timestamp,
        }
    }

    /// Row from an exact-size value iterator. Chains of slice clones and
    /// mapped ranges allocate the shared value slice once, where `new`
    /// allocates the `Vec` and then copies it into the slice.
    pub fn from_values(values: impl IntoIterator<Item = Value>, timestamp: SimTime) -> Self {
        Tuple {
            values: values.into_iter().collect(),
            timestamp,
        }
    }

    /// Row with all-default timestamp; convenient for static tables.
    pub fn row(values: Vec<Value>) -> Self {
        Tuple::new(values, SimTime::ZERO)
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn timestamp(&self) -> SimTime {
        self.timestamp
    }

    /// Same values, new timestamp (used when an operator re-times output,
    /// e.g. a window aggregate emitting at window close).
    pub fn with_timestamp(&self, t: SimTime) -> Tuple {
        Tuple {
            values: Arc::clone(&self.values),
            timestamp: t,
        }
    }

    /// Concatenate two tuples (join output); timestamp is the *later* of
    /// the two inputs, the standard stream-join convention.
    pub fn join(&self, right: &Tuple) -> Tuple {
        Tuple::from_values(
            self.values.iter().chain(right.values.iter()).cloned(),
            self.timestamp.max(right.timestamp),
        )
    }

    /// Keep only the listed columns, in order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(
            indices.iter().map(|&i| self.values[i].clone()).collect(),
            self.timestamp,
        )
    }

    /// Key extraction for hash joins / group-by: clones the named columns.
    pub fn key(&self, indices: &[usize]) -> Vec<Value> {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Render as a `(a, b, c)` string for the GUI and harness tables.
    pub fn render(&self) -> String {
        let cells: Vec<String> = self.values.iter().map(Value::render).collect();
        format!("({})", cells.join(", "))
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.render(), self.timestamp)
    }
}

/// A batch of tuples sharing a schema — the exchange / wrapper unit.
#[derive(Debug, Clone)]
pub struct Batch {
    pub schema: SchemaRef,
    pub tuples: Vec<Tuple>,
}

impl Batch {
    pub fn new(schema: SchemaRef, tuples: Vec<Tuple>) -> Self {
        Batch { schema, tuples }
    }

    pub fn empty(schema: SchemaRef) -> Self {
        Batch {
            schema,
            tuples: vec![],
        }
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Maximum timestamp in the batch, if nonempty; exchanges use this for
    /// progress tracking.
    pub fn max_timestamp(&self) -> Option<SimTime> {
        self.tuples.iter().map(Tuple::timestamp).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn t(vals: Vec<Value>, us: u64) -> Tuple {
        Tuple::new(vals, SimTime::from_micros(us))
    }

    #[test]
    fn join_takes_later_timestamp() {
        let a = t(vec![Value::Int(1)], 10);
        let b = t(vec![Value::Int(2)], 20);
        let j = a.join(&b);
        assert_eq!(j.timestamp(), SimTime::from_micros(20));
        assert_eq!(j.values(), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn project_preserves_timestamp() {
        let a = t(vec![Value::Int(1), Value::Int(2), Value::Int(3)], 7);
        let p = a.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(3), Value::Int(1)]);
        assert_eq!(p.timestamp(), SimTime::from_micros(7));
    }

    #[test]
    fn key_extracts_columns() {
        let a = t(vec![Value::Int(1), Value::Text("x".into())], 0);
        assert_eq!(a.key(&[1]), vec![Value::Text("x".into())]);
    }

    #[test]
    fn with_timestamp_shares_values() {
        let a = t(vec![Value::Int(9)], 1);
        let b = a.with_timestamp(SimTime::from_micros(99));
        assert_eq!(b.values(), a.values());
        assert_eq!(b.timestamp(), SimTime::from_micros(99));
    }

    #[test]
    fn batch_max_timestamp() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).into_ref();
        let b = Batch::new(
            Arc::clone(&schema),
            vec![t(vec![Value::Int(1)], 5), t(vec![Value::Int(2)], 3)],
        );
        assert_eq!(b.max_timestamp(), Some(SimTime::from_micros(5)));
        assert_eq!(Batch::empty(schema).max_timestamp(), None);
    }

    #[test]
    fn render_joins_cells() {
        let a = t(vec![Value::Int(1), Value::Text("lab".into())], 0);
        assert_eq!(a.render(), "(1, lab)");
    }
}
