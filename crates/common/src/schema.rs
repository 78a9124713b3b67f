//! Relational schemas.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

use crate::error::{DtError, DtResult};

/// Scalar column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Instant on the simulation timeline.
    Timestamp,
    /// Interval.
    Duration,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Timestamp => "TIMESTAMP",
            DataType::Duration => "INTERVAL",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Parse a SQL type name.
    pub fn parse(s: &str) -> DtResult<DataType> {
        Ok(match s.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => DataType::Bool,
            "INT" | "INTEGER" | "BIGINT" | "NUMBER" => DataType::Int,
            "FLOAT" | "DOUBLE" | "REAL" => DataType::Float,
            "STRING" | "TEXT" | "VARCHAR" => DataType::Str,
            "TIMESTAMP" | "DATETIME" => DataType::Timestamp,
            "INTERVAL" | "DURATION" => DataType::Duration,
            other => return Err(DtError::Type(format!("unknown type '{other}'"))),
        })
    }
}

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Column {
    /// Column name (case-normalized to lowercase by the binder).
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

impl Column {
    /// Construct a column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Column {
            name: name.into().to_ascii_lowercase(),
            ty,
        }
    }
}

/// An ordered list of named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<Column>,
}

/// Schemas are shared widely (plans, snapshots, partitions); `Arc` them.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Build from columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Empty schema (zero columns).
    pub fn empty() -> Self {
        Schema::default()
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column with the given (case-insensitive) name, if any.
    /// Returns an error on ambiguity.
    pub fn index_of(&self, name: &str) -> DtResult<usize> {
        let lname = name.to_ascii_lowercase();
        let mut found = None;
        for (i, c) in self.columns.iter().enumerate() {
            if c.name == lname {
                if found.is_some() {
                    return Err(DtError::Binding(format!("ambiguous column '{name}'")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| DtError::Binding(format!("unknown column '{name}'")))
    }

    /// The column at `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Concatenate two schemas (used by joins).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut cols = self.columns.clone();
        cols.extend(other.columns.iter().cloned());
        Schema::new(cols)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Str),
            Column::new("c", DataType::Float),
        ])
    }

    #[test]
    fn index_lookup_is_case_insensitive() {
        let s = abc();
        assert_eq!(s.index_of("B").unwrap(), 1);
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.index_of("z").is_err());
    }

    #[test]
    fn ambiguous_columns_error() {
        let s = abc().join(&abc());
        assert!(matches!(s.index_of("a"), Err(DtError::Binding(_))));
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn datatype_parse_aliases() {
        assert_eq!(DataType::parse("bigint").unwrap(), DataType::Int);
        assert_eq!(DataType::parse("VARCHAR").unwrap(), DataType::Str);
        assert!(DataType::parse("blob").is_err());
    }

    #[test]
    fn display_roundtrip_readable() {
        assert_eq!(abc().to_string(), "(a INT, b STRING, c FLOAT)");
    }
}
