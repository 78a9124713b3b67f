//! The dynamically typed scalar value.
//!
//! `Value` implements `Eq`, `Ord`, and `Hash` *totally*, including over
//! floats (via IEEE-754 total ordering of bit patterns with NaN normalized).
//! A total order is required because values are used as group-by and join
//! keys throughout the engine. The paper (§3.4) notes Snowflake prohibits
//! floats only where nondeterminism would interfere with view maintenance
//! (e.g. joining on a float aggregate key); our single-process engine is
//! deterministic so we can afford to allow them while still documenting the
//! hazard at the API level.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{DtError, DtResult};
use crate::schema::DataType;
use crate::time::{Duration, Timestamp};

/// A scalar runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE-754 float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Microseconds since the simulation epoch.
    Timestamp(Timestamp),
    /// A duration (interval) in microseconds.
    Duration(Duration),
}

impl Value {
    /// The runtime type of this value, `None` for NULL (untyped).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Duration(_) => Some(DataType::Duration),
        }
    }

    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a boolean for filter predicates. NULL is "not true".
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Numeric widening: integer payload as f64, if numeric.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Extract an i64 or fail with a type error.
    pub fn expect_int(&self) -> DtResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(DtError::Type(format!("expected INT, got {other}"))),
        }
    }

    /// Extract a string slice or fail with a type error.
    pub fn expect_str(&self) -> DtResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(DtError::Type(format!("expected STRING, got {other}"))),
        }
    }

    /// SQL `+`. NULL-propagating; timestamp + duration supported.
    pub fn add(&self, rhs: &Value) -> DtResult<Value> {
        use Value::*;
        Ok(match (self, rhs) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => Int(a.checked_add(*b).ok_or_else(overflow)?),
            (Timestamp(t), Duration(d)) | (Duration(d), Timestamp(t)) => Timestamp(t.add(*d)),
            (Duration(a), Duration(b)) => Duration(crate::time::Duration::from_micros(
                a.as_micros() + b.as_micros(),
            )),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Float(x + y),
                _ => return Err(DtError::Type(format!("cannot add {a} + {b}"))),
            },
        })
    }

    /// SQL `-`. Timestamp - timestamp yields a duration.
    pub fn sub(&self, rhs: &Value) -> DtResult<Value> {
        use Value::*;
        Ok(match (self, rhs) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => Int(a.checked_sub(*b).ok_or_else(overflow)?),
            (Timestamp(a), Timestamp(b)) => Duration(a.since(*b)),
            (Timestamp(t), Duration(d)) => {
                Timestamp(t.add(crate::time::Duration::from_micros(-d.as_micros())))
            }
            (Duration(a), Duration(b)) => Duration(crate::time::Duration::from_micros(
                a.as_micros() - b.as_micros(),
            )),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Float(x - y),
                _ => return Err(DtError::Type(format!("cannot subtract {a} - {b}"))),
            },
        })
    }

    /// SQL `*`.
    pub fn mul(&self, rhs: &Value) -> DtResult<Value> {
        use Value::*;
        Ok(match (self, rhs) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => Int(a.checked_mul(*b).ok_or_else(overflow)?),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Float(x * y),
                _ => return Err(DtError::Type(format!("cannot multiply {a} * {b}"))),
            },
        })
    }

    /// SQL `/`. Division by zero is a *user* evaluation error — the paper's
    /// canonical example of a refresh-failing error (§3.3.3).
    pub fn div(&self, rhs: &Value) -> DtResult<Value> {
        use Value::*;
        Ok(match (self, rhs) {
            (Null, _) | (_, Null) => Null,
            (Int(_), Int(0)) => return Err(DtError::Evaluation("division by zero".into())),
            (Int(a), Int(b)) => Int(a / b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(_), Some(0.0)) => {
                    return Err(DtError::Evaluation("division by zero".into()))
                }
                (Some(x), Some(y)) => Float(x / y),
                _ => return Err(DtError::Type(format!("cannot divide {a} / {b}"))),
            },
        })
    }

    /// SQL `%` on integers.
    pub fn modulo(&self, rhs: &Value) -> DtResult<Value> {
        use Value::*;
        Ok(match (self, rhs) {
            (Null, _) | (_, Null) => Null,
            (Int(_), Int(0)) => return Err(DtError::Evaluation("modulo by zero".into())),
            (Int(a), Int(b)) => Int(a % b),
            (a, b) => return Err(DtError::Type(format!("cannot mod {a} % {b}"))),
        })
    }

    /// Arithmetic negation.
    pub fn neg(&self) -> DtResult<Value> {
        use Value::*;
        Ok(match self {
            Null => Null,
            Int(a) => Int(a.checked_neg().ok_or_else(overflow)?),
            Float(a) => Float(-a),
            Duration(d) => Duration(crate::time::Duration::from_micros(-d.as_micros())),
            other => return Err(DtError::Type(format!("cannot negate {other}"))),
        })
    }

    /// SQL three-valued comparison: NULL if either side is NULL.
    pub fn sql_cmp(&self, rhs: &Value) -> Option<Ordering> {
        if self.is_null() || rhs.is_null() {
            return None;
        }
        // Numeric cross-type comparison widens to f64.
        if let (Some(a), Some(b)) = (self.as_f64(), rhs.as_f64()) {
            return Some(total_f64_cmp(a, b));
        }
        Some(self.cmp(rhs))
    }

    /// SQL equality with three-valued logic (NULL if either side is NULL).
    pub fn sql_eq(&self, rhs: &Value) -> Value {
        match self.sql_cmp(rhs) {
            None => Value::Null,
            Some(o) => Value::Bool(o == Ordering::Equal),
        }
    }

    /// Cast to the given type, erroring when the cast is not meaningful.
    pub fn cast(&self, to: DataType) -> DtResult<Value> {
        use Value::*;
        if self.is_null() {
            return Ok(Null);
        }
        Ok(match (self, to) {
            (v, t) if v.data_type() == Some(t) => v.clone(),
            (Int(i), DataType::Float) => Float(*i as f64),
            (Float(f), DataType::Int) => Int(*f as i64),
            (Int(i), DataType::Str) => Str(i.to_string()),
            (Float(f), DataType::Str) => Str(f.to_string()),
            (Bool(b), DataType::Str) => Str(b.to_string()),
            (Str(s), DataType::Int) => Int(s
                .trim()
                .parse::<i64>()
                .map_err(|_| DtError::Evaluation(format!("cannot cast '{s}' to INT")))?),
            (Str(s), DataType::Float) => Float(s
                .trim()
                .parse::<f64>()
                .map_err(|_| DtError::Evaluation(format!("cannot cast '{s}' to FLOAT")))?),
            (Int(i), DataType::Timestamp) => Timestamp(crate::time::Timestamp::from_micros(*i)),
            (Timestamp(t), DataType::Int) => Int(t.as_micros()),
            (Timestamp(t), DataType::Str) => Str(t.to_string()),
            (Duration(d), DataType::Int) => Int(d.as_micros()),
            (Str(s), DataType::Duration) => {
                Duration(crate::time::Duration::parse(s).map_err(DtError::Evaluation)?)
            }
            (v, t) => return Err(DtError::Type(format!("cannot cast {v} to {t}"))),
        })
    }
}

fn overflow() -> DtError {
    DtError::Evaluation("integer overflow".into())
}

/// Total order on f64: normalize NaN, order by IEEE-754 total ordering.
fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// The bits a numeric value hashes as: all NaNs collapse to one pattern and
/// `-0.0` to `+0.0`, and an `Int` goes through its `f64` image — so values
/// that are equal under `Value`'s `Eq` (`Int(1)` and `Float(1.0)`) have
/// equal bits. `Value`'s `Hash` feeds these to the hasher; a hash table
/// over typed `i64`/`f64` columns can feed them directly and stay
/// consistent with it.
pub fn numeric_hash_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0f64.to_bits()
    } else {
        f.to_bits()
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order across all variants: NULL < Bool < Int/Float < Str <
    /// Timestamp < Duration, with Int and Float comparing numerically.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
                Timestamp(_) => 4,
                Duration(_) => 5,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => total_f64_cmp(if a.is_nan() { f64::NAN } else { *a }, *b),
            (Int(a), Float(b)) => total_f64_cmp(*a as f64, *b),
            (Float(a), Int(b)) => total_f64_cmp(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Duration(a), Duration(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        use Value::*;
        match self {
            Null => 0u8.hash(state),
            Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float must hash identically when numerically equal,
            // because Eq treats Int(1) == Float(1.0).
            Int(i) => {
                2u8.hash(state);
                numeric_hash_bits(*i as f64).hash(state);
            }
            Float(f) => {
                2u8.hash(state);
                numeric_hash_bits(*f).hash(state);
            }
            Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Timestamp(t) => {
                4u8.hash(state);
                t.as_micros().hash(state);
            }
            Duration(d) => {
                5u8.hash(state);
                d.as_micros().hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Timestamp(t) => write!(f, "{t}"),
            Value::Duration(d) => write!(f, "{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Timestamp> for Value {
    fn from(v: Timestamp) -> Self {
        Value::Timestamp(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_numeric_equality_and_hash_agree() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_is_self_equal_under_total_order() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_equals_zero() {
        assert_eq!(Value::Float(-0.0).cmp(&Value::Float(0.0)), Ordering::Less);
        // total_cmp puts -0.0 < 0.0; hashing normalizes, which is fine
        // because grouping uses Ord-based BTree keys or exact hash+eq pairs.
        // We therefore assert hash equality is NOT relied upon here.
        assert_ne!(Value::Float(-0.0), Value::Float(0.0));
    }

    #[test]
    fn sql_three_valued_comparison() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), Value::Null);
        assert_eq!(Value::Int(2).sql_eq(&Value::Int(2)), Value::Bool(true));
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn arithmetic_null_propagation() {
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).mul(&Value::Null).unwrap().is_null());
    }

    #[test]
    fn division_by_zero_is_user_error() {
        let err = Value::Int(1).div(&Value::Int(0)).unwrap_err();
        assert!(err.is_user_error());
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Value::Timestamp(Timestamp::from_micros(1_000_000));
        let d = Value::Duration(Duration::from_secs(2));
        let t2 = t.add(&d).unwrap();
        assert_eq!(t2, Value::Timestamp(Timestamp::from_micros(3_000_000)));
        let diff = t2.sub(&t).unwrap();
        assert_eq!(diff, Value::Duration(Duration::from_secs(2)));
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Str("42".into()).cast(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Int(42).cast(DataType::Str).unwrap(),
            Value::Str("42".into())
        );
        assert!(Value::Str("nope".into()).cast(DataType::Int).is_err());
        assert!(Value::Null.cast(DataType::Int).unwrap().is_null());
    }

    #[test]
    fn overflow_is_evaluation_error() {
        let e = Value::Int(i64::MAX).add(&Value::Int(1)).unwrap_err();
        assert!(matches!(e, DtError::Evaluation(_)));
    }
}
