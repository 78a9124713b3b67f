//! The workspace's one binary codec: the byte layout of WAL records,
//! checkpoint payloads, catalog and storage images, and wire-protocol
//! messages.
//!
//! Hand-rolled rather than serde-based: the workspace's vendored `serde`
//! is a no-op marker stand-in (no registry access), and both a durable
//! on-disk format and a wire format want an explicit, versioned byte
//! layout anyway. It lives in `dt-common` because both ends of the
//! dependency graph write it — the catalog, storage and WAL layers below
//! the engine, the wire protocol above it. `docs/DURABILITY.md` and
//! `docs/PROTOCOL.md` document what each of them puts in these bytes.
//!
//! Conventions (all integers little-endian):
//!
//! * fixed-width scalars: `u8`, `u16`, `u32`, `u64`, `i64`; `bool` is a
//!   `u8` that must be exactly 0 or 1; `f64` is its IEEE-754 bit pattern
//!   as `u64`.
//! * `String` / `&str` / byte blobs: `u32` byte length, then that many
//!   bytes (UTF-8 for strings).
//! * sequences: `u32` element count, then each element.
//! * enums: a `u8` tag, then the variant's fields in order.
//!
//! Decoding is strict: every read is bounds-checked, collection lengths
//! are validated against the remaining payload *before* allocation (a
//! hostile or corrupt `u32::MAX` length cannot force a huge allocation),
//! unknown tags fail, and [`Reader::finish`] rejects trailing bytes. All
//! failures surface as [`DecodeError`] — decoders never panic on malformed
//! input. What a malformed payload *means* is the caller's business: the
//! wire layer answers it with a protocol error frame, and on the recovery
//! path `?` converts it to [`DtError::Corruption`] (bytes that came off
//! the disk and do not decode are corrupt durable state).

use std::fmt;

use crate::{Column, DataType, DtError, Duration, Row, Schema, Timestamp, Value};

/// A malformed payload. Carries only a message; see the module docs for
/// how each caller classifies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for DtError {
    fn from(e: DecodeError) -> DtError {
        DtError::Corruption(e.0)
    }
}

/// Decoding result.
pub type DecodeResult<T> = Result<T, DecodeError>;

fn err<T>(msg: impl Into<String>) -> DecodeResult<T> {
    Err(DecodeError(msg.into()))
}

/// An append-only byte sink with typed `put_*` helpers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start an empty payload.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed byte blob.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Append a sequence length (element count).
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(n as u32);
    }
}

/// A bounds-checked cursor over an encoded payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless the payload was consumed exactly: a well-formed payload
    /// leaves no trailing bytes, so any surplus means the writer and the
    /// reader disagree about the layout.
    pub fn finish(self) -> DecodeResult<()> {
        if self.remaining() != 0 {
            return err(format!("{} trailing byte(s) after payload", self.remaining()));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return err(format!(
                "truncated payload: need {n} byte(s), {} remain",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `bool`; any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self) -> DecodeResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => err(format!("invalid bool byte {b:#04x}")),
        }
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> DecodeResult<String> {
        let n = self.get_u32()? as usize;
        let bytes = self
            .take(n)
            .map_err(|_| DecodeError(format!("string length {n} exceeds payload")))?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("string is not UTF-8".into()))
    }

    /// Read a length-prefixed byte blob, borrowed from the payload.
    pub fn get_bytes(&mut self) -> DecodeResult<&'a [u8]> {
        let n = self.get_u32()? as usize;
        self.take(n)
            .map_err(|_| DecodeError(format!("blob length {n} exceeds payload")))
    }

    /// Read a sequence length, validated against a per-element lower
    /// bound on remaining bytes so a hostile length cannot force a huge
    /// allocation before the payload inevitably runs dry.
    pub fn get_len(&mut self, min_element_size: usize) -> DecodeResult<usize> {
        let n = self.get_u32()? as usize;
        let floor = n.saturating_mul(min_element_size.max(1));
        if floor > self.remaining() {
            return err(format!(
                "sequence claims {n} element(s) but only {} byte(s) remain",
                self.remaining()
            ));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Engine data types.
// ---------------------------------------------------------------------------

const VALUE_NULL: u8 = 0;
const VALUE_BOOL: u8 = 1;
const VALUE_INT: u8 = 2;
const VALUE_FLOAT: u8 = 3;
const VALUE_STR: u8 = 4;
const VALUE_TIMESTAMP: u8 = 5;
const VALUE_DURATION: u8 = 6;

/// Encode a [`Value`]: a one-byte tag, then the payload.
pub fn put_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.put_u8(VALUE_NULL),
        Value::Bool(b) => {
            w.put_u8(VALUE_BOOL);
            w.put_bool(*b);
        }
        Value::Int(i) => {
            w.put_u8(VALUE_INT);
            w.put_i64(*i);
        }
        Value::Float(f) => {
            w.put_u8(VALUE_FLOAT);
            w.put_f64(*f);
        }
        Value::Str(s) => {
            w.put_u8(VALUE_STR);
            w.put_str(s);
        }
        Value::Timestamp(t) => {
            w.put_u8(VALUE_TIMESTAMP);
            w.put_i64(t.as_micros());
        }
        Value::Duration(d) => {
            w.put_u8(VALUE_DURATION);
            w.put_i64(d.as_micros());
        }
    }
}

/// Decode a [`Value`].
pub fn get_value(r: &mut Reader<'_>) -> DecodeResult<Value> {
    Ok(match r.get_u8()? {
        VALUE_NULL => Value::Null,
        VALUE_BOOL => Value::Bool(r.get_bool()?),
        VALUE_INT => Value::Int(r.get_i64()?),
        VALUE_FLOAT => Value::Float(r.get_f64()?),
        VALUE_STR => Value::Str(r.get_str()?),
        VALUE_TIMESTAMP => Value::Timestamp(Timestamp::from_micros(r.get_i64()?)),
        VALUE_DURATION => Value::Duration(Duration::from_micros(r.get_i64()?)),
        tag => return err(format!("unknown Value tag {tag:#04x}")),
    })
}

/// Encode a [`DataType`] as a one-byte tag.
pub fn put_data_type(w: &mut Writer, t: DataType) {
    w.put_u8(match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Timestamp => 4,
        DataType::Duration => 5,
    });
}

/// Decode a [`DataType`].
pub fn get_data_type(r: &mut Reader<'_>) -> DecodeResult<DataType> {
    Ok(match r.get_u8()? {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Timestamp,
        5 => DataType::Duration,
        tag => return err(format!("unknown DataType tag {tag:#04x}")),
    })
}

/// Encode a [`Schema`]: column count, then `(name, type)` per column.
pub fn put_schema(w: &mut Writer, s: &Schema) {
    w.put_len(s.columns().len());
    for c in s.columns() {
        w.put_str(&c.name);
        put_data_type(w, c.ty);
    }
}

/// Decode a [`Schema`].
pub fn get_schema(r: &mut Reader<'_>) -> DecodeResult<Schema> {
    // Each column is at least a 4-byte name length + 1-byte type tag.
    let n = r.get_len(5)?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.get_str()?;
        let ty = get_data_type(r)?;
        cols.push(Column::new(name, ty));
    }
    Ok(Schema::new(cols))
}

/// Encode a [`Row`]: value count, then each value.
pub fn put_row(w: &mut Writer, row: &Row) {
    w.put_len(row.len());
    for v in row.values() {
        put_value(w, v);
    }
}

/// Decode a [`Row`].
pub fn get_row(r: &mut Reader<'_>) -> DecodeResult<Row> {
    // A value is at least its 1-byte tag.
    let n = r.get_len(1)?;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(get_value(r)?);
    }
    Ok(Row::new(vals))
}

/// Encode a row set: row count, then each row.
pub fn put_rows(w: &mut Writer, rows: &[Row]) {
    w.put_len(rows.len());
    for row in rows {
        put_row(w, row);
    }
}

/// Decode a row set.
pub fn get_rows(r: &mut Reader<'_>) -> DecodeResult<Vec<Row>> {
    // A row is at least its 4-byte value count.
    let n = r.get_len(4)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(get_row(r)?);
    }
    Ok(rows)
}

/// Encode a `Vec<Value>` (prepared-statement parameters).
pub fn put_values(w: &mut Writer, vals: &[Value]) {
    w.put_len(vals.len());
    for v in vals {
        put_value(w, v);
    }
}

/// Decode a `Vec<Value>`.
pub fn get_values(r: &mut Reader<'_>) -> DecodeResult<Vec<Value>> {
    let n = r.get_len(1)?;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(get_value(r)?);
    }
    Ok(vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_value(v: Value) {
        let mut w = Writer::new();
        put_value(&mut w, &v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = get_value(&mut r).unwrap();
        r.finish().unwrap();
        // Compare through Debug to keep NaN distinguishable from itself
        // only where the engine's total order says so.
        assert_eq!(format!("{v:?}"), format!("{back:?}"));
    }

    #[test]
    fn scalar_round_trips() {
        round_trip_value(Value::Null);
        round_trip_value(Value::Bool(true));
        round_trip_value(Value::Int(i64::MIN));
        round_trip_value(Value::Float(-0.0));
        round_trip_value(Value::Float(f64::NAN));
        round_trip_value(Value::Str("héllo, wörld".into()));
        round_trip_value(Value::Timestamp(Timestamp::from_micros(-5)));
        round_trip_value(Value::Duration(Duration::from_secs(3600)));
    }

    #[test]
    fn schema_rows_values_and_blobs_round_trip() {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("name", DataType::Str),
        ]);
        let rows = vec![
            Row::new(vec![Value::Int(i64::MIN), Value::Str("héllo".into())]),
            Row::new(vec![Value::Null, Value::Null]),
        ];
        let params = vec![Value::Int(7), Value::Null, Value::Str("p".into())];
        let mut w = Writer::new();
        put_schema(&mut w, &schema);
        put_rows(&mut w, &rows);
        put_values(&mut w, &params);
        w.put_bytes(b"opaque blob");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(get_schema(&mut r).unwrap(), schema);
        assert_eq!(get_rows(&mut r).unwrap(), rows);
        assert_eq!(get_values(&mut r).unwrap(), params);
        assert_eq!(r.get_bytes().unwrap(), b"opaque blob");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        put_value(&mut w, &Value::Str("payload".into()));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(get_value(&mut r).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn hostile_lengths_cannot_force_allocation() {
        // A row set claiming u32::MAX rows in a 4-byte payload must fail
        // on the length check, before any Vec::with_capacity.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(get_rows(&mut r).is_err());
        let mut r = Reader::new(&bytes);
        assert!(get_values(&mut r).is_err());
        let mut r = Reader::new(&bytes);
        assert!(r.get_bytes().is_err());

        // A string / blob claiming u32::MAX bytes with 3 behind it.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        w.put_raw(b"abc");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_str().is_err());
        let mut r = Reader::new(&bytes);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        put_value(&mut w, &Value::Int(7));
        w.put_u8(0xFF);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        get_value(&mut r).unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut r = Reader::new(&[0x7F]);
        assert!(get_value(&mut r).is_err());
        let mut r = Reader::new(&[0x7F]);
        assert!(get_data_type(&mut r).is_err());
        let mut r = Reader::new(&[2]); // bool byte 2
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn malformed_input_becomes_corruption_on_the_durable_path() {
        fn decode(bytes: &[u8]) -> crate::DtResult<Value> {
            Ok(get_value(&mut Reader::new(bytes))?)
        }
        match decode(&[0x7F]) {
            Err(DtError::Corruption(_)) => {}
            other => panic!("expected Corruption, got {other:?}"),
        }
    }
}
