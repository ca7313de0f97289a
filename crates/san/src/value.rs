//! Self-describing values stored in the SAN.

use std::collections::BTreeMap;
use std::fmt;

/// A dynamically typed value tree, the unit of storage in
/// [`SharedStore`](crate::SharedStore).
///
/// The OSGi layer serializes framework state, bundle storage areas and
/// migration metadata into `Value`s; the [binary codec](Value::encode) gives
/// the harness realistic byte-size accounting for state-transfer costs.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// An ordered list.
    List(Vec<Value>),
    /// A string-keyed map with deterministic iteration order.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Shorthand for an empty map.
    pub fn map() -> Value {
        Value::Map(BTreeMap::new())
    }

    /// Inserts `key → value` into a map value, returning `self` for
    /// chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a [`Value::Map`].
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Map(m) => {
                m.insert(key.to_owned(), value.into());
            }
            other => panic!("Value::with on non-map {other:?}"),
        }
        self
    }

    /// Gets a map entry.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float; integers are widened.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a byte slice, if it is bytes.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a list slice, if it is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// The value as a map, if it is one.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Encodes the value with the compact binary codec.
    pub fn encode(&self) -> Vec<u8> {
        crate::codec::encode(self)
    }

    /// Decodes a value previously produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformation encountered.
    pub fn decode(bytes: &[u8]) -> Result<Value, String> {
        crate::codec::decode(bytes)
    }

    /// The encoded size in bytes, used for state-transfer accounting.
    /// Streaming — computes the size without materializing the encoding,
    /// so stats paths can call it on every store operation.
    pub fn encoded_len(&self) -> usize {
        crate::codec::encoded_len(self)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}
impl FromIterator<Value> for Value {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Value::List(iter.into_iter().collect())
    }
}
impl FromIterator<(String, Value)> for Value {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Value::Map(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_builder_and_accessors() {
        let v = Value::map()
            .with("name", "logsvc")
            .with("active", true)
            .with("level", 4i64)
            .with("load", 0.5f64);
        assert_eq!(v.get("name").and_then(Value::as_str), Some("logsvc"));
        assert_eq!(v.get("active").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("level").and_then(Value::as_int), Some(4));
        assert_eq!(v.get("load").and_then(Value::as_float), Some(0.5));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn int_widens_to_float() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "Value::with on non-map")]
    fn with_on_non_map_panics() {
        let _ = Value::Int(1).with("x", 2i64);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(vec![1u8, 2]), Value::Bytes(vec![1, 2]));
        let l: Value = vec![Value::Int(1)].into();
        assert_eq!(l.as_list().unwrap().len(), 1);
    }

    #[test]
    fn collect_into_map_and_list() {
        let m: Value = [("a".to_owned(), Value::Int(1))].into_iter().collect();
        assert_eq!(m.get("a"), Some(&Value::Int(1)));
        let l: Value = [Value::Int(1), Value::Int(2)].into_iter().collect();
        assert_eq!(l.as_list().unwrap().len(), 2);
    }

    #[test]
    fn display_is_compact() {
        let v = Value::map()
            .with("a", 1i64)
            .with("b", Value::List(vec![Value::Bool(true)]));
        assert_eq!(v.to_string(), "{a: 1, b: [true]}");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Bytes(vec![0; 3]).to_string(), "<3 bytes>");
    }

    #[test]
    fn default_is_null() {
        assert!(Value::default().is_null());
    }
}
