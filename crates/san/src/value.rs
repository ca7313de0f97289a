//! Self-describing values stored in the SAN.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A map key: a string literal, which costs nothing to make or clone, or an
/// owned string (a computed name, decoded bytes). Either way it compares,
/// orders and prints as its text, so a value built from literals equals its
/// own decode.
pub type Key = Cow<'static, str>;

/// The entries of a [`Value::Map`]: one vector kept strictly ascending by
/// key, so iteration order — and with it `Display` and every encoded byte
/// — is key order, and a map of literals costs one allocation.
#[derive(PartialEq, Default)]
pub struct Map(Vec<(Key, Value)>);

impl Clone for Map {
    #[inline]
    fn clone(&self) -> Self {
        Map(self.0.clone())
    }

    /// Overwrites entry by entry, so that an entry of the same shape keeps
    /// its allocations (a tuple's own `clone_from` clones afresh).
    fn clone_from(&mut self, source: &Self) {
        self.0.truncate(source.0.len());
        let (shared, tail) = source.0.split_at(self.0.len());
        for ((key, value), (source_key, source_value)) in self.0.iter_mut().zip(shared) {
            key.clone_from(source_key);
            value.clone_from(source_value);
        }
        self.0.extend_from_slice(tail);
    }
}

impl Map {
    /// An empty map; allocates nothing until the first insert.
    pub fn new() -> Map {
        Map::default()
    }

    /// An empty map with room for `n` entries.
    pub fn with_capacity(n: usize) -> Map {
        Map(Vec::with_capacity(n))
    }

    /// A map of `entries` given in strictly ascending key order, as they
    /// stand: no search and no move per entry, and the vector is the map's
    /// one allocation. Entries in any other order are a bug, caught in
    /// debug builds; [`Value::with`] and `collect` take any order.
    ///
    /// # Panics
    ///
    /// In debug builds, if a key does not sort after the one before it.
    pub fn from_sorted(entries: Vec<(Key, Value)>) -> Map {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "Map::from_sorted: keys not strictly ascending"
        );
        Map(entries)
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    // A binary search with branches. `binary_search_by` is branchless: each
    // comparison waits for the one before it, which on a five-entry record
    // read 37 ns a lookup where this and the tree it replaces read 11.
    fn search(&self, key: &str) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.0.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match (*self.0[mid].0).cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return Ok(mid),
                Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.search(key).ok().map(|i| &self.0[i].1)
    }

    /// The value stored under `key`, to write in place.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.search(key).ok().map(|i| &mut self.0[i].1)
    }

    /// True if `key` has an entry.
    pub fn contains_key(&self, key: &str) -> bool {
        self.search(key).is_ok()
    }

    /// Stores `value` under `key`, returning the value it replaces. A key
    /// that sorts after every present one — a builder chain written in key
    /// order, a decode — is appended without a search.
    pub fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        if self.0.last().is_none_or(|(last, _)| *last < key) {
            self.0.push((key, value));
            return None;
        }
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`'s entry, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.search(key).ok().map(|i| self.0.remove(i).1)
    }

    /// The entries in key order.
    pub fn iter(&self) -> Iter<'_> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// The keys, ascending.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &Key> + ExactSizeIterator {
        self.0.iter().map(|(k, _)| k)
    }

    /// The values, in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Value> + ExactSizeIterator {
        self.0.iter().map(|(_, v)| v)
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl IntoIterator for Map {
    type Item = (Key, Value);
    type IntoIter = std::vec::IntoIter<(Key, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// What [`Map::iter`] returns: a slice walk that splits each entry.
pub type Iter<'a> = std::iter::Map<
    std::slice::Iter<'a, (Key, Value)>,
    fn(&'a (Key, Value)) -> (&'a Key, &'a Value),
>;

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a Key, &'a Value);
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Collects entries in any order; of two with one key the later wins, as
/// in a `BTreeMap`.
impl<K: Into<Key>> FromIterator<(K, Value)> for Map {
    fn from_iter<T: IntoIterator<Item = (K, Value)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut m = Map::with_capacity(iter.size_hint().0);
        for (k, v) in iter {
            m.insert(k.into(), v);
        }
        m
    }
}

/// A dynamically typed value tree, the unit of storage in
/// [`SharedStore`](crate::SharedStore).
///
/// The OSGi layer serializes framework state, bundle storage areas and
/// migration metadata into `Value`s; the [binary codec](Value::encode) gives
/// the harness realistic byte-size accounting for state-transfer costs.
#[derive(Debug, PartialEq, Default)]
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
    /// A string-keyed map, iterated in key order.
    Map(Map),
}

impl Clone for Value {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(*b),
            Value::Int(i) => Value::Int(*i),
            Value::Float(x) => Value::Float(*x),
            Value::Str(s) => Value::Str(s.clone()),
            Value::Bytes(b) => Value::Bytes(b.clone()),
            Value::List(l) => Value::List(l.clone()),
            Value::Map(m) => Value::Map(m.clone()),
        }
    }

    /// Reuses `self`'s buffers where `source` has the same shape, down the
    /// tree: overwriting a stored row with one that differs in a field
    /// allocates nothing for the fields that did not grow.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Value::Str(s), Value::Str(source)) => s.clone_from(source),
            (Value::Bytes(b), Value::Bytes(source)) => b.clone_from(source),
            (Value::List(l), Value::List(source)) => l.clone_from(source),
            (Value::Map(m), Value::Map(source)) => m.clone_from(source),
            (this, source) => *this = source.clone(),
        }
    }
}

impl Value {
    /// Shorthand for an empty map.
    pub fn map() -> Value {
        Value::Map(Map::new())
    }

    /// Inserts `key → value` into a map value, returning `self` for
    /// chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a [`Value::Map`].
    pub fn with(mut self, key: impl Into<Key>, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Map(m) => {
                m.insert(key.into(), value.into());
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
impl<K: Into<Key>> FromIterator<(K, Value)> for Value {
    fn from_iter<T: IntoIterator<Item = (K, Value)>>(iter: T) -> Self {
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
        assert_eq!(v.get("load"), Some(&Value::Float(0.5)));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn from_sorted_equals_the_built_map_byte_for_byte() {
        let built = Value::map().with("served", 7i64).with("status", 200i64);
        let sorted = Value::Map(Map::from_sorted(vec![
            ("served".into(), Value::Int(7)),
            ("status".into(), Value::Int(200)),
        ]));
        assert_eq!(sorted, built);
        assert_eq!(sorted.encode(), built.encode());
        assert_eq!(Map::from_sorted(Vec::new()), Map::new());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not strictly ascending")]
    fn from_sorted_rejects_keys_out_of_order() {
        let _ = Map::from_sorted(vec![("b".into(), Value::Null), ("a".into(), Value::Null)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not strictly ascending")]
    fn from_sorted_rejects_a_duplicated_key() {
        let _ = Map::from_sorted(vec![("a".into(), Value::Null), ("a".into(), Value::Int(1))]);
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
