//! Compact binary encoding for [`Value`] trees.
//!
//! The format is a simple tag-length-value scheme with varint lengths:
//!
//! ```text
//! 0x00            Null
//! 0x01 / 0x02     Bool false / true
//! 0x03 <zigzag>   Int
//! 0x04 <8 bytes>  Float (little-endian IEEE-754)
//! 0x05 <len> ..   Str (UTF-8)
//! 0x06 <len> ..   Bytes
//! 0x07 <count> .. List
//! 0x08 <count> (<keylen> key <value>)*   Map
//! ```
//!
//! The codec exists so the experiment harness can report *bytes written to
//! the SAN* for framework snapshots and bundle state — real state-transfer
//! cost, not a hand-wave.

use crate::{Map, Value};

const T_NULL: u8 = 0x00;
const T_FALSE: u8 = 0x01;
const T_TRUE: u8 = 0x02;
const T_INT: u8 = 0x03;
const T_FLOAT: u8 = 0x04;
const T_STR: u8 = 0x05;
const T_BYTES: u8 = 0x06;
const T_LIST: u8 = 0x07;
const T_MAP: u8 = 0x08;

/// How deeply lists and maps may nest in a decoded value: far above any
/// value a writer here produces, far below the depth whose recursion
/// overflows a thread's stack.
const MAX_DEPTH: u32 = 128;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos).ok_or("truncated varint")?;
        *pos += 1;
        v |= u64::from(b & 0x7f)
            .checked_shl(shift)
            .ok_or("varint overflow")?;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err("varint too long".to_owned());
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes `value` into its binary representation. Exactly pre-sized via
/// [`encoded_len`], so the buffer never regrows.
pub fn encode(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(value));
    write_value(&mut out, value);
    out
}

/// The bytes `v` takes as a varint: the length or count after a string's,
/// list's or map's tag, and each map key's length. Lets a caller size an
/// encoding it never builds.
pub fn varint_len(v: u64) -> usize {
    let bits = (64 - v.leading_zeros()).max(1) as usize;
    bits.div_ceil(7)
}

/// The bytes a string's, list's or map's header takes: its tag and its
/// varint length or count.
pub fn header_len(count: usize) -> usize {
    1 + varint_len(count as u64)
}

/// The bytes `Value::Str(s)` takes encoded.
pub fn str_len(s: &str) -> usize {
    header_len(s.len()) + s.len()
}

/// The bytes `Value::Int(i)` takes encoded.
pub fn int_len(i: i64) -> usize {
    1 + varint_len(zigzag(i))
}

/// The bytes a map entry takes: its key — a string without the tag — then
/// its value, `value_len` bytes encoded. With [`header_len`], [`str_len`]
/// and [`int_len`] it sizes a map its owner renders from typed fields
/// without building it.
pub fn field_len(key: &str, value_len: usize) -> usize {
    str_len(key) - 1 + value_len
}

/// Computes `encode(value).len()` without materializing the encoding.
///
/// Mirrors the encoder (`write_value`) case by case: one tag byte,
/// varint-sized lengths/counts, then payload bytes. Stats paths
/// (`StoreStats`, `namespace_bytes`) call this on every operation, so it
/// must stay allocation-free.
pub fn encoded_len(value: &Value) -> usize {
    match value {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(i) => int_len(*i),
        Value::Float(_) => 1 + 8,
        Value::Str(s) => str_len(s),
        Value::Bytes(b) => 1 + varint_len(b.len() as u64) + b.len(),
        Value::List(l) => 1 + varint_len(l.len() as u64) + l.iter().map(encoded_len).sum::<usize>(),
        Value::Map(m) => {
            1 + varint_len(m.len() as u64)
                + m.iter()
                    .map(|(k, v)| varint_len(k.len() as u64) + k.len() + encoded_len(v))
                    .sum::<usize>()
        }
    }
}

/// Equality under the codec: true iff `encode(a) == encode(b)`, computed
/// without encoding either side. Differs from `PartialEq` only for floats,
/// which compare by bit pattern here (`-0.0 != 0.0`, `NaN == NaN` for the
/// same payload) because that is what the encoded bytes do.
pub fn codec_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bytes(x), Value::Bytes(y)) => x == y,
        (Value::List(x), Value::List(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| codec_eq(a, b))
        }
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && codec_eq(va, vb))
        }
        _ => false,
    }
}

fn write_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(T_NULL),
        Value::Bool(false) => out.push(T_FALSE),
        Value::Bool(true) => out.push(T_TRUE),
        Value::Int(i) => {
            out.push(T_INT);
            put_varint(out, zigzag(*i));
        }
        Value::Float(f) => {
            out.push(T_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(T_STR);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(T_BYTES);
            put_varint(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Value::List(l) => {
            out.push(T_LIST);
            put_varint(out, l.len() as u64);
            for v in l {
                write_value(out, v);
            }
        }
        Value::Map(m) => {
            out.push(T_MAP);
            put_varint(out, m.len() as u64);
            for (k, v) in m {
                put_varint(out, k.len() as u64);
                out.extend_from_slice(k.as_bytes());
                write_value(out, v);
            }
        }
    }
}

/// Decodes a value; the entire input must be consumed.
///
/// # Errors
///
/// Returns a description of the malformation (truncation, bad tag, invalid
/// UTF-8, lists and maps nested more than 128 deep, trailing garbage).
pub fn decode(bytes: &[u8]) -> Result<Value, String> {
    let mut pos = 0;
    let v = read_value(bytes, &mut pos, 0)?;
    if pos != bytes.len() {
        return Err(format!("trailing garbage at offset {pos}"));
    }
    Ok(v)
}

fn read_value(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<Value, String> {
    let tag = *bytes.get(*pos).ok_or("truncated value")?;
    *pos += 1;
    if matches!(tag, T_LIST | T_MAP) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at offset {pos}"));
    }
    match tag {
        T_NULL => Ok(Value::Null),
        T_FALSE => Ok(Value::Bool(false)),
        T_TRUE => Ok(Value::Bool(true)),
        T_INT => Ok(Value::Int(unzigzag(get_varint(bytes, pos)?))),
        T_FLOAT => {
            let end = *pos + 8;
            let slice = bytes.get(*pos..end).ok_or("truncated float")?;
            *pos = end;
            Ok(Value::Float(f64::from_le_bytes(
                slice.try_into().expect("8 bytes"),
            )))
        }
        T_STR => {
            let s = read_slice(bytes, pos)?;
            Ok(Value::Str(
                String::from_utf8(s.to_vec()).map_err(|e| e.to_string())?,
            ))
        }
        T_BYTES => Ok(Value::Bytes(read_slice(bytes, pos)?.to_vec())),
        T_LIST => {
            let n = get_varint(bytes, pos)? as usize;
            let mut l = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                l.push(read_value(bytes, pos, depth + 1)?);
            }
            Ok(Value::List(l))
        }
        T_MAP => {
            let n = get_varint(bytes, pos)? as usize;
            let mut m = Map::with_capacity(n.min(4096));
            for _ in 0..n {
                let k = read_slice(bytes, pos)?;
                let k = String::from_utf8(k.to_vec()).map_err(|e| e.to_string())?;
                // Every writer emits keys ascending, so each insert appends:
                // a hostile count of unordered keys cannot cost a shift each.
                if m.keys().next_back().is_some_and(|last| **last >= *k) {
                    return Err("map keys out of order".to_owned());
                }
                let v = read_value(bytes, pos, depth + 1)?;
                m.insert(k.into(), v);
            }
            Ok(Value::Map(m))
        }
        other => Err(format!("unknown tag 0x{other:02x}")),
    }
}

fn read_slice<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], String> {
    let len = get_varint(bytes, pos)? as usize;
    let end = pos.checked_add(len).ok_or("length overflow")?;
    let slice = bytes.get(*pos..end).ok_or("truncated payload")?;
    *pos = end;
    Ok(slice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Key;
    use dosgi_testkit::{prop, prop_verify, prop_verify_eq, Gen, TestRng};
    use std::collections::BTreeMap;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(3.25),
            Value::Str("hello".into()),
            Value::Str(String::new()),
            Value::Bytes(vec![0, 255, 128]),
        ] {
            assert_eq!(decode(&encode(&v)).unwrap(), v, "value {v:?}");
        }
    }

    #[test]
    fn nested_round_trip() {
        let v = Value::map()
            .with(
                "bundles",
                Value::List(vec![
                    Value::map().with("name", "logsvc").with("state", "ACTIVE"),
                    Value::map().with("name", "http").with("state", "RESOLVED"),
                ]),
            )
            .with("start_level", 5i64);
        assert_eq!(decode(&encode(&v)).unwrap(), v);
    }

    #[test]
    fn varint_boundaries() {
        for i in [0u64, 127, 128, 16383, 16384, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, i);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), i);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for i in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[0xff]).is_err());
        assert!(decode(&[T_STR, 5, b'a']).is_err()); // truncated string
        assert!(decode(&[T_FLOAT, 1, 2]).is_err()); // truncated float
        assert!(decode(&[T_NULL, T_NULL]).is_err()); // trailing garbage
        assert!(decode(&[T_STR, 1, 0xff]).is_err()); // invalid UTF-8
    }

    /// A list holding a list holding … `depth` times, around a null; or the
    /// same chain of one-entry maps.
    fn nested(depth: usize, container: &[u8]) -> Vec<u8> {
        let mut bytes = container.repeat(depth);
        bytes.push(T_NULL);
        bytes
    }

    /// Two megabytes of nesting are an error, not a stack overflow that
    /// aborts the process; every depth up to the bound still decodes.
    #[test]
    fn deeply_nested_encodings_are_rejected_not_overflowed() {
        let max = MAX_DEPTH as usize;
        for container in [&[T_LIST, 1][..], &[T_MAP, 1, 1, b'k']] {
            let deepest = decode(&nested(max, container)).unwrap();
            assert_eq!(encode(&deepest), nested(max, container));
            for depth in [1_000_000, max + 1] {
                let err = decode(&nested(depth, container)).unwrap_err();
                assert!(err.starts_with("nesting deeper than 128"), "{err}");
            }
        }
    }

    /// A decoded map is canonical, and rejecting what is not costs linear
    /// time: no writer emits keys out of order, so the decoder need never
    /// shift an entry to place one.
    #[test]
    fn maps_with_unordered_or_duplicate_keys_are_rejected() {
        fn map_of(keys: impl ExactSizeIterator<Item = String>) -> Vec<u8> {
            let mut bytes = vec![T_MAP];
            put_varint(&mut bytes, keys.len() as u64);
            for k in keys {
                put_varint(&mut bytes, k.len() as u64);
                bytes.extend_from_slice(k.as_bytes());
                bytes.push(T_NULL);
            }
            bytes
        }
        let n = 200_000usize;
        let decoded = decode(&map_of((0..n).map(|i| format!("{i:06}")))).unwrap();
        let Value::Map(map) = &decoded else {
            panic!("decodes to a map")
        };
        assert_eq!(map.len(), n);
        // A lookup in a map this size lands on either side of every split.
        for i in [0, 1, n / 2 - 1, n / 2, n - 2, n - 1] {
            assert_eq!(map.get(&format!("{i:06}")), Some(&Value::Null));
            assert_eq!(map.get(&format!("{i:06}x")), None);
        }
        assert!(!map.contains_key("") && !map.contains_key("z"));
        let descending = map_of((0..n).rev().map(|i| format!("{i:06}")));
        assert_eq!(decode(&descending).unwrap_err(), "map keys out of order");
        let duplicate = map_of(["a", "b", "b"].into_iter().map(str::to_owned));
        assert_eq!(decode(&duplicate).unwrap_err(), "map keys out of order");
    }

    /// The keys the oracle test draws from: few, so that inserts overwrite
    /// and removes hit, and `'static`, so that each can be a literal key.
    const KEYS: [&str; 8] = ["", "a", "ab", "b", "home", "name", "rev", "\u{e9}"];

    #[derive(Debug)]
    enum MapOp {
        Insert {
            key: usize,
            literal: bool,
            value: Value,
        },
        Remove(usize),
        Collect(Vec<(usize, Value)>),
    }

    fn key_of(key: usize, literal: bool) -> Key {
        if literal {
            Key::Borrowed(KEYS[key])
        } else {
            Key::Owned(KEYS[key].to_owned())
        }
    }

    /// The vector against the tree it replaces: every `Map` operation
    /// agrees with a `BTreeMap<String, Value>` driven by the same steps, in
    /// length, order, text and encoded bytes — and a decode, whose keys are
    /// all owned, equals the same map built from literals.
    #[test]
    fn prop_map_matches_the_btreemap_it_replaces() {
        let key = |rng: &mut TestRng| rng.usize_in(0, KEYS.len() - 1);
        let ops = Gen::new(move |rng: &mut TestRng| {
            (0..rng.usize_in(1, 24))
                .map(|_| match rng.u64_below(8) {
                    0 => MapOp::Remove(key(rng)),
                    1 => MapOp::Collect(
                        (0..rng.usize_in(0, 10))
                            .map(|_| (key(rng), arb_value(rng, 1)))
                            .collect(),
                    ),
                    _ => MapOp::Insert {
                        key: key(rng),
                        literal: rng.chance(0.5),
                        value: arb_value(rng, 1),
                    },
                })
                .collect::<Vec<_>>()
        });
        let name = "prop_map_matches_the_btreemap_it_replaces";
        prop::check_with(&prop::Config::with_cases(300), name, &ops, |ops| {
            let mut map = Map::new();
            let mut oracle: BTreeMap<String, Value> = BTreeMap::new();
            for op in ops {
                match op {
                    MapOp::Insert {
                        key,
                        literal,
                        value,
                    } => {
                        prop_verify_eq!(
                            map.insert(key_of(*key, *literal), value.clone()),
                            oracle.insert(KEYS[*key].to_owned(), value.clone())
                        );
                    }
                    MapOp::Remove(key) => {
                        prop_verify_eq!(map.remove(KEYS[*key]), oracle.remove(KEYS[*key]));
                    }
                    MapOp::Collect(entries) => {
                        let entries = || entries.iter().map(|(k, v)| (KEYS[*k], v.clone()));
                        map = entries().collect();
                        oracle = entries().map(|(k, v)| (k.to_owned(), v)).collect();
                    }
                }
                prop_verify_eq!(map.len(), oracle.len());
                prop_verify_eq!(map.is_empty(), oracle.is_empty());
                for k in KEYS {
                    prop_verify_eq!(map.get(k), oracle.get(k));
                    prop_verify_eq!(map.contains_key(k), oracle.contains_key(k));
                }
                let order: Vec<(&str, &Value)> = map.iter().map(|(k, v)| (&**k, v)).collect();
                let want: Vec<(&str, &Value)> = oracle.iter().map(|(k, v)| (&**k, v)).collect();
                prop_verify_eq!(&order, &want);

                // The oracle's text and bytes, written out from the tree.
                let text: Vec<String> = oracle.iter().map(|(k, v)| format!("{k}: {v}")).collect();
                let mut bytes = vec![T_MAP];
                put_varint(&mut bytes, oracle.len() as u64);
                for (k, v) in &oracle {
                    put_varint(&mut bytes, k.len() as u64);
                    bytes.extend_from_slice(k.as_bytes());
                    bytes.extend_from_slice(&encode(v));
                }
                let v = Value::Map(map.clone());
                prop_verify_eq!(v.to_string(), format!("{{{}}}", text.join(", ")));
                prop_verify_eq!(&encode(&v), &bytes);
                prop_verify_eq!(v.encoded_len(), bytes.len());

                // Owned keys on one side, literal keys on the other.
                let decoded = decode(&bytes).unwrap();
                let owned = |m: &Map| m.keys().all(|k| matches!(k, Key::Owned(_)));
                let Value::Map(map) = &decoded else {
                    return Err("decodes to a map".into());
                };
                prop_verify!(owned(map), "a decoded key is owned");
                let literal: Map = oracle
                    .iter()
                    .map(|(k, v)| (*KEYS.iter().find(|lit| *lit == k).unwrap(), v.clone()))
                    .collect();
                prop_verify!(
                    !literal.keys().any(|k| matches!(k, Key::Owned(_))),
                    "literal"
                );
                prop_verify_eq!(&decoded, &Value::Map(literal));
                prop_verify_eq!(&decoded, &v);
            }
            Ok(())
        });
    }

    /// A random `Value` tree, depth-bounded like the old proptest
    /// strategy (leaves at depth 0; lists/maps of up to 8 children above).
    fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
        let variants = if depth == 0 { 6 } else { 8 };
        match rng.u64_below(variants) {
            0 => Value::Null,
            1 => Value::Bool(rng.chance(0.5)),
            2 => Value::Int(rng.any_i64()),
            // Finite floats only: NaN breaks PartialEq round-trip comparison.
            3 => loop {
                let f = f64::from_bits(rng.next_u64());
                if f.is_finite() {
                    break Value::Float(f);
                }
            },
            4 => Value::Str(lowercase_key(rng, 0, 12)),
            5 => {
                let mut b = vec![0u8; rng.usize_in(0, 31)];
                rng.fill_bytes(&mut b);
                Value::Bytes(b)
            }
            6 => Value::List(
                (0..rng.usize_in(0, 7))
                    .map(|_| arb_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Map(
                (0..rng.usize_in(0, 7))
                    .map(|_| (lowercase_key(rng, 1, 8), arb_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn lowercase_key(rng: &mut TestRng, min: usize, max: usize) -> String {
        (0..rng.usize_in(min, max))
            .map(|_| (b'a' + rng.u64_below(26) as u8) as char)
            .collect()
    }

    fn value_gen() -> Gen<Value> {
        Gen::new(|rng| arb_value(rng, 3))
    }

    #[test]
    fn prop_round_trip() {
        prop::check("prop_round_trip", &value_gen(), |v| {
            let encoded = encode(v);
            prop_verify_eq!(&decode(&encoded).unwrap(), v);
            Ok(())
        });
    }

    #[test]
    fn prop_decode_never_panics() {
        let garbage = prop::vecs(prop::bytes(), 0, 255);
        prop::check("prop_decode_never_panics", &garbage, |bytes| {
            let _ = decode(bytes);
            Ok(())
        });
    }

    /// Robustness: every proper truncation of a valid encoding must decode
    /// to `Err` — a value either consumes its whole encoding or the decoder
    /// flags trailing garbage, so no prefix can parse cleanly.
    #[test]
    fn truncated_encodings_always_error() {
        let mut rng = TestRng::new(0xdead_beef);
        let gen = value_gen();
        let mut checked = 0u32;
        while checked < 1500 {
            let v = gen.sample(&mut rng);
            let encoded = encode(&v);
            if encoded.len() < 2 {
                continue;
            }
            // Every length from 0 to len-1, capped per value to spread the
            // budget across many shapes.
            for _ in 0..8 {
                let cut = rng.usize_in(0, encoded.len() - 1);
                let res = decode(&encoded[..cut]);
                assert!(
                    res.is_err(),
                    "truncation to {cut}/{} decoded to {res:?} for {v:?}",
                    encoded.len()
                );
                checked += 1;
            }
        }
    }

    /// Robustness: flipping any single bit of a valid encoding must never
    /// panic, and whatever still decodes must itself re-encode into a
    /// decodable (self-consistent) byte string.
    #[test]
    fn bit_flipped_encodings_never_panic() {
        let mut rng = TestRng::new(0xc0de_f1ae);
        let gen = value_gen();
        let mut mutations = 0u32;
        while mutations < 1500 {
            let v = gen.sample(&mut rng);
            let encoded = encode(&v);
            if encoded.is_empty() {
                continue;
            }
            for _ in 0..8 {
                let mut corrupt = encoded.clone();
                let byte = rng.usize_in(0, corrupt.len() - 1);
                let bit = rng.u64_below(8) as u8;
                corrupt[byte] ^= 1 << bit;
                if let Ok(decoded) = decode(&corrupt) {
                    let reencoded = encode(&decoded);
                    let roundtrip = decode(&reencoded)
                        .unwrap_or_else(|e| panic!("re-encode of {decoded:?} not decodable: {e}"));
                    // NaN floats are the one lawful PartialEq violation.
                    if !value_has_nan(&roundtrip) {
                        assert_eq!(roundtrip, decoded);
                    }
                }
                mutations += 1;
            }
        }
    }

    fn value_has_nan(v: &Value) -> bool {
        match v {
            Value::Float(f) => f.is_nan(),
            Value::List(l) => l.iter().any(value_has_nan),
            Value::Map(m) => m.values().any(value_has_nan),
            _ => false,
        }
    }

    /// The streaming size computation must agree with the real encoder on
    /// arbitrary value trees — `encoded_len` never allocates, so this is
    /// the only thing pinning it to `encode`.
    #[test]
    fn prop_encoded_len_matches_encode_len() {
        prop::check("prop_encoded_len_matches_encode_len", &value_gen(), |v| {
            prop_verify!(
                v.encoded_len() == encode(v).len(),
                "encoded_len {} != encode().len() {}",
                v.encoded_len(),
                encode(v).len()
            );
            Ok(())
        });
    }

    #[test]
    fn varint_len_matches_put_varint() {
        for v in [0u64, 1, 127, 128, 16383, 16384, (1 << 63) - 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(varint_len(v), out.len(), "varint_len({v})");
        }
    }

    /// `codec_eq` must coincide exactly with encoded-byte equality,
    /// including the float cases where `PartialEq` disagrees.
    #[test]
    fn prop_codec_eq_matches_encoded_bytes() {
        let pair = Gen::new(|rng: &mut TestRng| {
            let a = arb_value(rng, 2);
            // Half the time compare against a copy, half against a fresh
            // tree, so both branches of the equivalence get real coverage.
            let b = if rng.chance(0.5) {
                a.clone()
            } else {
                arb_value(rng, 2)
            };
            (a, b)
        });
        prop::check("prop_codec_eq_matches_encoded_bytes", &pair, |(a, b)| {
            prop_verify_eq!(codec_eq(a, b), encode(a) == encode(b));
            Ok(())
        });
    }

    #[test]
    fn codec_eq_floats_by_bit_pattern() {
        assert!(!codec_eq(&Value::Float(0.0), &Value::Float(-0.0)));
        assert!(codec_eq(&Value::Float(f64::NAN), &Value::Float(f64::NAN)));
        assert!(codec_eq(&Value::Float(1.5), &Value::Float(1.5)));
        assert!(!codec_eq(&Value::Int(1), &Value::Float(1.0)));
    }
}
