//! A small JSON reader for validating the workspace's own reports.
//!
//! The bench bins and `dosgi-telemetry` *write* JSON with hand-rolled
//! format strings; this module is the matching *reader* so tests and
//! check tooling can parse those reports back without a registry
//! dependency. It is a strict recursive-descent parser for standard
//! JSON (RFC 8259): objects, arrays, strings with escapes, numbers,
//! booleans, and null.
//!
//! Numbers are kept in two forms: every number parses as `f64`, and
//! numbers that are exactly unsigned/signed integers are additionally
//! available via [`Json::as_u64`] / [`Json::as_i64`] — the workspace's
//! reports are integer-only, so tests normally use those.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, with the raw text kept for exact integer access.
    Num(f64, String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is normalized (sorted); duplicate keys are
    /// a parse error.
    Obj(BTreeMap<String, Json>),
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse `text` as a single JSON document (trailing whitespace ok).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Array element lookup; `None` on non-arrays or out of range.
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(v) => v.get(i),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    #[cfg(test)]
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(f, _) => Some(*f),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if this is a non-negative integer
    /// literal (no fraction, no exponent, in range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(_, raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an exact `i64`, if this is an integer literal.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(_, raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// How deeply arrays and objects may nest: far above any report the
/// workspace writes, far below the depth whose recursion overflows a
/// thread's stack.
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open around the parser's position.
    depth: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.i,
            msg: msg.into(),
        }
    }

    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an array or object one level further in, or fails past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let val = self.value()?;
            if m.insert(key.clone(), val).is_some() {
                return Err(self.err(format!("duplicate key {key:?}")));
            }
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            if (0xD800..=0xDBFF).contains(&cp) {
                                // High surrogate: require the paired low one.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("bad surrogate pair"))?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(cp).ok_or_else(|| self.err("bad \\u escape"))?,
                                );
                            }
                        }
                        other => {
                            return Err(self.err(format!("unknown escape \\{}", other as char)))
                        }
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this
                    // char boundary arithmetic is safe).
                    let rest = &self.b[self.i..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.i + 4 > self.b.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.i += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits_from = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == digits_from {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            let frac_from = self.i;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.i == frac_from {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            let exp_from = self.i;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.i == exp_from {
                return Err(self.err("expected exponent digits"));
            }
        }
        let raw = std::str::from_utf8(&self.b[start..self.i])
            .unwrap()
            .to_owned();
        let f: f64 = raw.parse().map_err(|_| self.err("unparseable number"))?;
        Ok(Json::Num(f, raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_f64(), Some(1.5));
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("2e3").unwrap().as_f64(), Some(2000.0));
        assert_eq!(
            Json::parse("\"hi\\n\\u0041\"").unwrap().as_str(),
            Some("hi\nA")
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = Json::parse("{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":\"e\"},\"f\":true}").unwrap();
        assert_eq!(
            doc.get("a").and_then(|a| a.idx(1)).and_then(Json::as_u64),
            Some(2)
        );
        assert!(doc
            .get("a")
            .and_then(|a| a.idx(2))
            .and_then(|o| o.get("b"))
            .unwrap()
            .is_null());
        assert_eq!(
            doc.get("c").and_then(|c| c.get("d")).and_then(Json::as_str),
            Some("e")
        );
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "tru",
            "01x",
            "\"unterminated",
            "{\"a\":1}extra",
            "{\"a\":1,\"a\":2}",
            "\"\\q\"",
            "[1 2]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    /// A megabyte of open brackets is an error, not a stack overflow that
    /// aborts the process; every depth up to the bound still parses.
    #[test]
    fn deeply_nested_documents_are_rejected_not_overflowed() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}null{}", "{\"k\":".repeat(n), "}".repeat(n));
        let max = MAX_DEPTH as usize;
        assert!(Json::parse(&arrays(max)).is_ok());
        assert!(Json::parse(&objects(max)).is_ok());
        for deep in [
            "[".repeat(1_000_000),
            "{\"k\":".repeat(1_000_000),
            arrays(max + 1),
            objects(max + 1),
        ] {
            assert_eq!(
                Json::parse(&deep).unwrap_err().msg,
                "nesting deeper than 128"
            );
        }
    }

    /// Every single-bit flip of every truncation of a slice of a committed
    /// snapshot — objects, arrays, strings and numbers — parses to a value
    /// or an error, never a panic.
    #[test]
    fn bit_flipped_truncations_of_a_snapshot_never_panic() {
        let path = crate::workspace_root().join("results/telemetry_e14.json");
        let text = std::fs::read_to_string(&path).expect("committed snapshot");
        let at = text.find("\"buckets\":[[").expect("a histogram") - 64;
        let slice = &text.as_bytes()[at..at + 128];
        let mut parsed = 0u32;
        for len in 0..=slice.len() {
            for flip in 0..len * 8 {
                let mut bytes = slice[..len].to_vec();
                bytes[flip / 8] ^= 1 << (flip % 8);
                if let Ok(doc) = std::str::from_utf8(&bytes) {
                    let _ = Json::parse(doc);
                    parsed += 1;
                }
            }
        }
        // The flips of an ASCII byte's high bit are not UTF-8; the rest parse.
        assert_eq!(parsed, 128 * 129 / 2 * 7);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert!(Json::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn reads_a_bench_style_report() {
        let doc = Json::parse(
            "{\"suite\":\"demo\",\"results\":[{\"name\":\"x\",\"iters\":3,\"min_ns\":1,\
             \"mean_ns\":2,\"median_ns\":2,\"p95_ns\":3,\"max_ns\":3}]}\n",
        )
        .unwrap();
        assert_eq!(doc.get("suite").and_then(Json::as_str), Some("demo"));
        let first = doc.get("results").and_then(|r| r.idx(0)).unwrap();
        assert_eq!(first.get("iters").and_then(Json::as_u64), Some(3));
    }
}
