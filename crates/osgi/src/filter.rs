//! LDAP-style service filters (RFC 1960 syntax, as used by OSGi).
//!
//! Supported grammar:
//!
//! ```text
//! filter     ::= '(' filtercomp ')'
//! filtercomp ::= '&' filter+ | '|' filter+ | '!' filter | operation
//! operation  ::= attr '=' value        equality (with '*' wildcards)
//!              | attr '=*'             presence
//!              | attr '>=' value       ordered
//!              | attr '<=' value       ordered
//!              | attr '~=' value       approximate (case/whitespace-blind)
//! ```
//!
//! # Example
//!
//! ```
//! use dosgi_osgi::{Filter, PropValue};
//! use std::collections::BTreeMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f: Filter = "(&(objectClass=log.Service)(level>=3)(!(vendor=acme)))".parse()?;
//! let mut props = BTreeMap::new();
//! props.insert("objectClass".to_owned(), PropValue::from("log.Service"));
//! props.insert("level".to_owned(), PropValue::from(5i64));
//! assert!(f.matches(&props));
//! # Ok(())
//! # }
//! ```

use crate::PropValue;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// What a filter reads: a property by its key. A plain map answers from
/// its entries; a [`ServiceRecord`](crate::ServiceRecord) also answers
/// the keys OSGi sets, from its fields.
pub trait Properties {
    /// The value under `key`, if there is one.
    fn property(&self, key: &str) -> Option<Cow<'_, PropValue>>;
}

impl Properties for BTreeMap<String, PropValue> {
    fn property(&self, key: &str) -> Option<Cow<'_, PropValue>> {
        self.get(key).map(Cow::Borrowed)
    }
}

/// A parse error, with the byte offset where parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterError {
    /// Byte offset in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "filter error at {}: {}", self.at, self.message)
    }
}

impl std::error::Error for FilterError {}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    And(Vec<Node>),
    Or(Vec<Node>),
    Not(Box<Node>),
    Present(String),
    Equal(String, String),
    Approx(String, String),
    GreaterEq(String, String),
    LessEq(String, String),
}

/// A compiled service filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    root: Node,
    source: String,
}

impl Filter {
    /// Parses a filter string.
    ///
    /// # Errors
    ///
    /// Returns a [`FilterError`] pinpointing the malformation.
    pub fn parse(input: &str) -> Result<Filter, FilterError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let root = parse_filter(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(FilterError {
                at: pos,
                message: "trailing characters".into(),
            });
        }
        Ok(Filter {
            root,
            source: input.to_owned(),
        })
    }

    /// Evaluates the filter against a property dictionary.
    pub fn matches(&self, props: &impl Properties) -> bool {
        eval(&self.root, props)
    }

    /// The original filter string.
    pub fn as_str(&self) -> &str {
        &self.source
    }
}

impl FromStr for Filter {
    type Err = FilterError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Filter::parse(s)
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes.get(*pos).is_some_and(|b| b.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), FilterError> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(FilterError {
            at: *pos,
            message: format!("expected {:?}", ch as char),
        })
    }
}

fn parse_filter(bytes: &[u8], pos: &mut usize) -> Result<Node, FilterError> {
    skip_ws(bytes, pos);
    expect(bytes, pos, b'(')?;
    skip_ws(bytes, pos);
    let node = match bytes.get(*pos) {
        Some(b'&') => {
            *pos += 1;
            Node::And(parse_list(bytes, pos)?)
        }
        Some(b'|') => {
            *pos += 1;
            Node::Or(parse_list(bytes, pos)?)
        }
        Some(b'!') => {
            *pos += 1;
            Node::Not(Box::new(parse_filter(bytes, pos)?))
        }
        Some(_) => parse_operation(bytes, pos)?,
        None => {
            return Err(FilterError {
                at: *pos,
                message: "unexpected end of input".into(),
            })
        }
    };
    skip_ws(bytes, pos);
    expect(bytes, pos, b')')?;
    Ok(node)
}

fn parse_list(bytes: &[u8], pos: &mut usize) -> Result<Vec<Node>, FilterError> {
    let mut list = Vec::new();
    loop {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'(') => list.push(parse_filter(bytes, pos)?),
            _ => break,
        }
    }
    if list.is_empty() {
        return Err(FilterError {
            at: *pos,
            message: "composite filter needs at least one operand".into(),
        });
    }
    Ok(list)
}

fn parse_operation(bytes: &[u8], pos: &mut usize) -> Result<Node, FilterError> {
    let start = *pos;
    while bytes
        .get(*pos)
        .is_some_and(|&b| !matches!(b, b'=' | b'<' | b'>' | b'~' | b'(' | b')'))
    {
        *pos += 1;
    }
    let attr = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| FilterError {
            at: start,
            message: "attribute not UTF-8".into(),
        })?
        .trim()
        .to_owned();
    if attr.is_empty() {
        return Err(FilterError {
            at: start,
            message: "empty attribute".into(),
        });
    }
    let op = match (bytes.get(*pos), bytes.get(*pos + 1)) {
        (Some(b'='), _) => {
            *pos += 1;
            b'='
        }
        (Some(b'>'), Some(b'=')) => {
            *pos += 2;
            b'>'
        }
        (Some(b'<'), Some(b'=')) => {
            *pos += 2;
            b'<'
        }
        (Some(b'~'), Some(b'=')) => {
            *pos += 2;
            b'~'
        }
        _ => {
            return Err(FilterError {
                at: *pos,
                message: "expected one of = >= <= ~=".into(),
            })
        }
    };
    let vstart = *pos;
    while bytes.get(*pos).is_some_and(|&b| b != b')' && b != b'(') {
        *pos += 1;
    }
    let value = std::str::from_utf8(&bytes[vstart..*pos])
        .map_err(|_| FilterError {
            at: vstart,
            message: "value not UTF-8".into(),
        })?
        .to_owned();
    Ok(match op {
        b'=' if value == "*" => Node::Present(attr),
        b'=' => Node::Equal(attr, value),
        b'>' => Node::GreaterEq(attr, value),
        b'<' => Node::LessEq(attr, value),
        b'~' => Node::Approx(attr, value),
        _ => unreachable!(),
    })
}

fn eval(node: &Node, props: &impl Properties) -> bool {
    match node {
        Node::And(list) => list.iter().all(|n| eval(n, props)),
        Node::Or(list) => list.iter().any(|n| eval(n, props)),
        Node::Not(inner) => !eval(inner, props),
        Node::Present(attr) => props.property(attr).is_some(),
        Node::Equal(attr, pattern) => props
            .property(attr)
            .is_some_and(|v| equal_match(&v, pattern)),
        Node::Approx(attr, pattern) => props
            .property(attr)
            .is_some_and(|v| normalize(&v.literal()) == normalize(pattern)),
        Node::GreaterEq(attr, value) => props
            .property(attr)
            .is_some_and(|v| ordered_cmp(&v, value).is_some_and(|o| o >= 0)),
        Node::LessEq(attr, value) => props
            .property(attr)
            .is_some_and(|v| ordered_cmp(&v, value).is_some_and(|o| o <= 0)),
    }
}

fn equal_match(v: &PropValue, pattern: &str) -> bool {
    match v {
        PropValue::List(items) => items.iter().any(|s| wildcard_match(s, pattern)),
        other => wildcard_match(&other.literal(), pattern),
    }
}

/// Glob matching where `*` matches any run of characters.
fn wildcard_match(text: &str, pattern: &str) -> bool {
    if !pattern.contains('*') {
        return text == pattern;
    }
    let parts: Vec<&str> = pattern.split('*').collect();
    let mut rest = text;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        if i == 0 {
            match rest.strip_prefix(part) {
                Some(r) => rest = r,
                None => return false,
            }
        } else if i == parts.len() - 1 {
            return rest.ends_with(part);
        } else {
            match rest.find(part) {
                Some(idx) => rest = &rest[idx + part.len()..],
                None => return false,
            }
        }
    }
    // Pattern ends with '*' (last part empty) — anything left is fine.
    parts.last().is_some_and(|p| p.is_empty()) || rest.is_empty()
}

fn normalize(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Compares a property value against a filter literal. Numeric properties
/// compare numerically; strings lexicographically. Returns `None` when the
/// literal cannot be interpreted in the property's domain.
fn ordered_cmp(v: &PropValue, literal: &str) -> Option<i32> {
    match v {
        PropValue::Int(i) => literal
            .trim()
            .parse::<i64>()
            .ok()
            .map(|rhs| sign(i.cmp(&rhs) as i32)),
        PropValue::Float(f) => literal
            .trim()
            .parse::<f64>()
            .ok()
            .and_then(|rhs| f.partial_cmp(&rhs))
            .map(|o| o as i32),
        PropValue::Str(s) => Some(sign(s.as_str().cmp(literal) as i32)),
        PropValue::Bool(_) | PropValue::List(_) => None,
    }
}

fn sign(i: i32) -> i32 {
    i.signum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn props(pairs: &[(&str, PropValue)]) -> BTreeMap<String, PropValue> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect()
    }

    #[test]
    fn equality_and_presence() {
        let p = props(&[
            ("objectClass", "log.Service".into()),
            ("level", 3i64.into()),
        ]);
        assert!(Filter::parse("(objectClass=log.Service)")
            .unwrap()
            .matches(&p));
        assert!(!Filter::parse("(objectClass=other)").unwrap().matches(&p));
        assert!(Filter::parse("(level=*)").unwrap().matches(&p));
        assert!(!Filter::parse("(missing=*)").unwrap().matches(&p));
        assert!(Filter::parse("(level=3)").unwrap().matches(&p));
    }

    #[test]
    fn boolean_composition() {
        let p = props(&[("a", 1i64.into()), ("b", 2i64.into())]);
        assert!(Filter::parse("(&(a=1)(b=2))").unwrap().matches(&p));
        assert!(!Filter::parse("(&(a=1)(b=3))").unwrap().matches(&p));
        assert!(Filter::parse("(|(a=9)(b=2))").unwrap().matches(&p));
        assert!(!Filter::parse("(|(a=9)(b=9))").unwrap().matches(&p));
        assert!(Filter::parse("(!(a=9))").unwrap().matches(&p));
        assert!(Filter::parse("(&(|(a=1)(a=2))(!(b=9)))")
            .unwrap()
            .matches(&p));
    }

    #[test]
    fn ordered_comparisons() {
        let p = props(&[
            ("rank", 10i64.into()),
            ("load", PropValue::Float(0.5)),
            ("name", "mmm".into()),
        ]);
        assert!(Filter::parse("(rank>=10)").unwrap().matches(&p));
        assert!(Filter::parse("(rank>=9)").unwrap().matches(&p));
        assert!(!Filter::parse("(rank>=11)").unwrap().matches(&p));
        assert!(Filter::parse("(rank<=10)").unwrap().matches(&p));
        assert!(Filter::parse("(load>=0.4)").unwrap().matches(&p));
        assert!(!Filter::parse("(load>=0.6)").unwrap().matches(&p));
        assert!(Filter::parse("(name>=abc)").unwrap().matches(&p));
        assert!(Filter::parse("(name<=zzz)").unwrap().matches(&p));
        // Garbage literal in a numeric domain never matches.
        assert!(!Filter::parse("(rank>=abc)").unwrap().matches(&p));
    }

    #[test]
    fn wildcards() {
        let p = props(&[("name", "org.example.log".into())]);
        assert!(Filter::parse("(name=org.*)").unwrap().matches(&p));
        assert!(Filter::parse("(name=*.log)").unwrap().matches(&p));
        assert!(Filter::parse("(name=org.*.log)").unwrap().matches(&p));
        assert!(Filter::parse("(name=*example*)").unwrap().matches(&p));
        assert!(!Filter::parse("(name=com.*)").unwrap().matches(&p));
        assert!(!Filter::parse("(name=org.*.http)").unwrap().matches(&p));
    }

    #[test]
    fn approx_ignores_case_and_whitespace() {
        let p = props(&[("vendor", "Acme Corp".into())]);
        assert!(Filter::parse("(vendor~=acmecorp)").unwrap().matches(&p));
        assert!(Filter::parse("(vendor~=ACME CORP)").unwrap().matches(&p));
        assert!(!Filter::parse("(vendor~=acme-inc)").unwrap().matches(&p));
    }

    #[test]
    fn multivalued_property_matches_any() {
        let p = props(&[(
            "objectClass",
            PropValue::List(vec!["log.Service".into(), "managed.Service".into()]),
        )]);
        assert!(Filter::parse("(objectClass=log.Service)")
            .unwrap()
            .matches(&p));
        assert!(Filter::parse("(objectClass=managed.*)")
            .unwrap()
            .matches(&p));
        assert!(!Filter::parse("(objectClass=http.Service)")
            .unwrap()
            .matches(&p));
    }

    #[test]
    fn parse_errors_pinpoint_location() {
        assert!(Filter::parse("").is_err());
        assert!(Filter::parse("(a=1").is_err());
        assert!(Filter::parse("a=1").is_err());
        assert!(Filter::parse("(=1)").is_err());
        assert!(Filter::parse("(&)").is_err());
        assert!(Filter::parse("(a=1)(b=2)").is_err()); // trailing
        assert!(Filter::parse("(a>1)").is_err()); // bare > is not an operator
        let err = Filter::parse("(a=1)x").unwrap_err();
        assert_eq!(err.at, 5);
    }

    #[test]
    fn display_preserves_source() {
        let f = Filter::parse("(&(a=1)(b=2))").unwrap();
        assert_eq!(f.to_string(), "(&(a=1)(b=2))");
        assert_eq!(f.as_str(), "(&(a=1)(b=2))");
    }

    #[test]
    fn whitespace_tolerated() {
        let p = props(&[("a", 1i64.into())]);
        assert!(Filter::parse(" ( & (a=1) ) ").unwrap().matches(&p));
    }
}
