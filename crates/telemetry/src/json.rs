//! The one JSON string writer the exporters share.

use std::fmt::{self, Write as _};

/// `s` as a JSON string (RFC 8259 §7), quotes included: `"` and `\`
/// escaped, the short escapes for backspace, form feed, newline, carriage
/// return and tab, `\u00XX` for every other control character, and every
/// other character written as it is. Printable ASCII comes out as Rust's
/// `{:?}` writes it.
pub(crate) struct JsonStr<'a>(pub(crate) &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        let mut rest = self.0;
        // Every character that needs an escape is ASCII, so `i` is also the
        // byte it starts at and the next character starts at `i + 1`.
        while let Some(i) = rest.find(|c: char| c < ' ' || c == '"' || c == '\\') {
            f.write_str(&rest[..i])?;
            match rest.as_bytes()[i] {
                b'"' => f.write_str("\\\""),
                b'\\' => f.write_str("\\\\"),
                b'\x08' => f.write_str("\\b"),
                b'\x0c' => f.write_str("\\f"),
                b'\n' => f.write_str("\\n"),
                b'\r' => f.write_str("\\r"),
                b'\t' => f.write_str("\\t"),
                other => write!(f, "\\u{other:04x}"),
            }?;
            rest = &rest[i + 1..];
        }
        f.write_str(rest)?;
        f.write_char('"')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_what_json_requires_and_nothing_else() {
        let cases = [
            ("adopt/web-01", r#""adopt/web-01""#),
            ("a\"b\\c", r#""a\"b\\c""#),
            ("\u{8}\u{c}\n\r\t", r#""\b\f\n\r\t""#),
            ("\u{0}\u{1}\u{1f}", r#""\u0000\u0001\u001f""#),
            ("a\u{7f}b zw\u{200b}j é", "\"a\u{7f}b zw\u{200b}j é\""),
        ];
        for (raw, json) in cases {
            assert_eq!(JsonStr(raw).to_string(), json, "{raw:?}");
        }
    }

    #[test]
    fn printable_ascii_reads_as_debug_writes_it() {
        let printable: String = (' '..='~').collect();
        assert_eq!(JsonStr(&printable).to_string(), format!("{printable:?}"));
    }
}
