//! The workspace's one JSON codec: a value type, a string escaper, two
//! writers and a strict parser. Every trace line and artifact is written
//! and read through it.
//!
//! [`Json::write_compact`] writes no whitespace (trace event lines, the
//! Perfetto export). [`Json::to_lines`] writes the artifact layout: each
//! object member and array element on its own line, and each array
//! element on one line with `", "` and `": "` separators, so a BENCH or
//! fuzz artifact has one goal, run or fixture per line. [`parse`]
//! accepts exactly the RFC 8259 grammar: no trailing commas, bare words
//! (`12abc`), leading zeros, raw control characters in strings, or text
//! after the value; any whitespace between tokens. It also rejects a
//! `\u` escape of a lone surrogate, which a Rust `String` cannot hold.
//! Numbers keep their token text, so a writer picks the digits it prints
//! (`Json::fixed(1.5, 3)` is `1.500`) and a parsed number writes back
//! unchanged.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(Number),
    /// A string, unescaped.
    Str(String),
    Arr(Vec<Json>),
    /// The members in document order.
    Obj(Vec<(String, Json)>),
}

/// A number's token text. Only the [`Json`] constructors and [`parse`]
/// make one, so it is always a valid JSON number.
#[derive(Debug, Clone, PartialEq)]
pub struct Number(String);

macro_rules! from_integer {
    ($($int:ty),*) => {$(
        impl From<$int> for Json {
            fn from(n: $int) -> Json {
                Json::Num(Number(n.to_string()))
            }
        }
    )*};
}
from_integer!(i64, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// `value` with exactly `decimals` digits after the point; `null` when
    /// it is not finite (JSON has no NaN or infinity).
    pub fn fixed(value: f64, decimals: usize) -> Json {
        if value.is_finite() {
            Json::Num(Number(format!("{value:.decimals$}")))
        } else {
            Json::Null
        }
    }

    /// An object with the given members, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let members = members.into_iter().map(|(k, v)| (k.to_string(), v));
        Json::Obj(members.collect())
    }

    /// The member `name` of an object (the first, if repeated).
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A number written as an integer in `0..=u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.0.parse().ok(),
            _ => None,
        }
    }

    /// A number, as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.0.parse().ok(),
            _ => None,
        }
    }

    /// Appends the compact form, with no whitespace, to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, Layout::Compact);
    }

    /// The compact form, with no whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// The artifact layout (see the module docs), ending in a newline.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Lines(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, layout: Layout) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.0),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let inner = match layout {
                    Layout::Lines(_) => Layout::Inline,
                    flat => flat,
                };
                write_entries(out, ['[', ']'], items, layout, |item, out| {
                    item.write(out, inner)
                });
            }
            Json::Obj(members) => {
                let (inner, colon) = match layout {
                    Layout::Compact => (layout, ":"),
                    Layout::Inline => (layout, ": "),
                    Layout::Lines(depth) => (Layout::Lines(depth + 1), ": "),
                };
                write_entries(out, ['{', '}'], members, layout, |(name, value), out| {
                    write_str(out, name);
                    out.push_str(colon);
                    value.write(out, inner);
                });
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Layout {
    /// One line, no whitespace.
    Compact,
    /// One line, `", "` and `": "` separators.
    Inline,
    /// One entry per line, this many levels deep.
    Lines(usize),
}

fn write_entries<T>(
    out: &mut String,
    [open, close]: [char; 2],
    entries: &[T],
    layout: Layout,
    mut write_entry: impl FnMut(&T, &mut String),
) {
    out.push(open);
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match layout {
            Layout::Inline if i > 0 => out.push(' '),
            Layout::Lines(depth) => push_line(out, depth + 1),
            _ => {}
        }
        write_entry(entry, out);
    }
    if let Layout::Lines(depth) = layout {
        push_line(out, depth);
    }
    out.push(close);
}

fn push_line(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n("  ", depth));
}

/// Appends `s` as a JSON string literal: `"` and `\` escaped, newline,
/// carriage return and tab as `\n`, `\r`, `\t`, other control characters
/// as `\u00XX`, everything else (non-ASCII included) as is.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, byte) in s.bytes().enumerate() {
        let short = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        match short {
            "" => write!(out, "\\u{byte:04x}").expect("writing to a String"),
            short => out.push_str(short),
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Deeper nesting is rejected, so input cannot exhaust the stack
/// (RFC 8259 §9 lets a parser limit it).
const MAX_DEPTH: usize = 128;

/// Parses `text` as exactly one JSON value, with optional whitespace
/// around it. The error names the byte offset where parsing stopped.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        text,
        at: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.at < text.len() {
        return Err(parser.error("trailing characters after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.at += usize::from(found);
        found
    }

    fn expect(&mut self, byte: u8, what: &str) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self
                .entries(b'}', |p| {
                    p.skip_whitespace();
                    let name = p.string()?;
                    p.skip_whitespace();
                    p.expect(b':', "expected ':' after a member name")?;
                    Ok((name, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.entries(b']', Self::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.text[self.at..].starts_with(word) {
            return Err(self.error("expected a value"));
        }
        self.at += word.len();
        Ok(value)
    }

    /// `entry (',' entry)*` or nothing, from the opening bracket under the
    /// cursor through `close`.
    fn entries<T>(
        &mut self,
        close: u8,
        mut entry: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        self.at += 1;
        self.skip_whitespace();
        let mut entries = Vec::new();
        if !self.eat(close) {
            loop {
                entries.push(entry(self)?);
                self.skip_whitespace();
                if self.eat(close) {
                    break;
                }
                self.expect(b',', "expected ',' or a closing bracket")?;
            }
        }
        self.depth -= 1;
        Ok(entries)
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        self.eat(b'-');
        // `0` alone, or digits that do not start with a zero.
        let mut valid = self.eat(b'0') || self.digits() > 0;
        if self.eat(b'.') {
            valid &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            valid &= self.digits() > 0;
        }
        if !valid {
            return Err(self.error("malformed number"));
        }
        Ok(Json::Num(Number(self.text[start..self.at].to_string())))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            // Copy a run of plain characters; it ends at an ASCII byte, so
            // both ends are char boundaries.
            let start = self.at;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.at += 1;
            }
            out.push_str(&self.text[start..self.at]);
            let Some(byte) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.at += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => return Err(self.error("raw control character in a string")),
            }
        }
    }

    /// The character an escape stands for; the cursor is past the `\`.
    fn escape(&mut self) -> Result<char, String> {
        let byte = self.peek();
        self.at += 1;
        Ok(match byte {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                // A high surrogate must be followed by an escaped low one.
                if (0xD800..0xDC00).contains(&code) && self.text[self.at..].starts_with("\\u") {
                    self.at += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.text.get(self.at..self.at + 4);
        let code = digits
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.at += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejects(text: &str) -> bool {
        parse(text).is_err()
    }

    #[test]
    fn strict_grammar_rejects_what_rfc_8259_does() {
        for bad in [
            "",
            "   ",
            "{\"a\":1,}",
            "[1,]",
            "[,1]",
            "{,}",
            "{\"a\" 1}",
            "{a:1}",
            "{'a':1}",
            "12abc",
            "{\"n\":12abc}",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "NaN",
            "tru",
            "truex",
            "nul",
            "\"raw\nnewline\"",
            "\"tab\there\"",
            "\"bad \\x escape\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"open",
            "{\"a\":1}{}",
            "[1] 2",
            "{\"a\":1",
            "[1 2]",
        ] {
            assert!(rejects(bad), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(rejects(&deep), "nesting past the limit");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok(), "nesting at the limit");
    }

    #[test]
    fn whitespace_between_tokens_is_free() {
        let spaced = " \t{ \"a\" :\r\n[ 1 , -2.5e+3 , true,false , null ] ,\"b\":{ } } \n";
        let value = parse(spaced).unwrap();
        assert_eq!(
            value,
            parse("{\"a\":[1,-2.5e+3,true,false,null],\"b\":{}}").unwrap()
        );
        assert_eq!(
            value.to_compact(),
            "{\"a\":[1,-2.5e+3,true,false,null],\"b\":{}}"
        );
        assert!(matches!(value.get("a"), Some(Json::Arr(items)) if items.len() == 5));
        assert_eq!(value.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn numbers_keep_their_token_text() {
        let value = parse("[0, -0, 1.500, 6.02E23, 18446744073709551615, -7]").unwrap();
        let Json::Arr(items) = &value else {
            panic!("an array")
        };
        assert_eq!(
            value.to_compact(),
            "[0,-0,1.500,6.02E23,18446744073709551615,-7]"
        );
        assert_eq!(items[2].as_f64(), Some(1.5));
        assert_eq!(items[4].as_u64(), Some(u64::MAX));
        assert_eq!(items[5].as_u64(), None, "negative");
        assert_eq!(items[2].as_u64(), None, "fraction");
        assert_eq!(Json::fixed(1.5, 3).to_compact(), "1.500");
        assert_eq!(Json::fixed(f64::NAN, 3), Json::Null);
        assert_eq!(Json::fixed(f64::INFINITY, 0), Json::Null);
    }

    #[test]
    fn strings_round_trip_through_every_escape() {
        let text = "q\"b\\s\nn\tt\rr\u{1}\u{1f}c ν→≤ 😀 /";
        let mut written = String::new();
        write_str(&mut written, text);
        assert_eq!(
            written,
            "\"q\\\"b\\\\s\\nn\\tt\\rr\\u0001\\u001fc ν→≤ 😀 /\""
        );
        assert_eq!(parse(&written).unwrap(), Json::Str(text.into()));
        let escaped = "\"\\/\\b\\f\\u00e9\\uD83D\\uDE00\"";
        assert_eq!(parse(escaped).unwrap(), Json::Str("/\u{8}\u{c}é😀".into()));
    }

    #[test]
    fn layouts() {
        let doc = Json::obj([
            ("seed", 42u64.into()),
            ("flat", Json::obj([("a", 1u64.into()), ("b", Json::Null)])),
            (
                "goals",
                Json::Arr(vec![
                    Json::obj([
                        ("g", "x".into()),
                        ("r", Json::Arr(vec![2u64.into(), 1u64.into()])),
                    ]),
                    Json::obj([("g", "y".into()), ("p", Json::obj([("sat", 1u64.into())]))]),
                ]),
            ),
            ("none", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.to_lines(),
            concat!(
                "{\n",
                "  \"seed\": 42,\n",
                "  \"flat\": {\n",
                "    \"a\": 1,\n",
                "    \"b\": null\n",
                "  },\n",
                "  \"goals\": [\n",
                "    {\"g\": \"x\", \"r\": [2, 1]},\n",
                "    {\"g\": \"y\", \"p\": {\"sat\": 1}}\n",
                "  ],\n",
                "  \"none\": [\n",
                "  ]\n",
                "}\n",
            )
        );
        assert_eq!(
            doc.to_compact(),
            "{\"seed\":42,\"flat\":{\"a\":1,\"b\":null},\"goals\":[{\"g\":\"x\",\"r\":[2,1]},{\"g\":\"y\",\"p\":{\"sat\":1}}],\"none\":[]}"
        );
        assert_eq!(parse(&doc.to_lines()).unwrap(), doc);
        assert_eq!(parse(&doc.to_compact()).unwrap(), doc);
    }
}
