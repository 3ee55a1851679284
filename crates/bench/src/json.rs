//! The JSON value behind `BENCH_sweep.json`.
//!
//! `repro bench`, `repro load` and `repro explore` each parse the record,
//! [`Json::set`] their own keys where they stand and [`Json::print`] the
//! result, so this module alone decides the record's bytes. Numbers and
//! strings keep their printed text, so a parse/print round trip changes
//! no digit or escape; a writer picks a number's precision when it builds
//! it ([`Json::fixed`]).
//!
//! The layout has one rule: a container that holds only scalars prints on
//! one line, and any other container prints one member per line, indented
//! by two spaces per level.

use std::fmt;

/// Containers nested deeper than this are a parse error, not a stack
/// overflow.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its printed text.
    Num(String),
    /// A string, as its printed text between the quotes (escapes kept).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: members in order, each key as its printed text.
    Obj(Vec<(String, Json)>),
}

/// Why and where [`Json::parse`] stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What was wrong there.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl Json {
    /// Parses one JSON value, with only whitespace around it.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { text, i: 0 };
        let v = p.value(0)?;
        p.ws();
        if p.i < text.len() {
            return p.err("trailing input");
        }
        Ok(v)
    }

    /// The value in this module's layout, with a final newline.
    pub fn print(&self) -> String {
        self.text(0) + "\n"
    }

    /// Sets member `key` of an object: an existing member is replaced
    /// where it stands, a new one is appended. Panics on a non-object.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(members) = self else {
            panic!("Json::set on a non-object")
        };
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => members.push((key.to_string(), value)),
        }
    }

    /// `x` with `decimals` digits after the point. A non-finite `x` has no
    /// JSON form and is a bug in the writer.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        assert!(x.is_finite(), "JSON has no form for {x}");
        Json::Num(format!("{x:.decimals$}"))
    }

    /// The value's text when it starts at column `indent`.
    fn text(&self, indent: usize) -> String {
        let (brackets, members): (_, Vec<_>) = match self {
            Json::Null => return "null".into(),
            Json::Bool(b) => return b.to_string(),
            Json::Num(n) => return n.clone(),
            Json::Str(s) => return format!("\"{s}\""),
            Json::Arr(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
            Json::Obj(members) => ("{}", members.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let flat = members
            .iter()
            .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let pad = " ".repeat(indent + 2);
        let items: Vec<String> = members
            .iter()
            .map(|(k, v)| k.map_or(String::new(), |k| format!("\"{k}\": ")) + &v.text(indent + 2))
            .collect();
        let (open, close) = brackets.split_at(1);
        if flat {
            format!("{open}{}{close}", items.join(", "))
        } else {
            let items = items.join(&format!(",\n{pad}"));
            format!("{open}\n{pad}{items}\n{}{close}", &pad[2..])
        }
    }
}

/// A [`Json`] object literal, `obj! {"key": value, ...}`: members in
/// order, each value converted with [`Json::from`]. The keys need no
/// escapes.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}
from_integer!(u8, u32, u64, u128, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    /// `s`, escaped.
    fn from(s: &str) -> Json {
        let escape = |c: char| match c {
            '"' | '\\' => format!("\\{c}"),
            c if c < ' ' => format!("\\u{:04x}", u32::from(c)),
            c => c.to_string(),
        };
        Json::Str(s.chars().map(escape).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

struct Parser<'a> {
    text: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &'static str) -> Result<T, ParseError> {
        let offset = self.i;
        Err(ParseError { offset, msg })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    /// Consumes the next byte if it is one of `any`.
    fn skip(&mut self, any: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| any.contains(&b));
        self.i += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while self.skip(b" \t\n\r") {}
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        self.skip(&[b])
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.ws();
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        let obj = self.skip(b"{");
        if obj || self.skip(b"[") {
            let mut members = Vec::new();
            while !self.eat(if obj { b'}' } else { b']' }) {
                if !members.is_empty() && !self.eat(b',') {
                    return self.err("expected ',' or a closing bracket");
                }
                let mut key = String::new();
                if obj {
                    self.ws();
                    key = self.string()?;
                    if !self.eat(b':') {
                        return self.err("expected ':'");
                    }
                }
                members.push((key, self.value(depth + 1)?));
            }
            if obj {
                return Ok(Json::Obj(members));
            }
            return Ok(Json::Arr(members.into_iter().map(|(_, v)| v).collect()));
        }
        match self.peek() {
            Some(b'"') => return self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            _ => {}
        }
        for (word, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if self.text[self.i..].starts_with(word) {
                self.i += word.len();
                return Ok(v);
            }
        }
        self.err("expected a value")
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while self.skip(b"0123456789") {}
        self.i - start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        self.skip(b"-");
        let int = self.i;
        if self.digits() == 0 || (self.text.as_bytes()[int] == b'0' && self.i > int + 1) {
            self.i = int;
            return self.err("malformed number");
        }
        if self.skip(b".") && self.digits() == 0 {
            return self.err("malformed number");
        }
        if self.skip(b"eE") {
            self.skip(b"+-");
            if self.digits() == 0 {
                return self.err("malformed number");
            }
        }
        Ok(Json::Num(self.text[start..self.i].to_string()))
    }

    /// A string's text between its quotes, escapes checked and kept.
    fn string(&mut self) -> Result<String, ParseError> {
        let open = self.i;
        if !self.skip(b"\"") {
            return self.err("expected a key");
        }
        loop {
            match self.peek() {
                None => {
                    self.i = open;
                    return self.err("unterminated string");
                }
                Some(b'"') => {
                    self.i += 1;
                    return Ok(self.text[open + 1..self.i - 1].to_string());
                }
                Some(b'\\') => {
                    self.i += 1;
                    let hex = self.text.get(self.i + 1..self.i + 5);
                    let hex = hex.is_some_and(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                    if self.peek() == Some(b'u') && hex {
                        self.i += 5;
                    } else if !self.skip(b"\"\\/bfnrt") {
                        return self.err("invalid escape");
                    }
                }
                Some(b) if b < 0x20 => return self.err("control character in string"),
                Some(_) => self.i += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORD: &str = include_str!("../../../BENCH_sweep.json");

    #[test]
    fn the_committed_record_prints_back_byte_identically() {
        let record = Json::parse(RECORD).expect("committed record parses");
        assert_eq!(record.print(), RECORD);
    }

    #[test]
    fn set_keeps_every_other_byte() {
        let mut record = Json::parse(RECORD).unwrap();
        let start = RECORD.find("\n  \"explore\": ").unwrap() + 1;
        let end = RECORD.find("\n  \"explore_smp\": ").unwrap() + 1;
        record.set("explore", Json::Null);
        let spliced = format!(
            "{}  \"explore\": null,\n{}",
            &RECORD[..start],
            &RECORD[end..]
        );
        assert_eq!(record.print(), spliced);
        record.set("z", obj! {"a": 1u8, "b": "\"\n"});
        let tail = ",\n  \"z\": {\"a\": 1, \"b\": \"\\\"\\u000a\"}\n}\n";
        assert_eq!(record.print(), spliced.replace("\n}\n", tail));
    }

    #[test]
    fn only_scalar_containers_print_flat() {
        let text = r#"{"a": [], "b": [1, {}], "c": {"d": [true, null, -1.5e3, "\u00e9\/"]}}"#;
        let want = "{\n  \"a\": [],\n  \"b\": [\n    1,\n    {}\n  ],\n  \
                    \"c\": {\n    \"d\": [true, null, -1.5e3, \"\\u00e9\\/\"]\n  }\n}\n";
        assert_eq!(Json::parse(text).unwrap().print(), want);
    }

    #[test]
    fn non_json_is_an_error_at_its_offset() {
        for (text, offset) in [
            ("nan", 0),
            ("[1, inf]", 4),
            ("-inf", 1),
            ("{\"a\": NaN}", 6),
            ("[1, 2,]", 6),
            ("{\"a\": 1,}", 8),
            ("{\"a\": \"open", 6),
            ("{} x", 3),
            ("01", 0),
            ("1.", 2),
            ("1e+", 3),
            ("\"\\x\"", 2),
            ("\"\\u12\"", 2),
            ("", 0),
        ] {
            let e = Json::parse(text).expect_err(text);
            assert_eq!(e.offset, offset, "{text}: {e}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert_eq!(Json::parse(&deep).unwrap_err().msg, "nesting too deep");
    }
}
