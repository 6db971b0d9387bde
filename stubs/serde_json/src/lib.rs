//! Offline stand-in for `serde_json` (see `stubs/README.md`).
//!
//! `to_string` delegates to the stub `serde::Serialize` trait, which writes
//! JSON text directly. `from_str` is the workspace's one JSON reader: a
//! strict recursive-descent parser into a [`Value`] that returns an
//! [`Error`] — never panics — on anything RFC 8259 forbids (leading zeros,
//! `1.`, raw control characters in strings, unpaired surrogates, trailing
//! data, numbers outside `f64`). `Value` keeps upstream's variant and method
//! names, so code reading JSON also builds against the real crate.

use serde::Serialize;
use std::fmt;

/// A serialization or parse error (parse errors carry the byte offset).
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// A parsed JSON value. Object members keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also what the writer emits for NaN and ±Inf).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered `(key, value)` members.
    Object(Vec<(String, Value)>),
}

/// A JSON number, kept as written (grammar-checked, finite as `f64`): an
/// integer reads back exactly, and `2.0` stays a float.
#[derive(Debug, Clone, PartialEq)]
pub struct Number(String);

static NULL: Value = Value::Null;

impl Value {
    /// An object's member; `None` on a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Any number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number(text)) => text.parse().ok(),
            _ => None,
        }
    }

    /// A non-negative integer that fits; `None` for floats (`2.0` included).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number(text)) => text.parse().ok(),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        *self == Value::Null
    }
}

/// `value["key"]`: the member, or `Null` when missing or not an object.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[i]`: the element, or `Null` when out of range or not an array.
impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

/// Nesting deeper than this is an error rather than a deeper recursion
/// (upstream's limit).
const MAX_DEPTH: usize = 128;

/// Parse one JSON document; anything but whitespace after it is an error.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let value = p.value()?;
    p.ws();
    (p.pos == text.len()).then_some(value).ok_or_else(|| p.err("trailing characters"))
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        self.eat(b).then_some(()).ok_or_else(|| self.err(&format!("expected '{}'", b as char)))
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.ws();
        match self.peek() {
            Some(b'[') => Ok(Value::Array(self.items(b']', Self::value)?)),
            Some(b'{') => Ok(Value::Object(self.items(b'}', |p| {
                p.ws();
                let key = p.string()?;
                p.ws();
                p.expect(b':')?;
                Ok((key, p.value()?))
            })?)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.pos += 1;
        self.ws();
        let mut items = Vec::new();
        if !self.eat(close) {
            loop {
                items.push(item(self)?);
                self.ws();
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        self.depth -= 1;
        Ok(items)
    }

    fn word(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.err("expected a value"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// Digits consumed.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.err("expected a digit"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.err("expected a fraction digit"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.err("expected an exponent digit"));
            }
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Number(Number(text.to_string()))),
            _ => Err(self.err("number out of range")),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run up to the next quote, backslash or control character:
            // all three are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character of the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate must be followed by an escaped low one.
                    let low = if self.eat(b'\\') && self.eat(b'u') { self.hex4()? } else { 0 };
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("unpaired surrogate"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                // A lone low surrogate is no char.
                char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))?
            }
            _ => return Err(self.err("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let text = self.text.as_bytes();
        let hex = text.get(self.pos..self.pos + 4).ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &h in hex {
            code = code * 16 + (h as char).to_digit(16).ok_or_else(|| self.err("bad \\u escape"))?;
        }
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::{from_str, to_string, Value};

    #[test]
    fn parses_nested_documents() {
        let text = r#" {"a": [7, -2.5, 1e3, 2.0, 18446744073709551616], "b": {"c": "x\"y\\z\/"#;
        let doc = from_str(&format!(r#"{text}", "d": null}}, "e": true}} "#)).unwrap();
        let a = &doc["a"];
        assert_eq!([0, 1, 2, 3].map(|i| a[i].as_f64().unwrap()), [7.0, -2.5, 1000.0, 2.0]);
        // Integers read back exactly; fractions, exponents and `2.0` are floats.
        assert_eq!([0, 1, 2, 3, 4].map(|i| a[i].as_u64()), [Some(7), None, None, None, None]);
        assert_eq!(doc["b"]["c"].as_str(), Some("x\"y\\z/"));
        assert!(doc["b"]["d"].is_null() && doc["b"].get("d").is_some() && doc.get("x").is_none());
        assert_eq!(doc["e"].as_bool(), Some(true));
        // Missing keys, wrong types and out-of-range indices read as null.
        assert!(doc["missing"].is_null() && a[9].is_null() && doc["e"]["x"].is_null());
        let empty = (from_str("[]").unwrap(), from_str("{ }").unwrap());
        assert_eq!(empty, (Value::Array(vec![]), Value::Object(vec![])));
    }

    #[test]
    fn reads_back_what_the_writer_writes() {
        let doc = from_str(&to_string(&vec![f64::NAN, 2.0, f64::INFINITY, -3.25]).unwrap());
        let doc = doc.unwrap();
        assert!(doc[0].is_null() && doc[2].is_null());
        assert_eq!((doc[1].as_f64(), doc[1].as_u64()), (Some(2.0), None), "2.0 stays a float");
        assert_eq!(doc[3].as_f64(), Some(-3.25));
        let s = "a\"b\\c\nd\te\u{1}\u{1f}é😀";
        assert_eq!(from_str(&to_string(s).unwrap()).unwrap().as_str(), Some(s));
        let doc = from_str(r#"["A\u00e9", "\ud83d\ude00", "\u0000"]"#).unwrap();
        assert_eq!([0, 1, 2].map(|i| doc[i].as_str().unwrap()), ["Aé", "😀", "\0"]);
    }

    #[test]
    fn rejects_what_json_forbids_without_panicking() {
        let bad = [
            "", " ", "{\"a\": }", "[1, 2", "[1,]", "{,}", "{\"a\" 1}", "{1: 2}", "1 2", "tru",
            "'a'", "\"open", "\"\\x\"", "\"\\u12\"", "\"\\u+123\"",
            // Numbers: leading zeros, bare dots, empty exponents, out of range.
            "01", "-01", "1.", ".5", "-", "1e", "1e+", "+1", "1e400", "-1e400", "0x10",
            // Raw control characters inside a string.
            "\"a\nb\"", "\"\t\"", "\"\u{0}\"",
            // Unpaired surrogates, a high one before a non-surrogate escape included.
            r#""\uD800\u0041""#, r#""\uDBFF\uDBFF""#, r#""\uD800""#, r#""\uD800x""#, r#""\uDC00""#,
        ];
        for text in bad {
            assert!(from_str(text).is_err(), "accepted {text:?}");
        }
        assert!(from_str(&"[".repeat(100_000)).is_err());
        assert!(from_str(&format!("{}{}", "[".repeat(128), "]".repeat(128))).is_ok());
    }
}
