//! Minimal JSON reader for the bench tooling's own output files.
//!
//! The vendored `serde_json` stub only *serializes*, so the tests that check a
//! `BENCH_*.json` / `BENCH_history.jsonl` writer by reading its output back
//! need a parser. This is a small strict recursive-descent one over the subset
//! of JSON our writers emit: objects, arrays, strings with the standard
//! escapes, finite numbers, booleans, and null — nested objects and escaped
//! quotes parse correctly, where substring matching would not.

/// A parsed JSON value. Object keys keep insertion order (we never need map
/// semantics, only lookup).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also produced by the serde stub for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (our writers never exceed 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on other variants or a missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then `as_f64()`.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// Convenience: `get(key)` then `as_str()`.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }
}

/// Parse one complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Parse a JSON Lines file: one document per non-empty line.
pub fn parse_lines(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number '{text}': {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs (we only ever emit BMP escapes,
                            // but accept pairs so the parser stays general).
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                let combined =
                                    0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(cp).ok_or("bad \\u escape")?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                Some(c) => {
                    // Copy a whole UTF-8 scalar, not just one byte.
                    let width = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (self.pos + width).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "bad \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape '{s}'"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = parse(
            r#"{"a": [1, -2.5, 1e3], "b": {"c": "x\"y\\z", "d": null}, "e": true}"#,
        )
        .unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[2], Json::Num(1000.0));
        assert_eq!(doc.get("b").unwrap().str("c"), Some("x\"y\\z"));
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn unicode_escapes_and_control_chars() {
        let doc = parse(r#"["Aé", "	", "😀"]"#).unwrap();
        let items = doc.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("Aé"));
        assert_eq!(items[1].as_str(), Some("\t"));
        assert_eq!(items[2].as_str(), Some("😀"));
    }

    #[test]
    fn roundtrips_serde_stub_output() {
        // Whatever our writer emits, this parser must read back — including
        // the escapes the stub produces.
        #[derive(serde::Serialize)]
        struct R {
            name: String,
            v: f64,
            tags: Vec<u64>,
        }
        let text = serde_json::to_string(&R {
            name: "a\"b\\c\nd\te\u{1}".into(),
            v: -3.25,
            tags: vec![1, 2, 3],
        })
        .unwrap();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.str("name"), Some("a\"b\\c\nd\te\u{1}"));
        assert_eq!(doc.num("v"), Some(-3.25));
        assert_eq!(doc.get("tags").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("123 extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn jsonl_lines() {
        let lines = parse_lines("{\"a\":1}\n\n{\"a\":2}\n").unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].num("a"), Some(2.0));
        assert!(parse_lines("{\"a\":1}\nnot json\n").is_err());
    }
}
