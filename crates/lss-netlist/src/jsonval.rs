//! A minimal JSON reader for the netlist serialization and the driver's
//! on-disk cache envelopes. Hand-rolled for the same reason the writer in
//! [`crate::json`] is: the documents are small, the schema is ours, and a
//! serializer dependency is not warranted (DESIGN.md §6).
//!
//! Objects preserve key order (they are stored as `Vec<(String, JsonValue)>`),
//! which is what lets `from_json(to_json(n))` re-emit byte-identical output.

use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without `.`, `e`, or `E` — kept exact as an `i64`.
    Int(i64),
    /// A number with a fractional or exponent part.
    Float(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members, if it is one.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(v) => write!(f, "{v}"),
            JsonValue::Float(v) => write!(f, "{v}"),
            JsonValue::Str(s) => write!(f, "{s:?}"),
            JsonValue::Array(_) => write!(f, "<array>"),
            JsonValue::Object(_) => write!(f, "<object>"),
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", JsonValue::Null),
            Some(b't') => self.eat_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_keyword("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
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
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one go: both are
            // ASCII, so the run ends on a char boundary of the input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The run stopped at a `\`.
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            // Decode surrogate pairs; lone surrogates error.
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                if !self.bytes[self.pos + 1..].starts_with(b"\\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad surrogate pair".to_string());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| "bad surrogate pair".to_string())?
                            } else {
                                char::from_u32(hi).ok_or_else(|| "bad \\u escape".to_string())?
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Reads the 4 hex digits after `\u`, leaving `pos` on the last digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        // `from_str_radix` alone would also take a sign (`\u+041`).
        let digits = &self.bytes[start..end];
        let code = std::str::from_utf8(digits)
            .ok()
            .filter(|_| digits.iter().all(u8::is_ascii_hexdigit))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| "bad \\u escape".to_string())?;
        self.pos = end - 1;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if fractional {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| format!("bad number `{text}`"))
        } else {
            text.parse::<i64>()
                .map(JsonValue::Int)
                .map_err(|_| format!("bad number `{text}`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse_json(r#"{"a": 1, "b": -2.5, "c": [true, false, null], "d": {"k": "v"}}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-2.5));
        let c = v.get("c").unwrap().as_array().unwrap();
        assert_eq!(c[0].as_bool(), Some(true));
        assert!(c[2].is_null());
        assert_eq!(v.get("d").unwrap().get("k").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn integers_are_exact() {
        let v = parse_json("9007199254740993").unwrap();
        assert_eq!(v.as_i64(), Some(9007199254740993)); // > 2^53
        assert_eq!(parse_json("3").unwrap(), JsonValue::Int(3));
        assert_eq!(parse_json("3.0").unwrap(), JsonValue::Float(3.0));
        assert_eq!(parse_json("1e2").unwrap(), JsonValue::Float(100.0));
    }

    #[test]
    fn unescapes_strings() {
        let v = parse_json(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        let pair = parse_json(r#""😀""#).unwrap();
        assert_eq!(pair.as_str(), Some("😀"));
    }

    #[test]
    fn escape_and_parse_round_trip() {
        let mut cases: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        cases.extend(
            [
                "",
                "plain",
                "\"",
                "\\",
                "/",
                "\u{7f}",
                "é",
                "日本語",
                "😀",
                "a\"b\\c\nd\u{1}é😀\u{1f}z",
            ]
            .map(String::from),
        );
        for s in &cases {
            let json = format!("\"{}\"", crate::json::escape(s));
            assert_eq!(
                parse_json(&json).unwrap().as_str(),
                Some(s.as_str()),
                "{json}"
            );
        }
        assert_eq!(
            crate::json::escape("\u{0}\u{8}\u{c}\u{1f}\n\t\r"),
            "\\u0000\\u0008\\u000c\\u001f\\n\\t\\r"
        );
        // Escapes the writer never emits still decode, each on its own.
        let decoded = parse_json(r#""\/\b\f\u0041\u00e9x\ud83d\ude00y""#).unwrap();
        assert_eq!(decoded.as_str(), Some("/\u{8}\u{c}Aéx😀y"));
    }

    #[test]
    fn malformed_strings_still_fail() {
        for (text, error) in [
            (r#""abc"#, "unterminated string"),
            (r#""abc\"#, "bad escape at byte 5"),
            (r#""a\q""#, "bad escape at byte 3"),
            (r#""\u12""#, "truncated \\u escape"),
            (r#""\u12zz""#, "bad \\u escape"),
            (r#""\u+041""#, "bad \\u escape"),
            (r#""\ud800""#, "lone high surrogate"),
            (r#""\ud800x""#, "lone high surrogate"),
            (r#""\udc00""#, "bad \\u escape"),
            (r#""\ud800\u0041""#, "bad surrogate pair"),
            (r#""\ud800\ue000""#, "bad surrogate pair"),
        ] {
            assert_eq!(parse_json(text), Err(error.to_string()), "{text}");
        }
    }

    #[test]
    fn preserves_object_key_order() {
        let v = parse_json(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("nul").is_err());
        assert!(parse_json("\"abc").is_err());
        assert!(parse_json("{} junk").is_err());
        assert!(parse_json("1.2.3").is_err());
    }
}
