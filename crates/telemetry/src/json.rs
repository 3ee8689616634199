//! A minimal JSON encoder/decoder — just enough for the flat objects this
//! crate emits, so the workspace stays dependency-free.
//!
//! Supported: one-level objects whose values are strings, finite numbers,
//! booleans, or `null`. That is exactly the shape of every telemetry event
//! line and every committed `BENCH_*.json` artifact; nested containers are
//! intentionally rejected.

use std::collections::BTreeMap;

/// A parsed JSON scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// Any JSON number (parsed as f64).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
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

    /// The value as JSON text.
    pub fn to_json(&self) -> String {
        match self {
            Value::Str(s) => format!("\"{}\"", escape(s)),
            Value::Num(n) => fmt_f64(*n),
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".to_owned(),
        }
    }
}

/// Escapes `s` as the contents of a JSON string literal (quotes excluded).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON number. Non-finite values (which JSON cannot
/// represent) become `null` and parse back as NaN.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // `{}` is Rust's shortest-roundtrip formatting: deterministic for a
        // given bit pattern, and always a valid JSON number.
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Writes `fields` as a one-level JSON object, one key per line in the
/// given order; [`parse_object`] reads it back.
pub fn write_object(fields: &[(String, Value)]) -> String {
    let lines: Vec<String> = (fields.iter())
        .map(|(key, value)| format!("  \"{}\": {}", escape(key), value.to_json()))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Parses a one-level JSON object into a key → [`Value`] map.
///
/// # Errors
///
/// Returns a human-readable message on malformed input or nested
/// containers.
pub fn parse_object(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut p = Parser {
        text: line.trim(),
        pos: 0,
    };
    let map = p.object()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(map)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes().get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos,
                self.bytes().get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, Value>, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes().get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bytes().get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos,
                        other.map(|&c| c as char)
                    ))
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes().get(self.pos) {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'{') | Some(b'[') => Err(format!(
                "nested containers unsupported at byte {}",
                self.pos
            )),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes()[start..self.pos])
            .map_err(|_| "non-utf8 number".to_owned())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // copy the run up to the next quote or backslash as one slice:
            // neither byte occurs inside a multi-byte UTF-8 sequence, so
            // both ends of the run are char boundaries
            let rest = &self.bytes()[self.pos..];
            let run = (rest.iter())
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            match self.bytes().get(self.pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let hex = self
                        .bytes()
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    // exactly four hex digits: from_str_radix alone would
                    // also take a leading sign
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .filter(|_| hex.iter().all(u8::is_ascii_hexdigit))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or("bad \\u escape")?;
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    self.pos += 4;
                }
                other => return Err(format!("bad escape {other:?}")),
            }
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object() {
        let m = parse_object(r#"{"ev":"step","lr":0.125,"ok":true,"x":null,"n":-3}"#).unwrap();
        assert_eq!(m["ev"].as_str(), Some("step"));
        assert_eq!(m["lr"].as_f64(), Some(0.125));
        assert_eq!(m["ok"].as_bool(), Some(true));
        assert!(m["x"].as_f64().unwrap().is_nan());
        assert_eq!(m["n"].as_f64(), Some(-3.0));
    }

    #[test]
    fn roundtrips_escapes() {
        let s = "a\"b\\c\nd\te\u{1}";
        let line = format!("{{\"k\":\"{}\"}}", escape(s));
        let m = parse_object(&line).unwrap();
        assert_eq!(m["k"].as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            parse_object(r#"{"k":"\u0041"}"#).unwrap()["k"].as_str(),
            Some("A")
        );
        assert_eq!(
            parse_object(r#"{"k":"\u00e9"}"#).unwrap()["k"].as_str(),
            Some("é")
        );
        for bad in [
            r#"{"k":"\u+041"}"#,
            r#"{"k":"\u-041"}"#,
            r#"{"k":"\u 041"}"#,
            r#"{"k":"\u004"}"#,
        ] {
            assert!(parse_object(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // a parse whose cost grows with the square of the string's
        // length takes seconds at this size
        let s = format!("é{}\"\n", "a".repeat(512 << 10));
        let line = format!("{{\"k\":\"{}\"}}", escape(&s));
        let start = std::time::Instant::now();
        let m = parse_object(&line).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(m["k"].as_str(), Some(s.as_str()));
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_object("{").is_err());
        assert!(parse_object(r#"{"a":}"#).is_err());
        assert!(parse_object(r#"{"a":1} extra"#).is_err());
        assert!(parse_object(r#"{"a":[1]}"#).is_err());
        assert!(parse_object(r#"{"a":{"b":1}}"#).is_err());
    }

    #[test]
    fn float_formatting_roundtrips() {
        for v in [0.0, 1.0, -2.5, 1e-8, 123456.789, f64::MIN_POSITIVE] {
            let s = fmt_f64(v);
            let m = parse_object(&format!("{{\"v\":{s}}}")).unwrap();
            assert_eq!(m["v"].as_f64(), Some(v), "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn written_objects_parse_back() {
        let fields = vec![
            ("a.b".to_owned(), Value::Str("x\"y".to_owned())),
            ("n".to_owned(), Value::Num(0.25)),
            ("ok".to_owned(), Value::Bool(false)),
            ("gone".to_owned(), Value::Null),
        ];
        let text = write_object(&fields);
        assert!(text.starts_with("{\n  \"a.b\": \"x\\\"y\",\n"), "{text}");
        let m = parse_object(&text).unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m["a.b"].as_str(), Some("x\"y"));
        assert_eq!(m["n"].as_f64(), Some(0.25));
        assert_eq!(m["ok"].as_bool(), Some(false));
        assert_eq!(m["gone"], Value::Null);
    }

    #[test]
    fn u64_bounds() {
        let m = parse_object(r#"{"a":42,"b":4.5,"c":-1}"#).unwrap();
        assert_eq!(m["a"].as_u64(), Some(42));
        assert_eq!(m["b"].as_u64(), None);
        assert_eq!(m["c"].as_u64(), None);
    }
}
