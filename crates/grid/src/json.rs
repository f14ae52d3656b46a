//! A minimal, dependency-free JSON reader for the grid wire format.
//!
//! The workspace builds fully offline, so `serde_json` is unavailable;
//! this module provides the small subset the wire format needs. Two
//! properties matter more than generality:
//!
//! * **Integer exactness** — timestamps, byte counts and seeds are `u64`;
//!   parsing them through `f64` would silently corrupt values above 2⁵³. Numbers without a fraction or exponent therefore
//!   parse into [`Json::Int`] (`i128`), and only the rest into
//!   [`Json::Float`].
//! * **Round-tripping floats** — the writers format `f64`s with `{:?}`
//!   (Rust's shortest-round-trip representation), so
//!   `parse(write(x)) == x` bit-for-bit for every finite float.
//!
//! **Cost:** parsing is a single pass, linear in the input bytes. A
//! string is copied one run at a time (each stretch up to the next
//! quote, backslash or control byte in one slice, with no re-validation:
//! the input is already a `&str`), and a non-negative integer that fits
//! in a `u64` is accumulated straight from its digits.
//!
//! Writing happens directly in `wire`, appending into one buffer; only
//! escaping ([`escape`]) lives here so both sides agree on it.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction/exponent part, kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

/// A parse error with byte offset context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Maximum nesting depth accepted by the parser (frames are shallow; the
/// cap only guards against stack exhaustion on corrupt input).
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses one JSON document; trailing whitespace is allowed, trailing
    /// content is an error.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its byte offset.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let bytes = src.as_bytes();
        let mut p = Parser { src, bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing content"));
        }
        Ok(v)
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is a non-negative integer in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an exact `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            what: what.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        // Fast path: a non-negative integer that fits in a `u64` (every
        // timestamp, count and delay sample on the wire) accumulates
        // straight from its digits.
        let mut acc = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            acc = acc
                .and_then(|a| a.checked_mul(10))
                .and_then(|a| a.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        match (acc, self.peek()) {
            (_, Some(b'.' | b'e' | b'E' | b'+' | b'-')) => {}
            (Some(v), _) if self.pos > start => return Ok(Json::Int(i128::from(v))),
            _ => {}
        }
        // Everything else (negatives, values past `u64::MAX`, fractions,
        // exponents) rescans through the general parse.
        self.pos = start;
        let mut integral = true;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if integral {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|e| self.err(format!("bad integer {text:?}: {e}")))
        } else {
            let f: f64 = text
                .parse()
                .map_err(|e| self.err(format!("bad number {text:?}: {e}")))?;
            if !f.is_finite() {
                return Err(self.err(format!("non-finite number {text:?}")));
            }
            Ok(Json::Float(f))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // as one slice. All three are ASCII, so both ends of the run
            // sit on `char` boundaries of the already-valid input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low half must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    (0xDC00..0xE000)
                                        .contains(&lo)
                                        .then(|| {
                                            0x10000
                                                + ((u32::from(hi) - 0xD800) << 10)
                                                + (u32::from(lo) - 0xDC00)
                                        })
                                        .and_then(char::from_u32)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(u32::from(hi))
                            };
                            out.push(c.ok_or_else(|| self.err("bad unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control byte in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let text = std::str::from_utf8(chunk).map_err(|_| self.err("bad unicode escape"))?;
        let v = u16::from_str_radix(text, 16).map_err(|_| self.err("bad unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::Float(2000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn u64_integers_stay_exact() {
        let v = Json::parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        // 2^53 + 1 is not representable in f64 — must stay exact.
        let tricky = (1u64 << 53) + 1;
        assert_eq!(
            Json::parse(&tricky.to_string()).unwrap().as_u64(),
            Some(tricky)
        );
    }

    #[test]
    fn floats_round_trip_via_debug_format() {
        for f in [1.0f64, 0.1, 1.75, 41.6e3, f64::MIN_POSITIVE, 1e300] {
            let text = format!("{f:?}");
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(f), "{text}");
        }
    }

    #[test]
    fn containers_and_lookup() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x", "a": 9}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
        // Duplicate keys: first wins.
        assert_eq!(v.get("a").unwrap().as_arr().map(<[Json]>::len), Some(3));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1F600}\u{7}";
        let text = format!("\"{}\"", escape(original));
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(original));
        // Surrogate pair escapes decode.
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn string_runs_split_at_escapes_and_multibyte_text() {
        for original in [
            // Multi-byte UTF-8 right next to escapes, on both sides.
            "é\"ü\\€\n😀",
            "\u{1F600}\t\u{1F600}",
            // Runs that end exactly at an escape, and escapes only.
            "abc\\",
            "\"",
            "\\\\\\",
            "",
            // A low control byte travels escaped.
            "x\u{1}y",
        ] {
            let text = format!("\"{}\"", escape(original));
            assert_eq!(
                Json::parse(&text).unwrap(),
                Json::Str(original.into()),
                "{text}"
            );
        }
        // `\u` escapes between multi-byte runs, and as object keys.
        let u = |hex: &str| format!("\\u{hex}");
        let text = format!(
            "\"{}é{}{}😀{}\"",
            u("00e9"),
            u("d83d"),
            u("de00"),
            u("00df")
        );
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some("éé😀😀ß"));
        let v = Json::parse(r#"{"kë\"y": "välue", "k2": 1}"#).unwrap();
        assert_eq!(v.get("kë\"y").and_then(Json::as_str), Some("välue"));
        assert_eq!(v.get("k2").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn raw_control_bytes_and_lone_surrogates_are_rejected() {
        for bad in [
            "\"a\u{0}b\"",
            "\"tab\there\"",
            "\"new\nline\"",
            "\"é\u{1f}\"",
            "\"\u{1f}\"",
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.what.contains("control byte"), "{bad:?}: {e}");
        }
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ude00""#,
            r#""\ud83dA""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\n""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
        // A high surrogate followed by an escaped non-surrogate (`A`)
        // is a lone surrogate too.
        let bad = format!("\"\\ud83d\\{}\"", "u0041");
        assert!(Json::parse(&bad).is_err(), "{bad} should fail");
        // A DEL byte (0x7f) is not a control byte in JSON.
        assert_eq!(Json::parse("\"\u{7f}\"").unwrap().as_str(), Some("\u{7f}"));
    }

    #[test]
    fn integer_fast_path_matches_the_general_parse() {
        for (text, want) in [
            ("0", Json::Int(0)),
            ("007", Json::Int(7)),
            ("18446744073709551615", Json::Int(i128::from(u64::MAX))),
            ("18446744073709551616", Json::Int(i128::from(u64::MAX) + 1)),
            (
                "-18446744073709551616",
                Json::Int(-i128::from(u64::MAX) - 1),
            ),
            ("-0", Json::Int(0)),
            ("12e2", Json::Float(1200.0)),
            ("12.5", Json::Float(12.5)),
            (
                "[1,22,333]",
                Json::Arr(vec![Json::Int(1), Json::Int(22), Json::Int(333)]),
            ),
        ] {
            assert_eq!(Json::parse(text).unwrap(), want, "{text}");
        }
        for bad in [
            "-",
            "1-2",
            "1+",
            "1e",
            "99999999999999999999999999999999999999999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in ["", "{", "[1,", "\"x", "tru", "1.2.3", "[1] x", "nan"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let e = Json::parse("[1, @]").unwrap_err();
        assert_eq!(e.at, 4);
        assert!(e.to_string().contains("byte 4"));
        // Lone surrogate is rejected.
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn depth_is_capped() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }
}
