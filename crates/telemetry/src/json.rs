//! The workspace's one JSON module: a reader, plus the writer primitives
//! and typed field accessors shared by every hand-rolled document.
//!
//! The workspace deliberately carries no `serde_json` dependency. Writers
//! build their output by hand ([`crate::Snapshot::to_json`], the trace
//! exporters, the simulator and ingest checkpoints) and [`parse`] reads
//! those artifacts back — snapshot round-trips, checkpoint resumes, the
//! `dspp-bench` baseline file, `dspp-analyze` event dumps, and the
//! integration tests that validate trace exports.
//!
//! # Reader
//!
//! A strict recursive-descent parser over the JSON grammar (RFC 8259)
//! minus one corner: `\uXXXX` escapes outside the BMP are accepted but
//! surrogate pairs are not recombined. Arrays and objects nest at most
//! [`MAX_DEPTH`] deep, so hostile input cannot overflow the stack.
//!
//! # Writer
//!
//! * **One string escaper**, [`push_string`]: `"` and `\` are
//!   backslash-escaped, every other control character below U+0020
//!   becomes `\u00xx`, and everything else is copied verbatim.
//! * **Lossless floats**, [`push_f64`] (and its array and matrix forms):
//!   a finite value is written in Rust's shortest round-trip form, so
//!   [`parse_f64`] reads back the identical bits. RFC 8259 has no syntax
//!   for non-finite numbers, so they are written as the strings `"inf"`,
//!   `"-inf"` and `"nan"`. The checkpoints use this rule; snapshot, trace
//!   and bench documents still write non-finite values as `null`.
//!
//! # Typed accessors
//!
//! [`get`], [`get_u64`], [`get_usize`], [`get_str`] and [`field`] fetch a
//! member of an object and convert it. Their error messages start with
//! the field name, and nesting them (with [`parse_array`] adding element
//! indices) yields the full path, e.g. `controller_state: allocation:
//! [3]: expected a number, got Null`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. The workspace's own
/// documents nest at most a handful of levels; the cap keeps the
/// recursive descent far from the thread's stack limit.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is not preserved; duplicate keys keep the
    /// last value.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
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

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member `key` of an object (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|o| o.get(key))
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first violation.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = &self.bytes[self.pos + 1..self.pos + 5];
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one full UTF-8 scalar.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Appends `s` as a JSON string literal (see the module docs for the
/// escaping rules).
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` losslessly: finite values in their shortest round-trip
/// form, non-finite ones as `"inf"`, `"-inf"` or `"nan"`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `Display` for f64 prints the shortest representation that
        // parses back to the same bits.
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

fn push_array<T>(out: &mut String, items: &[T], mut push_item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_item(out, item);
    }
    out.push(']');
}

/// Appends `values` as an array of [`push_f64`] numbers.
pub fn push_f64_array(out: &mut String, values: &[f64]) {
    push_array(out, values, |out, &v| push_f64(out, v));
}

/// Appends `rows` as an array of [`push_f64_array`] rows.
pub fn push_f64_matrix(out: &mut String, rows: &[Vec<f64>]) {
    push_array(out, rows, |out, row| push_f64_array(out, row));
}

/// Appends `rows` as a [`push_f64_matrix`] matrix, or `null` for `None`.
pub fn push_f64_matrix_or_null(out: &mut String, rows: Option<&[Vec<f64>]>) {
    match rows {
        None => out.push_str("null"),
        Some(rows) => push_f64_matrix(out, rows),
    }
}

/// Appends `values` as an array of integers.
pub fn push_u64_array(out: &mut String, values: &[u64]) {
    push_array(out, values, |out, v| {
        let _ = write!(out, "{v}");
    });
}

/// Reads a number written by [`push_f64`], including the non-finite
/// strings.
///
/// # Errors
///
/// Any value that is neither a number nor one of those strings.
pub fn parse_f64(v: &JsonValue) -> Result<f64, String> {
    match v {
        JsonValue::Number(n) => Ok(*n),
        JsonValue::String(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(format!("expected a number, got string {other:?}")),
        },
        other => Err(format!("expected a number, got {other:?}")),
    }
}

/// Reads an array whose every element `parse` accepts; an element's
/// error is prefixed with its index.
///
/// # Errors
///
/// A non-array, or the first element `parse` refuses.
pub fn parse_array<T>(
    v: &JsonValue,
    parse: impl Fn(&JsonValue) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    v.as_array()
        .ok_or("expected an array")?
        .iter()
        .enumerate()
        .map(|(i, item)| parse(item).map_err(|e| format!("[{i}]: {e}")))
        .collect()
}

/// Reads an array written by [`push_f64_array`].
///
/// # Errors
///
/// A non-array, or any element [`parse_f64`] refuses.
pub fn parse_f64_array(v: &JsonValue) -> Result<Vec<f64>, String> {
    parse_array(v, parse_f64)
}

/// Reads a matrix written by [`push_f64_matrix`].
///
/// # Errors
///
/// A non-array, or any row [`parse_f64_array`] refuses.
pub fn parse_f64_matrix(v: &JsonValue) -> Result<Vec<Vec<f64>>, String> {
    parse_array(v, parse_f64_array)
}

/// Reads a value written by [`push_f64_matrix_or_null`].
///
/// # Errors
///
/// Anything but `null` that [`parse_f64_matrix`] refuses.
pub fn parse_f64_matrix_or_null(v: &JsonValue) -> Result<Option<Vec<Vec<f64>>>, String> {
    match v {
        JsonValue::Null => Ok(None),
        other => parse_f64_matrix(other).map(Some),
    }
}

/// Reads an array written by [`push_u64_array`].
///
/// # Errors
///
/// A non-array, or any element that is not a non-negative integer.
pub fn parse_u64_array(v: &JsonValue) -> Result<Vec<u64>, String> {
    parse_array(v, |x| {
        x.as_u64()
            .ok_or_else(|| "expected a non-negative integer".to_string())
    })
}

/// Member `key` of `obj`.
///
/// # Errors
///
/// `obj` is not an object or has no member `key`.
pub fn get<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// Member `key` of `obj`, converted by `parse`; a conversion error is
/// prefixed with `key`.
///
/// # Errors
///
/// The member is missing or `parse` refuses it.
pub fn field<'a, T>(
    obj: &'a JsonValue,
    key: &str,
    parse: impl FnOnce(&'a JsonValue) -> Result<T, String>,
) -> Result<T, String> {
    parse(get(obj, key)?).map_err(|e| format!("{key}: {e}"))
}

/// Member `key` of `obj` as a non-negative integer.
///
/// # Errors
///
/// The member is missing or not a non-negative integer.
pub fn get_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
    get(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
}

/// Member `key` of `obj` as a string.
///
/// # Errors
///
/// The member is missing or not a string.
pub fn get_str<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    get(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

/// Member `key` of `obj` as a `usize`.
///
/// # Errors
///
/// The member is missing, not a non-negative integer, or too large.
pub fn get_usize(obj: &JsonValue, key: &str) -> Result<usize, String> {
    usize::try_from(get_u64(obj, key)?).map_err(|_| format!("field {key:?} is out of range"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" -2.5e2 ").unwrap(), JsonValue::Number(-250.0));
        assert_eq!(
            parse("\"a\\\"b\\u0041\"").unwrap(),
            JsonValue::String("a\"bA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":false}],"c":{"d":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_bool(),
            Some(false)
        );
        assert_eq!(v.get("c").unwrap().get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn integer_accessor_rejects_fractions() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\x\""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn roundtrips_unicode() {
        let v = parse("\"héllo → 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → 世界"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let values = [
            0.1,
            1.0 / 3.0,
            2e-17,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut out = String::new();
        push_f64_array(&mut out, &values);
        assert_eq!(
            out,
            r#"[0.1,0.3333333333333333,0.00000000000000002,-0,"inf","-inf"]"#
        );
        let back = parse_f64_array(&parse(&out).unwrap()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
        let mut nan = String::new();
        push_f64(&mut nan, f64::NAN);
        assert!(parse_f64(&parse(&nan).unwrap()).unwrap().is_nan());
    }

    #[test]
    fn string_escaper_round_trips() {
        let raw = "q\"b\\n\nt\tc\u{1}é";
        let mut out = String::new();
        push_string(&mut out, raw);
        assert_eq!(out, r#""q\"b\\n\u000at\u0009c\u0001é""#);
        assert_eq!(parse(&out).unwrap().as_str(), Some(raw));
    }

    #[test]
    fn field_errors_carry_the_path() {
        let doc = parse(r#"{"outer":{"xs":[1,"y"]},"n":-1}"#).unwrap();
        let err = field(&doc, "outer", |o| field(o, "xs", parse_f64_array)).unwrap_err();
        assert!(err.starts_with("outer: xs: "), "{err}");
        assert!(get_u64(&doc, "n").unwrap_err().contains("\"n\""));
        assert!(get_usize(&doc, "missing").unwrap_err().contains("missing"));
    }

    #[test]
    fn error_carries_offset() {
        let err = parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
