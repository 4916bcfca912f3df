//! Minimal JSON reading and writing.
//!
//! This replaces `serde`/`serde_json` for the workspace's config, workload,
//! and metrics structs. They are written: each type implements [`ToJson`]
//! (by hand, or via the [`impl_json_struct!`](crate::impl_json_struct) macro
//! for plain structs) and renders through the dynamic [`Json`] value. The one
//! document the workspace reads back, a fault plan, is decoded by hand
//! through [`FromJson`] and the [`Json::parse_field`] accessors.
//!
//! Conventions match what the previous `serde` derives produced:
//!
//! * structs → objects with the field names as keys;
//! * unit enum variants → the variant name as a string;
//! * data-carrying enum variants → `{"Variant": payload}` (external tagging).
//!
//! One deliberate extension: the writer emits — and the parser accepts — the
//! bare tokens `Infinity`, `-Infinity`, and `NaN`, so an `f64` holding a
//! non-finite value round-trips instead of being lost.

use std::collections::BTreeMap;
use std::fmt;

/// A dynamically-typed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent, within `i64` range.
    Int(i64),
    /// Any other number (including the `Infinity`/`NaN` extension tokens).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved, so writing is deterministic.
    Obj(Vec<(String, Json)>),
}

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> JsonError {
        JsonError { msg: msg.into() }
    }

    /// Prefixes the message with `context` (used to build field paths).
    pub fn context(self, context: &str) -> JsonError {
        JsonError {
            msg: format!("{context}: {}", self.msg),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Serialization into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

/// Deserialization from a [`Json`] value.
pub trait FromJson: Sized {
    /// Builds `Self` from a JSON value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render()
}

/// Parses `s` and converts it to `T`.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(s)?)
}

// ---------------------------------------------------------------------------
// Json value: constructors and typed accessors
// ---------------------------------------------------------------------------

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a field of an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required object field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// Parses a required object field into `T`.
    pub fn parse_field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        T::from_json(self.field(key)?).map_err(|e| e.context(&format!("field `{key}`")))
    }

    /// Parses an optional object field, substituting `default` when the key
    /// is absent or `null`.
    pub fn parse_field_or<T: FromJson>(&self, key: &str, default: T) -> Result<T, JsonError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(default),
            Some(v) => T::from_json(v).map_err(|e| e.context(&format!("field `{key}`"))),
        }
    }

    /// Numeric value as `f64` (accepts `Int` and `Float`).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::Float(f) => Ok(*f),
            other => Err(type_error("number", other)),
        }
    }

    /// Integer value as `i64` (accepts fraction-free `Float`s, e.g. `1.0`).
    pub fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9.2e18 => Ok(*f as i64),
            other => Err(type_error("integer", other)),
        }
    }

    /// Non-negative integer value as `u64`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let i = self.as_i64()?;
        u64::try_from(i).map_err(|_| JsonError::new(format!("expected unsigned integer, got {i}")))
    }

    /// String value.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_error("string", other)),
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_error("array", other)),
        }
    }

    /// Object fields.
    pub fn as_obj(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(type_error("object", other)),
        }
    }

    /// The name of this value's type, for error messages.
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

fn type_error(wanted: &str, got: &Json) -> JsonError {
    JsonError::new(format!("expected {wanted}, got {}", got.type_name()))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

impl Json {
    /// Renders as compact JSON (no whitespace). Object fields keep their
    /// insertion order, so equal values render to byte-identical strings.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders as indented JSON (2-space indent) for human consumption.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => write_float(*f, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_string(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_float(f: f64, out: &mut String) {
    if f.is_nan() {
        out.push_str("NaN");
    } else if f == f64::INFINITY {
        out.push_str("Infinity");
    } else if f == f64::NEG_INFINITY {
        out.push_str("-Infinity");
    } else {
        // `{}` prints the shortest string that round-trips the exact f64.
        out.push_str(&f.to_string());
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Nesting depth limit; prevents stack overflow on adversarial input.
const MAX_DEPTH: usize = 128;

impl Json {
    /// Parses a JSON document (one value plus surrounding whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// A recursive-descent parser over `text`. `pos` only ever advances past
/// ASCII bytes or whole characters, so it always sits on a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_word("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_word("null") => Ok(Json::Null),
            Some(b'N') if self.eat_word("NaN") => Ok(Json::Float(f64::NAN)),
            Some(b'I') if self.eat_word("Infinity") => Ok(Json::Float(f64::INFINITY)),
            Some(b'-') if self.text[self.pos..].starts_with("-Infinity") => {
                self.pos += "-Infinity".len();
                Ok(Json::Float(f64::NEG_INFINITY))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
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
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if !(self.eat(b'\\').is_ok() && self.eat(b'u').is_ok()) {
                                    return Err(self.error("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid unicode escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self.text[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.text.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let s = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::new(format!("invalid number `{text}` at byte {start}")))
    }
}

// ---------------------------------------------------------------------------
// ToJson for primitives and containers; FromJson for the numbers read back
// ---------------------------------------------------------------------------

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        // Counters in this workspace stay far below i64::MAX; saturate
        // rather than silently wrapping if one ever does not.
        Json::Int(i64::try_from(*self).unwrap_or(i64::MAX))
    }
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_u64()
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl FromJson for u32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u32::try_from(v.as_i64()?).map_err(|_| JsonError::new("integer out of u32 range"))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(i64::try_from(*self).unwrap_or(i64::MAX))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

/// Maps become objects; each key must encode as a JSON string (as enum
/// variant names do).
impl<K: ToJson, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::object(self.iter().map(|(k, v)| match k.to_json() {
            Json::Str(key) => (key, v.to_json()),
            other => (other.render(), v.to_json()),
        }))
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// Implements [`ToJson`] for a struct from one ordered field list; keys are
/// written in the listed order. A field marked `[omit_if PRED]` is left out
/// when `PRED(&self)` holds.
///
/// This is how the workspace keeps its published documents stable: a field
/// added later is omitted while inert, so older documents render unchanged.
///
/// ```
/// use mknn_util::impl_json_struct;
///
/// struct P { x: f64, hi: u32, tags: Vec<String> }
/// impl_json_struct!(P {
///     x,
///     hi [omit_if |p| p.hi == 1],
///     tags,
/// });
///
/// let p = P { x: 1.0, hi: 1, tags: vec![] };
/// assert_eq!(mknn_util::to_string(&p), r#"{"x":1,"tags":[]}"#);
/// let p = P { hi: 3, ..p };
/// assert_eq!(mknn_util::to_string(&p), r#"{"x":1,"hi":3,"tags":[]}"#);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    (@put $s:expr, $field:ident) => {
        Some((stringify!($field), $crate::json::ToJson::to_json(&$s.$field)))
    };
    (@put $s:expr, $field:ident omit_if $p:expr) => {{
        let omit: fn(&Self) -> bool = $p;
        match omit($s) {
            true => None,
            false => $crate::impl_json_struct!(@put $s, $field),
        }
    }};
    ($ty:ty { $($field:ident $([omit_if $p:expr])?),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let fields = [$($crate::impl_json_struct!(@put self, $field $(omit_if $p)?)),*];
                $crate::json::Json::object(fields.into_iter().flatten())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.render()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::Float(0.1),
            Json::Float(-1.5e-9),
            Json::Float(1e300),
            Json::Str("hello".into()),
            Json::Str("esc \" \\ \n \t \u{1} π 🚀".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "value {v:?}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 2^18 characters of ASCII and two-, three- and four-byte UTF-8. A
        // parser that re-validates the rest of the document per character
        // takes seconds here.
        let s: String = "aé€🚀".chars().cycle().take(1 << 18).collect();
        let doc = Json::Str(s).render();
        let start = std::time::Instant::now();
        let back = Json::parse(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(back.render(), doc);
        assert!(took.as_secs_f64() < 1.0, "parsing took {took:?}");
    }

    #[test]
    fn nonfinite_floats_round_trip() {
        assert_eq!(
            roundtrip(&Json::Float(f64::INFINITY)),
            Json::Float(f64::INFINITY)
        );
        assert_eq!(
            roundtrip(&Json::Float(f64::NEG_INFINITY)),
            Json::Float(f64::NEG_INFINITY)
        );
        match roundtrip(&Json::Float(f64::NAN)) {
            Json::Float(f) => assert!(f.is_nan()),
            other => panic!("expected NaN, got {other:?}"),
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::object([
            ("name", Json::Str("grid".into())),
            ("dims", Json::Arr(vec![Json::Int(3), Json::Int(4)])),
            (
                "nested",
                Json::object([("flag", Json::Bool(true)), ("opt", Json::Null)]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        assert_eq!(roundtrip(&v), v);
        // And via the pretty printer too.
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn integral_float_collapses_to_int_but_reads_back_as_f64() {
        // Display prints 1.0 as "1"; the typed accessor still returns 1.0.
        let parsed = Json::parse(&Json::Float(1.0).render()).unwrap();
        assert_eq!(parsed, Json::Int(1));
        assert_eq!(parsed.as_f64().unwrap(), 1.0);
    }

    #[test]
    fn parser_accepts_standard_json() {
        let v = Json::parse(r#" { "a" : [ 1 , 2.5 , "x" , null , true ] , "b" : {} } "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn parser_handles_escapes() {
        let v = Json::parse(r#""a\"b\\c\ndAé😀""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\ndAé😀".into()));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\":}",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "[1,]x",
            "nul",
            "+1",
        ] {
            assert!(Json::parse(bad).is_err(), "input {bad:?} should fail");
        }
    }

    #[test]
    fn parser_rejects_deep_nesting() {
        let s = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&s).is_err());
    }

    #[test]
    fn numbers_with_exponents_parse() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64().unwrap(), 1000.0);
        assert_eq!(Json::parse("-2.5E-2").unwrap().as_f64().unwrap(), -0.025);
        assert_eq!(
            Json::parse("12345678901234567890")
                .unwrap()
                .as_f64()
                .unwrap(),
            1.2345678901234567e19
        );
    }

    #[test]
    fn typed_numbers_round_trip() {
        assert_eq!(from_str::<u64>(&to_string(&900u64)).unwrap(), 900);
        assert_eq!(from_str::<u32>("7").unwrap(), 7);
        assert_eq!(from_str::<f64>("0.5").unwrap(), 0.5);
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<u64>("\"x\"").is_err());
    }

    struct Demo {
        a: u32,
        b: f64,
        tags: Vec<String>,
    }
    impl_json_struct!(Demo { a, b [omit_if |d| d.b == 0.0], tags });

    #[test]
    fn struct_macro_writes_listed_order_and_omits_inert_fields() {
        let mut d = Demo {
            a: 7,
            b: 2.5,
            tags: vec!["x".into()],
        };
        assert_eq!(to_string(&d), r#"{"a":7,"b":2.5,"tags":["x"]}"#);
        d.b = 0.0;
        assert_eq!(to_string(&d), r#"{"a":7,"tags":["x"]}"#);
    }

    #[test]
    fn field_parsers_carry_context_and_defaults() {
        let v = Json::parse(r#"{"a":"no","b":null}"#).unwrap();
        let err = v.parse_field::<u32>("a").unwrap_err();
        assert!(err.to_string().contains("field `a`"), "got: {err}");
        let err = v.parse_field::<u32>("c").unwrap_err();
        assert!(err.to_string().contains("missing field `c`"), "got: {err}");
        assert_eq!(v.parse_field_or("b", 4u32).unwrap(), 4);
        assert_eq!(v.parse_field_or("c", 5u32).unwrap(), 5);
        assert!(v.parse_field_or("a", 0u32).is_err());
    }

    #[test]
    fn rendering_is_deterministic() {
        let v = Json::object([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.render(), v.render());
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }
}
