//! A small, dependency-free JSON encoder/decoder.
//!
//! The workspace is hermetic (no external crates), so the serialisation the
//! experiment harness and reports need — plain data structs of integers,
//! floats, bools, strings, options and vectors — is provided here instead of
//! `serde`. The surface is deliberately tiny:
//!
//! * [`Json`] — a parsed JSON value (integers are kept exact in `u64`/`i64`
//!   rather than forced through `f64`).
//! * [`ToJson`] / [`FromJson`] — encode/decode traits with impls for the
//!   primitives plus `Option<T>`, `Vec<T>`, `VecDeque<T>` and `[T; N]`.
//! * [`Json::field`] — decodes one key of an object; the only way state
//!   decoders read a key.
//! * [`to_hex`] / [`from_hex`] — the encoding of raw byte payloads.
//! * [`impl_json_struct!`](crate::impl_json_struct) /
//!   [`impl_json_enum!`](crate::impl_json_enum) — one-line derives for
//!   field-for-field structs and unit-variant enums.
//!
//! Floats are rendered with Rust's shortest round-trip formatting, so
//! `encode → decode` reproduces every finite `f64` bit-exactly. Non-finite
//! floats have no JSON representation and encode as `null` (which fails to
//! decode as `f64` — by design, reports should never contain them).

use core::fmt;
use std::collections::VecDeque;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (kept exact).
    U64(u64),
    /// A negative integer literal (kept exact).
    I64(i64),
    /// A fractional or exponent-form number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A decode/parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong, with enough context to locate it.
    pub msg: String,
}

impl JsonError {
    fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decodes the value under `key` of an object.
    ///
    /// A missing key decodes like `null`, so an `Option` field reads `None`;
    /// for any other type a missing key is an error naming the key. A decode
    /// error is prefixed with the key.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| JsonError::new(format!("{key}: {}", e.msg))),
            None => {
                T::from_json(&Json::Null).map_err(|_| JsonError::new(format!("{key}: missing")))
            }
        }
    }

    /// The value under a key that must be present, for a nested state that
    /// is restored in place rather than decoded into a new value.
    pub fn required(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("{key}: missing")))
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::U64(v) => i64::try_from(v).ok(),
            Json::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `f64` if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
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
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    // Shortest round-trip formatting; force a fractional or
                    // exponent marker so the value re-parses as F64.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!("trailing input at byte {}", p.pos)));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Encodes bytes as lowercase hex: the JSON form of a raw byte payload.
pub fn to_hex(bytes: impl IntoIterator<Item = u8>) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let bytes = bytes.into_iter();
    let mut out = String::with_capacity(2 * bytes.size_hint().0);
    for b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    out
}

/// Decodes text written by [`to_hex`].
pub fn from_hex(text: &str) -> Result<Vec<u8>, JsonError> {
    let digit = |c: u8| match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err(JsonError::new(format!("bad hex digit '{}'", c as char))),
    };
    let pairs = text.as_bytes().chunks_exact(2);
    if !pairs.remainder().is_empty() {
        return Err(JsonError::new("hex payload has odd length"));
    }
    pairs
        .map(|p| Ok(digit(p[0])? << 4 | digit(p[1])?))
        .collect()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(JsonError::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(JsonError::new("unexpected end of input")),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(JsonError::new(format!(
                "unexpected byte '{}' at {}",
                b as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or ']' at {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or '}}' at {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require the low half.
                                if !self.eat_literal("\\u") {
                                    return Err(JsonError::new("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(JsonError::new("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                                    .ok_or_else(|| JsonError::new("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| JsonError::new("invalid \\u escape"))?
                            };
                            s.push(c);
                            continue; // hex4 consumed its digits already
                        }
                        _ => return Err(JsonError::new(format!("bad escape at {}", self.pos))),
                    }
                    self.pos += 1;
                }
                _ => return Err(JsonError::new("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
        let cp = u32::from_str_radix(digits, 16)
            .map_err(|_| JsonError::new(format!("bad \\u digits '{digits}'")))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if !fractional {
            if neg {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError::new(format!("bad number '{text}'")))
    }
}

// ---------------------------------------------------------------------------
// Encode/decode traits.
// ---------------------------------------------------------------------------

/// Types that encode to a [`Json`] value.
pub trait ToJson {
    /// Encodes `self`.
    fn to_json(&self) -> Json;

    /// Encodes `self` as compact JSON text.
    fn to_json_string(&self) -> String {
        self.to_json().render()
    }
}

/// Types that decode from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes a value, with a descriptive error on shape mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Parses and decodes in one step.
    fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = v
                    .as_u64()
                    .ok_or_else(|| JsonError::new(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(raw)
                    .map_err(|_| JsonError::new(concat!(stringify!($t), " out of range")))
            }
        }
    )+};
}

impl_json_uint!(u8, u16, u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        if *self >= 0 {
            Json::U64(*self as u64)
        } else {
            Json::I64(*self)
        }
    }
}

impl FromJson for i64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_i64().ok_or_else(|| JsonError::new("expected i64"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::new("expected number"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::new("expected bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
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

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for VecDeque<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for VecDeque<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Vec::from_json(v).map(VecDeque::from)
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Vec::from_json(v)?
            .try_into()
            .map_err(|_| JsonError::new(format!("expected an array of {N}")))
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct, field for field.
///
/// ```
/// use pdr_sim_core::impl_json_struct;
/// use pdr_sim_core::json::{FromJson, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u64, y: Option<f64> }
/// impl_json_struct!(Point { x, y });
///
/// let p = Point { x: 3, y: None };
/// assert_eq!(Point::from_json_str(&p.to_json_string()).unwrap(), p);
/// ```
///
/// Decoding treats a *missing* key like `null`, so `Option` fields tolerate
/// both old and new encoders.
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($ty {
                    $($field: v.field(stringify!($field)).map_err(|e| $crate::json::JsonError {
                        msg: format!("{}.{}", stringify!($ty), e.msg),
                    })?,)+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a unit-variant enum as its variant
/// name string.
///
/// ```
/// use pdr_sim_core::impl_json_enum;
/// use pdr_sim_core::json::{FromJson, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// enum Mode { Fast, Safe }
/// impl_json_enum!(Mode { Fast, Safe });
///
/// assert_eq!(Mode::Fast.to_json_string(), "\"Fast\"");
/// assert_eq!(Mode::from_json_str("\"Safe\"").unwrap(), Mode::Safe);
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $($ty::$variant => stringify!($variant),)+
                };
                $crate::json::Json::Str(name.to_string())
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    Some(other) => Err($crate::json::JsonError {
                        msg: format!(
                            "unknown {} variant '{other}'",
                            stringify!($ty)
                        ),
                    }),
                    None => Err($crate::json::JsonError {
                        msg: format!("expected {} variant string", stringify!($ty)),
                    }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "18446744073709551615", "-42"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn u64_precision_is_exact() {
        let v = Json::parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn f64_shortest_repr_roundtrips() {
        for x in [
            0.1,
            1.0 / 3.0,
            781.9526627218935,
            f64::MIN_POSITIVE,
            -2.5e-300,
        ] {
            let text = Json::F64(x).render();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn integral_f64_keeps_a_float_marker() {
        assert_eq!(Json::F64(4.0).render(), "4.0");
        assert!(Json::parse("4.0").unwrap().as_f64() == Some(4.0));
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a \"quoted\" line\nwith\ttabs \\ and unicode: µ ☃".to_string();
        let text = s.to_json_string();
        assert_eq!(String::from_json_str(&text).unwrap(), s);
        // Escapes parse too.
        assert_eq!(String::from_json_str(r#""☃ 😀""#).unwrap(), "☃ 😀");
    }

    #[test]
    fn arrays_and_objects_roundtrip() {
        let text = r#"{"a":[1,2.5,null],"b":{"c":true},"d":"x"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).unwrap(),
            &Json::Bool(true)
        );
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.render(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in ["", "{", "[1,", "\"unterminated", "tru", "01x", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(Json::parse("[1] trailing").is_err());
    }

    #[test]
    fn option_and_vec_decode() {
        assert_eq!(Option::<u64>::from_json_str("null").unwrap(), None);
        assert_eq!(Option::<u64>::from_json_str("7").unwrap(), Some(7));
        assert_eq!(
            Vec::<bool>::from_json_str("[true,false]").unwrap(),
            vec![true, false]
        );
        assert!(u32::from_json_str("4294967296").is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        id: u64,
        score: Option<f64>,
        tag: String,
        flags: Vec<bool>,
    }
    impl_json_struct!(Sample {
        id,
        score,
        tag,
        flags
    });

    #[derive(Debug, PartialEq)]
    enum Level {
        Low,
        High,
    }
    impl_json_enum!(Level { Low, High });

    #[test]
    fn derived_struct_roundtrips() {
        let s = Sample {
            id: 280,
            score: Some(790.25),
            tag: "knee".into(),
            flags: vec![true, false],
        };
        let text = s.to_json_string();
        assert_eq!(
            text,
            r#"{"id":280,"score":790.25,"tag":"knee","flags":[true,false]}"#
        );
        assert_eq!(Sample::from_json_str(&text).unwrap(), s);
        // Missing Option key decodes as None.
        let partial = Sample::from_json_str(r#"{"id":1,"tag":"x","flags":[]}"#).unwrap();
        assert_eq!(partial.score, None);
    }

    #[test]
    fn derived_enum_roundtrips_and_rejects_unknown() {
        assert_eq!(Level::from_json_str("\"Low\"").unwrap(), Level::Low);
        assert_eq!(Level::High.to_json_string(), "\"High\"");
        assert!(Level::from_json_str("\"Mid\"").is_err());
    }

    #[test]
    fn field_names_the_key() {
        let v = Json::parse(r#"{"a":1,"s":"x"}"#).unwrap();
        assert_eq!(v.field::<u64>("a").unwrap(), 1);
        assert_eq!(v.field::<Option<u64>>("b").unwrap(), None);
        assert_eq!(v.field::<u64>("b").unwrap_err().msg, "b: missing");
        assert_eq!(v.field::<u64>("s").unwrap_err().msg, "s: expected u64");
        assert_eq!(v.required("b").unwrap_err().msg, "b: missing");
        assert!(<[u8; 2]>::from_json_str("[1,2,3]").is_err());
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        assert_eq!(to_hex([0x00, 0xab, 0x7f]), "00ab7f");
        assert_eq!(from_hex("00AB7f").unwrap(), vec![0x00, 0xab, 0x7f]);
        for bad in ["0", "0g", "+f", "µµ"] {
            assert!(from_hex(bad).is_err(), "{bad:?} should not decode");
        }
    }

    #[test]
    fn field_errors_name_the_path() {
        let err = Sample::from_json_str(r#"{"id":"oops","tag":"x","flags":[]}"#).unwrap_err();
        assert!(err.msg.contains("Sample.id"), "{}", err.msg);
    }
}
