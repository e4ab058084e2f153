//! Offline stand-in for `serde_json`, used by the benchmark build only.
//!
//! `tempi-trace` builds `Value`s with `json!` and prints them; the
//! benchmark harness also parses `BENCHMARK.json` and writes its span
//! files through this crate. Objects keep their keys sorted, like the
//! real crate's default `Map`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON number: integers keep their exact value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

/// A JSON object with sorted keys.
pub type Map<K, V> = BTreeMap<K, V>;

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::U(n)) => Some(*n as f64),
            Value::Number(Number::I(n)) => Some(*n as f64),
            Value::Number(Number::F(n)) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U(n)) => Some(*n),
            Value::Number(Number::I(n)) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member of an object, `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

macro_rules! from_int {
    ($variant:ident as $wide:ty: $($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(Number::$variant(n as $wide))
            }
        }
    )*};
}
from_int!(U as u64: u8, u16, u32, u64, usize);
from_int!(I as i64: i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(Number::F(n))
    }
}
impl From<f32> for Value {
    fn from(n: f32) -> Value {
        Value::Number(Number::F(n as f64))
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}
impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::String(s.clone())
    }
}
impl From<Map<String, Value>> for Value {
    fn from(m: Map<String, Value>) -> Value {
        Value::Object(m)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// What `json!` calls on an expression leaf. The real macro serialises
/// through `Serialize`; this one covers the leaf types in use.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}
impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}
impl ToJson for str {
    fn to_json(&self) -> Value {
        self.into()
    }
}
impl ToJson for String {
    fn to_json(&self) -> Value {
        self.into()
    }
}
impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}
macro_rules! to_json_copy {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                (*self).into()
            }
        }
    )*};
}
to_json_copy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

/// Build a [`Value`] from JSON-like syntax. Keys are string literals;
/// a value is a nested `{..}` / `[..]`, `null`, or any expression whose
/// type implements [`ToJson`].
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = $crate::Map::<String, $crate::Value>::new();
        $crate::json_members!(object; $($tt)*);
        $crate::Value::Object(object)
    }};
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut array = $crate::empty_array();
        $crate::json_elements!(array; $($tt)*);
        $crate::Value::Array(array)
    }};
    ($e:expr) => { $crate::ToJson::to_json(&$e) };
}

/// Where `json!([..])` starts (a function, so that the pushes the macro
/// expands to do not read as "use `vec![]`" to clippy at every call site).
#[doc(hidden)]
pub fn empty_array() -> Vec<Value> {
    Vec::new()
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_members {
    ($o:ident;) => {};
    ($o:ident; $k:literal : null $(, $($rest:tt)*)?) => {
        $o.insert($k.to_string(), $crate::Value::Null);
        $crate::json_members!($o; $($($rest)*)?);
    };
    ($o:ident; $k:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $o.insert($k.to_string(), $crate::json!({ $($inner)* }));
        $crate::json_members!($o; $($($rest)*)?);
    };
    ($o:ident; $k:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $o.insert($k.to_string(), $crate::json!([ $($inner)* ]));
        $crate::json_members!($o; $($($rest)*)?);
    };
    ($o:ident; $k:literal : $v:expr , $($rest:tt)*) => {
        $o.insert($k.to_string(), $crate::json!($v));
        $crate::json_members!($o; $($rest)*);
    };
    ($o:ident; $k:literal : $v:expr) => {
        $o.insert($k.to_string(), $crate::json!($v));
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_elements {
    ($a:ident;) => {};
    ($a:ident; null $(, $($rest:tt)*)?) => {
        $a.push($crate::Value::Null);
        $crate::json_elements!($a; $($($rest)*)?);
    };
    ($a:ident; { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $a.push($crate::json!({ $($inner)* }));
        $crate::json_elements!($a; $($($rest)*)?);
    };
    ($a:ident; [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $a.push($crate::json!([ $($inner)* ]));
        $crate::json_elements!($a; $($($rest)*)?);
    };
    ($a:ident; $v:expr , $($rest:tt)*) => {
        $a.push($crate::json!($v));
        $crate::json_elements!($a; $($rest)*);
    };
    ($a:ident; $v:expr) => {
        $a.push($crate::json!($v));
    };
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Compact JSON text. A non-finite float prints as `null`, as in the
/// real crate.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(Number::U(n)) => write!(f, "{n}"),
            Value::Number(Number::I(n)) => write!(f, "{n}"),
            Value::Number(Number::F(n)) if !n.is_finite() => f.write_str("null"),
            Value::Number(Number::F(n)) if n.fract() == 0.0 && n.abs() < 1e15 => {
                write!(f, "{n:.1}")
            }
            Value::Number(Number::F(n)) => write!(f, "{n}"),
            Value::String(s) => write_string(f, s),
            Value::Array(a) => {
                f.write_char('[')?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Value::Object(m) => {
                f.write_char('{')?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, k)?;
                    f.write_char(':')?;
                    write!(f, "{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Why [`from_str`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    at: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for Error {}

/// Nesting deeper than this is rejected instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, Error> {
        Err(Error {
            msg: msg.to_string(),
            at: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.src.get(self.pos) {
            None => self.err("unexpected end of input"),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut out = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Array(out));
                }
                loop {
                    out.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Array(out));
                    }
                    if !self.eat(",") {
                        return self.err("expected `,` or `]`");
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut out = Map::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Object(out));
                }
                loop {
                    self.skip_ws();
                    if self.src.get(self.pos) != Some(&b'"') {
                        return self.err("expected a string key");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return self.err("expected `:`");
                    }
                    out.insert(key, self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Object(out));
                    }
                    if !self.eat(",") {
                        return self.err("expected `,` or `}`");
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(
            self.src.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        let n = if let Ok(u) = text.parse::<u64>() {
            Number::U(u)
        } else if let Ok(i) = text.parse::<i64>() {
            Number::I(i)
        } else if let Ok(f) = text.parse::<f64>() {
            Number::F(f)
        } else {
            self.pos = start;
            return self.err("malformed number");
        };
        Ok(Value::Number(n))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.src.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            match std::str::from_utf8(&self.src[start..self.pos]) {
                Ok(s) => out.push_str(s),
                Err(_) => return self.err("invalid UTF-8 in string"),
            }
            match self.src.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let c = match self.src.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self.src.get(self.pos + 1..self.pos + 5);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match code.and_then(char::from_u32) {
                                Some(c) => {
                                    self.pos += 4;
                                    c
                                }
                                // surrogate pairs are not needed by any caller
                                None => return self.err("unsupported \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    };
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }
}

/// Parse one JSON document.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src: s.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values_from_expressions() {
        let pid = &3u32;
        let name = String::from("a\"b");
        let rows = vec![json!([1u64, 2u64]), json!(null)];
        let v = json!({
            "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": format!("rank {pid}"), "n": name},
            "rows": rows,
            "f": 0.5,
        });
        assert_eq!(
            v.to_string(),
            r#"{"args":{"n":"a\"b","name":"rank 3"},"f":0.5,"ph":"M","pid":3,"rows":[[1,2],null],"tid":0}"#
        );
    }

    #[test]
    fn print_then_parse_round_trips() {
        let v = json!({"a": [1u64, -2i64, 1.5, true, null], "s": "x\ny\u{1}", "o": {}});
        assert_eq!(from_str(&v.to_string()).unwrap(), v);
        assert_eq!(v["a"][1].as_f64(), Some(-2.0));
        assert_eq!(v["s"].as_str(), Some("x\ny\u{1}"));
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn floats_keep_a_fraction_and_non_finite_prints_null() {
        assert_eq!(json!(2.0).to_string(), "2.0");
        assert_eq!(json!(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"abc", "--"] {
            assert!(from_str(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(from_str(&deep).is_err());
    }
}
