//! The workspace's JSON: one [`Value`] tree, a compact and a pretty writer,
//! a parser, and the [`ToJson`] / [`FromJson`] pair the few persisted
//! types implement by hand.
//!
//! The text format is pinned by committed files this module did not
//! first write (`BENCH_*.json` and the chaos corpus, from the registry
//! crate it replaced): objects keep the order
//! their fields were pushed in, floats print their shortest round-trip
//! digits in ryu's layout (`2.0`, `1e-7`, never `0.0000001`), and
//! [`Value::pretty`] indents by two spaces. `tests/json_artifacts.rs`
//! re-emits every committed file byte for byte.

use std::fmt;

/// Any JSON value. Integers keep their exact value; an object is its
/// members in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: `(key, value)` members, in order, keys unique.
    Object(Vec<(String, Value)>),
}

/// Why a document did not parse, or a value did not have the shape a
/// [`FromJson`] type needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

static NULL: Value = Value::Null;

impl Value {
    /// An object of `members`, in the order given.
    pub fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
        Value::Object(members.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Any number, as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(n) => Some(n),
            _ => None,
        }
    }

    /// An integer, exactly (`None` for floats, even integral ones).
    fn as_i128(&self) -> Option<i128> {
        match *self {
            Value::U64(n) => Some(n.into()),
            Value::I64(n) => Some(n.into()),
            _ => None,
        }
    }

    /// A non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|n| n.try_into().ok())
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Member `key` of an object; `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Is this a non-negative integer?
    pub fn is_u64(&self) -> bool {
        self.as_u64().is_some()
    }

    /// Is this a string?
    pub fn is_string(&self) -> bool {
        self.as_str().is_some()
    }

    /// Is this a number of any kind?
    pub fn is_number(&self) -> bool {
        self.as_f64().is_some()
    }

    /// Required field `key` of an object, converted.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, Error> {
        match (self, self.get(key)) {
            (Value::Object(_), Some(v)) => {
                T::from_json(v).map_err(|e| Error(format!("field `{key}`: {e}")))
            }
            (Value::Object(_), None) => Err(Error(format!("missing field `{key}`"))),
            _ => Err(expected("an object", self)),
        }
    }

    /// Field `key` of an object, converted; a missing key reads as the
    /// type's default (`None` for an `Option`).
    pub fn field_or_default<T: FromJson + Default>(&self, key: &str) -> Result<T, Error> {
        match (self, self.get(key)) {
            (Value::Object(_), None) => Ok(T::default()),
            _ => self.field(key),
        }
    }

    /// An externally tagged enum value: `"Unit"` reads as `("Unit", null)`,
    /// `{"Tag": body}` as `("Tag", body)`.
    pub fn variant(&self) -> Result<(&str, &Value), Error> {
        match self {
            Value::String(tag) => Ok((tag, &NULL)),
            Value::Object(m) if m.len() == 1 => Ok((&m[0].0, &m[0].1)),
            _ => Err(expected("a variant (a string or a one-key object)", self)),
        }
    }

    /// Compact JSON text, written once (what `Display` prints).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None);
        out
    }

    /// Indented JSON text: two spaces per level, one member per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(0));
        out
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// `null` for a missing key or a non-object.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    /// `null` past the end or on a non-array.
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}
impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other)
    }
}
impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

// ---- conversions ---------------------------------------------------------

/// A type with a JSON form.
pub trait ToJson {
    /// This value as a [`Value`] tree.
    fn to_json(&self) -> Value;
}

/// A type that can be read back from its JSON form.
pub trait FromJson: Sized {
    /// Read `v`, or say which part of it has the wrong shape.
    fn from_json(v: &Value) -> Result<Self, Error>;
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                if (*self as i128) < 0 {
                    Value::I64(*self as i64)
                } else {
                    Value::U64(*self as u64)
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<$t, Error> {
                let n = v.as_i128().and_then(|n| n.try_into().ok());
                n.ok_or_else(|| expected(concat!("a ", stringify!($t)), v))
            }
        }
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_i128() == Some(*other as i128)
            }
        }
    )*};
}
int_json!(u8, u16, u32, u64, usize, i32, i64);

fn expected(what: &str, found: &Value) -> Error {
    Error(format!("expected {what}, found {found}"))
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::F64(*self)
    }
}
impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<f64, Error> {
        v.as_f64().ok_or_else(|| expected("a number", v))
    }
}
impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json(v: &Value) -> Result<bool, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(expected("a boolean", v)),
        }
    }
}
impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}
impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}
impl FromJson for String {
    fn from_json(v: &Value) -> Result<String, Error> {
        let s = v.as_str().ok_or_else(|| expected("a string", v))?;
        Ok(s.to_string())
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
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Vec<T>, Error> {
        let items = v.as_array().ok_or_else(|| expected("an array", v))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| Error(format!("[{i}]: {e}"))))
            .collect()
    }
}
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Option<T>, Error> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

/// Parse `text` and read it as a `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&parse(text)?)
}

// ---- writer --------------------------------------------------------------

fn write_string(out: &mut String, s: &str) {
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Shortest round-trip digits, laid out as ryu does: plain decimals while
/// the decimal point falls within 16 digits after or 5 zeros before the
/// first digit, scientific notation otherwise, always with a fraction or
/// an exponent. A non-finite float prints as `null`.
fn write_f64(out: &mut String, n: f64) {
    if !n.is_finite() {
        return out.push_str("null");
    }
    // `{:e}` prints the shortest digits that round-trip: `-1.234e-7`.
    let sci = format!("{n:e}");
    let (mantissa, exp) = sci.split_once('e').expect("`{:e}` prints an exponent");
    let exp: i32 = exp.parse().expect("`{:e}` prints a decimal exponent");
    if n.is_sign_negative() {
        out.push('-');
    }
    let digits: String = mantissa.chars().filter(char::is_ascii_digit).collect();
    let len = digits.len() as i32;
    // the decimal point sits after `point` digits
    let point = exp + 1;
    let zeros = |n: i32| "0".repeat(n as usize);
    if len <= point && point <= 16 {
        out.push_str(&(digits + &zeros(point - len) + ".0"));
    } else if 0 < point && point <= 16 {
        let (int, frac) = digits.split_at(point as usize);
        out.push_str(&format!("{int}.{frac}"));
    } else if -5 < point && point <= 0 {
        out.push_str(&("0.".to_string() + &zeros(-point) + &digits));
    } else {
        let (first, rest) = digits.split_at(1);
        let dot = if rest.is_empty() { "" } else { "." };
        out.push_str(&format!("{first}{dot}{rest}e{exp}"));
    }
}

/// A line break and `depth` levels of indentation — when pretty-printing.
fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(d) = depth {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
}

/// The brackets, commas and line breaks around `len` members, each
/// written by `member(out, index, depth inside)`.
fn write_members(
    out: &mut String,
    brackets: [char; 2],
    len: usize,
    indent: Option<usize>,
    mut member: impl FnMut(&mut String, usize, Option<usize>),
) {
    let inner = indent.map(|d| d + 1);
    out.push(brackets[0]);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        member(out, i, inner);
    }
    if len > 0 {
        newline(out, indent);
    }
    out.push(brackets[1]);
}

/// Write `v`; `indent` is the current depth when pretty-printing, `None`
/// for compact text.
fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(n) => write_f64(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(a) => write_members(out, ['[', ']'], a.len(), indent, |out, i, inner| {
            write_value(out, &a[i], inner)
        }),
        Value::Object(m) => write_members(out, ['{', '}'], m.len(), indent, |out, i, inner| {
            write_string(out, &m[i].0);
            out.push_str(if inner.is_some() { ": " } else { ":" });
            write_value(out, &m[i].1, inner);
        }),
    }
}

/// Compact JSON text.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.compact())
    }
}

// ---- parser --------------------------------------------------------------

/// Nesting deeper than this is rejected instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, Error> {
        Err(Error(format!("{msg} at byte {}", self.pos)))
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.src[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    /// The comma-separated members of an array or object, the cursor on
    /// its opening bracket; `member` reads one, leading whitespace skipped.
    fn members(
        &mut self,
        close: &str,
        mut member: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            member(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(",") {
                return self.err("expected `,` or a closing bracket");
            }
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
                let mut out = Vec::new();
                self.members("]", |p| p.value(depth + 1).map(|v| out.push(v)))?;
                Ok(Value::Array(out))
            }
            Some(b'{') => {
                let mut out: Vec<(String, Value)> = Vec::new();
                self.members("}", |p| {
                    if p.src.get(p.pos) != Some(&b'"') {
                        return p.err("expected a string key");
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(":") {
                        return p.err("expected `:`");
                    }
                    let v = p.value(depth + 1)?;
                    // a repeated key keeps its first position and last value
                    match out.iter_mut().find(|(k, _)| *k == key) {
                        Some(slot) => slot.1 = v,
                        None => out.push((key, v)),
                    }
                    Ok(())
                })?;
                Ok(Value::Object(out))
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
        if let Ok(n) = text.parse() {
            Ok(Value::U64(n))
        } else if let Ok(n) = text.parse() {
            Ok(Value::I64(n))
        } else if let Ok(n) = text.parse() {
            Ok(Value::F64(n))
        } else {
            self.pos = start;
            self.err("malformed number")
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.src.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // the source is a `&str` and the run ends before an ASCII byte
            out.push_str(std::str::from_utf8(&self.src[start..self.pos]).expect("valid UTF-8"));
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
                            let code = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            // a surrogate half is not a character: pairs
                            // (escaped non-BMP text) are not supported
                            match code.and_then(char::from_u32) {
                                Some(c) => {
                                    self.pos += 4;
                                    c
                                }
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
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src: text.as_bytes(),
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
    fn objects_keep_insertion_order_and_print_compact_or_pretty() {
        let v = Value::object([
            ("ph", "M".to_json()),
            ("args", Value::object([("name", "a\"b".to_json())])),
            ("rows", vec![1u64, 2].to_json()),
            ("none", Value::Array(Vec::new())),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"ph":"M","args":{"name":"a\"b"},"rows":[1,2],"none":[]}"#
        );
        let pretty = "{\n  \"ph\": \"M\",\n  \"args\": {\n    \"name\": \"a\\\"b\"\n  },\n  \
                      \"rows\": [\n    1,\n    2\n  ],\n  \"none\": []\n}";
        assert_eq!(v.pretty(), pretty);
        assert_eq!(parse(pretty).unwrap(), v);
    }

    #[test]
    fn floats_print_like_ryu() {
        for (n, text) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (2.0, "2.0"),
            (0.5, "0.5"),
            (-1.5, "-1.5"),
            (35978.806, "35978.806"),
            (3.924728019045435, "3.924728019045435"),
            (96.58628399999999, "96.58628399999999"),
            (1e-7, "1e-7"),
            (1.5e-7, "1.5e-7"),
            (0.00001, "0.00001"),
            (0.000001, "1e-6"),
            (1e15, "1000000000000000.0"),
            (1e16, "1e16"),
            (1.2345e20, "1.2345e20"),
            (123456789012345680.0, "1.2345678901234568e17"),
            (f64::MAX, "1.7976931348623157e308"),
            (5e-324, "5e-324"),
        ] {
            assert_eq!(Value::F64(n).to_string(), text);
            assert_eq!(parse(text).unwrap().as_f64(), Some(n), "{text}");
        }
        assert_eq!(Value::F64(f64::NAN).to_string(), "null");
        assert_eq!(Value::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn print_then_parse_round_trips() {
        let v = Value::object([
            (
                "a",
                Value::Array(vec![
                    Value::U64(1),
                    Value::I64(-2),
                    Value::F64(1.5),
                    Value::Bool(true),
                    Value::Null,
                ]),
            ),
            ("s", "x\ny\u{1}\u{8}\u{c}é😀".to_json()),
            ("o", Value::object([])),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(v["a"][1].as_f64(), Some(-2.0));
        assert_eq!(v["a"][1], -2);
        assert_eq!(v["a"][0], 1u64);
        assert_eq!(v["s"].as_str(), Some("x\ny\u{1}\u{8}\u{c}é😀"));
        assert_eq!(v["missing"], Value::Null);
        assert_eq!(v["a"][9], Value::Null);
        assert_eq!(parse(r#""\u00e9 \/""#).unwrap(), "é /");
        assert_eq!(
            parse(r#"{"k": 1, "k": 2}"#).unwrap().to_string(),
            r#"{"k":2}"#
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "\"abc",
            "--",
            "\"\\ud83d\\ude00\"",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(parse(&"[".repeat(MAX_DEPTH + 2)).is_err());
    }

    #[test]
    fn typed_reads_name_the_field_that_failed() {
        let v =
            parse(r#"{"n": 3, "xs": [1, -1], "tag": {"Exit": {"rank": 1}}, "opt": null}"#).unwrap();
        assert_eq!(v.field::<u32>("n").unwrap(), 3);
        assert_eq!(v.field_or_default::<u64>("absent").unwrap(), 0);
        assert_eq!(v.field_or_default::<Option<u64>>("absent").unwrap(), None);
        assert_eq!(v.field::<Option<u64>>("opt").unwrap(), None);
        assert_eq!(v.field::<Vec<i64>>("xs").unwrap(), vec![1, -1]);
        let e = v.field::<Vec<u64>>("xs").unwrap_err().to_string();
        assert!(e.contains("field `xs`: [1]: expected a u64"), "{e}");
        let e = v.field::<u64>("absent").unwrap_err().to_string();
        assert!(e.contains("missing field `absent`"), "{e}");
        assert!(v["n"].field::<u64>("x").is_err(), "not an object");
        assert!(u8::from_json(&Value::U64(256)).is_err());
        assert_eq!(f64::from_json(&Value::U64(2)).unwrap(), 2.0);
        let (tag, body) = v["tag"].variant().unwrap();
        assert_eq!((tag, body.field::<usize>("rank").unwrap()), ("Exit", 1));
        assert_eq!(parse("\"Unit\"").unwrap().variant().unwrap().0, "Unit");
        assert!(v["xs"].variant().is_err());
        assert_eq!(from_str::<Vec<u64>>("[1, 2]").unwrap(), vec![1, 2]);
        assert_eq!(Some(1.0).to_json().to_string(), "1.0");
    }
}
