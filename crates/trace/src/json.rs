//! The workspace's one JSON writer and its parser.
//!
//! The workspace is offline (no serde). Every JSON document the system
//! emits goes through [`Writer`], which owns the only string escape
//! ([`escape`]), comma placement, and number rendering: durations as
//! saturating integer microseconds, non-finite floats as `null`.
//!
//! [`parse`] reads standard JSON back (escapes include UTF-16 surrogate
//! pairs) and rejects trailing garbage. It also reads untrusted `/facts`
//! bodies, so nesting past [`MAX_DEPTH`] is an error rather than a stack
//! overflow. Numbers are kept as `f64`; key order is not preserved.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::time::Duration;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup, `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Appends `s` to `out` escaped for a JSON string literal: quotes,
/// backslashes and control characters below U+0020; everything else
/// passes through as UTF-8.
pub fn escape(mut s: &str, out: &mut String) {
    while let Some(i) = s.bytes().position(|b| b < 0x20 || b == b'"' || b == b'\\') {
        // The byte at `i` is ASCII, so both slices are whole UTF-8.
        out.push_str(&s[..i]);
        match s.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        s = &s[i + 1..];
    }
    out.push_str(s);
}

/// A value the [`Writer`] can write.
pub trait ToJson {
    /// Writes `self` as one JSON value.
    fn write_json(&self, w: &mut Writer);
}

/// Renders one value to a string.
pub fn render<T: ToJson + ?Sized>(value: &T) -> String {
    let mut w = Writer::default();
    value.write_json(&mut w);
    w.out
}

/// Renders one object whose members `f` writes.
pub fn object(f: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    w.object(f);
    w.out
}

/// A streaming JSON writer that places the commas itself.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Nothing written yet at this position (just after `{`, `[` or a key).
    fresh: bool,
}

impl Writer {
    /// Starts a value, after a comma unless it is the first in place.
    fn start(&mut self) -> &mut String {
        if !self.fresh && !self.out.is_empty() {
            self.out.push(',');
        }
        self.fresh = false;
        &mut self.out
    }

    fn scalar(&mut self, v: impl fmt::Display) {
        let _ = write!(self.start(), "{v}");
    }

    /// Unsigned integers bypass `fmt`: they are most of every document.
    fn uint(&mut self, mut n: u64) {
        let (mut digits, mut at) = ([0u8; 20], 20);
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        let out = self.start();
        digits[at..].iter().for_each(|&d| out.push(char::from(d)));
    }

    fn wrap(&mut self, open: char, close: char, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.start().push(open);
        self.fresh = true;
        f(self);
        self.out.push(close);
        self.fresh = false;
        self
    }

    /// Writes an object whose members `f` writes.
    pub fn object(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.wrap('{', '}', f)
    }

    /// Writes an array whose elements `f` writes.
    pub fn array(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.wrap('[', ']', f)
    }

    /// Writes a member key; the next value written is the member's value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        key.write_json(self);
        self.out.push(':');
        self.fresh = true;
        self
    }

    /// Writes one object member.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        let out = w.start();
        out.push('"');
        escape(self, out);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        self.as_str().write_json(w);
    }
}

macro_rules! unsigned_scalars {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.uint(*self as u64);
            }
        }
    )*};
}
unsigned_scalars!(u16, u32, u64, usize);

impl ToJson for bool {
    fn write_json(&self, w: &mut Writer) {
        w.start().push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for i64 {
    fn write_json(&self, w: &mut Writer) {
        w.scalar(self);
    }
}

/// Non-finite values have no JSON form and render as `null`.
impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        if self.is_finite() {
            w.scalar(self)
        } else {
            w.scalar("null")
        }
    }
}

/// Integer microseconds, saturating at `u64::MAX`.
impl ToJson for Duration {
    fn write_json(&self, w: &mut Writer) {
        w.uint(u64::try_from(self.as_micros()).unwrap_or(u64::MAX));
    }
}

/// `None` renders as `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.scalar("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        w.array(|w| self.iter().for_each(|item| item.write_json(w)));
    }
}

/// Deepest array/object nesting [`parse`] accepts: the parser recurses
/// once per level, so this bounds its stack on hostile input.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos.saturating_sub(1),
                got.map(|g| g as char)
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.items(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    map.insert(key, p.value()?);
                    Ok(())
                })?;
                Ok(Value::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| p.value().map(|v| items.push(v)))?;
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    /// Reads the comma-separated items of the array or object opening at
    /// `pos`, up to its `close` byte, each through `item`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => {}
                    Some(c) if c == close => break,
                    other => {
                        let close = close as char;
                        return Err(format!("expected ',' or {close:?}, got {other:?}"));
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy through the next quote, backslash or control byte: all
            // ASCII, so the run is whole UTF-8.
            let run = self.src[self.pos..]
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .ok_or("unterminated string")?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = self.hex4()?;
                        // A high surrogate and an escaped low one form one
                        // UTF-16 pair: how `\u` spells non-BMP characters.
                        if (0xd800..0xdc00).contains(&code)
                            && self.src[self.pos..].starts_with("\\u")
                        {
                            self.pos += 2;
                            match self.hex4()? {
                                low @ 0xdc00..=0xdfff => {
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                                }
                                _ => self.pos -= 6,
                            }
                        }
                        // A lone surrogate has no scalar value.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                _ => return Err("raw control character in string".into()),
            }
        }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        (0..4).try_fold(0, |code, _| {
            let digit = self.bump().and_then(|b| (b as char).to_digit(16));
            digit.map(|d| code * 16 + d).ok_or("bad \\u escape".into())
        })
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        self.digits();
        if self.eat(b'.') {
            self.digits();
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits();
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_events_and_round_trips_escapes() {
        let v = parse(
            "{\"event\":\"tuple_inserted\",\"t_us\":42,\"pred\":\"p\\\"q\",\
             \"sources\":[{\"pred\":\"e\",\"tuple\":\"(2n)\"}],\"neg\":-1.5e2}",
        )
        .unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("tuple_inserted"));
        assert_eq!(v.get("t_us").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("pred").unwrap().as_str(), Some("p\"q"));
        assert_eq!(v.get("neg").unwrap().as_f64(), Some(-150.0));
        let sources = v.get("sources").unwrap().as_array().unwrap();
        assert_eq!(sources[0].get("tuple").unwrap().as_str(), Some("(2n)"));
    }

    #[test]
    fn parses_unicode_text() {
        let v = parse("{\"label\":\"45.6µs → done\"}").unwrap();
        assert_eq!(v.get("label").unwrap().as_str(), Some("45.6µs → done"));
        let v = parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01x").is_err());
    }

    #[test]
    fn accepts_all_scalar_kinds() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse(" [ ] ").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(Default::default()));
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut out = String::new();
        escape("a\"b\\c\nd\te\u{1}\u{1f}é😀", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001\\u001fé😀");
    }

    #[test]
    fn writer_places_commas_and_renders_numbers() {
        let json = object(|w| {
            w.field("s", "x\"y")
                .field("n", 7u64)
                .field("neg", -3i64)
                .field("yes", true)
                .field("none", None::<u64>)
                .field("f", 0.25)
                .field("nan", f64::NAN)
                .field("inf", f64::NEG_INFINITY)
                .field("us", Duration::from_nanos(1_999))
                .field("max", Duration::MAX)
                .field("list", vec!["a", "b"])
                .field("empty", Vec::<u64>::new());
            w.key("nested").object(|w| {
                w.key("rows").array(|w| {
                    w.object(|_| {});
                    1u64.write_json(w);
                    w.array(|_| {});
                });
            });
        });
        assert_eq!(
            json,
            "{\"s\":\"x\\\"y\",\"n\":7,\"neg\":-3,\"yes\":true,\"none\":null,\"f\":0.25,\
             \"nan\":null,\"inf\":null,\"us\":1,\"max\":18446744073709551615,\
             \"list\":[\"a\",\"b\"],\"empty\":[],\"nested\":{\"rows\":[{},1,[]]}}"
        );
        assert_eq!(render(&1e21), "1000000000000000000000");
        assert!(parse(&json).is_ok());
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_one_character() {
        // Python's `json.dumps("😀")` spelling.
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
        assert_eq!(parse("\"\\uD83D\\uDE00!\"").unwrap().as_str(), Some("😀!"));
        // Lone or mismatched surrogates still decode to U+FFFD, and the
        // escape after an unpaired high surrogate is kept.
        assert_eq!(parse("\"\\ud83d\"").unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(
            parse("\"\\ud83d\\u0041\"").unwrap().as_str(),
            Some("\u{fffd}A")
        );
        assert_eq!(parse("\"\\ude00\"").unwrap().as_str(), Some("\u{fffd}"));
        assert!(parse("\"\\ud83d\\uzz\"").is_err());
    }

    #[test]
    fn nesting_is_capped_without_exhausting_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // Unclosed and hostile: a `/facts` body an attacker could send.
        // Run on a thread with the default stack, like a serve worker.
        let hostile = format!("{{\"facts\":{}", "[".repeat(100_000));
        let err = std::thread::spawn(move || parse(&hostile))
            .join()
            .expect("parser thread survives")
            .unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }
}
