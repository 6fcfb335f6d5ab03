//! JSON export of result data — self-contained, no external dependencies.
//!
//! Experiment binaries persist campaign and sampling results as JSON
//! artifacts so EXPERIMENTS.md numbers are reproducible and diffable. The
//! writer lives in-tree so the export path works in hermetic builds; the
//! output format matches the former `serde_json` pretty printer (2-space
//! indent, `"key": value`), keeping existing artifacts diffable.
//!
//! Three layers:
//!
//! * [`JsonWriter`] and [`ToJson`] — the one printer. Every exportable
//!   type writes itself straight into the writer's output string; no
//!   intermediate value tree is built, so exporting a campaign costs one
//!   growing `String` rather than a heap object per experiment field;
//! * [`Json`] — a plain JSON value tree for the *reading* side: a small
//!   parser plus accessors, for tests and for consumers that inspect
//!   artifacts without a full deserialization framework. It prints
//!   through the same writer ([`Json::pretty`]);
//! * [`to_json`] / [`write_json`] — the entry points the CLI and the
//!   bench binaries use.

use sofi_campaign::{
    BurstSampledResult, CampaignResult, ExecutorStats, ExperimentResult, FaultDomain, Outcome,
    SampledOutcome, SampledResult, SamplingMode,
};
use sofi_machine::Trap;
use sofi_metrics::{Comparison, FailureEstimate, Table1Row};
use sofi_space::{Experiment, FaultCoord, FaultSpace};
use sofi_telemetry::{Bucket, HistogramSnapshot, Snapshot};
use std::fmt::{self, Write as _};

/// Serializes any exportable structure to pretty-printed JSON.
///
/// # Examples
///
/// ```
/// use sofi_space::FaultSpace;
/// let json = sofi_report::to_json(&FaultSpace::new(8, 16));
/// assert!(json.contains("\"cycles\": 8"));
/// ```
pub fn to_json<T: ToJson + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter {
        out: String::new(),
        depth: 0,
        empty: false,
    };
    value.write_json(&mut w);
    w.out
}

/// Serializes to a writer (e.g. a results file).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_json<T: ToJson + ?Sized, W: std::io::Write>(
    value: &T,
    mut writer: W,
) -> std::io::Result<()> {
    writer.write_all(to_json(value).as_bytes())
}

/// The streaming pretty-printer every [`ToJson`] implementation writes
/// into.
///
/// It appends to one `String` and owns the layout: 2-space indentation,
/// `"key": value` members, `[]`/`{}` for empty containers. Containers are
/// opened with [`JsonWriter::object`] / [`JsonWriter::array`], whose
/// bodies emit members with [`JsonWriter::field`] (a static key, written
/// raw), [`JsonWriter::entry`] (a runtime key, escaped) or
/// [`JsonWriter::item`]. Scalars go straight to the output.
///
/// ```
/// use sofi_report::{JsonWriter, ToJson};
/// struct Row { cycles: u64, bits: [u8; 2] }
/// impl ToJson for Row {
///     fn write_json(&self, w: &mut JsonWriter) {
///         w.object(|w| {
///             w.field("cycles", &self.cycles);
///             w.field("bits", &self.bits);
///         });
///     }
/// }
/// let json = sofi_report::to_json(&Row { cycles: 8, bits: [1, 2] });
/// assert_eq!(json, "{\n  \"cycles\": 8,\n  \"bits\": [\n    1,\n    2\n  ]\n}");
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Nesting depth of the container being written.
    depth: usize,
    /// No member has been written into the current container yet (the
    /// next one needs no comma; closing it prints `[]`/`{}`).
    empty: bool,
}

/// Indentation source: `depth` levels are a prefix of (repeats of) this.
const SPACES: &str = "                                                                ";

impl JsonWriter {
    /// Writes an object; `body` emits its members with
    /// [`JsonWriter::field`] / [`JsonWriter::entry`].
    pub fn object(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.container(b'{', b'}', body);
    }

    /// Writes an array; `body` emits its elements with
    /// [`JsonWriter::item`].
    pub fn array(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.container(b'[', b']', body);
    }

    fn container(&mut self, open: u8, close: u8, body: impl FnOnce(&mut JsonWriter)) {
        self.out.push(char::from(open));
        self.depth += 1;
        self.empty = true;
        body(self);
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(char::from(close));
        // The enclosing container now holds (at least) this one.
        self.empty = false;
    }

    /// Separator and indentation before the next member.
    fn member(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    fn newline(&mut self) {
        self.out.push('\n');
        let mut n = 2 * self.depth;
        while n > SPACES.len() {
            self.out.push_str(SPACES);
            n -= SPACES.len();
        }
        self.out.push_str(&SPACES[..n]);
    }

    /// An object member under a static key. The key is written raw, so
    /// it must need no escaping (every field name in the suite does not).
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &'static str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    /// A static member key; the value is written next.
    fn key(&mut self, key: &'static str) {
        debug_assert!(
            key.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\'),
            "static JSON key {key:?} needs escaping"
        );
        self.member();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\": ");
    }

    /// An object member under a runtime key (telemetry names, parsed
    /// documents), escaped like any string.
    pub fn entry<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.member();
        write_escaped(&mut self.out, key);
        self.out.push_str(": ");
        value.write_json(self);
    }

    /// An array element.
    pub fn item<T: ToJson + ?Sized>(&mut self, value: &T) {
        self.member();
        value.write_json(self);
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// A non-negative integer.
    pub fn u64(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        // Only ASCII digits were written.
        self.out
            .push_str(std::str::from_utf8(&buf[i..]).unwrap_or_default());
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) {
        match u64::try_from(v) {
            Ok(v) => self.u64(v),
            Err(_) => {
                let _ = write!(self.out, "{v}");
            }
        }
    }

    /// A float. `{:?}` keeps a trailing `.0` on integral values, so a
    /// float field stays a float across a round-trip; non-finite values
    /// print as `null`.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.out, "{v:?}");
        } else {
            self.null();
        }
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) {
        write_escaped(&mut self.out, s);
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        // `i` indexes an ASCII byte, so both slices end on char boundaries.
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// A JSON value tree, produced by [`Json::parse`].
///
/// Object members keep insertion order (a `Vec` of pairs, not a map), so
/// a parsed artifact lists fields in the order they were written.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (values `>= 0` normalize to [`Json::U64`]).
    I64(i64),
    /// A floating-point number. Non-finite values print as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by index (`None` for non-arrays and out of range).
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The integer value, if this is a number representable as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The numeric value as `f64` (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
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
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with 2-space indentation — [`to_json`] on the tree,
    /// the same printer every artifact goes through.
    pub fn pretty(&self) -> String {
        to_json(self)
    }

    /// Parses a JSON document.
    ///
    /// Supports the full value grammar the writer emits (and standard JSON
    /// in general: escapes, `\uXXXX`, exponents). Trailing garbage is an
    /// error, and so is nesting deeper than 128 containers — the parser
    /// recurses per level, so unbounded nesting in a hostile file would
    /// otherwise overflow the stack.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first offending byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// Deepest container nesting [`Json::parse`] accepts. Every artifact the
/// suite writes nests at most 6 levels.
const MAX_DEPTH: usize = 128;

/// A JSON parse error: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
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

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one container one level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Parser<'a>) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + lo.checked_sub(0xDC00)
                                            .ok_or_else(|| self.err("invalid low surrogate"))?;
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Export to JSON: the value writes itself into a [`JsonWriter`].
///
/// Implemented for primitives, strings, options, slices, [`Json`] trees
/// and the suite's result types. Flat report structs can derive an
/// implementation with [`impl_to_json!`](crate::impl_to_json).
pub trait ToJson {
    /// Writes the JSON representation of `self` at the writer's current
    /// position.
    fn write_json(&self, w: &mut JsonWriter);
}

impl ToJson for Json {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::U64(v) => w.u64(*v),
            Json::I64(v) => w.i64(*v),
            Json::F64(v) => w.f64(*v),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => items.write_json(w),
            Json::Obj(pairs) => w.object(|w| {
                for (key, value) in pairs {
                    w.entry(key, value);
                }
            }),
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut JsonWriter) {
        w.bool(*self);
    }
}

macro_rules! impl_to_json_int {
    ($method:ident: $($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.$method(*self as _);
            }
        }
    )*};
}

impl_to_json_int!(u64: u8, u16, u32, u64, usize);
impl_to_json_int!(i64: i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.f64(*self);
    }
}

impl ToJson for f32 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.f64(f64::from(*self));
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(|w| {
            for item in self {
                w.item(item);
            }
        });
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(|w| {
            w.item(&self.0);
            w.item(&self.1);
        });
    }
}

/// Implements [`ToJson`] for a struct with public fields, serializing every
/// listed field in order under its own name:
///
/// ```
/// struct Row { benchmark: String, failures: u64 }
/// sofi_report::impl_to_json!(Row { benchmark, failures });
/// let row = Row { benchmark: "hi".into(), failures: 48 };
/// assert!(sofi_report::to_json(&row).contains("\"failures\": 48"));
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::export::ToJson for $ty {
            fn write_json(&self, w: &mut $crate::export::JsonWriter) {
                w.object(|w| {
                    $(w.field(stringify!($field), &self.$field);)+
                });
            }
        }
    };
}

/// A [`ToJson`] value defined by a writing closure — what the artifact
/// builders return, so an artifact streams its parts instead of copying
/// them into an intermediate value.
struct JsonFn<F>(F);

impl<F: Fn(&mut JsonWriter)> ToJson for JsonFn<F> {
    fn write_json(&self, w: &mut JsonWriter) {
        (self.0)(w);
    }
}

// --- Suite result types -------------------------------------------------
//
// Shapes match what the former serde derives produced: structs as objects
// in field order, unit enum variants as strings, data-carrying variants as
// single-key objects.

impl ToJson for FaultCoord {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("cycle", &self.cycle);
            w.field("bit", &self.bit);
        });
    }
}

impl ToJson for FaultSpace {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("cycles", &self.cycles);
            w.field("bits", &self.bits);
        });
    }
}

impl ToJson for Experiment {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("id", &self.id);
            w.field("coord", &self.coord);
            w.field("weight", &self.weight);
        });
    }
}

impl ToJson for FaultDomain {
    fn write_json(&self, w: &mut JsonWriter) {
        // `FaultDomain::name` is the canonical artifact spelling; going
        // through it (rather than a local match) keeps exports and the
        // CLI round-trip (`Display`/`FromStr`) in lock-step as domains
        // are added.
        w.str(self.name());
    }
}

impl ToJson for SamplingMode {
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(match self {
            SamplingMode::UniformRaw => "UniformRaw",
            SamplingMode::WeightedClasses => "WeightedClasses",
            SamplingMode::BiasedPerClass => "BiasedPerClass",
        });
    }
}

/// A data-carrying enum variant: `{"Variant": {fields}}`.
fn tagged(w: &mut JsonWriter, variant: &'static str, fields: impl FnOnce(&mut JsonWriter)) {
    w.object(|w| {
        w.key(variant);
        w.object(fields);
    });
}

impl ToJson for Trap {
    fn write_json(&self, w: &mut JsonWriter) {
        match *self {
            Trap::Misaligned { addr, width } => tagged(w, "Misaligned", |w| {
                w.field("addr", &addr);
                w.field("width", &format!("{width:?}"));
            }),
            Trap::OutOfRange { addr } => tagged(w, "OutOfRange", |w| w.field("addr", &addr)),
            Trap::MmioRead { addr } => tagged(w, "MmioRead", |w| w.field("addr", &addr)),
            Trap::BadJump { target } => tagged(w, "BadJump", |w| w.field("target", &target)),
            Trap::SerialOverflow => w.str("SerialOverflow"),
            Trap::IllegalOpcode { opcode } => {
                tagged(w, "IllegalOpcode", |w| w.field("opcode", &opcode));
            }
        }
    }
}

impl ToJson for Outcome {
    fn write_json(&self, w: &mut JsonWriter) {
        match *self {
            Outcome::NoEffect => w.str("NoEffect"),
            Outcome::DetectedCorrected => w.str("DetectedCorrected"),
            Outcome::SilentDataCorruption => w.str("SilentDataCorruption"),
            Outcome::DetectedUnrecoverable => w.str("DetectedUnrecoverable"),
            Outcome::Timeout => w.str("Timeout"),
            Outcome::OutputFlood => w.str("OutputFlood"),
            Outcome::AbnormalHalt { code } => tagged(w, "AbnormalHalt", |w| w.field("code", &code)),
            Outcome::CpuException(trap) => w.object(|w| w.field("CpuException", &trap)),
        }
    }
}

impl ToJson for ExperimentResult {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("experiment", &self.experiment);
            w.field("outcome", &self.outcome);
        });
    }
}

/// Typical bytes one [`ExperimentResult`] takes in a [`CampaignResult`]
/// export (indentation included), for pre-sizing the output buffer so a
/// large export is never copied on growth.
const RESULT_BYTES: usize = 256;

impl ToJson for CampaignResult {
    fn write_json(&self, w: &mut JsonWriter) {
        w.out.reserve(self.results.len() * RESULT_BYTES);
        w.object(|w| {
            w.field("benchmark", &self.benchmark);
            w.field("domain", &self.domain);
            w.field("space", &self.space);
            w.field("known_benign_weight", &self.known_benign_weight);
            w.field("golden_cycles", &self.golden_cycles);
            w.field("results", &self.results);
        });
    }
}

impl ToJson for SampledOutcome {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("experiment", &self.experiment);
            w.field("hits", &self.hits);
            w.field("outcome", &self.outcome);
        });
    }
}

impl ToJson for SampledResult {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("benchmark", &self.benchmark);
            w.field("domain", &self.domain);
            w.field("mode", &self.mode);
            w.field("draws", &self.draws);
            w.field("population", &self.population);
            w.field("benign_draws", &self.benign_draws);
            w.field("outcomes", &self.outcomes);
        });
    }
}

impl ToJson for BurstSampledResult {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("benchmark", &self.benchmark);
            w.field("domain", &self.domain);
            w.field("width", &self.width);
            w.field("draws", &self.draws);
            w.field("population", &self.population);
            w.field("benign_skips", &self.benign_skips);
            w.field("failure_draws", &self.failure_draws);
            w.field("by_kind", &self.by_kind);
        });
    }
}

impl ToJson for ExecutorStats {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("workers", &self.workers);
            w.field("experiments", &self.experiments);
            w.field("pristine_cycles", &self.pristine_cycles);
            w.field("faulted_cycles", &self.faulted_cycles);
            w.field("converged_early", &self.converged_early);
            w.field("faulted_cycles_saved", &self.faulted_cycles_saved);
            w.field("memo_hits", &self.memo_hits);
            w.field("memo_misses", &self.memo_misses);
            w.field("memoized_cycles_saved", &self.memoized_cycles_saved);
        });
    }
}

/// The artifact exported for a finished service job: the daemon's job id
/// next to the merged campaign result and the executor counters
/// accumulated over all journaled batches. This is the journal → export
/// bridge `sofi submit --wait --out <file>` writes; render it with
/// [`to_json`].
pub fn job_artifact<'a>(
    job: u64,
    result: &'a CampaignResult,
    stats: &'a ExecutorStats,
) -> impl ToJson + 'a {
    JsonFn(move |w: &mut JsonWriter| {
        w.object(|w| {
            w.field("job", &job);
            w.field("result", result);
            w.field("stats", stats);
        });
    })
}

impl ToJson for Bucket {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("lo", &self.lo);
            w.field("hi", &self.hi);
            w.field("count", &self.count);
        });
    }
}

impl ToJson for HistogramSnapshot {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("count", &self.count);
            w.field("sum", &self.sum);
            w.field("min", &self.min);
            w.field("max", &self.max);
            w.field("mean", &self.mean());
            w.field("p50", &self.quantile(0.5));
            w.field("p99", &self.quantile(0.99));
            w.field("buckets", &self.buckets);
        });
    }
}

/// A name-keyed object of `(name, value)` pairs.
fn named<T: ToJson>(pairs: &[(String, T)]) -> impl ToJson + '_ {
    JsonFn(move |w: &mut JsonWriter| {
        w.object(|w| {
            for (name, value) in pairs {
                w.entry(name, value);
            }
        });
    })
}

/// The members of a [`Snapshot`] object, shared with
/// [`telemetry_artifact`] (which prefixes the schema tag).
fn snapshot_fields(s: &Snapshot, w: &mut JsonWriter) {
    w.field("counters", &named(&s.counters));
    w.field("gauges", &named(&s.gauges));
    w.field("histograms", &named(&s.histograms));
}

impl ToJson for Snapshot {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| snapshot_fields(self, w));
    }
}

/// Schema tag stamped into every [`telemetry_artifact`]. Bump the `/v1`
/// suffix on any incompatible change to the snapshot JSON shape.
pub const TELEMETRY_SCHEMA: &str = "sofi.telemetry.snapshot/v1";

/// The artifact exported for a telemetry snapshot: the schema tag, then
/// the counters, gauges and histograms as name-keyed objects (names are
/// sorted — registry snapshots come out that way — so artifacts diff
/// cleanly between runs). Histograms carry their occupied buckets plus
/// derived `mean`/`p50`/`p99` so consumers need no bucket math. Render it
/// with [`to_json`].
pub fn telemetry_artifact(snapshot: &Snapshot) -> impl ToJson + '_ {
    JsonFn(move |w: &mut JsonWriter| {
        w.object(|w| {
            w.field("schema", TELEMETRY_SCHEMA);
            snapshot_fields(snapshot, w);
        });
    })
}

impl ToJson for Table1Row {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("k", &self.k);
            w.field("probability", &self.probability);
        });
    }
}

/// Schema tag stamped into every [`susceptibility_artifact`]. Bump the
/// `/v1` suffix on any incompatible change to the row shape.
pub const SUSCEPTIBILITY_SCHEMA: &str = "sofi.susceptibility.comparison/v1";

/// One benchmark pair of a Figure-2-style susceptibility comparison: the
/// sound absolute-failure estimates for both variants and their ratio,
/// under one fault domain.
#[derive(Debug, Clone, PartialEq)]
pub struct SusceptibilityRow {
    /// Benchmark pair name.
    pub benchmark: String,
    /// The injected fault domain.
    pub domain: FaultDomain,
    /// Baseline fault-space size `w` (cycles × bits).
    pub baseline_space: u64,
    /// Hardened fault-space size `w'`.
    pub hardened_space: u64,
    /// Absolute failure estimate for the baseline build.
    pub baseline: FailureEstimate,
    /// Absolute failure estimate for the hardened build.
    pub hardened: FailureEstimate,
    /// The ratio `r = F_hardened / F_baseline` with conservative bounds.
    pub comparison: Comparison,
}

impl ToJson for FailureEstimate {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("failures", &self.failures);
            w.field("ci_lo", &self.ci.0);
            w.field("ci_hi", &self.ci.1);
            w.field("exact", &self.exact);
        });
    }
}

impl ToJson for SusceptibilityRow {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("benchmark", &self.benchmark);
            w.field("domain", &self.domain);
            w.field("baseline_space", &self.baseline_space);
            w.field("hardened_space", &self.hardened_space);
            w.field("baseline", &self.baseline);
            w.field("hardened", &self.hardened);
            w.field("ratio", &self.comparison.ratio);
            w.field("ratio_ci_lo", &self.comparison.ci.0);
            w.field("ratio_ci_hi", &self.comparison.ci.1);
            w.field("improves", &self.comparison.improves());
            w.field("conclusive", &self.comparison.conclusive());
        });
    }
}

/// The artifact exported for a susceptibility comparison sweep: the
/// schema tag plus one [`SusceptibilityRow`] per benchmark pair × fault
/// domain. This is the Figure-2 analogue for artifact consumers — rows
/// carry *absolute* failure estimates (the paper's sound metric), never
/// coverage percentages. Render it with [`to_json`].
pub fn susceptibility_artifact(rows: &[SusceptibilityRow]) -> impl ToJson + '_ {
    JsonFn(move |w: &mut JsonWriter| {
        w.object(|w| {
            w.field("schema", SUSCEPTIBILITY_SCHEMA);
            w.field("rows", rows);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_isa::{Asm, MemWidth, Program, Reg};

    /// `to_json(&Json::parse(s)) == s`: the printer and the parser agree
    /// on every byte of `s`.
    fn assert_print_parse_identity(s: &str) {
        let tree = Json::parse(s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        assert_eq!(to_json(&tree), s);
    }

    fn hi() -> Program {
        let mut a = Asm::with_name("hi");
        let msg = a.data_space("msg", 2);
        a.li(Reg::R1, 'H' as i32);
        a.sb(Reg::R1, Reg::R0, msg.offset());
        a.li(Reg::R1, 'i' as i32);
        a.sb(Reg::R1, Reg::R0, msg.at(1).offset());
        a.lb(Reg::R2, Reg::R0, msg.offset());
        a.serial_out(Reg::R2);
        a.lb(Reg::R2, Reg::R0, msg.at(1).offset());
        a.serial_out(Reg::R2);
        a.build().unwrap()
    }

    /// One result per `Outcome` variant and per `Trap` variant.
    fn every_outcome() -> CampaignResult {
        let outcomes = [
            Outcome::NoEffect,
            Outcome::DetectedCorrected,
            Outcome::SilentDataCorruption,
            Outcome::DetectedUnrecoverable,
            Outcome::Timeout,
            Outcome::OutputFlood,
            Outcome::AbnormalHalt { code: 3 },
            Outcome::CpuException(Trap::Misaligned {
                addr: 6,
                width: MemWidth::Word,
            }),
            Outcome::CpuException(Trap::OutOfRange { addr: 70_000 }),
            Outcome::CpuException(Trap::MmioRead { addr: 65_540 }),
            Outcome::CpuException(Trap::BadJump { target: 99 }),
            Outcome::CpuException(Trap::SerialOverflow),
            Outcome::CpuException(Trap::IllegalOpcode { opcode: 63 }),
        ];
        CampaignResult {
            benchmark: "pin \"all\"".into(),
            domain: FaultDomain::OpcodeBit,
            space: FaultSpace::new(13, 32),
            known_benign_weight: 7,
            golden_cycles: 13,
            results: outcomes
                .iter()
                .zip(0u32..)
                .map(|(&outcome, i)| ExperimentResult {
                    experiment: Experiment {
                        id: i,
                        coord: FaultCoord {
                            cycle: u64::from(i),
                            bit: u64::from(i * 5 % 32),
                        },
                        weight: u64::from(i) + 1,
                    },
                    outcome,
                })
                .collect(),
        }
    }

    #[test]
    fn campaign_result_exact_bytes() {
        // The artifact format, pinned byte for byte: every outcome and
        // trap shape, an escaped string, nested indentation.
        assert_eq!(to_json(&every_outcome()), EVERY_OUTCOME_JSON);
        let empty = CampaignResult {
            benchmark: "empty".into(),
            domain: FaultDomain::Memory,
            space: FaultSpace::new(4, 8),
            known_benign_weight: 32,
            golden_cycles: 4,
            results: vec![],
        };
        assert_eq!(
            to_json(&empty),
            "{\n  \"benchmark\": \"empty\",\n  \"domain\": \"Memory\",\n  \"space\": {\n    \
             \"cycles\": 4,\n    \"bits\": 8\n  },\n  \"known_benign_weight\": 32,\n  \
             \"golden_cycles\": 4,\n  \"results\": []\n}"
        );
    }

    const EVERY_OUTCOME_JSON: &str = r#"{
  "benchmark": "pin \"all\"",
  "domain": "OpcodeBit",
  "space": {
    "cycles": 13,
    "bits": 32
  },
  "known_benign_weight": 7,
  "golden_cycles": 13,
  "results": [
    {
      "experiment": {
        "id": 0,
        "coord": {
          "cycle": 0,
          "bit": 0
        },
        "weight": 1
      },
      "outcome": "NoEffect"
    },
    {
      "experiment": {
        "id": 1,
        "coord": {
          "cycle": 1,
          "bit": 5
        },
        "weight": 2
      },
      "outcome": "DetectedCorrected"
    },
    {
      "experiment": {
        "id": 2,
        "coord": {
          "cycle": 2,
          "bit": 10
        },
        "weight": 3
      },
      "outcome": "SilentDataCorruption"
    },
    {
      "experiment": {
        "id": 3,
        "coord": {
          "cycle": 3,
          "bit": 15
        },
        "weight": 4
      },
      "outcome": "DetectedUnrecoverable"
    },
    {
      "experiment": {
        "id": 4,
        "coord": {
          "cycle": 4,
          "bit": 20
        },
        "weight": 5
      },
      "outcome": "Timeout"
    },
    {
      "experiment": {
        "id": 5,
        "coord": {
          "cycle": 5,
          "bit": 25
        },
        "weight": 6
      },
      "outcome": "OutputFlood"
    },
    {
      "experiment": {
        "id": 6,
        "coord": {
          "cycle": 6,
          "bit": 30
        },
        "weight": 7
      },
      "outcome": {
        "AbnormalHalt": {
          "code": 3
        }
      }
    },
    {
      "experiment": {
        "id": 7,
        "coord": {
          "cycle": 7,
          "bit": 3
        },
        "weight": 8
      },
      "outcome": {
        "CpuException": {
          "Misaligned": {
            "addr": 6,
            "width": "Word"
          }
        }
      }
    },
    {
      "experiment": {
        "id": 8,
        "coord": {
          "cycle": 8,
          "bit": 8
        },
        "weight": 9
      },
      "outcome": {
        "CpuException": {
          "OutOfRange": {
            "addr": 70000
          }
        }
      }
    },
    {
      "experiment": {
        "id": 9,
        "coord": {
          "cycle": 9,
          "bit": 13
        },
        "weight": 10
      },
      "outcome": {
        "CpuException": {
          "MmioRead": {
            "addr": 65540
          }
        }
      }
    },
    {
      "experiment": {
        "id": 10,
        "coord": {
          "cycle": 10,
          "bit": 18
        },
        "weight": 11
      },
      "outcome": {
        "CpuException": {
          "BadJump": {
            "target": 99
          }
        }
      }
    },
    {
      "experiment": {
        "id": 11,
        "coord": {
          "cycle": 11,
          "bit": 23
        },
        "weight": 12
      },
      "outcome": {
        "CpuException": "SerialOverflow"
      }
    },
    {
      "experiment": {
        "id": 12,
        "coord": {
          "cycle": 12,
          "bit": 28
        },
        "weight": 13
      },
      "outcome": {
        "CpuException": {
          "IllegalOpcode": {
            "opcode": 63
          }
        }
      }
    }
  ]
}"#;

    #[test]
    fn campaign_result_round_trips_through_parser() {
        let r = every_outcome();
        let json = to_json(&r);
        assert_print_parse_identity(&json);
        let back = Json::parse(&json).unwrap();
        assert_eq!(back.get("benchmark").unwrap().as_str(), Some("pin \"all\""));
        assert_eq!(
            back.get("space").unwrap().get("bits").unwrap().as_u64(),
            Some(32)
        );
        let third = back.get("results").unwrap().at(2).unwrap();
        assert_eq!(
            third.get("outcome").unwrap().as_str(),
            Some("SilentDataCorruption")
        );
        assert_eq!(
            third
                .get("experiment")
                .unwrap()
                .get("coord")
                .unwrap()
                .get("cycle")
                .unwrap()
                .as_u64(),
            Some(2)
        );
    }

    #[test]
    fn hi_campaigns_print_parse_identity_in_every_domain() {
        let c = sofi_campaign::Campaign::new(&hi()).unwrap();
        for domain in FaultDomain::ALL {
            // (`hi` has no branch, so its BranchInvert scan is empty.)
            assert_print_parse_identity(&to_json(&c.run_full_defuse_in(domain)));
        }
    }

    #[test]
    fn artifacts_print_parse_identity() {
        let result = every_outcome();
        let stats = ExecutorStats {
            workers: 2,
            experiments: 13,
            ..ExecutorStats::default()
        };
        assert_print_parse_identity(&to_json(&job_artifact(7, &result, &stats)));

        let reg = sofi_telemetry::Registry::enabled();
        reg.counter("executor.experiments").add(48);
        reg.gauge("odd \"name\"\n").set(3);
        let h = reg.histogram("executor.faulted_run_cycles");
        for v in [1, 2, 3, 100, 4096] {
            h.record(v);
        }
        assert_print_parse_identity(&to_json(&telemetry_artifact(&reg.snapshot())));
        assert_print_parse_identity(&to_json(&telemetry_artifact(&Snapshot::default())));
    }

    #[test]
    fn parser_refuses_hostile_nesting_with_a_typed_error() {
        // Unbounded recursion would overflow a 2 MiB stack (a test
        // thread's default) long before 100,000 levels.
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let deep = "[".repeat(100_000);
                let objects = "{\"a\":".repeat(100_000);
                (Json::parse(&deep), Json::parse(&objects))
            })
            .unwrap()
            .join()
            .expect("parser overflowed the stack");
        let err = outcome.0.unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        assert!(err.message.contains("nesting"), "{err}");
        assert!(outcome.1.is_err());

        // The limit itself is accepted.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_print_parse_identity(&Json::parse(&at_limit).unwrap().pretty());
    }

    #[test]
    fn writer_variant_works() {
        let mut buf = Vec::new();
        write_json(&FaultSpace::new(1, 1), &mut buf).unwrap();
        assert_eq!(buf, to_json(&FaultSpace::new(1, 1)).into_bytes());
    }

    #[test]
    fn pretty_format_matches_previous_exporter() {
        // Two-space indent, space after the colon — artifacts stay diffable
        // against ones produced by earlier revisions.
        let json = to_json(&FaultSpace::new(8, 16));
        assert_eq!(json, "{\n  \"cycles\": 8,\n  \"bits\": 16\n}");
    }

    #[test]
    fn string_escapes_round_trip() {
        let tricky = "a\"b\\c\nd\te\u{08}\u{0C}\r\u{1}é☃\u{1F600}";
        let json = to_json(tricky);
        assert_eq!(json, "\"a\\\"b\\\\c\\nd\\te\\b\\f\\r\\u0001é☃\u{1F600}\"");
        assert_eq!(Json::parse(&json), Ok(Json::Str(tricky.into())));
    }

    #[test]
    fn parser_handles_numbers() {
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::F64(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::F64(2000.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
        assert_eq!(to_json(&-7i32), "-7");
        assert_eq!(to_json(&i64::MIN), i64::MIN.to_string());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn float_values_keep_a_decimal_point() {
        assert_eq!(Json::F64(1.0).pretty(), "1.0");
        assert_eq!(Json::F64(f64::NAN).pretty(), "null");
        assert_eq!(to_json(&f64::INFINITY), "null");
        assert_eq!(Json::parse(&Json::F64(0.1).pretty()), Ok(Json::F64(0.1)));
    }

    #[test]
    fn impl_to_json_macro_serializes_fields_in_order() {
        struct Row {
            name: String,
            count: u64,
            ratio: f64,
            pair: (u8, Option<u8>),
        }
        crate::impl_to_json!(Row {
            name,
            count,
            ratio,
            pair
        });
        let json = to_json(&Row {
            name: "hi".into(),
            count: 3,
            ratio: 0.5,
            pair: (1, None),
        });
        assert_eq!(
            json,
            "{\n  \"name\": \"hi\",\n  \"count\": 3,\n  \"ratio\": 0.5,\n  \"pair\": [\n    \
             1,\n    null\n  ]\n}"
        );
    }

    #[test]
    fn job_artifact_bridges_service_results() {
        let result = CampaignResult {
            benchmark: "t".into(),
            domain: FaultDomain::RegisterFile,
            space: FaultSpace::new(4, 8),
            known_benign_weight: 0,
            golden_cycles: 4,
            results: vec![],
        };
        let stats = ExecutorStats {
            workers: 2,
            experiments: 17,
            ..ExecutorStats::default()
        };
        let json = to_json(&job_artifact(42, &result, &stats));
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("job").unwrap().as_u64(), Some(42));
        assert_eq!(
            parsed
                .get("result")
                .unwrap()
                .get("benchmark")
                .unwrap()
                .as_str(),
            Some("t")
        );
        assert_eq!(
            parsed
                .get("stats")
                .unwrap()
                .get("experiments")
                .unwrap()
                .as_u64(),
            Some(17)
        );
    }

    #[test]
    fn telemetry_artifact_has_a_stable_schema() {
        let reg = sofi_telemetry::Registry::enabled();
        reg.counter("executor.experiments").add(48);
        reg.gauge("serve.queue_depth").set(3);
        let h = reg.histogram("executor.faulted_run_cycles");
        for v in [1, 2, 3, 100, 100, 4096] {
            h.record(v);
        }
        let json = to_json(&telemetry_artifact(&reg.snapshot()));
        let parsed = Json::parse(&json).unwrap();

        assert_eq!(
            parsed.get("schema").unwrap().as_str(),
            Some("sofi.telemetry.snapshot/v1")
        );
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("executor.experiments")
                .unwrap()
                .as_u64(),
            Some(48)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .unwrap()
                .get("serve.queue_depth")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        let hist = parsed
            .get("histograms")
            .unwrap()
            .get("executor.faulted_run_cycles")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(6));
        assert_eq!(hist.get("min").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("max").unwrap().as_u64(), Some(4096));
        assert!(hist.get("mean").unwrap().as_f64().unwrap() > 0.0);
        assert!(hist.get("p50").unwrap().as_u64().unwrap() >= 1);
        assert!(hist.get("p99").unwrap().as_u64().unwrap() <= 4096);
        let buckets = hist.get("buckets").unwrap().as_array().unwrap();
        assert!(!buckets.is_empty());
        for b in buckets {
            assert!(b.get("lo").unwrap().as_u64() <= b.get("hi").unwrap().as_u64());
            assert!(b.get("count").unwrap().as_u64().unwrap() > 0);
        }

        // The empty snapshot still carries every schema section.
        assert_eq!(
            to_json(&telemetry_artifact(&Snapshot::default())),
            "{\n  \"schema\": \"sofi.telemetry.snapshot/v1\",\n  \"counters\": {},\n  \
             \"gauges\": {},\n  \"histograms\": {}\n}"
        );
    }

    #[test]
    fn empty_containers_print_compactly() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
        assert_eq!(to_json(&Vec::<u8>::new()), "[]");
        assert_eq!(
            Json::Arr(vec![Json::Obj(vec![]), Json::Arr(vec![])]).pretty(),
            "[\n  {},\n  []\n]"
        );
    }
}
