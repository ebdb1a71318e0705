//! JSON parser and serializer for [`Value`], plus a streaming writer and a
//! pull reader for callers that know their document's shape.
//!
//! The parser accepts the full JSON grammar (RFC 8259) including unicode
//! escapes; the serializer emits either compact or pretty (2-space indented)
//! text. The tool's scenario list and dataset files are stored with the
//! pretty form so users can diff them.
//!
//! [`Slot`] writes a document piece by piece with exactly the layout
//! [`to_string`] and [`to_string_pretty`] give the equivalent [`Value`], and
//! [`Reader`] walks a document container by container with the grammar,
//! number rules and depth limit of [`parse`]. Together they let a typed
//! record go to and from JSON without building a `Value` tree. [`Layout`]
//! gives the text a [`Container`] writes around an object's members, so a
//! writer of many objects of one shape can precompute it and format only
//! the values.

use crate::error::FormatError;
use crate::value::{OrderedMap, Value};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Value, FormatError> {
    let mut r = Reader::new(input);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// Serializes a value to compact JSON.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    Slot::compact(&mut out).value(v);
    out
}

/// Serializes a value to pretty JSON with 2-space indentation.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    Slot::pretty(&mut out).value(v);
    out.push('\n');
    out
}

/// True for a byte that [`write_str`] escapes.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `s` as a JSON string literal. `"`, `\` and control characters
/// are escaped; everything else, non-ASCII included, is written as is.
pub fn write_str(out: &mut String, s: &str) {
    // Most strings need no escaping; a branch-free scan finds that out.
    if !s.bytes().fold(false, |any, b| any | needs_escape(b)) {
        out.reserve(s.len() + 2);
        out.push('"');
        out.push_str(s);
        out.push('"');
        return;
    }
    out.push('"');
    let mut start = 0;
    // Every byte that needs escaping is ASCII, so it never sits inside a
    // multi-byte character and the slices below fall on char boundaries.
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends a float so that it round-trips. Integral floats below 1e15 keep
/// a `.0` marker, which keeps the dataset human-readable (re-parsing does
/// not need it to tell them from integers). Non-finite values are written
/// as `NaN`/`inf`, which is not JSON: callers that persist floats must keep
/// them finite.
pub fn write_f64(out: &mut String, f: f64) {
    if f == f.trunc() && f.abs() < 1e15 {
        // What `{f:.1}` prints, without its exact-precision formatting:
        // an integral float this small converts to i64 exactly.
        if f == 0.0 && f.is_sign_negative() {
            out.push('-');
        }
        write_i64(out, f as i64);
        out.push_str(".0");
    } else {
        let start = out.len();
        let _ = write!(out, "{f}");
        // `Display` never writes an exponent, so a finite float without a
        // point is integral and gets the marker; `NaN` and `inf` do not.
        if f.is_finite() && !out[start..].contains('.') {
            out.push_str(".0");
        }
    }
}

/// Appends an integer, as `Display` writes it.
pub fn write_i64(out: &mut String, i: i64) {
    let mut digits = [0u8; 20];
    let mut n = i.unsigned_abs();
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// The length of what [`write_str`] appends for `s`.
pub fn str_len(s: &str) -> usize {
    // The branch-free scan of `write_str` first: most strings need no
    // escaping.
    if !s.bytes().fold(false, |any, b| any | needs_escape(b)) {
        return s.len() + 2;
    }
    let escapes: usize = s
        .bytes()
        .map(|b| match b {
            b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 1,
            0..=0x1f => 5,
            _ => 0,
        })
        .sum();
    s.len() + escapes + 2
}

/// The length of what [`write_i64`] appends for `i`.
pub fn i64_len(i: i64) -> usize {
    let digits = i
        .unsigned_abs()
        .checked_ilog10()
        .map_or(1, |d| d as usize + 1);
    digits + usize::from(i < 0)
}

/// At least the length of what [`write_f64`] appends for `f`, mostly
/// found without formatting `f`. An integral float below 1e15 is counted
/// exactly. Any other float in [1e-5, 1e15) is bounded: `Display` writes
/// a sign, at most 17 significant digits and a point, and below 1 a
/// leading `0` and at most four zeros between the point and the digits.
/// A float outside that range, rare in a dataset, is written and counted.
pub fn f64_max_len(f: f64) -> usize {
    let abs = f.abs();
    if f == f.trunc() && abs < 1e15 {
        return usize::from(f == 0.0 && f.is_sign_negative()) + i64_len(f as i64) + 2;
    }
    if (1.0..1e15).contains(&abs) {
        return 19;
    }
    if (1e-5..1.0).contains(&abs) {
        return 24;
    }
    let mut text = String::new();
    write_f64(&mut text, f);
    text.len()
}

/// Where a value sits in a document: compact, or pretty (2-space indented)
/// at some nesting depth. [`Slot`] and [`Container`] lay text out by it.
/// Its literal methods return the text they would write around an
/// object's members, for a writer that writes many objects of one shape
/// at one place and formats only the values itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    indent: Option<usize>,
    depth: usize,
}

impl Layout {
    /// A compact document, at any depth: compact text does not depend on
    /// nesting, so a compact layout has no depth.
    pub const COMPACT: Layout = Layout {
        indent: None,
        depth: 0,
    };

    /// The top of a pretty document.
    pub const PRETTY: Layout = Layout {
        indent: Some(2),
        depth: 0,
    };

    /// The layout of the items and member values of a container opened at
    /// this one.
    pub const fn inner(self) -> Layout {
        match self.indent {
            Some(_) => Layout {
                depth: self.depth + 1,
                ..self
            },
            None => self,
        }
    }

    /// What an object opened here writes before the value of member `key`:
    /// `{` before the first member and `,` before any other, then (pretty)
    /// the newline and the member's indent, then the quoted key, the colon
    /// and (pretty) a space. Written by [`Container::key`] itself.
    pub fn member(self, first: bool, key: &str) -> String {
        let mut out = String::new();
        self.object_at(&mut out, first).key(key);
        out
    }

    /// What an object opened here writes before a member's key: the text
    /// [`Layout::member`] gives, without the quoted key, colon and space.
    pub fn before_key(self, first: bool) -> String {
        let mut out = String::new();
        self.object_at(&mut out, first).item();
        out
    }

    /// What separates an object member's key from its value.
    pub fn colon(self) -> &'static str {
        match self.indent {
            Some(_) => ": ",
            None => ":",
        }
    }

    /// What closes a non-empty object opened here.
    pub fn close_object(self) -> String {
        let mut out = String::new();
        self.object_at(&mut out, false).end();
        out
    }

    /// An empty object written here.
    pub fn empty_object(self) -> String {
        let mut out = String::new();
        self.object_at(&mut out, true).end();
        out
    }

    /// An object opened here: just opened in `out` when `first`, else one
    /// that already holds members written before `out`'s text.
    fn object_at(self, out: &mut String, first: bool) -> Container<'_> {
        if first {
            Slot { out, layout: self }.object()
        } else {
            Container {
                out,
                layout: self,
                empty: false,
                close: '}',
            }
        }
    }
}

/// The place for one JSON value in a document being written: the top of
/// the document, an array item or an object member. Writing through slots
/// gives byte for byte the text [`to_string`] (compact) or
/// [`to_string_pretty`] (pretty, without its final newline) produce for
/// the equivalent [`Value`].
pub struct Slot<'a> {
    out: &'a mut String,
    layout: Layout,
}

impl<'a> Slot<'a> {
    /// The top of a compact document appended to `out`.
    pub fn compact(out: &'a mut String) -> Self {
        Slot {
            out,
            layout: Layout::COMPACT,
        }
    }

    /// The top of a pretty (2-space indented) document appended to `out`.
    pub fn pretty(out: &'a mut String) -> Self {
        Slot {
            out,
            layout: Layout::PRETTY,
        }
    }

    /// The buffer and the layout of the value, for a writer that writes
    /// the value itself from [`Layout`]'s literals.
    pub fn into_parts(self) -> (&'a mut String, Layout) {
        (self.out, self.layout)
    }

    /// Writes a string.
    pub fn str(self, s: &str) {
        write_str(self.out, s);
    }

    /// Writes an integer.
    pub fn int(self, i: i64) {
        write_i64(self.out, i);
    }

    /// Writes a float (see [`write_f64`]).
    pub fn f64(self, f: f64) {
        write_f64(self.out, f);
    }

    /// Writes a whole value.
    pub(crate) fn value(self, v: &Value) {
        match v {
            Value::Null => self.out.push_str("null"),
            Value::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => self.int(*i),
            Value::Float(f) => self.f64(*f),
            Value::Str(s) => self.str(s),
            Value::Seq(items) => {
                let mut seq = self.array();
                for item in items {
                    seq.item().value(item);
                }
                seq.end();
            }
            Value::Map(m) => {
                let mut map = self.object();
                for (k, v) in m.iter() {
                    map.key(k).value(v);
                }
                map.end();
            }
        }
    }

    /// Opens an object; write its members through [`Container::key`].
    pub fn object(self) -> Container<'a> {
        self.open('{', '}')
    }

    /// Opens an array; write its items through [`Container::item`].
    pub fn array(self) -> Container<'a> {
        self.open('[', ']')
    }

    fn open(self, open: char, close: char) -> Container<'a> {
        self.out.push(open);
        Container {
            out: self.out,
            layout: self.layout,
            empty: true,
            close,
        }
    }
}

/// An open object or array (see [`Slot::object`] and [`Slot::array`]).
/// Close it with [`Container::end`].
pub struct Container<'a> {
    out: &'a mut String,
    layout: Layout,
    empty: bool,
    close: char,
}

impl Container<'_> {
    /// The slot of the next array item.
    pub fn item(&mut self) -> Slot<'_> {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        let inner = self.layout.inner();
        newline_indent(self.out, inner);
        Slot {
            out: self.out,
            layout: inner,
        }
    }

    /// Writes an object member's key and returns the slot of its value.
    /// Keys are written as given: the caller keeps them unique.
    pub fn key(&mut self, key: &str) -> Slot<'_> {
        let slot = self.item();
        write_str(slot.out, key);
        slot.out.push_str(slot.layout.colon());
        slot
    }

    /// Closes the container.
    pub fn end(self) {
        if !self.empty {
            newline_indent(self.out, self.layout);
        }
        self.out.push(self.close);
    }
}

/// A newline and the widest indent [`newline_indent`] writes in one slice.
const NEWLINE_SPACES: &str = concat!(
    "\n",
    "                                                                ",
);

/// Starts a line at `layout`'s indent when it is pretty.
fn newline_indent(out: &mut String, layout: Layout) {
    if let Some(width) = layout.indent {
        let columns = width * layout.depth;
        let slice = columns.min(NEWLINE_SPACES.len() - 1);
        out.push_str(&NEWLINE_SPACES[..=slice]);
        for _ in slice..columns {
            out.push(' ');
        }
    }
}

/// Maximum container nesting depth — a stack-overflow guard for crafted
/// documents (the recursive-descent parser uses the native stack).
const MAX_DEPTH: usize = 128;

/// A pull reader over one JSON document. [`parse`] is built on it; a
/// caller that knows the document's shape can instead walk it with
/// [`Reader::object`] and [`Reader::array`], reading only the values it
/// needs as [`Value`]s, under the same grammar, number rules and depth
/// limit.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
    line_start: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            text: input,
            pos: 0,
            line: 1,
            line_start: 0,
            depth: 0,
        }
    }

    /// The first byte of the next value, skipping whitespace, without
    /// consuming it (`None` at the end of the input).
    pub fn peek_token(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    /// Reads the next value whole.
    pub fn value(&mut self) -> Result<Value, FormatError> {
        self.parse_value()
    }

    /// Reads an object, calling `member` with each key in document order.
    /// `member` must read exactly one value: the member's.
    pub fn object<E: From<FormatError>>(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), E>,
    ) -> Result<(), E> {
        self.skip_ws();
        self.enter()?;
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.parse_str()?;
            self.skip_ws();
            self.expect(b':')?;
            member(self, &key)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object").into()),
            }
        }
    }

    /// Reads an array, calling `item` once per item. `item` must read
    /// exactly one value.
    pub fn array<E: From<FormatError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.skip_ws();
        self.enter()?;
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            self.depth -= 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => {
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array").into()),
            }
        }
    }

    /// Checks that nothing but whitespace follows the document.
    pub fn finish(mut self) -> Result<(), FormatError> {
        self.skip_ws();
        if self.at_end() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }

    fn err(&self, msg: impl Into<String>) -> FormatError {
        FormatError::at(self.line, self.pos - self.line_start + 1, msg)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.text.len()
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), FormatError> {
        if self.peek() == Some(b) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}', found {}",
                b as char,
                self.peek()
                    .map(|c| format!("'{}'", c as char))
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, FormatError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_str()?.into_owned())),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, FormatError> {
        for expected in word.bytes() {
            if self.bump() != Some(expected) {
                return Err(self.err(format!("invalid literal, expected '{word}'")));
            }
        }
        Ok(value)
    }

    fn enter(&mut self) -> Result<(), FormatError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn parse_object(&mut self) -> Result<Value, FormatError> {
        let mut map = OrderedMap::new();
        self.object(|r, key| {
            let value = r.parse_value()?;
            map.insert(key, value);
            Ok::<_, FormatError>(())
        })?;
        Ok(Value::Map(map))
    }

    fn parse_array(&mut self) -> Result<Value, FormatError> {
        let mut items = Vec::new();
        self.array(|r| {
            items.push(r.parse_value()?);
            Ok::<_, FormatError>(())
        })?;
        Ok(Value::Seq(items))
    }

    fn parse_str(&mut self) -> Result<Cow<'a, str>, FormatError> {
        self.expect(b'"')?;
        // A string without escapes is a slice of the input.
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.bump();
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                Some(b'\\') | None => break,
                Some(_) => {
                    self.bump();
                }
            }
        }
        let mut s = self.text[start..self.pos].to_string();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(Cow::Owned(s)),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Surrogate pair handling for non-BMP characters.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired high surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        match c {
                            Some(c) => s.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x80 => s.push(b as char),
                Some(b) => {
                    // Re-decode a UTF-8 multibyte sequence starting at b.
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump().ok_or_else(|| self.err("truncated UTF-8"))?;
                    }
                    let chunk = self
                        .text
                        .get(start..self.pos)
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, FormatError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, FormatError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("invalid number '{text}'")))
        } else {
            // Integers that overflow i64 fall back to f64, like most readers.
            text.parse::<i64>().map(Value::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err(format!("invalid number '{text}'")))
            })
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-17").unwrap(), Value::Int(-17));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn parses_nested_structure() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "d"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("d"));
        let seq = v.get("a").unwrap().as_seq().unwrap();
        assert_eq!(seq[0], Value::Int(1));
        assert_eq!(seq[1].get("b"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Value::str("line1\nline2\t\"quoted\" \\slash\u{1F680}");
        let s = to_string(&original);
        assert_eq!(parse(&s).unwrap(), original);
    }

    #[test]
    fn unicode_escape_parsing() {
        assert_eq!(parse(r#""A""#).unwrap(), Value::str("A"));
        // Surrogate pair: rocket emoji.
        assert_eq!(parse(r#""🚀""#).unwrap(), Value::str("🚀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1 2").is_err());
        assert!(
            parse(r#""\ud83d""#).is_err(),
            "unpaired surrogate must fail"
        );
    }

    #[test]
    fn error_carries_position() {
        let err = parse("{\n  \"a\": @\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn pretty_output_shape() {
        let mut m = OrderedMap::new();
        m.insert("sku", Value::str("HB120rs_v3"));
        m.insert("nnodes", Value::Seq(vec![Value::Int(1), Value::Int(2)]));
        let s = to_string_pretty(&Value::Map(m));
        let expected = "{\n  \"sku\": \"HB120rs_v3\",\n  \"nnodes\": [\n    1,\n    2\n  ]\n}\n";
        assert_eq!(s, expected);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string(&Value::Seq(vec![])), "[]");
        assert_eq!(to_string(&Value::Map(OrderedMap::new())), "{}");
        assert_eq!(parse("[]").unwrap(), Value::Seq(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Map(OrderedMap::new()));
    }

    #[test]
    fn depth_guard_rejects_pathological_nesting() {
        // A 100k-deep array must fail cleanly, not overflow the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Moderate nesting still parses.
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    /// The char-by-char escaper `write_str` replaced: the oracle.
    fn oracle_escape(s: &str) -> String {
        let mut out = String::from('"');
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
        out.push('"');
        out
    }

    #[test]
    fn write_str_matches_the_char_escaper() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "",
            "plain",
            "\"",
            "\\",
            "a\"b\\c",
            "\u{7f}\u{80}\u{e9}\u{1f680}",
            "end\n",
            "\tstart",
            controls.as_str(),
        ] {
            let mut out = String::new();
            write_str(&mut out, s);
            assert_eq!(out, oracle_escape(s));
            assert_eq!(parse(&out).unwrap(), Value::str(s));
        }
    }

    #[test]
    fn write_f64_keeps_the_float_rule() {
        for (f, text) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (2.0, "2.0"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e-7, "0.0000001"),
            (1e15, "1000000000000000.0"),
            (-2.5e20, "-250000000000000000000.0"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
        ] {
            let mut out = String::from("x");
            write_f64(&mut out, f);
            assert_eq!(out, format!("x{text}"));
        }
    }

    #[test]
    fn write_f64_pins_the_edge_floats() {
        let zeros = |n: usize| "0".repeat(n);
        for (f, text) in [
            (1e15, "1000000000000000.0".to_string()),
            (-1e15, "-1000000000000000.0".to_string()),
            (1e300, format!("1{}.0", zeros(300))),
            (f64::MAX, format!("17976931348623157{}.0", zeros(292))),
            (5e-324, format!("0.{}5", zeros(323))),
            (-0.0, "-0.0".to_string()),
            (f64::NAN, "NaN".to_string()),
            (f64::INFINITY, "inf".to_string()),
            (f64::NEG_INFINITY, "-inf".to_string()),
            (0.1 + 0.2, "0.30000000000000004".to_string()),
        ] {
            let mut out = String::new();
            write_f64(&mut out, f);
            assert_eq!(out, text, "{f:e}");
        }
    }

    #[test]
    fn lengths_match_what_the_writers_append() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        for s in ["", "plain", "a\"b\\c", "\u{7f}\u{e9}\u{1f680}", &controls] {
            let mut out = String::new();
            write_str(&mut out, s);
            assert_eq!(str_len(s), out.len(), "{s:?}");
        }
        for i in [0, 7, -7, 9, 10, -10, 99, 100, i64::MAX, i64::MIN] {
            let mut out = String::new();
            write_i64(&mut out, i);
            assert_eq!(i64_len(i), out.len(), "{i}");
        }
        let float_len = |f: f64| {
            let mut out = String::new();
            write_f64(&mut out, f);
            out.len()
        };
        // Exact for small integers and outside [1e-5, 1e15).
        for f in [
            0.0,
            -0.0,
            2.0,
            -36.0,
            1e-7,
            5e-324,
            1e15,
            -2.5e20,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(f64_max_len(f), float_len(f), "{f:e}");
        }
        // A bound inside it, reached by the longest texts.
        for f in [-0.000012345678901234567, -0.30000000000000004, 1.5] {
            assert!(f64_max_len(f) >= float_len(f), "{f:e}");
        }
        assert_eq!(float_len(-1.0000000000000002e-5), 24);
        // Every non-integral float in the range, over a spread of
        // exponents and mantissas.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = f64::from_bits(state);
            assert!(f64_max_len(f) >= float_len(f), "{f:e}");
            let g =
                (state >> 11) as f64 / (1u64 << 53) as f64 * 10f64.powi((state % 21) as i32 - 5);
            assert!(f64_max_len(g) >= float_len(g), "{g:e}");
        }
    }

    #[test]
    fn pretty_indent_runs_past_the_space_slice() {
        // Deep enough that the innermost lines need more columns than
        // `NEWLINE_SPACES` holds.
        let depth = NEWLINE_SPACES.len() / 2 + 3;
        let mut v = Value::Int(1);
        for _ in 0..depth {
            v = Value::Seq(vec![v]);
        }
        let mut expected = String::new();
        for d in 0..depth {
            expected.push_str(&format!("{}[\n", " ".repeat(2 * d)));
        }
        expected.push_str(&format!("{}1\n", " ".repeat(2 * depth)));
        for d in (0..depth).rev() {
            expected.push_str(&format!("{}]", " ".repeat(2 * d)));
            expected.push('\n');
        }
        assert_eq!(to_string_pretty(&v), expected);
    }

    #[test]
    fn layout_literals_are_what_containers_write() {
        let item = Layout::PRETTY.inner();
        assert_eq!(Layout::COMPACT.member(true, "a\"b"), "{\"a\\\"b\":");
        assert_eq!(Layout::COMPACT.member(false, "k"), ",\"k\":");
        assert_eq!(Layout::COMPACT.inner(), Layout::COMPACT);
        assert_eq!(item.member(true, "k"), "{\n    \"k\": ");
        assert_eq!(item.member(false, "k"), ",\n    \"k\": ");
        assert_eq!(item.before_key(false), ",\n    ");
        assert_eq!(item.colon(), ": ");
        assert_eq!(item.close_object(), "\n  }");
        assert_eq!(item.empty_object(), "{}");
        // An object written from the literals reads as the tree writes it.
        let mut m = OrderedMap::new();
        m.insert("x", Value::Int(1));
        m.insert("y", Value::Map(OrderedMap::new()));
        let tree = to_string_pretty(&Value::Seq(vec![Value::Map(m)]));
        let literals = format!(
            "[\n  {}1{}{}{}\n]\n",
            item.member(true, "x"),
            item.member(false, "y"),
            item.inner().empty_object(),
            item.close_object(),
        );
        assert_eq!(literals, tree);
    }

    #[test]
    fn integers_write_like_display() {
        for i in [
            0,
            7,
            -7,
            10,
            -10,
            1_000_000,
            i64::MAX,
            i64::MIN,
            u32::MAX as i64,
        ] {
            assert_eq!(to_string(&Value::Int(i)), i.to_string());
        }
        for f in [-0.0, 0.0, 1.0, -1.0, 120.0, -999_999_999_999_999.0, 1e14] {
            let mut out = String::new();
            write_f64(&mut out, f);
            assert_eq!(out, format!("{f:.1}"));
        }
    }

    #[test]
    fn reader_walks_a_known_shape() {
        let text =
            " {\"n\": [1, 2.5], \"m\": {\"k\\u0041\": \"v\\n\"}, \"skip\": [{}], \"n\": []} ";
        let mut r = Reader::new(text);
        let mut seen = Vec::new();
        r.object(|r, key| {
            seen.push(key.to_string());
            match key {
                "n" => r.array(|r| {
                    seen.push(format!("{:?}", r.value()?));
                    Ok::<_, FormatError>(())
                }),
                "m" => r.object(|r, key| {
                    seen.push(format!("{key}={:?}", r.value()?));
                    Ok::<_, FormatError>(())
                }),
                _ => r.value().map(drop),
            }
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!(
            seen,
            [
                "n",
                "Int(1)",
                "Float(2.5)",
                "m",
                "kA=Str(\"v\\n\")",
                "skip",
                "n"
            ]
        );
        assert_eq!(Reader::new("  [").peek_token(), Some(b'['));
        assert_eq!(Reader::new("  ").peek_token(), None);
    }

    #[test]
    fn reader_rejects_what_parse_rejects() {
        let walk = |text: &str| -> Result<(), FormatError> {
            let mut r = Reader::new(text);
            r.array(|r| r.value().map(drop))?;
            r.finish()
        };
        for text in ["[1,]", "[1 2]", "[1] 2", "[\"a]", "[", "[tru]"] {
            assert!(walk(text).is_err(), "{text}");
            assert!(parse(text).is_err(), "{text}");
        }
        assert!(walk("{}").is_err(), "not an array");
        assert!(walk("[1, [2], {\"a\": null}]").is_ok());
        // Containers the caller walks count toward the depth limit too.
        fn nest(r: &mut Reader<'_>, left: usize) -> Result<(), FormatError> {
            if left == 0 {
                return r.value().map(drop);
            }
            r.array(|r| nest(r, left - 1))
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = nest(&mut Reader::new(&deep), 3).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(nest(&mut Reader::new(&ok), 3).is_ok());
    }

    #[test]
    fn huge_integer_falls_back_to_float() {
        let v = parse("99999999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }
}
