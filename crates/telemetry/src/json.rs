//! Minimal hand-rolled JSON emitter and parser.
//!
//! Supports exactly what the telemetry schema needs: objects with ordered
//! keys, arrays, strings, integers, floats, and null. Floats that are not
//! finite serialize as `null` (JSON has no NaN/Infinity); integer-valued
//! floats keep a trailing `.0` so consumers see a consistent number type.
//! The parser round-trips everything the emitter produces — in particular
//! finite `f64` values survive a render → parse cycle bitwise, which the
//! checkpoint/restart layer in `nwq-core` relies on.

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so without a cap one request line of a
/// million `[` would overflow the stack and abort the process; no
/// document the workspace writes nests deeper than a handful of levels.
const MAX_JSON_DEPTH: usize = 128;

/// A JSON value tree.
#[derive(Clone, Debug)]
pub enum JsonValue {
    /// `null`
    Null,
    /// JSON string (escaped on render).
    Str(String),
    /// Non-negative integer.
    Int(u64),
    /// Finite or non-finite float (non-finite renders as `null`).
    Float(f64),
    /// Ordered array.
    Array(Vec<JsonValue>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a JSON document. Accepts standard JSON (insignificant
    /// whitespace, string escapes, scientific notation); numbers parse to
    /// [`JsonValue::Int`] when they are plain non-negative integers that fit
    /// a `u64`, otherwise to [`JsonValue::Float`]. Trailing garbage after
    /// the top-level value is an error, and so is nesting arrays and
    /// objects more than 128 levels deep.
    pub fn parse(input: &str) -> std::result::Result<JsonValue, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Float` both convert; everything else is
    /// `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Unsigned-integer view. `Float` values convert only when they are
    /// exactly integer-valued and non-negative (the emitter writes `2.0`
    /// for integer-valued floats, so counters may come back either way).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f < u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object-fields view (insertion order preserved).
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Int(i) => out.push_str(&i.to_string()),
            JsonValue::Float(f) => {
                if f.is_finite() {
                    if f.fract() == 0.0 && f.abs() < 1e15 {
                        out.push_str(&format!("{f:.1}"));
                    } else {
                        out.push_str(&format!("{f}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Error from [`JsonValue::parse`]: a message plus the byte offset where
/// parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
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

    fn expect(&mut self, b: u8) -> std::result::Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(
        &mut self,
        word: &str,
        value: JsonValue,
    ) -> std::result::Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> std::result::Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Int(1)),
            Some(b'f') => self.literal("false", JsonValue::Int(0)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> std::result::Result<JsonValue, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> std::result::Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> std::result::Result<String, ParseError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates never appear in emitter output;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // slicing at a char boundary is safe via chars()).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("empty string tail"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> std::result::Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number spans ASCII bytes only");
        if !is_float {
            if let Ok(i) = text.parse::<u64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| ParseError {
                message: format!("invalid number '{text}'"),
                offset: start,
            })
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Builder for [`JsonValue::Object`] preserving insertion order.
#[derive(Default)]
pub struct Object {
    fields: Vec<(String, JsonValue)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Appends a field.
    pub fn push(&mut self, key: impl Into<String>, value: JsonValue) {
        self.fields.push((key.into(), value));
    }

    /// Finishes into a [`JsonValue`].
    pub fn into_value(self) -> JsonValue {
        JsonValue::Object(self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let mut inner = Object::new();
        inner.push("n", JsonValue::Int(3));
        inner.push("x", JsonValue::Float(1.5));
        let mut root = Object::new();
        root.push("a", inner.into_value());
        root.push(
            "list",
            JsonValue::Array(vec![JsonValue::Null, JsonValue::Str("hi".into())]),
        );
        assert_eq!(
            root.into_value().render(),
            r#"{"a":{"n":3,"x":1.5},"list":[null,"hi"]}"#
        );
    }

    #[test]
    fn escapes_and_specials() {
        let v = JsonValue::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Float(2.0).render(), "2.0");
        assert_eq!(JsonValue::Float(-0.25).render(), "-0.25");
    }

    #[test]
    fn parses_nested_structure() {
        let doc = r#" { "a" : { "n" : 3 , "x" : 1.5 } ,
                        "list" : [ null , "hi" , -2 , 1e3 , true ] } "#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(
            v.get("a")
                .and_then(|a| a.get("n"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.get("x"))
                .and_then(JsonValue::as_f64),
            Some(1.5)
        );
        let list = v.get("list").and_then(JsonValue::as_array).unwrap();
        assert!(matches!(list[0], JsonValue::Null));
        assert_eq!(list[1].as_str(), Some("hi"));
        assert_eq!(list[2].as_f64(), Some(-2.0));
        assert_eq!(list[3].as_f64(), Some(1000.0));
        assert_eq!(list[4].as_u64(), Some(1));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_string_escapes() {
        let v = JsonValue::parse(r#""a\"b\\c\ndé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{e9}"));
    }

    #[test]
    fn render_parse_round_trip_is_exact() {
        // Floats must survive render → parse bitwise: the checkpoint layer
        // stores optimizer trajectories this way and requires bit-identical
        // resumes. `{f}` emits the shortest round-trippable repr and
        // `{f:.1}` (integer-valued floats) is exact too.
        let samples = [
            0.1 + 0.2,
            -1.0863735643871554, // typical H2 energy
            1e-17,
            -0.0,
            3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            std::f64::consts::PI,
        ];
        for &x in &samples {
            let rendered = JsonValue::Float(x).render();
            let back = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:?} via {rendered}");
        }
        // Structured round trip preserves everything including key order.
        let mut obj = Object::new();
        obj.push("e", JsonValue::Float(-1.137270174657105));
        obj.push("k", JsonValue::Int(u64::MAX));
        obj.push("s", JsonValue::Str("θ=0.5\n".into()));
        let v = obj.into_value();
        let round = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(round.render(), v.render());
        assert_eq!(round.get("k").and_then(JsonValue::as_u64), Some(u64::MAX));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "12 34",
            "nul",
            "{\"x\":1}extra",
            "--1",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = JsonValue::parse("[1, oops]").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn nesting_is_capped() {
        let deep = "[".repeat(1_000_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_JSON_DEPTH);
        let at_cap = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(JsonValue::parse(&at_cap).is_ok());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_JSON_DEPTH),
            "}".repeat(MAX_JSON_DEPTH)
        );
        assert!(JsonValue::parse(&objects).is_ok());
        let over = format!("[{at_cap}]");
        assert!(JsonValue::parse(&over).is_err());
    }

    #[test]
    fn accessor_type_mismatches_are_none() {
        let v = JsonValue::parse(r#"{"s":"x","f":2.5,"neg":-1.0}"#).unwrap();
        assert!(v.get("s").unwrap().as_f64().is_none());
        assert!(v.get("f").unwrap().as_str().is_none());
        assert!(v.get("f").unwrap().as_u64().is_none(), "2.5 is not a u64");
        assert!(v.get("neg").unwrap().as_u64().is_none());
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        // Integer-valued float counters convert.
        let c = JsonValue::parse("7.0").unwrap();
        assert_eq!(c.as_u64(), Some(7));
        assert!(v.as_object().is_some());
        assert!(v.as_array().is_none());
    }
}
