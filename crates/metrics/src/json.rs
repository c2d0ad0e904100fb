//! The workspace's one JSON codec: a value type, its compact writer and its
//! strict parser.
//!
//! Every document this repo emits — `results/BENCH_*.json`, Chrome traces,
//! `sg-check` counterexamples, the `/json`, `/audit`, `/query` and
//! `/healthz` endpoints, the audit plane's JSONL sentinels — is built as a
//! [`Json`] value and written by its [`Display`](fmt::Display) impl, and
//! every reader goes through [`Json::parse`]. The workspace carries no
//! external dependencies, so this is deliberately small:
//!
//! * **Writer.** Compact (`,` and `:` with no whitespace), object members in
//!   insertion order, RFC 8259 string escapes (`"`, `\`, `\n`, `\r`, `\t`,
//!   every other control character as `\u00XX`), [`Json::U64`] as exact
//!   decimal digits, and [`Json::Num`] in Rust's shortest round-trip form
//!   (always with a `.` or an exponent, so it reads back as a float);
//!   NaN and ±∞ have no JSON spelling and are written as `null`.
//! * **Parser.** UTF-8 input, `\uXXXX` escapes decoded (surrogate pairs
//!   included), an unsigned integer literal that fits a `u64` as
//!   [`Json::U64`], every other number as [`Json::Num`], objects as ordered
//!   key/value vectors, nesting capped at [`MAX_NESTING_DEPTH`].
//!
//! So `Json::parse(&x.to_string()) == Ok(x)` for every value with finite
//! numbers that nests no deeper than the parser accepts.

use std::fmt::{self, Write as _};
use std::io;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A non-negative integer, exact over the whole `u64` range.
    U64(u64),
    /// Any other number.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with `members`, in order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.map(|(k, v)| (k.to_owned(), v)).into())
    }

    /// Append a member to an object (a no-op on any other value).
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        if let Json::Obj(members) = self {
            members.push((key.to_owned(), value.into()));
        }
    }

    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
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

    /// Member lookup on objects (first occurrence of `key`).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Integers exactly; other numbers (or numeric strings, as the trace
    /// metadata record stores them) as `u64`, rounding halves up.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 => Some((*n + 0.5) as u64),
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::U64(n as u64)
            }
        }
    )*};
}

from_unsigned!(u64, u32, usize);

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write!(f, "{n}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// `s` as a quoted JSON string with RFC 8259 escapes.
fn write_str(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
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

/// Write the object `{<members>,"<key>":[<items>]}` to `w`, building and
/// writing one item at a time, so a document whose last member is a long
/// array (a Chrome trace's `traceEvents`) never exists in memory whole.
pub fn write_streaming_object<W: io::Write>(
    mut w: W,
    members: &[(&str, Json)],
    key: &str,
    items: impl IntoIterator<Item = Json>,
) -> io::Result<()> {
    let mut buf = String::from("{");
    for (k, v) in members {
        let _ = write_str(&mut buf, k);
        let _ = write!(buf, ":{v},");
    }
    let _ = write_str(&mut buf, key);
    buf.push_str(":[");
    w.write_all(buf.as_bytes())?;
    for (i, item) in items.into_iter().enumerate() {
        buf.clear();
        if i > 0 {
            buf.push(',');
        }
        let _ = write!(buf, "{item}");
        w.write_all(buf.as_bytes())?;
    }
    w.write_all(b"]}")?;
    w.flush()
}

/// Parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest container nesting [`Json::parse`] accepts. The parser recurses
/// per nesting level, so without a ceiling a tiny hostile document
/// (`[[[[…`) overflows the stack; every file this repo writes nests a
/// handful of levels, leaving ample margin.
pub const MAX_NESTING_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &[u8], value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// `open` then zero or more `item`s separated by commas, then `close`.
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.enter()?;
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(self.err(&format!(
                        "expected ',' or '{}' after an item",
                        close as char
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        let mut members = Vec::new();
        self.sequence(b'{', b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            members.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(members))
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        let mut items = Vec::new();
        self.sequence(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a \uXXXX low half must follow.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one whole UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let v = digits.iter().fold(0, |acc, &d| {
            acc * 16 + (d as char).to_digit(16).unwrap_or(0)
        });
        self.pos += 4;
        Ok(v)
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if let Ok(n) = s.parse::<u64>() {
            return Ok(Json::U64(n));
        }
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": "x\"y\u0041\n", "c": true, "d": null}"#;
        let v = Json::parse(doc).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0], Json::U64(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"yA\n"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn numeric_strings_coerce_to_u64() {
        let v = Json::parse(r#"{"makespan_ns":"123456789"}"#).unwrap();
        assert_eq!(v.get("makespan_ns").unwrap().as_u64(), Some(123_456_789));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        for bad in [
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\u12g4""#,
            r#""\u+123""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // Far past the limit: must come back as a parse error, not a
        // stack overflow.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let doc = format!("{}null{}", open.repeat(4000), close.repeat(4000));
            let err = Json::parse(&doc).unwrap_err();
            assert!(err.message.contains("nesting too deep"), "{err}");
        }
        // At the limit: fine.
        let depth = MAX_NESTING_DEPTH;
        let ok = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!("{}0{}", "[".repeat(depth + 1), "]".repeat(depth + 1));
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
            "01x",
            "\"\\q\"",
            "\"tab\there\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn writes_compact_documents_byte_for_byte() {
        let mut doc = Json::obj([
            ("schema_version", 2u64.into()),
            ("bench", "fig1".into()),
            ("cells", Json::Arr(vec![])),
            ("big", u64::MAX.into()),
            ("none", None::<u64>.into()),
        ]);
        doc.push("ok", true);
        doc.push("esc", "q\"b\\n\n\u{1}");
        assert_eq!(
            doc.to_string(),
            r#"{"schema_version":2,"bench":"fig1","cells":[],"big":18446744073709551615,"none":null,"ok":true,"esc":"q\"b\\n\n\u0001"}"#
        );
        let floats: Json = [1.5, 2.0, -0.25, 1e21, 1e-7].into_iter().collect();
        assert_eq!(floats.to_string(), "[1.5,2.0,-0.25,1e21,1e-7]");
    }

    #[test]
    fn non_finite_floats_write_as_null() {
        let doc: Json = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .collect();
        assert_eq!(doc.to_string(), "[null,null,null]");
        assert_eq!(
            Json::parse(&doc.to_string()).unwrap(),
            Json::Arr(vec![Json::Null; 3])
        );
    }

    #[test]
    fn streaming_object_matches_the_whole_value() {
        let items = || (0..3u64).map(|i| Json::obj([("i", i.into())]));
        let mut out = Vec::new();
        write_streaming_object(&mut out, &[("unit", "ms".into())], "events", items()).unwrap();
        let whole = Json::obj([("unit", "ms".into()), ("events", items().collect())]);
        assert_eq!(String::from_utf8(out).unwrap(), whole.to_string());
    }

    /// A tiny deterministic generator for the round-trip trees.
    struct Rng(sg_graph::SplitMix64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0.next_u64()
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A string mixing ASCII, escapes, every control character, BMP
    /// characters and astral ones (surrogate pairs when `\u`-escaped).
    fn random_string(rng: &mut Rng) -> String {
        const POOL: [char; 12] = [
            'a',
            'Z',
            '"',
            '\\',
            '/',
            '\n',
            '\u{7f}',
            'é',
            '€',
            '\u{FFFF}',
            '😀',
            '\u{10FFFF}',
        ];
        (0..rng.below(8))
            .map(|_| match rng.below(3) {
                0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
                _ => POOL[rng.below(POOL.len() as u64) as usize],
            })
            .collect()
    }

    fn random_float(rng: &mut Rng) -> f64 {
        loop {
            let f = match rng.below(3) {
                0 => f64::from_bits(rng.next()),
                1 => (rng.next() >> 11) as f64 / (1u64 << 53) as f64,
                _ => -((rng.below(1 << 20)) as f64) / 8.0,
            };
            if f.is_finite() {
                return f;
            }
        }
    }

    fn random_tree(rng: &mut Rng, depth: usize) -> Json {
        let leaf = depth >= MAX_NESTING_DEPTH || rng.below(3) == 0;
        match if leaf { rng.below(6) } else { 6 + rng.below(2) } {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            // Above 2^53 half the time: an f64 would round these.
            2 => Json::U64(rng.next() >> rng.below(64)),
            3 => Json::Num(random_float(rng)),
            4 | 5 => Json::Str(random_string(rng)),
            6 => Json::Arr(
                (0..rng.below(4))
                    .map(|_| random_tree(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| (random_string(rng), random_tree(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// `parse(write(x)) == x` over seeded random trees.
    #[test]
    fn random_trees_round_trip() {
        let mut rng = Rng(sg_graph::SplitMix64::new(0x5EED_0000_0000_0037));
        for _ in 0..2_000 {
            let tree = random_tree(&mut rng, 1);
            let text = tree.to_string();
            assert_eq!(Json::parse(&text).as_ref(), Ok(&tree), "{text}");
        }
    }

    /// The deepest document the parser accepts survives the round trip,
    /// with a surrogate-pair string and a >2^53 integer at the bottom.
    #[test]
    fn deepest_tree_round_trips() {
        let mut tree = Json::obj([
            ("k\u{0}\u{1f}", Json::Arr(vec![Json::Obj(vec![])])),
            ("astral", "😀\u{10FFFF}".into()),
            ("exact", ((1u64 << 53) + 1).into()),
        ]);
        for depth in 3..MAX_NESTING_DEPTH {
            tree = if depth % 2 == 0 {
                Json::Arr(vec![tree])
            } else {
                Json::obj([("d", tree)])
            };
        }
        let text = tree.to_string();
        assert_eq!(Json::parse(&text), Ok(tree));
        assert!(Json::parse(&format!("[{text}]")).is_err());
        // Escaped input decodes to the same value the writer started from.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00\udbff\udfff""#),
            Ok(Json::Str("😀\u{10FFFF}".into()))
        );
    }
}
