//! The workspace's one JSON writer and its one parser (no serde — this
//! crate is dependency-free).
//!
//! [`Writer`] is a streaming builder: containers open with a [`Layout`]
//! that fixes their whitespace, members are written in call order, strings
//! are escaped and non-finite numbers become `null` in one place. The three
//! layouts cover every document the workspace emits — Chrome traces
//! (`Compact`), benchmark snapshots, the cluster stats report and the lint
//! report (`Block` outside, `Inline` rows) — byte for byte as their
//! hand-rolled predecessors wrote them, so committed baselines stay valid.
//! [`parse`] reads any of them back into a [`Json`] tree.

/// How a container separates its members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `{"a":1,"b":[2,3]}` — no whitespace at all.
    Compact,
    /// `{"a": 1, "b": [2, 3]}` — one line, a space after `,` and `:`.
    Inline,
    /// One member per line, indented two spaces per open container; the
    /// closing bracket sits on its own line. Only nests inside `Block`.
    Block,
}

struct Open {
    layout: Layout,
    close: char,
    members: usize,
}

/// A streaming JSON builder (see module docs).
#[derive(Default)]
pub struct Writer {
    out: String,
    open: Vec<Open>,
    /// A key was just written: the next value follows it directly.
    after_key: bool,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Separator before the next member of the innermost container.
    fn sep(&mut self) {
        let depth = self.open.len();
        let Some(top) = self.open.last_mut() else {
            return;
        };
        if top.members > 0 {
            self.out.push_str(if top.layout == Layout::Inline {
                ", "
            } else {
                ","
            });
        }
        top.members += 1;
        if top.layout == Layout::Block {
            self.newline(depth);
        }
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else {
            self.sep();
        }
    }

    fn container(
        &mut self,
        layout: Layout,
        brackets: (char, char),
        fill: impl FnOnce(&mut Writer),
    ) {
        self.before_value();
        self.out.push(brackets.0);
        self.open.push(Open {
            layout,
            close: brackets.1,
            members: 0,
        });
        fill(self);
        if let Some(done) = self.open.pop() {
            if done.layout == Layout::Block {
                self.newline(self.open.len());
            }
            self.out.push(done.close);
        }
    }

    /// Write an object as the next value; `fill` writes its members with
    /// [`Writer::field`] / [`Writer::key`].
    pub fn object(&mut self, layout: Layout, fill: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container(layout, ('{', '}'), fill);
        self
    }

    /// Write an array as the next value; `fill` writes its elements.
    pub fn array(&mut self, layout: Layout, fill: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container(layout, ('[', ']'), fill);
        self
    }

    /// Write a member key; the next value written belongs to it.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        key.write_json(&mut self.out);
        let compact = self
            .open
            .last()
            .is_some_and(|o| o.layout == Layout::Compact);
        self.out.push_str(if compact { ":" } else { ": " });
        self.after_key = true;
        self
    }

    /// Write a scalar as the next value (array element, or after `key`).
    pub fn value(&mut self, v: impl Value) -> &mut Self {
        self.before_value();
        v.write_json(&mut self.out);
        self
    }

    /// `key` then a scalar `value`.
    pub fn field(&mut self, key: &str, v: impl Value) -> &mut Self {
        self.key(key).value(v)
    }

    /// The finished document (every container closed by construction).
    pub fn finish(self) -> String {
        self.out
    }
}

/// A scalar the writer can emit.
pub trait Value {
    fn write_json(&self, out: &mut String);
}

/// JSON `null`.
pub struct Null;

impl Value for Null {
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl Value for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! int_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                use std::fmt::Write;
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
int_value!(u16, u32, u64, usize, i64);

/// Finite numbers in Rust's shortest round-trip form; NaN and the
/// infinities, which JSON cannot spell, as `null`.
impl Value for f64 {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Value for &str {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Value for &String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON value (objects keep member order).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (errors carry a byte offset).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit.as_bytes() {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut kvs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(kvs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos)?;
                kvs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(kvs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, *pos)),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the full UTF-8 sequence starting at this byte.
                let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                let ch = s.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let j = parse(r#"{"a":[1,2.5,-3e2],"b":"x\"y","c":null,"d":true}"#).expect("parse");
        assert_eq!(j.get("b").and_then(Json::as_str), Some("x\"y"));
        assert_eq!(j.get("c"), Some(&Json::Null));
        match j.get("a") {
            Some(Json::Arr(items)) => assert_eq!(items[2], Json::Num(-300.0)),
            other => panic!("bad array: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
    }

    #[test]
    fn layouts_place_whitespace_and_nothing_else() {
        let doc = |outer: Layout, inner: Layout| {
            let mut w = Writer::new();
            w.object(outer, |w| {
                w.field("n", 1u64);
                w.key("xs").array(inner, |w| {
                    w.value(1.5).value(f64::NAN);
                });
                w.key("o").object(inner, |_| {});
            });
            w.finish()
        };
        assert_eq!(
            doc(Layout::Compact, Layout::Compact),
            r#"{"n":1,"xs":[1.5,null],"o":{}}"#
        );
        assert_eq!(
            doc(Layout::Inline, Layout::Inline),
            r#"{"n": 1, "xs": [1.5, null], "o": {}}"#
        );
        assert_eq!(
            doc(Layout::Block, Layout::Block),
            "{\n  \"n\": 1,\n  \"xs\": [\n    1.5,\n    null\n  ],\n  \"o\": {\n  }\n}"
        );
        assert_eq!(
            doc(Layout::Block, Layout::Inline),
            "{\n  \"n\": 1,\n  \"xs\": [1.5, null],\n  \"o\": {}\n}"
        );
    }

    #[test]
    fn strings_escape_and_roundtrip_through_the_parser() {
        let nasty = "quote\" slash\\ nl\n cr\r tab\t bell\u{7} µs";
        let mut w = Writer::new();
        w.object(Layout::Inline, |w| {
            w.field(nasty, nasty).field("none", Null).field("t", true);
        });
        let text = w.finish();
        assert!(text.contains("\\u0007") && text.contains("\\r") && text.contains("\\t"));
        let back = parse(&text).expect("own output parses");
        assert_eq!(back.get(nasty).and_then(Json::as_str), Some(nasty));
        assert_eq!(back.get("none"), Some(&Json::Null));
        assert_eq!(back.get("t"), Some(&Json::Bool(true)));
    }
}
