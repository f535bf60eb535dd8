//! The workspace's one JSON module: a value, an object builder, the one
//! string escaper, a compact printer, a document printer and a parser.
//! Objects keep insertion order and numbers keep their printed text, so a
//! parse → print round trip gives the same bytes back.

use std::fmt;
use std::str::Chars;

/// A JSON value. Numbers keep their printed text (`40`, `0.2694`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(JsonObj),
}

/// A JSON object, members in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObj {
    members: Vec<(String, Json)>,
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Json {
    /// `v` with `decimals` fixed decimals; `null` if not finite.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// Member `k`, if this is an object that has one.
    pub fn get(&self, k: &str) -> Option<&Json> {
        match self {
            Json::Obj(o) => o.get(k),
            _ => None,
        }
    }

    /// The document form: the outermost container, and every container
    /// holding an array of containers, one member or element per line;
    /// everything else compact. Ends with a newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some("\n"));
        out + "\n"
    }

    /// Compact when `newline` is `None`; otherwise `newline` (a line break
    /// plus the current indent, a bare `"\n"` for the outermost container)
    /// lays out a document.
    fn write(&self, out: &mut String, newline: Option<&str>) {
        let (open, items): (char, Vec<(Option<&String>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return out.push_str(&format!("\"{}\"", escape(s))),
            Json::Arr(a) => ('[', a.iter().map(|v| (None, v)).collect()),
            Json::Obj(o) => ('{', o.members.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let newline = newline.filter(|nl| !items.is_empty() && (*nl == "\n" || self.spreads()));
        let inner = newline.map(|nl| format!("{nl}  "));
        out.push(open);
        for (i, (k, v)) in items.into_iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            out.push_str(inner.as_deref().unwrap_or_default());
            if let Some(k) = k {
                let space = if newline.is_some() { " " } else { "" };
                out.push_str(&format!("\"{}\":{space}", escape(k)));
            }
            v.write(out, inner.as_deref());
        }
        out.push_str(newline.unwrap_or_default());
        out.push(if open == '[' { ']' } else { '}' });
    }

    /// True if an array of containers sits anywhere inside.
    fn spreads(&self) -> bool {
        match self {
            Json::Arr(a) => a.iter().any(|v| matches!(v, Json::Arr(_) | Json::Obj(_))),
            Json::Obj(o) => o.members.iter().any(|(_, v)| v.spreads()),
            _ => false,
        }
    }
}

/// The compact, one-line form.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from! {
    bool => |b| Json::Bool(b);
    u64 => |v| Json::Num(v.to_string());
    &str => |s| Json::Str(s.to_string());
    &String => |s| Json::Str(s.clone());
    JsonObj => |o| Json::Obj(o);
    Vec<Json> => |a| Json::Arr(a);
    Option<u64> => |v| v.map_or(Json::Null, Json::from);
    Option<bool> => |v| v.map_or(Json::Null, Json::from);
}

impl JsonObj {
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    /// Sets member `k`: replaces its value in place, or appends it.
    pub fn set(&mut self, k: &str, v: impl Into<Json>) -> &mut Self {
        match self.members.iter_mut().find(|(key, _)| key == k) {
            Some(m) => m.1 = v.into(),
            None => self.members.push((k.to_string(), v.into())),
        }
        self
    }

    pub fn get(&self, k: &str) -> Option<&Json> {
        self.members.iter().find(|m| m.0 == k).map(|m| &m.1)
    }

    /// A `0x`-prefixed hex string (addresses and PCs).
    pub fn hex(&mut self, k: &str, v: u64) -> &mut Self {
        self.set(k, format!("0x{v:x}").as_str())
    }

    pub fn u64_list(&mut self, k: &str, vs: &[u64]) -> &mut Self {
        self.set(k, vs.iter().map(|&v| v.into()).collect::<Vec<Json>>())
    }

    /// The object as one compact line.
    pub fn finish(&self) -> String {
        Json::Obj(self.clone()).to_string()
    }
}

/// Parses one JSON value with optional surrounding whitespace. Never
/// panics: containers nested deeper than 128 are an error. A repeated
/// member name keeps its first position and its last value.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut rest = text;
    let what = match value(&mut rest, 0) {
        Ok(v) if ws(&mut rest).is_empty() => return Ok(v),
        Ok(_) => "trailing characters",
        Err(what) => what,
    };
    Err(format!("{what} at byte {}", text.len() - rest.len()))
}

type Parsed<T> = Result<T, &'static str>;

/// Skips whitespace; returns the rest.
fn ws<'a>(s: &mut &'a str) -> &'a str {
    *s = s.trim_start_matches([' ', '\t', '\n', '\r']);
    s
}

/// Skips whitespace, then consumes `c` if it comes next.
fn eat(s: &mut &str, c: char) -> bool {
    ws(s).strip_prefix(c).map(|rest| *s = rest).is_some()
}

fn value(s: &mut &str, depth: usize) -> Parsed<Json> {
    if depth > 128 {
        return Err("nested too deeply");
    }
    if eat(s, '[') {
        let mut a = Vec::new();
        items(s, ']', |s| {
            a.push(value(s, depth + 1)?);
            Ok(())
        })?;
        return Ok(Json::Arr(a));
    }
    if eat(s, '{') {
        let mut o = JsonObj::new();
        items(s, '}', |s| {
            ws(s);
            let k = string(s)?;
            eat(s, ':').then_some(()).ok_or("expected `:`")?;
            o.set(&k, value(s, depth + 1)?);
            Ok(())
        })?;
        return Ok(Json::Obj(o));
    }
    if s.starts_with('"') {
        return string(s).map(Json::Str);
    }
    let (word, v) = match s.as_bytes().first() {
        Some(b't') => ("true", Json::Bool(true)),
        Some(b'f') => ("false", Json::Bool(false)),
        Some(b'n') => ("null", Json::Null),
        _ => return number(s),
    };
    *s = s.strip_prefix(word).ok_or("expected a value")?;
    Ok(v)
}

/// `item (, item)* close`, or just `close`.
fn items(s: &mut &str, close: char, mut item: impl FnMut(&mut &str) -> Parsed<()>) -> Parsed<()> {
    let mut first = true;
    while !eat(s, close) {
        if !first && !eat(s, ',') {
            return Err("expected `,` or a closing bracket");
        }
        item(s)?;
        first = false;
    }
    Ok(())
}

/// A number as the JSON grammar has it, kept as its text.
fn number(s: &mut &str) -> Parsed<Json> {
    let b = s.as_bytes();
    let digits = |from: usize| from + b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
    let sign = usize::from(b.first() == Some(&b'-'));
    let mut end = digits(sign);
    let mut ok = end > sign && (b[sign] != b'0' || end == sign + 1);
    if b.get(end) == Some(&b'.') {
        let frac = digits(end + 1);
        ok &= frac > end + 1;
        end = frac;
    }
    if matches!(b.get(end), Some(b'e' | b'E')) {
        let from = end + 1 + usize::from(matches!(b.get(end + 1), Some(b'+' | b'-')));
        end = digits(from);
        ok &= end > from;
    }
    let (n, rest) = s.split_at(end);
    *s = rest;
    ok.then(|| Json::Num(n.to_string()))
        .ok_or("expected a value")
}

/// A string literal; `s` must start at its opening quote.
fn string(s: &mut &str) -> Parsed<String> {
    let mut chars = s.strip_prefix('"').ok_or("expected a string")?.chars();
    let mut out = String::new();
    loop {
        match chars.next().ok_or("unterminated string")? {
            '"' => break,
            '\\' => out.push(escaped(&mut chars)?),
            c if c < ' ' => return Err("control character in string"),
            c => out.push(c),
        }
    }
    *s = chars.as_str();
    Ok(out)
}

/// One escape sequence, after its backslash.
fn escaped(chars: &mut Chars) -> Parsed<char> {
    let c = chars.next().ok_or("unterminated string")?;
    if let Some(i) = "\"\\/bfnrt".find(c) {
        return Ok("\"\\/\u{8}\u{c}\n\r\t".as_bytes()[i] as char);
    }
    if c != 'u' {
        return Err("bad escape");
    }
    let mut cp = hex4(chars)?;
    if (0xd800..0xdc00).contains(&cp) && chars.as_str().starts_with("\\u") {
        chars.nth(1);
        let low = hex4(chars)?;
        if !(0xdc00..0xe000).contains(&low) {
            return Err("unpaired surrogate");
        }
        cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
    }
    char::from_u32(cp).ok_or("unpaired surrogate")
}

fn hex4(chars: &mut Chars) -> Parsed<u32> {
    let hex: String = chars.take(4).collect();
    let ok = hex.len() == 4 && hex.bytes().all(|b| b.is_ascii_hexdigit());
    u32::from_str_radix(&hex, 16)
        .ok()
        .filter(|_| ok)
        .ok_or("bad \\u escape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    #[test]
    fn builds_objects_in_order() {
        let mut inner = JsonObj::new();
        inner.set("n", 1u64);
        let mut o = JsonObj::new();
        o.set("a", "x\"y")
            .set("b", 7u64)
            .set("c", true)
            .set("d", Json::Null);
        o.u64_list("e", &[1, 2]).hex("f", 0x10).set("g", Vec::new());
        o.set("h", inner)
            .set("i", Json::fixed(0.5, 3))
            .set("j", None::<u64>);
        assert_eq!(
            o.finish(),
            r#"{"a":"x\"y","b":7,"c":true,"d":null,"e":[1,2],"f":"0x10","g":[],"h":{"n":1},"i":0.500,"j":null}"#
        );
        assert_eq!(JsonObj::new().finish(), "{}");
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
    }

    #[test]
    fn set_replaces_in_place_or_appends() {
        let mut o = JsonObj::new();
        o.set("a", 1u64).set("b", 2u64);
        o.set("a", 3u64).set("c", 4u64);
        assert_eq!(o.finish(), r#"{"a":3,"b":2,"c":4}"#);
        assert_eq!(o.get("b"), Some(&Json::from(2u64)));
        assert_eq!(o.get("z"), None);
        // A repeated name in parsed text keeps its first place, last value.
        assert_eq!(
            parse(r#"{"a":1,"b":2,"a":3}"#).unwrap().to_string(),
            r#"{"a":3,"b":2}"#
        );
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escape("a\nb\t\u{1}\\"), "a\\nb\\t\\u0001\\\\");
    }

    #[test]
    fn pretty_spreads_only_containers_that_hold_arrays_of_containers() {
        let doc =
            r#"{"bench":"x","rows":[{"a":1,"h":{"b":[1,2]}},{"a":2}],"m":{"k":[{"c":1}]},"e":{}}"#;
        let v = parse(doc).unwrap();
        let pretty = v.pretty();
        assert_eq!(
            pretty,
            "{\n  \"bench\": \"x\",\n  \"rows\": [\n    {\"a\":1,\"h\":{\"b\":[1,2]}},\n    \
             {\"a\":2}\n  ],\n  \"m\": {\n    \"k\": [\n      {\"c\":1}\n    ]\n  },\n  \
             \"e\": {}\n}\n"
        );
        assert_eq!(parse(&pretty), Ok(v));
        let mut one = JsonObj::new();
        one.set("a", 1u64);
        assert_eq!(Json::Obj(one).pretty(), "{\n  \"a\": 1\n}\n");
    }

    #[test]
    fn parses_numbers_escapes_and_whitespace_exactly() {
        let v = parse(" {\"n\": [0, -1.50, 2e+3, 4E-2], \"s\": \"\\u00e9\\ud83d\\ude00\\/\\b\"} ")
            .unwrap();
        assert_eq!(
            v.to_string(),
            "{\"n\":[0,-1.50,2e+3,4E-2],\"s\":\"é😀/\\u0008\"}"
        );
        assert_eq!(v.get("s"), Some(&Json::from("é😀/\u{8}")));
    }

    #[test]
    fn rejects_malformed_text() {
        for bad in [
            "",
            "{",
            "{\"a\":1",
            "{\"a\":1}x",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{a:1}",
            "\"abc",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"a\nb\"",
            "01",
            "-",
            "1.",
            "1e",
            "tru",
            "nul",
            "[1]]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse(&"[".repeat(200)).is_err());
        assert!(parse(&format!("{}{}", "[".repeat(100), "]".repeat(100))).is_ok());
    }

    /// Random JSON values, containers up to `depth` deep; strings mix
    /// quotes, backslashes, control characters and non-ASCII text.
    struct AnyJson {
        depth: u32,
    }

    fn any_string(rng: &mut TestRng) -> String {
        const CHARS: &[char] = &[
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '→', '😀',
        ];
        (0..rng.below(6))
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }

    impl Strategy for AnyJson {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Json {
            let kinds = if self.depth == 0 { 5 } else { 7 };
            let inner = AnyJson {
                depth: self.depth - self.depth.min(1),
            };
            match rng.below(kinds) {
                0 => Json::Null,
                1 => Json::Bool(rng.next_u64() & 1 == 1),
                2 => Json::from(rng.next_u64()),
                3 => Json::fixed(rng.next_u64() as f64 / 1e6 - 9e12, rng.below(5) as usize),
                4 => Json::Str(any_string(rng)),
                5 => Json::Arr((0..rng.below(4)).map(|_| inner.generate(rng)).collect()),
                _ => {
                    let mut o = JsonObj::new();
                    for _ in 0..rng.below(4) {
                        o.set(&any_string(rng), inner.generate(rng));
                    }
                    Json::Obj(o)
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_inverts_both_printers(v in AnyJson { depth: 3 }) {
            prop_assert_eq!(parse(&v.to_string()), Ok(v.clone()));
            prop_assert_eq!(parse(&v.pretty()), Ok(v.clone()));
        }

        #[test]
        fn parse_never_panics(picks in proptest::collection::vec(any::<u8>(), 0..40)) {
            // JSON punctuation, escape letters and multi-byte characters, so
            // the parser gets deep and hits every error path.
            const CHARS: &[char] = &[
                '{', '}', '[', ']', '"', ',', ':', '\\', '0', '1', '9', '-', '.', 'e', 'E', '+',
                't', 'r', 'u', 'e', 'n', 'l', 'f', 'a', 's', 'b', 'x', 'd', ' ', '\n', 'é', '😀',
            ];
            let text: String = picks.iter().map(|&b| CHARS[b as usize % CHARS.len()]).collect();
            let _ = parse(&text);
        }

        #[test]
        fn parse_of_truncated_documents_fails(v in AnyJson { depth: 3 }, cut in 0usize..1000) {
            let text = v.pretty();
            let cut = cut % text.trim_end().len().max(1);
            // A prefix of a container or a string never parses.
            if text.starts_with(['{', '[', '"']) && text.is_char_boundary(cut) {
                prop_assert!(parse(&text[..cut]).is_err());
            }
        }
    }
}
