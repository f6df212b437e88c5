//! The one JSON implementation: a hand-rolled value type, its compact
//! renderer, and a depth-capped parser (the build environment has no
//! registry access). Every JSON text in the workspace goes through
//! it: the `implicitd` wire format, the conformance report, the bench
//! artifact, `tracecheck`'s input, and — through [`write_string`] —
//! the Chrome trace writer.
//!
//! Decoding is linear in the input: a string is copied one run of
//! plain bytes at a time, up to the next `"` or `\`. Both delimiters
//! are ASCII, so in a `&str` source every run ends on a character
//! boundary and is already valid UTF-8.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (counters, lengths, budgets).
    Int(i64),
    /// A float, rendered with limited precision.
    Num(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object fields.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:.3}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
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
                    write_string(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload (`Int` exactly, `Num` if integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(x) if x.fract() == 0.0 && x.is_finite() => Some(*x as i64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// String field accessor: `get(key)` then `as_str`.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Integer field accessor: `get(key)` then `as_i64`.
    pub fn int_field(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Json::as_i64)
    }
}

/// Appends `s` to `out` as a quoted JSON string literal: `"` and `\`
/// backslash-escaped, `\n`/`\r`/`\t` by name, other control
/// characters as `\u00XX`, everything else verbatim.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
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

/// Parses one JSON document (the renderer's grammar plus the standard
/// escapes and number forms it never emits), rejecting trailing
/// garbage. Time is linear in `src.len()`.
///
/// # Errors
///
/// A human-readable description of the first syntax error, with its
/// byte offset.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

/// Maximum JSON nesting depth the parser accepts — bounds recursion
/// on adversarial `[[[[…` payloads long before the stack does.
const MAX_JSON_DEPTH: usize = 512;

struct JsonParser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_JSON_DEPTH {
            return Err(format!("nesting deeper than {MAX_JSON_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    fields.push((k, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number `{text}` at byte {start}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("invalid integer `{text}` at byte {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next delimiter in one step.
            let Some(run) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err("unterminated string".to_owned());
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
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
                    if self.pos + 4 >= self.bytes.len() {
                        return Err("truncated \\u escape".to_owned());
                    }
                    let hex = self
                        .src
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| "invalid \\u escape".to_owned())?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| "invalid \\u escape".to_owned())?;
                    // The renderer only emits \u for control
                    // characters; accept any BMP scalar and map
                    // surrogates to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(format!("invalid escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn json_parses_what_it_renders() {
        let j = Json::obj(vec![
            ("s", Json::Str("a\"b\\c\nd\u{1}".into())),
            ("n", Json::Int(-3)),
            ("x", Json::Num(1.5)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
            ("a", Json::Arr(vec![Json::Int(1), Json::Str("two".into())])),
            ("o", Json::obj(vec![("k", Json::Int(9))])),
            ("k\"\u{2}", Json::Str("é€😀".into())),
        ]);
        let round = parse_json(&j.render()).expect("roundtrip parse");
        assert_eq!(round.render(), j.render());
        assert_eq!(round.str_field("s"), Some("a\"b\\c\nd\u{1}"));
        assert_eq!(round.int_field("n"), Some(-3));
        assert_eq!(round.get("x").and_then(Json::as_i64), None);
        assert_eq!(round.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(round.get("o").and_then(|o| o.int_field("k")), Some(9));
        assert_eq!(round.str_field("k\"\u{2}"), Some("é€😀"));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"k\":}",
            "01x",
            "nulll x",
            "[1] 2",
            "{\"k\" 1}",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
        // Depth bomb: bounded error, not a stack overflow.
        let bomb = "[".repeat(100_000);
        assert!(parse_json(&bomb).is_err());
    }

    /// The decoder this module used to have, kept as the oracle: one
    /// UTF-8 scalar per step, each step re-validating the rest of the
    /// input. Same grammar and messages, quadratic time.
    /// `pos` is at the opening `"`.
    fn per_scalar_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos).copied() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if *pos + 4 >= bytes.len() {
                                return Err("truncated \\u escape".to_owned());
                            }
                            let hex = std::str::from_utf8(&bytes[*pos + 1..*pos + 5])
                                .map_err(|_| "invalid \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_owned())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_owned())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    /// [`parse_json`] restricted to the generated shape — an array of
    /// strings — with the oracle decoding every string.
    fn oracle_parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let ws = |pos: &mut usize| {
            while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                *pos += 1;
            }
        };
        let mut pos = 0;
        ws(&mut pos);
        if bytes.get(pos) != Some(&b'[') {
            return Err(format!("unexpected byte at {pos}"));
        }
        pos += 1;
        let mut items = Vec::new();
        ws(&mut pos);
        if bytes.get(pos) == Some(&b']') {
            pos += 1;
        } else {
            loop {
                ws(&mut pos);
                if bytes.get(pos) != Some(&b'"') {
                    return Err(format!("unexpected byte at {pos}"));
                }
                items.push(Json::Str(per_scalar_string(bytes, &mut pos)?));
                ws(&mut pos);
                match bytes.get(pos) {
                    Some(b',') => pos += 1,
                    Some(b']') => {
                        pos += 1;
                        break;
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        ws(&mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(Json::Arr(items))
    }

    /// SplitMix64: a seeded, dependency-free generator for the
    /// differential documents.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
            xs[self.below(xs.len())]
        }
    }

    /// One piece of a string body: plain text of every UTF-8 width,
    /// every escape, `\u` forms (surrogates, odd digits, truncated),
    /// raw control bytes, and invalid escapes.
    fn body_piece(rng: &mut Rng, out: &mut String) {
        match rng.below(10) {
            0..=2 => out.push_str(rng.pick(&["a", "Z", " ", "0", "~", "{", "]", ",", ":"])),
            3 => out.push_str(rng.pick(&["é", "ß", "ж"])),
            4 => out.push_str(rng.pick(&["€", "中", "\u{fffd}"])),
            5 => out.push_str(rng.pick(&["😀", "𝄞"])),
            6 => {
                out.push_str(rng.pick(&["\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f"]))
            }
            7 => {
                let hex = rng.pick(&[
                    "0041", "00e9", "20AC", "d800", "DBFF", "dc00", "DFFF", "ffff", "+041", "12",
                    "1g00", "12é", "-001",
                ]);
                out.push_str("\\u");
                out.push_str(hex);
            }
            8 => out.push(char::from(rng.below(0x20) as u8)),
            _ => out.push_str(rng.pick(&["\\x", "\\é", "\\ ", "\\U", "\\"])),
        }
    }

    /// A seeded document: an array of strings, sometimes unterminated,
    /// missing its `]`, or followed by trailing garbage.
    fn document(rng: &mut Rng) -> String {
        let mut doc = String::from(rng.pick(&["", " ", "\n"]));
        doc.push('[');
        let strings = rng.below(4);
        for i in 0..strings {
            if i > 0 {
                doc.push_str(rng.pick(&[",", ", ", " ,\t"]));
            }
            doc.push('"');
            for _ in 0..rng.below(12) {
                body_piece(rng, &mut doc);
            }
            if rng.below(12) != 0 {
                doc.push('"');
            }
        }
        match rng.below(10) {
            0 => {}
            1 => doc.push_str("] x"),
            2 => doc.push_str("]é"),
            _ => doc.push_str(rng.pick(&["]", " ]", "]\n"])),
        }
        doc
    }

    fn outcome(r: Result<Json, String>) -> Result<String, String> {
        r.map(|j| j.render())
    }

    #[test]
    fn run_copy_decoder_agrees_with_the_per_scalar_decoder() {
        let mut rng = Rng(0x1a2b_3c4d);
        let (mut oks, mut errs) = (0, 0);
        for _ in 0..4000 {
            let doc = document(&mut rng);
            let fast = outcome(parse_json(&doc));
            assert_eq!(fast, outcome(oracle_parse(&doc)), "document {doc:?}");
            if fast.is_ok() {
                oks += 1;
            } else {
                errs += 1;
            }
        }
        // Both outcomes are well represented, so neither side of the
        // comparison is vacuous.
        assert!(oks > 400 && errs > 400, "{oks} ok / {errs} err");
    }

    /// Best-of-7 wall time of one decode of `doc`.
    fn decode_time(doc: &str) -> Duration {
        (0..7)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(parse_json(doc).expect("decodes"));
                t.elapsed()
            })
            .min()
            .unwrap()
    }

    /// A ~`size`-byte document of one string of mixed-width text.
    fn one_string(size: usize) -> String {
        let unit = "abcé€😀 \\n\\\"xyz中文ß\\u00e9 ";
        let mut doc = String::from("\"");
        while doc.len() < size {
            doc.push_str(unit);
        }
        doc.push('"');
        doc
    }

    /// A ~`size`-byte array of short mixed-width strings.
    fn many_strings(size: usize) -> String {
        let mut doc = String::from("[");
        while doc.len() < size {
            doc.push_str("\"ké€\\t\",\"😀 x\",");
        }
        doc.push_str("\"\"]");
        doc
    }

    #[test]
    fn decoding_time_is_linear_in_the_document() {
        for (shape, make) in [
            ("one string", one_string as fn(usize) -> String),
            ("many short strings", many_strings),
        ] {
            let small = decode_time(&make(64 << 10));
            let large = decode_time(&make(1 << 20));
            let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
            // 16x the input: linear is ~16x, per-scalar decoding ~256x.
            assert!(
                ratio <= 48.0,
                "{shape}: 1 MiB took {ratio:.1}x the 64 KiB decode ({large:?} vs {small:?})"
            );
        }
    }
}
