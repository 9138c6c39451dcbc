//! A JSON value with a writer and a parser, both std-only.
//!
//! The workspace depends on nothing outside the repository, so the few
//! documents it writes — the chrome trace and the flat metrics view of
//! `pinsql-obs`, the golden-corpus snapshots — are built by hand as a
//! [`Json`] value (`to_json` on the type) and rendered here; [`parse`]
//! reads back what a test or `validate_chrome_trace` checks. There is no
//! typed deserialisation: nothing in the workspace parses a typed
//! document (DESIGN.md, "JSON and PRNG"). Copied from
//! `benchmark/src/json.rs`, which is frozen with the benchmark.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered, so written files diff cleanly.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
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

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact one-line rendering.
    ///
    /// # Panics
    /// Panics on a non-finite number: JSON cannot carry one, and a NaN in
    /// a result is a harness bug better met here than in a reader.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Indented rendering, one scalar or opening bracket per line, for
    /// files a person diffs (the golden snapshots).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            for _ in 0..depth {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
            scalar_or_empty => scalar_or_empty.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "non-finite number in JSON output: {n}");
                // Rust's shortest round-trip form keeps every measured digit.
                write!(out, "{n}").expect("writing to a String cannot fail");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = p.value_at(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Nesting beyond this is refused rather than recursed into.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value_at(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value_at(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
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
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    fields.push((key, self.value_at(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii subset");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let first = self.hex4()?;
                            self.scalar_value(first)?
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| format!("string is not UTF-8: {e}"))
    }

    /// Four hex digits starting at `pos`, consumed.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(hex)
    }

    /// The character a `\u` escape stands for. Our writer emits
    /// characters beyond the BMP raw, but a trace touched by another tool
    /// may spell them as a surrogate pair: a high surrogate must be
    /// followed by an escaped low one.
    fn scalar_value(&mut self, first: u32) -> Result<char, String> {
        let code = if (0xD800..0xDC00).contains(&first) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(format!("unpaired surrogate \\u{first:04x}"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("unpaired surrogate \\u{first:04x}"));
            }
            0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| format!("unpaired surrogate \\u{first:04x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_parser_reads_it_back() {
        let nasty = "quote\" back\\slash\nnew\ttab\r\u{1}ctl / é ✓";
        let doc = Json::obj([
            ("s", Json::str(nasty)),
            ("n", Json::Num(1.25e-7)),
            ("neg", Json::Num(-3.0)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(true), Json::Arr(vec![])])),
            ("o", Json::obj::<&str>([])),
        ]);
        let text = doc.render();
        assert!(text.contains("\\\"") && text.contains("\\\\") && text.contains("\\n"));
        assert!(text.contains("\\u0001"), "{text}");
        assert!(!text.contains('\n'), "control characters must not appear raw");
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let x = 0.123_456_789_012_345_67_f64;
        let back = parse(&Json::Num(x).render()).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_numbers_are_refused() {
        Json::Num(f64::NAN).render();
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "\"open", "1 2", "nul", "{\"a\":1,}", "\"\\q\""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "unbounded nesting accepted");
    }

    // The house sweep: seeded random documents through both renderers and
    // back, then every prefix and a per-byte mutation walk of each — the
    // parser reads files from disk (`validate_chrome_trace`), so it must
    // answer `Ok` or `Err` for any text, never panic or recurse unboundedly.

    use pinsql_testkit::{mutations, sweep, truncations};
    use pinsql_workload::rng::{RngExt, StdRng};

    const SWEEP_SEEDS: u64 = 256;

    /// Bit-exact equality: `PartialEq` would call `-0.0 == 0.0`.
    fn same(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
            (Json::Arr(x), Json::Arr(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same(p, q))
            }
            (Json::Obj(x), Json::Obj(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|((k, p), (l, q))| k == l && same(p, q))
            }
            _ => a == b,
        }
    }

    fn random_string(rng: &mut StdRng) -> String {
        const ALPHABET: [char; 16] = [
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1f}',
            '\u{7f}',
            'a',
            ' ',
            'é',
            '✓',
            '\u{ffff}',
            '😀',
            '\u{10ffff}',
        ];
        (0..rng.random_range(0..8usize))
            .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
            .collect()
    }

    fn random_number(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..8u32) {
            0 => -0.0,
            1 => 1e308,
            2 => f64::MIN_POSITIVE / 4.0,
            // Integers above 2^53, as the writer emits them: all digits.
            3 => ((1u64 << 53) + rng.random_range(1..1u64 << 10)) as f64 * 1024.0,
            4 => rng.random_range(0..1000u64) as f64,
            5 => rng.random_range(-1.5..2.5),
            _ => loop {
                let x = f64::from_bits(rng.random());
                if x.is_finite() {
                    break x;
                }
            },
        }
    }

    fn random_value(rng: &mut StdRng, depth: usize) -> Json {
        let scalars_only = depth >= 4;
        match rng.random_range(0..if scalars_only { 4 } else { 6u32 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.random_range(0..2u32) == 1),
            2 => Json::Num(random_number(rng)),
            3 => Json::Str(random_string(rng)),
            4 => Json::Arr(
                (0..rng.random_range(0..4usize)).map(|_| random_value(rng, depth + 1)).collect(),
            ),
            _ => Json::Obj(
                (0..rng.random_range(0..4usize))
                    .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn sweep_render_then_parse_is_the_identity() {
        sweep(0..SWEEP_SEEDS, |_, rng| {
            let doc = Json::Arr((0..4).map(|_| random_value(rng, 0)).collect());
            for text in [doc.render(), doc.render_pretty()] {
                let back = parse(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
                assert!(same(&back, &doc), "{text}");
            }
        });
    }

    #[test]
    fn escaped_surrogate_pairs_decode_and_lone_ones_are_refused() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::str("😀"));
        sweep(0..SWEEP_SEEDS, |_, rng| {
            let c = char::from_u32(rng.random_range(0x10000..0x110000u32))
                .expect("above the surrogates");
            let mut units = [0u16; 2];
            c.encode_utf16(&mut units);
            let text = format!("\"\\u{:04x}\\u{:04X}\"", units[0], units[1]);
            assert_eq!(parse(&text), Ok(Json::Str(c.to_string())), "{text}");
            // High without low, low alone, high followed by a non-surrogate.
            for bad in [
                format!("\"\\u{:04x}\"", units[0]),
                format!("\"\\u{:04x}\"", units[1]),
                format!("\"\\u{:04x}\\u0041\"", units[0]),
                format!("\"\\u{:04x}\\n\"", units[0]),
            ] {
                assert!(parse(&bad).is_err(), "accepted {bad}");
            }
        });
        assert!(parse(r#""\u+041""#).is_err(), "sign accepted as a hex digit");
    }

    #[test]
    fn sweep_prefixes_and_mutations_never_panic() {
        const REPLACEMENTS: [u8; 12] =
            [0, b'"', b'\\', b'[', b']', b'{', b'}', b',', b'u', b'-', b'e', 0x7f];
        sweep(0..SWEEP_SEEDS, |_, rng| {
            let text = Json::obj([("k", random_value(rng, 0)), ("l", random_value(rng, 0))])
                .render();
            // A strict prefix of a braced document is never a document; a
            // prefix that splits a character is not text.
            truncations(text.as_bytes(), 1, |prefix| {
                if let Ok(prefix) = std::str::from_utf8(prefix) {
                    assert!(parse(prefix).is_err(), "accepted a prefix of {text}");
                }
            });
            // `parse` takes text; a mutation that breaks UTF-8 is stopped
            // by `read_to_string` before it gets here. Each byte also
            // takes one fresh random value, so the seeds reach them all.
            mutations(text.as_bytes(), &REPLACEMENTS, |_| rng.random::<u64>() as u8, |mutated| {
                if let Ok(mutated) = std::str::from_utf8(mutated) {
                    let _ = parse(mutated);
                }
            });
        });
        // Nesting is refused by depth, not discovered by the stack.
        for open in ["[", "{\"a\":", "[{\"a\":"] {
            assert!(parse(&open.repeat(100_000)).is_err());
        }
    }
}
