//! A minimal JSON parser, and the one string escaper every hand-rolled
//! writer in the workspace uses ([`escape`] / [`quote`]): just enough
//! for the workspace's own artifacts (profile traces and metrics,
//! `repro --json`) and the `mmjoin-serve` wire protocol, without an
//! external serde dependency. Strict where it matters —
//! rejects trailing garbage, unterminated strings, malformed numbers —
//! and deliberately simple everywhere else (numbers come back as `f64`;
//! `\uXXXX` escapes decode the full plane: surrogate pairs combine into
//! the astral code point they encode, and only *lone* surrogates
//! degrade to replacement chars).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Insertion-ordered; duplicate keys keep both entries (the
    /// validator's `get` sees the first, like most parsers).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A number or JSON `null` — the shape every optional native counter
    /// takes in the profile artifacts.
    pub fn is_num_or_null(&self) -> bool {
        matches!(self, Value::Num(_) | Value::Null)
    }
}

/// Escape `s` for the inside of a JSON string literal — quotes,
/// backslashes and control characters; everything else (astral code
/// points included) passes through as UTF-8. No surrounding quotes:
/// see [`quote`].
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// `s` as a complete JSON string literal, quotes included;
/// `parse(&quote(s))` is `Value::Str(s)`.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Parse `input` as exactly one JSON document.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            let code = self.hex_escape(self.pos + 1)?;
                            self.pos += 4;
                            match code {
                                // High surrogate: only meaningful as the
                                // first half of a `\uD8xx\uDCxx` pair
                                // (how other JSON writers spell emoji
                                // and other astral chars).
                                0xD800..=0xDBFF => {
                                    let paired = self.bytes.get(self.pos + 1) == Some(&b'\\')
                                        && self.bytes.get(self.pos + 2) == Some(&b'u');
                                    let low = if paired {
                                        self.hex_escape(self.pos + 3).ok()
                                    } else {
                                        None
                                    };
                                    match low {
                                        Some(low @ 0xDC00..=0xDFFF) => {
                                            let c =
                                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                            out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                                            self.pos += 6;
                                        }
                                        // Lone high surrogate: not a
                                        // valid scalar value.
                                        _ => out.push('\u{fffd}'),
                                    }
                                }
                                // Lone low surrogate: same degradation.
                                0xDC00..=0xDFFF => out.push('\u{fffd}'),
                                c => out.push(char::from_u32(c).unwrap_or('\u{fffd}')),
                            }
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point (input is valid UTF-8
                    // by construction of &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    /// Four hex digits starting at byte `at` (the body of a `\uXXXX`
    /// escape), as a code unit.
    fn hex_escape(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        let text = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
        if !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("bad \\u escape {text:?}"));
        }
        u32::from_str_radix(text, 16).map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // Rust reads a number past `f64::MAX` as infinity, which no JSON
        // document can carry back out; it is malformed here.
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -1.5e2 ").unwrap(), Value::Num(-150.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Value::Str("a\n\"bA".to_string())
        );
    }

    #[test]
    fn nested() {
        let v = parse("{\"a\": [1, {\"b\": null}], \"c\": false}").unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(false)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert!(arr[1].get("b").unwrap().is_null());
        assert!(arr[1].get("b").unwrap().is_num_or_null());
    }

    #[test]
    fn surrogate_pairs_decode() {
        // 😀 is U+1F600, encoded in JSON as the pair \uD83D\uDE00.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("😀".to_string())
        );
        assert_eq!(
            parse("\"a\\uD83D\\uDE00b\"").unwrap(),
            Value::Str("a😀b".to_string())
        );
        // Raw (non-escaped) astral chars pass through untouched, so the
        // escaped and raw spellings of the same string round-trip to the
        // same value, whichever writer produced the document.
        assert_eq!(
            parse("\"😀\"").unwrap(),
            parse("\"\\uD83D\\uDE00\"").unwrap()
        );
    }

    #[test]
    fn quote_round_trips_through_parse() {
        let all_controls: String = (0u32..0x20).filter_map(char::from_u32).collect();
        for s in [
            "",
            "plain",
            "a\"b\\c\nd\re\tf",
            all_controls.as_str(),
            "\u{7f}\u{80}\u{2028}",
            "Intel(R) Xeon(R) 😀 \u{10FFFF}",
            "\\ud83d\\ude00 spelled out is not an escape",
        ] {
            assert_eq!(
                parse(&quote(s)).unwrap(),
                Value::Str(s.to_string()),
                "{s:?}"
            );
        }
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        // A writer that spells an astral char as a surrogate pair and
        // ours that writes it raw parse to the same value.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            parse(&quote("😀")).unwrap()
        );
    }

    #[test]
    fn lone_surrogates_degrade_to_replacement() {
        // Lone high, lone low, and high-followed-by-BMP-escape all
        // produce a single replacement char for the invalid unit.
        assert_eq!(
            parse("\"\\uD83Dx\"").unwrap(),
            Value::Str("\u{fffd}x".to_string())
        );
        assert_eq!(
            parse("\"\\uDE00\"").unwrap(),
            Value::Str("\u{fffd}".to_string())
        );
        assert_eq!(
            parse("\"\\uD83D\\u0041\"").unwrap(),
            Value::Str("\u{fffd}A".to_string())
        );
        // A truncated pair is still a parse error, not silent data loss.
        assert!(parse("\"\\uD8\"").is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "nul",
            "[1] garbage",
            "{\"a\":}",
            "1e400",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_own_artifacts() {
        // The shape emitted by observe::metrics / the kernels bin.
        let doc = "{\n  \"meta\": {\"cpu_model\": \"x\", \"perf_counters\": false},\n  \
                   \"runs\": [\n    {\"checksum\": \"0xff\", \"phases\": []}\n  ]\n}\n";
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("meta").unwrap().get("perf_counters"),
            Some(&Value::Bool(false))
        );
        assert_eq!(
            v.get("runs").unwrap().as_arr().unwrap()[0]
                .get("checksum")
                .unwrap()
                .as_str(),
            Some("0xff")
        );
    }
}
