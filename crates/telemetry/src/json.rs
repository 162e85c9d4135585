//! Minimal hand-rolled JSON writing and parsing.
//!
//! The workspace deliberately carries no serialization dependency (the
//! vendored shims cover rand/proptest/criterion only), so the telemetry
//! exporters build their JSON by hand. Everything we emit is flat enough
//! — strings, integers, arrays of integers — that a string escaper and a
//! few push helpers suffice. The reader side ([`parse_json`]) exists for
//! the consumers of our own exports (`stabtop`, endpoint smoke tests):
//! a small recursive-descent parser, not a general-purpose one.

/// Append `s` as a JSON string literal (with quotes) onto `out`: the
/// one escaper (the analyzer's), shared with the core's stall reports.
pub use stabilizer_core::explain::push_json_str;

/// Append `"key":` onto `out`.
pub fn push_key(out: &mut String, key: &str) {
    push_json_str(out, key);
    out.push(':');
}

/// A parsed JSON value. Objects keep source order in a `Vec` (our own
/// exports are already deterministically ordered).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (we only ever emit integers, parsed losslessly up to
    /// 2^53 as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` elsewhere or when absent.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload truncated to i64, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().map(|n| n as i64)
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest — the DSL's bound — so that a
/// hostile document cannot exhaust the reader's stack.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document in time linear in its length; trailing
/// whitespace is allowed, trailing garbage is an error, and so is
/// nesting deeper than 128 levels. Errors are a human-readable message
/// with a byte offset.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos, 0)?;
    let bytes = text.as_bytes();
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// The value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nested deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(text, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => parse_string(text, pos).map(JsonValue::Str),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad utf8".to_owned())?;
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_owned()),
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
                    Some(b'u') => out.push(parse_unicode_escape(b, pos)?),
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // One character: `pos` is at a character boundary, as
                // everything consumed before it is whole characters.
                let c = text.get(*pos..).and_then(|rest| rest.chars().next());
                let c = c.ok_or_else(|| format!("bad utf8 at byte {}", *pos))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// The character of the `\u` escape whose `u` is at `pos`, which is
/// left at the escape's last hex digit. A UTF-16 surrogate names a
/// character only as a high one followed by a `\u`-escaped low one;
/// alone or reversed it is refused.
fn parse_unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let bad = |at: usize| format!("bad \\u escape at byte {at}");
    let start = *pos;
    let high = hex4(b, start + 1).ok_or_else(|| bad(start))?;
    *pos += 4;
    let code = match high {
        0xD800..=0xDBFF => {
            let low = match b.get(*pos + 1..*pos + 3) {
                Some(b"\\u") => hex4(b, *pos + 3),
                _ => None,
            };
            let low = low.filter(|l| (0xDC00..=0xDFFF).contains(l));
            let low = low.ok_or_else(|| bad(start))?;
            *pos += 6;
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(bad(start)),
        code => code,
    };
    char::from_u32(code).ok_or_else(|| bad(start))
}

/// The four hex digits at `at` as a number; `None` unless all four are
/// hex digits (no sign, no space).
fn hex4(b: &[u8], at: usize) -> Option<u32> {
    let digits = b.get(at..at + 4)?;
    digits
        .iter()
        .try_fold(0, |code, &d| Some(code << 4 | char::from(d).to_digit(16)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_we_emit() {
        let doc = "{\"counters\":{\"x{node=\\\"0\\\"}\":3},\"arr\":[1,-2,3.5],\
                   \"t\":true,\"n\":null,\"s\":\"a\\nb\"}";
        let v = parse_json(doc).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("x{node=\"0\"}")
                .unwrap()
                .as_i64(),
            Some(3)
        );
        let arr = v.get("arr").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_i64(), Some(-2));
        assert_eq!(arr[2].as_f64(), Some(3.5));
        assert_eq!(v.get("t").unwrap(), &JsonValue::Bool(true));
        assert_eq!(v.get("n").unwrap(), &JsonValue::Null);
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn round_trips_own_exports() {
        let reg = crate::MetricsRegistry::new();
        reg.counter("x_total", &[("node", "0")]).add(3);
        reg.histogram("lat_ns", &[]).record(100);
        let doc = crate::render_json_snapshot(&reg.snapshot());
        let v = parse_json(&doc).unwrap();
        assert!(v.get("histograms").is_some());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("").is_err());
    }

    /// `f` on a thread of its own, or a panic if it is not done within
    /// `secs` seconds.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let running = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        let deadline = std::time::Duration::from_secs(secs);
        let out = rx.recv_timeout(deadline).expect("did not finish in time");
        running.join().expect("the thread ends");
        out
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        let body = "é".repeat(1 << 19);
        let doc = format!("[\"{body}\",\"x\"]");
        let parsed = within(5, move || parse_json(&doc));
        let parsed = parsed.expect("parses");
        let arr = parsed.as_arr().expect("array");
        assert_eq!(arr[0].as_str(), Some(body.as_str()));
        assert_eq!(arr[1].as_str(), Some("x"));
    }

    #[test]
    fn a_surrogate_pair_is_the_one_character_it_names() {
        let parsed = parse_json("\"\\ud83d\\ude00\\u00e9\"").unwrap();
        assert_eq!(parsed.as_str(), Some("\u{1f600}\u{e9}"));
    }

    #[test]
    fn a_lone_or_reversed_surrogate_is_refused() {
        for doc in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
            "\"\\ude00\\ud83d\"",
        ] {
            assert!(parse_json(doc).is_err(), "{doc} parsed");
        }
    }

    #[test]
    fn a_unicode_escape_is_four_hex_digits() {
        for doc in ["\"\\u+041\"", "\"\\u-041\"", "\"\\u 041\"", "\"\\u04\""] {
            assert!(parse_json(doc).is_err(), "{doc} parsed");
        }
        assert_eq!(parse_json("\"\\u004A\"").unwrap().as_str(), Some("J"));
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&deep(MAX_DEPTH)).is_ok());
        assert!(parse_json(&deep(MAX_DEPTH + 1)).is_err());
        assert!(parse_json(&"[".repeat(100_000)).is_err());
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert!(parse_json(&objects).is_err());
    }
}
