//! JSON output. The data model and the parser are
//! `stabilizer_telemetry::{JsonValue, parse_json}`; the telemetry crate
//! keeps its writer private, so the one missing piece — a renderer for
//! `JsonValue` — lives here.

pub use stabilizer_telemetry::{parse_json, JsonValue};

/// Render `v` on one line. Floats print with Rust's shortest
/// round-tripping representation, so every measured digit survives.
///
/// # Panics
///
/// Panics on a non-finite number: a metric that is NaN or infinite is a
/// bug in the benchmark, not a value to report.
pub fn render(v: &JsonValue) -> String {
    let mut out = String::new();
    push(&mut out, v);
    out
}

fn push(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => {
            assert!(n.is_finite(), "non-finite number in benchmark output");
            out.push_str(&n.to_string());
        }
        JsonValue::Str(s) => push_str(out, s),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push(out, item);
            }
            out.push(']');
        }
        JsonValue::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_str(out, k);
                out.push_str(": ");
                push(out, item);
            }
            out.push('}');
        }
    }
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
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
}

/// Shorthand for an object from `(key, value)` pairs.
pub fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Shorthand for a string value.
pub fn s(v: &str) -> JsonValue {
    JsonValue::Str(v.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trips_through_the_telemetry_parser() {
        let v = obj(vec![
            ("correct", JsonValue::Bool(true)),
            ("attempted", JsonValue::Num(123456.0)),
            ("nothing", JsonValue::Null),
            (
                "text",
                s("a \"quoted\" \\ line\nwith\ttabs and \u{1} control"),
            ),
            (
                "metrics",
                obj(vec![(
                    "stable_p50_us",
                    obj(vec![
                        ("value", JsonValue::Num(100_153.251_709_3)),
                        ("unit", s("us")),
                    ]),
                )]),
            ),
            (
                "list",
                JsonValue::Arr(vec![JsonValue::Num(-0.5), JsonValue::Num(1e-9)]),
            ),
        ]);
        let text = render(&v);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse_json(&text).unwrap(), v);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_is_refused() {
        render(&JsonValue::Num(f64::NAN));
    }
}
