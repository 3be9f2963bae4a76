//! One-line JSON output. Parsing and the value type are `spring-trace`'s;
//! its serializer only pretty-prints, and the result line must be a single
//! line.

use spring_trace::json::Json;

pub fn compact(v: &Json) -> String {
    let mut out = String::new();
    write(v, &mut out);
    out
}

fn write(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // `{}` on f64 prints the shortest digits that round-trip, so a
        // measured value keeps all of its digits; JSON has no NaN or
        // infinity, and a metric that is either is a bug upstream.
        Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(&Json::Str(k.clone()), out);
                out.push(':');
                write(item, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_output_is_one_line_and_parses_back() {
        let v = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("n".into(), Json::Num(1.2034567891234)),
            ("big".into(), Json::Num(2_201_337.0)),
            ("s".into(), Json::Str("a \"q\"\n".into())),
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
        ]);
        let text = compact(&v);
        assert!(!text.contains('\n'));
        assert!(text.contains("1.2034567891234"));
        assert_eq!(Json::parse(&text).expect("parses"), v);
    }
}
