//! Writer → parser round trip for the workspace's one JSON codec: any
//! value written through `itdb_trace::json::Writer` parses back to
//! itself. Strings draw from quotes, backslashes, every control
//! character below U+0020, ASCII, the rest of the BMP and non-BMP
//! characters (which JSON producers such as Python escape as UTF-16
//! surrogate pairs — covered separately below); values nest arrays and
//! objects.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use itdb_trace::json::{self, ToJson, Value, Writer};
use proptest::prelude::*;

fn text() -> impl Strategy<Value = String> {
    let mut special: Vec<char> = (0u8..0x20).map(char::from).collect();
    special.extend(['"', '\\', '/', '\u{7f}', '\u{2028}']);
    let ch = prop_oneof![
        proptest::sample::select(special),
        ' '..'\u{7f}',
        '\u{80}'..'\u{d7ff}',
        '\u{10000}'..'\u{10ffff}',
    ];
    proptest::collection::vec(ch, 0..10).prop_map(|cs| cs.into_iter().collect())
}

fn value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        proptest::sample::select(vec![true, false]).prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(|i| Value::Number(i as f64)),
        (-1e9f64..1e9).prop_map(Value::Number),
        text().prop_map(Value::String),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            proptest::collection::vec((text(), inner), 0..4)
                .prop_map(|members| Value::Object(members.into_iter().collect())),
        ]
    })
}

fn write(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => {
            None::<u64>.write_json(w);
        }
        Value::Bool(b) => {
            b.write_json(w);
        }
        Value::Number(n) => {
            n.write_json(w);
        }
        Value::String(s) => {
            s.write_json(w);
        }
        Value::Array(items) => {
            w.array(|w| items.iter().for_each(|item| write(w, item)));
        }
        Value::Object(members) => {
            w.object(|w| {
                for (k, v) in members {
                    w.key(k);
                    write(w, v);
                }
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_values_parse_back_to_themselves(v in value()) {
        let text = json::object(|w| {
            w.key("v");
            write(w, &v);
        });
        let parsed = json::parse(&text).map_err(|e| TestCaseError::Fail(format!("{e}: {text}")))?;
        prop_assert_eq!(parsed.get("v"), Some(&v));
    }

    #[test]
    fn surrogate_pair_escapes_decode_like_raw_utf8(s in text()) {
        // Spell every character as `\uXXXX` (a UTF-16 pair beyond the
        // BMP), as Python's `json.dumps` does by default.
        let mut escaped = String::from("\"");
        for unit in s.encode_utf16() {
            escaped.push_str(&format!("\\u{unit:04x}"));
        }
        escaped.push('"');
        let parsed = json::parse(&escaped).map_err(|e| TestCaseError::Fail(format!("{e}: {escaped}")))?;
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }
}
