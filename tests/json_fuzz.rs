//! Property-style tests for the service's JSON parser, the first code an
//! HTTP request body reaches: no input — arbitrary, truncated, corrupted or
//! deeply nested — may panic it, an error must point inside the input, and
//! `escape` must round-trip every string through `parse`.

use autotype_serve::json::{escape, parse, Json};
use proptest::prelude::*;

/// A valid `/detect/column` request body: a string array with escapes, a
/// `\u` pair, raw non-ASCII and an empty value, plus a fuel ceiling.
const COLUMN_BODY: &str = "{\"values\": [\"4147202263232835\", \"978-0-306-40615-7\", \
     \"caf\u{e9} \\\"q\\\"\\n\", \"\\ud83d\\ude00\\u00e9\", \"\"], \"max_fuel\": 2.5e4}";

/// Parse `input` and check the one property every outcome must have: an
/// error's position lies within the input.
fn parse_checked(input: &str) -> Result<(), String> {
    match parse(input) {
        Ok(_) => Ok(()),
        Err(e) if e.at <= input.len() => Ok(()),
        Err(e) => Err(format!("error at {} past the end of {input:?}", e.at)),
    }
}

/// Map a number onto a character, weighted towards the ones `escape` must
/// handle: control characters, quotes and backslashes, the rest of the
/// BMP, and the supplementary planes.
fn char_from(n: u32) -> char {
    let pick = n >> 2;
    let c = match n % 4 {
        0 => pick % 0x20,
        1 => [u32::from(b'"'), u32::from(b'\\'), 0x7F, 0x20 + pick % 0x5F][(pick % 4) as usize],
        2 => pick % 0x1_0000,
        _ => pick % 0x11_0000,
    };
    // Surrogate code points are not chars.
    char::from_u32(c).unwrap_or('\u{FFFD}')
}

proptest! {
    /// Printable strings never panic the parser.
    #[test]
    fn printable_strings_never_panic(input in "\\PC{0,48}") {
        parse_checked(&input)?;
    }

    /// Strings over JSON's own alphabet reach deeper parser states
    /// (nesting, numbers, escapes, literals) and never panic it either.
    #[test]
    fn json_alphabet_strings_never_panic(
        input in "[\\[\\]{}\",:0-9a-z\\\\ .eE+\\-]{0,48}"
    ) {
        parse_checked(&input)?;
    }

    /// Arbitrary bytes, lossily decoded as a request body would be.
    #[test]
    fn lossy_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        parse_checked(&String::from_utf8_lossy(&bytes))?;
    }

    /// `"` + `escape(s)` + `"` is a JSON string that parses back to `s`.
    #[test]
    fn escaped_strings_round_trip(
        s in proptest::collection::vec(0u32..=u32::MAX, 0..24)
            .prop_map(|ns| ns.into_iter().map(char_from).collect::<String>())
    ) {
        let quoted = format!("\"{}\"", escape(&s));
        prop_assert_eq!(parse(&quoted), Ok(Json::String(s.clone())), "via {:?}", quoted);
    }
}

#[test]
fn column_body_parses() {
    let body = parse(COLUMN_BODY).expect("valid body");
    let values = body.get("values").and_then(Json::as_array).expect("values");
    assert_eq!(values.len(), 5);
    assert_eq!(values[2].as_str(), Some("caf\u{e9} \"q\"\n"));
    assert_eq!(values[3].as_str(), Some("\u{1F600}\u{e9}"));
    assert_eq!(body.get("max_fuel").and_then(Json::as_number), Some(2.5e4));
}

/// Every truncation of a valid body is handled without panicking.
#[test]
fn every_truncation_never_panics() {
    let bytes = COLUMN_BODY.as_bytes();
    for cut in 0..bytes.len() {
        let truncated = String::from_utf8_lossy(&bytes[..cut]);
        parse_checked(&truncated).unwrap();
        assert!(parse(&truncated).is_err(), "cut at {cut} parsed");
    }
}

/// Every single-byte replacement of a valid body is handled without
/// panicking.
#[test]
fn every_byte_replacement_never_panics() {
    let bytes = COLUMN_BODY.as_bytes();
    for pos in 0..bytes.len() {
        for b in 0..=255u8 {
            let mut corrupted = bytes.to_vec();
            corrupted[pos] = b;
            parse_checked(&String::from_utf8_lossy(&corrupted)).unwrap();
        }
    }
}

/// The nesting cap is 32: a number inside 32 arrays parses, inside 33 it
/// is rejected, and far deeper input is rejected rather than exhausting
/// the stack.
#[test]
fn nesting_is_capped_at_32() {
    let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse(&nested(32)).is_ok());
    let err = parse(&nested(33)).expect_err("33 levels");
    assert_eq!(err.what, "nesting too deep");
    assert!(parse(&"[".repeat(100_000)).is_err());
    assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
}
