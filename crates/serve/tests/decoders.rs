//! Property tests of the two request decoders.
//!
//! Arbitrary input never panics either decoder. Every request they
//! accept lies in the domain the protocol validates: K in
//! `1..=MAX_ERLANG_ORDER`, a finite positive tick, a finite load for
//! `rtt` and a finite positive budget for `dimension`. Every accepted
//! binary frame re-encodes to its own bytes.

use fpsping::MAX_ERLANG_ORDER;
use fpsping_serve::protocol::{
    decode_request, encode_request, parse_json_request, Op, Request, REQ_FRAME_LEN,
};
use proptest::prelude::*;

/// Whether an accepted request is a question the server may answer.
fn in_domain(r: &Request) -> bool {
    let positive = |x: f64| x > 0.0 && x.is_finite();
    let common = (1..=MAX_ERLANG_ORDER).contains(&r.k) && positive(r.tick_ms);
    match r.op {
        Op::Stats | Op::Shutdown => true,
        Op::Rtt => common && r.load.is_finite(),
        Op::Dimension => common && positive(r.budget_ms),
    }
}

/// A frame field: one of the edge values or ordinary tick/load/budget
/// magnitudes most of the time, arbitrary bits otherwise.
fn f64_field() -> impl Strategy<Value = f64> {
    (0usize..16, 0u64..u64::MAX).prop_map(|(pick, bits)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => -5.0,
        6 => f64::MIN_POSITIVE / 4.0,
        7 => f64::MAX,
        8..=11 => (bits % 100_000) as f64 / 1000.0,
        _ => f64::from_bits(bits),
    })
}

/// A frame's K: the edges of `1..=MAX_ERLANG_ORDER` often, any in-range
/// or just-outside value otherwise.
fn k_field() -> impl Strategy<Value = u32> {
    (0usize..6, 0u32..MAX_ERLANG_ORDER + 3).prop_map(|(pick, k)| match pick {
        0 => 0,
        1 => MAX_ERLANG_ORDER + 1,
        2 => u32::MAX,
        _ => k,
    })
}

/// Serializes the frame fields exactly as laid out on the wire, with
/// arbitrary padding bytes.
fn frame_bytes(
    (id, op, k, stat): (u64, u8, u32, u8),
    (tick, load, budget): (f64, f64, f64),
    pad: u16,
) -> Vec<u8> {
    let mut f = Vec::with_capacity(REQ_FRAME_LEN);
    f.extend_from_slice(&id.to_le_bytes());
    f.extend_from_slice(&tick.to_le_bytes());
    f.extend_from_slice(&load.to_le_bytes());
    f.extend_from_slice(&budget.to_le_bytes());
    f.extend_from_slice(&k.to_le_bytes());
    f.push(op);
    f.push(stat);
    f.extend_from_slice(&pad.to_le_bytes());
    f
}

/// Checks one binary frame against the decoder's contract.
fn check_frame(frame: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(r) = decode_request(frame) {
        prop_assert!(in_domain(&r), "accepted out-of-domain {r:?}");
        let again = encode_request(&r);
        prop_assert_eq!(&again[..REQ_FRAME_LEN - 2], &frame[..REQ_FRAME_LEN - 2]);
    }
    Ok(())
}

const JSON_KEYS: [&str; 8] = ["id", "op", "k", "tick_ms", "load", "budget_ms", "stat", "x"];
const JSON_VALUES: [&str; 24] = [
    "\"rtt\"",
    "\"dimension\"",
    "\"stats\"",
    "\"shutdown\"",
    "\"fly\"",
    "0",
    "1",
    "9",
    "128",
    "129",
    "-3",
    "9.5",
    "40",
    "0.4",
    "1.5",
    "50",
    "-0",
    "NaN",
    "inf",
    "-inf",
    "1e309",
    "18446744073709551616",
    "",
    "\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_binary_frames_decode_into_the_domain(
        bytes in prop::collection::vec(0u8..=255, REQ_FRAME_LEN..REQ_FRAME_LEN + 1),
    ) {
        check_frame(&bytes)?;
    }

    #[test]
    fn field_wise_binary_frames_decode_into_the_domain(
        ints in (0u64..u64::MAX, 0u8..6, k_field(), 0u8..=255),
        floats in (f64_field(), f64_field(), f64_field()),
        pad in 0u16..=u16::MAX,
    ) {
        check_frame(&frame_bytes(ints, floats, pad))?;
    }

    #[test]
    fn arbitrary_strings_parse_into_the_domain(
        bytes in prop::collection::vec(0u8..=255, 0..96),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        if let Ok(r) = parse_json_request(&line) {
            prop_assert!(in_domain(&r), "{line:?} accepted as {r:?}");
        }
    }

    #[test]
    fn json_shaped_lines_parse_into_the_domain(
        op in 0usize..5,
        fields in prop::collection::vec((0usize..JSON_KEYS.len(), 0usize..JSON_VALUES.len()), 0..5),
        op_at in 0usize..5,
        close in 0u8..8,
    ) {
        let mut body: Vec<String> = fields
            .iter()
            .map(|&(k, v)| format!("\"{}\":{}", JSON_KEYS[k], JSON_VALUES[v]))
            .collect();
        body.insert(op_at.min(body.len()), format!("\"op\":{}", JSON_VALUES[op]));
        // Mostly a closed object, sometimes a truncated one.
        let line = format!("{{{}{}", body.join(","), if close > 0 { "}" } else { "" });
        if let Ok(r) = parse_json_request(&line) {
            prop_assert!(in_domain(&r), "{line:?} accepted as {r:?}");
        }
    }
}
