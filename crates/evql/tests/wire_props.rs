//! Property tests for the serve wire protocol (`everest_evql::wire`):
//! request/response round-trips, framing across arbitrary chunk splits,
//! and no-panic + bounded-allocation guarantees on adversarial bytes.

use everest_evql::wire::{write_frame, FrameDecoder, Request, Response, WireError, MAX_FRAME};
use proptest::prelude::*;

fn arb_text() -> impl Strategy<Value = String> {
    // Mix of EVQL-looking text and arbitrary unicode, including empties.
    prop::sample::select(vec![
        String::new(),
        "SELECT TOP 5 FRAMES FROM Archie".to_string(),
        "SHOW METRICS".to_string(),
        "ü†¶ — caret ^ here".to_string(),
        "multi\nline\ttext".to_string(),
        "\u{0}embedded nul".to_string(),
    ])
}

fn arb_nonce() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..64)
}

fn arb_request() -> impl Strategy<Value = Request> {
    (any::<u64>(), arb_text(), arb_nonce(), 0u8..3).prop_map(|(id, text, nonce, tag)| match tag {
        0 => Request::Query { id, text },
        1 => Request::Admin { id, command: text },
        _ => Request::Ping { id, nonce },
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (any::<u64>(), arb_text(), arb_nonce(), 0u8..4).prop_map(|(id, text, nonce, tag)| match tag {
        0 => Response::Answer {
            id,
            canonical: nonce,
            rendered: text,
        },
        1 => Response::Message { id, text },
        2 => Response::Error { id, text },
        _ => Response::Pong { id, nonce },
    })
}

proptest! {
    /// Encode → decode is the identity for every request value.
    #[test]
    fn request_encode_decode_identity(req in arb_request()) {
        let bytes = req.encode();
        prop_assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    /// Encode → decode is the identity for every response value.
    #[test]
    fn response_encode_decode_identity(resp in arb_response()) {
        let bytes = resp.encode();
        prop_assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    /// A stream of valid frames reassembles identically no matter how
    /// the transport fragments it.
    #[test]
    fn decoder_is_chunking_invariant(
        reqs in proptest::collection::vec(arb_request(), 1..6),
        chunk in 1usize..17,
    ) {
        let mut stream = Vec::new();
        for r in &reqs {
            write_frame(&mut stream, &r.encode(), MAX_FRAME).unwrap();
        }
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(payload) = dec.next_frame().unwrap() {
                decoded.push(Request::decode(&payload).unwrap());
            }
        }
        prop_assert_eq!(decoded, reqs);
        prop_assert!(!dec.has_partial());
    }

    /// Arbitrary length prefixes: anything above the guard is rejected
    /// *before* payload bytes are buffered, zero is rejected, and the
    /// decoder never allocates more than the announced (guarded) length.
    #[test]
    fn adversarial_length_prefixes_are_bounded(len in any::<u32>()) {
        let max = 4096u32;
        let mut dec = FrameDecoder::new(max);
        dec.push(&len.to_be_bytes());
        match dec.next_frame() {
            Err(WireError::FrameTooLarge { len: l, max: m }) => {
                prop_assert!(len > max);
                prop_assert_eq!(l, len);
                prop_assert_eq!(m, max);
            }
            Err(WireError::EmptyFrame) => prop_assert_eq!(len, 0),
            Ok(None) => prop_assert!(len >= 1 && len <= max),
            other => return Err(TestCaseError::fail(format!("{other:?}"))),
        }
    }

    /// Mutating a single byte of a valid encoding never panics the
    /// decoder: it yields either a (different) valid value or a typed
    /// error.
    #[test]
    fn single_byte_mutations_never_panic(
        req in arb_request(),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let mut bytes = req.encode();
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= xor;
        if let Ok(other) = Request::decode(&bytes) {
            prop_assert!(other != req || pos >= bytes.len());
        }
    }

    /// Truncating a valid encoding at any point yields a typed error
    /// (or, for cut = 0, an empty-payload error), never a panic.
    #[test]
    fn truncations_yield_typed_errors(resp in arb_response(), cut_frac in 0.0f64..1.0) {
        let bytes = resp.encode();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assume!(cut < bytes.len());
        match Response::decode(&bytes[..cut]) {
            Err(WireError::Truncated(_)) | Err(WireError::BadTag(_)) => {}
            // a cut can also land exactly after a valid shorter field
            // layout; the only hard requirement is a typed result
            Ok(_) | Err(_) => {}
        }
    }

    /// Random garbage payloads decode to typed errors or valid values —
    /// never panics, never unbounded allocation (payload length bounds
    /// every field).
    #[test]
    fn garbage_payloads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }
}

#[test]
fn decoder_survives_interleaved_garbage_after_error() {
    // After a guard violation the decoder pins the stream dead: pushing
    // more (even valid) frames keeps returning the original error, which
    // is what lets the daemon close the connection deterministically.
    let mut dec = FrameDecoder::new(128);
    dec.push(&1_000_000u32.to_be_bytes());
    assert!(matches!(
        dec.next_frame(),
        Err(WireError::FrameTooLarge { .. })
    ));
    let mut valid = Vec::new();
    let ping = Request::Ping {
        id: 1,
        nonce: vec![],
    };
    write_frame(&mut valid, &ping.encode(), MAX_FRAME).unwrap();
    dec.push(&valid);
    assert!(matches!(
        dec.next_frame(),
        Err(WireError::FrameTooLarge { .. })
    ));
}
