//! Property tests of the frame codec: any chunking of the byte stream
//! reassembles the exact frames; truncated, oversized, and garbage
//! inputs surface as typed errors (or "need more bytes"), never panics.

use bytes::Bytes;
use proptest::prelude::*;
use tbs_core::checkpoint::{CheckpointError, Reader, Wire, Writer};
use tbs_server::proto::{encode_frame, FrameDecoder, ProtoError, Reply, Request, MAX_FRAME};

type Item = [f64; 2];

/// Reference `INGEST` decode that copies each item out of the blob
/// before decoding it, exactly as `get_bytes` + `try_decode` do.
fn reference_ingest(blob: Bytes) -> Result<Vec<Item>, ProtoError> {
    let mut r = Reader::new(blob)?;
    match r.get_u8()? {
        7 => {}
        tag => return Err(ProtoError::UnknownTag(tag)),
    }
    let count = r.get_u32()? as usize;
    r.check_count(count, 4)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let bytes = r.get_bytes()?;
        items.push(Item::try_decode(&bytes).ok_or(CheckpointError::Corrupt("item payload"))?);
    }
    Ok(items)
}

/// An `INGEST` payload whose count and per-item length prefixes may lie:
/// every item body is the honest 16-byte encoding, whatever its prefix
/// says.
fn ingest_payload(items: &[Item], count: u32, len_of: impl Fn(usize) -> u32) -> Bytes {
    let mut w = Writer::new();
    w.put_u8(7);
    w.put_u32(count);
    for (i, item) in items.iter().enumerate() {
        w.put_u32(len_of(i));
        for byte in item.encode().iter() {
            w.put_u8(*byte);
        }
    }
    w.finish()
}

/// Decode through `Request` and compare with the reference: the same
/// items bit for bit, or the same error.
fn assert_decodes_like_reference(blob: Bytes) {
    let bits = |items: Vec<Item>| -> Vec<[u64; 2]> {
        items
            .iter()
            .map(|[a, b]| [a.to_bits(), b.to_bits()])
            .collect()
    };
    let got = match Request::<Item>::decode(blob.clone()) {
        Ok(Request::Ingest(items)) => Ok(bits(items)),
        Ok(other) => panic!("INGEST payload decoded as {other:?}"),
        Err(e) => Err(e),
    };
    assert_eq!(got, reference_ingest(blob).map(bits));
}

#[test]
fn lying_ingest_prefixes_fail_with_the_reference_errors() {
    let items: Vec<Item> = (0..4).map(|i| [i as f64, 2.0 * i as f64]).collect();
    let honest = ingest_payload(&items, 4, |_| 16);
    assert_eq!(
        Request::<Item>::decode(honest.clone()),
        Ok(Request::Ingest(items.clone()))
    );
    let short = ingest_payload(&items, 4, |i| if i == 2 { 8 } else { 16 });
    let past_end = ingest_payload(&items, 4, |i| if i == 3 { 1 << 20 } else { 16 });
    let count_lie = ingest_payload(&items, 5, |_| 16);
    for (blob, want) in [
        (honest, None),
        (short, Some(CheckpointError::Corrupt("item payload"))),
        (past_end, Some(CheckpointError::Truncated)),
        (count_lie, Some(CheckpointError::Truncated)),
    ] {
        assert_eq!(
            reference_ingest(blob.clone()).err(),
            want.clone().map(ProtoError::Checkpoint)
        );
        assert_eq!(
            Request::<Item>::decode(blob).err(),
            want.map(ProtoError::Checkpoint)
        );
    }
}

/// Deterministic mixed message sequence derived from generated scalars.
fn frame_stream(items: &[u64], epoch: u64) -> (Vec<Request<u64>>, Vec<u8>) {
    let reqs: Vec<Request<u64>> = vec![
        Request::Ping,
        Request::Ingest(items.to_vec()),
        Request::SubscribeEpoch {
            epoch,
            timeout_ms: epoch % 5000,
        },
        Request::CheckpointPush(Bytes::from(
            items.iter().map(|i| *i as u8).collect::<Vec<u8>>(),
        )),
        Request::GetSample,
    ];
    let mut stream = Vec::new();
    for req in &reqs {
        stream.extend_from_slice(&encode_frame(&req.encode()));
    }
    (reqs, stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn any_chunking_reassembles_the_exact_frames(
        items in prop::collection::vec(0u64..u64::MAX, 0..40),
        epoch in 0u64..10_000,
        chunk in 1usize..97,
    ) {
        let (reqs, stream) = frame_stream(&items, epoch);
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(frame) = dec.next_frame().unwrap() {
                decoded.push(Request::<u64>::decode(frame).unwrap());
            }
        }
        prop_assert_eq!(decoded, reqs);
        prop_assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn truncated_streams_yield_only_whole_frames(
        items in prop::collection::vec(0u64..1_000, 0..30),
        epoch in 0u64..10_000,
        keep_permille in 0usize..1000,
    ) {
        let (reqs, stream) = frame_stream(&items, epoch);
        let keep = stream.len() * keep_permille / 1000;
        let mut dec = FrameDecoder::new();
        dec.push(&stream[..keep]);
        let mut whole = 0;
        while let Some(frame) = dec.next_frame().unwrap() {
            // Every frame the decoder yields is complete and decodes
            // back to the message that was sent.
            prop_assert_eq!(Request::<u64>::decode(frame).unwrap(), reqs[whole].clone());
            whole += 1;
        }
        // The tail (a torn frame) stays buffered, never surfaced.
        prop_assert!(whole <= reqs.len());
        // Feeding the rest completes the stream exactly.
        dec.push(&stream[keep..]);
        while let Some(frame) = dec.next_frame().unwrap() {
            prop_assert_eq!(Request::<u64>::decode(frame).unwrap(), reqs[whole].clone());
            whole += 1;
        }
        prop_assert_eq!(whole, reqs.len());
        prop_assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn ingest_decode_matches_the_copying_reference(
        xs in prop::collection::vec(-1e6f64..1e6, 0..12),
        lens in prop::collection::vec(0u32..40, 0..12),
        past_end in 0usize..24,
        count_shift in 0u32..7,
        keep_permille in 0usize..2000,
    ) {
        let items: Vec<Item> = xs.iter().map(|&x| [x, 2.0 * x + 1.0]).collect();
        // Counts from three below to three above the truth, plus one
        // absurd lie.
        let count = match count_shift {
            6 => u32::MAX,
            k => (items.len() as u32 + k).saturating_sub(3),
        };
        // Lengths below, at and above 16; one index (if it exists)
        // claims more bytes than the blob holds.
        let len_of = |i: usize| match lens.get(i) {
            _ if i == past_end => u32::MAX - i as u32,
            Some(&len) => len,
            None => 16,
        };
        let blob = ingest_payload(&items, count, len_of);
        // Keep the whole blob in half the cases; truncate it otherwise.
        let keep = (blob.len() * keep_permille / 1000).min(blob.len());
        assert_decodes_like_reference(blob.slice(..keep));
    }

    #[test]
    fn oversized_length_prefixes_are_rejected(
        excess in 1u64..u32::MAX as u64 - MAX_FRAME as u64,
    ) {
        let len = (MAX_FRAME as u64 + excess) as u32;
        let mut dec = FrameDecoder::new();
        dec.push(&len.to_le_bytes());
        prop_assert_eq!(
            dec.next_frame(),
            Err(ProtoError::Frame("oversized frame length"))
        );
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoder(
        noise in prop::collection::vec(0u8..=255, 0..4096),
        chunk in 1usize..257,
    ) {
        let mut dec = FrameDecoder::new();
        for piece in noise.chunks(chunk) {
            dec.push(piece);
            loop {
                match dec.next_frame() {
                    // A "frame" assembled from noise must still fail
                    // message decode with a typed error, not a panic.
                    Ok(Some(frame)) => {
                        prop_assert!(Request::<u64>::decode(frame).is_err());
                    }
                    Ok(None) => break,
                    // Oversized prefix: stream is dead, stop pushing.
                    Err(ProtoError::Frame(_)) => return,
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
        }
    }

    #[test]
    fn garbage_magic_payloads_fail_with_a_codec_error(
        payload in prop::collection::vec(0u8..=255, 0..256),
    ) {
        // Skip the astronomically unlikely case of noise that starts
        // with the real magic.
        prop_assume!(!payload.starts_with(b"TBSC"));
        let framed = encode_frame(&payload);
        let mut dec = FrameDecoder::new();
        dec.push(&framed);
        let frame = dec.next_frame().unwrap().expect("whole frame buffered");
        prop_assert!(matches!(
            Request::<u64>::decode(frame.clone()),
            Err(ProtoError::Checkpoint(_))
        ));
        prop_assert!(matches!(
            Reply::<u64>::decode(frame),
            Err(ProtoError::Checkpoint(_))
        ));
    }
}
