//! Property tests for the wire shape of the event vocabulary: the
//! firehose protocol (`kard-server`) depends on `encode → decode` being
//! the identity for every [`Op`]/[`Event`], on the fast codec in
//! [`kard_trace::wire`] agreeing byte-for-byte with the serde path, and
//! on malformed input being rejected rather than misread. The decoders'
//! strict pass never decides alone: on any text, they and serde accept
//! the same events or both reject.

use kard_core::LockId;
use kard_sim::CodeSite;
use kard_trace::{wire, Event, ObjectTag, Op};
use proptest::prelude::*;

/// Any `u64`, with small values and the top of the range drawn often.
fn num() -> BoxedStrategy<u64> {
    prop_oneof![
        2 => 0..u64::MAX,
        1 => 0..100u64,
        1 => u64::MAX - 100..u64::MAX,
        1 => Just(u64::MAX),
    ]
    .boxed()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (num(), num()).prop_map(|(tag, size)| Op::Alloc { tag: ObjectTag(tag), size }),
        (num(), num()).prop_map(|(tag, size)| Op::Global { tag: ObjectTag(tag), size }),
        num().prop_map(|tag| Op::Free { tag: ObjectTag(tag) }),
        (num(), num())
            .prop_map(|(lock, site)| Op::Lock { lock: LockId(lock), site: CodeSite(site) }),
        num().prop_map(|lock| Op::Unlock { lock: LockId(lock) }),
        (num(), num(), num()).prop_map(|(tag, offset, ip)| Op::Read {
            tag: ObjectTag(tag),
            offset,
            ip: CodeSite(ip),
        }),
        (num(), num(), num()).prop_map(|(tag, offset, ip)| Op::Write {
            tag: ObjectTag(tag),
            offset,
            ip: CodeSite(ip),
        }),
        num().prop_map(|cycles| Op::Compute { cycles }),
    ]
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (0..1024usize, op_strategy()).prop_map(|(thread, op)| Event { thread, op })
}

/// A one-byte edit: `(kind, at, byte)` replaces the byte at `at` (taken
/// modulo the text's length) with `byte` for kind 0, inserts `byte` before
/// it for kind 1, and deletes it for kind 2.
fn edit_strategy() -> impl Strategy<Value = (u8, usize, u8)> {
    // Digits and JSON punctuation are what the strict pass branches on.
    const PUNCTUATION: &[u8] = b"{}[],:\" \t-+.eEx";
    let byte = prop_oneof![
        2 => b'0'..b'9' + 1,
        2 => (0..PUNCTUATION.len()).prop_map(|i| PUNCTUATION[i]),
        1 => any::<u8>(),
    ];
    (0..3u8, any::<usize>(), byte)
}

/// `text` with one edit applied, if the result is still UTF-8 (the
/// decoders take `&str`).
fn edited(text: &str, (kind, at, byte): (u8, usize, u8)) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    match kind {
        0 if !bytes.is_empty() => {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        1 => bytes.insert(at % (bytes.len() + 1), byte),
        2 if !bytes.is_empty() => {
            bytes.remove(at % bytes.len());
        }
        _ => {}
    }
    String::from_utf8(bytes).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn serde_round_trip_is_identity(event in event_strategy()) {
        let text = serde_json::to_string(&event).unwrap();
        let back: Event = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back, event);
    }

    #[test]
    fn fast_codec_matches_serde_bytes(event in event_strategy()) {
        let mut fast = String::new();
        wire::encode_event(&event, &mut fast);
        let via_serde = serde_json::to_string(&event).unwrap();
        prop_assert_eq!(&fast, &via_serde);
        // And both texts decode back to the event through the fast path.
        prop_assert_eq!(wire::decode_event(&fast).unwrap(), event);
    }

    #[test]
    fn batches_round_trip(events in prop::collection::vec(event_strategy(), 0..64)) {
        let text = wire::encode_batch(&events);
        prop_assert_eq!(wire::decode_batch(&text).unwrap(), events.clone());
        // The batch text is exactly the serde encoding of the vector.
        prop_assert_eq!(text, serde_json::to_string(&events).unwrap());
    }

    #[test]
    fn truncated_json_is_rejected(event in event_strategy(), cut in 1..64usize) {
        let text = serde_json::to_string(&event).unwrap();
        let cut = cut.min(text.len() - 1);
        let truncated = &text[..text.len() - cut];
        prop_assert!(wire::decode_event(truncated).is_err(), "accepted {truncated:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn strict_pass_never_decides_alone_on_a_batch(
        events in prop::collection::vec(event_strategy(), 0..6),
        edit in edit_strategy(),
    ) {
        if let Some(text) = edited(&wire::encode_batch(&events), edit) {
            prop_assert_eq!(
                wire::decode_batch(&text).ok(),
                serde_json::from_str::<Vec<Event>>(&text).ok(),
                "on {:?}",
                text
            );
        }
    }

    #[test]
    fn strict_pass_never_decides_alone_on_an_event(
        event in event_strategy(),
        edit in edit_strategy(),
    ) {
        let mut text = String::new();
        wire::encode_event(&event, &mut text);
        if let Some(text) = edited(&text, edit) {
            prop_assert_eq!(
                wire::decode_event(&text).ok(),
                serde_json::from_str::<Event>(&text).ok(),
                "on {:?}",
                text
            );
        }
    }
}

#[test]
fn unknown_variants_and_shape_mismatches_are_rejected() {
    for bad in [
        // Unknown op variant.
        r#"{"op":{"Jump":{"to":3}},"thread":0}"#,
        // Missing field.
        r#"{"op":{"Alloc":{"size":8}},"thread":0}"#,
        // Wrong payload type.
        r#"{"op":{"Compute":{"cycles":"many"}},"thread":0}"#,
        // Thread index out of range for usize semantics (negative).
        r#"{"op":{"Compute":{"cycles":1}},"thread":-2}"#,
        // Op is not an object.
        r#"{"op":7,"thread":0}"#,
    ] {
        assert!(
            serde_json::from_str::<Event>(bad).is_err(),
            "serde accepted {bad:?}"
        );
        assert!(
            wire::decode_event(bad).is_err(),
            "wire codec accepted {bad:?}"
        );
    }
}

/// Every variant with `u64::MAX` in every field, thread included.
fn all_max() -> Vec<Event> {
    let (n, tag, lock, site) =
        (u64::MAX, ObjectTag(u64::MAX), LockId(u64::MAX), CodeSite(u64::MAX));
    [
        Op::Alloc { tag, size: n },
        Op::Global { tag, size: n },
        Op::Free { tag },
        Op::Lock { lock, site },
        Op::Unlock { lock },
        Op::Read { tag, offset: n, ip: site },
        Op::Write { tag, offset: n, ip: site },
        Op::Compute { cycles: n },
    ]
    .into_iter()
    .map(|op| Event { thread: usize::MAX, op })
    .collect()
}

#[test]
fn u64_max_in_every_field_decodes() {
    let events = all_max();
    for event in &events {
        let mut text = String::new();
        wire::encode_event(event, &mut text);
        assert_eq!(wire::decode_event(&text).unwrap(), *event, "{text}");
    }
    assert_eq!(wire::decode_batch(&wire::encode_batch(&events)).unwrap(), events);
}

#[test]
fn one_past_u64_max_is_rejected_in_every_field() {
    for event in all_max() {
        let mut text = String::new();
        wire::encode_event(&event, &mut text);
        let max = u64::MAX.to_string();
        for (at, _) in text.match_indices(&max) {
            let over = format!("{}18446744073709551616{}", &text[..at], &text[at + max.len()..]);
            assert!(wire::decode_event(&over).is_err(), "accepted {over:?}");
            assert!(wire::decode_batch(&format!("[{over}]")).is_err(), "accepted [{over}]");
        }
    }
}

#[test]
fn batch_framing_is_exact() {
    assert_eq!(wire::decode_batch("[]").unwrap(), Vec::<Event>::new());
    let events = all_max();
    let text = wire::encode_batch(&events);
    for bad in [
        "[,]".to_string(),
        format!("{text}x"),
        text.replacen(",\"thread\":18446744073709551615", "", 1),
    ] {
        assert!(wire::decode_batch(&bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn a_batch_with_whitespace_decodes_through_serde() {
    let events = all_max();
    let spaced = wire::encode_batch(&events)
        .replace(',', " ,\n ")
        .replace(':', " : ")
        .replace('[', "[ ");
    assert_eq!(wire::decode_batch(&spaced).unwrap(), events);
    assert_eq!(serde_json::from_str::<Vec<Event>>(&spaced).unwrap(), events);
}
