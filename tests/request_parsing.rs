//! `kard_server::proto::parse_request` on hostile input. A connection's
//! reader thread calls it on every frame a client sends, so it must answer
//! `Ok` or `Err` for any byte string, never panic: a bad frame ends the
//! connection with one counted `protocol_errors` (`firehose.rs`'
//! `malformed_frames_end_the_connection_with_an_error`), not with a dead
//! reader.

use kard::core::LockId;
use kard::server::proto::{parse_request, request_payload, Request};
use kard::sim::CodeSite;
use kard::trace::{Event, ObjectTag, Op};
use proptest::prelude::*;

/// Bytes a JSON request is made of, drawn often so that arbitrary input
/// also reaches past the UTF-8 check and the first token.
const JSON_BYTES: &[u8] = b"{}[],:\" 0123456789-.eBatchHelloEventopthreadWriteLock";

fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        1 => any::<u8>(),
        3 => (0..JSON_BYTES.len()).prop_map(|i| JSON_BYTES[i]),
    ]
}

fn event() -> impl Strategy<Value = Event> {
    let op = prop_oneof![
        (0..64u64, 1..4096u64).prop_map(|(tag, size)| Op::Alloc { tag: ObjectTag(tag), size }),
        (0..64u64).prop_map(|tag| Op::Free { tag: ObjectTag(tag) }),
        (0..8u64, any::<u64>())
            .prop_map(|(lock, site)| Op::Lock { lock: LockId(lock), site: CodeSite(site) }),
        (0..8u64).prop_map(|lock| Op::Unlock { lock: LockId(lock) }),
        (0..64u64, 0..4096u64, any::<u64>()).prop_map(|(tag, offset, ip)| Op::Write {
            tag: ObjectTag(tag),
            offset,
            ip: CodeSite(ip),
        }),
        any::<u64>().prop_map(|cycles| Op::Compute { cycles }),
    ];
    (0..16usize, op).prop_map(|(thread, op)| Event { thread, op })
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        4 => prop::collection::vec(event(), 0..24).prop_map(Request::Batch),
        1 => event().prop_map(Request::Event),
        1 => (0..1000u32).prop_map(|n| Request::Hello { client: format!("client-{n}") }),
        1 => Just(Request::Flush),
        1 => Just(Request::Stats),
        1 => Just(Request::Bye),
        1 => Just(Request::Shutdown),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in prop::collection::vec(byte(), 0..4097),
        batch_prefix in any::<bool>(),
    ) {
        let _ = parse_request(&bytes);
        if batch_prefix {
            let _ = parse_request(&[&b"{\"Batch\":["[..], &bytes].concat());
        }
    }

    #[test]
    fn a_payload_with_one_byte_mutated_never_panics_the_parser(
        request in request(),
        edit in (0..3u8, any::<usize>(), byte()),
    ) {
        let (kind, at, b) = edit;
        let mut payload = request_payload(&request).into_bytes();
        let len = payload.len();
        match kind {
            0 => payload[at % len] = b,
            1 => payload.insert(at % (len + 1), b),
            _ => {
                payload.remove(at % len);
            }
        }
        let _ = parse_request(&payload);
    }
}
