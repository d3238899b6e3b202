//! The firehose wire codec: framing and a fast event (de)serializer.
//!
//! `kard-server` streams [`Event`]s over sockets. Requests travel as
//! **length-prefixed JSON frames** (a 4-byte big-endian payload length,
//! then that many bytes of JSON), which keeps message boundaries explicit
//! and lets a reader reject oversized or truncated input before parsing
//! it. Responses travel back as JSON-Lines and need no special support.
//!
//! The derived serde path (`serde_json::to_string` / `from_str`) is the
//! source of truth for the wire shape. [`encode_event`] writes the same
//! bytes directly, and decoding has two tiers:
//!
//! * **the strict pass** reads exactly what [`encode_event`] and
//!   [`encode_batch`] write: compact separators, keys in lexicographic
//!   order, every number a plain run of decimal digits that fits a `u64`
//!   (leading zeros included), and nothing before or after the event or
//!   array. It matches each variant's key runs as whole literals, with no
//!   intermediate `Value` tree;
//! * **serde decides everything else.** At the first byte the strict pass
//!   does not expect, the whole text goes to `serde_json::from_str`:
//!   whitespace, other key orders, numbers past `u64::MAX`, and every
//!   malformed payload.
//!
//! So the accepted set is serde's, and where the strict pass accepts it
//! yields what serde would. `tests/serde_roundtrip.rs` property-tests
//! both: the encoders against serde's bytes, and one-byte mutations of
//! encoded batches through both decoders.

use crate::event::{Event, Op};
use crate::ObjectTag;
use kard_core::LockId;
use kard_sim::CodeSite;
use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling on a frame payload. Large enough for a several-thousand
/// event batch, small enough that a corrupt length prefix cannot make a
/// reader allocate gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Decode/framing failure.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/file error.
    Io(io::Error),
    /// A frame announced a payload larger than [`MAX_FRAME`].
    Oversize {
        /// Announced payload length.
        len: usize,
    },
    /// The stream ended inside a frame (mid-length or mid-payload).
    Truncated,
    /// The payload was not valid JSON for the expected type.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Oversize { len } => {
                write!(f, "frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})")
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Write one length-prefixed frame.
///
/// # Errors
///
/// [`WireError::Oversize`] if `payload` exceeds [`MAX_FRAME`], otherwise
/// any i/o error from `w`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversize { len: payload.len() });
    }
    let len = u32::try_from(payload.len()).expect("MAX_FRAME fits in u32");
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Read one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary); EOF inside a frame is [`WireError::Truncated`].
///
/// # Errors
///
/// [`WireError::Oversize`] for a length prefix beyond [`MAX_FRAME`],
/// [`WireError::Truncated`] for mid-frame EOF, or the underlying i/o
/// error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversize { len });
    }
    let mut payload = vec![0u8; len];
    match r.read_exact(&mut payload) {
        Ok(()) => Ok(Some(payload)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(WireError::Truncated),
        Err(e) => Err(WireError::Io(e)),
    }
}

/// Append one event's JSON to `out`, byte-identical to the serde path
/// (`serde_json::to_string(&event)`): object keys in lexicographic order,
/// compact separators.
pub fn encode_event(event: &Event, out: &mut String) {
    use std::fmt::Write as _;
    out.push_str("{\"op\":");
    match event.op {
        Op::Alloc { tag, size } => {
            let _ = write!(out, "{{\"Alloc\":{{\"size\":{},\"tag\":{}}}}}", size, tag.0);
        }
        Op::Global { tag, size } => {
            let _ = write!(out, "{{\"Global\":{{\"size\":{},\"tag\":{}}}}}", size, tag.0);
        }
        Op::Free { tag } => {
            let _ = write!(out, "{{\"Free\":{{\"tag\":{}}}}}", tag.0);
        }
        Op::Lock { lock, site } => {
            let _ = write!(out, "{{\"Lock\":{{\"lock\":{},\"site\":{}}}}}", lock.0, site.0);
        }
        Op::Unlock { lock } => {
            let _ = write!(out, "{{\"Unlock\":{{\"lock\":{}}}}}", lock.0);
        }
        Op::Read { tag, offset, ip } => {
            let _ = write!(
                out,
                "{{\"Read\":{{\"ip\":{},\"offset\":{},\"tag\":{}}}}}",
                ip.0, offset, tag.0
            );
        }
        Op::Write { tag, offset, ip } => {
            let _ = write!(
                out,
                "{{\"Write\":{{\"ip\":{},\"offset\":{},\"tag\":{}}}}}",
                ip.0, offset, tag.0
            );
        }
        Op::Compute { cycles } => {
            let _ = write!(out, "{{\"Compute\":{{\"cycles\":{cycles}}}}}");
        }
    }
    let _ = write!(out, ",\"thread\":{}}}", event.thread);
}

/// Encode a batch of events as a JSON array (the payload of a `Batch`
/// request frame).
#[must_use]
pub fn encode_batch(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 48 + 2);
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_event(e, &mut out);
    }
    out.push(']');
    out
}

/// Decode one event: the strict pass, then serde if it does not match.
///
/// # Errors
///
/// [`WireError::Malformed`] when the text is not a valid event.
pub fn decode_event(text: &str) -> Result<Event, WireError> {
    let mut strict = Strict { b: text.as_bytes(), i: 0 };
    match strict.event() {
        Some(event) if strict.i == text.len() => Ok(event),
        _ => from_serde(text),
    }
}

/// Decode a JSON array of events (a `Batch` payload): the strict pass,
/// then serde if it does not match.
///
/// # Errors
///
/// [`WireError::Malformed`] when the text is not a valid event array.
pub fn decode_batch(text: &str) -> Result<Vec<Event>, WireError> {
    Strict { b: text.as_bytes(), i: 0 }.batch().map_or_else(|| from_serde(text), Ok)
}

fn from_serde<T: serde::Deserialize>(text: &str) -> Result<T, WireError> {
    serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
}

/// The strict pass: a cursor over exactly the bytes [`encode_event`]
/// writes. Each method returns `None` at the first byte that differs,
/// and the caller hands the whole text to serde.
struct Strict<'a> {
    b: &'a [u8],
    i: usize,
}

impl Strict<'_> {
    /// Step over `lit` if the input continues with it.
    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        if !self.b[self.i..].starts_with(lit) {
            return None;
        }
        self.i += lit.len();
        Some(())
    }

    /// `lit`, then a decimal `u64`. No digit, or a value past `u64::MAX`,
    /// is a mismatch; leading zeros are not, as serde reads them too.
    fn field(&mut self, lit: &[u8]) -> Option<u64> {
        self.lit(lit)?;
        let start = self.i;
        let mut n = 0u64;
        while let Some(&c @ b'0'..=b'9') = self.b.get(self.i) {
            n = n.checked_mul(10)?.checked_add(u64::from(c - b'0'))?;
            self.i += 1;
        }
        (self.i > start).then_some(n)
    }

    /// `[`, events separated by `,`, `]`, and nothing after it.
    fn batch(&mut self) -> Option<Vec<Event>> {
        self.lit(b"[")?;
        // Never more bytes than the payload itself. An encoded event is
        // seldom shorter than a decoded one, so a batch seldom regrows.
        let mut events = Vec::with_capacity(self.b.len() / std::mem::size_of::<Event>());
        if self.lit(b"]").is_none() {
            loop {
                events.push(self.event()?);
                if self.lit(b",").is_none() {
                    break;
                }
            }
            self.lit(b"]")?;
        }
        (self.i == self.b.len()).then_some(events)
    }

    /// One event. Struct fields evaluate in the order written, which is
    /// the order of the keys on the wire.
    fn event(&mut self) -> Option<Event> {
        self.lit(b"{\"op\":{\"")?;
        let op = match *self.b.get(self.i)? {
            b'A' => Op::Alloc {
                size: self.field(b"Alloc\":{\"size\":")?,
                tag: ObjectTag(self.field(b",\"tag\":")?),
            },
            b'G' => Op::Global {
                size: self.field(b"Global\":{\"size\":")?,
                tag: ObjectTag(self.field(b",\"tag\":")?),
            },
            b'F' => Op::Free { tag: ObjectTag(self.field(b"Free\":{\"tag\":")?) },
            b'L' => Op::Lock {
                lock: LockId(self.field(b"Lock\":{\"lock\":")?),
                site: CodeSite(self.field(b",\"site\":")?),
            },
            b'U' => Op::Unlock { lock: LockId(self.field(b"Unlock\":{\"lock\":")?) },
            b'R' => Op::Read {
                ip: CodeSite(self.field(b"Read\":{\"ip\":")?),
                offset: self.field(b",\"offset\":")?,
                tag: ObjectTag(self.field(b",\"tag\":")?),
            },
            b'W' => Op::Write {
                ip: CodeSite(self.field(b"Write\":{\"ip\":")?),
                offset: self.field(b",\"offset\":")?,
                tag: ObjectTag(self.field(b",\"tag\":")?),
            },
            b'C' => Op::Compute { cycles: self.field(b"Compute\":{\"cycles\":")? },
            _ => return None,
        };
        let thread = usize::try_from(self.field(b"}},\"thread\":")?).ok()?;
        self.lit(b"}")?;
        Some(Event { thread, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event { thread: 0, op: Op::Alloc { tag: ObjectTag(3), size: 64 } },
            Event { thread: 1, op: Op::Global { tag: ObjectTag(4), size: 8 } },
            Event {
                thread: 2,
                op: Op::Lock { lock: LockId(7), site: CodeSite(0x10) },
            },
            Event {
                thread: 2,
                op: Op::Write { tag: ObjectTag(3), offset: 8, ip: CodeSite(0x11) },
            },
            Event {
                thread: 2,
                op: Op::Read { tag: ObjectTag(3), offset: 16, ip: CodeSite(0x12) },
            },
            Event { thread: 2, op: Op::Unlock { lock: LockId(7) } },
            Event { thread: 0, op: Op::Compute { cycles: 1234 } },
            Event { thread: 0, op: Op::Free { tag: ObjectTag(3) } },
        ]
    }

    #[test]
    fn fast_encoder_matches_serde_bytes() {
        for e in sample_events() {
            let mut fast = String::new();
            encode_event(&e, &mut fast);
            assert_eq!(fast, serde_json::to_string(&e).unwrap());
        }
    }

    #[test]
    fn fast_decoder_round_trips_batches() {
        let events = sample_events();
        let text = encode_batch(&events);
        assert_eq!(decode_batch(&text).unwrap(), events);
    }

    #[test]
    fn decoder_accepts_whitespace_via_fallback() {
        let e = Event { thread: 9, op: Op::Compute { cycles: 5 } };
        let spaced = "{ \"op\" : { \"Compute\" : { \"cycles\" : 5 } } , \"thread\" : 9 }";
        assert_eq!(decode_event(spaced).unwrap(), e);
    }

    #[test]
    fn malformed_events_are_rejected() {
        for bad in [
            "",
            "null",
            "{}",
            "{\"op\":{\"Explode\":{}},\"thread\":0}",
            "{\"op\":{\"Compute\":{\"cycles\":-4}},\"thread\":0}",
            "{\"op\":{\"Compute\":{\"cycles\":1}},\"thread\":0} trailing",
            "{\"op\":{\"Compute\":{\"cycles\":1}}}",
        ] {
            assert!(decode_event(bad).is_err(), "accepted {bad:?}");
        }
        assert!(decode_batch("[{]").is_err());
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_oversize_frames_are_rejected() {
        // EOF inside the length prefix.
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut r), Err(WireError::Truncated)));
        // EOF inside the payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..buf.len() - 2];
        assert!(matches!(read_frame(&mut r), Err(WireError::Truncated)));
        // A length prefix beyond MAX_FRAME never allocates its payload.
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        let mut r = &huge[..];
        assert!(matches!(read_frame(&mut r), Err(WireError::Oversize { .. })));
        assert!(matches!(
            write_frame(&mut Vec::new(), &vec![0u8; MAX_FRAME + 1]),
            Err(WireError::Oversize { .. })
        ));
    }
}
