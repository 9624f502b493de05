//! The NWS wire protocol: a dependency-free, length-prefixed binary
//! codec for forecast-serving traffic.
//!
//! The real Network Weather Service runs as a distributed system —
//! sensors, persistent-state memories, and forecasters are separate
//! processes that clients query over TCP. This crate defines the
//! request/response vocabulary of that query path for the reproduction:
//!
//! - [`Request`] — `Forecast(host)`, `Snapshot`, `BestHost`,
//!   `SeriesTail(host, n)`, `Stats`, and a bounded `Batch` for
//!   pipelined round trips;
//! - [`Response`] — the matching replies plus a typed [`ErrorReply`]
//!   frame;
//! - [`ReplyRef`] — one reply still borrowed from the server state that
//!   produced it, encoding to the bytes of the [`Response`] it stands
//!   for.
//!
//! Everything is hand-rolled over explicit little-endian primitives
//! (no serde, no external crates) so the byte layout is fully specified
//! here and stable across platforms:
//!
//! ```text
//! frame  := magic:u16 ("NW") | version:u8 | kind:u8 | len:u32 | payload
//! ```
//!
//! Decoding is strict: unknown tags, non-UTF-8 strings, out-of-bounds
//! lengths, truncated payloads, and trailing bytes are all rejected with
//! a typed [`WireError`] — never a panic — and a frame longer than
//! [`MAX_FRAME`] is refused before its payload is read, so a malicious
//! peer cannot make the server allocate unboundedly.

#![forbid(unsafe_code)]

mod codec;
mod frame;
mod message;

pub use codec::{Reader, Writer, MAX_STRING};
pub use frame::{
    append_request_frame, append_response_frame, begin_response_frame, encode_request_frame,
    encode_response_frame, end_response_frame, parse_frame_header, read_frame, read_request,
    read_response, split_frame, FrameKind, HEADER_LEN,
};
pub use message::{
    ErrorCode, ErrorReply, ForecastReply, HorizonReply, HostRow, ReplyRef, Request, Response,
    SeriesPoint, SeriesTailReply, SnapshotReply, StatsReply, WalChunkReply, BATCH_HEADER_LEN,
    MAX_BATCH, MAX_HORIZON, MAX_HOSTS, MAX_POINTS, MAX_WAL_CHUNK,
};

/// Frame magic: `"NW"` in big-endian byte order on the wire.
pub const MAGIC: u16 = 0x4E57;

/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;

/// Maximum payload length a frame may carry (1 MiB). Frames declaring
/// more are rejected before the payload is read, so a server must not
/// send one: the per-type bounds ([`MAX_POINTS`], [`MAX_HOSTS`],
/// [`MAX_BATCH`]) do not add up to a frame, and a reply that would pass
/// this bound ([`ReplyRef::encoded_len`] tells) is answered with an
/// [`ErrorCode::BadRequest`] instead.
pub const MAX_FRAME: usize = 1 << 20;

/// Everything that can go wrong encoding, decoding, or framing a
/// message. Decoding is total: malformed input yields one of these,
/// never a panic.
#[derive(Debug)]
pub enum WireError {
    /// An underlying I/O failure (reading or writing a frame).
    Io(std::io::Error),
    /// The frame header did not start with [`MAGIC`].
    BadMagic(u16),
    /// The frame header carried an unsupported version.
    BadVersion(u8),
    /// The frame header's kind byte was neither request nor response.
    BadKind(u8),
    /// The declared payload length exceeds [`MAX_FRAME`].
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// The enforced bound.
        max: usize,
    },
    /// The payload ended before the value being decoded did.
    Truncated,
    /// Decoding finished with bytes left over.
    TrailingBytes(usize),
    /// An enum tag had no defined meaning.
    UnknownTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A boolean byte was neither 0 nor 1.
    BadBool(u8),
    /// A length prefix exceeded its documented bound.
    LengthOutOfBounds {
        /// What was being decoded.
        what: &'static str,
        /// The declared length.
        len: usize,
        /// The enforced bound.
        max: usize,
    },
    /// A `Batch` contained another `Batch`.
    NestedBatch,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte bound"
                )
            }
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadBool(b) => write!(f, "boolean byte {b} is neither 0 nor 1"),
            WireError::LengthOutOfBounds { what, len, max } => {
                write!(f, "{what} length {len} exceeds the bound of {max}")
            }
            WireError::NestedBatch => write!(f, "batches cannot nest"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        // A clean EOF mid-frame is a truncation, not a transport fault.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}
