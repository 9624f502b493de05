//! Frame layer: the versioned 8-byte header and length-prefixed payload
//! that carry encoded messages over a byte stream.
//!
//! ```text
//! offset  0        2         3      4         8
//!         magic:u16 version:u8 kind:u8 len:u32le payload[len]
//! ```
//!
//! The magic is written big-endian so a hex dump starts with the ASCII
//! bytes `NW`. [`read_frame`] refuses frames whose declared payload
//! exceeds [`MAX_FRAME`](crate::MAX_FRAME) *before* reading the payload,
//! so a hostile peer cannot force an unbounded allocation.
//!
//! Two readers share one validation: [`read_frame`] pulls a frame off a
//! stream into a fresh payload `Vec`; [`split_frame`] splits the first
//! frame out of bytes already in memory and borrows its payload in
//! place — what the in-memory transport and the reactor decode from.

use crate::message::{Request, Response};
use crate::{WireError, MAGIC, MAX_FRAME, VERSION};
use std::io::Read;

/// Header length in bytes.
pub const HEADER_LEN: usize = 8;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A client-to-server [`Request`].
    Request,
    /// A server-to-client [`Response`].
    Response,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(FrameKind::Request),
            1 => Ok(FrameKind::Response),
            other => Err(WireError::BadKind(other)),
        }
    }
}

/// Stamps the 8-byte header into `buf[start..start + HEADER_LEN]`,
/// treating everything after it as the already-encoded payload.
fn finish_header_at(buf: &mut [u8], start: usize, kind: FrameKind) {
    let len = buf.len() - start - HEADER_LEN;
    debug_assert!(len <= MAX_FRAME, "payload exceeds MAX_FRAME");
    let header = &mut buf[start..start + HEADER_LEN];
    header[..2].copy_from_slice(&MAGIC.to_be_bytes());
    header[2] = VERSION;
    header[3] = kind.tag();
    header[4..].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Validates a frame header and returns what it declares: the kind and
/// the payload length, the latter already checked against
/// [`MAX_FRAME`](crate::MAX_FRAME). Both [`read_frame`] and
/// [`split_frame`] validate through it, so error frames built from
/// either path carry identical messages; a caller holding only a header
/// learns from it how many payload bytes to wait for.
pub fn parse_frame_header(header: &[u8; HEADER_LEN]) -> Result<(FrameKind, usize), WireError> {
    let magic = u16::from_be_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[2] != VERSION {
        return Err(WireError::BadVersion(header[2]));
    }
    let kind = FrameKind::from_tag(header[3])?;
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    Ok((kind, len))
}

/// Reserves header space for a response frame at the end of `buf` and
/// returns the frame's start offset, to be passed to
/// [`end_response_frame`] once the payload has been appended. Lets a
/// dispatcher encode a reply payload *directly* into a connection's
/// write queue — straight from borrowed state, no intermediate
/// per-reply `Vec` — and stamp the header afterwards, when the length
/// is known.
pub fn begin_response_frame(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.resize(start + HEADER_LEN, 0);
    start
}

/// Stamps the header of a frame begun with [`begin_response_frame`],
/// now that the payload (everything appended since) is in place.
pub fn end_response_frame(buf: &mut [u8], start: usize) {
    finish_header_at(buf, start, FrameKind::Response);
}

/// Appends one request as a complete frame (header + payload) to `buf`
/// without clearing it — the pipelining building block: many frames
/// queue back to back in one buffer.
pub fn append_request_frame(buf: &mut Vec<u8>, req: &Request) {
    let start = buf.len();
    buf.resize(start + HEADER_LEN, 0);
    req.encode_to(buf);
    finish_header_at(buf, start, FrameKind::Request);
}

/// Appends one response as a complete frame (header + payload) to
/// `buf` without clearing it, so replies to pipelined requests stack
/// up in a per-connection write queue in request order.
pub fn append_response_frame(buf: &mut Vec<u8>, resp: &Response) {
    let start = buf.len();
    buf.resize(start + HEADER_LEN, 0);
    resp.encode_to(buf);
    finish_header_at(buf, start, FrameKind::Response);
}

/// Encodes one request as a complete frame (header + payload) into
/// `buf`, clearing it first. Reusing one buffer across exchanges keeps
/// the encode path allocation-free once the buffer has warmed up.
pub fn encode_request_frame(buf: &mut Vec<u8>, req: &Request) {
    buf.clear();
    append_request_frame(buf, req);
}

/// Encodes one response as a complete frame (header + payload) into
/// `buf`, clearing it first. The per-connection scratch the server
/// writes every reply through.
pub fn encode_response_frame(buf: &mut Vec<u8>, resp: &Response) {
    buf.clear();
    append_response_frame(buf, resp);
}

/// Reads one frame, validating magic, version, kind, and the payload
/// bound before the payload itself is read.
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, len) = parse_frame_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((kind, payload))
}

/// Splits the first frame out of `buf`, returning its kind and its
/// payload borrowed in place. Validates exactly as [`read_frame`] does
/// on a stream holding the same bytes, in the same order: `Truncated`
/// below a whole header, then the header's errors, then `Truncated`
/// for a short payload. Bytes after the frame are ignored, so pipelined
/// frames split off one at a time, and `Truncated` always means "wait
/// for more bytes".
pub fn split_frame(buf: &[u8]) -> Result<(FrameKind, &[u8]), WireError> {
    let header = buf.first_chunk().ok_or(WireError::Truncated)?;
    let (kind, len) = parse_frame_header(header)?;
    let payload = buf
        .get(HEADER_LEN..HEADER_LEN + len)
        .ok_or(WireError::Truncated)?;
    Ok((kind, payload))
}

/// Reads one frame and decodes it as a request, rejecting response
/// frames.
pub fn read_request(r: &mut impl Read) -> Result<Request, WireError> {
    match read_frame(r)? {
        (FrameKind::Request, payload) => Request::decode(&payload),
        (FrameKind::Response, _) => Err(WireError::BadKind(FrameKind::Response.tag())),
    }
}

/// Reads one frame and decodes it as a response, rejecting request
/// frames. Returns the raw payload too, so callers can compare replies
/// byte for byte across transports.
pub fn read_response(r: &mut impl Read) -> Result<(Response, Vec<u8>), WireError> {
    match read_frame(r)? {
        (FrameKind::Response, payload) => {
            let resp = Response::decode(&payload)?;
            Ok((resp, payload))
        }
        (FrameKind::Request, _) => Err(WireError::BadKind(FrameKind::Request.tag())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ErrorCode, ErrorReply};
    use std::io::Cursor;

    #[test]
    fn request_frames_round_trip() {
        let req = Request::SeriesTail {
            host: "gremlin".into(),
            n: 32,
        };
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, &req);
        assert_eq!(&buf[..2], b"NW");
        assert_eq!(read_request(&mut Cursor::new(&buf)).unwrap(), req);
    }

    #[test]
    fn response_frames_round_trip_with_payload() {
        let resp = Response::BestHost(None);
        let mut buf = Vec::new();
        encode_response_frame(&mut buf, &resp);
        let (decoded, payload) = read_response(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(decoded, resp);
        assert_eq!(payload, resp.encode());
    }

    #[test]
    fn scratch_encoders_clear_what_the_buffer_held() {
        let req = Request::Batch(vec![Request::Snapshot, Request::Stats]);
        let resp = Response::Error(ErrorReply {
            code: ErrorCode::BadRequest,
            message: "nope".into(),
        });
        let mut fresh = Vec::new();
        encode_request_frame(&mut fresh, &req);
        // Pre-dirty the scratch: encode must clear leftovers from the
        // previous (larger) frame before reuse.
        let mut scratch = vec![0xAA; 512];
        encode_request_frame(&mut scratch, &req);
        assert_eq!(scratch, fresh);
        let mut fresh = Vec::new();
        encode_response_frame(&mut fresh, &resp);
        encode_response_frame(&mut scratch, &resp);
        assert_eq!(scratch, fresh);
        assert_eq!(read_response(&mut scratch.as_slice()).unwrap().0, resp);
    }

    #[test]
    fn parse_frame_header_agrees_with_read_frame() {
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, &Request::Snapshot);
        let header: [u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().unwrap();
        let (kind, len) = parse_frame_header(&header).unwrap();
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(len, buf.len() - HEADER_LEN);
        // Every corruption read_frame rejects, parse_frame_header
        // rejects identically (same variant, same Display bytes).
        type Corruption = Box<dyn Fn(&mut [u8])>;
        let corruptions: Vec<Corruption> = vec![
            Box::new(|h| h[0] = 0x00),
            Box::new(|h| h[2] = 9),
            Box::new(|h| h[3] = 7),
            Box::new(|h| h[4..8].copy_from_slice(&u32::MAX.to_le_bytes())),
        ];
        for corrupt in corruptions {
            let mut bad = header;
            corrupt(&mut bad);
            let incremental = parse_frame_header(&bad).unwrap_err();
            let mut framed = buf.clone();
            framed[..HEADER_LEN].copy_from_slice(&bad);
            let streaming = read_frame(&mut Cursor::new(&framed)).unwrap_err();
            assert_eq!(incremental.to_string(), streaming.to_string());
        }
    }

    #[test]
    fn append_encoders_stack_frames_and_match_the_clearing_encoders() {
        let reqs = [
            Request::Stats,
            Request::SeriesTail {
                host: "kongo".into(),
                n: 8,
            },
        ];
        let mut stacked = Vec::new();
        let mut singles = Vec::new();
        for req in &reqs {
            append_request_frame(&mut stacked, req);
            let mut one = Vec::new();
            encode_request_frame(&mut one, req);
            singles.extend_from_slice(&one);
        }
        assert_eq!(stacked, singles);
        // Both frames decode back out of the shared buffer in order.
        let mut cursor = Cursor::new(&stacked);
        assert_eq!(read_request(&mut cursor).unwrap(), reqs[0]);
        assert_eq!(read_request(&mut cursor).unwrap(), reqs[1]);
    }

    #[test]
    fn begin_end_response_frame_matches_the_whole_frame_encoder() {
        let resp = Response::BestHost(None);
        let mut manual = vec![0xEE; 3]; // pre-existing queue content
        let start = begin_response_frame(&mut manual);
        resp.encode_to(&mut manual);
        end_response_frame(&mut manual, start);
        let mut whole = Vec::new();
        encode_response_frame(&mut whole, &resp);
        assert_eq!(&manual[..3], &[0xEE; 3]);
        assert_eq!(&manual[3..], &whole[..]);
    }

    #[test]
    fn bad_magic_version_kind_rejected() {
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, &Request::Stats);
        let mut bad = buf.clone();
        bad[0] = 0x00;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad)),
            Err(WireError::BadMagic(_))
        ));
        let mut bad = buf.clone();
        bad[2] = 9;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad)),
            Err(WireError::BadVersion(9))
        ));
        let mut bad = buf.clone();
        bad[3] = 7;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad)),
            Err(WireError::BadKind(7))
        ));
    }

    #[test]
    fn oversized_frame_rejected_before_payload_read() {
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, &Request::Stats);
        buf[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        // Only the header is present; the bound must trip before the
        // (absent) 4 GiB payload is waited for.
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf[..HEADER_LEN])),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn truncated_frames_rejected() {
        let mut buf = Vec::new();
        encode_request_frame(
            &mut buf,
            &Request::Forecast {
                host: "kongo".into(),
            },
        );
        for cut in 0..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut]));
            assert!(
                matches!(err, Err(WireError::Truncated)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut buf = Vec::new();
        encode_response_frame(&mut buf, &Response::BestHost(None));
        assert!(matches!(
            read_request(&mut Cursor::new(&buf)),
            Err(WireError::BadKind(1))
        ));
        let mut buf = Vec::new();
        encode_request_frame(&mut buf, &Request::Stats);
        assert!(matches!(
            read_response(&mut Cursor::new(&buf)),
            Err(WireError::BadKind(0))
        ));
    }
}
