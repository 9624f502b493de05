//! Adversarial client personas.
//!
//! Each persona speaks just enough of the wire protocol to probe one
//! defensive path in the server: the idle cut, the pre-allocation
//! frame bound, and the whole-frame request deadline. A persona
//! *trips* when the server does the right thing — answers with a typed
//! error where the protocol allows one, then hangs up — within the
//! caller's patience. A persona that does **not** trip means the
//! server tolerated the abuse, and every such peer holds one of the
//! connection cap's slots for as long as it likes.

use nws_wire::{read_response, ErrorCode, Response, HEADER_LEN, MAGIC, MAX_FRAME, VERSION};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one persona observed.
#[derive(Debug, Clone)]
pub struct PersonaReport {
    /// Persona name, for labels.
    pub name: &'static str,
    /// Whether the server's defense fired within patience.
    pub tripped: bool,
    /// Wall clock from connect to verdict.
    pub elapsed: Duration,
    /// Human-readable account of what happened.
    pub detail: String,
}

/// Builds a request-frame header claiming a `len`-byte payload.
fn header(len: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..2].copy_from_slice(&MAGIC.to_be_bytes());
    h[2] = VERSION;
    h[3] = 0; // request kind
    h[4..].copy_from_slice(&len.to_le_bytes());
    h
}

/// Whether a read result means "the server hung up on us".
fn is_hangup(res: &std::io::Result<usize>) -> bool {
    match res {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => matches!(
            e.kind(),
            ErrorKind::ConnectionReset | ErrorKind::BrokenPipe | ErrorKind::UnexpectedEof
        ),
    }
}

/// Sends a valid header claiming a 64-byte payload, delivers only a
/// fragment, then goes silent. The server's idle cut must close the
/// connection rather than wait forever for the rest.
pub fn partial_frame(addr: SocketAddr, patience: Duration) -> std::io::Result<PersonaReport> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(patience))?;
    stream.write_all(&header(64))?;
    stream.write_all(&[0u8; 10])?; // 10 of the promised 64 bytes
    let mut buf = [0u8; 64];
    let res = stream.read(&mut buf);
    let tripped = is_hangup(&res);
    Ok(PersonaReport {
        name: "partial_frame",
        tripped,
        elapsed: started.elapsed(),
        detail: format!("read after stall: {res:?}"),
    })
}

/// Claims a payload one byte over [`MAX_FRAME`]. The server must
/// refuse before allocating — a typed `BadRequest` frame, then close.
pub fn oversize_claim(addr: SocketAddr, patience: Duration) -> std::io::Result<PersonaReport> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(patience))?;
    stream.write_all(&header(MAX_FRAME as u32 + 1))?;
    let mut reader = std::io::BufReader::new(stream);
    let (tripped, detail) = match read_response(&mut reader) {
        Ok((Response::Error(e), _)) if e.code == ErrorCode::BadRequest => {
            // The error frame must be followed by a close, not more
            // service on a stream the server can no longer trust.
            let mut one = [0u8; 1];
            let after = reader.read(&mut one);
            (is_hangup(&after), format!("typed refusal, then {after:?}"))
        }
        Ok((other, _)) => (false, format!("unexpected reply: {other:?}")),
        Err(e) => (false, format!("no typed refusal: {e}")),
    };
    Ok(PersonaReport {
        name: "oversize_claim",
        tripped,
        elapsed: started.elapsed(),
        detail,
    })
}

/// Writes a perfectly valid frame one byte every `gap`, slower in
/// total than the server's whole-request deadline. Per-read timeouts
/// alone never fire (every byte lands in time); only a wall-clock
/// budget on the whole frame can end this connection.
pub fn slow_writer(
    addr: SocketAddr,
    frame: &[u8],
    gap: Duration,
    patience: Duration,
) -> std::io::Result<PersonaReport> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(patience))?;
    let mut cut_mid_write = false;
    for &b in frame {
        std::thread::sleep(gap);
        if let Err(e) = stream.write_all(&[b]) {
            // The server already hung up; writes now bounce.
            cut_mid_write = matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe);
            if !cut_mid_write {
                return Err(e);
            }
            break;
        }
    }
    let (tripped, detail) = if cut_mid_write {
        (true, "write bounced off a closed socket".to_string())
    } else {
        // All bytes were accepted (kernel buffers can absorb a trickle
        // past the close); the proof is in the read: a served frame
        // means the server tolerated the trickle, a hangup means the
        // deadline fired.
        let mut buf = [0u8; 1];
        let res = stream.read(&mut buf);
        (is_hangup(&res), format!("read after trickle: {res:?}"))
    };
    Ok(PersonaReport {
        name: "slow_writer",
        tripped,
        elapsed: started.elapsed(),
        detail,
    })
}
