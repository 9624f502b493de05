//! The benchmark's socket client: one thread, one connection, requests
//! sent as slices of a pre-framed script, replies split on frame
//! boundaries without decoding them.
//!
//! Two drivers share the receive path. The *closed loop* keeps a fixed
//! number of requests in flight and blocks in `read`, the way a
//! pipelining client does. The *open loop* sends each request at its
//! scheduled time whatever the server is doing, charges latency from
//! that due time, and reports how late the generator itself was; it
//! spins on a non-blocking socket so a sleep's wake-up jitter is not
//! mistaken for the server's.

use crate::workloads::serving::Script;
use nws_wire::{parse_frame_header, HEADER_LEN};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        Ok(Self {
            stream,
            buf: vec![0; 64 * 1024],
            head: 0,
            tail: 0,
        })
    }

    /// One `read` into the free end of the buffer. `Ok(0)` from the
    /// socket is the server hanging up, which no script expects.
    fn fill(&mut self) -> std::io::Result<usize> {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        } else if self.tail == self.buf.len() {
            if self.head == 0 {
                // One frame larger than the buffer: grow.
                self.buf.resize(self.buf.len() * 2, 0);
            } else {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            }
        }
        let n = self.stream.read(&mut self.buf[self.tail..])?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        self.tail += n;
        Ok(n)
    }

    /// Hands every complete buffered reply payload to `on_reply` and
    /// returns how many there were.
    fn drain(&mut self, mut on_reply: impl FnMut(&[u8])) -> Result<usize, String> {
        let mut replies = 0;
        while self.tail - self.head >= HEADER_LEN {
            let header: &[u8; HEADER_LEN] = self.buf[self.head..self.head + HEADER_LEN]
                .try_into()
                .expect("slice of header length");
            let (_, len) =
                parse_frame_header(header).map_err(|e| format!("bad reply frame: {e}"))?;
            let end = self.head + HEADER_LEN + len;
            if end > self.tail {
                break;
            }
            on_reply(&self.buf[self.head + HEADER_LEN..end]);
            self.head = end;
            replies += 1;
        }
        Ok(replies)
    }

    /// Sends the whole script keeping `depth` requests in flight, and
    /// hands each reply payload, in request order, to `on_reply`.
    pub fn closed_loop(
        &mut self,
        script: &Script,
        depth: usize,
        mut on_reply: impl FnMut(&[u8]),
    ) -> Result<(), String> {
        let n = script.len();
        let mut sent = depth.min(n);
        let mut done = 0;
        self.stream
            .write_all(script.slice(0, sent))
            .map_err(|e| format!("write: {e}"))?;
        while done < n {
            self.fill().map_err(|e| format!("read: {e}"))?;
            done += self.drain(&mut on_reply)?;
            let next = (done + depth).min(n);
            if next > sent {
                self.stream
                    .write_all(script.slice(sent, next))
                    .map_err(|e| format!("write: {e}"))?;
                sent = next;
            }
        }
        Ok(())
    }

    /// Sends request `i` at `due_ns[i]` after the start whatever the
    /// server is doing. `on_reply(i, latency_ns, payload)` gets each
    /// reply with its latency charged from the due time; `on_send(ns)`
    /// gets how late each request left.
    pub fn open_loop(
        &mut self,
        script: &Script,
        due_ns: &[u64],
        mut on_send: impl FnMut(u64),
        mut on_reply: impl FnMut(usize, u64, &[u8]),
    ) -> Result<(), String> {
        let n = script.len().min(due_ns.len());
        self.stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let result = self.open_loop_inner(script, &due_ns[..n], &mut on_send, &mut on_reply);
        self.stream
            .set_nonblocking(false)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        result
    }

    fn open_loop_inner(
        &mut self,
        script: &Script,
        due_ns: &[u64],
        on_send: &mut impl FnMut(u64),
        on_reply: &mut impl FnMut(usize, u64, &[u8]),
    ) -> Result<(), String> {
        let n = due_ns.len();
        let (mut sent, mut done) = (0, 0);
        let start = Instant::now();
        while done < n {
            let now = start.elapsed().as_nanos() as u64;
            let mut upto = sent;
            while upto < n && due_ns[upto] <= now {
                on_send(now - due_ns[upto]);
                upto += 1;
            }
            let mut pending = script.slice(sent, upto);
            while !pending.is_empty() {
                match self.stream.write(pending) {
                    Ok(k) => pending = &pending[k..],
                    Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
            sent = upto;
            match self.fill() {
                Ok(_) => {
                    let at = start.elapsed().as_nanos() as u64;
                    let first = done;
                    let mut k = 0;
                    self.drain(|payload| {
                        let i = first + k;
                        on_reply(i, at.saturating_sub(due_ns[i]), payload);
                        k += 1;
                    })?;
                    done += k;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        Ok(())
    }
}

impl Client {
    /// One request out, its one reply back: the depth-1 exchange.
    pub fn round_trip(&mut self, frame: &[u8], on_reply: impl FnMut(&[u8])) -> Result<(), String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("write: {e}"))?;
        let mut on_reply = on_reply;
        loop {
            self.fill().map_err(|e| format!("read: {e}"))?;
            if self.drain(&mut on_reply)? > 0 {
                return Ok(());
            }
        }
    }
}
