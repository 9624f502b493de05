//! The protocol vocabulary: [`Request`], [`Response`], and the reply
//! structures they carry, each with a hand-rolled `encode`/`decode` pair.

use crate::codec::{Reader, Writer};
use crate::WireError;

/// Most requests a single `Batch` may carry.
pub const MAX_BATCH: usize = 64;

/// Most host rows a snapshot reply may carry.
pub const MAX_HOSTS: usize = 4096;

/// Most points a series-tail reply may carry (a day of 10-second
/// measurements is 8 640).
pub const MAX_POINTS: usize = 65_536;

/// Most WAL bytes one replication chunk may carry (64 KiB — well under
/// [`crate::MAX_FRAME`], so a chunk frame always fits).
pub const MAX_WAL_CHUNK: usize = 64 * 1024;

/// Most steps a horizon forecast may carry (128 ten-second slots is
/// already a 21-minute lookahead — far beyond where iterated forecasts
/// have flattened to the mean).
pub const MAX_HORIZON: usize = 128;

/// A query a client sends to the forecast server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The standing CPU-availability forecast for one host.
    Forecast {
        /// Host name as registered with the grid's name service.
        host: String,
    },
    /// A point-in-time view of every monitored host.
    Snapshot,
    /// The host a scheduler should place the next task on.
    BestHost,
    /// The most recent `n` hybrid-availability measurements of one host.
    SeriesTail {
        /// Host name.
        host: String,
        /// Maximum number of points wanted (server caps at
        /// [`MAX_POINTS`]).
        n: u32,
    },
    /// Server-side counters: requests served, cache behaviour, uptime.
    Stats,
    /// Several requests answered in one round trip, in order. Nested
    /// batches are rejected at decode time.
    Batch(Vec<Request>),
    /// A multi-step forecast: the next `k` ten-second slots of one
    /// host's CPU availability, from the currently selected panel
    /// predictor.
    ForecastHorizon {
        /// Host name as registered with the grid's name service.
        host: String,
        /// Steps wanted (server caps at [`MAX_HORIZON`]; zero is a
        /// [`ErrorCode::BadRequest`]).
        k: u32,
    },
    /// The replication pull: "stream me the primary's WAL from this
    /// byte offset". The server replies with a [`Response::WalChunk`]
    /// of at most `max` bytes, ending on a record boundary.
    WalSince {
        /// Byte offset into the primary's WAL (the replica's applied
        /// high-water mark).
        offset: u64,
        /// Most chunk bytes wanted (server clamps to
        /// [`MAX_WAL_CHUNK`]).
        max: u32,
    },
}

impl Request {
    /// Encodes the request payload (header-less; see
    /// [`crate::write_request`] for framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Appends the encoded payload to `out` — the zero-fresh-allocation
    /// path for callers reusing one scratch buffer across exchanges.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        let mut w = Writer::with_buf(std::mem::take(out));
        self.encode_into(&mut w);
        *out = w.finish();
    }

    fn encode_into(&self, w: &mut Writer) {
        match self {
            Request::Forecast { host } => {
                w.put_u8(0);
                w.put_str(host);
            }
            Request::Snapshot => w.put_u8(1),
            Request::BestHost => w.put_u8(2),
            Request::SeriesTail { host, n } => {
                w.put_u8(3);
                w.put_str(host);
                w.put_u32(*n);
            }
            Request::Stats => w.put_u8(4),
            Request::Batch(items) => {
                debug_assert!(items.len() <= MAX_BATCH, "batch exceeds protocol bound");
                w.put_u8(5);
                w.put_u32(items.len() as u32);
                for item in items {
                    debug_assert!(!matches!(item, Request::Batch(_)), "batches cannot nest");
                    item.encode_into(w);
                }
            }
            Request::WalSince { offset, max } => {
                w.put_u8(6);
                w.put_u64(*offset);
                w.put_u32(*max);
            }
            Request::ForecastHorizon { host, k } => {
                w.put_u8(7);
                w.put_str(host);
                w.put_u32(*k);
            }
        }
    }

    /// Decodes a request payload, consuming it exactly.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let req = Self::decode_from(&mut r, true)?;
        r.expect_end()?;
        Ok(req)
    }

    fn decode_from(r: &mut Reader<'_>, allow_batch: bool) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(Request::Forecast {
                host: r.take_str()?,
            }),
            1 => Ok(Request::Snapshot),
            2 => Ok(Request::BestHost),
            3 => Ok(Request::SeriesTail {
                host: r.take_str()?,
                n: r.take_u32()?,
            }),
            4 => Ok(Request::Stats),
            5 => {
                if !allow_batch {
                    return Err(WireError::NestedBatch);
                }
                let len = r.take_len("batch", MAX_BATCH)?;
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(Self::decode_from(r, false)?);
                }
                Ok(Request::Batch(items))
            }
            6 => Ok(Request::WalSince {
                offset: r.take_u64()?,
                max: r.take_u32()?,
            }),
            7 => Ok(Request::ForecastHorizon {
                host: r.take_str()?,
                k: r.take_u32()?,
            }),
            tag => Err(WireError::UnknownTag {
                what: "request",
                tag,
            }),
        }
    }
}

/// Why a request could not be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The named host is not registered with the grid.
    UnknownHost,
    /// The host is registered but its forecaster has absorbed no
    /// measurements yet.
    ColdForecast,
    /// The request was structurally valid but unserviceable (e.g. an
    /// oversized batch the server refuses to expand).
    BadRequest,
    /// The server is at its connection or load cap; try a replica or
    /// come back later. Unlike `BadRequest`, the request itself was
    /// fine — retrying elsewhere is the right move.
    Overloaded,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::UnknownHost => 0,
            ErrorCode::ColdForecast => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Overloaded => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(ErrorCode::UnknownHost),
            1 => Ok(ErrorCode::ColdForecast),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::Overloaded),
            tag => Err(WireError::UnknownTag {
                what: "error code",
                tag,
            }),
        }
    }
}

/// A typed error frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReply {
    /// Machine-readable cause.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorReply {
    /// Appends the reply, response tag first, to `w`.
    fn encode_into(&self, w: &mut Writer) {
        w.put_u8(6);
        w.put_u8(self.code.tag());
        w.put_str(&self.message);
    }
}

/// The standing forecast for one host, NWS-extract style.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastReply {
    /// Host name.
    pub host: String,
    /// Point forecast of CPU availability in `[0, 1]`.
    pub value: f64,
    /// Name of the panel predictor that issued it.
    pub method: String,
    /// Calibrated prediction interval `(lo, hi)`, absent until enough
    /// forecast errors have been scored.
    pub interval: Option<(f64, f64)>,
    /// Measurements the forecaster has consumed.
    pub observations: u64,
    /// Seconds since the forecaster last absorbed a real measurement.
    pub staleness: f64,
    /// Confidence in `[0, 1]`, degrading as recent slots resolve to gaps.
    pub confidence: f64,
}

impl ForecastReply {
    /// Appends the reply, response tag first, to `w`.
    fn encode_into(&self, w: &mut Writer) {
        w.put_u8(0);
        w.put_str(&self.host);
        w.put_f64(self.value);
        w.put_str(&self.method);
        match self.interval {
            None => w.put_bool(false),
            Some((lo, hi)) => {
                w.put_bool(true);
                w.put_f64(lo);
                w.put_f64(hi);
            }
        }
        w.put_u64(self.observations);
        w.put_f64(self.staleness);
        w.put_f64(self.confidence);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            host: r.take_str()?,
            value: r.take_f64()?,
            method: r.take_str()?,
            interval: if r.take_bool()? {
                Some((r.take_f64()?, r.take_f64()?))
            } else {
                None
            },
            observations: r.take_u64()?,
            staleness: r.take_f64()?,
            confidence: r.take_f64()?,
        })
    }
}

/// One host's row in a snapshot reply.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRow {
    /// Host name.
    pub host: String,
    /// Latest hybrid availability measurement, if any.
    pub latest: Option<f64>,
    /// Standing forecast value, if the forecaster is warm.
    pub forecast: Option<f64>,
    /// The host is excluded from placement decisions (stale or missing
    /// forecast).
    pub degraded: bool,
}

impl HostRow {
    /// Appends the row body to `w`.
    fn encode_into(&self, w: &mut Writer) {
        w.put_str(&self.host);
        w.put_opt_f64(self.latest);
        w.put_opt_f64(self.forecast);
        w.put_bool(self.degraded);
    }

    /// Appends a best-host reply, response tag first, to `w`.
    fn encode_best(best: Option<&Self>, w: &mut Writer) {
        w.put_u8(2);
        w.put_bool(best.is_some());
        if let Some(row) = best {
            row.encode_into(w);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            host: r.take_str()?,
            latest: r.take_opt_f64()?,
            forecast: r.take_opt_f64()?,
            degraded: r.take_bool()?,
        })
    }
}

/// A point-in-time view of the whole grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotReply {
    /// Simulation time of the snapshot, in seconds.
    pub time: f64,
    /// One row per host, in registration order.
    pub hosts: Vec<HostRow>,
}

impl SnapshotReply {
    /// Appends the reply, response tag first, to `w`.
    fn encode_into(&self, w: &mut Writer) {
        w.put_u8(1);
        w.put_f64(self.time);
        w.put_u32(self.hosts.len() as u32);
        for row in &self.hosts {
            row.encode_into(w);
        }
    }
}

/// One timestamped measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Measurement time in seconds.
    pub time: f64,
    /// Measured value.
    pub value: f64,
}

/// The tail of one host's hybrid-availability series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesTailReply {
    /// Host name.
    pub host: String,
    /// Up to `n` most recent measurements, oldest first.
    pub points: Vec<SeriesPoint>,
}

/// Server-side counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Requests dispatched (batch items counted individually).
    pub requests: u64,
    /// Answers served from the forecast/snapshot cache.
    pub cache_hits: u64,
    /// Answers computed afresh.
    pub cache_misses: u64,
    /// Cache entries discarded because new measurements arrived.
    pub invalidations: u64,
    /// Measurement slots the grid behind the server has taken.
    pub slots: u64,
    /// Monitored hosts.
    pub hosts: u32,
}

impl StatsReply {
    /// Appends the reply, response tag first, to `w`.
    fn encode_into(&self, w: &mut Writer) {
        w.put_u8(4);
        w.put_u64(self.requests);
        w.put_u64(self.cache_hits);
        w.put_u64(self.cache_misses);
        w.put_u64(self.invalidations);
        w.put_u64(self.slots);
        w.put_u32(self.hosts);
    }
}

/// One replication chunk of the primary's WAL.
///
/// `bytes` always ends on a record boundary, so the replica can apply
/// the chunk wholesale without buffering partial frames. A replica is
/// fully caught up exactly when `offset + bytes.len() == total`; at
/// that point its memory's global revision must equal `revision` (the
/// byte-identity the replication tests pin).
///
/// A decoded chunk owns its bytes; a server answers with
/// `WalChunkReply<&[u8]>`, the bytes still in its journal.
#[derive(Debug, Clone, PartialEq)]
pub struct WalChunkReply<B = Vec<u8>> {
    /// Byte offset this chunk starts at (echoes the request).
    pub offset: u64,
    /// Total WAL length on the primary when the chunk was cut.
    pub total: u64,
    /// The primary memory's global revision when the chunk was cut.
    pub revision: u64,
    /// The primary's simulation clock when the chunk was cut — what a
    /// replica serves as "now" so staleness judgements match the
    /// primary's.
    pub now: f64,
    /// Raw WAL record frames.
    pub bytes: B,
}

impl<B: AsRef<[u8]>> WalChunkReply<B> {
    /// Appends the reply, response tag first, to `w`.
    fn encode_into(&self, w: &mut Writer) {
        let bytes = self.bytes.as_ref();
        debug_assert!(bytes.len() <= MAX_WAL_CHUNK, "chunk exceeds protocol bound");
        w.put_u8(7);
        w.put_u64(self.offset);
        w.put_u64(self.total);
        w.put_u64(self.revision);
        w.put_f64(self.now);
        w.put_bytes(bytes);
    }
}

/// A multi-step forecast for one host.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonReply {
    /// Host name.
    pub host: String,
    /// Name of the panel predictor that issued the horizon.
    pub method: String,
    /// Forecast availability per future slot: `steps[0]` is the next
    /// measurement (the one-step forecast), `steps[i]` the slot `i + 1`
    /// ahead.
    pub steps: Vec<f64>,
}

impl HorizonReply {
    /// Appends the reply, response tag first, to `w`.
    fn encode_into(&self, w: &mut Writer) {
        debug_assert!(
            self.steps.len() <= MAX_HORIZON,
            "horizon exceeds protocol bound"
        );
        w.put_u8(8);
        w.put_str(&self.host);
        w.put_str(&self.method);
        w.put_u32(self.steps.len() as u32);
        for v in &self.steps {
            w.put_f64(*v);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let host = r.take_str()?;
        let method = r.take_str()?;
        let len = r.take_len("horizon", MAX_HORIZON)?;
        let mut steps = Vec::with_capacity(len);
        for _ in 0..len {
            steps.push(r.take_f64()?);
        }
        Ok(Self {
            host,
            method,
            steps,
        })
    }
}

/// A reply the forecast server sends back.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Forecast`].
    Forecast(ForecastReply),
    /// Answer to [`Request::Snapshot`].
    Snapshot(SnapshotReply),
    /// Answer to [`Request::BestHost`]: `None` when every host is
    /// degraded.
    BestHost(Option<HostRow>),
    /// Answer to [`Request::SeriesTail`].
    SeriesTail(SeriesTailReply),
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// Answers to a [`Request::Batch`], in request order.
    Batch(Vec<Response>),
    /// The request could not be answered.
    Error(ErrorReply),
    /// Answer to [`Request::WalSince`].
    WalChunk(WalChunkReply),
    /// Answer to [`Request::ForecastHorizon`].
    ForecastHorizon(HorizonReply),
}

impl Response {
    /// Encodes the response payload (header-less; see
    /// [`crate::write_response`] for framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Appends the encoded payload to `out` — the zero-fresh-allocation
    /// path for servers reusing one scratch buffer per connection.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        let mut w = Writer::with_buf(std::mem::take(out));
        self.encode_into(&mut w);
        *out = w.finish();
    }

    /// Appends the encoded payload through an existing [`Writer`] —
    /// the reference encoding [`ReplyRef::encode_into`] must reproduce
    /// byte for byte.
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            Response::Forecast(reply) => reply.encode_into(w),
            Response::Snapshot(reply) => reply.encode_into(w),
            Response::BestHost(row) => HostRow::encode_best(row.as_ref(), w),
            Response::SeriesTail(reply) => {
                w.put_u8(3);
                w.put_str(&reply.host);
                w.put_u32(reply.points.len() as u32);
                for p in &reply.points {
                    w.put_f64(p.time);
                    w.put_f64(p.value);
                }
            }
            Response::Stats(s) => s.encode_into(w),
            Response::Batch(items) => {
                ReplyRef::encode_batch_header(w, items.len());
                for item in items {
                    debug_assert!(!matches!(item, Response::Batch(_)), "batches cannot nest");
                    item.encode_into(w);
                }
            }
            Response::Error(e) => e.encode_into(w),
            Response::WalChunk(chunk) => chunk.encode_into(w),
            Response::ForecastHorizon(reply) => reply.encode_into(w),
        }
    }

    /// Decodes a response payload, consuming it exactly.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let resp = Self::decode_from(&mut r, true)?;
        r.expect_end()?;
        Ok(resp)
    }

    fn decode_from(r: &mut Reader<'_>, allow_batch: bool) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(Response::Forecast(ForecastReply::decode_from(r)?)),
            1 => {
                let time = r.take_f64()?;
                let len = r.take_len("snapshot hosts", MAX_HOSTS)?;
                let mut hosts = Vec::with_capacity(len);
                for _ in 0..len {
                    hosts.push(HostRow::decode_from(r)?);
                }
                Ok(Response::Snapshot(SnapshotReply { time, hosts }))
            }
            2 => Ok(Response::BestHost(if r.take_bool()? {
                Some(HostRow::decode_from(r)?)
            } else {
                None
            })),
            3 => {
                let host = r.take_str()?;
                let len = r.take_len("series tail", MAX_POINTS)?;
                let mut points = Vec::with_capacity(len);
                for _ in 0..len {
                    points.push(SeriesPoint {
                        time: r.take_f64()?,
                        value: r.take_f64()?,
                    });
                }
                Ok(Response::SeriesTail(SeriesTailReply { host, points }))
            }
            4 => Ok(Response::Stats(StatsReply {
                requests: r.take_u64()?,
                cache_hits: r.take_u64()?,
                cache_misses: r.take_u64()?,
                invalidations: r.take_u64()?,
                slots: r.take_u64()?,
                hosts: r.take_u32()?,
            })),
            5 => {
                if !allow_batch {
                    return Err(WireError::NestedBatch);
                }
                let len = r.take_len("batch", MAX_BATCH)?;
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(Self::decode_from(r, false)?);
                }
                Ok(Response::Batch(items))
            }
            6 => Ok(Response::Error(ErrorReply {
                code: ErrorCode::from_tag(r.take_u8()?)?,
                message: r.take_str()?,
            })),
            7 => Ok(Response::WalChunk(WalChunkReply {
                offset: r.take_u64()?,
                total: r.take_u64()?,
                revision: r.take_u64()?,
                now: r.take_f64()?,
                bytes: r.take_bytes("wal chunk", MAX_WAL_CHUNK)?,
            })),
            8 => Ok(Response::ForecastHorizon(HorizonReply::decode_from(r)?)),
            tag => Err(WireError::UnknownTag {
                what: "response",
                tag,
            }),
        }
    }
}

/// Encoded size of a batch reply's tag and item count — what precedes
/// the items [`ReplyRef::encode_batch_header`] announces.
pub const BATCH_HEADER_LEN: usize = 5;

/// One non-batch reply *borrowed* from the state that produced it: the
/// form a server answers in, so a cached forecast, a snapshot, a series
/// tail or a journal chunk reaches the write queue without being cloned
/// into a [`Response`] first. [`ReplyRef::encode_into`] writes exactly
/// the bytes [`Response::encode_into`] writes for
/// [`ReplyRef::into_response`] (the wire property tests pin that), so
/// the two can be diffed against each other.
#[derive(Debug, Clone)]
pub enum ReplyRef<'a> {
    /// [`Response::Forecast`], out of a cache.
    Forecast(&'a ForecastReply),
    /// [`Response::Snapshot`], out of a cache.
    Snapshot(&'a SnapshotReply),
    /// [`Response::BestHost`]: one row of a snapshot.
    BestHost(Option<&'a HostRow>),
    /// [`Response::SeriesTail`] as the memory stores it: a time column
    /// and a value column of equal length, oldest first.
    SeriesTail {
        /// Host name.
        host: &'a str,
        /// Measurement times in seconds.
        times: &'a [f64],
        /// Measured values.
        values: &'a [f64],
    },
    /// [`Response::Stats`].
    Stats(StatsReply),
    /// [`Response::Error`].
    Error(ErrorReply),
    /// [`Response::WalChunk`] with the bytes still in the journal.
    WalChunk(WalChunkReply<&'a [u8]>),
    /// [`Response::ForecastHorizon`].
    ForecastHorizon(HorizonReply),
}

fn str_len(s: &str) -> usize {
    4 + s.len()
}

impl ReplyRef<'_> {
    /// Appends the tag and item count of a batch reply of `items`
    /// replies; the caller appends each item with
    /// [`ReplyRef::encode_into`] — together the bytes of
    /// [`Response::Batch`].
    pub fn encode_batch_header(w: &mut Writer, items: usize) {
        debug_assert!(items <= MAX_BATCH, "batch exceeds protocol bound");
        w.put_u8(5);
        w.put_u32(items as u32);
    }

    /// Appends the encoded payload to `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            ReplyRef::Forecast(reply) => reply.encode_into(w),
            ReplyRef::Snapshot(reply) => reply.encode_into(w),
            ReplyRef::BestHost(row) => HostRow::encode_best(*row, w),
            ReplyRef::SeriesTail {
                host,
                times,
                values,
            } => {
                debug_assert_eq!(times.len(), values.len(), "columns of one series");
                w.put_u8(3);
                w.put_str(host);
                w.put_u32(times.len() as u32);
                for (&time, &value) in times.iter().zip(*values) {
                    w.put_f64(time);
                    w.put_f64(value);
                }
            }
            ReplyRef::Stats(s) => s.encode_into(w),
            ReplyRef::Error(e) => e.encode_into(w),
            ReplyRef::WalChunk(chunk) => chunk.encode_into(w),
            ReplyRef::ForecastHorizon(reply) => reply.encode_into(w),
        }
    }

    /// Exactly how many bytes [`ReplyRef::encode_into`] appends — what
    /// a server checks against [`crate::MAX_FRAME`] before it encodes.
    pub fn encoded_len(&self) -> usize {
        let row_len = |row: &HostRow| {
            let opt = |v: Option<f64>| 1 + 8 * usize::from(v.is_some());
            str_len(&row.host) + opt(row.latest) + opt(row.forecast) + 1
        };
        1 + match self {
            ReplyRef::Forecast(r) => {
                let interval = 1 + 16 * usize::from(r.interval.is_some());
                str_len(&r.host) + str_len(&r.method) + interval + 32
            }
            ReplyRef::Snapshot(r) => 12 + r.hosts.iter().map(row_len).sum::<usize>(),
            ReplyRef::BestHost(row) => 1 + row.map_or(0, row_len),
            ReplyRef::SeriesTail { host, times, .. } => str_len(host) + 4 + 16 * times.len(),
            ReplyRef::Stats(_) => 44,
            ReplyRef::Error(e) => 1 + str_len(&e.message),
            ReplyRef::WalChunk(chunk) => 36 + chunk.bytes.len(),
            ReplyRef::ForecastHorizon(r) => {
                str_len(&r.host) + str_len(&r.method) + 4 + 8 * r.steps.len()
            }
        }
    }

    /// The owned [`Response`] with the same encoding — the cloning a
    /// borrowed reply otherwise avoids.
    pub fn into_response(self) -> Response {
        match self {
            ReplyRef::Forecast(reply) => Response::Forecast(reply.clone()),
            ReplyRef::Snapshot(reply) => Response::Snapshot(reply.clone()),
            ReplyRef::BestHost(row) => Response::BestHost(row.cloned()),
            ReplyRef::SeriesTail {
                host,
                times,
                values,
            } => Response::SeriesTail(SeriesTailReply {
                host: host.to_string(),
                points: times
                    .iter()
                    .zip(values)
                    .map(|(&time, &value)| SeriesPoint { time, value })
                    .collect(),
            }),
            ReplyRef::Stats(s) => Response::Stats(s),
            ReplyRef::Error(e) => Response::Error(e),
            ReplyRef::WalChunk(chunk) => Response::WalChunk(WalChunkReply {
                offset: chunk.offset,
                total: chunk.total,
                revision: chunk.revision,
                now: chunk.now,
                bytes: chunk.bytes.to_vec(),
            }),
            ReplyRef::ForecastHorizon(reply) => Response::ForecastHorizon(reply),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forecast_reply() -> ForecastReply {
        ForecastReply {
            host: "thing1".into(),
            value: 0.73,
            method: "adaptive-median".into(),
            interval: Some((0.61, 0.84)),
            observations: 8640,
            staleness: 10.0,
            confidence: 0.97,
        }
    }

    #[test]
    fn every_request_variant_round_trips() {
        let requests = vec![
            Request::Forecast {
                host: "kongo".into(),
            },
            Request::Snapshot,
            Request::BestHost,
            Request::SeriesTail {
                host: "thing2".into(),
                n: 64,
            },
            Request::Stats,
            Request::Batch(vec![
                Request::Snapshot,
                Request::Forecast {
                    host: "gremlin".into(),
                },
                Request::Stats,
            ]),
            Request::WalSince {
                offset: 123_456,
                max: 65_536,
            },
            Request::ForecastHorizon {
                host: "thing1".into(),
                k: 32,
            },
        ];
        for req in requests {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn every_response_variant_round_trips() {
        let row = HostRow {
            host: "conundrum".into(),
            latest: Some(0.4),
            forecast: None,
            degraded: true,
        };
        let responses = vec![
            Response::Forecast(forecast_reply()),
            Response::Snapshot(SnapshotReply {
                time: 1200.0,
                hosts: vec![
                    row.clone(),
                    HostRow {
                        host: "kongo".into(),
                        latest: None,
                        forecast: Some(0.9),
                        degraded: false,
                    },
                ],
            }),
            Response::BestHost(Some(row)),
            Response::BestHost(None),
            Response::SeriesTail(SeriesTailReply {
                host: "thing1".into(),
                points: vec![
                    SeriesPoint {
                        time: 10.0,
                        value: 0.5,
                    },
                    SeriesPoint {
                        time: 20.0,
                        value: 0.625,
                    },
                ],
            }),
            Response::Stats(StatsReply {
                requests: 100,
                cache_hits: 60,
                cache_misses: 40,
                invalidations: 12,
                slots: 360,
                hosts: 6,
            }),
            Response::Batch(vec![
                Response::BestHost(None),
                Response::Stats(StatsReply::default()),
            ]),
            Response::Error(ErrorReply {
                code: ErrorCode::UnknownHost,
                message: "no such host: zardoz".into(),
            }),
            Response::Error(ErrorReply {
                code: ErrorCode::Overloaded,
                message: "server at connection capacity".into(),
            }),
            Response::WalChunk(WalChunkReply {
                offset: 72,
                total: 1440,
                revision: 99,
                now: 120.0,
                bytes: vec![0xAB; 33],
            }),
            Response::WalChunk(WalChunkReply {
                offset: 0,
                total: 0,
                revision: 0,
                now: 0.0,
                bytes: Vec::new(),
            }),
            Response::ForecastHorizon(HorizonReply {
                host: "kongo".into(),
                method: "arma(2,1)".into(),
                steps: vec![0.8, 0.76, 0.73, 0.71],
            }),
            Response::ForecastHorizon(HorizonReply {
                host: "gremlin".into(),
                method: "last-value".into(),
                steps: Vec::new(),
            }),
        ];
        for resp in responses {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn nested_batches_rejected() {
        // Hand-build batch-in-batch bytes: outer batch of one, inner tag 5.
        let mut w = Writer::new();
        w.put_u8(5);
        w.put_u32(1);
        w.put_u8(5);
        w.put_u32(0);
        let bytes = w.finish();
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::NestedBatch)
        ));
        assert!(matches!(
            Response::decode(&bytes),
            Err(WireError::NestedBatch)
        ));
    }

    #[test]
    fn oversized_batch_rejected() {
        let mut w = Writer::new();
        w.put_u8(5);
        w.put_u32(MAX_BATCH as u32 + 1);
        let bytes = w.finish();
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::LengthOutOfBounds { .. })
        ));
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            Request::decode(&[99]),
            Err(WireError::UnknownTag {
                what: "request",
                tag: 99
            })
        ));
        assert!(matches!(
            Response::decode(&[77]),
            Err(WireError::UnknownTag {
                what: "response",
                tag: 77
            })
        ));
        assert!(matches!(
            Response::decode(&[6, 9, 0, 0, 0, 0]),
            Err(WireError::UnknownTag {
                what: "error code",
                tag: 9
            })
        ));
    }

    #[test]
    fn oversized_wal_chunk_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(0);
        w.put_f64(0.0);
        w.put_u32(MAX_WAL_CHUNK as u32 + 1); // claims more than the bound
        let bytes = w.finish();
        assert!(matches!(
            Response::decode(&bytes),
            Err(WireError::LengthOutOfBounds {
                what: "wal chunk",
                ..
            })
        ));
    }

    #[test]
    fn oversized_horizon_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u8(8);
        w.put_str("thing1");
        w.put_str("last-value");
        w.put_u32(MAX_HORIZON as u32 + 1); // claims more than the bound
        let bytes = w.finish();
        assert!(matches!(
            Response::decode(&bytes),
            Err(WireError::LengthOutOfBounds {
                what: "horizon",
                ..
            })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::Snapshot.encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn empty_payload_rejected() {
        assert!(matches!(Request::decode(&[]), Err(WireError::Truncated)));
        assert!(matches!(Response::decode(&[]), Err(WireError::Truncated)));
    }

    #[test]
    fn nan_and_negative_zero_survive_the_wire_bit_for_bit() {
        let mut reply = forecast_reply();
        reply.value = f64::NAN;
        reply.staleness = -0.0;
        let resp = Response::Forecast(reply);
        let decoded = Response::decode(&resp.encode()).unwrap();
        match decoded {
            Response::Forecast(r) => {
                assert!(r.value.is_nan());
                assert_eq!(r.staleness.to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
