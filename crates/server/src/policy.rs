//! The request policy, written once.
//!
//! [`Core::reply`] turns one decoded [`Request`] into a borrowed
//! [`ReplyRef`]: host lookup, the revision-validated cache probe and
//! store, request and hit/miss accounting, the horizon, tail and chunk
//! clamps, journal-offset validation, and every error code and message.
//! [`Core::answer`] adds what spans a whole request — batch and nesting
//! rules and the bound of one reply frame. Both read the node's state
//! through a [`View`]: the [`Archive`] a primary commits into and a
//! replica replays into, and the three things the two answer
//! differently, so they cannot drift apart.
//!
//! What is left per caller is how a borrowed reply is rendered: as bytes
//! appended to a write queue ([`Core::dispatch_frame`], what every
//! transport serves through) or as an owned [`Response`]
//! ([`Core::dispatch`], the reference the byte path is diffed against).

use crate::cache::QueryCache;
use nws_grid::wal::MAX_RECORD_FRAME;
use nws_grid::{best_row, Archive, Metric, Wal};
use nws_runtime::Cadence;
use nws_wire::{
    begin_response_frame, end_response_frame, ErrorCode, ErrorReply, ForecastReply, HorizonReply,
    HostRow, ReplyRef, Request, Response, SnapshotReply, StatsReply, WalChunkReply, Writer,
    BATCH_HEADER_LEN, MAX_BATCH, MAX_FRAME, MAX_HORIZON, MAX_POINTS, MAX_STRING, MAX_WAL_CHUNK,
};

/// What the policy reads of a node's state, as of one request.
pub(crate) struct View<'a> {
    /// Registry, memory and forecasts: everything answered *from*.
    pub archive: &'a Archive,
    /// How a `ColdForecast` error describes a host without data.
    pub cold: &'static str,
    /// Measurement slots taken so far: the clock staleness is judged
    /// against.
    pub slots: u64,
    /// The journal `WalSince` streams, or why there is none to stream.
    pub journal: Result<&'a Wal, &'static str>,
}

impl View<'_> {
    /// The simulated time of [`View::slots`], in seconds.
    fn now(&self) -> f64 {
        Cadence::PAPER.slot_time(self.slots)
    }
}

/// State that can be served: a primary's live monitor, a replica's
/// replayed copy.
pub(crate) trait Served {
    /// The state as the policy reads it.
    fn view(&self) -> View<'_>;
}

/// Served state with the cache and the request count in front of it:
/// everything one node answers from.
pub(crate) struct Core<S> {
    pub(crate) state: S,
    pub(crate) cache: QueryCache,
    requests: u64,
}

/// What [`Core::answer`] hands a renderer, in order.
enum Step<'a> {
    /// The replies that follow are the elements of a batch this long.
    Batch(usize),
    /// The next reply, or the only one.
    Reply(ReplyRef<'a>),
    /// Everything rendered for this request so far is withdrawn.
    Withdraw,
}

/// An error reply, its message cut to [`MAX_STRING`] bytes at a char
/// boundary: messages quote the request (a host name may itself be
/// `MAX_STRING` bytes long), and a longer string is one no client
/// decodes.
fn error(code: ErrorCode, message: impl Into<String>) -> ErrorReply {
    let mut message = message.into();
    message.truncate(message.floor_char_boundary(MAX_STRING));
    ErrorReply { code, message }
}

fn bad_request(message: impl Into<String>) -> ErrorReply {
    error(ErrorCode::BadRequest, message)
}

/// The current snapshot out of the cache: one query (with the usual
/// hit/miss accounting), rebuilt from the archive's host rows only when
/// something a row shows moved — the archive, or the clock its
/// staleness is judged against.
fn snapshot<'c>(view: &View<'_>, cache: &'c mut QueryCache) -> &'c SnapshotReply {
    let time = view.now();
    let revision = (view.archive.revision()).wrapping_add(time.to_bits());
    cache.snapshot_or_insert_with(revision, || {
        let hosts = (view.archive.host_rows(time))
            .map(|row| HostRow {
                host: row.host.to_string(),
                latest: row.latest,
                degraded: row.degraded,
                forecast: row.forecast.map(|a| a.forecast.value),
            })
            .collect();
        SnapshotReply { time, hosts }
    })
}

/// Where the next task should go, by the archive's placement rule.
fn best_host(snapshot: &SnapshotReply) -> Option<&HostRow> {
    best_row(snapshot.hosts.iter().map(|h| (h, h.degraded, h.forecast)))
}

impl<S: Served> Core<S> {
    pub(crate) fn new(state: S) -> Self {
        Self {
            state,
            cache: QueryCache::new(),
            requests: 0,
        }
    }

    /// Answers one non-batch request, counting it.
    fn reply<'a>(&'a mut self, req: &'a Request) -> Result<ReplyRef<'a>, ErrorReply> {
        self.requests += 1;
        let (view, cache) = (self.state.view(), &mut self.cache);
        let (memory, forecasts) = (view.archive.memory(), view.archive.forecasts());
        let hybrid = |host: &str| {
            (view.archive.registry())
                .lookup(host, Metric::CpuAvailabilityHybrid)
                .ok_or_else(|| error(ErrorCode::UnknownHost, format!("no such host: {host}")))
        };
        let cold = |host: &str| error(ErrorCode::ColdForecast, format!("{host} {}", view.cold));
        Ok(match req {
            Request::Forecast { host } => {
                let id = hybrid(host)?;
                let build = || {
                    let answer = forecasts
                        .forecast_at(id, view.now())
                        .ok_or_else(|| cold(host))?;
                    Ok(ForecastReply {
                        host: host.clone(),
                        value: answer.forecast.value,
                        method: answer.forecast.method.to_string(),
                        interval: answer.interval.as_ref().map(|iv| (iv.lo, iv.hi)),
                        observations: answer.observations,
                        staleness: answer.staleness,
                        confidence: answer.confidence,
                    })
                };
                let revision = forecasts.revision(id);
                ReplyRef::Forecast(cache.forecast_or_insert_with(id, revision, build)?)
            }
            Request::Snapshot => ReplyRef::Snapshot(snapshot(&view, cache)),
            Request::BestHost => ReplyRef::BestHost(best_host(snapshot(&view, cache))),
            Request::SeriesTail { host, n } => {
                let n = (*n as usize).min(MAX_POINTS);
                let (times, values) = memory.tail(hybrid(host)?, n);
                ReplyRef::SeriesTail {
                    host,
                    times,
                    values,
                }
            }
            Request::Stats => ReplyRef::Stats(StatsReply {
                requests: self.requests,
                cache_hits: cache.hits(),
                cache_misses: cache.misses(),
                invalidations: cache.invalidations(),
                slots: view.slots,
                hosts: view.archive.hosts().len() as u32,
            }),
            // One bounded chunk of the journal, always ending on a
            // record boundary, so a replica applies it without buffering
            // partial frames across replies.
            Request::WalSince { offset, max } => {
                let wal = view.journal.map_err(bad_request)?;
                let (start, total) = (wal.start_offset() as u64, wal.len() as u64);
                if *offset < start {
                    return Err(bad_request(format!(
                        "wal offset {offset} was rotated away; journal starts at {start}"
                    )));
                }
                if *offset > total {
                    return Err(bad_request(format!(
                        "wal offset {offset} is past the journal end {total}"
                    )));
                }
                let max = (*max as usize).clamp(MAX_RECORD_FRAME, MAX_WAL_CHUNK);
                ReplyRef::WalChunk(WalChunkReply {
                    offset: *offset,
                    total,
                    revision: memory.global_revision(),
                    now: view.now(),
                    bytes: wal.chunk(*offset as usize, max),
                })
            }
            // Horizons are recomputed per request (no cache row):
            // iterating a fitted AR/ARMA model `k` steps is cheaper than
            // the bookkeeping a revision-checked cache entry would add.
            Request::ForecastHorizon { host, k } => {
                let id = hybrid(host)?;
                if *k == 0 {
                    return Err(bad_request("horizon must be at least one step"));
                }
                let steps = forecasts
                    .forecast_horizon(id, (*k as usize).min(MAX_HORIZON))
                    .ok_or_else(|| cold(host))?;
                let method = forecasts
                    .forecast(id)
                    .map(|a| a.forecast.method.to_string())
                    .unwrap_or_default();
                ReplyRef::ForecastHorizon(HorizonReply {
                    host: host.clone(),
                    method,
                    steps,
                })
            }
            Request::Batch(_) => return Err(bad_request("batches cannot nest")),
        })
    }

    /// Answers a whole request through `render`: a batch element-wise
    /// in order, anything else as a single reply. A reply that would
    /// not fit one frame is withdrawn and the request refused as a
    /// whole — a header declaring more than [`MAX_FRAME`] is one every
    /// client rejects.
    fn answer(&mut self, req: &Request, mut render: impl FnMut(Step<'_>)) {
        let (items, mut len) = match req {
            // Decode already bounds this; guard anyway for requests
            // constructed in-process.
            Request::Batch(items) if items.len() > MAX_BATCH => {
                let refusal = bad_request("batch too large");
                return render(Step::Reply(ReplyRef::Error(refusal)));
            }
            Request::Batch(items) => {
                render(Step::Batch(items.len()));
                (items.as_slice(), BATCH_HEADER_LEN)
            }
            one => (std::slice::from_ref(one), 0),
        };
        for item in items {
            let reply = self.reply(item).unwrap_or_else(ReplyRef::Error);
            len += reply.encoded_len();
            if len > MAX_FRAME {
                let refusal = format!("reply exceeds the {MAX_FRAME}-byte frame bound");
                render(Step::Withdraw);
                return render(Step::Reply(ReplyRef::Error(bad_request(refusal))));
            }
            render(Step::Reply(reply));
        }
    }

    /// Renders the answer as an owned [`Response`].
    pub(crate) fn dispatch(&mut self, req: &Request) -> Response {
        let (mut batch, mut single) = (None, None);
        self.answer(req, |step| match step {
            Step::Batch(items) => batch = Some(Vec::with_capacity(items)),
            Step::Reply(reply) => match &mut batch {
                Some(items) => items.push(reply.into_response()),
                None => single = Some(reply.into_response()),
            },
            Step::Withdraw => batch = None,
        });
        batch.map_or_else(
            || single.expect("every request is answered"),
            Response::Batch,
        )
    }

    /// Renders the answer as one complete response frame appended to
    /// `out`, straight from the borrows — no intermediate [`Response`],
    /// no cloned strings, no per-reply `Vec`.
    pub(crate) fn dispatch_frame(&mut self, req: &Request, out: &mut Vec<u8>) {
        let start = begin_response_frame(out);
        let payload = out.len();
        let mut w = Writer::with_buf(std::mem::take(out));
        self.answer(req, |step| match step {
            Step::Batch(items) => ReplyRef::encode_batch_header(&mut w, items),
            Step::Reply(reply) => reply.encode_into(&mut w),
            Step::Withdraw => w.truncate(payload),
        });
        *out = w.finish();
        end_response_frame(out, start);
    }
}
