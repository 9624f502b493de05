//! Property tests for the wire protocol: every request/response variant
//! round-trips bit-exactly, a borrowed reply encodes as the response
//! built from it, a frame split in place gets the verdict a stream read
//! gets, and arbitrary garbage is rejected with a typed error — never a
//! panic.

use nws_wire::{
    encode_request_frame, encode_response_frame, read_frame, split_frame, write_request,
    write_response, ErrorCode, ErrorReply, ForecastReply, FrameKind, HorizonReply, HostRow,
    ReplyRef, Request, Response, SeriesPoint, SeriesTailReply, SnapshotReply, StatsReply,
    WalChunkReply, WireError, Writer, BATCH_HEADER_LEN, HEADER_LEN, MAX_BATCH, MAX_FRAME,
    MAX_HORIZON, MAX_WAL_CHUNK,
};
use proptest::prelude::*;

/// A generated host name: realistic short ASCII, sometimes empty.
fn host_name() -> impl Strategy<Value = String> {
    (0u64..u64::MAX, 0usize..12).prop_map(|(seed, len)| {
        let mut s = String::new();
        let mut x = seed;
        for _ in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let c = b'a' + ((x >> 33) % 26) as u8;
            s.push(c as char);
        }
        s
    })
}

/// Any f64 bit pattern, including NaNs, infinities, and signed zeros
/// (NaN and -0.0 on purpose, not just by luck).
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::NAN),
        Just(-0.0),
    ]
}

fn leaf_request() -> BoxedStrategy<Request> {
    prop_oneof![
        host_name().prop_map(|host| Request::Forecast { host }),
        Just(Request::Snapshot),
        Just(Request::BestHost),
        (host_name(), any::<u32>()).prop_map(|(host, n)| Request::SeriesTail { host, n }),
        Just(Request::Stats),
    ]
    .boxed()
}

fn any_request() -> BoxedStrategy<Request> {
    prop_oneof![
        leaf_request(),
        proptest::collection::vec(leaf_request(), 0..MAX_BATCH).prop_map(Request::Batch),
    ]
    .boxed()
}

fn host_row() -> impl Strategy<Value = HostRow> {
    (
        host_name(),
        proptest::option::of(any_f64()),
        proptest::option::of(any_f64()),
        any::<bool>(),
    )
        .prop_map(|(host, latest, forecast, degraded)| HostRow {
            host,
            latest,
            forecast,
            degraded,
        })
}

fn forecast_reply() -> impl Strategy<Value = ForecastReply> {
    (
        host_name(),
        any_f64(),
        host_name(),
        proptest::option::of((any_f64(), any_f64())),
        (any::<u64>(), any_f64(), any_f64()),
    )
        .prop_map(
            |(host, value, method, interval, (observations, staleness, confidence))| {
                ForecastReply {
                    host,
                    value,
                    method,
                    interval,
                    observations,
                    staleness,
                    confidence,
                }
            },
        )
}

fn leaf_response() -> BoxedStrategy<Response> {
    prop_oneof![
        forecast_reply().prop_map(Response::Forecast),
        (any_f64(), proptest::collection::vec(host_row(), 0..8))
            .prop_map(|(time, hosts)| Response::Snapshot(SnapshotReply { time, hosts })),
        proptest::option::of(host_row()).prop_map(Response::BestHost),
        (
            host_name(),
            proptest::collection::vec((any_f64(), any_f64()), 0..32)
        )
            .prop_map(|(host, pts)| {
                Response::SeriesTail(SeriesTailReply {
                    host,
                    points: pts
                        .into_iter()
                        .map(|(time, value)| SeriesPoint { time, value })
                        .collect(),
                })
            }),
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u32>())
        )
            .prop_map(
                |((requests, cache_hits, cache_misses), (invalidations, slots, hosts))| {
                    Response::Stats(StatsReply {
                        requests,
                        cache_hits,
                        cache_misses,
                        invalidations,
                        slots,
                        hosts,
                    })
                }
            ),
        (0u8..3, host_name()).prop_map(|(code, message)| {
            let code = match code {
                0 => ErrorCode::UnknownHost,
                1 => ErrorCode::ColdForecast,
                _ => ErrorCode::BadRequest,
            };
            Response::Error(ErrorReply { code, message })
        }),
        (
            (any::<u64>(), any::<u64>(), any::<u64>(), any_f64()),
            prop_oneof![Just(0), Just(MAX_WAL_CHUNK), 0usize..256],
            any::<u8>()
        )
            .prop_map(|((offset, total, revision, now), len, fill)| {
                Response::WalChunk(WalChunkReply {
                    offset,
                    total,
                    revision,
                    now,
                    bytes: vec![fill; len],
                })
            }),
        (
            host_name(),
            host_name(),
            proptest::collection::vec(any_f64(), 0..MAX_HORIZON)
        )
            .prop_map(|(host, method, steps)| {
                Response::ForecastHorizon(HorizonReply {
                    host,
                    method,
                    steps,
                })
            }),
    ]
    .boxed()
}

/// The time and value columns a server would answer a series tail from.
fn columns(resp: &Response) -> (Vec<f64>, Vec<f64>) {
    match resp {
        Response::SeriesTail(tail) => tail.points.iter().map(|p| (p.time, p.value)).unzip(),
        _ => Default::default(),
    }
}

/// A non-batch response as a server holds it before answering.
fn borrowed<'a>(resp: &'a Response, (times, values): &'a (Vec<f64>, Vec<f64>)) -> ReplyRef<'a> {
    match resp {
        Response::Forecast(reply) => ReplyRef::Forecast(reply),
        Response::Snapshot(reply) => ReplyRef::Snapshot(reply),
        Response::BestHost(row) => ReplyRef::BestHost(row.as_ref()),
        Response::SeriesTail(tail) => ReplyRef::SeriesTail {
            host: &tail.host,
            times,
            values,
        },
        Response::Stats(stats) => ReplyRef::Stats(*stats),
        Response::Error(e) => ReplyRef::Error(e.clone()),
        Response::WalChunk(chunk) => ReplyRef::WalChunk(WalChunkReply {
            offset: chunk.offset,
            total: chunk.total,
            revision: chunk.revision,
            now: chunk.now,
            bytes: &chunk.bytes,
        }),
        Response::ForecastHorizon(reply) => ReplyRef::ForecastHorizon(reply.clone()),
        Response::Batch(_) => unreachable!("batches are encoded item by item"),
    }
}

fn any_response() -> BoxedStrategy<Response> {
    prop_oneof![
        leaf_response(),
        proptest::collection::vec(leaf_response(), 0..8).prop_map(Response::Batch),
    ]
    .boxed()
}

/// Bit-level equality for the f64-bearing message types (NaN-safe), via
/// the canonical encoding.
fn same_bytes_request(a: &Request, b: &Request) -> bool {
    a.encode() == b.encode()
}

fn same_bytes_response(a: &Response, b: &Response) -> bool {
    a.encode() == b.encode()
}

/// A whole frame of either kind, with the kind it was framed as.
fn any_frame() -> BoxedStrategy<(FrameKind, Vec<u8>)> {
    prop_oneof![
        any_request().prop_map(|req| {
            let mut buf = Vec::new();
            encode_request_frame(&mut buf, &req);
            (FrameKind::Request, buf)
        }),
        any_response().prop_map(|resp| {
            let mut buf = Vec::new();
            encode_response_frame(&mut buf, &resp);
            (FrameKind::Response, buf)
        }),
    ]
    .boxed()
}

/// `split_frame` on `bytes` reaches the verdict `read_frame` reaches on
/// a stream of the same bytes: the same kind and payload, or an error
/// with the same `Display`.
fn split_agrees_with_read(bytes: &[u8]) -> TestCaseResult {
    match (
        split_frame(bytes),
        read_frame(&mut std::io::Cursor::new(bytes)),
    ) {
        (Ok((kind, payload)), Ok((read_kind, read_payload))) => {
            prop_assert_eq!(kind, read_kind);
            prop_assert!(payload == read_payload.as_slice(), "payloads differ");
        }
        (Err(split), Err(read)) => prop_assert_eq!(split.to_string(), read.to_string()),
        (split, read) => prop_assert!(false, "split_frame {split:?}, read_frame {read:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip(req in any_request()) {
        let decoded = Request::decode(&req.encode()).expect("decode own encoding");
        prop_assert!(same_bytes_request(&decoded, &req), "{req:?} != {decoded:?}");
    }

    #[test]
    fn responses_round_trip(resp in any_response()) {
        let decoded = Response::decode(&resp.encode()).expect("decode own encoding");
        prop_assert!(same_bytes_response(&decoded, &resp), "{resp:?} != {decoded:?}");
    }

    #[test]
    fn borrowed_replies_encode_as_the_responses_built_from_them(
        items in proptest::collection::vec(leaf_response(), 0..8)
    ) {
        let stores: Vec<_> = items.iter().map(columns).collect();
        let replies = || items.iter().zip(&stores).map(|(item, store)| borrowed(item, store));
        let mut batch = Writer::new();
        ReplyRef::encode_batch_header(&mut batch, items.len());
        let mut batch_len = BATCH_HEADER_LEN;
        for (reply, item) in replies().zip(&items) {
            let mut w = Writer::new();
            reply.encode_into(&mut w);
            let bytes = w.finish();
            prop_assert!(bytes.len() == reply.encoded_len(), "{reply:?}");
            let owned = reply.clone().into_response();
            prop_assert!(same_bytes_response(&owned, item), "{owned:?} != {item:?}");
            prop_assert!(bytes == owned.encode(), "{reply:?}");
            let decoded = Response::decode(&bytes).expect("decode a borrowed encoding");
            prop_assert!(same_bytes_response(&decoded, &owned), "{decoded:?} != {owned:?}");
            reply.encode_into(&mut batch);
            batch_len += bytes.len();
        }
        let bytes = batch.finish();
        let owned = Response::Batch(replies().map(ReplyRef::into_response).collect());
        prop_assert_eq!(bytes.len(), batch_len);
        prop_assert_eq!(&bytes, &owned.encode());
        let decoded = Response::decode(&bytes).expect("decode a borrowed batch");
        prop_assert!(same_bytes_response(&decoded, &owned));
    }

    #[test]
    fn framed_requests_round_trip(req in any_request()) {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).expect("write to vec");
        let decoded = nws_wire::read_request(&mut std::io::Cursor::new(&buf))
            .expect("read own frame");
        prop_assert!(same_bytes_request(&decoded, &req));
    }

    #[test]
    fn split_frame_agrees_with_read_frame(
        (kind, frame) in any_frame(),
        trailing in proptest::collection::vec(any::<u8>(), 1..16)
    ) {
        // Every proper prefix is a truncation. `read_frame` copies what
        // a prefix holds, so it is compared at every header cut and at
        // a few hundred payload cuts; `split_frame` at every cut.
        let stride = (frame.len() / 256).max(1);
        for cut in 0..frame.len() {
            let split = split_frame(&frame[..cut]);
            prop_assert!(matches!(split, Err(WireError::Truncated)), "cut {cut}: {split:?}");
            if cut <= HEADER_LEN || cut % stride == 0 || cut + 1 == frame.len() {
                split_agrees_with_read(&frame[..cut])?;
            }
        }
        // The whole frame, alone and followed by bytes of another,
        // splits to its own kind and payload.
        let mut padded = frame.clone();
        padded.extend_from_slice(&trailing);
        for bytes in [&frame[..], &padded[..]] {
            let split = split_frame(bytes);
            prop_assert!(
                matches!(split, Ok((k, payload)) if k == kind && payload == &frame[HEADER_LEN..]),
                "{split:?}"
            );
            split_agrees_with_read(bytes)?;
        }
        // Each header corruption, with and without the trailing bytes a
        // longer declared length would read into.
        let corruptions: [fn(&mut [u8]); 5] = [
            |h| h[0] ^= 0xFF,
            |h| h[2] = h[2].wrapping_add(1),
            |h| h[3] = 2,
            |h| h[4..8].copy_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes()),
            |h| {
                let len = u32::from_le_bytes(h[4..8].try_into().expect("4 bytes"));
                h[4..8].copy_from_slice(&(len + 1).to_le_bytes());
            },
        ];
        for corrupt in corruptions {
            for bytes in [&frame, &padded] {
                let mut bad = bytes.clone();
                corrupt(&mut bad);
                split_agrees_with_read(&bad)?;
            }
        }
    }

    #[test]
    fn garbage_payloads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Either a clean decode or a typed error; a panic fails the test.
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn garbage_frames_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = read_frame(&mut std::io::Cursor::new(&bytes));
    }

    #[test]
    fn truncated_valid_frames_are_rejected(resp in any_response(), frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).expect("write to vec");
        let cut = ((buf.len() as f64) * frac) as usize;
        if cut < buf.len() {
            let r = read_frame(&mut std::io::Cursor::new(&buf[..cut]));
            prop_assert!(r.is_err(), "cut frame at {cut}/{} must not decode", buf.len());
        }
    }

    #[test]
    fn single_byte_corruption_never_panics(req in any_request(), pos_seed in any::<u64>(), flip in 1u8..=255) {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).expect("write to vec");
        let pos = (pos_seed % buf.len() as u64) as usize;
        buf[pos] ^= flip;
        // Corruption may still decode to *some* valid message (e.g. a
        // flipped f64 bit); it must never panic or over-read.
        let _ = nws_wire::read_request(&mut std::io::Cursor::new(&buf));
    }
}
