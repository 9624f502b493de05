//! The epoll reactor is the one socket server, and on the wire it must
//! be indistinguishable from the socket-free in-memory transport:
//! byte-identical replies whatever the event-loop count, pipelined
//! replies in request order (through a half-close, through a socket
//! that pushes back, and through seeded fragmentation, pipelining depth
//! and malformed frames), replication served from the same WAL
//! bytes, hostile peers cut without hurting healthy ones — while
//! holding a thousand idle connections without spawning a thread or
//! growing memory per connection.

use nws::grid::{GridMonitor, GridMonitorConfig, MemoryConfig, Wal};
use nws::server::{
    ClientConfig, GridState, InMemoryTransport, NwsClient, ReactorConfig, ReactorServer,
    ReplicaState, ServerConfig, Transport,
};
use nws::sim::HostProfile;
use nws::stats::Rng;
use nws::wire::{
    append_request_frame, append_response_frame, encode_request_frame, parse_frame_header,
    ErrorCode, Request, Response, HEADER_LEN, MAGIC, MAX_STRING, VERSION,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SEED: u64 = 424242;

/// Tests in this binary compare process-wide observables (thread
/// count, resident memory), so they must not overlap with each other's
/// servers. One lock serializes them; other test binaries are separate
/// processes and do not interfere.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A warmed six-host grid with a journal attached, so `WalSince`
/// (the replication pull) is servable.
fn warm_grid(steps: u64) -> GridMonitor {
    let mut grid = GridMonitor::ucsd(SEED);
    grid.attach_journal(Wal::new());
    grid.run_steps(steps);
    grid
}

/// Every request kind, including the WAL-streaming pull.
fn fixed_sequence(hosts: &[String]) -> Vec<Request> {
    let mut seq = vec![Request::Snapshot, Request::BestHost];
    for h in hosts {
        seq.push(Request::Forecast { host: h.clone() });
        seq.push(Request::SeriesTail {
            host: h.clone(),
            n: 24,
        });
        seq.push(Request::ForecastHorizon {
            host: h.clone(),
            k: 24,
        });
    }
    seq.push(Request::ForecastHorizon {
        host: "zardoz".into(), // unknown host: typed error on every transport
        k: 8,
    });
    seq.push(Request::ForecastHorizon {
        host: hosts[0].clone(),
        k: 0, // degenerate horizon: BadRequest on every transport
    });
    seq.push(Request::Batch(
        hosts
            .iter()
            .map(|h| Request::Forecast { host: h.clone() })
            .collect(),
    ));
    seq.push(Request::WalSince {
        offset: 0,
        max: 4096,
    });
    seq.push(Request::WalSince {
        offset: 0,
        max: 1 << 16,
    });
    seq.push(Request::Stats);
    seq
}

fn payload_trace(t: &mut impl Transport, seq: &[Request]) -> Vec<Vec<u8>> {
    seq.iter()
        .map(|req| t.call_raw(req).expect("dispatch").1)
        .collect()
}

/// Connects a raw socket and writes every request of `seq` in one
/// burst, reading nothing: a real pipelining client.
fn pipeline(addr: SocketAddr, seq: &[Request]) -> TcpStream {
    let mut sock = TcpStream::connect(addr).expect("connect raw");
    sock.set_nodelay(true).expect("nodelay");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut burst = Vec::new();
    for req in seq {
        append_request_frame(&mut burst, req);
    }
    sock.write_all(&burst).expect("write pipelined burst");
    sock
}

/// Reads one reply frame off `sock` and returns its payload.
fn read_payload(sock: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; HEADER_LEN];
    sock.read_exact(&mut header).expect("response header");
    let (_, len) = parse_frame_header(&header).expect("well-formed header");
    let mut payload = vec![0u8; len];
    sock.read_exact(&mut payload).expect("response payload");
    payload
}

/// One host, warmed a day: 8,640 points per series, so a full
/// `SeriesTail` is a ~138 KB reply.
fn day_warm() -> GridMonitor {
    let mut grid = GridMonitor::new(&[HostProfile::Thing1], SEED, GridMonitorConfig::default());
    grid.run_steps(8_640);
    grid
}

fn reactor_config(event_loops: usize) -> ReactorConfig {
    ReactorConfig {
        event_loops,
        ..ReactorConfig::default()
    }
}

#[test]
fn reactor_replies_match_in_memory_byte_for_byte_at_one_and_four_loops() {
    let _guard = lock();
    let steps = 90;
    let hosts: Vec<String> = warm_grid(steps)
        .hosts()
        .map(|(host, _)| host.to_string())
        .collect();
    let seq = fixed_sequence(&hosts);

    let mut mem = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(warm_grid(steps)))));
    let expected = payload_trace(&mut mem, &seq);

    for loops in [1usize, 4] {
        let reactor = ReactorServer::spawn(GridState::new(warm_grid(steps)), reactor_config(loops))
            .expect("bind reactor");
        let mut client =
            NwsClient::connect(reactor.addr(), ClientConfig::default()).expect("connect reactor");
        assert_eq!(
            payload_trace(&mut client, &seq),
            expected,
            "reactor with {loops} event loop(s) diverged from the in-memory transport"
        );
    }
}

#[test]
fn pipelined_replies_arrive_in_request_order() {
    let _guard = lock();
    let steps = 60;
    let hosts: Vec<String> = warm_grid(steps)
        .hosts()
        .map(|(host, _)| host.to_string())
        .collect();
    let seq = fixed_sequence(&hosts);
    let mut mem = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(warm_grid(steps)))));
    let expected = payload_trace(&mut mem, &seq);

    let reactor = ReactorServer::spawn(GridState::new(warm_grid(steps)), reactor_config(2))
        .expect("bind reactor");

    // Fire every request in one burst, no reads in between. Replies
    // must come back complete and in request order.
    let mut sock = pipeline(reactor.addr(), &seq);
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(
            read_payload(&mut sock),
            *want,
            "pipelined reply {i} out of order or corrupted"
        );
    }
}

#[test]
fn a_half_closed_pipeline_is_answered_in_full_then_closed() {
    let _guard = lock();
    let steps = 60;
    let hosts: Vec<String> = warm_grid(steps)
        .hosts()
        .map(|(host, _)| host.to_string())
        .collect();
    let seq = fixed_sequence(&hosts);
    let mut mem = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(warm_grid(steps)))));
    let expected = payload_trace(&mut mem, &seq);

    for loops in [1usize, 4] {
        let reactor = ReactorServer::spawn(GridState::new(warm_grid(steps)), reactor_config(loops))
            .expect("bind reactor");
        // Pipeline every request, then close the write side at once:
        // the server reads EOF with every request already buffered.
        let mut sock = pipeline(reactor.addr(), &seq);
        sock.shutdown(Shutdown::Write).expect("half-close");
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(
                read_payload(&mut sock),
                *want,
                "reply {i} after the half-close ({loops} loop(s))"
            );
        }
        let mut rest = Vec::new();
        sock.read_to_end(&mut rest)
            .expect("the server closes after the last reply");
        assert!(
            rest.is_empty(),
            "EOF after the last reply ({loops} loop(s))"
        );
    }
}

#[test]
fn replies_the_socket_pushes_back_arrive_whole_and_in_order() {
    let _guard = lock();
    // A day-warm host keeps 8,640 points per series, so a batch of four
    // full tails is a ~550 KB reply, and 48 of them (~26 MB) are more
    // than a loopback socket buffers plus the server's 1 MiB cap on
    // unsent replies (under Linux's default `tcp_rmem`/`tcp_wmem`, 36
    // of the 192 tails get dispatched): the server's writes are refused
    // while the client reads nothing, and it stops dispatching. Each
    // tail is one point shorter than the last, so a reordered reply
    // cannot match.
    const BATCHES: usize = 48;
    const TAILS: usize = 4;
    let seq: Vec<Request> = (0..BATCHES)
        .map(|i| {
            let tail = Request::SeriesTail {
                host: "thing1".into(),
                n: (8_640 - i) as u32,
            };
            Request::Batch(vec![tail; TAILS])
        })
        .collect();
    let mut mem = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(day_warm()))));
    let expected = payload_trace(&mut mem, &seq);

    for loops in [1usize, 4] {
        let reactor = ReactorServer::spawn(GridState::new(day_warm()), reactor_config(loops))
            .expect("bind reactor");
        let mut sock = pipeline(reactor.addr(), &seq);
        // Read nothing until the server's count of dispatched tails
        // holds still (each `Stats` counts itself too): every reply it
        // encodes for a peer that reads nothing has then been encoded.
        let mut watcher =
            NwsClient::connect(reactor.addr(), ClientConfig::default()).expect("connect watcher");
        let deadline = Instant::now() + Duration::from_secs(10);
        let (mut tails, mut still) = (u64::MAX, 0);
        for polls in 1u64.. {
            let seen = watcher.stats().expect("stats").requests - polls;
            still = if seen == tails { still + 1 } else { 0 };
            tails = seen;
            if still == 20 {
                break;
            }
            assert!(Instant::now() < deadline, "{tails} tails and still moving");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The unsent replies are capped, so the rest wait unread in the
        // kernel until the client drains what was sent.
        assert!(
            tails < (BATCHES * TAILS) as u64,
            "all {tails} tails dispatched to a peer that reads nothing ({loops} loop(s))"
        );
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(
                read_payload(&mut sock),
                *want,
                "reply {i} after backpressure ({loops} loop(s))"
            );
        }
    }
}

#[test]
#[ignore = "reads ~24 MB at 3.2 MB/s, at one and at four loops: ~15 s"]
fn a_slow_reader_gets_every_pipelined_reply() {
    let _guard = lock();
    // Reading the replies to these tails takes longer than the idle cut
    // and the stalled-writer deadline (5 s each), but the socket takes
    // bytes every 20 ms, so the server must keep sending. Each tail is
    // one point shorter than the last, so a reordered reply cannot
    // match.
    const TAILS: usize = 176;
    const READ: usize = 64 * 1024;
    const PAUSE: Duration = Duration::from_millis(20);
    let seq: Vec<Request> = (0..TAILS)
        .map(|i| Request::SeriesTail {
            host: "thing1".into(),
            n: (8_640 - i) as u32,
        })
        .collect();
    let mut mem = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(day_warm()))));
    let expected = payload_trace(&mut mem, &seq);
    let total: usize = expected.iter().map(|p| HEADER_LEN + p.len()).sum();
    let reads = total.div_ceil(READ) as u32;
    assert!(
        PAUSE * reads >= Duration::from_secs(7),
        "{total} B read too fast"
    );

    for loops in [1usize, 4] {
        let reactor = ReactorServer::spawn(GridState::new(day_warm()), reactor_config(loops))
            .expect("bind reactor");
        let mut sock = pipeline(reactor.addr(), &seq);
        let mut stream = vec![0u8; total];
        for chunk in stream.chunks_mut(READ) {
            std::thread::sleep(PAUSE);
            sock.read_exact(chunk).unwrap_or_else(|e| {
                panic!("reply stream cut ({loops} loop(s)): {e}");
            });
        }
        let mut at = 0;
        for (i, want) in expected.iter().enumerate() {
            let header = stream[at..at + HEADER_LEN]
                .try_into()
                .expect("header bytes");
            let (_, len) = parse_frame_header(header).expect("well-formed header");
            at += HEADER_LEN;
            assert_eq!(
                &stream[at..at + len],
                want.as_slice(),
                "reply {i} to a slow reader ({loops} loop(s))"
            );
            at += len;
        }
    }
}

/// Seeded cases the fuzz test runs at each event-loop count; the
/// ignored long run draws more.
const FUZZ_CASES: u64 = 32;
const FUZZ_CASES_LONG: u64 = 512;

#[test]
fn fragmented_pipelined_traffic_matches_in_memory_at_one_and_four_loops() {
    let _guard = lock();
    fuzz_against_in_memory(FUZZ_CASES);
}

#[test]
#[ignore = "the 512-case run of the fuzz test above"]
fn fragmented_pipelined_traffic_matches_in_memory_at_length() {
    let _guard = lock();
    fuzz_against_in_memory(FUZZ_CASES_LONG);
}

/// Drives seeded cases through one reactor per loop count, each case on
/// a fresh connection, and checks every reply against an in-memory
/// transport fed the same requests in the same order. Each case draws
/// a request sequence, how its bytes are cut into writes, a pipelining
/// depth, an optional malformed frame and an optional half-close.
fn fuzz_against_in_memory(cases: u64) {
    let steps = 60;
    let hosts: Vec<String> = warm_grid(steps)
        .hosts()
        .map(|(host, _)| host.to_string())
        .collect();
    let vocabulary = fixed_sequence(&hosts);
    for loops in [1usize, 4] {
        let config = ReactorConfig {
            server: ServerConfig {
                // Room for connections whose close the loop has not yet
                // seen when the next case connects.
                max_connections: 64,
                ..ServerConfig::default()
            },
            event_loops: loops,
        };
        let reactor =
            ReactorServer::spawn(GridState::new(warm_grid(steps)), config).expect("bind reactor");
        let state = Arc::new(Mutex::new(GridState::new(warm_grid(steps))));
        let mut oracle = InMemoryTransport::new(state);
        for case in 0..cases {
            let mut rng = Rng::new(SEED ^ case);
            let label = format!("case {case}, {loops} loop(s)");
            fuzz_case(&mut rng, reactor.addr(), &mut oracle, &vocabulary, &label);
        }
    }
}

fn fuzz_case(
    rng: &mut Rng,
    addr: SocketAddr,
    oracle: &mut impl Transport,
    vocabulary: &[Request],
    label: &str,
) {
    let mut requests: Vec<Request> = (0..1 + rng.below(24))
        .map(|_| vocabulary[rng.below(vocabulary.len() as u64) as usize].clone())
        .collect();
    // The stream ends at a malformed frame: bytes the server never
    // reads would turn its close into a reset, which may discard the
    // refusal before the client reads it.
    let malformed = rng.chance(0.25);
    if malformed {
        requests.truncate(rng.below(requests.len() as u64 + 1) as usize);
    }
    let depth = 1 + rng.below(12) as usize;
    let half_close = rng.chance(0.5);
    let expected = payload_trace(oracle, &requests);

    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for req in &requests {
        append_request_frame(&mut bytes, req);
        ends.push(bytes.len());
    }
    if malformed {
        // A well-formed header over an unknown request tag, or a
        // response frame sent to the server: both are refused only
        // once the whole payload is in.
        let (kind, payload) = if rng.chance(0.5) {
            (0u8, vec![0xFF])
        } else {
            let mut frame = Vec::new();
            append_response_frame(&mut frame, &Response::Batch(Vec::new()));
            (1u8, frame[HEADER_LEN..].to_vec())
        };
        bytes.extend_from_slice(&MAGIC.to_be_bytes());
        bytes.extend_from_slice(&[VERSION, kind]);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        ends.push(bytes.len());
    }

    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_nodelay(true).expect("nodelay");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut answered = 0;
    let check_next = |sock: &mut TcpStream, answered: &mut usize| {
        let got = read_payload(sock);
        assert_eq!(got, expected[*answered], "reply {answered} ({label})");
        *answered += 1;
    };
    let mut written = 0;
    while written < bytes.len() {
        // Keep at most `depth` whole requests unanswered.
        let sent = ends.partition_point(|&end| end <= written);
        while sent - answered >= depth && answered < expected.len() {
            check_next(&mut sock, &mut answered);
        }
        // The rest of the frame being written, or 1..=64 bytes of it
        // and whatever follows.
        let len = if rng.chance(0.5) {
            ends[sent] - written
        } else {
            (1 + rng.below(64) as usize).min(bytes.len() - written)
        };
        sock.write_all(&bytes[written..written + len])
            .unwrap_or_else(|e| panic!("write ({label}): {e}"));
        written += len;
        if rng.chance(0.1) {
            std::thread::sleep(Duration::from_micros(rng.below(2_000)));
        }
    }
    if half_close {
        sock.shutdown(Shutdown::Write).expect("half-close");
    }
    while answered < expected.len() {
        check_next(&mut sock, &mut answered);
    }
    if malformed {
        match Response::decode(&read_payload(&mut sock)) {
            Ok(Response::Error(e)) => assert_eq!(e.code, ErrorCode::BadRequest, "{label}"),
            other => panic!("malformed frame answered {other:?} ({label})"),
        }
    }
    if malformed || half_close {
        let mut rest = Vec::new();
        sock.read_to_end(&mut rest)
            .unwrap_or_else(|e| panic!("EOF after the last reply ({label}): {e}"));
        assert!(
            rest.is_empty(),
            "{} bytes after the last reply ({label})",
            rest.len()
        );
    }
}

#[test]
fn replica_syncs_over_the_reactor() {
    let _guard = lock();
    let reactor = ReactorServer::spawn(GridState::new(warm_grid(120)), reactor_config(1))
        .expect("bind reactor");
    let mut feed = NwsClient::connect(reactor.addr(), ClientConfig::default()).expect("connect");
    let host_refs: Vec<&str> = HostProfile::all().iter().map(|p| p.name()).collect();
    let mut replica = ReplicaState::new(&host_refs, MemoryConfig::default());
    replica.sync(&mut feed).expect("replicate over the reactor");
    assert!(replica.synced(), "replica caught up through the reactor");
}

#[test]
fn a_reply_past_the_frame_bound_is_a_typed_error_on_the_same_connection() {
    let _guard = lock();
    // A day-warm host holds 8,640 points per series: eight full tails
    // in one batch are ~1.1 MB, more than a frame may carry.
    let mut grid = GridMonitor::new(&[HostProfile::Thing1], SEED, GridMonitorConfig::default());
    grid.run_steps(8_640);
    let reactor = ReactorServer::spawn(GridState::new(grid), reactor_config(1)).expect("bind");
    let mut client = NwsClient::connect(reactor.addr(), ClientConfig::default()).expect("connect");
    let tail = Request::SeriesTail {
        host: "thing1".into(),
        n: 8_640,
    };
    match client.call(&Request::Batch(vec![tail; 8])) {
        Ok(Response::Error(e)) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("wrong reply: {other:?}"),
    }
    let tail = client.series_tail("thing1", 8_640).expect("next request");
    assert_eq!(tail.points.len(), 8_640);
    assert_eq!(client.reconnects(), 0, "the refusal was a readable frame");
}

#[test]
fn an_unknown_host_name_at_the_string_bound_is_answered_unknown_host() {
    let _guard = lock();
    // The reply quotes the name after 14 bytes of prefix, so names from
    // 1,011 bytes up would overrun the string bound uncut; the last one
    // puts the cut inside a three-byte char.
    let names = [
        "x".repeat(1_010),
        "x".repeat(1_011),
        "x".repeat(MAX_STRING),
        "€".repeat(341),
    ];
    let mut mem = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(warm_grid(30)))));
    let reactor =
        ReactorServer::spawn(GridState::new(warm_grid(30)), reactor_config(1)).expect("bind");
    let mut client = NwsClient::connect(reactor.addr(), ClientConfig::default()).expect("connect");
    for name in &names {
        let req = Request::Forecast { host: name.clone() };
        let (resp, payload) = mem.call_raw(&req).expect("in-memory reply");
        let (_, reactor_payload) = client.call_raw(&req).expect("reactor reply");
        assert_eq!(payload, reactor_payload, "{}-byte name", name.len());
        match resp {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::UnknownHost);
                assert!(e.message.len() <= MAX_STRING);
                assert!(format!("no such host: {name}").starts_with(&e.message));
            }
            other => panic!("{}-byte name answered {other:?}", name.len()),
        }
    }
    assert_eq!(client.reconnects(), 0, "every refusal was a readable frame");
}

#[test]
fn personas_trip_the_reactor_defenses_without_hurting_healthy_clients() {
    let _guard = lock();
    for loops in [1usize, 2, 4] {
        personas_against(loops);
    }
}

/// Three hostile personas attack a reactor with `event_loops` loops
/// while a healthy client keeps exchanging: every persona must trip a
/// defense promptly and the healthy client must never notice.
fn personas_against(event_loops: usize) {
    use nws::loadgen::personas;
    // Tight deadlines so the defenses fire inside test time; room for
    // three personas plus a healthy client at once.
    let reactor = ReactorServer::spawn(
        GridState::new(warm_grid(60)),
        ReactorConfig {
            server: ServerConfig {
                read_timeout: Duration::from_millis(250),
                request_deadline: Duration::from_millis(450),
                max_connections: 8,
            },
            ..reactor_config(event_loops)
        },
    )
    .expect("bind reactor");
    let addr = reactor.addr();
    let patience = Duration::from_secs(5);
    let mut stats_frame = Vec::new();
    encode_request_frame(&mut stats_frame, &Request::Stats);

    let attackers = std::thread::spawn(move || {
        let partial = std::thread::spawn(move || personas::partial_frame(addr, patience));
        let oversize = std::thread::spawn(move || personas::oversize_claim(addr, patience));
        let slow = std::thread::spawn(move || {
            // 9 frame bytes at 75 ms apart: every byte beats the 250 ms
            // idle cut, but the whole frame takes 675 ms — well past
            // the 450 ms request deadline.
            personas::slow_writer(addr, &stats_frame, Duration::from_millis(75), patience)
        });
        [
            partial.join().expect("partial_frame"),
            oversize.join().expect("oversize_claim"),
            slow.join().expect("slow_writer"),
        ]
    });

    // A healthy client keeps exchanging while the attack runs; every
    // call must succeed with normal latency.
    let mut healthy = NwsClient::connect(
        addr,
        ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        },
    )
    .expect("connect healthy");
    for _ in 0..30 {
        healthy.stats().expect("healthy call during attack");
        std::thread::sleep(Duration::from_millis(20));
    }

    for report in attackers.join().expect("attacker thread") {
        let report = report.expect("persona io");
        assert!(
            report.tripped,
            "{} did not trip the reactor ({event_loops} loop(s)): {}",
            report.name, report.detail
        );
        assert!(
            report.elapsed < Duration::from_secs(2),
            "{} took {:?} on {event_loops} loop(s) — defense was not prompt",
            report.name,
            report.elapsed
        );
    }
    // And the server is still fully healthy afterwards.
    healthy.stats().expect("healthy call after attack");
}

fn proc_status_field(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            return digits.parse().expect("numeric /proc field");
        }
    }
    panic!("{field} not in /proc/self/status");
}

#[test]
fn a_thousand_idle_connections_cost_no_threads_and_bounded_memory() {
    let _guard = lock();
    const IDLE: usize = 1000;
    let reactor = ReactorServer::spawn(
        GridState::new(warm_grid(60)),
        ReactorConfig {
            server: ServerConfig {
                max_connections: IDLE + 32,
                // The held connections sit idle for the whole test;
                // keep the idle cut far away.
                read_timeout: Duration::from_secs(120),
                request_deadline: Duration::from_secs(240),
            },
            ..reactor_config(2)
        },
    )
    .expect("bind reactor");
    let addr = reactor.addr();

    // Baseline once the server's own threads (its event loops) are up.
    let threads_before = proc_status_field("Threads:");
    let rss_before_kb = proc_status_field("VmRSS:");

    let held: Vec<TcpStream> = (0..IDLE)
        .map(|i| {
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect #{i} failed: {e}"))
        })
        .collect();
    // Admission is asynchronous (an event loop accepts when it wakes);
    // wait for the loops to report every connection.
    let deadline = Instant::now() + Duration::from_secs(10);
    while reactor.active_connections() < IDLE {
        assert!(
            Instant::now() < deadline,
            "only {} of {IDLE} idle connections registered",
            reactor.active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let threads_after = proc_status_field("Threads:");
    let rss_after_kb = proc_status_field("VmRSS:");
    assert_eq!(
        threads_after, threads_before,
        "idle connections must not spawn threads"
    );
    let grown_kb = rss_after_kb.saturating_sub(rss_before_kb);
    assert!(
        grown_kb < 64 * 1024,
        "{IDLE} idle connections grew RSS by {grown_kb} KiB"
    );

    // The server still answers promptly with the fleet connected.
    let mut client = NwsClient::connect(addr, ClientConfig::default()).expect("connect client");
    client.stats().expect("stats with 1000 idle connections");
    assert!(reactor.active_connections() > IDLE);
    drop(held);
}

/// Set in the child that the fd-exhaustion test re-runs itself as.
const FD_CHILD: &str = "NWS_REACTOR_FD_CHILD";

#[test]
fn an_accept_that_finds_no_free_fd_does_not_stop_the_server_accepting() {
    if std::env::var_os(FD_CHILD).is_some() {
        return accept_through_fd_exhaustion();
    }
    let _guard = lock();
    // The child runs under a low fd limit, so exhausting its fd table is
    // cheap and touches nothing in this process.
    let name = "an_accept_that_finds_no_free_fd_does_not_stop_the_server_accepting";
    let out = std::process::Command::new("sh")
        .args(["-c", r#"ulimit -n 128; exec "$0" "$@""#])
        .arg(std::env::current_exe().expect("test binary path"))
        .args(["--exact", name, "--test-threads=1", "--nocapture"])
        .env(FD_CHILD, "1")
        .output()
        .expect("run the child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "child failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The child: fill the fd table, connect with the last free fd so the
/// server's accept fails with `EMFILE`, then free the table and require
/// the server to serve a fresh client promptly.
fn accept_through_fd_exhaustion() {
    let reactor =
        ReactorServer::spawn(GridState::new(warm_grid(30)), reactor_config(1)).expect("bind");
    let addr = reactor.addr();
    let mut hog = Vec::new();
    while let Ok(f) = std::fs::File::open("/dev/null") {
        hog.push(f);
    }
    assert!(!hog.is_empty(), "the fd table was already full");
    hog.pop();
    let stranded = TcpStream::connect(addr).expect("connect with the last free fd");
    // Several ticks: the event loop wakes and its accept finds no fd.
    std::thread::sleep(Duration::from_millis(100));
    drop(hog);

    let quick = ClientConfig {
        retries: 0,
        io_timeout: Duration::from_secs(2),
        ..ClientConfig::default()
    };
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match NwsClient::connect(addr, quick).and_then(|mut c| c.stats()) {
            Ok(_) => break,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "not served within 2 s of the fd table draining: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    drop(stranded);
}
