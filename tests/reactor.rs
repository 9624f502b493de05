//! The epoll reactor front end must be indistinguishable from the
//! threaded server on the wire: byte-identical replies whatever the
//! event-loop count, pipelined replies in request order, replication
//! served from the same WAL bytes — while holding an order of
//! magnitude more connections than the threaded server's thread
//! budget, without spawning a thread or growing memory per connection.

use nws::grid::{GridMonitor, GridMonitorConfig, Wal};
use nws::server::{
    ClientConfig, GridState, InMemoryTransport, NwsClient, NwsServer, ReactorConfig, ReactorServer,
    ReplicaState, ServerConfig, Transport,
};
use nws::sim::HostProfile;
use nws::wire::{
    append_request_frame, encode_request_frame, parse_frame_header, ErrorCode, Request, Response,
    HEADER_LEN, MAX_STRING,
};
use std::io::{Read, Write};
use std::net::TcpStream;
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

fn reactor_config(event_loops: usize) -> ReactorConfig {
    ReactorConfig {
        event_loops,
        ..ReactorConfig::default()
    }
}

#[test]
fn reactor_replies_match_threaded_and_in_memory_byte_for_byte() {
    let _guard = lock();
    let steps = 90;
    let hosts: Vec<String> = warm_grid(steps)
        .snapshot()
        .hosts
        .iter()
        .map(|h| h.host.clone())
        .collect();
    let seq = fixed_sequence(&hosts);

    let mut mem = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(warm_grid(steps)))));
    let expected = payload_trace(&mut mem, &seq);

    let threaded = NwsServer::spawn(GridState::new(warm_grid(steps)), ServerConfig::default())
        .expect("bind threaded");
    let mut tcp = NwsClient::connect(threaded.addr(), ClientConfig::default()).expect("connect");
    assert_eq!(
        payload_trace(&mut tcp, &seq),
        expected,
        "threaded server diverged from the in-memory transport"
    );

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
        .snapshot()
        .hosts
        .iter()
        .map(|h| h.host.clone())
        .collect();
    let seq = fixed_sequence(&hosts);
    let mut mem = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(warm_grid(steps)))));
    let expected = payload_trace(&mut mem, &seq);

    let reactor = ReactorServer::spawn(GridState::new(warm_grid(steps)), reactor_config(2))
        .expect("bind reactor");

    // Fire every request in one burst, no reads in between: a real
    // pipelining client. Replies must come back complete and in
    // request order.
    let mut sock = TcpStream::connect(reactor.addr()).expect("connect raw");
    sock.set_nodelay(true).expect("nodelay");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut burst = Vec::new();
    for req in &seq {
        append_request_frame(&mut burst, req);
    }
    sock.write_all(&burst).expect("write pipelined burst");

    for (i, want) in expected.iter().enumerate() {
        let mut header = [0u8; HEADER_LEN];
        sock.read_exact(&mut header).expect("response header");
        let (_, len) = parse_frame_header(&header).expect("well-formed header");
        let mut payload = vec![0u8; len];
        sock.read_exact(&mut payload).expect("response payload");
        assert_eq!(
            payload, *want,
            "pipelined reply {i} out of order or corrupted"
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
    let mut replica = ReplicaState::new(&host_refs, GridMonitorConfig::default());
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
    use nws::loadgen::personas;
    let _guard = lock();
    let reactor = ReactorServer::spawn(
        GridState::new(warm_grid(60)),
        ReactorConfig {
            server: ServerConfig {
                read_timeout: Duration::from_millis(250),
                request_deadline: Duration::from_millis(450),
                max_connections: 8,
            },
            ..reactor_config(2)
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
            // 9 frame bytes at 75 ms apart: each byte beats the idle
            // cut, but the whole frame blows the 450 ms deadline.
            personas::slow_writer(addr, &stats_frame, Duration::from_millis(75), patience)
        });
        [
            partial.join().expect("partial_frame"),
            oversize.join().expect("oversize_claim"),
            slow.join().expect("slow_writer"),
        ]
    });

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
            "{} did not trip the reactor: {}",
            report.name, report.detail
        );
        assert!(
            report.elapsed < Duration::from_secs(2),
            "{} took {:?} — defense was not prompt",
            report.name,
            report.elapsed
        );
    }
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

    // Baseline once the server's own threads (listener + event loops)
    // are up.
    let threads_before = proc_status_field("Threads:");
    let rss_before_kb = proc_status_field("VmRSS:");

    let held: Vec<TcpStream> = (0..IDLE)
        .map(|i| {
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect #{i} failed: {e}"))
        })
        .collect();
    // Registration is asynchronous (accept -> inbox -> event loop);
    // wait for the slab to report every connection.
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
