//! The epoll reactor is the one socket server, and on the wire it must
//! be indistinguishable from the socket-free in-memory transport:
//! byte-identical replies whatever the event-loop count, pipelined
//! replies in request order, replication served from the same WAL
//! bytes, hostile peers cut without hurting healthy ones — while
//! holding a thousand idle connections without spawning a thread or
//! growing memory per connection.

use nws::grid::{GridMonitor, GridMonitorConfig, Wal};
use nws::server::{
    ClientConfig, GridState, InMemoryTransport, NwsClient, ReactorConfig, ReactorServer,
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
