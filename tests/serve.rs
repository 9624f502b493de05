//! The forecast-serving subsystem must inherit the repo's determinism
//! guarantees: responses are a pure function of the grid seed and the
//! request sequence — independent of transport (TCP vs in-memory) and
//! of the runtime thread count the grid was advanced with.

use nws::grid::{GridMonitor, GridMonitorConfig};
use nws::runtime::Cadence;
use nws::server::{
    ClientConfig, GridState, InMemoryTransport, NwsClient, NwsServer, ServerConfig, TickDriver,
    Transport,
};
use nws::sim::HostProfile;
use nws::wire::{ErrorCode, Request, Response};
use std::sync::{Arc, Mutex};

const SEED: u64 = 424242;

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
    seq.push(Request::Batch(
        hosts
            .iter()
            .map(|h| Request::Forecast { host: h.clone() })
            .collect(),
    ));
    seq.push(Request::Stats);
    seq
}

/// Warms a six-host grid under the given runtime thread count and wraps
/// it in the socket-free transport.
fn warm_transport(threads: usize, steps: u64) -> InMemoryTransport {
    nws::runtime::set_threads(Some(threads));
    let mut grid = GridMonitor::ucsd(SEED);
    grid.run_steps(steps);
    InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(grid))))
}

fn payload_trace(t: &mut InMemoryTransport, seq: &[Request]) -> Vec<Vec<u8>> {
    let mut trace = Vec::new();
    for req in seq {
        let (_, bytes) = t.call_raw(req).expect("dispatch");
        trace.push(bytes);
    }
    trace
}

#[test]
fn in_memory_responses_are_bit_identical_across_thread_counts() {
    let steps = 90;
    let mut one = warm_transport(1, steps);
    let mut four = warm_transport(4, steps);
    let hosts: Vec<String> = one
        .state()
        .lock()
        .expect("state")
        .grid()
        .snapshot()
        .hosts
        .iter()
        .map(|h| h.host.clone())
        .collect();
    let seq = fixed_sequence(&hosts);
    // Two passes with a grid tick in between, so the cached *and* the
    // recomputed paths are both compared.
    for _ in 0..2 {
        assert_eq!(
            payload_trace(&mut one, &seq),
            payload_trace(&mut four, &seq),
            "thread count leaked into served bytes"
        );
        one.state().lock().expect("state").tick(1);
        four.state().lock().expect("state").tick(1);
    }
    nws::runtime::set_threads(None);
}

#[test]
fn tcp_responses_match_the_in_memory_transport_byte_for_byte() {
    nws::runtime::set_threads(Some(1));
    let steps = 60;
    let mut grid_a = GridMonitor::ucsd(SEED);
    grid_a.run_steps(steps);
    let mut grid_b = GridMonitor::ucsd(SEED);
    grid_b.run_steps(steps);
    let hosts: Vec<String> = grid_a
        .snapshot()
        .hosts
        .iter()
        .map(|h| h.host.clone())
        .collect();

    let server =
        NwsServer::spawn(GridState::new(grid_a), ServerConfig::default()).expect("bind localhost");
    let mut tcp = NwsClient::connect(server.addr(), ClientConfig::default()).expect("connect");
    let mut mem = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(grid_b))));
    let mut tcp_driver = TickDriver::virtual_time(Arc::clone(server.state()));
    let mut mem_driver = TickDriver::virtual_time(Arc::clone(mem.state()));
    let slot_seconds = Cadence::PAPER.measurement_period;

    // Two passes with one measurement period between them on both
    // clocks, so the invalidate-and-recompute path is also compared
    // over a real socket.
    for pass in 0..2 {
        for req in fixed_sequence(&hosts) {
            let (_, tcp_bytes) = tcp.call_raw(&req).expect("tcp");
            let (_, mem_bytes) = mem.call_raw(&req).expect("in-memory");
            assert_eq!(
                tcp_bytes, mem_bytes,
                "transports diverged on {req:?} (pass {pass})"
            );
        }
        assert_eq!(tcp_driver.advance(slot_seconds), 1);
        assert_eq!(mem_driver.advance(slot_seconds), 1);
    }
    nws::runtime::set_threads(None);
}

#[test]
fn adversarial_personas_trip_defenses_without_wedging_healthy_clients() {
    use nws::loadgen::personas;
    use std::time::Duration;
    nws::runtime::set_threads(Some(1));
    let mut grid = GridMonitor::ucsd(SEED);
    grid.run_steps(60);
    // Tight deadlines so the defenses fire inside test time; room for
    // three personas plus a healthy client at once.
    let server = NwsServer::spawn(
        GridState::new(grid),
        ServerConfig {
            read_timeout: Duration::from_millis(250),
            request_deadline: Duration::from_millis(450),
            max_connections: 8,
        },
    )
    .expect("bind localhost");
    let addr = server.addr();
    let patience = Duration::from_secs(5);
    let mut stats_frame = Vec::new();
    nws::wire::encode_request_frame(&mut stats_frame, &Request::Stats);

    let attackers = std::thread::spawn(move || {
        let partial = std::thread::spawn(move || personas::partial_frame(addr, patience));
        let oversize = std::thread::spawn(move || personas::oversize_claim(addr, patience));
        let slow = std::thread::spawn(move || {
            // 9 frame bytes at 75 ms apart: every byte beats the 250 ms
            // per-read timeout, but the whole frame takes 675 ms — well
            // past the 450 ms request deadline.
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
    .expect("connect");
    for _ in 0..30 {
        healthy.stats().expect("healthy call during attack");
        std::thread::sleep(Duration::from_millis(20));
    }

    for report in attackers.join().expect("attacker thread") {
        let report = report.expect("persona io");
        assert!(
            report.tripped,
            "{} did not trip the server: {}",
            report.name, report.detail
        );
        assert!(
            report.elapsed < Duration::from_secs(2),
            "{} took {:?} — defense was not prompt",
            report.name,
            report.elapsed
        );
    }
    // And the server is still fully healthy afterwards.
    healthy.stats().expect("healthy call after attack");
    nws::runtime::set_threads(None);
}

#[test]
fn cache_hits_accumulate_between_ticks_and_reset_on_append() {
    let mut t = warm_transport(1, 60);
    let fc1 = t.forecast("thing1").expect("warm");
    let fc2 = t.forecast("thing1").expect("cached");
    assert_eq!(fc1, fc2);
    {
        let st = t.state().lock().expect("state");
        assert_eq!(st.cache().hits(), 1);
        assert_eq!(st.cache().invalidations(), 0);
    }
    t.state().lock().expect("state").tick(1);
    let fc3 = t.forecast("thing1").expect("recomputed");
    assert_eq!(fc3.observations, fc1.observations + 1);
    let st = t.state().lock().expect("state");
    assert_eq!(st.cache().invalidations(), 1);
    nws::runtime::set_threads(None);
}

/// A batch of `tails` full-series tails of a day-warm host (8,640
/// points, ~138 kB each): seven fit one frame, eight do not.
fn full_tails(tails: usize) -> Request {
    let tail = Request::SeriesTail {
        host: "thing1".into(),
        n: 8_640,
    };
    Request::Batch(vec![tail; tails])
}

#[test]
fn a_reply_past_the_frame_bound_is_refused_whole_and_the_next_request_is_served() {
    let mut grid = GridMonitor::new(&[HostProfile::Thing1], SEED, GridMonitorConfig::default());
    grid.run_steps(8_640);
    let mut t = InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(grid))));
    match t.call(&full_tails(7)).expect("fits one frame") {
        Response::Batch(items) => assert_eq!(items.len(), 7),
        other => panic!("wrong reply: {other:?}"),
    }
    let (refusal, bytes) = t
        .call_raw(&full_tails(8))
        .expect("a typed error, not a wire error");
    match refusal {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("wrong reply: {other:?}"),
    }
    assert!(bytes.len() < 128, "nothing of the withdrawn batch is sent");
    // The reference renderer refuses with the same bytes.
    let reference = t.state().lock().expect("state").dispatch(&full_tails(8));
    assert_eq!(reference.encode(), bytes);
    // The state lock is not poisoned and the accounting went on: every
    // tail answered before the bound tripped was counted.
    let stats = t.stats().expect("served after the refusal");
    assert_eq!(stats.requests, 7 + 8 + 8 + 1);
}
