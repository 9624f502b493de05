//! The `load` experiment: the coordinated-omission-free serving
//! benchmark behind the tracked `BENCH_serve.json`.
//!
//! Phase 0 fingerprints the seeded inputs (arrival schedules, request
//! mix, a serialized in-memory replay) into `results/load_sweep.csv` —
//! deterministic columns only, so CI can byte-diff the file across
//! thread counts. Phases 1–3 then measure: an open-loop rate
//! sweep over the threaded TCP server, the epoll reactor and the
//! in-memory transport (latency charged from each request's precomputed
//! virtual arrival, so server backlog cannot hide), a closed-loop
//! comparison at the same mix, and a geometric binary search for the max
//! sustainable rate under a p99 cap. Phase 4 soaks the same open-loop
//! schedule into fixed time windows, phase 5 sweeps the connection-churn
//! rate, phase 6 piles idle connections onto the reactor, phase 7 turns
//! the adversarial personas loose on a tight-deadline server, and phase 8
//! replays the mix through a failover client while a seeded crash plan
//! picks the moment the primary dies. All wall-clock numbers go to the
//! JSON (and stdout) only.

use crate::cli::Tier;
use crate::durability::FailoverFixture;
use crate::json::{fixed, obj, Json};
use crate::{write_artifact, write_tracked};
use nws_core::experiments::ExperimentConfig;
use nws_faults::CrashPlan;
use nws_grid::GridMonitor;
use nws_loadgen::{
    churn, closed_loop, fnv1a, max_sustainable_rps, open_loop, personas, soak, ArrivalSchedule,
    ChurnConnect, InterArrival, LatencyHistogram, MixRatios, RateSearch, RequestStream,
};
use nws_server::{
    ClientConfig, GridState, InMemoryTransport, NwsClient, NwsServer, ReactorConfig, ReactorServer,
    ServeError, ServerConfig, Transport,
};
use nws_sim::HostProfile;
use nws_wire::{ErrorCode, Request, Response};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Problem sizes for one tier.
struct Sizes {
    warm_steps: u64,
    /// Offered rates for the open-loop sweep, requests/second.
    rates: &'static [u64],
    /// Requests per open-loop point.
    n_open: usize,
    /// Requests per worker in the closed-loop phase.
    n_closed_per_worker: usize,
    search_iters: u32,
    search_n: usize,
    failover_requests: usize,
    /// Soak window width; the schedule length over this gives the number
    /// of p50/p99 rows in the time series.
    soak_window_ms: u64,
    /// Offered connection-arrival rates for the churn sweep,
    /// connects/second.
    churn_cps: &'static [u64],
    /// Connection arrivals per churn point.
    churn_conns: usize,
    /// Idle connections the reactor must hold in phase 6.
    conc_target: usize,
    /// Probe requests per concurrency milestone.
    conc_probe: usize,
}

const WORKERS: usize = 8;
const TAIL_N: u32 = 16;
const BATCH_SIZE: usize = 4;
const HEAVY_SHAPE: f64 = 1.5;

/// A load worker's connection: a socket client at one of the two
/// servers, or the in-memory transport.
enum Conn {
    Socket(NwsClient),
    Memory(InMemoryTransport),
}

impl Transport for Conn {
    fn call_raw(&mut self, req: &Request) -> Result<(Response, Vec<u8>), ServeError> {
        match self {
            Conn::Socket(c) => c.call_raw(req),
            Conn::Memory(m) => m.call_raw(req),
        }
    }
}

/// Where each transport name leads: identically warmed grids behind the
/// threaded TCP server, the epoll reactor, and the in-memory transport.
struct Targets {
    tcp: SocketAddr,
    reactor: SocketAddr,
    memory: Arc<Mutex<GridState>>,
}

impl Targets {
    /// The socket address behind `transport`, `None` for `in_memory`.
    fn addr(&self, transport: &str) -> Option<SocketAddr> {
        match transport {
            "tcp" => Some(self.tcp),
            "reactor" => Some(self.reactor),
            _ => None,
        }
    }

    fn connect(&self, transport: &str) -> Conn {
        match self.addr(transport) {
            Some(addr) => Conn::Socket(
                NwsClient::connect(addr, ClientConfig::default()).expect("connect load worker"),
            ),
            None => Conn::Memory(InMemoryTransport::new(Arc::clone(&self.memory))),
        }
    }

    fn workers(&self, transport: &str) -> Vec<Conn> {
        (0..WORKERS).map(|_| self.connect(transport)).collect()
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// A histogram's percentiles as the stdout columns.
fn latency_text(h: &LatencyHistogram) -> String {
    format!(
        "p50 {:>9.1} p99 {:>9.1} p999 {:>9.1} max {:>9.1}",
        us(h.p50()),
        us(h.p99()),
        us(h.p999()),
        us(h.max_ns())
    )
}

/// The same percentiles as JSON fields.
fn latency_fields(h: &LatencyHistogram) -> [(&'static str, Json); 4] {
    [
        ("p50_us", fixed(us(h.p50()), 2)),
        ("p99_us", fixed(us(h.p99()), 2)),
        ("p999_us", fixed(us(h.p999()), 2)),
        ("max_us", fixed(us(h.max_ns()), 2)),
    ]
}

fn warmed_grid(seed: u64, steps: u64) -> GridMonitor {
    let mut grid = GridMonitor::ucsd(seed);
    grid.run_steps(steps);
    grid
}

/// The chained fingerprint of the reply bytes to the first `k` requests
/// of `stream`.
fn replay_fingerprint(t: &mut impl Transport, stream: &mut RequestStream, k: usize) -> u64 {
    let mut fp = fnv1a(&[]);
    for _ in 0..k {
        let (_, bytes) = t.call_raw(&stream.next_request()).expect("replay");
        let mut chained = fp.to_le_bytes().to_vec();
        chained.extend_from_slice(&bytes);
        fp = fnv1a(&chained);
    }
    fp
}

/// Runs every phase. `transport_axis` ("threaded", "reactor", or "all")
/// selects which socket transports phases 1–5 drive; the in-memory
/// baseline always runs.
pub fn run(cfg: &ExperimentConfig, tier: Tier, transport_axis: &str) {
    let sizes = tier.pick(
        Sizes {
            warm_steps: 60,
            rates: &[1000, 4000],
            n_open: 400,
            n_closed_per_worker: 200,
            search_iters: 3,
            search_n: 200,
            failover_requests: 40,
            soak_window_ms: 25,
            churn_cps: &[500],
            churn_conns: 80,
            conc_target: 150,
            conc_probe: 100,
        },
        Sizes {
            warm_steps: 120,
            rates: &[1000, 4000, 16000],
            n_open: 800,
            n_closed_per_worker: 400,
            search_iters: 5,
            search_n: 400,
            failover_requests: 80,
            soak_window_ms: 50,
            churn_cps: &[250, 1000],
            churn_conns: 200,
            conc_target: 400,
            conc_probe: 200,
        },
        Sizes {
            warm_steps: 240,
            rates: &[1000, 4000, 16000, 64000],
            n_open: 2500,
            n_closed_per_worker: 1000,
            search_iters: 7,
            search_n: 1000,
            failover_requests: 200,
            soak_window_ms: 125,
            churn_cps: &[250, 1000],
            churn_conns: 400,
            conc_target: 1000,
            conc_probe: 300,
        },
    );
    let mix = MixRatios::default();
    println!(
        "\n== load: open-loop serving benchmark (tier {}, {WORKERS} workers, rates {:?} rps) ==",
        tier.name(),
        sizes.rates
    );

    let hosts: Vec<String> = HostProfile::all()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let stream_seed = |label: &str| cfg.seed ^ fnv1a(label.as_bytes());
    let stream_for =
        |label: &str| RequestStream::new(stream_seed(label), &hosts, mix, TAIL_N, BATCH_SIZE);

    // --- Phase 0: deterministic input fingerprints -> load_sweep.csv.
    // Everything in this file is a pure function of the seed; CI diffs
    // it byte-for-byte across --threads 1 and 4.
    let mut csv = String::from("phase,name,n,detail,fingerprint\n");
    let probe_rate = sizes.rates[sizes.rates.len() / 2];
    let heavy_tail = InterArrival::heavy_tail(probe_rate as f64, HEAVY_SHAPE);
    for dist in [InterArrival::poisson(probe_rate as f64), heavy_tail] {
        let sched = ArrivalSchedule::generate(dist, stream_seed(dist.label()), sizes.n_open);
        let _ = writeln!(
            csv,
            "arrival,{},{},rate={probe_rate},{:#018x}",
            dist.label(),
            sched.len(),
            sched.fingerprint()
        );
    }
    {
        let mut stream = stream_for("mix");
        stream.take(sizes.n_open);
        let detail = stream
            .counts()
            .iter()
            .map(|(kind, n)| format!("{}={n}", kind.label()))
            .collect::<Vec<_>>()
            .join(";");
        let _ = writeln!(
            csv,
            "mix,stream,{},{detail},{:#018x}",
            stream.drawn(),
            stream.fingerprint()
        );
    }

    // --- Phase 1: open-loop rate sweep over the transports.
    let socket_transports: &[&str] = match transport_axis {
        "threaded" => &["tcp"],
        "reactor" => &["reactor"],
        _ => &["tcp", "reactor"],
    };
    let mut sweep_transports: Vec<&str> = socket_transports.to_vec();
    sweep_transports.push("in_memory");
    let load_server_config = ServerConfig {
        // Generous: probe transports from consecutive search
        // iterations overlap while old sockets drain.
        max_connections: 64,
        ..ServerConfig::default()
    };
    let warmed = || GridState::new(warmed_grid(cfg.seed, sizes.warm_steps));
    let server = NwsServer::spawn(warmed(), load_server_config).expect("bind localhost");
    let reactor_server = ReactorServer::spawn(
        warmed(),
        ReactorConfig {
            server: load_server_config,
            ..ReactorConfig::default()
        },
    )
    .expect("bind reactor");
    let targets = Targets {
        tcp: server.addr(),
        reactor: reactor_server.addr(),
        memory: Arc::new(Mutex::new(warmed())),
    };

    // Byte-identity pin: a serialized replay — the exact response bytes
    // for a mixed request sequence against identically warmed grids —
    // through the in-memory transport and through the reactor's sockets.
    // The chained fingerprints must match exactly (one wire image,
    // whatever the transport), and both rows land in the CSV, so CI's
    // cross-thread byte-diff catches a thread-count leak anywhere in
    // sense -> store -> serve and pins it across event-loop counts.
    let replay_k = 256usize;
    let replays = ["in_memory", "reactor"].map(|transport| {
        let mut t = targets.connect(transport);
        let fp = replay_fingerprint(&mut t, &mut stream_for("replay"), replay_k);
        (transport, fp)
    });
    assert_eq!(
        replays[0].1, replays[1].1,
        "reactor reply bytes diverge from the in-memory transport"
    );
    for (transport, fp) in replays {
        let _ = writeln!(
            csv,
            "replay,{transport},{replay_k},warm={},{fp:#018x}",
            sizes.warm_steps
        );
    }

    let mut open_entries = Vec::new();
    println!(
        "  open loop ({} requests/point, latency from virtual arrival):",
        sizes.n_open
    );
    for transport in sweep_transports.iter().copied() {
        let poisson = sizes
            .rates
            .iter()
            .map(|&r| (r, InterArrival::poisson(r as f64)));
        for (rate, dist) in poisson.chain([(probe_rate, heavy_tail)]) {
            let label = format!("{transport}_{}_{rate}", dist.label());
            let sched = ArrivalSchedule::generate(dist, stream_seed(dist.label()), sizes.n_open);
            let mut stream = stream_for(&label);
            let requests = stream.take(sizes.n_open);
            let outcome = open_loop(targets.workers(transport), &sched, &requests);
            assert_eq!(outcome.errors, 0, "{label}: errors under load");
            assert_eq!(
                outcome.completed, sizes.n_open as u64,
                "{label}: dropped requests"
            );
            println!(
                "    {label:<28} offered {rate:>6} rps, achieved {:>8.0} rps, latency us: {}",
                outcome.achieved_rps(),
                latency_text(&outcome.hist)
            );
            let mut entry = vec![
                ("transport", transport.into()),
                ("dist", dist.label().into()),
                ("offered_rps", rate.into()),
                ("requests", outcome.completed.into()),
                ("achieved_rps", fixed(outcome.achieved_rps(), 1)),
            ];
            entry.extend(latency_fields(&outcome.hist));
            open_entries.push(Json::Obj(entry));
            let _ = writeln!(
                csv,
                "open_loop,{label},{},sched={:#018x},{:#018x}",
                sizes.n_open,
                sched.fingerprint(),
                stream.fingerprint()
            );
        }
    }

    // --- Phase 2: closed-loop comparison at the same mix. The
    // self-throttling baseline: the gap between these latencies and the
    // open-loop curve at a comparable achieved rate is the delay
    // coordinated omission used to hide.
    let n_closed = WORKERS * sizes.n_closed_per_worker;
    let mut closed_entries = Vec::new();
    println!("  closed loop ({n_closed} requests, latency from send):");
    for transport in sweep_transports.iter().copied() {
        let label = format!("closed_{transport}");
        let mut stream = stream_for(&label);
        let requests = stream.take(n_closed);
        let outcome = closed_loop(targets.workers(transport), &requests);
        assert_eq!(outcome.errors, 0, "{label}: errors under load");
        println!(
            "    {label:<28} achieved {:>8.0} rps, latency us: {}",
            outcome.achieved_rps(),
            latency_text(&outcome.hist)
        );
        let mut entry = vec![
            ("transport", transport.into()),
            ("requests", outcome.completed.into()),
            ("achieved_rps", fixed(outcome.achieved_rps(), 1)),
        ];
        entry.extend(latency_fields(&outcome.hist));
        closed_entries.push(Json::Obj(entry));
        let _ = writeln!(
            csv,
            "closed_loop,{transport},{n_closed},workers={WORKERS},{:#018x}",
            stream.fingerprint()
        );
    }

    // --- Phase 3: max sustainable rate, geometric bisection under a
    // p99 cap. Rates probed depend on measured behavior, so this phase
    // reports to JSON/stdout only — nothing lands in the CSV.
    let search = RateSearch {
        lo_rps: 500.0,
        hi_rps: 131_072.0,
        iterations: sizes.search_iters,
        requests: sizes.search_n,
        p99_cap: Duration::from_millis(20),
        min_goodput: 0.9,
    };
    let mut search_entries = Vec::new();
    println!(
        "  max sustainable rps (p99 cap {} ms, goodput floor {:.0}%):",
        search.p99_cap.as_millis(),
        search.min_goodput * 100.0
    );
    let mut best_by_transport: Vec<(&str, f64)> = Vec::new();
    for transport in sweep_transports.iter().copied() {
        let mut stream = stream_for(&format!("search_{transport}"));
        let (best, probes) = max_sustainable_rps(
            |_| targets.connect(transport),
            WORKERS,
            cfg.seed,
            |n| stream.take(n),
            search,
        );
        best_by_transport.push((transport, best));
        println!(
            "    {transport:<10} {best:>8.0} rps sustained ({} probes)",
            probes.len()
        );
        let probes: Vec<Json> = probes
            .iter()
            .map(|p| {
                obj([
                    ("offered_rps", fixed(p.offered_rps, 0)),
                    ("achieved_rps", fixed(p.achieved_rps, 0)),
                    ("p99_us", fixed(us(p.p99_ns), 1)),
                    ("sustainable", p.sustainable.into()),
                ])
            })
            .collect();
        search_entries.push(obj([
            ("transport", transport.into()),
            ("best_rps", fixed(best, 0)),
            ("probes", probes.into()),
        ]));
    }
    let best_of = |name: &str| best_by_transport.iter().find(|(t, _)| *t == name);
    if let (Some(&(_, threaded_best)), Some(&(_, reactor_best))) =
        (best_of("tcp"), best_of("reactor"))
    {
        println!(
            "    reactor/threaded sustainable-rate ratio: {:.2}x",
            reactor_best / threaded_best.max(1.0)
        );
    }

    // --- Phase 4: sustained soak. The same open-loop discipline, but
    // every latency lands in a fixed time window keyed by its virtual
    // arrival, producing a p50/p99 series over time. Window populations
    // are a pure function of the schedule, so the partition row is
    // deterministic and lands in the cross-thread CSV diff; the
    // measured per-window series goes to the JSON only.
    let soak_n = sizes.n_open * 2;
    let soak_window = Duration::from_millis(sizes.soak_window_ms);
    let mut soak_entries = Vec::new();
    println!(
        "  soak ({soak_n} requests at {probe_rate} rps, {} ms windows):",
        sizes.soak_window_ms
    );
    for transport in sweep_transports.iter().copied() {
        let label = format!("soak_{transport}");
        let sched = ArrivalSchedule::generate(
            InterArrival::poisson(probe_rate as f64),
            stream_seed(&label),
            soak_n,
        );
        let requests = stream_for(&label).take(soak_n);
        let outcome = soak(targets.workers(transport), &sched, &requests, soak_window);
        assert_eq!(outcome.errors, 0, "{label}: errors under soak");
        assert_eq!(
            outcome.completed, soak_n as u64,
            "{label}: dropped requests"
        );
        println!(
            "    {label:<28} {} windows, whole-run p50 {:>9.1} us p99 {:>9.1} us",
            outcome.windows.len(),
            us(outcome.hist.p50()),
            us(outcome.hist.p99()),
        );
        let _ = writeln!(
            csv,
            "soak,{label},{soak_n},window_ms={};windows={},{:#018x}",
            sizes.soak_window_ms,
            outcome.windows.len(),
            sched.fingerprint()
        );
        let mut windows = Vec::new();
        for w in &outcome.windows {
            windows.push(obj([
                ("index", w.index.into()),
                ("completed", w.completed.into()),
                ("p50_us", fixed(us(w.hist.p50()), 2)),
                ("p99_us", fixed(us(w.hist.p99()), 2)),
            ]));
        }
        soak_entries.push(obj([
            ("transport", transport.into()),
            ("requests", soak_n.into()),
            ("offered_rps", probe_rate.into()),
            ("window_ms", sizes.soak_window_ms.into()),
            ("p50_us", fixed(us(outcome.hist.p50()), 2)),
            ("p99_us", fixed(us(outcome.hist.p99()), 2)),
            ("windows", windows.into()),
        ]));
    }

    // --- Phase 5: connection churn. Requests/second holds a fixed set
    // of connections open; this sweeps the *other* axis, connects per
    // second, because accept-path work (socket setup, admission,
    // reactor registration) happens per connection. Arrivals are
    // open-loop from a seeded schedule; each connection asks a short
    // burst and hangs up.
    let churn_per_conn = 4usize;
    let mut churn_entries = Vec::new();
    println!(
        "  connection churn ({} arrivals/point, {churn_per_conn} requests/connection):",
        sizes.churn_conns
    );
    for transport in socket_transports.iter().copied() {
        let addr = targets.addr(transport).expect("socket transport");
        for &cps in sizes.churn_cps {
            let label = format!("churn_{transport}_{cps}");
            let sched = ArrivalSchedule::generate(
                InterArrival::poisson(cps as f64),
                stream_seed(&label),
                sizes.churn_conns,
            );
            let pool = stream_for(&label).take(sizes.churn_conns * churn_per_conn);
            let outcome = churn(
                &|_| match NwsClient::connect(addr, ClientConfig::default()) {
                    Ok(c) => ChurnConnect::Serve(c),
                    Err(_) => ChurnConnect::Failed,
                },
                WORKERS,
                &sched,
                &pool,
                churn_per_conn,
            );
            assert_eq!(outcome.attempted, sizes.churn_conns as u64);
            assert_eq!(outcome.failed, 0, "{label}: socket-level failures");
            assert_eq!(outcome.errors, 0, "{label}: typed errors mid-burst");
            assert_eq!(
                outcome.served + outcome.refused,
                sizes.churn_conns as u64,
                "{label}: every arrival served or refused"
            );
            println!(
                "    {label:<28} offered {cps:>5} cps, achieved {:>7.0} cps, \
                 served {}, refused {}, first-reply us: p50 {:>9.1} p99 {:>9.1}",
                outcome.achieved_cps(),
                outcome.served,
                outcome.refused,
                us(outcome.first_reply.p50()),
                us(outcome.first_reply.p99()),
            );
            let _ = writeln!(
                csv,
                "churn,{label},{},cps={cps};per_conn={churn_per_conn},{:#018x}",
                sizes.churn_conns,
                sched.fingerprint()
            );
            churn_entries.push(obj([
                ("transport", transport.into()),
                ("offered_cps", cps.into()),
                ("connections", sizes.churn_conns.into()),
                ("served", outcome.served.into()),
                ("refused", outcome.refused.into()),
                ("achieved_cps", fixed(outcome.achieved_cps(), 1)),
                (
                    "first_reply_p50_us",
                    fixed(us(outcome.first_reply.p50()), 2),
                ),
                (
                    "first_reply_p99_us",
                    fixed(us(outcome.first_reply.p99()), 2),
                ),
                ("request_p99_us", fixed(us(outcome.requests.p99()), 2)),
            ]));
        }
    }
    drop(server);
    drop(reactor_server);

    let concurrency = idle_capacity(cfg.seed, &sizes);
    let defenses = adversarial_personas(cfg.seed, &mut csv);
    let failover = failover_under_load(cfg.seed, &sizes, stream_for("failover"), &mut csv);
    write_artifact("load_sweep.csv", &csv);

    let doc = obj([
        ("schema_version", 1usize.into()),
        ("tier", tier.name().into()),
        ("threads", nws_runtime::threads().into()),
        ("workers", WORKERS.into()),
        (
            "mix",
            obj([
                ("forecast", mix.forecast.into()),
                ("snapshot", mix.snapshot.into()),
                ("best_host", mix.best_host.into()),
                ("series_tail", mix.series_tail.into()),
                ("batch", mix.batch.into()),
                ("tail_n", TAIL_N.into()),
                ("batch_size", BATCH_SIZE.into()),
            ]),
        ),
        ("open_loop", open_entries.into()),
        ("closed_loop", closed_entries.into()),
        ("max_sustainable_rps", search_entries.into()),
        ("soak", soak_entries.into()),
        ("churn", churn_entries.into()),
        ("concurrency", concurrency),
        ("personas", defenses),
        ("failover", failover),
    ]);
    write_tracked(tier, "BENCH_serve.json", &doc.render());
}

/// Phase 6: idle-connection capacity. The threaded server spends a
/// thread per connection, so its cap is the thread budget; the reactor
/// spends a slab slot. Hold the target number of idle connections open
/// on the reactor and probe request latency at milestones along the way
/// — the series is the p99-versus-connection-count curve. Values depend
/// on the machine and thread count, so this phase reports to JSON/stdout
/// only.
fn idle_capacity(seed: u64, sizes: &Sizes) -> Json {
    println!(
        "  idle-connection capacity (target {} connections):",
        sizes.conc_target
    );
    let warmed = || GridState::new(warmed_grid(seed, sizes.warm_steps.min(120)));
    let threaded_cap = ServerConfig::default().max_connections;
    let threaded_small =
        NwsServer::spawn(warmed(), ServerConfig::default()).expect("bind threaded cap probe");
    let mut threaded_refused_at = 0usize;
    let mut held_threaded: Vec<NwsClient> = Vec::new();
    for i in 0..threaded_cap + 24 {
        let mut c = NwsClient::connect(threaded_small.addr(), ClientConfig::default())
            .expect("connect threaded probe");
        match c.call(&Request::Stats) {
            Ok(Response::Error(e)) if e.code == ErrorCode::Overloaded => {
                threaded_refused_at = i + 1;
                break;
            }
            Ok(_) => held_threaded.push(c),
            Err(_) => {
                threaded_refused_at = i + 1;
                break;
            }
        }
    }
    assert!(
        threaded_refused_at > 0,
        "threaded server never refused within cap+24 connections"
    );
    println!("    threaded (cap {threaded_cap}): refused connection #{threaded_refused_at}");
    drop(held_threaded);
    drop(threaded_small);
    let conc_server = ReactorServer::spawn(
        warmed(),
        ReactorConfig {
            server: ServerConfig {
                max_connections: sizes.conc_target + 64,
                // Held connections sit idle between probes; keep the
                // idle cut well past the phase's runtime.
                read_timeout: Duration::from_secs(60),
                request_deadline: Duration::from_secs(120),
            },
            ..ReactorConfig::default()
        },
    )
    .expect("bind reactor capacity server");
    let milestones = [
        sizes.conc_target / 10,
        sizes.conc_target / 2,
        sizes.conc_target,
    ];
    let mut held: Vec<NwsClient> = Vec::with_capacity(sizes.conc_target);
    let mut points = Vec::new();
    for &m in &milestones {
        while held.len() < m {
            let mut c = NwsClient::connect(conc_server.addr(), ClientConfig::default())
                .expect("connect idle client");
            let resp = c.call(&Request::Stats).expect("stats on new connection");
            assert!(
                !matches!(resp, Response::Error(_)),
                "reactor refused connection #{} below its cap: {resp:?}",
                held.len() + 1
            );
            held.push(c);
        }
        let mut hist = LatencyHistogram::new();
        let probe = &mut held[0];
        for _ in 0..sizes.conc_probe {
            let t0 = Instant::now();
            let resp = probe.call(&Request::Stats).expect("probe stats");
            assert!(!matches!(resp, Response::Error(_)), "probe got typed error");
            hist.record(t0.elapsed());
        }
        println!(
            "    reactor: {m:>5} idle connections held, probe p50 {:>7.1} us p99 {:>7.1} us",
            us(hist.p50()),
            us(hist.p99()),
        );
        points.push(obj([
            ("connections", m.into()),
            ("p50_us", fixed(us(hist.p50()), 2)),
            ("p99_us", fixed(us(hist.p99()), 2)),
        ]));
    }
    assert_eq!(
        held.len(),
        sizes.conc_target,
        "reactor held the full connection target"
    );
    obj([
        ("threaded_cap", threaded_cap.into()),
        ("threaded_refused_at", threaded_refused_at.into()),
        ("reactor_held", sizes.conc_target.into()),
        ("reactor_active", conc_server.active_connections().into()),
        ("points", points.into()),
    ])
}

/// Phase 7: adversarial personas against a tight-deadline server, with a
/// healthy client exchanging throughout. Every defense must trip,
/// promptly, without collateral damage.
fn adversarial_personas(seed: u64, csv: &mut String) -> Json {
    let server = NwsServer::spawn(
        GridState::new(warmed_grid(seed, 40)),
        ServerConfig {
            read_timeout: Duration::from_millis(250),
            request_deadline: Duration::from_millis(450),
            max_connections: 8,
        },
    )
    .expect("bind persona server");
    let addr = server.addr();
    let patience = Duration::from_secs(5);
    let mut stats_frame = Vec::new();
    nws_wire::encode_request_frame(&mut stats_frame, &Request::Stats);
    let attackers = std::thread::spawn(move || {
        let partial = std::thread::spawn(move || personas::partial_frame(addr, patience));
        let oversize = std::thread::spawn(move || personas::oversize_claim(addr, patience));
        let slow = std::thread::spawn(move || {
            personas::slow_writer(addr, &stats_frame, Duration::from_millis(75), patience)
        });
        [
            partial.join().expect("partial_frame"),
            oversize.join().expect("oversize_claim"),
            slow.join().expect("slow_writer"),
        ]
    });
    let mut healthy = NwsClient::connect(addr, ClientConfig::default()).expect("connect healthy");
    let healthy_calls = 25usize;
    for _ in 0..healthy_calls {
        healthy.stats().expect("healthy call during attack");
        std::thread::sleep(Duration::from_millis(20));
    }
    let reports = attackers.join().expect("attacker thread");
    let mut detail = Vec::new();
    for report in &reports {
        let report = report.as_ref().expect("persona io");
        assert!(
            report.tripped,
            "{} did not trip the server: {}",
            report.name, report.detail
        );
        println!(
            "  persona {:<16} tripped in {:>6.0} ms",
            report.name,
            report.elapsed.as_secs_f64() * 1e3
        );
        detail.push(format!("{}=1", report.name));
    }
    healthy.stats().expect("healthy call after attack");
    let detail = detail.join(";");
    let _ = writeln!(
        csv,
        "personas,defenses,{},{detail},{:#018x}",
        reports.len(),
        fnv1a(detail.as_bytes())
    );
    obj([
        ("count", reports.len().into()),
        ("tripped", reports.len().into()),
        ("healthy_calls", healthy_calls.into()),
    ])
}

/// Phase 8: mix-driven load through a failover client over primary +
/// replica while a seeded crash plan picks the kill moment.
/// Availability must hold at 100%.
fn failover_under_load(
    seed: u64,
    sizes: &Sizes,
    mut stream: RequestStream,
    csv: &mut String,
) -> Json {
    let requests = sizes.failover_requests;
    let mut fixture = FailoverFixture::start(seed, sizes.warm_steps.min(120));
    let kill_at = CrashPlan::seeded(seed ^ 0x10AD)
        .next_event()
        .cut_at(requests)
        .clamp(1, requests - 1);
    let mut hist = LatencyHistogram::new();
    let mut post_kill_ms = 0.0f64;
    for (i, req) in stream.take(requests).iter().enumerate() {
        if i == kill_at {
            fixture.primary.shutdown();
        }
        let t0 = Instant::now();
        let resp = fixture.client.call(req).expect("every request is served");
        assert!(
            !matches!(resp, Response::Error(_)),
            "typed error through failover: {resp:?}"
        );
        let elapsed = t0.elapsed();
        if i == kill_at {
            post_kill_ms = elapsed.as_secs_f64() * 1e3;
        }
        hist.record(elapsed);
    }
    // Every call above returned a reply, or `expect` ended the run.
    let served = requests;
    let failovers = fixture.client.failovers();
    assert!(failovers >= 1, "the kill forced a failover");
    println!(
        "  failover: kill at request {kill_at}/{requests}, served {served}/{requests} \
         ({failovers} failover(s)); first post-kill {post_kill_ms:.2} ms, p50 {:.1} us, \
         p99 {:.1} us",
        us(hist.p50()),
        us(hist.p99()),
    );
    let _ = writeln!(
        csv,
        "failover,primary_kill,{requests},kill_at={kill_at};served={served},{:#018x}",
        stream.fingerprint()
    );
    obj([
        ("requests", requests.into()),
        ("kill_at", kill_at.into()),
        ("served", served.into()),
        ("failovers", failovers.into()),
        ("post_kill_ms", fixed(post_kill_ms, 3)),
        ("p50_us", fixed(us(hist.p50()), 2)),
        ("p99_us", fixed(us(hist.p99()), 2)),
    ])
}
