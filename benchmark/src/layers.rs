//! Per-layer metrics measured from outside: direct calls on each
//! crate's public functions over steady-state objects, with exact byte
//! and allocation counts where the layer has them. Layers are crate
//! names. None of this depends on the workload being traced; it runs
//! once per traced run so every per-layer name is reported every time.

use crate::affinity::spawning_on_server_cpu;
use crate::counters::{clock_read_ns, count_allocs, io_syscalls, wakeups};
use crate::harness::{Metric, RunConfig};
use crate::stats::{quantile, sort};
use crate::workloads::client::Client;
use crate::workloads::serve_live::Ticker;
use crate::workloads::serve_socket::{self, reactor_config};
use crate::workloads::serving::{open_loop_schedule, warm_slots, warm_state, Script};
use nws_forecast::{ewma_step, PanelSpec};
use nws_grid::{
    FleetConfig, FleetMonitor, FleetPanel, ForecastService, GridMonitor, Memory, MemoryConfig,
    ResourceId, SnapshotStore, Wal, WalRecord,
};
use nws_runtime::{Cadence, Engine, EngineConfig, Source, Stage};
use nws_sensors::{HybridSensor, LoadAvgSensor, VmstatSensor};
use nws_server::{Dispatch, GridState, InMemoryTransport, NwsServer, ReactorServer, Transport};
use nws_sim::{HostProfile, SyntheticHost};
use nws_wire::{
    encode_request_frame, encode_response_frame, read_request, read_response, Request, Response,
};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Times `f` over `n` calls, ns per call.
fn ns_per(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// A recorded availability series for the forecaster measurements: one
/// synthetic host's trajectory (AR(1) with regime shifts).
fn recorded_series(seed: u64, n: usize) -> Vec<f64> {
    let mut host = SyntheticHost::new(0, seed);
    (0..n).map(|_| host.step()).collect()
}

fn sim_and_sensors(cfg: &RunConfig, out: &mut Vec<Metric>) {
    let slots = cfg.size(2_400, 240) as u64;
    let cadence = Cadence::PAPER;
    let mut hosts: Vec<_> = HostProfile::all()
        .iter()
        .map(|p| {
            (
                p.build(cfg.seed ^ nws_loadgen::fnv1a(p.name().as_bytes())),
                LoadAvgSensor::new(),
                VmstatSensor::new(),
                HybridSensor::default(),
            )
        })
        .collect();
    let (mut advance_ns, mut measure_ns, mut probe_ns, mut probes) = (0u128, 0u128, 0u128, 0u64);
    for slot in 0..slots {
        let target = (slot + 1) as f64 * cadence.measurement_period;
        let probe_slot = slot.is_multiple_of(cadence.probe_every());
        let t0 = Instant::now();
        for (host, ..) in &mut hosts {
            host.advance_to(target);
        }
        let t1 = Instant::now();
        for (host, load, vmstat, hybrid) in &mut hosts {
            black_box(load.measure(host));
            black_box(vmstat.measure(host));
            if !probe_slot {
                black_box(hybrid.measure_degraded(host, false, false));
            }
        }
        let t2 = Instant::now();
        if probe_slot {
            for (host, _, _, hybrid) in &mut hosts {
                black_box(hybrid.measure_with_probe_retries(
                    host,
                    0,
                    target + cadence.measurement_period,
                ));
                probes += 1;
            }
            probe_ns += t2.elapsed().as_nanos();
        }
        advance_ns += (t1 - t0).as_nanos();
        measure_ns += (t2 - t1).as_nanos();
    }
    let host_slots = (slots * hosts.len() as u64) as f64;
    out.push(Metric::new(
        "sim.advance_us_per_slot",
        advance_ns as f64 / host_slots / 1e3,
        "us",
    ));
    out.push(Metric::new(
        "sensors.measure_us_per_slot",
        measure_ns as f64 / host_slots / 1e3,
        "us",
    ));
    out.push(Metric::new(
        "sensors.probe_us",
        probe_ns as f64 / probes as f64 / 1e3,
        "us",
    ));
    out.push(Metric::new("sensors.probes", probes as f64, "count"));

    let mut roster: Vec<SyntheticHost> =
        (0..1024).map(|i| SyntheticHost::new(i, cfg.seed)).collect();
    let rounds = cfg.size(400, 40);
    let per_round = ns_per(rounds, |_| {
        for host in &mut roster {
            black_box(host.step());
        }
    });
    out.push(Metric::new(
        "sim.synthetic_ns_per_event",
        per_round / roster.len() as f64,
        "ns",
    ));
}

fn forecast(cfg: &RunConfig, out: &mut Vec<Metric>) {
    let n = cfg.size(40_000, 4_000);
    let series = recorded_series(cfg.seed, n);
    let (mut bank, built) = count_allocs(|| {
        let mut bank = PanelSpec::Nws1999.build();
        // Past the longest window (the AR member fits on 120 points),
        // so the bank holds everything it ever will.
        for v in &series[..200] {
            bank.update(*v);
        }
        bank
    });
    out.push(Metric::new(
        "forecast.bank_update_ns",
        ns_per(n, |i| {
            black_box(bank.update(series[i]));
        }),
        "ns",
    ));
    out.push(Metric::new(
        "forecast.horizon_ns",
        ns_per(n / 4, |_| {
            black_box(bank.predict_horizon(16));
        }),
        "ns",
    ));
    let mut state = 0.5;
    out.push(Metric::new(
        "forecast.ewma_step_ns",
        ns_per(n * 10, |i| {
            state = ewma_step(black_box(state), 0.25, series[i % n]);
        }),
        "ns",
    ));
    black_box(state);
    out.push(Metric::new(
        "forecast.bank_bytes",
        built.live_bytes as f64,
        "bytes",
    ));
}

/// Feeds 24 series round-robin from a recorded series, one slot of
/// timestamps per round, the way the monitor's commit stage does.
struct Feeder<'a> {
    series: &'a [f64],
    slot: u64,
}

impl Feeder<'_> {
    fn feed(&mut self, count: usize, mut f: impl FnMut(ResourceId, f64, f64)) {
        for i in 0..count {
            let id = ResourceId((i % 24) as u64);
            if id.0 == 0 {
                self.slot += 1;
            }
            f(
                id,
                self.slot as f64 * 10.0,
                self.series[i % self.series.len()],
            );
        }
    }
}

fn grid(cfg: &RunConfig, out: &mut Vec<Metric>) {
    // A journaled monitor warmed past its retention: the steady state
    // the memory, forecast service and WAL figures are taken in.
    let mut monitor = GridMonitor::ucsd(cfg.seed);
    monitor.attach_journal(Wal::new());
    let warm = warm_slots(cfg);
    monitor.run_steps(warm);
    let wal_len = monitor.journal().expect("journal attached").len();
    out.push(Metric::new(
        "grid.wal_bytes_per_op",
        wal_len as f64 / (warm * 6) as f64,
        "bytes",
    ));
    out.push(Metric::new(
        "grid.snapshot_bytes",
        monitor.memory().snapshot_bytes().len() as f64,
        "bytes",
    ));
    let store = SnapshotStore::new(cfg.out_dir.join("layers_snapshots"), 2)
        .expect("snapshot directory under the out-dir");
    let mut checkpoint_ms = Vec::new();
    for seq in 0..cfg.size(8, 3) as u64 {
        monitor.run_steps(120);
        let t = Instant::now();
        monitor.checkpoint(&store, seq).expect("checkpoint");
        checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    sort(&mut checkpoint_ms);
    out.push(Metric::new(
        "grid.checkpoint_ms",
        quantile(&checkpoint_ms, 0.5),
        "ms",
    ));
    drop(monitor);

    // The same 24 series by hand, full rings, fed a recorded series.
    let n = cfg.size(200_000, 20_000);
    let series = recorded_series(cfg.seed, 4_096);
    let mut memory = Memory::new(MemoryConfig::default());
    let mut service = ForecastService::new(0.9);
    let mut wal = Wal::new();
    let retain = MemoryConfig::default().retain;
    let mut feeder = Feeder {
        series: &series,
        slot: 0,
    };
    feeder.feed(24 * cfg.size(retain, 720), |id, t, v| {
        memory.append(id, t, v);
    });
    let t = Instant::now();
    feeder.feed(n, |id, t, v| {
        black_box(memory.append(id, t, v));
    });
    out.push(Metric::new(
        "grid.memory_append_ns",
        t.elapsed().as_nanos() as f64 / n as f64,
        "ns",
    ));
    feeder.feed(24 * 200, |id, t, v| service.observe(id, t, v));
    let observes = n / 4;
    let t = Instant::now();
    feeder.feed(observes, |id, t, v| service.observe(id, t, v));
    out.push(Metric::new(
        "grid.service_observe_ns",
        t.elapsed().as_nanos() as f64 / observes as f64,
        "ns",
    ));
    let t = Instant::now();
    feeder.feed(n, |id, time, value| {
        wal.log(&WalRecord::Append { id, time, value })
    });
    out.push(Metric::new(
        "grid.wal_log_ns",
        t.elapsed().as_nanos() as f64 / n as f64,
        "ns",
    ));

    let hosts = cfg.size(1_024, 256);
    let (fleet, built) = count_allocs(|| {
        let mut fleet = FleetMonitor::new(FleetConfig {
            hosts,
            retain: 64,
            seed: cfg.seed,
            panel: FleetPanel::Bank(PanelSpec::Nws1999),
            ..FleetConfig::default()
        });
        fleet.run_steps(200);
        fleet
    });
    out.push(Metric::new(
        "grid.bytes_per_host",
        built.live_bytes as f64 / hosts as f64,
        "bytes",
    ));
    out.push(Metric::new(
        "grid.best_host_ns",
        ns_per(n, |_| {
            black_box(black_box(&fleet).best_host());
        }),
        "ns",
    ));
}

/// The cheapest possible shard: the engine's own loop is what is left.
struct NullSource(u64);

impl Source for NullSource {
    type Event = u64;
    fn produce(&mut self, slot: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(slot);
        self.0
    }
}

struct NullStage(u64);

impl Stage<NullSource> for NullStage {
    fn commit(&mut self, shard: usize, _source: &mut NullSource, slot: u64, event: &u64) {
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3) ^ event ^ slot ^ shard as u64;
    }
}

fn runtime(cfg: &RunConfig, out: &mut Vec<Metric>) {
    let shards = 4_096u64;
    let mut engine = Engine::new(
        (0..shards).map(NullSource).collect(),
        EngineConfig::default(),
    );
    let mut stage = NullStage(0);
    engine.run(128, &mut stage);
    let rounds = cfg.size(40, 4);
    let slots_per_round = EngineConfig::default().batch_slots as u64;
    let (per_round, allocs) =
        count_allocs(|| ns_per(rounds, |_| engine.run(slots_per_round, &mut stage)));
    black_box(stage.0);
    out.push(Metric::new(
        "runtime.engine_ns_per_op",
        per_round / (slots_per_round * shards) as f64,
        "ns",
    ));
    out.push(Metric::new(
        "runtime.allocs_per_round",
        allocs.calls as f64 / rounds as f64,
        "count",
    ));
}

fn wire(script: &Script, responses: &[Response], out: &mut Vec<Metric>) {
    let n = script.len();
    let reps = 20;
    let mut buf = Vec::new();
    out.push(Metric::new(
        "wire.encode_request_ns",
        ns_per(n * reps, |i| {
            encode_request_frame(&mut buf, &script.requests[i % n])
        }),
        "ns",
    ));
    out.push(Metric::new(
        "wire.decode_request_ns",
        ns_per(n * reps, |i| {
            let i = i % n;
            black_box(read_request(&mut script.slice(i, i + 1)).expect("own frame"));
        }),
        "ns",
    ));
    out.push(Metric::new(
        "wire.encode_response_ns",
        ns_per(n * reps, |i| {
            encode_response_frame(&mut buf, &responses[i % n])
        }),
        "ns",
    ));
    let mut frames = Vec::new();
    let mut bounds = vec![0];
    for resp in responses {
        nws_wire::append_response_frame(&mut frames, resp);
        bounds.push(frames.len());
    }
    out.push(Metric::new(
        "wire.decode_response_ns",
        ns_per(n * reps, |i| {
            let i = i % n;
            black_box(read_response(&mut &frames[bounds[i]..bounds[i + 1]]).expect("own frame"));
        }),
        "ns",
    ));
    out.push(Metric::new(
        "wire.reply_bytes_per_op",
        frames.len() as f64 / n as f64,
        "bytes",
    ));
}

/// A dispatcher that does nothing: what the client, the transports and
/// the reactor cost with no server work behind them — the ceiling
/// beside every `serve_*` number.
struct NullDispatch;

impl Dispatch for NullDispatch {
    fn dispatch(&mut self, _req: &Request) -> Response {
        Response::BestHost(None)
    }
}

/// Closed-loop ops/s of `script` at `depth` over one connection.
fn socket_rate(client: &mut Client, script: &Script, depth: usize, reps: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        client
            .closed_loop(script, depth, |_| {})
            .expect("loopback exchange");
    }
    (script.len() * reps) as f64 / t.elapsed().as_secs_f64()
}

fn harness(cfg: &RunConfig, script: &Script, out: &mut Vec<Metric>) {
    let reps = cfg.size(10, 2);
    let mut server =
        spawning_on_server_cpu(|| ReactorServer::spawn(NullDispatch, reactor_config()))
            .expect("bind a loopback port");
    let mut client = Client::connect(server.addr()).expect("connect to the reactor");
    socket_rate(&mut client, script, 32, 1);
    out.push(Metric::new(
        "harness.null_ops_per_s",
        socket_rate(&mut client, script, 32, reps),
        "1/s",
    ));
    drop(client);
    server.shutdown();
    let mut in_memory = InMemoryTransport::new(Arc::new(Mutex::new(NullDispatch)));
    let n = script.len();
    out.push(Metric::new(
        "harness.null_inmem_ns_per_op",
        ns_per(n * reps, |i| {
            black_box(in_memory.call_raw(&script.requests[i % n]).expect("null"));
        }),
        "ns",
    ));
    out.push(Metric::new("harness.clock_read_ns", clock_read_ns(), "ns"));
}

/// Hit against miss on the same seven queries: straight after a tick
/// every row is stale, asked again every row is cached.
fn dispatch_costs(cfg: &RunConfig, state: &mut GridState, out: &mut Vec<Metric>) {
    let mut queries: Vec<Request> = HostProfile::all()
        .iter()
        .map(|p| Request::Forecast {
            host: p.name().to_string(),
        })
        .collect();
    queries.push(Request::Snapshot);
    let mut back = Vec::new();
    let (mut miss_ns, mut hit_ns, mut asked) = (0u128, 0u128, 0u128);
    for _ in 0..cfg.size(2_000, 200) {
        state.tick(1);
        for into in [&mut miss_ns, &mut hit_ns] {
            let t = Instant::now();
            for q in &queries {
                back.clear();
                state.dispatch_frame(q, &mut back);
            }
            *into += t.elapsed().as_nanos();
        }
        asked += queries.len() as u128;
    }
    out.push(Metric::new(
        "server.dispatch_hit_ns",
        hit_ns as f64 / asked as f64,
        "ns",
    ));
    out.push(Metric::new(
        "server.dispatch_miss_ns",
        miss_ns as f64 / asked as f64,
        "ns",
    ));
}

/// In memory, then over sockets: the depth-1 difference is the socket's
/// share of a round trip; the pipelined run gives the per-op counts.
fn socket_costs(
    cfg: &RunConfig,
    script: &Script,
    state: &Arc<Mutex<GridState>>,
    out: &mut Vec<Metric>,
) {
    let reps = cfg.size(8, 2);
    let n = script.len();
    let mut in_memory = InMemoryTransport::new(Arc::clone(state));
    for req in &script.requests {
        in_memory.call_raw(req).expect("in-memory exchange");
    }
    let inmem_ns = ns_per(n * reps, |i| {
        black_box(
            in_memory
                .call_raw(&script.requests[i % n])
                .expect("in-memory exchange"),
        );
    });
    out.push(Metric::new("server.inmem_ns_per_op", inmem_ns, "ns"));

    let cache_counts = |state: &Mutex<GridState>| {
        let served = state.lock().expect("server state");
        (served.cache().hits(), served.cache().misses())
    };
    let (hits_before, misses_before) = cache_counts(state);
    let mut reactor =
        spawning_on_server_cpu(|| ReactorServer::spawn_shared(Arc::clone(state), reactor_config()))
            .expect("bind a loopback port");
    let mut client = Client::connect(reactor.addr()).expect("connect to the reactor");
    socket_rate(&mut client, script, 32, 1);
    let depth1 = socket_rate(&mut client, script, 1, 1);
    out.push(Metric::new(
        "server.socket_share",
        1.0 - inmem_ns / (1e9 / depth1),
        "ratio",
    ));
    let (syscalls, woken) = (io_syscalls(), wakeups());
    let ((), allocs) = count_allocs(|| {
        socket_rate(&mut client, script, 32, reps);
    });
    let ops = (n * reps) as f64;
    out.push(Metric::new(
        "server.syscalls_per_op",
        (io_syscalls() - syscalls) as f64 / ops,
        "count",
    ));
    out.push(Metric::new(
        "server.wakeups_per_op",
        (wakeups() - woken) as f64 / ops,
        "count",
    ));
    out.push(Metric::new(
        "server.allocs_per_op",
        allocs.calls as f64 / ops,
        "count",
    ));
    // How late the open-loop generator itself runs at the workload's rate.
    let (due_ns, _) = open_loop_schedule(serve_socket::OPEN_LOOP_RPS, cfg.seed, n);
    let mut late_us = Vec::with_capacity(n);
    client
        .open_loop(
            script,
            &due_ns,
            |ns| late_us.push(ns as f64 / 1e3),
            |_, _, _| {},
        )
        .expect("loopback exchange");
    sort(&mut late_us);
    out.push(Metric::new(
        "harness.late_p99_us",
        quantile(&late_us, 0.99),
        "us",
    ));
    drop(client);
    reactor.shutdown();
    let (hits, misses) = cache_counts(state);
    let (hits, misses) = (hits - hits_before, misses - misses_before);
    out.push(Metric::new(
        "server.cache_hit_ratio",
        hits as f64 / (hits + misses) as f64,
        "ratio",
    ));

    // The same script against the threaded reference server.
    let mut threaded = spawning_on_server_cpu(|| {
        NwsServer::spawn_shared(Arc::clone(state), reactor_config().server)
    })
    .expect("bind a loopback port");
    let mut client = Client::connect(threaded.addr()).expect("connect to the threaded server");
    socket_rate(&mut client, script, 32, 1);
    out.push(Metric::new(
        "server.threaded_ops_per_s",
        socket_rate(&mut client, script, 32, 1),
        "1/s",
    ));
    drop(client);
    threaded.shutdown();
}

/// Lock wait beside the ticker: how long `state.lock()` takes when a
/// tick may be holding it, and how long the ticks hold it.
fn lock_costs(
    cfg: &RunConfig,
    script: &Script,
    state: &Arc<Mutex<GridState>>,
    out: &mut Vec<Metric>,
) {
    let n = script.len();
    let reps = cfg.size(8, 2);
    let mut back = Vec::new();
    let ticker = Ticker::start(Arc::clone(state));
    let mut waits = Vec::with_capacity(n * reps);
    let started = Instant::now();
    let at_least = Duration::from_millis(cfg.size(300, 30) as u64);
    for i in 0.. {
        if i >= n * reps && started.elapsed() >= at_least {
            break;
        }
        let t = Instant::now();
        let mut guard = state.lock().expect("server state");
        waits.push(t.elapsed().as_nanos() as f64);
        back.clear();
        guard.dispatch_frame(&script.requests[i % n], &mut back);
    }
    let mut holds: Vec<f64> = ticker
        .stop()
        .hold_us
        .iter()
        .map(|&h| f64::from(h))
        .collect();
    sort(&mut waits);
    sort(&mut holds);
    out.push(Metric::new(
        "server.lock_wait_p50_ns",
        quantile(&waits, 0.5),
        "ns",
    ));
    out.push(Metric::new(
        "server.lock_wait_p99_ns",
        quantile(&waits, 0.99),
        "ns",
    ));
    out.push(Metric::new(
        "server.tick_hold_us",
        quantile(&holds, 0.5),
        "us",
    ));
}

/// The `nws-server` measurements, all on one warmed state, and the
/// script's replies for the codec measurements.
fn server(cfg: &RunConfig, script: &Script, out: &mut Vec<Metric>) -> Vec<Response> {
    let mut state = warm_state(cfg);
    let responses = script.requests.iter().map(|r| state.dispatch(r)).collect();
    dispatch_costs(cfg, &mut state, out);
    let state = Arc::new(Mutex::new(state));
    socket_costs(cfg, script, &state, out);
    // Last: the ticker moves the grid on.
    lock_costs(cfg, script, &state, out);
    responses
}

/// Every workload-independent per-layer metric.
pub fn measure(cfg: &RunConfig) -> Vec<Metric> {
    let mut out = Vec::new();
    let script = Script::generate(cfg.seed, cfg.size(4_000, 500));
    sim_and_sensors(cfg, &mut out);
    forecast(cfg, &mut out);
    grid(cfg, &mut out);
    runtime(cfg, &mut out);
    let responses = server(cfg, &script, &mut out);
    wire(&script, &responses, &mut out);
    harness(cfg, &script, &mut out);
    out
}
