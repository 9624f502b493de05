//! Crash-recovery proofs and replication byte-identity.
//!
//! The durability layer must be invisible while the process lives and
//! lossless when it dies: attaching a journal changes no golden bit;
//! killing the process at any seeded point of the run — including mid
//! write, leaving a torn final record — and replaying the journal
//! (optionally on top of a snapshot) restores the `Memory` to the exact
//! fingerprint the uninterrupted run produces, at any thread count. A
//! read replica fed the same journal over the wire protocol matches the
//! primary byte-for-byte at every revision, and a failover client keeps
//! serving through a primary crash.

mod common;

use common::*;
use nws::faults::{CrashKind, CrashPlan};
use nws::grid::wal::replay;
use nws::grid::{
    recover_memory_rotated, ForecastService, GridMonitor, GridMonitorConfig, Memory, MemoryConfig,
    RecoverySource, ResourceId, Wal,
};
use nws::server::{
    ClientConfig, GridState, InMemoryTransport, NwsClient, ReactorConfig, ReactorServer,
    ReplicaState, Transport,
};
use nws::sim::HostProfile;
use nws::wire::{ErrorCode, Request, Response};
use std::sync::{Arc, Mutex};

/// Memory fingerprints of the reference scenario with a journal
/// attached, recorded via `print_durability_goldens` below. Every
/// recovery path must land exactly here. The fault fingerprint was
/// re-recorded when the monitor began storing the passive readings its
/// hybrid sensor took (see `tests/common`).
const GOLDEN_CLEAN_MEMORY: u64 = 0x9bd6_a65f_2100_4437;
const GOLDEN_FAULT_MEMORY: u64 = 0x1d7e_34a5_b887_f70f;

/// The reference scenario with a journal attached from genesis.
fn journaled_run(faulted: bool, threads: usize) -> (Vec<u8>, GridMonitor) {
    nws::runtime::set_threads(Some(threads));
    let mut gm = build_grid(faulted, EngineSetup::REFERENCE);
    gm.attach_journal(Wal::new());
    gm.run_steps(STEPS);
    nws::runtime::set_threads(None);
    let wal = gm.journal().expect("attached").bytes().to_vec();
    (wal, gm)
}

fn golden_memory(faulted: bool) -> u64 {
    if faulted {
        GOLDEN_FAULT_MEMORY
    } else {
        GOLDEN_CLEAN_MEMORY
    }
}

/// Recovers from a journal prefix, then applies the rest of the golden
/// journal — the deterministic restart re-run — and returns the final
/// memory.
fn recover_and_resume(wal: &[u8], cut: usize) -> Memory {
    let config = GridMonitorConfig::default().memory;
    let (mut mem, report) = recover_memory_rotated(config, None, &wal[..cut], 0, |_| {});
    assert!(
        report.valid_wal_len <= cut,
        "recovery never reads past the kill point"
    );
    let resumed = replay(wal, report.valid_wal_len, |rec| {
        mem.apply(rec);
    });
    assert!(resumed.error.is_none(), "golden journal replays cleanly");
    assert_eq!(resumed.end, wal.len());
    mem
}

#[test]
fn journaling_is_invisible_to_the_goldens() {
    for threads in [1, 4] {
        let (wal, gm) = journaled_run(false, threads);
        assert!(!wal.is_empty());
        assert_eq!(
            grid_fingerprint(&gm),
            GOLDEN_CLEAN_STATE,
            "threads={threads}"
        );
        assert_eq!(
            served_fingerprint(Arc::new(Mutex::new(GridState::new(gm)))),
            GOLDEN_CLEAN_SERVED,
            "threads={threads}"
        );
        let (_, gm) = journaled_run(true, threads);
        assert_eq!(
            grid_fingerprint(&gm),
            GOLDEN_FAULT_STATE,
            "threads={threads}"
        );
    }
}

#[test]
fn wal_stream_is_identical_across_threads() {
    for faulted in [false, true] {
        let (reference, gm) = journaled_run(faulted, 1);
        assert_eq!(gm.memory().fingerprint(), golden_memory(faulted));
        for threads in [2, 4] {
            let (wal, gm) = journaled_run(faulted, threads);
            assert_eq!(wal, reference, "faulted={faulted} threads={threads}");
            assert_eq!(gm.memory().fingerprint(), golden_memory(faulted));
        }
    }
}

#[test]
fn kill_and_replay_reproduces_the_memory() {
    for faulted in [false, true] {
        for threads in [1, 4] {
            let (wal, gm) = journaled_run(faulted, threads);
            let golden = gm.memory().fingerprint();
            assert_eq!(golden, golden_memory(faulted));
            for fraction in [0.25, 0.50, 0.99] {
                let cut = ((wal.len() as f64) * fraction) as usize;
                let mem = recover_and_resume(&wal, cut);
                assert_eq!(
                    mem.fingerprint(),
                    golden,
                    "kill at {fraction} of the journal, faulted={faulted} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn seeded_crash_plan_events_all_recover() {
    let (wal, gm) = journaled_run(true, 1);
    let golden = gm.memory().fingerprint();
    let snap = gm.memory().snapshot_bytes();
    let mut plan = CrashPlan::seeded(2026);
    let mut torn_seen = false;
    for round in 0..12 {
        let event = plan.next_event();
        let cut = event.cut_at(wal.len());
        match event.kind {
            CrashKind::CleanKill | CrashKind::TornRecord => {
                // Either way the prefix may end mid-record; recovery
                // keeps the valid records and the resume re-run lands
                // on the golden state.
                let mem = recover_and_resume(&wal, cut);
                assert_eq!(mem.fingerprint(), golden, "round {round}: {event:?}");
                torn_seen |= replay(&wal[..cut], 0, |_| {}).error.is_some();
            }
            CrashKind::TruncatedSnapshot => {
                // A half-written snapshot is rejected and recovery
                // falls back to genesis replay of the full journal.
                let cut = cut.min(snap.len().saturating_sub(1));
                let config = GridMonitorConfig::default().memory;
                let (mem, report) =
                    recover_memory_rotated(config, Some(&snap[..cut]), &wal, 0, |_| {});
                assert_eq!(report.source, RecoverySource::Genesis);
                assert!(report.snapshot_error.is_some(), "truncation is typed");
                assert_eq!(mem.fingerprint(), golden, "round {round}: {event:?}");
            }
        }
    }
    assert!(torn_seen, "at least one seeded kill landed mid-record");
}

#[test]
fn snapshot_plus_wal_suffix_recovers_bit_identically() {
    // Capture a mid-run snapshot, then keep running.
    nws::runtime::set_threads(Some(1));
    let mut gm = build_grid(true, EngineSetup::REFERENCE);
    gm.attach_journal(Wal::new());
    gm.run_steps(60);
    let snap = gm.memory().snapshot_bytes();
    gm.run_steps(STEPS - 60);
    nws::runtime::set_threads(None);
    let wal = gm.journal().expect("attached").bytes().to_vec();
    let golden = gm.memory().fingerprint();
    assert_eq!(golden, GOLDEN_FAULT_MEMORY);

    let config = GridMonitorConfig::default().memory;
    let (mem, report) = recover_memory_rotated(config, Some(&snap), &wal, 0, |_| {});
    match report.source {
        RecoverySource::Snapshot { wal_offset } => {
            assert!(wal_offset > 0 && wal_offset < wal.len());
            assert!(
                (report.replayed as usize) < wal.len() / 17,
                "snapshot skipped most of the journal"
            );
        }
        RecoverySource::Genesis => panic!("snapshot was rejected: {report:?}"),
    }
    assert_eq!(mem.fingerprint(), golden);
}

/// One series' forecast bits and observation count.
type SeriesForecast = (ResourceId, Option<(u64, u64)>);

/// The forecast bits and observation count of every series below
/// `series`. Gap counts are each series' memory revision less its
/// observations, so equal fingerprints plus equal rows pin them too.
fn forecasters(forecasts: &ForecastService, series: usize) -> Vec<SeriesForecast> {
    (0..series as u64)
        .map(ResourceId)
        .map(|id| {
            let answer = forecasts.forecast(id);
            (
                id,
                answer.map(|a| (a.forecast.value.to_bits(), a.observations)),
            )
        })
        .collect()
}

#[test]
fn replica_matches_the_primary_at_every_revision() {
    let hosts: Vec<&str> = HostProfile::all().iter().map(|p| p.name()).collect();
    for threads in [1, 4] {
        nws::runtime::set_threads(Some(threads));
        let mut gm = build_grid(true, EngineSetup::REFERENCE);
        gm.attach_journal(Wal::new());
        let state = Arc::new(Mutex::new(GridState::new(gm)));
        let mut primary = InMemoryTransport::new(Arc::clone(&state));
        let replica = ReplicaState::new(&hosts, MemoryConfig::default());
        let replica = Arc::new(Mutex::new(replica));
        let mut served = InMemoryTransport::new(Arc::clone(&replica));
        // Everything a failed-over client may ask both nodes (`Stats`
        // counts each node's own requests, `WalSince` is the primary's).
        let mut asked = vec![Request::Snapshot, Request::BestHost];
        for host in &hosts {
            let host = host.to_string();
            asked.push(Request::Forecast { host: host.clone() });
            asked.push(Request::SeriesTail {
                host: host.clone(),
                n: 8,
            });
            asked.push(Request::ForecastHorizon { host, k: 6 });
        }
        for step in 0..STEPS {
            state.lock().unwrap().tick(1);
            replica.lock().unwrap().sync(&mut primary).expect("sync");
            {
                let (st, replica) = (state.lock().unwrap(), replica.lock().unwrap());
                assert_eq!(
                    replica.memory().fingerprint(),
                    st.grid().memory().fingerprint(),
                    "threads={threads} step={step}"
                );
                let series = st.grid().registry().len();
                assert_eq!(
                    forecasters(replica.forecasts(), series),
                    forecasters(st.grid().forecasts(), series),
                    "threads={threads} step={step}"
                );
            }
            // The replica serves the primary's exact bytes — except for
            // a host without data yet, which the two word differently.
            for req in &asked {
                let (p, from_primary) = primary.call_raw(req).expect("primary serves");
                let (r, from_replica) = served.call_raw(req).expect("replica serves");
                match (p, r) {
                    (Response::Error(p), Response::Error(r))
                        if p.code == ErrorCode::ColdForecast =>
                    {
                        assert_eq!(r.code, ErrorCode::ColdForecast, "step={step} {req:?}")
                    }
                    _ => assert_eq!(
                        from_primary, from_replica,
                        "threads={threads} step={step} {req:?}"
                    ),
                }
            }
        }
        nws::runtime::set_threads(None);
        let fingerprint = replica.lock().unwrap().memory().fingerprint();
        assert_eq!(fingerprint, GOLDEN_FAULT_MEMORY);
    }
}

#[test]
fn failover_keeps_serving_through_a_primary_crash() {
    let hosts: Vec<&str> = HostProfile::all().iter().map(|p| p.name()).collect();
    let host = hosts[0].to_string();
    nws::runtime::set_threads(Some(1));
    let mut gm = build_grid(false, EngineSetup::REFERENCE);
    gm.attach_journal(Wal::new());
    gm.run_steps(STEPS);
    nws::runtime::set_threads(None);

    // Primary serves over TCP; the replica catches up over the same
    // wire protocol, then serves over TCP itself.
    let mut primary =
        ReactorServer::spawn(GridState::new(gm), ReactorConfig::default()).expect("bind");
    let mut feed = NwsClient::connect(primary.addr(), ClientConfig::default()).expect("connect");
    let mut replica = ReplicaState::new(&hosts, MemoryConfig::default());
    replica.sync(&mut feed).expect("replicate over tcp");
    assert!(replica.synced());
    assert_eq!(replica.memory().fingerprint(), GOLDEN_CLEAN_MEMORY);
    let replica_server = ReactorServer::spawn(replica, ReactorConfig::default()).expect("bind");

    let mut client = NwsClient::over(
        &[primary.addr(), replica_server.addr()],
        ClientConfig {
            io_timeout: std::time::Duration::from_millis(500),
            retries: 0,
            backoff_base: std::time::Duration::from_millis(1),
            backoff_cap: std::time::Duration::from_millis(5),
            ..ClientConfig::default()
        },
    );
    let before = client.forecast(&host).expect("primary serves");
    assert_eq!(client.failovers(), 0);

    // Kill the primary; the very next query fails over and the answer
    // is byte-identical because the replica is at the same revision.
    primary.shutdown();
    drop(primary);
    std::thread::sleep(std::time::Duration::from_millis(50));
    let after = client.forecast(&host).expect("replica serves");
    assert_eq!(before, after, "failover is invisible in the answer");
    assert!(client.failovers() >= 1);
    assert_eq!(client.preferred(), replica_server.addr());

    // A full snapshot from the replica matches what the primary served.
    match client.call(&Request::Snapshot).expect("snapshot") {
        Response::Snapshot(s) => assert_eq!(s.hosts.len(), hosts.len()),
        other => panic!("wrong reply: {other:?}"),
    }
}

/// Recording harness for the memory-fingerprint goldens above. Run with
/// `cargo test --test durability -- --ignored --nocapture goldens`.
#[test]
#[ignore]
fn print_durability_goldens() {
    let (_, gm) = journaled_run(false, 1);
    println!("GOLDEN_CLEAN_MEMORY: {:#018x}", gm.memory().fingerprint());
    let (_, gm) = journaled_run(true, 1);
    println!("GOLDEN_FAULT_MEMORY: {:#018x}", gm.memory().fingerprint());
}
