//! The `durability` experiment: a crash-recovery sweep plus a serving
//! availability phase over a primary + replica + failover-client
//! fixture. Recovery and failover latencies are printed only; the CSVs
//! carry deterministic columns.

use crate::cli::Tier;
use crate::write_artifact;
use nws_faults::{CrashKind, CrashPlan};
use nws_grid::wal::replay;
use nws_grid::{recover_memory, GridMonitor, GridMonitorConfig, RecoverySource, Wal};
use nws_server::{
    ClientConfig, FailoverClient, GridState, NwsClient, ReactorConfig, ReactorServer, ReplicaState,
    ServerConfig, Transport,
};
use nws_sim::HostProfile;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A journaled TCP primary, a replica synced from it over the wire and
/// served on a second socket, and a client that fails over between them.
struct FailoverFixture {
    primary: ReactorServer<GridState>,
    /// `None` while the replica is down.
    replica: Option<ReactorServer<ReplicaState>>,
    client: FailoverClient,
    /// The primary's memory fingerprint, which every replica must reach.
    fingerprint: u64,
}

impl FailoverFixture {
    /// Warms a six-host grid for `warm_steps` slots and brings up both
    /// servers and the client.
    fn start(seed: u64, warm_steps: u64) -> Self {
        let mut gm = GridMonitor::ucsd(seed);
        gm.attach_journal(Wal::new());
        gm.run_steps(warm_steps);
        let fingerprint = gm.memory().fingerprint();
        let primary =
            ReactorServer::spawn(GridState::new(gm), server_config()).expect("bind primary");
        let replica = spawn_replica(primary.addr(), fingerprint);
        let client = FailoverClient::new(
            &[primary.addr(), replica.addr()],
            // Fail over at once: one attempt per endpoint, short backoff.
            ClientConfig {
                io_timeout: Duration::from_millis(500),
                retries: 0,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(5),
                ..ClientConfig::default()
            },
        );
        Self {
            primary,
            replica: Some(replica),
            client,
            fingerprint,
        }
    }

    /// Replaces the replica with a blank one re-synced from the
    /// still-live primary, on a fresh socket the client is repointed at.
    fn restart_replica(&mut self) {
        let server = spawn_replica(self.primary.addr(), self.fingerprint);
        self.client.set_endpoint(1, server.addr());
        self.replica = Some(server);
    }
}

fn server_config() -> ReactorConfig {
    ReactorConfig {
        server: ServerConfig {
            max_connections: 8,
            ..ServerConfig::default()
        },
        ..ReactorConfig::default()
    }
}

/// Syncs a blank replica from the primary at `primary` until it is
/// byte-identical to it, then serves it.
fn spawn_replica(primary: SocketAddr, fingerprint: u64) -> ReactorServer<ReplicaState> {
    let host_refs: Vec<&str> = HostProfile::all().iter().map(|p| p.name()).collect();
    let t0 = Instant::now();
    let mut feed = NwsClient::connect(primary, ClientConfig::default()).expect("connect feed");
    let mut replica = ReplicaState::new(&host_refs, GridMonitorConfig::default());
    replica.sync(&mut feed).expect("replicate over tcp");
    assert!(replica.synced(), "replica caught up to the primary");
    assert_eq!(
        replica.memory().fingerprint(),
        fingerprint,
        "replica is byte-identical to the primary"
    );
    println!(
        "  replica caught up over the wire in {:.2} ms ({} journal bytes applied)",
        t0.elapsed().as_secs_f64() * 1e3,
        replica.applied()
    );
    ReactorServer::spawn(replica, server_config()).expect("bind replica")
}

/// Runs both phases.
///
/// Phase 1 grows a journaled reference run, then kills it at fixed
/// fractions and at every cut a seeded [`CrashPlan`] produces — clean
/// kills, torn final records, truncated snapshots — and proves each
/// recovery (replay the valid prefix, resume over the rest of the
/// journal) lands on the live run's exact memory fingerprint. The
/// deterministic columns (cut offsets, bytes kept, records replayed,
/// fingerprints) go to `results/durability_sweep.csv`.
///
/// Phase 2 drives a `FailoverFixture` through a replica kill, a
/// replica restart and a mid-stream primary kill: every request must be
/// answered.
pub fn run(seed: u64, tier: Tier) {
    let steps: u64 = tier.pick(120, 240, 720);
    let crash_rounds = tier.pick(6, 12, 12);
    println!(
        "\n== durability: crash-recovery sweep ({steps} slots, {} hosts, \
         {crash_rounds} seeded crashes) ==",
        HostProfile::all().len()
    );

    // The golden journaled run, with a snapshot captured halfway.
    let mut gm = GridMonitor::ucsd(seed);
    gm.attach_journal(Wal::new());
    gm.run_steps(steps / 2);
    let snapshot = gm.memory().snapshot_bytes();
    gm.run_steps(steps - steps / 2);
    let golden = gm.memory().fingerprint();
    let wal = gm.journal().expect("journal attached").bytes().to_vec();
    let mem_config = GridMonitorConfig::default().memory;

    // The crash schedule: fixed kill fractions plus the seeded plan.
    let mut cuts: Vec<(String, &'static str, usize)> = [0.25f64, 0.50, 0.99]
        .iter()
        .map(|&f| {
            (
                format!("fraction_{f:.2}"),
                "clean_kill",
                (wal.len() as f64 * f) as usize,
            )
        })
        .collect();
    let mut plan = CrashPlan::seeded(seed ^ 0xC4A5);
    for i in 0..crash_rounds {
        let event = plan.next_event();
        let kind = match event.kind {
            CrashKind::CleanKill => "clean_kill",
            CrashKind::TornRecord => "torn_record",
            CrashKind::TruncatedSnapshot => "truncated_snapshot",
        };
        cuts.push((format!("plan_{i}"), kind, event.cut_at(wal.len())));
    }
    cuts.push(("snapshot_suffix".to_string(), "snapshot", wal.len()));

    let mut csv = String::from(
        "scenario,kind,cut_bytes,valid_bytes,replayed,torn_tail,source,fingerprint,matches\n",
    );
    let mut worst_recover_ms = 0.0f64;
    for (scenario, kind, cut) in &cuts {
        let t0 = Instant::now();
        let (mut mem, report) = match *kind {
            // A half-written snapshot: recovery must reject it and fall
            // back to genesis replay of the full journal.
            "truncated_snapshot" => {
                let snap_cut = (*cut).min(snapshot.len().saturating_sub(1));
                recover_memory(mem_config, Some(&snapshot[..snap_cut]), &wal, |_| {})
            }
            // An intact snapshot plus the journal suffix.
            "snapshot" => recover_memory(mem_config, Some(&snapshot), &wal, |_| {}),
            // A kill at `cut`: replay whatever survived, torn tail and
            // all, then resume over the rest of the golden journal (the
            // deterministic restart re-run).
            _ => recover_memory(mem_config, None, &wal[..*cut], |_| {}),
        };
        let torn = report.tail_error.is_some();
        if matches!(*kind, "clean_kill" | "torn_record") {
            let resumed = replay(&wal, report.valid_wal_len, |rec| mem.apply(rec));
            assert!(resumed.error.is_none(), "golden journal replays cleanly");
        }
        let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        worst_recover_ms = worst_recover_ms.max(recover_ms);
        let fingerprint = mem.fingerprint();
        let matches = fingerprint == golden;
        assert!(
            matches,
            "{scenario} ({kind}, cut {cut}) did not recover the golden state"
        );
        let source = match report.source {
            RecoverySource::Genesis => "genesis",
            RecoverySource::Snapshot { .. } => "snapshot",
        };
        println!(
            "  {scenario:<16} {kind:<18} cut {cut:>7} B -> kept {:>7} B, replayed {:>5}, \
             {source:<8} {recover_ms:>7.2} ms  ok",
            report.valid_wal_len, report.replayed
        );
        let _ = writeln!(
            csv,
            "{scenario},{kind},{cut},{},{},{torn},{source},{fingerprint:#018x},{matches}",
            report.valid_wal_len, report.replayed
        );
    }
    write_artifact("durability_sweep.csv", &csv);
    println!(
        "  all {} recoveries bit-identical (golden {golden:#018x}); worst recovery \
         {worst_recover_ms:.2} ms",
        cuts.len()
    );

    // --- Phase 2: serving availability through replica churn and a
    // primary kill. A seeded CrashPlan places a replica kill inside the
    // first half of the request stream; the replica restarts a window
    // later, and the primary dies at the halfway mark — so the failover
    // target is the *restarted* replica. Every request must still be
    // answered.
    let requests = tier.pick(40, 200, 200);
    let mut churn = CrashPlan::seeded(seed ^ 0x5EC0);
    let replica_kill_at = requests / 8 + churn.next_event().cut_at(requests / 8);
    let replica_restart_at = replica_kill_at + requests / 8;
    let primary_kill_at = requests / 2;
    assert!(
        replica_restart_at < primary_kill_at,
        "the replica must be back before the primary dies"
    );
    println!(
        "\n== durability: failover availability ({requests} requests; replica killed at \
         {replica_kill_at}, restarted at {replica_restart_at}, primary killed at \
         {primary_kill_at}) =="
    );
    let mut fixture = FailoverFixture::start(seed, steps.min(240));
    let hosts = HostProfile::all();
    let mut served = 0usize;
    let mut failover_latency_ms = 0.0f64;
    for i in 0..requests {
        if i == replica_kill_at {
            if let Some(mut dying) = fixture.replica.take() {
                dying.shutdown();
            }
        }
        if i == replica_restart_at {
            fixture.restart_replica();
        }
        if i == primary_kill_at {
            fixture.primary.shutdown();
        }
        let t0 = Instant::now();
        fixture
            .client
            .forecast(hosts[i % hosts.len()].name())
            .expect("every request is served");
        if i == primary_kill_at {
            failover_latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        }
        served += 1;
    }
    let failovers = fixture.client.failovers();
    assert_eq!(served, requests, "availability through the churn is 100%");
    assert!(failovers >= 1, "the primary kill forced a failover");
    println!(
        "  served {served}/{requests} requests through the churn; {failovers} failover(s), \
         first post-kill request {failover_latency_ms:.2} ms"
    );
    write_artifact(
        "durability_availability.csv",
        &format!(
            "requests,served,failovers,replica_kill_at,replica_restart_at,primary_kill_at,\
             replica_synced\n\
             {requests},{served},{failovers},{replica_kill_at},{replica_restart_at},\
             {primary_kill_at},true\n"
        ),
    );
}
