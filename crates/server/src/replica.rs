//! Read replicas: a serving-side copy of the primary's state rebuilt
//! from its journal, byte for byte.
//!
//! A replica never runs host simulators or sensors. It pulls the
//! primary's write-ahead log over the wire ([`Request::WalSince`] →
//! [`Response::WalChunk`]) and applies each record in commit order —
//! through [`Archive::apply`], the very transitions the primary
//! committed, in the order it committed them — so after draining the
//! log the replica's column bytes, revision counters, fingerprint and
//! forecasts are identical to the primary's. That makes "a replica
//! serves the same answers as the primary" a byte-level property,
//! checked here by fingerprint and in `tests/durability.rs` at every
//! revision of a seeded run.
//!
//! Staleness stays explicit end to end: the primary stamps every chunk
//! with its simulation clock, the replica judges forecast staleness
//! against that stamp, and the revision-validated [`QueryCache`] keeps
//! cached answers pinned to the replicated revision they were computed
//! at.

use crate::cache::QueryCache;
use crate::policy::{Core, Served, View};
use crate::state::Dispatch;
use crate::transport::{ServeError, Transport};
use nws_grid::{Archive, ForecastService, Memory, MemoryConfig, WalError, WalRecord};
use nws_runtime::Cadence;
use nws_wire::{Request, Response, WalChunkReply, MAX_WAL_CHUNK};

/// Everything that can go wrong applying the replication stream.
#[derive(Debug)]
pub enum ReplicaError {
    /// A chunk did not start where the replica left off.
    OffsetGap {
        /// The next byte the replica needs.
        expected: u64,
        /// The byte the chunk started at.
        got: u64,
    },
    /// A chunk carried bytes that do not decode as journal records.
    Corrupt(WalError),
    /// A record named a series the replica never registered: the
    /// primary monitors hosts this replica was not built for, or its
    /// journal is wrong. The replica does not grow its tables to an id
    /// it cannot name.
    Unregistered {
        /// The series id the record carried.
        id: u64,
        /// Journal offset of the refused record.
        offset: u64,
    },
    /// The primary reported progress but sent an empty chunk.
    Stalled {
        /// Where replication stopped.
        offset: u64,
    },
    /// The replica drained the journal but its memory revision does
    /// not match what the primary reported — the streams diverged.
    RevisionMismatch {
        /// The replica's memory revision.
        ours: u64,
        /// The revision the primary stamped on the final chunk.
        primary: u64,
    },
    /// The pull itself failed.
    Transport(ServeError),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::OffsetGap { expected, got } => {
                write!(f, "chunk starts at {got}, replica needs {expected}")
            }
            ReplicaError::Corrupt(e) => write!(f, "corrupt replication chunk: {e}"),
            ReplicaError::Unregistered { id, offset } => {
                write!(f, "record at {offset} names unregistered series {id}")
            }
            ReplicaError::Stalled { offset } => {
                write!(f, "empty chunk at {offset} with journal bytes remaining")
            }
            ReplicaError::RevisionMismatch { ours, primary } => {
                write!(f, "replica revision {ours} != primary revision {primary}")
            }
            ReplicaError::Transport(e) => write!(f, "replication pull failed: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<ServeError> for ReplicaError {
    fn from(e: ServeError) -> Self {
        ReplicaError::Transport(e)
    }
}

/// What a replica holds of the primary: the journal-rebuilt archive
/// and how far replication has come.
struct Replicated {
    archive: Archive,
    /// Journal bytes applied so far — the offset of the next pull.
    applied: u64,
    /// Journal length the primary last reported.
    primary_total: u64,
    /// Memory revision the primary last reported.
    primary_revision: u64,
    /// The primary's slot count at the last chunk — the clock this
    /// replica judges staleness against.
    primary_slots: u64,
}

/// The replica: replayed state, judged against the primary's clock as
/// of the last chunk.
impl Served for Replicated {
    fn view(&self) -> View<'_> {
        View {
            archive: &self.archive,
            cold: "has no replicated measurements yet",
            slots: self.primary_slots,
            journal: Err("replicas do not serve the journal; pull from the primary"),
        }
    }
}

/// The state a read replica serves: journal-rebuilt memory and
/// forecasts plus its own revision-validated query cache.
pub struct ReplicaState {
    core: Core<Replicated>,
}

impl ReplicaState {
    /// Creates an empty replica of a primary monitoring `hosts`,
    /// registered in the primary's order so resource ids in the journal
    /// resolve identically.
    pub fn new(hosts: &[&str], memory: MemoryConfig) -> Self {
        let mut archive = Archive::new(memory);
        for host in hosts {
            archive.register_host(host);
        }
        Self {
            core: Core::new(Replicated {
                archive,
                applied: 0,
                primary_total: 0,
                primary_revision: 0,
                primary_slots: 0,
            }),
        }
    }

    /// The replicated memory (for fingerprint comparisons).
    pub fn memory(&self) -> &Memory {
        self.core.state.archive.memory()
    }

    /// The replicated forecast service.
    pub fn forecasts(&self) -> &ForecastService {
        self.core.state.archive.forecasts()
    }

    /// The replica's query cache (for hit/miss accounting).
    pub fn cache(&self) -> &QueryCache {
        &self.core.cache
    }

    /// Journal bytes applied so far.
    pub fn applied(&self) -> u64 {
        self.core.state.applied
    }

    /// Whether the replica has applied every journal byte the primary
    /// last reported. A `true` here is a point-in-time fact: the
    /// primary may have moved on since the last pull.
    pub fn synced(&self) -> bool {
        self.core.state.applied == self.core.state.primary_total
    }

    /// Applies one replication chunk. Chunks must arrive in order,
    /// decode cleanly and name only registered series; anything else is
    /// a typed error and the replica state is left at the last good
    /// record.
    pub fn apply_chunk(&mut self, chunk: &WalChunkReply) -> Result<u64, ReplicaError> {
        let rep = &mut self.core.state;
        if chunk.offset != rep.applied {
            return Err(ReplicaError::OffsetGap {
                expected: rep.applied,
                got: chunk.offset,
            });
        }
        let registered = rep.archive.registry().len() as u64;
        let (mut at, mut records) = (0, 0);
        while at < chunk.bytes.len() {
            let (rec, next) =
                WalRecord::decode_at(&chunk.bytes, at).map_err(ReplicaError::Corrupt)?;
            let id = rec.id().0;
            if id >= registered {
                let offset = rep.applied;
                return Err(ReplicaError::Unregistered { id, offset });
            }
            rep.archive.apply(&rec);
            rep.applied += (next - at) as u64;
            (at, records) = (next, records + 1);
        }
        rep.primary_total = chunk.total;
        rep.primary_revision = chunk.revision;
        rep.primary_slots = Cadence::PAPER.slots_in(chunk.now);
        Ok(records)
    }

    /// Pulls and applies journal chunks until the replica has caught up
    /// with the primary, then cross-checks the memory revision the
    /// primary reported. Returns the number of records applied.
    pub fn sync<T: Transport>(&mut self, primary: &mut T) -> Result<u64, ReplicaError> {
        let mut records = 0;
        loop {
            let chunk = primary.wal_since(self.applied(), MAX_WAL_CHUNK as u32)?;
            let got = chunk.bytes.len();
            records += self.apply_chunk(&chunk)?;
            let rep = &self.core.state;
            if rep.applied >= rep.primary_total {
                let ours = rep.archive.memory().global_revision();
                if ours != rep.primary_revision {
                    return Err(ReplicaError::RevisionMismatch {
                        ours,
                        primary: rep.primary_revision,
                    });
                }
                return Ok(records);
            }
            if got == 0 {
                return Err(ReplicaError::Stalled {
                    offset: rep.applied,
                });
            }
        }
    }
}

impl Dispatch for ReplicaState {
    fn dispatch(&mut self, req: &Request) -> Response {
        self.core.dispatch(req)
    }

    fn dispatch_frame(&mut self, req: &Request, out: &mut Vec<u8>) {
        self.core.dispatch_frame(req, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::GridState;
    use crate::transport::InMemoryTransport;
    use nws_grid::{GridMonitor, GridMonitorConfig, ResourceId, Wal};
    use nws_sim::HostProfile;
    use nws_wire::ErrorCode;
    use std::sync::{Arc, Mutex};

    const HOSTS: [&str; 2] = ["thing1", "gremlin"];

    fn journaled_primary(steps: u64) -> InMemoryTransport {
        let mut grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Gremlin],
            7,
            GridMonitorConfig::default(),
        );
        grid.attach_journal(Wal::new());
        grid.run_steps(steps);
        InMemoryTransport::new(Arc::new(Mutex::new(GridState::new(grid))))
    }

    #[test]
    fn replica_matches_the_primary_byte_for_byte() {
        let mut primary = journaled_primary(40);
        let mut replica = ReplicaState::new(&HOSTS, MemoryConfig::default());
        let records = replica.sync(&mut primary).expect("sync");
        assert!(records > 0);
        assert!(replica.synced());
        let st = primary.state().lock().unwrap();
        assert_eq!(
            replica.memory().fingerprint(),
            st.grid().memory().fingerprint(),
            "replicated memory is bit-identical"
        );
        // Gap counts are the memory revisions, which the fingerprint
        // pins, less the observations.
        let forecasters = |f: &ForecastService| {
            (st.grid().registry().resources())
                .map(|info| {
                    let answer = f.forecast(info.id);
                    answer.map(|a| (a.forecast.value.to_bits(), a.observations))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            forecasters(replica.forecasts()),
            forecasters(st.grid().forecasts()),
            "every series' forecast bits and observations"
        );
    }

    #[test]
    fn replica_serves_the_primary_answers() {
        let mut primary = journaled_primary(40);
        let mut replica = ReplicaState::new(&HOSTS, MemoryConfig::default());
        replica.sync(&mut primary).expect("sync");
        for host in HOSTS {
            let from_primary = match primary
                .state()
                .lock()
                .unwrap()
                .dispatch(&Request::Forecast { host: host.into() })
            {
                Response::Forecast(r) => r,
                other => panic!("wrong reply: {other:?}"),
            };
            let from_replica = match replica.dispatch(&Request::Forecast { host: host.into() }) {
                Response::Forecast(r) => r,
                other => panic!("wrong reply: {other:?}"),
            };
            assert_eq!(from_primary, from_replica, "host {host}");
        }
        let snap_p = match primary.state().lock().unwrap().dispatch(&Request::Snapshot) {
            Response::Snapshot(s) => s,
            other => panic!("wrong reply: {other:?}"),
        };
        let snap_r = match replica.dispatch(&Request::Snapshot) {
            Response::Snapshot(s) => s,
            other => panic!("wrong reply: {other:?}"),
        };
        assert_eq!(snap_p, snap_r, "snapshots agree row for row");
    }

    #[test]
    fn replica_follows_an_advancing_primary_incrementally() {
        let mut primary = journaled_primary(10);
        let mut replica = ReplicaState::new(&HOSTS, MemoryConfig::default());
        replica.sync(&mut primary).expect("first sync");
        for _ in 0..5 {
            primary.state().lock().unwrap().tick(7);
            replica.sync(&mut primary).expect("catch up");
            let st = primary.state().lock().unwrap();
            assert_eq!(
                replica.memory().fingerprint(),
                st.grid().memory().fingerprint()
            );
        }
    }

    #[test]
    fn out_of_order_and_corrupt_chunks_are_typed_errors() {
        let mut primary = journaled_primary(20);
        let mut replica = ReplicaState::new(&HOSTS, MemoryConfig::default());
        let chunk = primary.wal_since(0, 4096).expect("chunk");
        // Skipping ahead is refused.
        let ahead = WalChunkReply {
            offset: chunk.bytes.len() as u64 + 8,
            ..chunk.clone()
        };
        assert!(matches!(
            replica.apply_chunk(&ahead),
            Err(ReplicaError::OffsetGap { expected: 0, .. })
        ));
        // A flipped byte is refused, keeping the records before it.
        let mut bad = chunk.clone();
        let n = bad.bytes.len();
        bad.bytes[n / 2] ^= 0x40;
        match replica.apply_chunk(&bad) {
            Err(ReplicaError::Corrupt(_)) => {}
            other => panic!("wrong result: {other:?}"),
        }
        assert!(replica.applied() > 0, "valid prefix was kept");
        assert!(replica.applied() <= (n / 2) as u64 + 8);
    }

    #[test]
    fn a_record_naming_an_unregistered_series_is_refused() {
        let mut replica = ReplicaState::new(&HOSTS, MemoryConfig::default());
        let unregistered = ResourceId(replica.core.state.archive.registry().len() as u64);
        let good = WalRecord::Append {
            id: ResourceId(0),
            time: 10.0,
            value: 0.5,
        };
        let mut bytes = Vec::new();
        good.encode_into(&mut bytes);
        let first = bytes.len() as u64;
        WalRecord::Gap {
            id: unregistered,
            time: 10.0,
        }
        .encode_into(&mut bytes);
        good.encode_into(&mut bytes);
        let chunk = WalChunkReply {
            offset: 0,
            total: bytes.len() as u64,
            revision: 3,
            now: 10.0,
            bytes,
        };
        match replica.apply_chunk(&chunk) {
            Err(ReplicaError::Unregistered { id, offset }) => {
                assert_eq!((id, offset), (unregistered.0, first));
            }
            other => panic!("wrong result: {other:?}"),
        }
        assert_eq!(replica.applied(), first, "the offset stops at the record");
        // The memory holds the record before it and grew no table.
        let mut want = Memory::new(MemoryConfig::default());
        want.apply(&good);
        assert_eq!(replica.memory().fingerprint(), want.fingerprint());
    }

    #[test]
    fn replica_refuses_to_serve_the_journal() {
        let mut replica = ReplicaState::new(&HOSTS, MemoryConfig::default());
        match replica.dispatch(&Request::WalSince { offset: 0, max: 64 }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
            other => panic!("wrong reply: {other:?}"),
        }
    }
}
