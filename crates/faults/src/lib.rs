//! Deterministic, seeded fault injection for the NWS measurement path.
//!
//! A long-running grid monitor has to survive sensor dropouts, failed or
//! timed-out probes, host outages with reboots, and measurements that
//! arrive late or out of order. This crate models those hazards as a
//! [`FaultPlan`]: a pure function of `(plan seed, host name, slot index)`
//! that every layer of the measurement path can consult. Because each
//! host's fault stream is forked from its name — exactly like the
//! workload RNG in `nws-sim` — fault schedules are bit-identical no
//! matter how hosts are partitioned across threads.
//!
//! The inert plan, [`FaultPlan::none()`], draws nothing from any RNG, so
//! a fault-free run is bit-identical to a build without this crate.

#![forbid(unsafe_code)]

use nws_stats::{host_seed, Rng};

/// Salt XOR-ed into per-host fault seeds so the fault stream is
/// independent of the host's workload stream even though both are
/// derived from the host name and a base seed.
const FAULT_SALT: u64 = 0xFA17_5EED_0BAD_CAFE;

/// The longest outage or delivery delay a [`FaultRates`] range may name,
/// in slots: 2³² ten-second slots is ~1,360 years, and it keeps a drawn
/// span, added to a slot index, far from overflow.
const MAX_FAULT_SLOTS: u64 = 1 << 32;

/// Per-slot fault probabilities and duration ranges.
///
/// All probabilities are per measurement slot (one slot = one 10 s
/// cadence tick) except `probe_failure`, which is per probe *attempt*
/// and only consulted on probe slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability that the loadavg reading for a slot is lost.
    pub sensor_dropout: f64,
    /// Probability that a single probe attempt fails (retries re-roll).
    pub probe_failure: f64,
    /// Probability that an outage begins on a given (up) slot.
    pub outage: f64,
    /// Inclusive range of outage lengths, in slots.
    pub outage_slots: (u64, u64),
    /// Probability that a slot's delivery to the memory is delayed.
    pub delay: f64,
    /// Inclusive range of delivery delays, in slots.
    pub delay_slots: (u64, u64),
}

impl FaultRates {
    /// All-zero rates: no faults ever fire.
    pub fn none() -> Self {
        FaultRates {
            sensor_dropout: 0.0,
            probe_failure: 0.0,
            outage: 0.0,
            outage_slots: (1, 1),
            delay: 0.0,
            delay_slots: (1, 1),
        }
    }

    /// A one-knob profile for sweeps: dropout, probe-failure, and delay
    /// probabilities all equal `intensity`; outages are 50× rarer but
    /// last 3–18 slots (30 s – 3 min at the paper's 10 s cadence).
    pub fn uniform(intensity: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&intensity),
            "fault intensity must be in [0, 1): {intensity}"
        );
        FaultRates {
            sensor_dropout: intensity,
            probe_failure: intensity,
            outage: intensity / 50.0,
            outage_slots: (3, 18),
            delay: intensity,
            delay_slots: (1, 5),
        }
    }

    /// Whether every probability is in `[0, 1]` and both slot ranges are
    /// `1 <= lo <= hi <= MAX_FAULT_SLOTS`.
    fn is_valid(&self) -> bool {
        let p = [
            self.sensor_dropout,
            self.probe_failure,
            self.outage,
            self.delay,
        ];
        let r = [self.outage_slots, self.delay_slots];
        p.iter().all(|p| (0.0..=1.0).contains(p))
            && r.iter()
                .all(|&(lo, hi)| 1 <= lo && lo <= hi && hi <= MAX_FAULT_SLOTS)
    }

    fn is_zero(&self) -> bool {
        self.sensor_dropout == 0.0
            && self.probe_failure == 0.0
            && self.outage == 0.0
            && self.delay == 0.0
    }
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates::none()
    }
}

/// A deterministic fault schedule for a whole grid: seed + rates.
///
/// The plan itself is cheap to copy; per-host streams are materialized
/// with [`FaultPlan::host_faults`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
    active: bool,
}

impl FaultPlan {
    /// The inert plan: no faults, no RNG draws, bit-identical behavior
    /// to a fault-unaware build.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            rates: FaultRates::none(),
            active: false,
        }
    }

    /// A seeded plan with the given rates. Zero rates still count as
    /// inert — no RNG is consumed.
    ///
    /// # Panics
    ///
    /// Panics unless every probability is in `[0, 1]` and both slot
    /// ranges are `1 <= lo <= hi <= MAX_FAULT_SLOTS`: a NaN rate would
    /// never fire, a rate above 1 would always fire, and an inverted or
    /// unbounded range would underflow or overflow when a span is drawn.
    pub fn seeded(seed: u64, rates: FaultRates) -> Self {
        assert!(
            rates.is_valid(),
            "fault rates must be in [0, 1] and slot ranges in 1..={MAX_FAULT_SLOTS}, \
             low end first: {rates:?}"
        );
        FaultPlan {
            seed,
            rates,
            active: !rates.is_zero(),
        }
    }

    /// True when this plan can never inject a fault.
    pub fn is_none(&self) -> bool {
        !self.active
    }

    /// The per-slot rates this plan draws from.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// Materialize the deterministic fault stream for one host. Streams
    /// depend only on `(plan seed, host name)`, never on registration
    /// order or thread placement.
    pub fn host_faults(&self, host_name: &str) -> HostFaults {
        if !self.active {
            return HostFaults::inert();
        }
        HostFaults {
            rng: Some(Rng::new(host_seed(self.seed, host_name) ^ FAULT_SALT)),
            rates: self.rates,
            down_until: None,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Everything that can go wrong with one measurement slot on one host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotFaults {
    /// The host is powered off this slot: no measurements at all.
    pub outage: bool,
    /// The host comes back up this slot; sensors see a freshly booted
    /// kernel (the monitor must reset stateful sensors).
    pub reboot: bool,
    /// The loadavg reading for this slot is lost.
    pub drop_load: bool,
    /// The vmstat reading for this slot is lost.
    pub drop_vmstat: bool,
    /// Number of probe attempts that fail before one succeeds (only
    /// nonzero on probe slots). The sensor retries with backoff up to
    /// its retry budget; attempts beyond the budget abandon the probe.
    pub failed_probe_attempts: u32,
    /// Delivery of this slot's measurements is postponed by this many
    /// slots (0 = on time). Late measurements arrive out of order.
    pub delay_slots: u64,
}

impl SlotFaults {
    /// True when nothing at all is wrong with this slot.
    pub fn is_clear(&self) -> bool {
        *self == SlotFaults::default()
    }
}

/// Cap on how many failing probe attempts a single slot can schedule;
/// keeps the geometric draw bounded whatever the failure rate.
pub const MAX_PROBE_ATTEMPTS: u32 = 8;

/// The materialized fault stream for one host.
///
/// Call [`HostFaults::slot`] once per slot, in slot order. Each call
/// consumes a deterministic number of RNG draws, so the stream is a
/// pure function of the plan seed and host name.
#[derive(Debug, Clone)]
pub struct HostFaults {
    rng: Option<Rng>,
    rates: FaultRates,
    /// While `Some(s)`, the host is down and reboots at slot `s`.
    down_until: Option<u64>,
}

impl HostFaults {
    /// A stream that never faults and never touches an RNG.
    pub fn inert() -> Self {
        HostFaults {
            rng: None,
            rates: FaultRates::none(),
            down_until: None,
        }
    }

    /// Draw the faults for `slot`. `probe_slot` marks slots where the
    /// hybrid sensor runs its probe; probe-failure draws happen only
    /// there so passive-only slots stay cheap and streams stay aligned.
    pub fn slot(&mut self, slot: u64, probe_slot: bool) -> SlotFaults {
        let Some(rng) = self.rng.as_mut() else {
            return SlotFaults::default();
        };
        let mut f = SlotFaults::default();

        // Outage state machine: while down, no other draws happen — a
        // powered-off host cannot drop readings or fail probes.
        if let Some(up_at) = self.down_until {
            if slot < up_at {
                f.outage = true;
                return f;
            }
            self.down_until = None;
            f.reboot = true;
            // The reboot slot produces measurements again; fall through
            // to the per-slot draws below.
        } else if rng.chance(self.rates.outage) {
            let (lo, hi) = self.rates.outage_slots;
            let span = lo + rng.below(hi - lo + 1);
            self.down_until = Some(slot + span);
            f.outage = true;
            return f;
        }

        f.drop_load = rng.chance(self.rates.sensor_dropout);
        f.drop_vmstat = rng.chance(self.rates.sensor_dropout);
        if probe_slot {
            while f.failed_probe_attempts < MAX_PROBE_ATTEMPTS
                && rng.chance(self.rates.probe_failure)
            {
                f.failed_probe_attempts += 1;
            }
        }
        if rng.chance(self.rates.delay) {
            let (lo, hi) = self.rates.delay_slots;
            f.delay_slots = lo + rng.below(hi - lo + 1);
        }
        f
    }
}

/// The delivery-delay transform of the event pipeline: measurements a
/// [`SlotFaults::delay_slots`] fault held back, redelivered when their
/// due slot commits.
///
/// This is where delayed/out-of-order delivery lives as an event-stream
/// transform rather than being hand-threaded through each layer: the
/// commit stage `admit`s a delayed payload with its due slot and
/// `release`s everything due at the top of each slot's commit. Payloads
/// come back in admission order (FIFO among equally-due items), so
/// redelivery order — and therefore which late measurements the memory
/// still accepts — is a pure function of the fault stream.
#[derive(Debug, Clone)]
pub struct DelayLine<P> {
    pending: Vec<(u64, P)>,
}

impl<P> Default for DelayLine<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> DelayLine<P> {
    /// An empty delay line.
    pub fn new() -> Self {
        DelayLine {
            pending: Vec::new(),
        }
    }

    /// Number of payloads currently in flight.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Holds a payload back until slot `due` commits.
    pub fn admit(&mut self, due: u64, payload: P) {
        self.pending.push((due, payload));
    }

    /// Delivers every payload whose due slot is at or before `slot`, in
    /// admission order, removing them from the line.
    pub fn release(&mut self, slot: u64, mut deliver: impl FnMut(P)) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 > slot {
                i += 1;
                continue;
            }
            let (_, payload) = self.pending.remove(i);
            deliver(payload);
        }
    }
}

/// Counters for everything the fault layer did and how the measurement
/// path absorbed it. Additive: aggregate per-host stats with
/// [`FaultStats::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Slots processed (per host-slot, all hosts summed).
    pub slots: u64,
    /// Measurements committed to the memory on time.
    pub delivered: u64,
    /// Explicit gaps recorded (series-slots with no reading).
    pub gaps: u64,
    /// Slots spent in a host outage.
    pub outage_slots: u64,
    /// Reboots observed.
    pub reboots: u64,
    /// Probe attempts that failed (before retry or abandonment).
    pub probe_attempts_failed: u64,
    /// Probe cycles abandoned after exhausting retries/deadline.
    pub probes_abandoned: u64,
    /// Hybrid slots served by the cross-sensor fallback (one passive
    /// source lost, the other substituted).
    pub fallback_cross: u64,
    /// Slots whose delivery was postponed.
    pub delayed: u64,
    /// Late measurements that still arrived in order and were stored.
    pub late_delivered: u64,
    /// Late measurements rejected as out-of-order by the memory.
    pub late_dropped: u64,
}

impl FaultStats {
    /// Sum another stats block into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.slots += other.slots;
        self.delivered += other.delivered;
        self.gaps += other.gaps;
        self.outage_slots += other.outage_slots;
        self.reboots += other.reboots;
        self.probe_attempts_failed += other.probe_attempts_failed;
        self.probes_abandoned += other.probes_abandoned;
        self.fallback_cross += other.fallback_cross;
        self.delayed += other.delayed;
        self.late_delivered += other.late_delivered;
        self.late_dropped += other.late_dropped;
    }
}

/// Salt for the crash-plan RNG stream (independent of measurement-path
/// fault streams even under the same base seed).
const CRASH_SALT: u64 = 0xDEAD_70A5_7C4A_5E5D;

/// What a process crash leaves behind in the durable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// The process dies between journal writes: the WAL ends cleanly on
    /// a record boundary.
    CleanKill,
    /// The process dies mid-write: the final WAL record is torn partway
    /// through (the classic crash artifact recovery must absorb).
    TornRecord,
    /// The crash interrupts a snapshot write on a filesystem without
    /// atomic rename: the snapshot file is cut short and must be
    /// rejected, falling back to WAL replay.
    TruncatedSnapshot,
}

/// One planned process crash: where in the run it strikes and what it
/// leaves torn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// Fraction of the uninterrupted run's WAL the process lives
    /// through, in `(0, 1)`.
    pub fraction: f64,
    /// What the crash damages.
    pub kind: CrashKind,
}

impl CrashEvent {
    /// The raw byte offset into a `len`-byte image (WAL or snapshot)
    /// where the crash cuts it. A cut mid-record *is* the torn-record
    /// artifact; recovery keeps everything before it.
    pub fn cut_at(&self, len: usize) -> usize {
        ((len as f64) * self.fraction) as usize
    }
}

/// A seeded schedule of process crashes for recovery drills: each draw
/// yields a kill point and a damage kind, deterministically from the
/// seed — so a "kill/restart" sweep is reproducible byte for byte and
/// diffable across thread counts in CI, like every other fault stream
/// in this crate.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    rng: Rng,
}

impl CrashPlan {
    /// A crash schedule derived from `seed`.
    pub fn seeded(seed: u64) -> Self {
        CrashPlan {
            rng: Rng::new(seed ^ CRASH_SALT),
        }
    }

    /// Draws the next crash: a kill fraction in `[0.05, 0.95]` and a
    /// damage kind cycling over all three with equal probability.
    pub fn next_event(&mut self) -> CrashEvent {
        let fraction = self.rng.range_f64(0.05, 0.95);
        let kind = match self.rng.below(3) {
            0 => CrashKind::CleanKill,
            1 => CrashKind::TornRecord,
            _ => CrashKind::TruncatedSnapshot,
        };
        CrashEvent { fraction, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain(plan: &FaultPlan, host: &str, slots: u64) -> Vec<SlotFaults> {
        let mut hf = plan.host_faults(host);
        (0..slots).map(|s| hf.slot(s, s % 6 == 0)).collect()
    }

    #[test]
    fn none_plan_is_inert_and_draws_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        let mut hf = plan.host_faults("conundrum");
        for s in 0..500 {
            assert!(hf.slot(s, s % 6 == 0).is_clear());
        }
    }

    #[test]
    fn zero_rates_count_as_inert() {
        assert!(FaultPlan::seeded(7, FaultRates::none()).is_none());
        assert!(!FaultPlan::seeded(7, FaultRates::uniform(0.1)).is_none());
    }

    #[test]
    fn streams_are_deterministic_per_host() {
        let plan = FaultPlan::seeded(42, FaultRates::uniform(0.2));
        assert_eq!(drain(&plan, "kongo", 1000), drain(&plan, "kongo", 1000));
        assert_ne!(drain(&plan, "kongo", 1000), drain(&plan, "axp7", 1000));
        let other_seed = FaultPlan::seeded(43, FaultRates::uniform(0.2));
        assert_ne!(
            drain(&plan, "kongo", 1000),
            drain(&other_seed, "kongo", 1000)
        );
    }

    #[test]
    fn outages_span_then_reboot_once() {
        let plan = FaultPlan::seeded(9, FaultRates::uniform(0.3));
        let faults = drain(&plan, "thing2", 4000);
        let mut saw_outage = false;
        let mut down = false;
        for (i, f) in faults.iter().enumerate() {
            if f.reboot {
                assert!(down, "reboot without preceding outage at slot {i}");
                assert!(!f.outage, "reboot slot must produce measurements");
                down = false;
            } else if f.outage {
                saw_outage = true;
                assert!(
                    !f.drop_load && f.failed_probe_attempts == 0 && f.delay_slots == 0,
                    "outage slots draw no other faults"
                );
                down = true;
            }
        }
        assert!(saw_outage, "0.6% per-slot outage rate over 4000 slots");
        // Outage lengths stay within the configured range.
        let (lo, hi) = FaultRates::uniform(0.3).outage_slots;
        let mut run = 0u64;
        for f in &faults {
            if f.outage && !f.reboot {
                run += 1;
            } else if f.reboot {
                assert!((lo..=hi).contains(&run), "outage length {run}");
                run = 0;
            } else {
                run = 0;
            }
        }
    }

    #[test]
    fn probe_failures_only_on_probe_slots_and_bounded() {
        let plan = FaultPlan::seeded(3, FaultRates::uniform(0.4));
        let mut hf = plan.host_faults("sitar");
        for s in 0..2000 {
            let f = hf.slot(s, s % 6 == 0);
            if s % 6 != 0 {
                assert_eq!(f.failed_probe_attempts, 0);
            }
            assert!(f.failed_probe_attempts <= MAX_PROBE_ATTEMPTS);
        }
    }

    #[test]
    fn delays_respect_range() {
        let plan = FaultPlan::seeded(11, FaultRates::uniform(0.5));
        let (lo, hi) = plan.rates().delay_slots;
        let mut saw_delay = false;
        for f in drain(&plan, "jazz", 2000) {
            if f.delay_slots > 0 {
                saw_delay = true;
                assert!((lo..=hi).contains(&f.delay_slots));
            }
        }
        assert!(saw_delay);
    }

    #[test]
    fn higher_intensity_means_more_faults() {
        let count = |i: f64| {
            let plan = FaultPlan::seeded(5, FaultRates::uniform(i));
            drain(&plan, "pedro", 3000)
                .iter()
                .filter(|f| !f.is_clear())
                .count()
        };
        assert!(count(0.05) < count(0.3));
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = FaultStats {
            slots: 10,
            gaps: 2,
            ..FaultStats::default()
        };
        let b = FaultStats {
            slots: 5,
            gaps: 1,
            reboots: 1,
            ..FaultStats::default()
        };
        a.merge(&b);
        assert_eq!(a.slots, 15);
        assert_eq!(a.gaps, 3);
        assert_eq!(a.reboots, 1);
    }

    #[test]
    #[should_panic(expected = "fault intensity")]
    fn uniform_rejects_out_of_range() {
        let _ = FaultRates::uniform(1.0);
    }

    /// A probability edge: NaN, ±∞, negative, 0, subnormal, 1, just
    /// above 1, huge, or anything in range.
    fn any_rate() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.5),
            Just(-5e-324),
            Just(0.0),
            Just(5e-324),
            Just(1.0),
            Just(1.0 + f64::EPSILON),
            Just(1e300),
            0.0f64..=1.0,
            0.0f64..=1.0,
        ]
    }

    /// A slot-range edge: inverted, empty at 0, at or past
    /// `MAX_FAULT_SLOTS`, up to `u64::MAX`, or anything in range.
    fn any_range() -> impl Strategy<Value = (u64, u64)> {
        prop_oneof![
            Just((5, 2)),
            Just((0, 0)),
            Just((0, 3)),
            Just((0, u64::MAX)),
            Just((1, u64::MAX)),
            Just((u64::MAX, u64::MAX)),
            Just((u64::MAX, 1)),
            Just((MAX_FAULT_SLOTS, MAX_FAULT_SLOTS)),
            Just((1, MAX_FAULT_SLOTS + 1)),
            (1u64..40, 0u64..40).prop_map(|(lo, extra)| (lo, lo + extra)),
            (1u64..40, 0u64..40).prop_map(|(lo, extra)| (lo, lo + extra)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `FaultPlan::seeded` refuses rates outside `[0, 1]` and ranges
        /// outside `1 <= lo <= hi <= MAX_FAULT_SLOTS` with its documented
        /// panic, and a plan it accepts draws outages and delays inside
        /// its ranges. One field (or none, at `field` 6) takes an edge
        /// value; the rest are in range.
        #[test]
        fn fault_rates_are_refused_at_the_plan_or_drawn_in_range(
            p in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
            lo in (1u64..40, 1u64..6),
            extra in (0u64..40, 0u64..6),
            field in 0usize..7,
            edge_rate in any_rate(),
            edge_range in any_range(),
        ) {
            let mut rates = FaultRates {
                sensor_dropout: p.0,
                probe_failure: p.1,
                outage: p.2,
                outage_slots: (lo.0, lo.0 + extra.0),
                delay: p.3,
                delay_slots: (lo.1, lo.1 + extra.1),
            };
            match field {
                0 => rates.sensor_dropout = edge_rate,
                1 => rates.probe_failure = edge_rate,
                2 => rates.outage = edge_rate,
                3 => rates.delay = edge_rate,
                4 => rates.outage_slots = edge_range,
                5 => rates.delay_slots = edge_range,
                _ => {}
            }
            let FaultRates { sensor_dropout, probe_failure, outage, outage_slots, delay, delay_slots } = rates;
            let p_ok = [sensor_dropout, probe_failure, outage, delay]
                .iter()
                .all(|p| !p.is_nan() && *p >= 0.0 && *p <= 1.0);
            let r_ok = [outage_slots, delay_slots]
                .iter()
                .all(|&(lo, hi)| lo >= 1 && hi >= lo && hi <= MAX_FAULT_SLOTS);
            let plan = match std::panic::catch_unwind(|| FaultPlan::seeded(17, rates)) {
                Ok(plan) => plan,
                Err(panic) => {
                    prop_assert!(!(p_ok && r_ok), "refused {rates:?}");
                    let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
                    prop_assert!(msg.starts_with("fault rates must be in [0, 1]"), "{msg}");
                    return Ok(());
                }
            };
            prop_assert!(p_ok && r_ok, "accepted {rates:?}");
            let mut hf = plan.host_faults("edge");
            let mut slot = 0;
            while slot < 400 {
                let f = hf.slot(slot, slot % 6 == 0);
                prop_assert!(f.delay_slots == 0 || (delay_slots.0..=delay_slots.1).contains(&f.delay_slots));
                prop_assert!(f.failed_probe_attempts <= MAX_PROBE_ATTEMPTS);
                // An outage holds the host down for its whole span: skip
                // past a long one rather than draw every slot of it.
                slot = match hf.down_until {
                    Some(up_at) => {
                        prop_assert!((outage_slots.0..=outage_slots.1).contains(&(up_at - slot)));
                        up_at
                    }
                    None => slot + 1,
                };
            }
        }
    }

    #[test]
    fn delay_line_releases_due_payloads_in_admission_order() {
        let mut line = DelayLine::new();
        assert!(line.is_empty());
        line.admit(3, "a");
        line.admit(2, "b");
        line.admit(3, "c");
        line.admit(9, "d");
        assert_eq!(line.len(), 4);
        let mut out = Vec::new();
        line.release(1, |p| out.push(p));
        assert!(out.is_empty(), "nothing due yet");
        line.release(3, |p| out.push(p));
        // Everything due by slot 3, in the order it was admitted.
        assert_eq!(out, vec!["a", "b", "c"]);
        assert_eq!(line.len(), 1);
        line.release(100, |p| out.push(p));
        assert_eq!(out, vec!["a", "b", "c", "d"]);
        assert!(line.is_empty());
    }

    #[test]
    fn crash_plan_is_deterministic_and_in_range() {
        let draw = |seed| {
            let mut plan = CrashPlan::seeded(seed);
            (0..20).map(|_| plan.next_event()).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same schedule");
        assert_ne!(a, draw(8), "different seed, different schedule");
        let mut kinds = [false; 3];
        for e in &a {
            assert!((0.05..=0.95).contains(&e.fraction), "{}", e.fraction);
            kinds[match e.kind {
                CrashKind::CleanKill => 0,
                CrashKind::TornRecord => 1,
                CrashKind::TruncatedSnapshot => 2,
            }] = true;
        }
        assert!(kinds.iter().all(|&k| k), "20 draws cover all kinds");
        // cut_at maps fractions into the image.
        assert_eq!(a[0].cut_at(0), 0);
        assert!(a[0].cut_at(1000) <= 950);
    }
}
