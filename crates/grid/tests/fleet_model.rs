//! The fleet places by the archive's rule, and its outputs do not depend
//! on the batch window.
//!
//! [`FleetMonitor::best_host`] is computed once at the end of each
//! `run_steps`. Whatever the roster, fault plan, run length, thread count
//! or batch window, it must equal a reference scan of the monitor's
//! public state: among hosts whose last stored reading is at most
//! [`STALENESS_BOUND`] old at the fleet's clock (the hosts the archive
//! does not mark degraded), the maximum forecast at the lowest index
//! that holds it — or `None` while there is no such host.
//!
//! The engine commits the fleet shard-major within each round of
//! `batch_slots` slots. A fleet at `batch_slots = 1` is committed
//! slot-major by construction, and every observable output of a fleet
//! at any other window must equal it.
//!
//! A host's standing forecast is its forecaster's answer: after every
//! run, readings and gaps alike, [`FleetMonitor::forecast`] equals what
//! the fleet's forecaster store serves for that host, and the archive's
//! change counter counts every reading and every gap.
//!
//! Across commits, four fleets' fingerprints and one quality table are
//! pinned to recorded goldens.

use nws_faults::{FaultPlan, FaultRates};
use nws_forecast::PanelSpec;
use nws_grid::{FleetConfig, FleetMonitor, FleetPanel, FleetRoster, ResourceId, STALENESS_BOUND};
use nws_runtime::{Cadence, Fnv1a};
use proptest::prelude::*;

/// The reference: the maximum forecast over hosts whose last stored
/// reading is at most [`STALENESS_BOUND`] old at the fleet's clock, then
/// the first host holding it, as `(host, forecast bits)`.
fn scan(fleet: &FleetMonitor) -> Option<(usize, u64)> {
    let now = Cadence::PAPER.slot_time(fleet.slots());
    let memory = fleet.archive().memory();
    let fresh: Vec<(usize, f64)> = (0..fleet.hosts())
        .filter(|&h| {
            let latest = memory.latest(ResourceId(h as u64));
            latest.is_some_and(|p| now - p.time <= STALENESS_BOUND)
        })
        .map(|h| (h, fleet.forecast(h)))
        .collect();
    let max = fresh
        .iter()
        .map(|&(_, f)| f)
        .fold(f64::NEG_INFINITY, f64::max);
    fresh
        .into_iter()
        .find(|&(_, f)| f == max)
        .map(|(h, f)| (h, f.to_bits()))
}

/// Host `i` replays trace `i % 3`: the first never reports, the second
/// is constant, so its hosts tie exactly, and the third climbs to the
/// same level.
fn traces() -> Vec<Vec<f64>> {
    vec![
        vec![f64::NAN; 11],
        vec![0.75; 7],
        (0..13).map(|i| 0.35 + 0.05 * f64::from(i % 9)).collect(),
    ]
}

fn best_bits(fleet: &FleetMonitor) -> Option<(usize, u64)> {
    fleet.best_host().map(|(h, f)| (h, f.to_bits()))
}

/// A quality-table row with its sums as bits.
type RowBits = (String, u64, u64, u64);

/// Everything a fleet shows: its fingerprint, its memory's, the quality
/// table bit for bit, and the event and gap counts.
fn outputs(fleet: &FleetMonitor) -> (u64, u64, Vec<RowBits>, u64, u64) {
    let rows = fleet
        .archive()
        .forecasts()
        .quality_table()
        .into_iter()
        .map(|r| {
            (
                r.name.to_string(),
                r.scored,
                r.abs_sum.to_bits(),
                r.sq_sum.to_bits(),
            )
        })
        .collect();
    (
        fleet.fingerprint(),
        fleet.archive().memory().fingerprint(),
        rows,
        fleet.events(),
        fleet.gaps(),
    )
}

/// What the store serves for host `h` as a bare value: the selected
/// member's forecast, or 0.0 before the host's first reading.
fn served(fleet: &FleetMonitor, h: usize) -> f64 {
    let answer = fleet.archive().forecasts().forecast(ResourceId(h as u64));
    answer.map_or(0.0, |a| a.forecast.value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn the_standing_forecast_is_the_served_forecast_through_gaps(
        hosts in 1usize..32,
        seed in any::<u64>(),
    ) {
        let faults = FaultPlan::seeded(seed ^ 0x6A95, FaultRates::uniform(0.3));
        for panel in [FleetPanel::Bank(PanelSpec::Nws1999), FleetConfig::default().panel] {
            for roster in [FleetRoster::Synthetic, FleetRoster::TraceMixture(traces())] {
                let config = FleetConfig { hosts, seed, panel, ..FleetConfig::default() };
                let mut fleet = FleetMonitor::with_roster(config, roster, &faults);
                for slots in [1, 7, 64, 130] {
                    fleet.run_steps(slots);
                    for h in 0..hosts {
                        let (got, want) = (fleet.forecast(h), served(&fleet, h));
                        prop_assert!(
                            got.to_bits() == want.to_bits(),
                            "{panel:?} host {h} after {} slots: {got} != {want}",
                            fleet.slots()
                        );
                    }
                    prop_assert_eq!(fleet.events() + fleet.gaps(), fleet.archive().revision());
                }
                prop_assert!(fleet.gaps() > 0, "the fault plan must bite");
            }
        }
    }

    #[test]
    fn best_host_is_the_first_maximum_over_fresh_hosts(
        hosts in 1usize..48,
        rack_size in 1usize..20,
        seed in any::<u64>(),
        bank in any::<bool>(),
    ) {
        let panel = if bank {
            FleetPanel::Bank(PanelSpec::Nws1999)
        } else {
            FleetConfig::default().panel
        };
        for rate in [0.0, 0.3] {
            let faults = FaultPlan::seeded(seed ^ 0xFA17, FaultRates::uniform(rate));
            for roster in [FleetRoster::Synthetic, FleetRoster::TraceMixture(traces())] {
                let mixture = matches!(roster, FleetRoster::TraceMixture(_));
                for threads in [1, 4] {
                    for batch_slots in [1, 64] {
                        nws_runtime::set_threads(Some(threads));
                        let config = FleetConfig {
                            hosts,
                            rack_size,
                            seed,
                            batch_slots,
                            panel,
                            ..FleetConfig::default()
                        };
                        let mut fleet = FleetMonitor::with_roster(config, roster.clone(), &faults);
                        prop_assert!(fleet.best_host().is_none(), "a fresh fleet has a best host");
                        for slots in [0, 1, 7, 64] {
                            fleet.run_steps(slots);
                            let (got, want) = (best_bits(&fleet), scan(&fleet));
                            prop_assert!(
                                got == want,
                                "rate {rate} mixture {mixture} threads {threads} \
                                 batch {batch_slots} after {} slots: {got:?} != {want:?}",
                                fleet.slots()
                            );
                        }
                        if mixture {
                            prop_assert!(fleet.archive().memory().is_empty(ResourceId(0)));
                        }
                        nws_runtime::set_threads(None);
                    }
                }
            }
        }
    }

    #[test]
    fn fleet_outputs_match_the_slot_major_fleet_at_any_batch_window(
        hosts in 1usize..24,
        seed in any::<u64>(),
    ) {
        for panel in [FleetConfig::default().panel, FleetPanel::Bank(PanelSpec::Nws1999)] {
            for rate in [0.0, 0.3] {
                let faults = FaultPlan::seeded(seed ^ 0xBA7C, FaultRates::uniform(rate));
                for roster in [FleetRoster::Synthetic, FleetRoster::TraceMixture(traces())] {
                    let mixture = matches!(roster, FleetRoster::TraceMixture(_));
                    for threads in [1, 4] {
                        nws_runtime::set_threads(Some(threads));
                        let fleet = |batch_slots| {
                            let config = FleetConfig {
                                hosts,
                                seed,
                                batch_slots,
                                panel,
                                ..FleetConfig::default()
                            };
                            FleetMonitor::with_roster(config, roster.clone(), &faults)
                        };
                        let mut slot_major = fleet(1);
                        let mut batched = [fleet(7), fleet(64)];
                        for slots in [0, 1, 7, 64, 130] {
                            slot_major.run_steps(slots);
                            let want = outputs(&slot_major);
                            for f in &mut batched {
                                f.run_steps(slots);
                                prop_assert!(
                                    outputs(f) == want,
                                    "{panel:?} rate {rate} mixture {mixture} threads {threads} \
                                     after {} slots: {:?} != {want:?}",
                                    f.slots(),
                                    outputs(f)
                                );
                            }
                        }
                        nws_runtime::set_threads(None);
                    }
                }
            }
        }
    }
}

#[test]
fn a_fleet_that_never_reports_has_no_best_host() {
    let mut fleet = FleetMonitor::with_roster(
        FleetConfig {
            hosts: 1,
            ..FleetConfig::default()
        },
        FleetRoster::TraceMixture(traces()),
        &FaultPlan::none(),
    );
    fleet.run_steps(64);
    assert_eq!(fleet.gaps(), 64);
    assert_eq!(fleet.best_host(), None);
    assert_eq!(scan(&fleet), None);
}

/// Two hosts at the default seed: host 0 replays a 100-slot trace
/// holding one reading of 0.9 (the rest are gaps), host 1 a constant
/// 0.5.
fn silent_host_fleet() -> FleetMonitor {
    let mut once = vec![f64::NAN; 100];
    once[0] = 0.9;
    FleetMonitor::with_roster(
        FleetConfig {
            hosts: 2,
            ..FleetConfig::default()
        },
        FleetRoster::TraceMixture(vec![once, vec![0.5; 100]]),
        &FaultPlan::none(),
    )
}

#[test]
fn a_silent_host_is_never_placed() {
    let mut fleet = silent_host_fleet();
    fleet.run_steps(100);
    let now = Cadence::PAPER.slot_time(fleet.slots());
    let last = fleet
        .archive()
        .memory()
        .latest(ResourceId(0))
        .expect("read once");
    assert!(now - last.time > STALENESS_BOUND, "host 0 is not silent");
    assert_eq!(
        fleet.forecast(0),
        0.9,
        "host 0 still holds the best forecast"
    );
    assert_eq!(fleet.best_host(), Some((1, 0.5)));
    assert_eq!((fleet.events(), fleet.gaps()), (101, 99));
    assert_eq!(fleet.archive().revision(), 200, "every reading and gap");
}

#[test]
fn a_reading_stays_placeable_for_twelve_silent_slots() {
    let mut fleet = silent_host_fleet();
    while fleet.archive().memory().is_empty(ResourceId(0)) {
        fleet.run_steps(1);
    }
    // A reading is stamped at the end of its slot, as the grid's are:
    // its staleness is the time of the slots run after it.
    let stamp = fleet.archive().memory().latest(ResourceId(0)).unwrap().time;
    assert_eq!(stamp, Cadence::PAPER.slot_time(fleet.slots()));
    assert_eq!(fleet.best_host(), Some((0, 0.9)));
    fleet.run_steps(12);
    assert_eq!(fleet.best_host(), Some((0, 0.9)), "12 slots old is fresh");
    fleet.run_steps(1);
    assert_eq!(
        fleet.best_host(),
        Some((1, 0.5)),
        "13 slots old is degraded"
    );
}

/// The fleet's bits, recorded at commit be4d7f8: the default fleet
/// clean and under a fault plan that takes some hosts' first slots, a
/// trace-mixture fleet, and a faulted 1999-panel fleet (each a
/// [`FleetMonitor::fingerprint`]), then one FNV-1a over an extended
/// fleet's quality-table sums. The faulted 1999-panel entry was
/// re-recorded once, when a gap began refreshing the standing forecast
/// (before, a host kept ranking on the value of a member the gap had
/// killed); the one-member default bank has no member a gap can kill.
const GOLDEN_FLEET: [u64; 5] = [
    0x4169_6caa_268b_b3ac,
    0x3fd4_12ef_824f_5675,
    0xcf92_7b85_4af1_4b47,
    0x8f47_eab6_1cd6_cc12,
    0x18e6_ba9b_9d00_5996,
];

#[test]
fn fleet_bits_match_the_recorded_goldens() {
    let base = FleetConfig {
        hosts: 40,
        rack_size: 8,
        ..FleetConfig::default()
    };
    let run = |panel, roster: FleetRoster, faults: &FaultPlan| {
        let config = FleetConfig { panel, ..base };
        let mut fleet = FleetMonitor::with_roster(config, roster, faults);
        fleet.run_steps(150);
        fleet
    };
    let default = base.panel;
    let faulted = FaultPlan::seeded(3, FaultRates::uniform(0.3));
    let nws1999 = FleetPanel::Bank(PanelSpec::Nws1999);
    let extended = run(
        FleetPanel::Bank(PanelSpec::Extended),
        FleetRoster::TraceMixture(traces()),
        &faulted,
    );
    let mut quality = Fnv1a::new();
    for row in extended.archive().forecasts().quality_table() {
        quality.bytes(row.name.as_bytes());
        quality.word(row.scored);
        quality.word(row.abs_sum.to_bits());
        quality.word(row.sq_sum.to_bits());
    }
    let got = [
        run(default, FleetRoster::Synthetic, &FaultPlan::none()).fingerprint(),
        run(default, FleetRoster::Synthetic, &faulted).fingerprint(),
        run(
            default,
            FleetRoster::TraceMixture(traces()),
            &FaultPlan::none(),
        )
        .fingerprint(),
        run(nws1999, FleetRoster::Synthetic, &faulted).fingerprint(),
        quality.finish(),
    ];
    assert_eq!(got, GOLDEN_FLEET, "{got:#x?}");
}
