//! The fleet's best host is a scan, and its outputs do not depend on the
//! batch window.
//!
//! [`FleetMonitor::best_host`] is computed once at the end of each
//! `run_steps`. Whatever the roster, fault plan, run length, thread count
//! or batch window, it must equal a reference scan of the monitor's
//! public state: among hosts holding at least one reading, the maximum
//! forecast at the lowest index that holds it — or `None` while no host
//! has reported.
//!
//! The engine commits the fleet shard-major within each round of
//! `batch_slots` slots. A fleet at `batch_slots = 1` is committed
//! slot-major by construction, and every observable output of a fleet
//! at any other window must equal it.

use nws_faults::{FaultPlan, FaultRates};
use nws_forecast::PanelSpec;
use nws_grid::{FleetConfig, FleetMonitor, FleetPanel, FleetRoster, ResourceId};
use proptest::prelude::*;

/// The reference: the maximum forecast over reported hosts, then the
/// first host holding it, as `(host, forecast bits)`.
fn scan(fleet: &FleetMonitor) -> Option<(usize, u64)> {
    let reported: Vec<(usize, f64)> = (0..fleet.hosts())
        .filter(|&h| !fleet.memory().is_empty(ResourceId(h as u64)))
        .map(|h| (h, fleet.forecast(h)))
        .collect();
    let max = reported
        .iter()
        .map(|&(_, f)| f)
        .fold(f64::NEG_INFINITY, f64::max);
    reported
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
        fleet.memory().fingerprint(),
        rows,
        fleet.events(),
        fleet.gaps(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn best_host_is_the_first_maximum_over_reported_hosts(
        hosts in 1usize..48,
        rack_size in 1usize..20,
        seed in any::<u64>(),
        bank in any::<bool>(),
    ) {
        let panel = if bank {
            FleetPanel::Bank(PanelSpec::Nws1999)
        } else {
            FleetPanel::Ewma
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
                            prop_assert!(fleet.memory().is_empty(ResourceId(0)));
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
        for panel in [FleetPanel::Ewma, FleetPanel::Bank(PanelSpec::Nws1999)] {
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
