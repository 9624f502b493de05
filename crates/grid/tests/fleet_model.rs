//! The fleet's best host is a scan.
//!
//! [`FleetMonitor::best_host`] is computed once at the end of each
//! `run_steps`. Whatever the roster, fault plan, run length, thread count
//! or batch window, it must equal a reference scan of the monitor's
//! public state: among hosts holding at least one reading, the maximum
//! forecast at the lowest index that holds it — or `None` while no host
//! has reported.

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
