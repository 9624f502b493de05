//! The `fleet` experiment: the scaling sweep over synthetic rosters
//! (`results/fleet_sweep.csv`: each fleet's best host and fingerprint
//! after its run, with `racks` the grouping the monitor reports) and,
//! with `--quality`, the forecast-quality sweep
//! (`results/fleet_quality.csv`, also the `forecast_quality` section of
//! `BENCH_perf.json`). Every value is a pure function of the seed, so CI
//! byte-diffs both CSVs across thread counts; what a fleet costs to run
//! is `benchmark`'s `ingest_fleet`.

use crate::cli::Tier;
use crate::json::{fixed, obj, Json};
use crate::write_artifact;
use std::fmt::Write as _;

/// Runs the scaling sweep, or with `quality` the forecast-quality sweep.
pub fn run(seed: u64, tier: Tier, quality: bool) {
    let threads = nws_runtime::threads();
    if quality {
        println!("\n== fleet forecast quality sweep (threads={threads}) ==");
        write_artifact("fleet_quality.csv", &quality_sweep(seed, tier).1);
    } else {
        println!("\n== fleet scaling sweep (threads={threads}) ==");
        write_artifact("fleet_sweep.csv", &scaling_sweep(seed, tier));
    }
}

/// Runs `FleetMonitor` at each of the tier's host counts — tens to (full
/// tier) a hundred thousand hosts — and returns, per fleet, its rack
/// count, the best host found by the pass that ends its run, and its
/// fingerprint as CSV.
fn scaling_sweep(seed: u64, tier: Tier) -> String {
    use nws_grid::{FleetConfig, FleetMonitor};

    let host_counts: &[usize] = tier.pick(
        &[10, 100, 1_000],
        &[10, 100, 1_000, 10_000],
        &[10, 100, 1_000, 10_000, 100_000],
    );
    let mut csv =
        String::from("hosts,racks,slots,events,best_host,best_forecast_bits,fingerprint\n");
    for &hosts in host_counts {
        let mut fleet = FleetMonitor::new(FleetConfig {
            hosts,
            seed,
            ..FleetConfig::default()
        });
        // The slot count the tracked fingerprints were taken at: past one
        // retain window plus one ring doubling, then a window that
        // shrinks as the roster grows.
        let window: u64 = (400_000 / hosts as u64).clamp(4, 400);
        fleet.run_steps(130 + tier.pick(2, 3, 3) * window);
        let (best_host, best_forecast) = fleet.best_host().expect("non-empty fleet");
        let fingerprint = fleet.fingerprint();
        let racks = fleet.rack_count();
        println!(
            "  fleet {hosts:>6} hosts / {racks:>4} racks: {:>8} events over {:>4} slots, \
             best {best_host} @ {best_forecast:.4}, fingerprint {fingerprint:#018x}",
            fleet.events(),
            fleet.slots()
        );
        let _ = writeln!(
            csv,
            "{hosts},{racks},{},{},{best_host},{:#018x},{fingerprint:#018x}",
            fleet.slots(),
            fleet.events(),
            best_forecast.to_bits(),
        );
    }
    csv
}

/// The full predictor panel (dynamic-selection members plus the ARMA
/// pair) raced over three prediction scenarios, as Table 2/3-shaped
/// per-predictor MAE/MSE rows. Returns the rows as JSON entries and as
/// CSV.
///
/// 1. `synthetic-ar1` — the fleet's AR(1)-style synthetic rosters, the
///    panel scored on every host of an `Extended`-panel fleet;
/// 2. `trace-mixture` — the same fleet replaying UCSD availability
///    traces (Eq. 1 of the simulated workstation mixes) under a seeded
///    fault plan, so the panel is scored across gaps;
/// 3. `transfer-time` — the Vazhkudai–Schopf scenario: predicting
///    file-transfer durations over monitored links, where regressing on
///    bandwidth *and* endpoint CPU beats bandwidth alone.
pub(crate) fn quality_sweep(seed: u64, tier: Tier) -> (Vec<Json>, String) {
    use nws_faults::{FaultPlan, FaultRates};
    use nws_forecast::PanelSpec;
    use nws_grid::{FleetConfig, FleetMonitor, FleetPanel, FleetRoster};
    use nws_net::{LinkMonitor, TransferScenario};
    use nws_sim::ucsd_availability_traces;

    let (hosts, steps) = tier.pick((32usize, 160u64), (64, 240), (128, 480));
    let transfers = tier.pick(160, 320, 640);
    let panel_config = |hosts: usize| FleetConfig {
        hosts,
        seed,
        panel: FleetPanel::Bank(PanelSpec::Extended),
        ..FleetConfig::default()
    };
    let mut scenarios: Vec<(&'static str, Vec<nws_forecast::ErrorRow>)> = Vec::new();

    // Scenario 1: synthetic AR(1)-style rosters, fault-free.
    let mut fleet = FleetMonitor::with_roster(
        panel_config(hosts),
        FleetRoster::Synthetic,
        &FaultPlan::none(),
    );
    fleet.run_steps(steps);
    scenarios.push(("synthetic-ar1", fleet.quality_table()));

    // Scenario 2: hosts replay UCSD availability traces at seeded phase
    // offsets, under a fleet-scale fault plan (outages and lost
    // measurements become forecaster gaps).
    let traces = ucsd_availability_traces(seed ^ 0x7ACE, steps as usize + 64);
    let mut fleet = FleetMonitor::with_roster(
        panel_config(hosts),
        FleetRoster::TraceMixture(traces),
        &FaultPlan::seeded(seed ^ 0xFA17, FaultRates::uniform(0.05)),
    );
    fleet.run_steps(steps);
    let gaps = fleet.gaps();
    assert!(gaps > 0, "the fault plan must produce gaps at fleet scale");
    scenarios.push(("trace-mixture", fleet.quality_table()));

    // Scenario 3: transfer times over the demo link grid, each link's
    // endpoint following its own availability trace.
    let mut links = LinkMonitor::demo_grid(seed);
    let cpu = ucsd_availability_traces(seed ^ 0x00C4, transfers);
    let mut transfer = TransferScenario::new(4.0 * 1024.0 * 1024.0, 30);
    let mut cpu_steps: Vec<_> = cpu.iter().map(|trace| trace.iter()).collect();
    for _ in 0..transfers {
        let samples = links.probe_cycle();
        for (steps, sample) in cpu_steps.iter_mut().zip(samples) {
            let availability = *steps.next().expect("trace covers every cycle");
            if let Some(s) = sample {
                transfer.observe(s.bandwidth, availability);
            }
        }
    }
    scenarios.push(("transfer-time", transfer.error_table()));

    println!(
        "  {hosts} hosts x {steps} slots per fleet scenario, {} gap(s) under faults, \
         {} transfers over {} links",
        gaps,
        transfer.observations(),
        links.len()
    );
    let mut entries = Vec::new();
    let mut csv = String::from("scenario,predictor,scored,mae,mse\n");
    println!(
        "  {:<14} {:<22} {:>7} {:>10} {:>10}",
        "scenario", "predictor", "scored", "mae", "mse"
    );
    for (name, rows) in &scenarios {
        assert!(!rows.is_empty(), "{name} produced no error rows");
        for row in rows {
            let (mae, mse) = if row.scored == 0 {
                (0.0, 0.0)
            } else {
                (row.mae(), row.mse())
            };
            println!(
                "  {name:<14} {:<22} {:>7} {mae:>10.4} {mse:>10.4}",
                row.name, row.scored
            );
            // Shortest-round-trip float formatting: full precision, and
            // deterministic, so the CSV byte-diffs across thread counts.
            let _ = writeln!(csv, "{name},{},{},{mae},{mse}", row.name, row.scored);
            entries.push(obj([
                ("scenario", (*name).into()),
                ("predictor", (*row.name).into()),
                ("scored", row.scored.into()),
                ("mae", fixed(mae, 6)),
                ("mse", fixed(mse, 6)),
            ]));
        }
    }
    (entries, csv)
}
