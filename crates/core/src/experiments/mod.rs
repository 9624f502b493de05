//! Drivers that regenerate every table and figure in the paper.
//!
//! Each experiment is a `*_from(dataset)` function: pure computation over
//! already-collected [`HostRun`]s, so the repro harness collects each
//! dataset once (see [`dataset`]).
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 1 (measurement error) | [`tables::table1_from`] |
//! | Table 2 (true forecasting error) | [`tables::table2_from`] |
//! | Table 3 (one-step prediction error) | [`tables::table3_from`] |
//! | Table 4 (Hurst + aggregation variance) | [`tables::table4_from`] |
//! | Table 5 (aggregated prediction error) | [`tables::table5_from`] |
//! | Table 6 (5-min true forecasting error) | [`tables::table6_from`] |
//! | Figure 1 (availability traces) | [`figures::fig1_from`] |
//! | Figure 2 (autocorrelations) | [`figures::fig2_from`] |
//! | Figure 3 (pox plots) | [`figures::fig3_from`] |
//! | Figure 4 (5-min aggregated traces) | [`figures::fig4_from`] |
//! | Forecaster ablation | [`ablations::forecaster_ablation`] |
//! | Probe-bias ablation | [`ablations::bias_ablation`] |
//! | Probe-duration sweep | [`ablations::probe_duration_sweep`] |
//! | Aggregation-level sweep (§3.2 hypothesis) | [`extensions::aggregation_sweep`] |
//! | Forecast-horizon sweep | [`extensions::horizon_sweep`] |
//! | Seed robustness of Table 1 | [`extensions::seed_robustness`] |
//! | Host-load statistics (Dinda–O'Halloran style) | [`loadstats::load_statistics`] |

pub mod ablations;
pub mod dataset;
pub mod extensions;
pub mod figures;
pub mod loadstats;
pub mod tables;

pub use ablations::{bias_ablation, forecaster_ablation, probe_duration_sweep};
pub use dataset::{
    all_datasets, medium_dataset, short_dataset, weekly_load_series, ExperimentConfig, HostRun,
    MethodSeries,
};
pub use extensions::{
    aggregation_sweep, horizon_sweep, seed_robustness, sweep_dataset, AggregationPoint,
    HorizonPoint, RobustnessRow,
};
pub use figures::{fig1_from, fig2_from, fig3_from, fig4_from, FigSeries, PoxFigure};
pub use loadstats::{load_statistics, LoadStatsRow};
pub use tables::{
    table1_from, table2_from, table3_from, table4_from, table5_from, table6_from, MethodRow,
    MethodTable, Table4Row,
};
