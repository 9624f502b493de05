//! The paper's own artifacts: Tables 1–6 and Figures 1–4, printed with
//! the published value beside each measured cell and written as CSV.

use crate::write_artifact;
use nws_core::experiments::{
    all_datasets, fig1_from, fig2_from, fig3_from, fig4_from, medium_dataset, short_dataset,
    table1_from, table2_from, table3_from, table4_from, table5_from, table6_from,
    weekly_load_series, ExperimentConfig, FigSeries, HostRun, MethodTable,
};
use nws_core::paper;
use nws_core::plot::{ascii_scatter, ascii_series};
use nws_core::report::{method_table_to_csv, render_method_table, render_table4, table4_to_csv};
use nws_timeseries::csv::series_to_csv;
use nws_timeseries::Series;
use std::fmt::Write as _;

/// The monitoring runs behind the tables, each collected at most once.
#[derive(Default)]
pub struct Datasets {
    short: Option<Vec<HostRun>>,
    medium: Option<Vec<HostRun>>,
    weekly: Option<Vec<Series>>,
}

impl Datasets {
    /// Collects all 18 monitoring runs (6 hosts × short/medium/weekly)
    /// through one shared work queue instead of dataset by dataset.
    pub fn collect_all(&mut self, cfg: &ExperimentConfig) {
        eprintln!(
            "collecting all datasets concurrently (18 runs, {} threads)...",
            nws_runtime::threads()
        );
        let (short, medium, weekly) = all_datasets(cfg);
        self.short = Some(short);
        self.medium = Some(medium);
        self.weekly = Some(weekly);
    }

    fn short(&mut self, cfg: &ExperimentConfig) -> &[HostRun] {
        self.short.get_or_insert_with(|| {
            eprintln!("collecting 24h short-test dataset (6 hosts)...");
            short_dataset(cfg)
        })
    }

    fn medium(&mut self, cfg: &ExperimentConfig) -> &[HostRun] {
        self.medium.get_or_insert_with(|| {
            eprintln!("collecting 24h medium-term dataset (6 hosts)...");
            medium_dataset(cfg)
        })
    }

    fn weekly(&mut self, cfg: &ExperimentConfig) -> &[Series] {
        self.weekly.get_or_insert_with(|| {
            eprintln!("collecting week-long load traces (6 hosts)...");
            weekly_load_series(cfg)
        })
    }
}

fn method_table(name: &str, table: &MethodTable, published: &[[f64; 3]; 6]) {
    println!("\n{}", render_method_table(table, Some(published)));
    write_artifact(&format!("{name}.csv"), &method_table_to_csv(table));
}

fn series_figure(name: &str, fig: &FigSeries) {
    println!("\n{}", fig.title);
    for (host, series) in &fig.series {
        println!("{}", ascii_series(series, 100, 12));
        write_artifact(&format!("{name}_{host}.csv"), &series_to_csv(series));
    }
}

/// Runs one of `table1`–`table6` / `fig1`–`fig4`.
pub fn run(name: &str, cfg: &ExperimentConfig, data: &mut Datasets) {
    match name {
        "table1" => method_table(name, &table1_from(data.short(cfg)), &paper::TABLE1),
        "table2" => method_table(name, &table2_from(data.short(cfg)), &paper::TABLE2),
        "table3" => method_table(name, &table3_from(data.short(cfg)), &paper::TABLE3),
        "table4" => {
            data.short(cfg);
            data.weekly(cfg);
            let rows = table4_from(
                data.short.as_ref().expect("just collected"),
                data.weekly.as_ref().expect("just collected"),
            );
            println!("\n{}", render_table4(&rows, true));
            write_artifact("table4.csv", &table4_to_csv(&rows));
        }
        "table5" => method_table(name, &table5_from(data.short(cfg)), &paper::TABLE5),
        "table6" => method_table(name, &table6_from(data.medium(cfg)), &paper::TABLE6),
        "fig1" => series_figure(name, &fig1_from(data.short(cfg))),
        "fig2" => series_figure(name, &fig2_from(data.short(cfg))),
        "fig3" => {
            println!("\nFigure 3: R/S pox plots (Unix load average, one week)");
            for fig in fig3_from(data.weekly(cfg), &nws_sim::UCSD_HOST_NAMES) {
                let pts: Vec<(f64, f64)> =
                    fig.points.iter().map(|p| (p.log10_d, p.log10_rs)).collect();
                println!(
                    "{}",
                    ascii_scatter(
                        &format!("{}  H = {:.2}", fig.host, fig.estimate.h),
                        &pts,
                        Some((fig.estimate.fit.slope, fig.estimate.fit.intercept)),
                        80,
                        20,
                    )
                );
                let mut csv = String::from("log10_d,log10_rs\n");
                for p in &fig.points {
                    let _ = writeln!(csv, "{},{}", p.log10_d, p.log10_rs);
                }
                write_artifact(&format!("fig3_{}.csv", fig.host), &csv);
            }
        }
        "fig4" => series_figure(name, &fig4_from(data.medium(cfg))),
        other => unreachable!("{other} is not a table or figure"),
    }
}
