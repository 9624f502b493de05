//! A tour of the NWS forecaster panel on series with different structure.
//!
//! ```sh
//! cargo run --release --example forecast_tour
//! ```
//!
//! The NWS design bet is that *no single* cheap predictor wins everywhere,
//! but dynamically selecting the recently-best one is competitive with
//! whichever happens to win on a given series. This example makes the bet
//! visible: it builds five synthetic series with very different structure
//! (level shift, trend, alternating noise, mean-reverting AR(1), and
//! fractional Gaussian noise with H = 0.8), scores every fixed panel member
//! and the dynamic selection on each, and prints the leaderboard.

use nws::forecast::{evaluate_one_step, PredictorBank};
use nws::stats::{DaviesHarte, Rng};

fn series_zoo() -> Vec<(&'static str, Vec<f64>)> {
    let n = 2000;
    let mut rng = Rng::new(4242);
    // Level shift: stable, jumps once, stable again.
    let shift: Vec<f64> = (0..n).map(|i| if i < n / 2 { 0.8 } else { 0.3 }).collect();
    // Slow ramp.
    let ramp: Vec<f64> = (0..n).map(|i| 0.2 + 0.6 * i as f64 / n as f64).collect();
    // Alternating noise around a level (worst case for last-value).
    let mut alt_rng = rng.fork("alt");
    let alternating: Vec<f64> = (0..n)
        .map(|i| {
            let base = if i % 2 == 0 { 0.45 } else { 0.55 };
            (base + 0.05 * (alt_rng.next_f64() - 0.5)).clamp(0.0, 1.0)
        })
        .collect();
    // Mean-reverting AR(1).
    let mut ar_rng = rng.fork("ar");
    let mut x = 0.5f64;
    let ar1: Vec<f64> = (0..n)
        .map(|_| {
            x = 0.9 * x + 0.05 + 0.08 * (ar_rng.next_f64() - 0.5);
            x.clamp(0.0, 1.0)
        })
        .collect();
    // Long-range dependent fGn mapped into [0, 1].
    let mut fgn_rng = rng.fork("fgn");
    let fgn: Vec<f64> = DaviesHarte::new(0.8)
        .expect("valid H")
        .sample(n, &mut fgn_rng)
        .expect("nonzero length")
        .into_iter()
        .map(|z| (0.6 + 0.12 * z).clamp(0.0, 1.0))
        .collect();
    vec![
        ("level-shift", shift),
        ("ramp", ramp),
        ("alternating", alternating),
        ("ar1", ar1),
        ("fgn(H=0.8)", fgn),
    ]
}

fn main() {
    for (name, series) in series_zoo() {
        let mut nws = PredictorBank::nws_default();
        let report = evaluate_one_step(&mut nws, &series).expect("long series");
        let mut fixed = nws.error_summary();
        fixed.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite MAE"));
        let (best_name, best_mae) = &fixed[0];
        let (worst_name, worst_mae) = fixed.last().expect("non-empty panel");
        println!("series: {name}");
        println!(
            "  dynamic selection MAE {:.3}  (best fixed: {best_name} at {:.3}, \
             worst fixed: {worst_name} at {:.3})",
            report.mae, best_mae, worst_mae
        );
        let verdict = if report.mae <= best_mae * 1.1 {
            "dynamic ~ matches the best member"
        } else if report.mae <= best_mae * 1.3 {
            "dynamic within 30% of the best member"
        } else {
            "dynamic trails the best member here"
        };
        println!("  -> {verdict}");
        // Show the top three members for flavour.
        for (n, m) in fixed.iter().take(3) {
            println!("     {:<18} {:.3}", n, m);
        }
        println!();
    }
    println!(
        "The winner changes from series to series — exactly why the NWS\n\
         carries a panel and selects dynamically instead of committing to one\n\
         model."
    );
}
