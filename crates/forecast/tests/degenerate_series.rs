//! Degenerate series never break the bank.
//!
//! The paper's panel runs on whatever a sensor reports. Constant and
//! all-zero series zero every variance a model fit divides by; values a
//! ulp apart make those variances rounding noise; a step makes them jump;
//! magnitudes near `f64::MAX` overflow the sums of squares; values near
//! 1e-300 underflow them; and `±0` compare equal but differ in sign. On
//! each, the `Nws1999` and `Extended` banks must keep a finite forecast
//! and a finite 16-step horizon after every observation, across several
//! AR refit rounds (one every 25 observations).

use nws_forecast::PanelSpec;

/// Long enough for the AR fit window (120 values) to fill and refit
/// several times, and for the ARMA members to refresh.
const LEN: usize = 300;

/// A seeded uniform draw in `[0, 1)`, so the magnitude series is not a
/// pattern a window member could lock onto exactly.
fn uniform(i: usize) -> f64 {
    let mut x = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 29;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn series() -> Vec<(&'static str, Vec<f64>)> {
    let alternate = |a: f64, b: f64| (0..LEN).map(move |i| if i % 2 == 0 { a } else { b });
    vec![
        ("constant", vec![0.42; LEN]),
        ("all zero", vec![0.0; LEN]),
        ("1 ulp apart", alternate(0.5, 0.5f64.next_up()).collect()),
        (
            "1 ulp apart at 1.0",
            alternate(1.0f64.next_down(), 1.0).collect(),
        ),
        (
            "0 -> 1 step",
            (0..LEN)
                .map(|i| if i < LEN / 2 { 0.0 } else { 1.0 })
                .collect(),
        ),
        (
            "1e150..1e200",
            (0..LEN)
                .map(|i| 10f64.powf(150.0 + 50.0 * uniform(i)))
                .collect(),
        ),
        ("f64::MAX / 2", vec![f64::MAX / 2.0; LEN]),
        (
            "f64::MAX / 2 and 0",
            alternate(f64::MAX / 2.0, 0.0).collect(),
        ),
        (
            "1e-300 scale",
            (0..LEN).map(|i| 1e-300 * (1.0 + uniform(i))).collect(),
        ),
        ("mixed ±0", alternate(0.0, -0.0).collect()),
    ]
}

#[test]
fn degenerate_series_keep_every_forecast_finite() {
    for spec in [PanelSpec::Nws1999, PanelSpec::Extended] {
        for (name, values) in series() {
            let mut bank = spec.build();
            for (step, &v) in values.iter().enumerate() {
                bank.observe(v);
                let at = format!("{spec:?} on {name}, step {step} ({v:e})");
                let forecast = bank.predicted_value();
                assert!(
                    forecast.is_some_and(f64::is_finite),
                    "{at}: forecast {forecast:?} from {}",
                    bank.selected_name()
                );
                let horizon = bank
                    .predict_horizon(16)
                    .unwrap_or_else(|| panic!("{at}: no horizon"));
                assert_eq!(horizon.len(), 16, "{at}");
                assert!(
                    horizon.iter().all(|h| h.is_finite()),
                    "{at}: horizon {horizon:?} from {}",
                    bank.selected_name()
                );
            }
        }
    }
}
