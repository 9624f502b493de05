//! `repro`'s command line: flags, the experiment list, and which
//! experiments a given line of names selects.

/// How large a run is. `--smoke` is CI-sized (and implies quick
/// datasets), `--quick` shrinks horizons ~24×, the default is paper
/// scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Smoke,
    Quick,
    Full,
}

impl Tier {
    /// The value this tier uses, out of one per tier.
    pub fn pick<T>(self, smoke: T, quick: T, full: T) -> T {
        match self {
            Tier::Smoke => smoke,
            Tier::Quick => quick,
            Tier::Full => full,
        }
    }
}

/// The experiments `all` (or no name at all) expands to, in run order.
pub const DEFAULT: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "ablation",
    "sweep",
    "robustness",
    "sched",
    "loadstats",
    "faults",
];

/// Experiments that run only when named: they sweep six-figure fleets
/// or open real sockets.
pub const NAMED_ONLY: &[&str] = &["fleet", "durability"];

/// The experiments a list of names selects, in run order. `all`, or an
/// empty list, expands to [`DEFAULT`]; a name given explicitly always
/// runs, beside `all` or not.
pub fn select(named: &[String]) -> Result<Vec<&'static str>, String> {
    let known = || DEFAULT.iter().chain(NAMED_ONLY).copied();
    if let Some(bad) = named
        .iter()
        .find(|n| *n != "all" && !known().any(|k| k == *n))
    {
        return Err(format!("unknown experiment {bad}"));
    }
    let all = named.is_empty() || named.iter().any(|n| n == "all");
    Ok(known()
        .filter(|k| (all && DEFAULT.contains(k)) || named.iter().any(|n| n == k))
        .collect())
}

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    pub tier: Tier,
    pub seed: Option<u64>,
    pub threads: Option<usize>,
    /// `fleet --quality`: the forecast-quality sweep instead of the
    /// scaling sweep.
    pub quality: bool,
    /// What to run, in run order.
    pub experiments: Vec<&'static str>,
}

/// Parses the process arguments; prints usage and exits 2 on a bad line.
pub fn parse_args() -> Args {
    let (mut quick, mut smoke) = (false, false);
    let mut seed = None;
    let mut threads = None;
    let mut quality = false;
    let mut named = Vec::new();
    let mut iter = std::env::args().skip(1);
    let value = |flag: &str, iter: &mut std::iter::Skip<std::env::Args>| {
        iter.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--seed" => {
                let v = value("--seed", &mut iter);
                seed = Some(v.parse().unwrap_or_else(|_| usage("bad seed")));
            }
            "--threads" => {
                let v = value("--threads", &mut iter);
                let n: usize = v.parse().unwrap_or_else(|_| usage("bad thread count"));
                if n == 0 {
                    usage("thread count must be positive");
                }
                threads = Some(n);
            }
            "--quality" => quality = true,
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            other => named.push(other.to_string()),
        }
    }
    Args {
        tier: if smoke {
            Tier::Smoke
        } else if quick {
            Tier::Quick
        } else {
            Tier::Full
        },
        seed,
        threads,
        quality,
        experiments: select(&named).unwrap_or_else(|e| usage(&e)),
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: repro [--quick] [--smoke] [--seed N] [--threads N] \
         [--quality] <experiment>...\n\
         experiments: {}\n\
         only when named: {}\n\
         `all` (the default) runs the first list; names add to it",
        DEFAULT.join(" "),
        NAMED_ONLY.join(" ")
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_named_experiment_runs_beside_all() {
        let with_fleet = select(&names(&["all", "fleet"])).expect("known names");
        assert!(with_fleet.contains(&"fleet"));
        assert_eq!(with_fleet.len(), DEFAULT.len() + 1);
        let all = select(&names(&["all"])).expect("known names");
        assert!(!all.contains(&"fleet"));
        assert_eq!(all, DEFAULT);
        assert_eq!(select(&[]).expect("empty is all"), all);
        assert_eq!(
            select(&names(&["fleet", "table2"])).unwrap(),
            ["table2", "fleet"]
        );
    }

    #[test]
    fn the_retired_serve_experiment_is_unknown() {
        for retired in ["serve", "load", "perf", "net", "datasched"] {
            assert_eq!(
                select(&names(&[retired])),
                Err(format!("unknown experiment {retired}"))
            );
        }
    }
}
