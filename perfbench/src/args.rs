//! Command-line arguments:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use std::time::Duration;

/// The four workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// XMark base, 16 closed-loop clients, read-only transactions.
    XmarkRead,
    /// XMark base, 16 closed-loop clients, 60 % update transactions.
    XmarkWrite,
    /// Open-loop point transactions at a fixed Poisson rate.
    PointOpen,
    /// The xmark mix at 20 % updates over localhost TCP.
    XmarkTcp,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::XmarkRead,
        Workload::XmarkWrite,
        Workload::PointOpen,
        Workload::XmarkTcp,
    ];

    /// The workloads `BENCHMARK.json` declares. `point-open` runs on
    /// request but is left out of the contract: on the 2-core recording
    /// host its sub-millisecond p99 moved by 0.5–1.4× of its median
    /// between runs, more than any bound the contract allows.
    pub const CONTRACT: [Workload; 3] = [
        Workload::XmarkRead,
        Workload::XmarkWrite,
        Workload::XmarkTcp,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::XmarkRead => "xmark-read",
            Workload::XmarkWrite => "xmark-write",
            Workload::PointOpen => "point-open",
            Workload::XmarkTcp => "xmark-tcp",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Default seed (the paper's year, as everywhere in the repository).
pub const DEFAULT_SEED: u64 = 2009;

/// Parsed arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured duration of the run.
    pub seconds: Duration,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} takes a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(&v).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {v:?} (one of {})", names.join(", "))
                    })?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: Duration::from_secs_f64(seconds),
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = Args::parse(&argv(
            "--workload point-open --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::PointOpen);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(3));
        assert!(a.trace);
        let d = Args::parse(&argv("--workload xmark-read")).unwrap();
        assert_eq!(d.seed, DEFAULT_SEED);
        assert!(!d.trace);
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(Args::parse(&argv("--workload nope")).is_err());
        assert!(Args::parse(&argv("--workload xmark-read --trace 2")).is_err());
        assert!(Args::parse(&argv("--seed 1")).is_err());
    }
}
