//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits non-zero when an output check fails or the arguments are bad.

use perfbench::args::{Args, Workload};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{open, provenance, tcp, xmark};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", provenance::line(&args));
    let report = match args.workload {
        Workload::XmarkRead => xmark::run(&args, 0),
        Workload::XmarkWrite => xmark::run(&args, 60),
        Workload::PointOpen => open::run(&args),
        Workload::XmarkTcp => tcp::run(&args),
    };
    for f in &report.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.finish(table));
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
