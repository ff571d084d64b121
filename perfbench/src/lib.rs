//! # perfbench — the DTX repository benchmark
//!
//! One command runs one workload against the DTX workspace and prints
//! every end-to-end or per-layer metric by name with its unit, after
//! checking the program's outputs. Three workloads form the contract;
//! `point-open` runs on request (see [`args::Workload::CONTRACT`]). The program is driven only
//! through public APIs (`Cluster`, `SiteHost`/`CtrlClient`, `Metrics`,
//! `Tracer` and the layer crates' functions); every workload runs XDGL
//! with the latency, storage and per-operation cost models at zero, so
//! the figures measure the program and not simulated sleeps.
//!
//! The contract (workload names, metric names, units and bounds) lives in
//! `BENCHMARK.json` at the repository root; `perfbench/README.md` says
//! why each workload and metric was chosen.

pub mod args;
pub mod closed;
pub mod inproc;
pub mod open;
pub mod oracle;
pub mod provenance;
pub mod replay;
pub mod report;
pub mod stats;
pub mod tcp;
pub mod traced;
pub mod xmark;

use std::time::Duration;

/// The process-wide counting allocator behind `mem_peak_mb`.
#[global_allocator]
pub static ALLOC: dtx_bench::CountingAlloc = dtx_bench::CountingAlloc::new();

/// Sites in every workload's cluster.
pub const SITES: u16 = 4;

/// Closed-loop clients of the xmark workloads.
pub const CLIENTS: usize = 16;

/// Upper bound on driver threads (the recording host's `nproc`).
pub const MAX_DRIVER_THREADS: usize = 2;

/// Driver threads actually used: `min(nproc, MAX_DRIVER_THREADS)`.
pub fn driver_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_DRIVER_THREADS)
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed())
}
