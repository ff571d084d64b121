//! Counters of an in-process [`Cluster`], read before and after a
//! measured interval, and the checks every in-process workload shares.

use crate::closed::Tally;
use crate::report::Report;
use crate::stats::ratio;
use dtx_bench::ms;
use dtx_core::Cluster;
use std::time::Duration;

/// Cumulative cluster counters at one instant.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    net_msgs: u64,
    net_bytes: u64,
    remote_msgs: u64,
    termination_msgs: u64,
    termination_unbatched: u64,
    snapshot_reads: u64,
    wal_appends: u64,
    wal_forces: u64,
    coord_submitted: u64,
    coord_committed: u64,
}

impl Counters {
    /// Reads `cluster`'s counters now.
    pub fn read(cluster: &Cluster) -> Counters {
        cluster.refresh_wal_gauges();
        let m = cluster.metrics();
        let coords = m.coord_stats();
        Counters {
            net_msgs: cluster.net_messages(),
            net_bytes: cluster.net_bytes(),
            remote_msgs: m.remote_msgs(),
            termination_msgs: m.termination_msgs(),
            termination_unbatched: m.termination_msgs_unbatched(),
            snapshot_reads: m.snapshot_reads(),
            wal_appends: m.wal_appends(),
            wal_forces: m.wal_forces(),
            coord_submitted: coords.iter().map(|c| c.submitted).sum(),
            coord_committed: coords.iter().map(|c| c.committed).sum(),
        }
    }

    /// `self − earlier`, counter by counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            net_msgs: self.net_msgs - earlier.net_msgs,
            net_bytes: self.net_bytes - earlier.net_bytes,
            remote_msgs: self.remote_msgs - earlier.remote_msgs,
            termination_msgs: self.termination_msgs - earlier.termination_msgs,
            termination_unbatched: self.termination_unbatched - earlier.termination_unbatched,
            snapshot_reads: self.snapshot_reads - earlier.snapshot_reads,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_forces: self.wal_forces - earlier.wal_forces,
            coord_submitted: self.coord_submitted - earlier.coord_submitted,
            coord_committed: self.coord_committed - earlier.coord_committed,
        }
    }

    /// Snapshot reads served.
    pub fn snapshot_reads(&self) -> u64 {
        self.snapshot_reads
    }

    /// WAL appends and forces.
    pub fn wal(&self) -> (u64, u64) {
        (self.wal_appends, self.wal_forces)
    }
}

/// Checks that the cluster's own accounting agrees with the driver's:
/// every transaction the driver submitted was submitted, terminated and
/// (when it committed) committed at a coordinator.
pub fn check_terminated(report: &mut Report, delta: &Counters, tally: &Tally) {
    report.check(delta.coord_submitted == tally.attempted, || {
        format!(
            "coordinators saw {} submissions, the driver made {}",
            delta.coord_submitted, tally.attempted
        )
    });
    report.check(delta.coord_committed == tally.committed, || {
        format!(
            "coordinators committed {}, the driver saw {} commits",
            delta.coord_committed, tally.committed
        )
    });
    report.check(
        tally.committed + tally.deadlocks + tally.failed == tally.attempted,
        || "an attempted transaction did not terminate".into(),
    );
    report.check(tally.attempted > 0, || {
        "no transaction was attempted".into()
    });
}

/// Records the counter-derived per-layer metrics of an untraced run:
/// `delta` is the counters' change over it, `tally` what the driver saw,
/// `cpu` the process CPU time it took.
pub fn record_counters(
    report: &mut Report,
    cluster: &Cluster,
    delta: &Counters,
    tally: &Tally,
    cpu: Duration,
) {
    let m = cluster.metrics();
    let attempted = tally.attempted as f64;
    let committed = tally.committed as f64;
    for (name, hist) in m.phase_histograms() {
        let (mean, p99) = match name {
            "ready" => ("scheduler.ready_ms_per_txn", "scheduler.phase_p99_ms.ready"),
            "waiting" => (
                "scheduler.waiting_ms_per_txn",
                "scheduler.phase_p99_ms.waiting",
            ),
            "remote" => (
                "scheduler.remote_ms_per_txn",
                "scheduler.phase_p99_ms.remote",
            ),
            _ => (
                "scheduler.terminating_ms_per_txn",
                "scheduler.phase_p99_ms.terminating",
            ),
        };
        report.set(mean, ms(hist.mean()));
        report.set(p99, ms(hist.percentile(0.99)));
    }
    report.set(
        "scheduler.deadlock_aborts_per_txn",
        ratio(tally.deadlocks as f64, attempted),
    );
    let peak = m.coord_stats().iter().map(|c| c.inflight_peak).max();
    report.set("scheduler.inflight_peak", peak.unwrap_or(0) as f64);
    report.set(
        "scheduler.termination_batching",
        ratio(
            delta.termination_msgs as f64,
            delta.termination_unbatched as f64,
        ),
    );
    report.set(
        "storage.wal_forces_per_commit",
        ratio(delta.wal_forces as f64, committed),
    );
    report.set(
        "storage.wal_appends_per_commit",
        ratio(delta.wal_appends as f64, committed),
    );
    report.set(
        "routing.remote_msgs_per_txn",
        ratio(delta.remote_msgs as f64, attempted),
    );
    report.set("net.msgs_per_txn", ratio(delta.net_msgs as f64, attempted));
    report.set(
        "net.bytes_per_txn",
        ratio(delta.net_bytes as f64, attempted),
    );
    report.set(
        "dataguide.snapshot_reads_per_txn",
        ratio(delta.snapshot_reads as f64, attempted),
    );
    report.set("dataguide.snapshot_bytes", m.snapshot_bytes() as f64 / 1e6);
    report.set("socket.bytes_per_frame", 0.0);
    report.set("socket.frames_per_txn", 0.0);
    record_driver(report, tally, cpu);
}

/// Records the driver- and process-level per-layer metrics.
pub fn record_driver(report: &mut Report, tally: &Tally, cpu: Duration) {
    report.set("driver.lag_max_ms", ms(tally.lag_max));
    report.set("driver.latency_samples", tally.commits.len() as f64);
    report.set(
        "process.cpu_ms_per_commit",
        ratio(ms(cpu), tally.committed as f64),
    );
}

/// Records the end-to-end metrics of a measured run.
pub fn record_end_to_end(report: &mut Report, tally: &Tally, setup_s: f64, peak_bytes: usize) {
    use crate::stats::{ns_to_ms, percentile};
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.set(
        "commit_per_s",
        ratio(tally.committed as f64, tally.wall.as_secs_f64()),
    );
    report.set(
        "commit_ratio",
        ratio(tally.committed as f64, tally.attempted as f64),
    );
    let mut lat = tally.latencies_ns();
    report.set("latency_p50_ms", ns_to_ms(percentile(&mut lat, 0.50)));
    report.set("latency_p99_ms", windowed_p99(tally));
    report.set("setup_s", setup_s);
    report.set("mem_peak_mb", peak_bytes as f64 / 1e6);
    eprintln!(
        "# {} attempted, {} committed, {} deadlock victims, {} failed; {} latency samples; \
         host steal {:.1} %",
        tally.attempted,
        tally.committed,
        tally.deadlocks,
        tally.failed,
        tally.commits.len(),
        tally.steal * 100.0
    );
    for s in &tally.failure_samples {
        eprintln!("#   failed: {s}");
    }
}

/// Committed transactions per `latency_p99_ms` window (at least 20
/// samples lie beyond each window's p99).
pub const P99_WINDOW: usize = 2_000;

/// Most windows `latency_p99_ms` takes the median over.
pub const P99_MAX_WINDOWS: usize = 25;

/// `latency_p99_ms`: the median, over consecutive windows of at least
/// [`P99_WINDOW`] commits in completion order (at most
/// [`P99_MAX_WINDOWS`]), of each window's 99th percentile (ms). A burst
/// of host noise inflates the windows it falls in, not the median; a run
/// shorter than two windows reports its plain p99.
pub fn windowed_p99(tally: &Tally) -> f64 {
    use crate::stats::{median, ns_to_ms, percentile};
    let mut commits = tally.commits.clone();
    commits.sort_by_key(|&(at, _)| at);
    let k = (commits.len() / P99_WINDOW).clamp(1, P99_MAX_WINDOWS);
    let size = commits.len().div_ceil(k).max(1);
    let p99s: Vec<f64> = commits
        .chunks(size)
        .map(|c| {
            let mut ns: Vec<u64> = c.iter().map(|&(_, ns)| ns).collect();
            ns_to_ms(percentile(&mut ns, 0.99))
        })
        .collect();
    median(&p99s)
}
