//! Metric names and units, and the result line the benchmark prints.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json` (a test keeps them in step). A run with `--trace 0`
//! prints every [`END_TO_END`] metric, one with `--trace 1` every
//! [`PER_LAYER`] metric; [`Report::finish`] refuses to print a result
//! that misses one.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("commit_per_s", "1/s"),
    ("commit_ratio", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("mem_peak_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not reach
/// reads 0 (see README.md, "Layers a workload does not reach").
pub const PER_LAYER: &[(&str, &str)] = &[
    // Counters read after the untraced run.
    ("scheduler.ready_ms_per_txn", "ms"),
    ("scheduler.waiting_ms_per_txn", "ms"),
    ("scheduler.remote_ms_per_txn", "ms"),
    ("scheduler.terminating_ms_per_txn", "ms"),
    ("scheduler.phase_p99_ms.ready", "ms"),
    ("scheduler.phase_p99_ms.waiting", "ms"),
    ("scheduler.phase_p99_ms.remote", "ms"),
    ("scheduler.phase_p99_ms.terminating", "ms"),
    ("scheduler.deadlock_aborts_per_txn", "1/txn"),
    ("scheduler.inflight_peak", "count"),
    ("scheduler.termination_batching", "ratio"),
    ("storage.wal_forces_per_commit", "1/commit"),
    ("storage.wal_appends_per_commit", "1/commit"),
    ("routing.remote_msgs_per_txn", "1/txn"),
    ("net.msgs_per_txn", "1/txn"),
    ("net.bytes_per_txn", "B/txn"),
    ("dataguide.snapshot_reads_per_txn", "1/txn"),
    ("dataguide.snapshot_bytes", "MB"),
    ("socket.bytes_per_frame", "B"),
    ("socket.frames_per_txn", "1/txn"),
    ("driver.lag_max_ms", "ms"),
    ("driver.latency_samples", "count"),
    ("process.cpu_ms_per_commit", "ms"),
    // Single-threaded replay timings.
    ("xpath.eval_us_per_op", "us"),
    ("xpath.update_us_per_op", "us"),
    ("locks.request_us_per_op", "us"),
    ("locks.table_us_per_op", "us"),
    ("storage.wal_append_us", "us"),
    ("storage.wal_force_us", "us"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.bytes_per_msg", "B"),
    ("xml.parse_ms", "ms"),
    ("dataguide.build_ms", "ms"),
    ("residual_share", "ratio"),
    // The traced run.
    ("locks.wait_ms_p50", "ms"),
    ("locks.wait_ms_p99", "ms"),
    ("net.transit_us_p50", "us"),
    ("net.transit_us_p99", "us"),
    ("scheduler.prepare_ms_p50", "ms"),
    ("trace.events_per_txn", "1/txn"),
    ("trace.dropped", "count"),
    ("trace.violations", "count"),
    ("trace.overhead", "ratio"),
    ("trace.overhead_spread", "ratio"),
    ("trace.overhead_resolved", "bool"),
];

/// The metrics and verdict of one run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Correctness-check failures (empty: the outputs were correct).
    pub failures: Vec<String>,
    /// Transactions attempted in the measured run.
    pub attempted: u64,
    /// Transactions that failed: a `Failed` status, or an abort for any
    /// reason other than being a deadlock victim.
    pub failed: u64,
}

impl Report {
    /// Records metric `name` (must be in one of the tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the contract"
        );
        self.values.insert(name, value);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Fails the run unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// The result line for `table`: `{"correct", "attempted", "failed",
    /// "metrics"}`. Panics if a metric of `table` is missing or not a
    /// finite number — a malformed result is a benchmark bug.
    pub fn finish(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let v = self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The unit of a contract metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
