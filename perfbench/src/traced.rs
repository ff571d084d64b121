//! Per-layer figures read off a collected trace, and the traced-run
//! overhead statistic.

use crate::report::Report;
use crate::stats::{ns_to_ms, percentile, ratio};
use dtx_trace::check::check;
use dtx_trace::{EventKind, Trace, Tracer};
use std::collections::HashMap;

/// Smallest and largest per-site trace ring the benchmark allocates.
const RING_MIN: usize = 1 << 12;
const RING_MAX: usize = 1 << 20;

/// Per-site ring capacity for a traced run expected to attempt
/// `txns` transactions of about `events_per_txn` events each across
/// `sites` sites, with a quarter of headroom (rounded up to a power of
/// two): the ring scales with the run's length.
pub fn ring_capacity(txns: f64, events_per_txn: f64, sites: usize) -> usize {
    let per_site = (txns * events_per_txn * 1.25 / sites.max(1) as f64).ceil() as usize;
    per_site.clamp(RING_MIN, RING_MAX).next_power_of_two()
}

/// True once `tracer` holds four fifths of its total capacity: the
/// traced run stops submitting there, so a run busier than expected
/// ends early instead of dropping events.
pub fn ring_nearly_full(tracer: &Tracer, capacity_per_site: usize, sites: usize) -> bool {
    tracer.len() * 5 >= capacity_per_site * sites * 4
}

/// Waiting, transit and prepare-phase samples of one trace.
#[derive(Debug, Default)]
pub struct TraceFigures {
    /// Events collected.
    pub events: usize,
    /// Events lost to full rings.
    pub dropped: u64,
    /// Protocol-law violations found by `trace::check`.
    pub violations: usize,
    /// Whether the checker certified the trace (complete, no violation).
    pub certified: bool,
    /// First violations, for the failure message.
    pub violation_samples: Vec<String>,
    /// `LockWait` → next `LockGrant` of the same transaction, node and
    /// site (ns).
    pub lock_waits_ns: Vec<u64>,
    /// `MsgSend` → `MsgDeliver` of the same message (ns).
    pub transit_ns: Vec<u64>,
    /// Time a coordinator spent in `AwaitingPrepareAcks` (ns).
    pub prepare_ns: Vec<u64>,
}

/// Certifies `trace` and extracts its per-layer samples.
pub fn analyse(trace: &Trace) -> TraceFigures {
    let verdict = check(trace);
    let mut f = TraceFigures {
        events: trace.events.len(),
        dropped: trace.dropped,
        violations: verdict.violations.len(),
        certified: verdict.ok() && trace.dropped == 0,
        violation_samples: verdict
            .violations
            .iter()
            .take(3)
            .map(|v| format!("[{}] site {}: {}", v.law, v.site, v.detail))
            .collect(),
        ..TraceFigures::default()
    };
    let mut waiting: HashMap<(u16, u64, u32), u64> = HashMap::new();
    let mut sent: HashMap<u64, u64> = HashMap::new();
    let mut preparing: HashMap<(u16, u64), u64> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            EventKind::LockWait { txn, node, .. } => {
                // Retries re-report the wait; the first one starts it. A
                // victim's wait is never granted and never counted.
                waiting.entry((e.site, txn, node)).or_insert(e.ts_ns);
            }
            EventKind::LockGrant { txn, node, .. } => {
                if let Some(t0) = waiting.remove(&(e.site, txn, node)) {
                    f.lock_waits_ns.push(e.ts_ns.saturating_sub(t0));
                }
            }
            EventKind::MsgSend { msg, .. } => {
                sent.insert(msg, e.ts_ns);
            }
            EventKind::MsgDeliver { msg, .. } => {
                if let Some(t0) = sent.remove(&msg) {
                    f.transit_ns.push(e.ts_ns.saturating_sub(t0));
                }
            }
            EventKind::PhaseEnter { txn, phase } => {
                if let Some(t0) = preparing.remove(&(e.site, txn)) {
                    f.prepare_ns.push(e.ts_ns.saturating_sub(t0));
                }
                if phase == "AwaitingPrepareAcks" {
                    preparing.insert((e.site, txn), e.ts_ns);
                }
            }
            _ => {}
        }
    }
    f
}

/// Median, spread (max − min) and resolution of per-pair traced ÷
/// untraced throughput ratios. The overhead is resolved only when the
/// spread is smaller than the effect `|1 − median|`.
pub fn overhead(ratios: &[f64]) -> (f64, f64, bool) {
    let med = crate::stats::median(ratios);
    let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let spread = if ratios.is_empty() { 0.0 } else { hi - lo };
    (med, spread, spread < (1.0 - med).abs())
}

/// Records the traced run's metrics and its certification checks.
/// `attempted` is the traced run's transaction count; `ratios` the
/// per-pair throughput ratios.
pub fn record(report: &mut Report, mut f: TraceFigures, attempted: u64, ratios: &[f64]) {
    report.check(f.dropped == 0, || {
        format!("the traced run dropped {} events", f.dropped)
    });
    report.check(f.violations == 0, || {
        format!(
            "the traced run violates protocol laws: {}",
            f.violation_samples.join("; ")
        )
    });
    report.check(f.certified, || {
        "trace::check did not certify the traced run".into()
    });
    report.check(attempted > 0, || "the traced run attempted nothing".into());
    report.set(
        "locks.wait_ms_p50",
        ns_to_ms(percentile(&mut f.lock_waits_ns, 0.50)),
    );
    report.set(
        "locks.wait_ms_p99",
        ns_to_ms(percentile(&mut f.lock_waits_ns, 0.99)),
    );
    report.set(
        "net.transit_us_p50",
        percentile(&mut f.transit_ns, 0.50) as f64 / 1e3,
    );
    report.set(
        "net.transit_us_p99",
        percentile(&mut f.transit_ns, 0.99) as f64 / 1e3,
    );
    report.set(
        "scheduler.prepare_ms_p50",
        ns_to_ms(percentile(&mut f.prepare_ns, 0.50)),
    );
    report.set(
        "trace.events_per_txn",
        ratio(f.events as f64, attempted as f64),
    );
    report.set("trace.dropped", f.dropped as f64);
    report.set("trace.violations", f.violations as f64);
    let (med, spread, resolved) = overhead(ratios);
    report.set("trace.overhead", med);
    report.set("trace.overhead_spread", spread);
    report.set("trace.overhead_resolved", resolved as u8 as f64);
}

/// The traced-run metrics of a workload that has no traced run
/// (`xmark-tcp`: process-mode hosts cannot be traced yet). They read 0.
pub fn record_absent(report: &mut Report) {
    for name in [
        "locks.wait_ms_p50",
        "locks.wait_ms_p99",
        "net.transit_us_p50",
        "net.transit_us_p99",
        "scheduler.prepare_ms_p50",
        "trace.events_per_txn",
        "trace.dropped",
        "trace.violations",
        "trace.overhead",
        "trace.overhead_spread",
        "trace.overhead_resolved",
    ] {
        report.set(name, 0.0);
    }
}
