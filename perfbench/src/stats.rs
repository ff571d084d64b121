//! Small measurement helpers: exact percentiles, process CPU time and an
//! order-independent digest of query results.

use dtx_core::OpResult;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nanoseconds to milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, 0 when `den` is 0 (a layer the workload never reached).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout the
    // call expects (two 64-bit fields on the 64-bit Linux targets this
    // benchmark builds for); the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Cumulative `(steal, total)` CPU ticks of the host from `/proc/stat`
/// (zeros where unavailable). Steal is time the hypervisor ran someone
/// else while this machine's CPUs wanted to run.
pub fn host_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of host CPU time stolen between two [`host_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    ratio(
        after.0.saturating_sub(before.0) as f64,
        after.1.saturating_sub(before.1) as f64,
    )
}

fn hash_str(s: &str) -> u64 {
    // `DefaultHasher::new` uses fixed keys: the digest repeats across
    // processes, which the oracle relies on.
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Order-independent digest of a multiset of strings: the wrapping sum
/// of their hashes, mixed with the count.
pub fn multiset_digest<'a>(values: impl IntoIterator<Item = &'a str>) -> u64 {
    let (mut sum, mut n) = (0u64, 0u64);
    for v in values {
        sum = sum.wrapping_add(hash_str(v));
        n += 1;
    }
    sum ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One digest per operation result: the value multiset of a query, the
/// affected count of an update.
pub fn result_digests(results: &[OpResult]) -> Vec<u64> {
    results
        .iter()
        .map(|r| match r {
            OpResult::Query { values } => multiset_digest(values.iter().map(String::as_str)),
            OpResult::Update { affected } => *affected as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut [], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = multiset_digest(["x", "y", "y"]);
        assert_eq!(a, multiset_digest(["y", "x", "y"]));
        assert_ne!(a, multiset_digest(["x", "y"]));
        assert_ne!(a, multiset_digest(["x", "y", "z"]));
    }

    #[test]
    fn cpu_clock_advances() {
        let t0 = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > t0);
    }
}
