//! The in-process closed-loop driver.
//!
//! The 16 clients are multiplexed over at most `nproc` driver threads:
//! each thread owns every `threads`-th client and keeps at most one
//! transaction of each in flight through `Cluster::submit_async`. A
//! client submits its next transaction as soon as the driver sees the
//! previous one terminate; client *i* coordinates at site *i mod sites*,
//! like the repository's XMark tester.

use crate::stats::result_digests;
use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use dtx_core::{Cluster, SiteId, TxnOutcome, TxnSpec, TxnStatus};
use std::time::{Duration, Instant};

/// How long a driver thread blocks on its oldest transaction when none of
/// its clients has an outcome ready.
const POLL: Duration = Duration::from_micros(500);

/// How long after the run a transaction may still be in flight before
/// the driver gives up (the scheduler's own timeouts abort a stuck
/// transaction well before this).
pub const DRAIN_LIMIT: Duration = Duration::from_secs(90);

/// Tallies of one driven interval.
#[derive(Debug, Default)]
pub struct Tally {
    /// Transactions submitted (each one terminated before the driver
    /// returned).
    pub attempted: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Deadlock-victim aborts.
    pub deadlocks: u64,
    /// `Failed` outcomes and aborts for reasons other than deadlock.
    pub failed: u64,
    /// Up to a few descriptions of failed outcomes.
    pub failure_samples: Vec<String>,
    /// Committed transactions as `(instant the driver saw the outcome,
    /// response time in ns)`.
    pub commits: Vec<(Instant, u64)>,
    /// When the driven interval started.
    pub start: Option<Instant>,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// interval (printed with the counts: it explains a slow run).
    pub steal: f64,
    /// Worst delay between a transaction's termination and the driver
    /// noticing it.
    pub lag_max: Duration,
    /// Wall time from the first submission to the last outcome.
    pub wall: Duration,
    /// Result digests of committed read-only transactions, as
    /// `(client, pool index, per-op digests)` (only when asked for).
    pub reads: Vec<(usize, usize, Vec<u64>)>,
}

impl Tally {
    /// Response times of the committed transactions (ns).
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.commits.iter().map(|&(_, ns)| ns).collect()
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.deadlocks += other.deadlocks;
        self.failed += other.failed;
        for s in other.failure_samples {
            if self.failure_samples.len() < 5 {
                self.failure_samples.push(s);
            }
        }
        self.commits.extend(other.commits);
        self.start = match (self.start, other.start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.lag_max = self.lag_max.max(other.lag_max);
        self.wall = self.wall.max(other.wall);
        self.reads.extend(other.reads);
    }

    /// Classifies one outcome.
    pub fn settle(&mut self, out: &TxnOutcome) {
        self.attempted += 1;
        match &out.status {
            TxnStatus::Committed => {
                self.committed += 1;
                self.commits
                    .push((Instant::now(), out.response_time.as_nanos() as u64));
            }
            _ if out.deadlocked() => self.deadlocks += 1,
            other => {
                self.failed += 1;
                if self.failure_samples.len() < 5 {
                    self.failure_samples
                        .push(format!("{:?}: {other:?}", out.txn));
                }
            }
        }
    }
}

/// What a closed-loop interval runs: per-client transaction pools and
/// each client's position in its pool (advanced across intervals; a
/// pool is cycled when exhausted).
pub struct Clients<'a> {
    /// `pools[i]` is client *i*'s transaction sequence.
    pub pools: &'a [Vec<TxnSpec>],
    /// Next pool index per client.
    pub cursors: Vec<usize>,
}

impl<'a> Clients<'a> {
    /// All clients at the start of their pools.
    pub fn new(pools: &'a [Vec<TxnSpec>]) -> Self {
        Clients {
            pools,
            cursors: vec![0; pools.len()],
        }
    }
}

struct Pending {
    idx: usize,
    sent: Instant,
    rx: Receiver<TxnOutcome>,
}

struct Slot {
    client: usize,
    cursor: usize,
    pending: Option<Pending>,
}

/// Drives `clients` against `cluster` for `run`: submits while the clock
/// is inside `run` and `stop()` is false, then drains every transaction
/// still in flight. With `keep_reads`, committed read-only transactions'
/// result digests are kept for the oracle.
pub fn drive(
    cluster: &Cluster,
    clients: &mut Clients<'_>,
    run: Duration,
    keep_reads: bool,
    stop: &(dyn Fn() -> bool + Sync),
) -> Tally {
    let sites = cluster.sites();
    let threads = crate::driver_threads();
    let pools = clients.pools;
    let ticks = crate::stats::host_ticks();
    let start = Instant::now();
    let deadline = start + run;
    let mut per_thread: Vec<Vec<Slot>> = (0..threads).map(|_| Vec::new()).collect();
    for (client, &cursor) in clients.cursors.iter().enumerate() {
        per_thread[client % threads].push(Slot {
            client,
            cursor,
            pending: None,
        });
    }
    let results: Vec<(Tally, Vec<Slot>)> = std::thread::scope(|s| {
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|mut slots| {
                let sites = &sites;
                s.spawn(move || {
                    let tally = client_loop(
                        cluster, sites, pools, &mut slots, deadline, keep_reads, stop,
                    );
                    (tally, slots)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let mut total = Tally::default();
    for (tally, slots) in results {
        total.absorb(tally);
        for slot in slots {
            clients.cursors[slot.client] = slot.cursor;
        }
    }
    total.wall = start.elapsed();
    total.start = Some(start);
    total.steal = crate::stats::steal_share(ticks, crate::stats::host_ticks());
    total
}

fn client_loop(
    cluster: &Cluster,
    sites: &[SiteId],
    pools: &[Vec<TxnSpec>],
    slots: &mut [Slot],
    deadline: Instant,
    keep_reads: bool,
    stop: &(dyn Fn() -> bool + Sync),
) -> Tally {
    let mut tally = Tally::default();
    let submit = |slot: &mut Slot| {
        let pool = &pools[slot.client];
        let idx = slot.cursor % pool.len();
        slot.cursor += 1;
        let site = sites[slot.client % sites.len()];
        let sent = Instant::now();
        let rx = cluster.submit_async(site, pool[idx].clone());
        slot.pending = Some(Pending { idx, sent, rx });
    };
    let settle = |slot: &mut Slot, out: TxnOutcome, tally: &mut Tally| {
        let p = slot.pending.take().expect("settled slot was pending");
        let lag = Instant::now().saturating_duration_since(p.sent + out.response_time);
        tally.lag_max = tally.lag_max.max(lag);
        tally.settle(&out);
        if keep_reads && out.committed() && pools[slot.client][p.idx].is_read_only() {
            tally
                .reads
                .push((slot.client, p.idx, result_digests(&out.results)));
        }
    };
    loop {
        let accepting = Instant::now() < deadline && !stop();
        if accepting {
            for slot in slots.iter_mut().filter(|s| s.pending.is_none()) {
                submit(slot);
            }
        }
        let mut progressed = false;
        let mut in_flight = false;
        for slot in slots.iter_mut() {
            let Some(p) = &slot.pending else { continue };
            match p.rx.try_recv() {
                Ok(out) => {
                    settle(slot, out, &mut tally);
                    progressed = true;
                }
                Err(TryRecvError::Empty) => in_flight = true,
                Err(TryRecvError::Disconnected) => panic!("scheduler dropped a transaction"),
            }
        }
        if !in_flight && !accepting {
            return tally;
        }
        assert!(
            Instant::now() < deadline + DRAIN_LIMIT,
            "transactions still in flight {DRAIN_LIMIT:?} after the run"
        );
        if !progressed && in_flight {
            // Block briefly on the oldest submission rather than spin.
            let oldest = slots
                .iter_mut()
                .filter(|s| s.pending.is_some())
                .min_by_key(|s| s.pending.as_ref().map(|p| p.sent))
                .expect("a transaction is in flight");
            let got = oldest.pending.as_ref().map(|p| p.rx.recv_timeout(POLL));
            match got {
                Some(Ok(out)) => settle(oldest, out, &mut tally),
                Some(Err(RecvTimeoutError::Timeout)) | None => {}
                Some(Err(RecvTimeoutError::Disconnected)) => {
                    panic!("scheduler dropped a transaction")
                }
            }
        }
    }
}
