//! Single-threaded replays of the layers a transaction passes through,
//! timed from outside by calling each layer's public functions on the
//! run's own inputs: the loaded documents and the workload's operations.
//!
//! Each layer is replayed only over the operations that reach it on the
//! live path: queries are evaluated; updates are applied and undone; lock
//! requests and lock-table grants are computed for the operations of
//! update transactions (read-only transactions take no locks); the WAL
//! sees one `Applied` append per update and one forced `Prepared` per
//! update transaction. The codec is replayed on every operation, shipped
//! as the `ExecRemote` message a coordinator sends a participant.

use crate::report::Report;
use crate::stats::ratio;
use crate::timed;
use dtx_core::{Message, OpKind, OpSpec, SiteId, TxnId};
use dtx_dataguide::DataGuide;
use dtx_locks::{LockProtocol, LockTable, TxnMode, Xdgl};
use dtx_net::wire::WireCodec;
use dtx_storage::{Wal, WalRecord};
use dtx_xml::Document;
use dtx_xpath::{apply_update, eval, undo_update};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum time each layer's replay loop runs (it repeats its inputs
/// until then, so short layers are timed over many calls).
const MIN_REPLAY: Duration = Duration::from_millis(150);

/// One operation of the replay sample.
#[derive(Debug, Clone)]
pub struct ReplayOp {
    /// The operation.
    pub op: OpSpec,
    /// Whether its transaction contains updates (so it takes locks).
    pub in_update_txn: bool,
}

/// The replay's inputs.
pub struct ReplayInput {
    /// The loaded documents (XML text), one per fragment or site.
    pub docs: Vec<String>,
    /// The sampled operations.
    pub ops: Vec<ReplayOp>,
    /// Whether every operation runs on every document (a fragmented
    /// logical document) or on the first only (one document per site,
    /// all alike).
    pub fan_out: bool,
}

/// Replayed per-call costs.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCosts {
    /// XPath evaluation plus string values, per (query, document).
    pub eval_us: f64,
    /// `apply_update` then `undo_update`, per (update, document).
    pub update_us: f64,
    /// XDGL lock-request computation, per (locked op, document).
    pub request_us: f64,
    /// Lock-table acquire of those requests then `release_all`, per
    /// (locked op, document).
    pub table_us: f64,
    /// One unforced WAL append.
    pub wal_append_us: f64,
    /// One forced WAL write.
    pub wal_force_us: f64,
    /// `ExecRemote` encode, per message.
    pub encode_ns: f64,
    /// `ExecRemote` decode, per message.
    pub decode_ns: f64,
    /// Encoded `ExecRemote` size.
    pub bytes_per_msg: f64,
    /// Parsing every document (ms, median of three).
    pub parse_ms: f64,
    /// Building every document's DataGuide (ms, median of three).
    pub build_ms: f64,
}

/// Repeats `pass` (which returns how many calls it made) until
/// [`MIN_REPLAY`] elapsed; returns the mean time per call. Zero calls
/// per pass (a layer this workload does not reach) reads 0.
fn per_call(mut pass: impl FnMut() -> usize) -> Duration {
    let (mut calls, t0) = (0usize, Instant::now());
    loop {
        let n = pass();
        if n == 0 {
            return Duration::ZERO;
        }
        calls += n;
        if t0.elapsed() >= MIN_REPLAY {
            return t0.elapsed() / calls as u32;
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of three timings of `f` (ms).
fn median3_ms(mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..3).map(|_| dtx_bench::ms(timed(&mut f).1)).collect();
    t.sort_by(f64::total_cmp);
    t[1]
}

/// Runs every replay over `input`.
pub fn replay(input: &ReplayInput) -> LayerCosts {
    let parse_ms = median3_ms(|| {
        for xml in &input.docs {
            black_box(dtx_xml::parse(xml).expect("loaded document parses"));
        }
    });
    let docs: Vec<Document> = input
        .docs
        .iter()
        .map(|x| dtx_xml::parse(x).expect("loaded document parses"))
        .collect();
    let build_ms = median3_ms(|| {
        for d in &docs {
            black_box(DataGuide::build(d));
        }
    });
    let guides: Vec<DataGuide> = docs.iter().map(DataGuide::build).collect();
    let targets = if input.fan_out { docs.len() } else { 1 };
    let queries: Vec<&dtx_xpath::Query> = input
        .ops
        .iter()
        .filter_map(|o| match &o.op.kind {
            OpKind::Query(q) => Some(q),
            OpKind::Update(_) => None,
        })
        .collect();
    let updates: Vec<&dtx_xpath::UpdateOp> = input
        .ops
        .iter()
        .filter_map(|o| match &o.op.kind {
            OpKind::Update(u) => Some(u),
            OpKind::Query(_) => None,
        })
        .collect();
    let locked: Vec<&OpSpec> = input
        .ops
        .iter()
        .filter(|o| o.in_update_txn)
        .map(|o| &o.op)
        .collect();

    let eval_us = us(per_call(|| {
        for q in &queries {
            for d in &docs[..targets] {
                let values: Vec<String> = eval(d, q)
                    .into_iter()
                    .map(|n| dtx_xpath::eval::string_value(d, n))
                    .collect();
                black_box(values);
            }
        }
        queries.len() * targets
    }));

    let mut work: Vec<Document> = docs[..targets].to_vec();
    let update_us = us(per_call(|| {
        for u in &updates {
            for d in work.iter_mut() {
                if let Ok(undo) = apply_update(d, u) {
                    undo_update(d, &undo).expect("undo of a fresh update succeeds");
                }
            }
        }
        updates.len() * targets
    }));

    // Lock requests: computed on a clone of each guide (update requests
    // may extend it, as they do on the live path).
    let xdgl = Xdgl;
    let mut scratch: Vec<DataGuide> = guides[..targets].to_vec();
    let requests_of = |g: &mut DataGuide, op: &OpSpec| match &op.kind {
        OpKind::Query(q) => xdgl.query_requests(g, q, TxnMode::Updating),
        OpKind::Update(u) => xdgl.update_requests(g, u, TxnMode::Updating),
    };
    let request_us = us(per_call(|| {
        for op in &locked {
            for g in scratch.iter_mut() {
                black_box(requests_of(g, op));
            }
        }
        locked.len() * targets
    }));
    let request_sets: Vec<Vec<dtx_locks::LockRequest>> = locked
        .iter()
        .flat_map(|op| {
            guides[..targets]
                .iter()
                .map(|g| requests_of(&mut g.clone(), op))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut table = LockTable::new();
    let mut next_txn = 1u64;
    let table_us = us(per_call(|| {
        for reqs in &request_sets {
            let txn = TxnId(next_txn);
            next_txn += 1;
            for r in reqs {
                black_box(table.try_acquire(txn, r.node, r.mode));
            }
            black_box(table.release_all(txn));
        }
        request_sets.len()
    }));

    let applied: Vec<WalRecord> = updates
        .iter()
        .enumerate()
        .map(|(i, u)| WalRecord::Applied {
            txn: TxnId(i as u64 + 1),
            doc: "doc".into(),
            op_seq: i % 5,
            op: (*u).clone(),
        })
        .collect();
    let wal_append_us = us(per_call(|| {
        let wal = Wal::new();
        for r in &applied {
            wal.append(r.clone());
        }
        applied.len()
    }));
    let participants: Vec<SiteId> = (0..crate::SITES).map(SiteId).collect();
    let wal_force_us = us(per_call(|| {
        let wal = Wal::new();
        for i in 0..updates.len() {
            wal.force(WalRecord::Prepared {
                txn: TxnId(i as u64 + 1),
                coordinator: SiteId(0),
                participants: participants.clone(),
            });
        }
        updates.len()
    }));

    let messages: Vec<Message> = input
        .ops
        .iter()
        .enumerate()
        .map(|(i, o)| Message::ExecRemote {
            txn: TxnId(i as u64 + 1),
            coordinator: SiteId(0),
            op_seq: i % 5,
            op: o.op.clone(),
            corr: i as u64,
            update_txn: o.in_update_txn,
            doc_version: 1,
            fragment: input.fan_out,
        })
        .collect();
    let encoded: Vec<Vec<u8>> = messages.iter().map(|m| m.encode()).collect();
    let bytes_per_msg = ratio(
        encoded.iter().map(Vec::len).sum::<usize>() as f64,
        encoded.len() as f64,
    );
    let encode_ns = per_call(|| {
        for m in &messages {
            black_box(m.encode());
        }
        messages.len()
    })
    .as_nanos() as f64;
    let decode_ns = per_call(|| {
        for b in &encoded {
            black_box(Message::decode(b).expect("encoded message decodes"));
        }
        encoded.len()
    })
    .as_nanos() as f64;

    LayerCosts {
        eval_us,
        update_us,
        request_us,
        table_us,
        wal_append_us,
        wal_force_us,
        encode_ns,
        decode_ns,
        bytes_per_msg,
        parse_ms,
        build_ms,
    }
}

/// How often each replayed layer is called per committed transaction on
/// the live path (see [`residual`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct LiveCalls {
    /// (query, document) evaluations.
    pub evals: f64,
    /// (update, document) applications.
    pub updates: f64,
    /// (locked op, document) lock computations and acquisitions.
    pub locked: f64,
    /// WAL appends.
    pub wal_appends: f64,
    /// WAL forces.
    pub wal_forces: f64,
    /// Messages encoded and decoded by the wire codec.
    pub codec_msgs: f64,
}

impl LayerCosts {
    /// Replayed layer time per committed transaction (ms).
    pub fn ms_per_commit(&self, calls: &LiveCalls) -> f64 {
        let us = self.eval_us * calls.evals
            + self.update_us * calls.updates
            + (self.request_us + self.table_us) * calls.locked
            + self.wal_append_us * calls.wal_appends
            + self.wal_force_us * calls.wal_forces
            + (self.encode_ns + self.decode_ns) / 1e3 * calls.codec_msgs;
        us / 1e3
    }

    /// Records the replay metrics.
    pub fn record(&self, report: &mut Report) {
        report.set("xpath.eval_us_per_op", self.eval_us);
        report.set("xpath.update_us_per_op", self.update_us);
        report.set("locks.request_us_per_op", self.request_us);
        report.set("locks.table_us_per_op", self.table_us);
        report.set("storage.wal_append_us", self.wal_append_us);
        report.set("storage.wal_force_us", self.wal_force_us);
        report.set("wire.encode_ns_per_msg", self.encode_ns);
        report.set("wire.decode_ns_per_msg", self.decode_ns);
        report.set("wire.bytes_per_msg", self.bytes_per_msg);
        report.set("xml.parse_ms", self.parse_ms);
        report.set("dataguide.build_ms", self.build_ms);
    }
}

/// `residual_share`: the part of the process CPU time per commit that the
/// replayed layers do not explain, `1 − layers ÷ cpu`.
pub fn residual(
    report: &mut Report,
    costs: &LayerCosts,
    calls: &LiveCalls,
    cpu_ms_per_commit: f64,
) {
    let share = 1.0 - ratio(costs.ms_per_commit(calls), cpu_ms_per_commit);
    report.set("residual_share", share);
}

/// The replay sample of a set of per-client pools: whole transactions
/// taken round-robin over clients, in pool order, until at least
/// `max_ops` operations.
pub fn sample(pools: &[Vec<dtx_core::TxnSpec>], max_ops: usize) -> Vec<ReplayOp> {
    let mut out = Vec::new();
    let depth = pools.iter().map(Vec::len).max().unwrap_or(0);
    'outer: for i in 0..depth {
        for pool in pools {
            if let Some(t) = pool.get(i) {
                let update = !t.is_read_only();
                out.extend(t.ops.iter().map(|op| ReplayOp {
                    op: op.clone(),
                    in_update_txn: update,
                }));
                if out.len() >= max_ops {
                    break 'outer;
                }
            }
        }
    }
    out
}
