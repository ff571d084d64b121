//! `xmark-read` and `xmark-write`: the paper's XMark base fragmented
//! over four sites (partial replication), 16 closed-loop clients running
//! 5×5-operation transactions, in one process.

use crate::args::Args;
use crate::closed::{self, Clients, Tally};
use crate::inproc::{self, Counters};
use crate::oracle::Oracle;
use crate::replay::{self, LiveCalls, ReplayInput};
use crate::report::Report;
use crate::stats::{median, process_cpu, ratio};
use crate::traced;
use crate::{timed, CLIENTS, SITES};
use dtx_core::{Cluster, ClusterConfig, ProtocolKind, TxnSpec};
use dtx_xmark::fragment::{allocate, fragment_doc, load_allocation, Fragmented, ReplicationMode};
use dtx_xmark::generator::{generate, XmarkConfig};
use dtx_xmark::workload::{generate as gen_workload, WorkloadConfig, DEFAULT_LOCALITY};
use std::time::Duration;

/// Transactions generated per client; a client that runs through its
/// pool starts it again.
pub const POOL_TXNS: usize = 128;

/// Set-ups timed per end-to-end run (`setup_s` is their median).
pub const SETUP_REPEATS: usize = 9;

/// Untraced/traced slice pairs of a `--trace 1` run. Each pair gives
/// two thirds of its time to the untraced slice (the counters) and one
/// third to the traced slice, whose rings grow with its length.
pub const TRACE_PAIRS: usize = 3;

/// The untraced and traced slice lengths of a `--trace 1` run.
pub fn slices(run: Duration) -> (Duration, Duration) {
    let unit = run / (3 * TRACE_PAIRS) as u32;
    (unit * 2, unit)
}

/// Operations in the replay sample.
pub const REPLAY_OPS: usize = 1_000;

/// Trace events per transaction the traced ring is sized for (a little
/// above the measured `trace.events_per_txn`).
const EVENTS_PER_TXN_READ: f64 = 90.0;
const EVENTS_PER_TXN_WRITE: f64 = 720.0;

/// The client mix: 5×5-operation transactions, `update_txn_pct` percent
/// of them with 20 % update operations.
pub fn mix(update_txn_pct: u32, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        clients: CLIENTS,
        txns_per_client: POOL_TXNS,
        ops_per_txn: 5,
        update_txn_pct,
        update_op_pct: if update_txn_pct > 0 { 20 } else { 0 },
        seed,
        locality: DEFAULT_LOCALITY,
    }
}

/// Generates the XMark base of `seed` and splits it over the sites.
pub fn base(seed: u64) -> (dtx_xmark::generator::XmarkDoc, Fragmented) {
    let doc = generate(XmarkConfig::sized(dtx_bench::BASE_BYTES, seed));
    let frags = fragment_doc(&doc, SITES as usize);
    (doc, frags)
}

/// Set-up: base generation, cluster boot with all cost models at zero,
/// and load. `trace_ring` arms the tracer with that per-site capacity.
pub fn boot(seed: u64, trace_ring: Option<usize>) -> (Cluster, Fragmented) {
    let (doc, frags) = base(seed);
    let mut config = ClusterConfig::new(SITES, ProtocolKind::Xdgl);
    config.seed = seed;
    if let Some(capacity) = trace_ring {
        config = config.with_tracing();
        config.trace_capacity = capacity;
    }
    let cluster = Cluster::start(config);
    let alloc = allocate(&doc, &frags, SITES, ReplicationMode::Partial);
    load_allocation(&cluster, &alloc).expect("the XMark base loads");
    // Counters and histograms only: a long run must not grow a record
    // vector.
    cluster.metrics().set_retain_records(false);
    (cluster, frags)
}

/// The per-client transaction pools of `cfg` over `frags`.
pub fn pools(cfg: WorkloadConfig, frags: &Fragmented) -> Vec<Vec<TxnSpec>> {
    gen_workload(cfg, frags).clients
}

/// Runs `xmark-read` (`update_txn_pct` 0) or `xmark-write` (60).
pub fn run(args: &Args, update_txn_pct: u32) -> Report {
    if args.trace {
        layers(args, update_txn_pct)
    } else {
        end_to_end(args, update_txn_pct)
    }
}

fn end_to_end(args: &Args, update_txn_pct: u32) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut kept: Option<(Cluster, Fragmented)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((cluster, _)) = kept.take() {
            cluster.shutdown();
        }
        let (booted, took) = timed(|| boot(args.seed, None));
        setups.push(took.as_secs_f64());
        kept = Some(booted);
    }
    let (cluster, frags) = kept.expect("at least one set-up");
    let pools = pools(mix(update_txn_pct, args.seed), &frags);
    let read_only = update_txn_pct == 0;
    let mut clients = Clients::new(&pools);
    let before = Counters::read(&cluster);
    crate::ALLOC.reset_peak();
    let tally = closed::drive(&cluster, &mut clients, args.seconds, read_only, &|| false);
    let peak = crate::ALLOC.peak();
    let delta = Counters::read(&cluster).since(&before);
    check(&mut report, &delta, &tally, read_only, &frags, &pools);
    inproc::record_end_to_end(&mut report, &tally, median(&setups), peak);
    cluster.shutdown();
    report
}

/// The checks of one measured interval.
fn check(
    report: &mut Report,
    delta: &Counters,
    tally: &Tally,
    read_only: bool,
    frags: &Fragmented,
    pools: &[Vec<TxnSpec>],
) {
    inproc::check_terminated(report, delta, tally);
    if !read_only {
        return;
    }
    report.check(tally.committed == tally.attempted, || {
        format!(
            "{} of {} read-only transactions did not commit",
            tally.attempted - tally.committed,
            tally.attempted
        )
    });
    let ops: u64 = tally.reads.iter().map(|(_, _, d)| d.len() as u64).sum();
    report.check(delta.snapshot_reads() == ops * SITES as u64, || {
        format!(
            "{} snapshot reads for {ops} read operations over {SITES} fragments",
            delta.snapshot_reads()
        )
    });
    let mut oracle = Oracle::new(frags.fragments.iter().map(|f| f.xml.as_str()))
        .expect("loaded fragments parse");
    let mut wrong = 0usize;
    for (client, idx, digests) in &tally.reads {
        if let Err(e) = oracle.verify(&pools[*client][*idx], digests) {
            if wrong == 0 {
                report.fail(format!("client {client} transaction {idx}: {e}"));
            }
            wrong += 1;
        }
    }
    report.check(wrong <= 1, || {
        format!("{wrong} read-only transactions disagree with the oracle")
    });
}

fn throughput(t: &Tally) -> f64 {
    ratio(t.committed as f64, t.wall.as_secs_f64())
}

fn layers(args: &Args, update_txn_pct: u32) -> Report {
    let mut report = Report::default();
    let read_only = update_txn_pct == 0;
    let (cluster, frags) = boot(args.seed, None);
    let pools = pools(mix(update_txn_pct, args.seed), &frags);
    let mut plain_clients = Clients::new(&pools);
    let mut traced_clients = Clients::new(&pools);
    let (plain_slice, traced_slice) = slices(args.seconds);
    let events_per_txn = if read_only {
        EVENTS_PER_TXN_READ
    } else {
        EVENTS_PER_TXN_WRITE
    };
    let before = Counters::read(&cluster);
    let mut plain = Tally::default();
    let mut cpu = Duration::ZERO;
    let mut traced_run = Tally::default();
    let mut traced_cluster: Option<(Cluster, usize, Counters)> = None;
    let mut ratios = Vec::new();
    for _ in 0..TRACE_PAIRS {
        let cpu0 = process_cpu();
        let p = closed::drive(
            &cluster,
            &mut plain_clients,
            plain_slice,
            read_only,
            &|| false,
        );
        cpu += process_cpu() - cpu0;
        let (tcluster, ring, _) = traced_cluster.get_or_insert_with(|| {
            // The ring scales with the traced run's expected length.
            let expected = throughput(&p) * (traced_slice * TRACE_PAIRS as u32).as_secs_f64();
            let ring = traced::ring_capacity(expected, events_per_txn, SITES as usize);
            let tcluster = boot(args.seed, Some(ring)).0;
            let counters = Counters::read(&tcluster);
            (tcluster, ring, counters)
        });
        let tracer = tcluster.tracer().expect("traced cluster has a tracer");
        let ring = *ring;
        let t = closed::drive(
            tcluster,
            &mut traced_clients,
            traced_slice,
            read_only,
            &|| traced::ring_nearly_full(&tracer, ring, SITES as usize),
        );
        ratios.push(ratio(throughput(&t), throughput(&p)));
        plain.absorb(p);
        traced_run.absorb(t);
    }
    let delta = Counters::read(&cluster).since(&before);
    check(&mut report, &delta, &plain, read_only, &frags, &pools);
    inproc::record_counters(&mut report, &cluster, &delta, &plain, cpu);
    cluster.shutdown();

    let (tcluster, _, traced_before) = traced_cluster.expect("the traced cluster ran");
    let tracer = tcluster.tracer().expect("traced cluster has a tracer");
    let traced_delta = Counters::read(&tcluster).since(&traced_before);
    tcluster.shutdown();
    let figures = traced::analyse(&tracer.collect());
    let mut traced_report = Report::default();
    check(
        &mut traced_report,
        &traced_delta,
        &traced_run,
        read_only,
        &frags,
        &pools,
    );
    for f in traced_report.failures {
        report.fail(format!("traced run: {f}"));
    }
    traced::record(&mut report, figures, traced_run.attempted, &ratios);

    let costs = replay::replay(&ReplayInput {
        docs: frags.fragments.iter().map(|f| f.xml.clone()).collect(),
        ops: replay::sample(&pools, REPLAY_OPS),
        fan_out: true,
    });
    costs.record(&mut report);
    let calls = live_calls(&pools, &plain, &delta);
    let cpu_ms = report.get("process.cpu_ms_per_commit").unwrap_or(0.0);
    replay::residual(&mut report, &costs, &calls, cpu_ms);
    report.attempted = plain.attempted + traced_run.attempted;
    report.failed = plain.failed + traced_run.failed;
    report
}

/// Live calls per commit into each replayed layer, from the pools' mean
/// mix scaled to the transactions attempted, and the WAL counters.
pub fn live_calls(pools: &[Vec<TxnSpec>], tally: &Tally, delta: &Counters) -> LiveCalls {
    let txns: Vec<&TxnSpec> = pools.iter().flatten().collect();
    let n = txns.len().max(1) as f64;
    let count = |f: &dyn Fn(&TxnSpec) -> usize| txns.iter().map(|t| f(t)).sum::<usize>() as f64 / n;
    let queries = count(&|t| t.ops.iter().filter(|o| !o.is_update()).count());
    let updates = count(&|t| t.ops.iter().filter(|o| o.is_update()).count());
    let locked = count(&|t| if t.is_read_only() { 0 } else { t.ops.len() });
    let per_commit = ratio(tally.attempted as f64, tally.committed as f64) * SITES as f64;
    let (appends, forces) = delta.wal();
    LiveCalls {
        evals: queries * per_commit,
        updates: updates * per_commit,
        locked: locked * per_commit,
        wal_appends: ratio(appends as f64, tally.committed as f64),
        wal_forces: ratio(forces as f64, tally.committed as f64),
        codec_msgs: 0.0,
    }
}
