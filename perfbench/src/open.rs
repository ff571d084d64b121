//! `point-open`: the repository's open-loop mix
//! (`dtx_bench::openloop::ClusterTarget`: one 16-item document per site,
//! 4 % single-operation local updates, 10 % neighbour reads, the rest
//! local reads) under Poisson arrivals at a fixed rate, every site a
//! coordinator. Latency is clocked from each arrival's scheduled instant,
//! so a stall charges every arrival queued behind it.

use crate::args::Args;
use crate::closed::Tally;
use crate::inproc::{self, Counters};
use crate::replay::{self, LiveCalls, ReplayInput, ReplayOp};
use crate::report::Report;
use crate::stats::{median, process_cpu, ratio};
use crate::traced;
use crate::SITES;
use crossbeam::channel::Receiver;
use dtx_bench::openloop::{schedule, Arrivals, ClusterTarget, LoadTarget};
use dtx_core::{Cluster, ClusterConfig, OpResult, OpSpec, ProtocolKind, TxnOutcome};
use dtx_xpath::{Query, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Offered rate (txn/s): about a third of the rate where this mix's
/// achieved throughput collapsed on the recording host.
pub const RATE: f64 = 20_000.0;

/// Percent of single-operation local updates (the harness default).
pub const UPDATE_PCT: u32 = 4;

/// Items per site document in `ClusterTarget`'s mix.
const ITEMS: u32 = 16;

/// Trace events per transaction the traced ring is sized for.
const EVENTS_PER_TXN: f64 = 4.0;

/// Boots the cluster with all cost models at zero.
pub fn boot(seed: u64, trace_ring: Option<usize>) -> Cluster {
    let mut config = ClusterConfig::new(SITES, ProtocolKind::Xdgl);
    config.seed = seed;
    if let Some(capacity) = trace_ring {
        config = config.with_tracing();
        config.trace_capacity = capacity;
    }
    let cluster = Cluster::start(config);
    cluster.metrics().set_retain_records(false);
    cluster
}

/// Checks one committed point transaction's results: a read returns the
/// single item it named, whose value is `v{k}` (loaded) or `w{k}`
/// (updated); an update changes exactly one value.
pub fn check_point(results: &[OpResult]) -> Result<(), String> {
    for r in results {
        match r {
            OpResult::Query { values } => match values.as_slice() {
                [v] if valid_item(v) => {}
                other => return Err(format!("point read returned {other:?}")),
            },
            OpResult::Update { affected: 1 } => {}
            OpResult::Update { affected } => {
                return Err(format!("point update changed {affected} values"))
            }
        }
    }
    Ok(())
}

/// An item's string value is its id followed by its value: `"{k}v{k}"`
/// or `"{k}w{k}"`, for `k` in `1..=16`.
fn valid_item(s: &str) -> bool {
    let digits = s.bytes().take_while(u8::is_ascii_digit).count();
    let Ok(k) = s[..digits].parse::<u32>() else {
        return false;
    };
    let rest = &s[digits..];
    (1..=ITEMS).contains(&k) && (rest == format!("v{k}") || rest == format!("w{k}"))
}

/// Result of one open-loop drive.
struct Drive {
    tally: Tally,
    bad: u64,
    first_bad: Option<String>,
}

/// Dispatches the arrivals of `sched` (ns offsets) to `target` as
/// sequence numbers `seq0..`, each at its scheduled instant or at once
/// when late, then drains every outcome. Stops dispatching early when
/// `stop()` turns true.
fn drive(
    target: &ClusterTarget<'_>,
    sched: &[u64],
    seq0: usize,
    stop: &(dyn Fn() -> bool + Sync),
) -> Drive {
    let workers = crate::driver_threads();
    let ncoord = target.coordinators();
    let ticks = crate::stats::host_ticks();
    let start = Instant::now();
    let parts: Vec<Drive> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut d = Drive {
                        tally: Tally::default(),
                        bad: 0,
                        first_bad: None,
                    };
                    let settle = |lag: Duration, mut out: TxnOutcome, d: &mut Drive| {
                        if out.committed() {
                            if let Err(e) = check_point(&out.results) {
                                d.bad += 1;
                                d.first_bad.get_or_insert(e);
                            }
                        }
                        // Scheduled-arrival clock: queueing at the driver
                        // counts against the transaction.
                        out.response_time += lag;
                        d.tally.lag_max = d.tally.lag_max.max(lag);
                        d.tally.settle(&out);
                    };
                    let mut pending: VecDeque<(Duration, Receiver<TxnOutcome>)> = VecDeque::new();
                    for i in (w..sched.len()).step_by(workers) {
                        if stop() {
                            break;
                        }
                        let due = start + Duration::from_nanos(sched[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let lag = Instant::now().saturating_duration_since(due);
                        let seq = seq0 + i;
                        pending.push_back((lag, target.submit(seq % ncoord, seq)));
                        while let Some((lag, rx)) = pending.front() {
                            match rx.try_recv() {
                                Ok(out) => {
                                    let lag = *lag;
                                    pending.pop_front();
                                    settle(lag, out, &mut d);
                                }
                                Err(_) => break,
                            }
                        }
                    }
                    for (lag, rx) in pending {
                        let out = rx
                            .recv_timeout(crate::closed::DRAIN_LIMIT)
                            .expect("the scheduler answers every transaction");
                        settle(lag, out, &mut d);
                    }
                    d
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver worker panicked"))
            .collect()
    });
    let mut total = Drive {
        tally: Tally::default(),
        bad: 0,
        first_bad: None,
    };
    for p in parts {
        total.tally.absorb(p.tally);
        total.bad += p.bad;
        if total.first_bad.is_none() {
            total.first_bad = p.first_bad;
        }
    }
    total.tally.wall = start.elapsed();
    total.tally.start = Some(start);
    total.tally.steal = crate::stats::steal_share(ticks, crate::stats::host_ticks());
    total
}

/// The arrival schedule of a run of `run` at [`RATE`].
pub fn arrivals(run: Duration, seed: u64) -> Vec<u64> {
    let n = (RATE * run.as_secs_f64()).ceil().max(1.0) as usize;
    schedule(RATE, n, Arrivals::Poisson, seed)
}

fn check(report: &mut Report, delta: &Counters, d: &Drive) {
    inproc::check_terminated(report, delta, &d.tally);
    report.check(d.bad == 0, || {
        format!(
            "{} point transactions returned wrong results, first: {}",
            d.bad,
            d.first_bad.clone().unwrap_or_default()
        )
    });
}

/// Runs `point-open`.
pub fn run(args: &Args) -> Report {
    if args.trace {
        layers(args)
    } else {
        end_to_end(args)
    }
}

fn end_to_end(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    for _ in 1..crate::xmark::SETUP_REPEATS {
        let t0 = Instant::now();
        let cluster = boot(args.seed, None);
        drop(ClusterTarget::new(&cluster, UPDATE_PCT, args.seed));
        setups.push(t0.elapsed().as_secs_f64());
        cluster.shutdown();
    }
    let t0 = Instant::now();
    let cluster = boot(args.seed, None);
    let target = ClusterTarget::new(&cluster, UPDATE_PCT, args.seed);
    setups.push(t0.elapsed().as_secs_f64());
    let sched = arrivals(args.seconds, args.seed);
    let before = Counters::read(&cluster);
    crate::ALLOC.reset_peak();
    let d = drive(&target, &sched, 0, &|| false);
    let peak = crate::ALLOC.peak();
    let delta = Counters::read(&cluster).since(&before);
    check(&mut report, &delta, &d);
    report.check(d.tally.attempted == sched.len() as u64, || {
        format!(
            "{} of {} arrivals terminated",
            d.tally.attempted,
            sched.len()
        )
    });
    inproc::record_end_to_end(&mut report, &d.tally, median(&setups), peak);
    drop(target);
    cluster.shutdown();
    report
}

fn layers(args: &Args) -> Report {
    let mut report = Report::default();
    let cluster = boot(args.seed, None);
    let target = ClusterTarget::new(&cluster, UPDATE_PCT, args.seed);
    let docs: Vec<String> = cluster
        .sites()
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            cluster
                .instance(s)
                .dump_document(&format!("ol{i}"))
                .expect("the loaded document dumps")
                .xml
        })
        .collect();
    let pairs = crate::xmark::TRACE_PAIRS;
    let (plain_slice, traced_slice) = crate::xmark::slices(args.seconds);
    let before = Counters::read(&cluster);
    let mut plain = Drive {
        tally: Tally::default(),
        bad: 0,
        first_bad: None,
    };
    let mut cpu = Duration::ZERO;
    let mut traced_run = Drive {
        tally: Tally::default(),
        bad: 0,
        first_bad: None,
    };
    let ring = traced::ring_capacity(
        RATE * (traced_slice * pairs as u32).as_secs_f64(),
        EVENTS_PER_TXN,
        SITES as usize,
    );
    let tcluster = boot(args.seed, Some(ring));
    let ttarget = ClusterTarget::new(&tcluster, UPDATE_PCT, args.seed);
    let traced_before = Counters::read(&tcluster);
    let tracer = tcluster.tracer().expect("traced cluster has a tracer");
    let mut ratios = Vec::new();
    let mut seq = 0usize;
    for p in 0..pairs {
        let plain_sched = arrivals(plain_slice, args.seed.wrapping_add(p as u64));
        let traced_sched = arrivals(traced_slice, args.seed.wrapping_add(p as u64));
        let cpu0 = process_cpu();
        let u = drive(&target, &plain_sched, seq, &|| false);
        cpu += process_cpu() - cpu0;
        let t = drive(&ttarget, &traced_sched, seq, &|| {
            traced::ring_nearly_full(&tracer, ring, SITES as usize)
        });
        seq += plain_sched.len();
        let rate = |d: &Drive| ratio(d.tally.attempted as f64, d.tally.wall.as_secs_f64());
        ratios.push(ratio(rate(&t), rate(&u)));
        for (acc, part) in [(&mut plain, u), (&mut traced_run, t)] {
            acc.tally.absorb(part.tally);
            acc.bad += part.bad;
            if acc.first_bad.is_none() {
                acc.first_bad = part.first_bad;
            }
        }
    }
    let delta = Counters::read(&cluster).since(&before);
    check(&mut report, &delta, &plain);
    inproc::record_counters(&mut report, &cluster, &delta, &plain.tally, cpu);
    drop(target);
    cluster.shutdown();

    let traced_delta = Counters::read(&tcluster).since(&traced_before);
    drop(ttarget);
    tcluster.shutdown();
    let figures = traced::analyse(&tracer.collect());
    let mut traced_report = Report::default();
    check(&mut traced_report, &traced_delta, &traced_run);
    for f in traced_report.failures {
        report.fail(format!("traced run: {f}"));
    }
    traced::record(&mut report, figures, traced_run.tally.attempted, &ratios);

    let costs = replay::replay(&ReplayInput {
        docs,
        ops: replay_ops(args.seed, crate::xmark::REPLAY_OPS),
        fan_out: false,
    });
    costs.record(&mut report);
    let per_commit = ratio(plain.tally.attempted as f64, plain.tally.committed as f64);
    let update_share = UPDATE_PCT as f64 / 100.0;
    let (appends, forces) = delta.wal();
    let calls = LiveCalls {
        evals: (1.0 - update_share) * per_commit,
        updates: update_share * per_commit,
        locked: update_share * per_commit,
        wal_appends: ratio(appends as f64, plain.tally.committed as f64),
        wal_forces: ratio(forces as f64, plain.tally.committed as f64),
        codec_msgs: 0.0,
    };
    let cpu_ms = report.get("process.cpu_ms_per_commit").unwrap_or(0.0);
    replay::residual(&mut report, &costs, &calls, cpu_ms);
    report.attempted = plain.tally.attempted + traced_run.tally.attempted;
    report.failed = plain.tally.failed + traced_run.tally.failed;
    report
}

/// Operations of the mix's shape for the replay (the harness keeps its
/// own pools private): point reads `/items/item[id=k]` and, at
/// [`UPDATE_PCT`], point updates of the item's value.
pub fn replay_ops(seed: u64, n: usize) -> Vec<ReplayOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u32)
        .map(|j| {
            let k = rng.gen_range(1..ITEMS + 1);
            let update = (j + 1) * UPDATE_PCT / 100 > j * UPDATE_PCT / 100;
            let op = if update {
                OpSpec::update(
                    "ol0",
                    UpdateOp::Change {
                        target: Query::parse(&format!("/items/item[id={k}]/val"))
                            .expect("point path parses"),
                        new_value: format!("w{k}"),
                    },
                )
            } else {
                OpSpec::query(
                    "ol0",
                    Query::parse(&format!("/items/item[id={k}]")).expect("point path parses"),
                )
            };
            ReplayOp {
                op,
                in_update_txn: update,
            }
        })
        .collect()
}
