//! `xmark-tcp`: the xmark mix at 20 % update transactions (the paper's
//! Fig. 12 mix) over real localhost TCP. Two `SiteHost` nodes, each
//! hosting two of the four sites, run inside the benchmark process with
//! every cost model at zero (the `dtx-site` binary hard-wires the
//! sleeping models); one `CtrlClient` drives them over its two
//! connections. It keeps process mode's 250 ms deadlock-detector period.
//! This is the only workload whose messages go through the `WIRE.md`
//! codec and the socket transport.

use crate::args::Args;
use crate::closed::Tally;
use crate::replay::{self, ReplayInput};
use crate::report::Report;
use crate::stats::{median, process_cpu, ratio};
use crate::{timed, traced, xmark, SITES};
use dtx_bench::ms;
use dtx_core::wire::CtrlMsg;
use dtx_core::{
    CtrlClient, Histogram, OpCostModel, SiteHost, SiteHostConfig, SiteId, TxnOutcome, TxnSpec,
};
use dtx_storage::CostModel;
use dtx_xmark::fragment::{Fragmented, LOGICAL_DOC};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Update-transaction share of the mix (paper Fig. 12).
pub const UPDATE_TXN_PCT: u32 = 20;

/// Longest wait for any control-plane reply before the run is declared
/// wedged.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Gap between the clients' first submissions (the repository's wire
/// driver ramps clients in the same way).
const RAMP: Duration = Duration::from_micros(500);

/// Two site hosts and the driver's control client.
pub struct TcpCluster {
    hosts: Vec<SiteHost>,
    client: CtrlClient,
}

impl TcpCluster {
    /// Stops the driver transport and both hosts.
    pub fn shutdown(self) {
        self.client.shutdown();
        for h in self.hosts {
            h.shutdown();
        }
    }

    /// Summed `(bytes_out, frames_out)` of the hosts' socket transports.
    fn wire_out(&self) -> (u64, u64) {
        self.hosts.iter().fold((0, 0), |(b, f), h| {
            let (bo, _, fo, _) = h.wire_stats();
            (b + bo, f + fo)
        })
    }
}

fn await_reply<T>(
    client: &CtrlClient,
    mut want: impl FnMut(CtrlMsg) -> Option<T>,
) -> Result<T, String> {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        match client.recv(left) {
            Some((_, msg)) => {
                if let Some(v) = want(msg) {
                    return Ok(v);
                }
            }
            None => break,
        }
    }
    Err("timed out waiting for a control reply".into())
}

/// Set-up: base generation, two hosts booted and meshed, fragments
/// loaded and the placement registered, all through the control plane.
pub fn boot(seed: u64) -> Result<(TcpCluster, Fragmented), String> {
    let (_, frags) = xmark::base(seed);
    let per_host = SITES / 2;
    let hosts = (0..2)
        .map(|n| {
            let hosted: Vec<SiteId> = (n * per_host..(n + 1) * per_host).map(SiteId).collect();
            let mut config = SiteHostConfig::new(&hosted, SITES);
            config.op_cost = OpCostModel::zero();
            config.storage_cost = CostModel::zero();
            config.seed = seed;
            SiteHost::start(config)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let client = CtrlClient::bind()?;
    let cluster = TcpCluster { hosts, client };
    let client = &cluster.client;
    let mut peers = Vec::new();
    for h in &cluster.hosts {
        let addr = h.local_addr().to_string();
        client.connect(&addr, &h.config().hosted)?;
        peers.extend(h.config().hosted.iter().map(|&s| (s, addr.clone())));
    }
    for h in &cluster.hosts {
        let msg = CtrlMsg::Peers {
            total_sites: SITES,
            peers: peers.clone(),
        };
        client.send(h.node_id(), &msg)?;
    }
    for _ in &cluster.hosts {
        await_reply(client, |m| matches!(m, CtrlMsg::Ready { .. }).then_some(()))?;
    }
    for (i, frag) in frags.fragments.iter().enumerate() {
        let corr = client.corr();
        let msg = CtrlMsg::LoadDoc {
            corr,
            doc: LOGICAL_DOC.into(),
            xml: frag.xml.clone(),
        };
        client.send(SiteId(i as u16), &msg)?;
        ack(client, corr)?;
    }
    let sites: Vec<SiteId> = (0..SITES).map(SiteId).collect();
    for h in &cluster.hosts {
        let corr = client.corr();
        let msg = CtrlMsg::Register {
            corr,
            doc: LOGICAL_DOC.into(),
            sites: sites.clone(),
            fragmented: true,
        };
        client.send(h.node_id(), &msg)?;
        ack(client, corr)?;
    }
    Ok((cluster, frags))
}

fn ack(client: &CtrlClient, corr: u64) -> Result<(), String> {
    let (ok, detail) = await_reply(client, |m| match m {
        CtrlMsg::Ack {
            corr: c,
            ok,
            detail,
        } if c == corr => Some((ok, detail)),
        _ => None,
    })?;
    if ok {
        Ok(())
    } else {
        Err(detail)
    }
}

/// Closed loop over the control plane from one driver thread: each of
/// the 16 clients keeps one transaction in flight, correlated by id;
/// client *i* coordinates at site *i mod 4*.
fn drive(tc: &TcpCluster, pools: &[Vec<TxnSpec>], run: Duration) -> Result<Tally, String> {
    let client = &tc.client;
    let mut cursors = vec![0usize; pools.len()];
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut submit = |ci: usize, in_flight: &mut HashMap<u64, (usize, Instant)>| {
        let pool = &pools[ci];
        let spec = pool[cursors[ci] % pool.len()].clone();
        cursors[ci] += 1;
        let corr = client.corr();
        in_flight.insert(corr, (ci, Instant::now()));
        client.send(
            SiteId((ci % SITES as usize) as u16),
            &CtrlMsg::Submit { corr, spec },
        )
    };
    let ticks = crate::stats::host_ticks();
    let start = Instant::now();
    let deadline = start + run;
    let mut tally = Tally::default();
    for ci in 0..pools.len() {
        submit(ci, &mut in_flight)?;
        std::thread::sleep(RAMP);
    }
    while !in_flight.is_empty() {
        let (corr, out) = await_reply(client, |m| match m {
            CtrlMsg::Outcome {
                corr,
                txn,
                status,
                response_us,
                results,
            } => Some((
                corr,
                TxnOutcome {
                    txn,
                    status,
                    response_time: Duration::from_micros(response_us),
                    results,
                },
            )),
            _ => None,
        })?;
        let (ci, sent) = in_flight
            .remove(&corr)
            .ok_or_else(|| format!("outcome for unknown correlation id {corr}"))?;
        let lag = Instant::now().saturating_duration_since(sent + out.response_time);
        tally.lag_max = tally.lag_max.max(lag);
        tally.settle(&out);
        if Instant::now() < deadline {
            submit(ci, &mut in_flight)?;
        }
    }
    tally.wall = start.elapsed();
    tally.start = Some(start);
    tally.steal = crate::stats::steal_share(ticks, crate::stats::host_ticks());
    Ok(tally)
}

/// Runs `xmark-tcp`.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_inner(args, &mut report) {
        report.fail(e);
    }
    report
}

fn run_inner(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut kept: Option<(TcpCluster, Fragmented)> = None;
    let repeats = if args.trace { 1 } else { xmark::SETUP_REPEATS };
    for _ in 0..repeats {
        if let Some((tc, _)) = kept.take() {
            tc.shutdown();
        }
        let (booted, took) = timed(|| boot(args.seed));
        setups.push(took.as_secs_f64());
        kept = Some(booted?);
    }
    let (tc, frags) = kept.expect("at least one set-up");
    let pools = xmark::pools(xmark::mix(UPDATE_TXN_PCT, args.seed), &frags);
    let wire0 = tc.wire_out();
    crate::ALLOC.reset_peak();
    let cpu0 = process_cpu();
    let result = drive(&tc, &pools, args.seconds);
    let cpu = process_cpu() - cpu0;
    let peak = crate::ALLOC.peak();
    let wire1 = tc.wire_out();
    let tally = match result {
        Ok(t) => t,
        Err(e) => {
            tc.shutdown();
            return Err(e);
        }
    };
    report.check(tally.attempted > 0, || {
        "no transaction was attempted".into()
    });
    let submitted: u64 = tc
        .hosts
        .iter()
        .flat_map(|h| h.metrics().coord_stats())
        .map(|c| c.submitted)
        .sum();
    report.check(submitted == tally.attempted, || {
        format!(
            "coordinators saw {submitted} submissions, the driver made {}",
            tally.attempted
        )
    });
    if args.trace {
        let wire = (wire1.0 - wire0.0, wire1.1 - wire0.1);
        record_layers(report, &tc, &tally, wire, cpu);
        tc.shutdown();
        let costs = replay::replay(&ReplayInput {
            docs: frags.fragments.iter().map(|f| f.xml.clone()).collect(),
            ops: replay::sample(&pools, xmark::REPLAY_OPS),
            fan_out: true,
        });
        costs.record(report);
        let mut calls = xmark::live_calls(&pools, &tally, &Default::default());
        calls.codec_msgs = ratio(wire.1 as f64, tally.committed as f64);
        let cpu_ms = report.get("process.cpu_ms_per_commit").unwrap_or(0.0);
        replay::residual(report, &costs, &calls, cpu_ms);
        traced::record_absent(report);
        report.attempted = tally.attempted;
        report.failed = tally.failed;
    } else {
        tc.shutdown();
        crate::inproc::record_end_to_end(report, &tally, median(&setups), peak);
    }
    Ok(())
}

/// Records the counter-derived per-layer metrics of the two hosts;
/// `wire` is the hosts' `(bytes, frames)` sent during the run.
fn record_layers(
    report: &mut Report,
    tc: &TcpCluster,
    tally: &Tally,
    wire: (u64, u64),
    cpu: Duration,
) {
    let metrics: Vec<_> = tc.hosts.iter().map(|h| h.metrics()).collect();
    let attempted = tally.attempted as f64;
    let sum =
        |f: &dyn Fn(&dtx_core::Metrics) -> u64| metrics.iter().map(|m| f(m)).sum::<u64>() as f64;
    let names = [
        ("scheduler.ready_ms_per_txn", "scheduler.phase_p99_ms.ready"),
        (
            "scheduler.waiting_ms_per_txn",
            "scheduler.phase_p99_ms.waiting",
        ),
        (
            "scheduler.remote_ms_per_txn",
            "scheduler.phase_p99_ms.remote",
        ),
        (
            "scheduler.terminating_ms_per_txn",
            "scheduler.phase_p99_ms.terminating",
        ),
    ];
    for (i, (mean, p99)) in names.into_iter().enumerate() {
        let merged = Histogram::new();
        for m in &metrics {
            merged.merge_from(m.phase_histograms()[i].1);
        }
        report.set(mean, ms(merged.mean()));
        report.set(p99, ms(merged.percentile(0.99)));
    }
    report.set(
        "scheduler.deadlock_aborts_per_txn",
        ratio(tally.deadlocks as f64, attempted),
    );
    let peak = metrics
        .iter()
        .flat_map(|m| m.coord_stats())
        .map(|c| c.inflight_peak)
        .max()
        .unwrap_or(0);
    report.set("scheduler.inflight_peak", peak as f64);
    report.set(
        "scheduler.termination_batching",
        ratio(
            sum(&|m| m.termination_msgs()),
            sum(&|m| m.termination_msgs_unbatched()),
        ),
    );
    // Process-mode hosts expose no WAL counters.
    report.set("storage.wal_forces_per_commit", 0.0);
    report.set("storage.wal_appends_per_commit", 0.0);
    report.set(
        "routing.remote_msgs_per_txn",
        ratio(sum(&|m| m.remote_msgs()), attempted),
    );
    report.set("net.msgs_per_txn", ratio(wire.1 as f64, attempted));
    report.set("net.bytes_per_txn", ratio(wire.0 as f64, attempted));
    report.set(
        "dataguide.snapshot_reads_per_txn",
        ratio(sum(&|m| m.snapshot_reads()), attempted),
    );
    report.set(
        "dataguide.snapshot_bytes",
        sum(&|m| m.snapshot_bytes()) / 1e6,
    );
    report.set(
        "socket.bytes_per_frame",
        ratio(wire.0 as f64, wire.1 as f64),
    );
    report.set("socket.frames_per_txn", ratio(wire.1 as f64, attempted));
    crate::inproc::record_driver(report, tally, cpu);
}
