//! The benchmark's own tests: its inputs replay from the seed, its
//! oracle rejects a wrong answer, and the metrics it prints are exactly
//! the ones `BENCHMARK.json` declares.

use dtx_core::{OpKind, OpResult, TxnStatus};
use perfbench::args::{Args, Workload};
use perfbench::oracle::Oracle;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::stats::result_digests;
use perfbench::{open, xmark};
use std::time::Duration;

#[test]
fn same_seed_yields_identical_specs_and_arrivals() {
    for pct in [0, 20, 60] {
        let (_, frags_a) = xmark::base(7);
        let (_, frags_b) = xmark::base(7);
        let a = xmark::pools(xmark::mix(pct, 7), &frags_a);
        let b = xmark::pools(xmark::mix(pct, 7), &frags_b);
        assert_eq!(
            a, b,
            "{pct} % updates: the same seed must give the same specs"
        );
        let (_, frags_c) = xmark::base(8);
        let c = xmark::pools(xmark::mix(pct, 8), &frags_c);
        assert_ne!(a, c, "another seed must give other specs");
    }
    let run = Duration::from_millis(200);
    assert_eq!(open::arrivals(run, 7), open::arrivals(run, 7));
    assert_ne!(open::arrivals(run, 7), open::arrivals(run, 8));
    let ops = |seed| {
        open::replay_ops(seed, 100)
            .into_iter()
            .map(|o| o.op)
            .collect::<Vec<_>>()
    };
    assert_eq!(ops(7), ops(7));
}

#[test]
fn doctored_query_result_fails_the_read_oracle() {
    let (cluster, frags) = xmark::boot(3, None);
    let pools = xmark::pools(xmark::mix(0, 3), &frags);
    let spec = pools[0][0].clone();
    assert!(spec.is_read_only());
    let out = cluster.submit(cluster.sites()[0], spec.clone());
    cluster.shutdown();
    assert_eq!(out.status, TxnStatus::Committed);
    let mut oracle = Oracle::new(frags.fragments.iter().map(|f| f.xml.as_str())).unwrap();
    oracle
        .verify(&spec, &result_digests(&out.results))
        .expect("the cluster's answer matches the oracle");

    // Doctor the first query result that returned something: a changed
    // value, a dropped value and a duplicated value must all fail.
    let (i, values) = out
        .results
        .iter()
        .enumerate()
        .find_map(|(i, r)| match r {
            OpResult::Query { values } if !values.is_empty() => Some((i, values.clone())),
            _ => None,
        })
        .expect("some query of the transaction selects nodes");
    assert!(matches!(spec.ops[i].kind, OpKind::Query(_)));
    let mut changed = values.clone();
    changed[0].push('x');
    let mut dropped = values.clone();
    dropped.pop();
    let mut duplicated = values.clone();
    duplicated.push(values[0].clone());
    for doctored in [changed, dropped, duplicated] {
        let mut results = out.results.clone();
        results[i] = OpResult::Query { values: doctored };
        assert!(
            oracle.verify(&spec, &result_digests(&results)).is_err(),
            "a doctored result must fail the oracle"
        );
    }
    // Reordering is not an error: the comparison is by multiset.
    let mut results = out.results.clone();
    let mut reversed = values;
    reversed.reverse();
    results[i] = OpResult::Query { values: reversed };
    oracle.verify(&spec, &result_digests(&results)).unwrap();
}

#[test]
fn point_reads_must_return_their_item() {
    let q = |v: &str| {
        vec![OpResult::Query {
            values: vec![v.to_string()],
        }]
    };
    assert!(open::check_point(&q("3v3")).is_ok());
    assert!(open::check_point(&q("16w16")).is_ok());
    assert!(open::check_point(&q("3v4")).is_err());
    assert!(open::check_point(&q("17v17")).is_err());
    assert!(open::check_point(&q("3x3")).is_err());
    assert!(open::check_point(&[OpResult::Query { values: vec![] }]).is_err());
    assert!(open::check_point(&[OpResult::Update { affected: 1 }]).is_ok());
    assert!(open::check_point(&[OpResult::Update { affected: 0 }]).is_err());
}

/// `(name, unit)` pairs of one metric array of `BENCHMARK.json`, read by
/// plain scanning (the file is ours and regular; no JSON crate is
/// available offline).
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let end = body.find(']').expect("the array closes");
    let quoted_after = |s: &str, field: &str| -> Option<String> {
        let at = s.find(&format!("\"{field}\""))?;
        let rest = &s[at + field.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = rest[open..].find('"')? + open;
        Some(rest[open..close].to_string())
    };
    body[..end]
        .split('}')
        .filter_map(|entry| Some((quoted_after(entry, "name")?, quoted_after(entry, "unit")?)))
        .collect()
}

fn contract() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

#[test]
fn metric_tables_match_benchmark_json() {
    let json = contract();
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), own(PER_LAYER));
    let workloads = &json[json.find("\"workloads\"").expect("workloads key")..];
    let workloads = &workloads[..workloads.find(']').expect("the array closes")];
    for w in Workload::ALL {
        let declared = workloads.contains(&format!("\"name\": \"{}\"", w.name()));
        assert_eq!(
            declared,
            Workload::CONTRACT.contains(&w),
            "workload {} is declared {declared}",
            w.name()
        );
    }
}

/// Extracts the metric names of a printed result line.
fn printed_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .match_indices("\": {\"value\"")
        .map(|(at, _)| {
            let open = metrics[..at].rfind('"').expect("name opens") + 1;
            metrics[open..at].to_string()
        })
        .collect()
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json() {
    let json = contract();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let want: Vec<String> = declared(&json, key).into_iter().map(|(n, _)| n).collect();
        for w in Workload::ALL {
            let args = Args {
                workload: w,
                seed: 5,
                seconds: Duration::from_millis(600),
                trace,
            };
            let report = match w {
                Workload::XmarkRead => xmark::run(&args, 0),
                Workload::XmarkWrite => xmark::run(&args, 60),
                Workload::PointOpen => open::run(&args),
                Workload::XmarkTcp => perfbench::tcp::run(&args),
            };
            assert!(
                report.failures.is_empty(),
                "{} --trace {}: {:?}",
                w.name(),
                trace as u8,
                report.failures
            );
            let line = report.finish(if trace { PER_LAYER } else { END_TO_END });
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert_eq!(
                printed_names(&line),
                want,
                "{} --trace {}",
                w.name(),
                trace as u8
            );
        }
    }
}
