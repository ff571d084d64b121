//! M1 — micro-benchmarks of the DTX building blocks.
//!
//! These quantify the "lower lock management overhead" and "summarized
//! data structure" arguments of the paper at the component level: XML
//! parsing, DataGuide construction and matching, lock-request generation
//! per protocol, lock-table throughput, and wait-for-graph cycle checks.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dtx_dataguide::DataGuide;
use dtx_locks::{LockMode, LockTable, TxnId, TxnMode, WaitForGraph};
use dtx_xmark::generator::{generate, XmarkConfig};
use dtx_xml::Document;
use dtx_xpath::{eval, Query, UpdateOp};

fn xml_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("xml_parse");
    for size in [50_000usize, 200_000] {
        let doc = generate(XmarkConfig::sized(size, 1));
        group.throughput(Throughput::Bytes(doc.xml.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &doc.xml, |b, xml| {
            b.iter(|| Document::parse(black_box(xml)).unwrap())
        });
    }
    group.finish();
}

fn dataguide_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataguide_build");
    for size in [50_000usize, 200_000] {
        let parsed = generate(XmarkConfig::sized(size, 2)).parse();
        group.throughput(Throughput::Elements(parsed.node_count() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &parsed, |b, doc| {
            b.iter(|| DataGuide::build(black_box(doc)))
        });
    }
    group.finish();
}

fn xpath_eval(c: &mut Criterion) {
    let xmark = generate(XmarkConfig::sized(200_000, 3));
    let doc = xmark.parse();
    // Ids from the middle of each entity list, as the workload picks them.
    let mid = |ids: &[u64]| ids[ids.len() / 2];
    let queries = [
        ("child_path", "/site/people/person/name".to_owned()),
        (
            "predicate",
            "/site/people/person[profile/age>40]/name".to_owned(),
        ),
        ("descendant", "//item/name".to_owned()),
        // The hot templates of the xmark-read pool.
        (
            "item_by_id",
            format!("//item[id={}]/description", mid(&xmark.item_ids)),
        ),
        (
            "person_by_id",
            format!("/site/people/person[id={}]/name", mid(&xmark.person_ids)),
        ),
        (
            "bidder_increase",
            "/site/open_auctions/open_auction/bidder/increase".to_owned(),
        ),
        ("absent_name", "//nowhere/name".to_owned()),
    ];
    let mut group = c.benchmark_group("xpath_eval");
    for (name, q) in queries {
        let query = Query::parse(&q).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| eval(black_box(&doc), black_box(&query)))
        });
    }
    group.finish();
}

fn lock_requests_per_protocol(c: &mut Criterion) {
    let doc = generate(XmarkConfig::sized(100_000, 4)).parse();
    let guide = DataGuide::build(&doc);
    let query = Query::parse("/site/open_auctions/open_auction[id=7]/current").unwrap();
    let update = UpdateOp::Change {
        target: Query::parse("/site/open_auctions/open_auction[id=7]/current").unwrap(),
        new_value: "10".into(),
    };
    let mut group = c.benchmark_group("lock_requests");
    for kind in [
        dtx_locks::ProtocolKind::Xdgl,
        dtx_locks::ProtocolKind::Node2Pl,
        dtx_locks::ProtocolKind::DocLock,
    ] {
        let protocol = kind.instantiate();
        group.bench_function(format!("{}_query", kind.name()), |b| {
            b.iter_batched(
                || guide.clone(),
                |mut g| {
                    protocol.query_requests(black_box(&mut g), black_box(&query), TxnMode::ReadOnly)
                },
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("{}_update", kind.name()), |b| {
            b.iter_batched(
                || guide.clone(),
                |mut g| {
                    protocol.update_requests(
                        black_box(&mut g),
                        black_box(&update),
                        TxnMode::Updating,
                    )
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn lock_table_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_table");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("acquire_release_1k_disjoint", |b| {
        b.iter(|| {
            let mut t = LockTable::new();
            for i in 0..1000u32 {
                t.try_acquire(TxnId(1), dtx_dataguide::GuideId(i), LockMode::IS);
            }
            t.release_all(TxnId(1));
        })
    });
    group.bench_function("acquire_1k_shared_hotspot", |b| {
        b.iter(|| {
            let mut t = LockTable::new();
            for i in 0..1000u64 {
                t.try_acquire(TxnId(i), dtx_dataguide::GuideId(0), LockMode::IS);
            }
            for i in 0..1000u64 {
                t.release_all(TxnId(i));
            }
        })
    });
    group.finish();
}

fn wfg_cycle_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("wfg");
    for n in [100u64, 1000] {
        // A long chain plus a closing edge: worst case for DFS.
        let mut g = WaitForGraph::new();
        for i in 0..n {
            g.add_edge(TxnId(i), TxnId(i + 1));
        }
        g.add_edge(TxnId(n), TxnId(0));
        group.bench_with_input(BenchmarkId::new("find_cycle", n), &g, |b, g| {
            b.iter(|| g.find_cycle())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    xml_parse,
    dataguide_build,
    xpath_eval,
    lock_requests_per_protocol,
    lock_table_throughput,
    wfg_cycle_detection
);
criterion_main!(benches);
