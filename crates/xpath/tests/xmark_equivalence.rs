//! XMark-level equivalence: every query and update target of the
//! `xmark-read` and `xmark-write` benchmark pools (seed 2009, 16 clients ×
//! 128 transactions of 5 operations, over the XMark base split into 4
//! fragments) evaluates exactly as in the reference evaluator on every
//! fragment — same node ids, same order, same string values — both on the
//! loaded fragments and after the write pool's updates have been applied.

mod reference;

use dtx_core::{OpKind, TxnSpec};
use dtx_xmark::fragment::fragment_doc;
use dtx_xmark::generator::{generate, XmarkConfig};
use dtx_xmark::workload::{generate as gen_workload, WorkloadConfig, DEFAULT_LOCALITY};
use dtx_xml::Document;
use dtx_xpath::eval::{eval, string_value};
use dtx_xpath::{apply_update, Query};
use std::collections::BTreeMap;

const SEED: u64 = 2009;
/// Size of the XMark base document the benchmark generates
/// (`dtx_bench::BASE_BYTES`).
const BASE_BYTES: usize = 400_000;
const SITES: usize = 4;

/// The benchmark's client mix at `update_txn_pct` percent update
/// transactions.
fn pool(update_txn_pct: u32, frags: &dtx_xmark::fragment::Fragmented) -> Vec<Vec<TxnSpec>> {
    let cfg = WorkloadConfig {
        clients: 16,
        txns_per_client: 128,
        ops_per_txn: 5,
        update_txn_pct,
        update_op_pct: if update_txn_pct > 0 { 20 } else { 0 },
        seed: SEED,
        locality: DEFAULT_LOCALITY,
    };
    gen_workload(cfg, frags).clients
}

fn assert_same(doc: &Document, query: &Query, fragment: usize) -> usize {
    let got = eval(doc, query);
    let want = reference::eval(doc, query);
    assert_eq!(got, want, "ids differ for {query} on fragment {fragment}");
    for (&g, &w) in got.iter().zip(&want) {
        assert_eq!(
            string_value(doc, g),
            reference::string_value(doc, w),
            "string of {g} for {query} on fragment {fragment}"
        );
    }
    got.len()
}

#[test]
fn xmark_pools_match_reference_on_every_fragment() {
    let base = generate(XmarkConfig::sized(BASE_BYTES, SEED));
    let frags = fragment_doc(&base, SITES);
    let mut docs: Vec<Document> = frags
        .fragments
        .iter()
        .map(|f| dtx_xml::parse(&f.xml).expect("fragment parses"))
        .collect();

    // Distinct query texts, each checked once per document state (a query
    // that repeats in the pools evaluates identically).
    let mut queries: BTreeMap<String, Query> = BTreeMap::new();
    let mut updates = Vec::new();
    let (mut total, mut targets) = (0usize, 0usize);
    for update_txn_pct in [0, 60] {
        for op in pool(update_txn_pct, &frags)
            .iter()
            .flatten()
            .flat_map(|t| &t.ops)
        {
            match &op.kind {
                OpKind::Query(q) => {
                    queries.insert(q.to_string(), q.clone());
                }
                OpKind::Update(u) => {
                    targets += 1;
                    for q in u.queries() {
                        queries.insert(q.to_string(), q.clone());
                    }
                    updates.push(u.clone());
                }
            }
            total += 1;
        }
    }
    assert_eq!(total, 2 * 16 * 128 * 5);
    assert!(targets > 0, "the write pool has update operations");

    let mut matched = 0usize;
    for (i, doc) in docs.iter().enumerate() {
        for q in queries.values() {
            matched += assert_same(doc, q, i);
        }
    }
    assert!(matched > queries.len(), "the pools select nodes");

    // The write pool's updates, applied where their target exists, make
    // arena order differ from document order; check every query again.
    for doc in &mut docs {
        for u in &updates {
            let _ = apply_update(doc, u);
        }
    }
    for (i, doc) in docs.iter().enumerate() {
        for q in queries.values() {
            assert_same(doc, q, i);
        }
    }
}
