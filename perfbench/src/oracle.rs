//! The `xmark-read` replay oracle.
//!
//! A read-only workload never changes the base, so the answer to every
//! query is fixed by the loaded fragments: the multiset union, over all
//! fragments, of `dtx_xpath::eval`'s string values. The cluster's answer
//! must equal it as a multiset; [`Oracle::verify`] compares digests
//! ([`crate::stats::multiset_digest`]) so the driver does not have to keep
//! every returned string.

use crate::stats::multiset_digest;
use dtx_core::{OpKind, TxnSpec};
use dtx_xml::Document;
use dtx_xpath::eval::string_value;
use dtx_xpath::{eval, Query};
use std::collections::HashMap;

/// Expected query answers over a fixed set of fragments.
pub struct Oracle {
    fragments: Vec<Document>,
    cache: HashMap<String, u64>,
}

impl Oracle {
    /// An oracle over the given fragment documents (XML text).
    pub fn new<'a>(fragments: impl IntoIterator<Item = &'a str>) -> Result<Oracle, String> {
        let fragments = fragments
            .into_iter()
            .map(|xml| dtx_xml::parse(xml).map_err(|e| format!("fragment does not parse: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Oracle {
            fragments,
            cache: HashMap::new(),
        })
    }

    /// Every string value `query` selects, over all fragments.
    pub fn values(&self, query: &Query) -> Vec<String> {
        self.fragments
            .iter()
            .flat_map(|doc| {
                eval(doc, query)
                    .into_iter()
                    .map(move |n| string_value(doc, n))
            })
            .collect()
    }

    /// The expected digest of `query`'s answer (memoized per query text).
    pub fn digest(&mut self, query: &Query) -> u64 {
        let key = query.to_string();
        if let Some(&d) = self.cache.get(&key) {
            return d;
        }
        let values = self.values(query);
        let d = multiset_digest(values.iter().map(String::as_str));
        self.cache.insert(key, d);
        d
    }

    /// Checks a committed transaction's per-operation result digests
    /// against the oracle.
    pub fn verify(&mut self, spec: &TxnSpec, digests: &[u64]) -> Result<(), String> {
        if digests.len() != spec.ops.len() {
            return Err(format!(
                "{} results for {} operations",
                digests.len(),
                spec.ops.len()
            ));
        }
        for (i, (op, &got)) in spec.ops.iter().zip(digests).enumerate() {
            if let OpKind::Query(q) = &op.kind {
                if self.digest(q) != got {
                    return Err(format!("operation {i} ({q}) returned a wrong multiset"));
                }
            }
        }
        Ok(())
    }
}
