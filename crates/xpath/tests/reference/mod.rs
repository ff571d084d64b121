//! The evaluator as it stood before symbol-resolved evaluation, kept
//! verbatim as the reference the current `dtx_xpath::eval` is checked
//! against: same node ids, same order, same string values. Only the
//! imports differ (this module lives outside the crate). Nothing outside
//! the tests uses it.

#![allow(dead_code)]

use dtx_xml::{Document, NodeId};
use dtx_xpath::ast::{Axis, CmpOp, Literal, NodeTest, Predicate, Query, Step};
use std::collections::HashSet;

/// Evaluates an absolute query against `doc`, returning matching nodes in
/// document order.
///
/// Per XPath semantics the first step is matched against the *root
/// element*: `/products/...` requires the root to be labelled `products`.
pub fn eval(doc: &Document, query: &Query) -> Vec<NodeId> {
    let mut current: Vec<NodeId> = vec![];
    for (i, step) in query.steps.iter().enumerate() {
        current = if i == 0 {
            step_from_virtual_root(doc, step)
        } else {
            apply_step(doc, &current, step)
        };
        if current.is_empty() {
            break;
        }
    }
    current
}

/// The first step is matched against the virtual document root, whose only
/// child is the root element.
fn step_from_virtual_root(doc: &Document, step: &Step) -> Vec<NodeId> {
    let root = doc.root();
    let mut out = Vec::new();
    match step.axis {
        Axis::Child => {
            if test_matches(doc, root, &step.test) {
                out.push(root);
            }
        }
        Axis::Descendant => {
            for n in doc.descendants(root) {
                if is_element_or_text(doc, n) && test_matches(doc, n, &step.test) {
                    out.push(n);
                }
            }
        }
        Axis::Attribute => {
            // `/@x` on the virtual root matches nothing (roots are elements).
        }
    }
    filter_by_predicate(doc, out, step.predicate.as_ref())
}

/// Evaluates a (relative) query starting from the given context nodes.
pub fn eval_from(doc: &Document, context: &[NodeId], query: &Query) -> Vec<NodeId> {
    let mut current = context.to_vec();
    for step in &query.steps {
        current = apply_step(doc, &current, step);
        if current.is_empty() {
            break;
        }
    }
    current
}

fn apply_step(doc: &Document, context: &[NodeId], step: &Step) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for &ctx in context {
        match step.axis {
            Axis::Child => {
                if let Ok(children) = doc.children(ctx) {
                    for &c in children {
                        if is_element_or_text(doc, c) && test_matches(doc, c, &step.test) {
                            push_unique(&mut out, &mut seen, c);
                        }
                    }
                }
            }
            Axis::Descendant => {
                // descendant-or-self on children: all strict descendants.
                for n in doc.descendants(ctx).skip(1) {
                    if is_element_or_text(doc, n) && test_matches(doc, n, &step.test) {
                        push_unique(&mut out, &mut seen, n);
                    }
                }
            }
            Axis::Attribute => {
                if let Ok(children) = doc.children(ctx) {
                    for &c in children {
                        let is_attr = doc.node(c).map(|n| n.is_attribute()).unwrap_or(false);
                        if is_attr && test_matches(doc, c, &step.test) {
                            push_unique(&mut out, &mut seen, c);
                        }
                    }
                }
            }
        }
    }
    filter_by_predicate(doc, out, step.predicate.as_ref())
}

fn push_unique(out: &mut Vec<NodeId>, seen: &mut HashSet<NodeId>, n: NodeId) {
    if seen.insert(n) {
        out.push(n);
    }
}

fn is_element_or_text(doc: &Document, n: NodeId) -> bool {
    doc.node(n)
        .map(|node| !node.is_attribute())
        .unwrap_or(false)
}

fn test_matches(doc: &Document, n: NodeId, test: &NodeTest) -> bool {
    let Ok(node) = doc.node(n) else { return false };
    match test {
        NodeTest::Wildcard => node.is_element(),
        NodeTest::Text => node.is_text(),
        NodeTest::Name(name) => match node.kind.label() {
            Some(sym) => doc.interner().resolve(sym) == name,
            None => false,
        },
    }
}

fn filter_by_predicate(
    doc: &Document,
    nodes: Vec<NodeId>,
    pred: Option<&Predicate>,
) -> Vec<NodeId> {
    match pred {
        None => nodes,
        Some(p) => nodes
            .into_iter()
            .filter(|&n| matches_predicate(doc, n, p))
            .collect(),
    }
}

/// Evaluates a predicate with `n` as the context node.
pub fn matches_predicate(doc: &Document, n: NodeId, pred: &Predicate) -> bool {
    match pred {
        Predicate::Exists(path) => !eval_from(doc, &[n], path).is_empty(),
        Predicate::Cmp { path, op, value } => {
            let targets = eval_from(doc, &[n], path);
            // XPath existential semantics: true if ANY target compares true.
            targets.iter().any(|&t| compare_node(doc, t, *op, value))
        }
        Predicate::And(a, b) => matches_predicate(doc, n, a) && matches_predicate(doc, n, b),
        Predicate::Or(a, b) => matches_predicate(doc, n, a) || matches_predicate(doc, n, b),
        Predicate::Not(p) => !matches_predicate(doc, n, p),
    }
}

fn compare_node(doc: &Document, n: NodeId, op: CmpOp, value: &Literal) -> bool {
    let actual = string_value(doc, n);
    match value {
        Literal::Str(expected) => {
            let ord = actual.as_str().cmp(expected.as_str());
            ord_matches(op, ord)
        }
        Literal::Number(expected) => match actual.trim().parse::<f64>() {
            Ok(v) => match v.partial_cmp(expected) {
                Some(ord) => ord_matches(op, ord),
                None => false,
            },
            // Non-numeric string-values never compare true to numbers.
            Err(_) => false,
        },
    }
}

fn ord_matches(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    matches!(
        (op, ord),
        (CmpOp::Eq, Equal)
            | (CmpOp::Ne, Less)
            | (CmpOp::Ne, Greater)
            | (CmpOp::Lt, Less)
            | (CmpOp::Le, Less)
            | (CmpOp::Le, Equal)
            | (CmpOp::Gt, Greater)
            | (CmpOp::Ge, Greater)
            | (CmpOp::Ge, Equal)
    )
}

/// XPath string-value of a node: concatenated descendant text for
/// elements, the value itself for attributes/text.
pub fn string_value(doc: &Document, n: NodeId) -> String {
    match doc.node(n) {
        Ok(node) if node.is_element() => doc.text_of(n).unwrap_or_default(),
        Ok(node) => node.kind.value().unwrap_or("").to_owned(),
        Err(_) => String::new(),
    }
}
