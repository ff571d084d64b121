//! Property test: `dtx_xpath::eval` returns exactly what the reference
//! evaluator in `reference/` returns — the same node ids in the same
//! order, with the same string values — over random documents (nested
//! same-label elements, attributes, mixed content, empty elements, and
//! arena order scrambled by inserts, removes and transposes) and random
//! queries (child, descendant and attribute axes, `*`, `text()`, absent
//! names, nested `and`/`or`/`not` predicates over numeric and string
//! literals).

mod reference;

use dtx_xml::{Document, Fragment, InsertPos, NodeId};
use dtx_xpath::eval::{eval, eval_from, matches_predicate, string_value};
use dtx_xpath::{Axis, CmpOp, Literal, NodeTest, Predicate, Query, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ELEMENTS: [&str; 4] = ["a", "b", "c", "id"];
const ATTRIBUTES: [&str; 2] = ["id", "x"];
/// Names no generated document contains.
const ABSENT: [&str; 1] = ["zz"];
const VALUES: [&str; 10] = ["3", " 12 ", "4.5", "x", "", "abc", "-1", "NaN", "12", "b"];
const NUMBERS: [f64; 5] = [3.0, 12.0, 4.5, -1.0, 0.0];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

fn gen_element(rng: &mut StdRng, depth: u32) -> Fragment {
    let mut children = Vec::new();
    for attr in ATTRIBUTES {
        if rng.gen_bool(0.3) {
            children.push(Fragment::attr(attr, pick(rng, &VALUES)));
        }
    }
    let n = if depth == 0 { 0 } else { rng.gen_range(0..4) };
    for _ in 0..n {
        children.push(if rng.gen_bool(0.35) {
            Fragment::text(pick(rng, &VALUES))
        } else {
            gen_element(rng, depth - 1)
        });
    }
    Fragment::elem(pick(rng, &ELEMENTS), children)
}

fn live_nodes(doc: &Document) -> Vec<NodeId> {
    doc.descendants(doc.root()).collect()
}

/// A random document, then random inserts, removes and transposes so that
/// arena order no longer follows document order.
fn gen_doc(rng: &mut StdRng) -> Document {
    let mut doc = Document::from_fragment(&gen_element(rng, 4)).expect("root is an element");
    for _ in 0..rng.gen_range(0..8) {
        let nodes = live_nodes(&doc);
        let at = nodes[rng.gen_range(0..nodes.len())];
        // Tree operations that do not apply (e.g. removing the root) are
        // simply skipped.
        let _ = match rng.gen_range(0..4) {
            0 => doc.remove(at).map(|_| ()).map_err(|e| e.to_string()),
            1 => {
                let other = nodes[rng.gen_range(0..nodes.len())];
                doc.transpose(at, other).map_err(|e| e.to_string())
            }
            _ => {
                let pos = [
                    InsertPos::Into,
                    InsertPos::FirstInto,
                    InsertPos::Before,
                    InsertPos::After,
                ][rng.gen_range(0..4)];
                let fragment = if rng.gen_bool(0.3) {
                    Fragment::text(pick(rng, &VALUES))
                } else {
                    gen_element(rng, 2)
                };
                doc.insert_fragment(at, &fragment, pos)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
        };
    }
    doc.check_integrity()
        .expect("mutations keep the tree consistent");
    doc
}

fn gen_step(rng: &mut StdRng, pred_depth: u32) -> Step {
    let axis = [Axis::Child, Axis::Child, Axis::Descendant, Axis::Attribute][rng.gen_range(0..4)];
    let test = match rng.gen_range(0..8) {
        0 => NodeTest::Wildcard,
        1 => NodeTest::Text,
        2 => NodeTest::Name(pick(rng, &ABSENT).to_owned()),
        3 if axis == Axis::Attribute => NodeTest::Name(pick(rng, &ATTRIBUTES).to_owned()),
        _ => NodeTest::Name(pick(rng, &ELEMENTS).to_owned()),
    };
    let predicate = (pred_depth > 0 && rng.gen_bool(0.35)).then(|| gen_pred(rng, pred_depth - 1));
    Step {
        axis,
        test,
        predicate,
    }
}

fn gen_path(rng: &mut StdRng, max_steps: usize, pred_depth: u32) -> Query {
    let n = rng.gen_range(1..max_steps + 1);
    Query {
        steps: (0..n).map(|_| gen_step(rng, pred_depth)).collect(),
    }
}

fn gen_pred(rng: &mut StdRng, depth: u32) -> Predicate {
    let kinds = if depth == 0 { 2 } else { 5 };
    let sub = |rng: &mut StdRng| Box::new(gen_pred(rng, depth.saturating_sub(1)));
    match rng.gen_range(0..kinds) {
        0 => Predicate::Exists(gen_path(rng, 3, depth)),
        1 => Predicate::Cmp {
            path: gen_path(rng, 3, depth),
            op: [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][rng.gen_range(0..6)],
            value: if rng.gen_bool(0.5) {
                Literal::Number(NUMBERS[rng.gen_range(0..NUMBERS.len())])
            } else {
                Literal::Str(pick(rng, &VALUES).to_owned())
            },
        },
        2 => Predicate::And(sub(rng), sub(rng)),
        3 => Predicate::Or(sub(rng), sub(rng)),
        _ => Predicate::Not(sub(rng)),
    }
}

fn strings(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
    nodes.iter().map(|&n| string_value(doc, n)).collect()
}

/// Asserts that `eval` and the reference agree on ids, order and strings.
fn assert_same(doc: &Document, query: &Query) -> Vec<NodeId> {
    let got = eval(doc, query);
    let want = reference::eval(doc, query);
    assert_eq!(got, want, "ids differ for {query} on {}", doc.to_xml());
    let want_strings: Vec<String> = want
        .iter()
        .map(|&n| reference::string_value(doc, n))
        .collect();
    assert_eq!(
        strings(doc, &got),
        want_strings,
        "strings differ for {query} on {}",
        doc.to_xml()
    );
    got
}

#[test]
fn eval_matches_reference_on_random_documents_and_queries() {
    let mut rng = StdRng::seed_from_u64(2009);
    let mut nonempty = 0usize;
    for _ in 0..400 {
        let doc = gen_doc(&mut rng);
        let nodes = live_nodes(&doc);
        for &n in &nodes {
            assert_eq!(
                string_value(&doc, n),
                reference::string_value(&doc, n),
                "string value of {n} in {}",
                doc.to_xml()
            );
        }
        for _ in 0..40 {
            let mut query = gen_path(&mut rng, 4, 2);
            // A child first step only ever matches the root element.
            if rng.gen_bool(0.5) {
                query.steps[0].axis = Axis::Descendant;
            }
            if !assert_same(&doc, &query).is_empty() {
                nonempty += 1;
            }

            // Relative evaluation from an arbitrary context list: out of
            // document order, nested, with repeats.
            let context: Vec<NodeId> = (0..rng.gen_range(0..5))
                .map(|_| nodes[rng.gen_range(0..nodes.len())])
                .collect();
            let relative = gen_path(&mut rng, 3, 2);
            assert_eq!(
                eval_from(&doc, &context, &relative),
                reference::eval_from(&doc, &context, &relative),
                "eval_from {context:?} {relative} on {}",
                doc.to_xml()
            );

            let pred = gen_pred(&mut rng, 3);
            for &n in &nodes {
                assert_eq!(
                    matches_predicate(&doc, n, &pred),
                    reference::matches_predicate(&doc, n, &pred),
                    "[{pred}] at {n} on {}",
                    doc.to_xml()
                );
            }
        }
    }
    // The generator must exercise non-trivial results, not just empties.
    assert!(nonempty > 1_000, "only {nonempty} non-empty results");
}

/// `<a>` nested in `<a>`: after `//a` the context list is not in document
/// order, which is where a de-duplication shortcut goes wrong.
const NESTED: &str = "<r><a><a><b>in</b></a><b>out</b></a></r>";

#[test]
fn nested_contexts_match_reference() {
    let doc = dtx_xml::parse(NESTED).unwrap();
    for (src, want) in [
        ("//a/*//text()", vec!["in", "out"]),
        ("//a/b", vec!["out", "in"]),
        ("//a//b", vec!["in", "out"]),
        ("//a/a//text()", vec!["in"]),
    ] {
        let query = Query::parse(src).unwrap();
        let got = assert_same(&doc, &query);
        assert_eq!(strings(&doc, &got), want, "{src}");
    }
}

#[test]
fn hand_written_edge_paths_match_reference() {
    let doc = dtx_xml::parse(
        r#"<r id="0"><a id="1">x<a id="2"><b>3</b>mid<b/></a>y</a><c x="4.5"> 12 </c><a/><b>NaN</b></r>"#,
    )
    .unwrap();
    for src in [
        "/r",
        "/zz",
        "//zz",
        "/r//a",
        "//a//a",
        "//text()",
        "/r/a/text()",
        "//*",
        "//a/@id",
        "/r/@id",
        "/r/@zz",
        "//a[@id=2]/b",
        "//a[b=3 and not(@id=1)]",
        "//a[b or @id=\"1\"]",
        "/r/*[@x>4]",
        "/r/c[text()=12]",
        "/r[a//b=3]/c",
        "/r[a//a//b]/c",
        "//a[not(a) and not(b)]",
        "//a[not(zz)]/@id",
        "/r/a[a/b>2]//text()",
    ] {
        assert_same(&doc, &Query::parse(src).expect(src));
    }
}
