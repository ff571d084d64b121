//! Query evaluation against an in-memory [`Document`].
//!
//! Evaluation is set-at-a-time: each step maps the current context list to
//! the next. The query is first resolved against the document's interner,
//! so testing a node's name is one [`Symbol`] compare, and a name on the
//! main path that the document never interned ends evaluation before any
//! walk. Child and attribute steps push matches directly: the context list
//! has no duplicates and distinct parents have disjoint children. Only a
//! descendant step from more than one context de-duplicates, through a
//! bitset over the arena, since nested contexts share descendants.
//! Predicates are existential, so each is checked per node by a
//! depth-first walk that stops at the first witness. Walks below a node
//! keep an explicit stack, so call-stack use does not grow with document
//! depth.
//!
//! # Result order
//!
//! A step emits its matches context by context, in the order the previous
//! step produced the contexts, and each context's matches in document
//! order. The result is therefore in document order unless a child or
//! attribute step runs from nested contexts: `//a/b` on
//! `<r><a><a><b>in</b></a><b>out</b></a></r>` returns the `b` holding
//! `out` before the one holding `in`. Updates apply to their targets in
//! this order.

use crate::ast::{Axis, CmpOp, Literal, NodeTest, Predicate, Query, Step};
use dtx_xml::{Document, Node, NodeId, NodeKind, Symbol};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Evaluates an absolute query against `doc`, returning matching nodes in
/// the order described in the [module docs](self).
///
/// Per XPath semantics the first step is matched against the *root
/// element*: `/products/...` requires the root to be labelled `products`.
pub fn eval(doc: &Document, query: &Query) -> Vec<NodeId> {
    let Some(plan) = resolve_path(doc, &query.steps) else {
        return Vec::new();
    };
    let Some((first, rest)) = plan.split_first() else {
        return Vec::new();
    };
    run(doc, rest, step_from_virtual_root(doc, first))
}

/// The first step is matched against the virtual document root, whose only
/// child is the root element.
fn step_from_virtual_root(doc: &Document, step: &RStep) -> Vec<NodeId> {
    let root = doc.root();
    let mut out = Vec::new();
    let Ok(node) = doc.node(root) else {
        return out;
    };
    // `/@x` matches nothing: the attribute axis admits no element.
    if step.admits(doc, root, node) {
        out.push(root);
    }
    if step.axis == Axis::Descendant {
        descend(doc, &node.children, step, &mut out, &mut None);
    }
    out
}

/// Evaluates a (relative) query starting from the given context nodes.
pub fn eval_from(doc: &Document, context: &[NodeId], query: &Query) -> Vec<NodeId> {
    if query.steps.is_empty() {
        return context.to_vec();
    }
    let Some(plan) = resolve_path(doc, &query.steps) else {
        return Vec::new();
    };
    // Steps assume a duplicate-free context; a repeated or stale context
    // node adds no match.
    let mut seen = Seen::new(doc.arena_len());
    let context = context
        .iter()
        .copied()
        .filter(|&n| doc.is_live(n) && seen.insert(n))
        .collect();
    run(doc, &plan, context)
}

/// Evaluates a predicate with `n` as the context node.
pub fn matches_predicate(doc: &Document, n: NodeId, pred: &Predicate) -> bool {
    resolve_pred(doc, pred).holds(doc, n)
}

/// XPath string-value of a node: concatenated descendant text for
/// elements, the value itself for attributes/text.
pub fn string_value(doc: &Document, n: NodeId) -> String {
    text(doc, n).into_owned()
}

/// A node test resolved against one document's interner.
#[derive(Clone, Copy)]
enum Test {
    /// `NodeTest::Name`: an element (an attribute, on the attribute axis)
    /// with this label.
    Name(Symbol),
    /// `*`: any element.
    Element,
    /// `text()`: any text node.
    Text,
}

impl Test {
    /// `None` for a name the document never interned: no node carries it.
    fn resolve(doc: &Document, test: &NodeTest) -> Option<Test> {
        Some(match test {
            NodeTest::Name(name) => Test::Name(doc.interner().get(name)?),
            NodeTest::Wildcard => Test::Element,
            NodeTest::Text => Test::Text,
        })
    }

    /// Whether `node` passes this test on `axis`. The attribute axis only
    /// admits attributes and only by name; the other axes never admit
    /// attributes.
    fn accepts(self, axis: Axis, node: &Node) -> bool {
        match (&node.kind, self) {
            (NodeKind::Attribute { label, .. }, Test::Name(s)) => {
                axis == Axis::Attribute && *label == s
            }
            _ if axis == Axis::Attribute => false,
            (NodeKind::Element { label }, Test::Name(s)) => *label == s,
            (NodeKind::Element { .. }, Test::Element) | (NodeKind::Text { .. }, Test::Text) => true,
            _ => false,
        }
    }
}

/// A [`Step`] resolved against one document.
struct RStep<'q> {
    axis: Axis,
    test: Test,
    pred: Option<Pred<'q>>,
}

impl RStep<'_> {
    /// Whether node `n` (stored as `node`) passes the test and predicate.
    fn admits(&self, doc: &Document, n: NodeId, node: &Node) -> bool {
        self.test.accepts(self.axis, node) && self.holds(doc, n)
    }

    fn holds(&self, doc: &Document, n: NodeId) -> bool {
        self.pred.as_ref().is_none_or(|p| p.holds(doc, n))
    }
}

/// A [`Predicate`] resolved against one document.
enum Pred<'q> {
    /// A path through a name the document never interned: reaches nothing.
    Never,
    Exists(Vec<RStep<'q>>),
    Cmp {
        path: Vec<RStep<'q>>,
        op: CmpOp,
        value: &'q Literal,
    },
    And(Box<Pred<'q>>, Box<Pred<'q>>),
    Or(Box<Pred<'q>>, Box<Pred<'q>>),
    Not(Box<Pred<'q>>),
}

impl Pred<'_> {
    fn holds(&self, doc: &Document, n: NodeId) -> bool {
        match self {
            Pred::Never => false,
            Pred::Exists(path) => walk(doc, n, path, &|_| true),
            // XPath existential semantics: true if ANY target compares true.
            Pred::Cmp { path, op, value } => walk(doc, n, path, &|t| compare(doc, t, *op, value)),
            Pred::And(a, b) => a.holds(doc, n) && b.holds(doc, n),
            Pred::Or(a, b) => a.holds(doc, n) || b.holds(doc, n),
            Pred::Not(p) => !p.holds(doc, n),
        }
    }
}

/// `None` when a step names a label the document never interned.
fn resolve_path<'q>(doc: &Document, steps: &'q [Step]) -> Option<Vec<RStep<'q>>> {
    steps
        .iter()
        .map(|s| {
            Some(RStep {
                axis: s.axis,
                test: Test::resolve(doc, &s.test)?,
                pred: s.predicate.as_ref().map(|p| resolve_pred(doc, p)),
            })
        })
        .collect()
}

fn resolve_pred<'q>(doc: &Document, pred: &'q Predicate) -> Pred<'q> {
    let boxed = |p| Box::new(resolve_pred(doc, p));
    match pred {
        Predicate::Exists(path) => resolve_path(doc, &path.steps).map_or(Pred::Never, Pred::Exists),
        Predicate::Cmp { path, op, value } => {
            resolve_path(doc, &path.steps).map_or(Pred::Never, |path| Pred::Cmp {
                path,
                op: *op,
                value,
            })
        }
        Predicate::And(a, b) => Pred::And(boxed(a), boxed(b)),
        Predicate::Or(a, b) => Pred::Or(boxed(a), boxed(b)),
        Predicate::Not(p) => Pred::Not(boxed(p)),
    }
}

fn run(doc: &Document, plan: &[RStep], mut current: Vec<NodeId>) -> Vec<NodeId> {
    for step in plan {
        if current.is_empty() {
            break;
        }
        current = apply_step(doc, &current, step);
    }
    current
}

/// Maps a duplicate-free context list through one step; the result is
/// duplicate-free too.
fn apply_step(doc: &Document, context: &[NodeId], step: &RStep) -> Vec<NodeId> {
    let mut out = Vec::new();
    if step.axis == Axis::Descendant {
        // Only nested contexts can reach a node twice.
        let mut seen = (context.len() > 1).then(|| Seen::new(doc.arena_len()));
        for &ctx in context {
            if let Ok(node) = doc.node(ctx) {
                descend(doc, &node.children, step, &mut out, &mut seen);
            }
        }
    } else {
        for &ctx in context {
            let Ok(node) = doc.node(ctx) else { continue };
            for &c in &node.children {
                if doc.node(c).is_ok_and(|child| step.admits(doc, c, child)) {
                    out.push(c);
                }
            }
        }
    }
    out
}

/// Pushes, in document order, every node in the subtrees of `children`
/// that passes `step` and is not yet in `seen`.
fn descend(
    doc: &Document,
    children: &[NodeId],
    step: &RStep,
    out: &mut Vec<NodeId>,
    seen: &mut Option<Seen>,
) {
    preorder(doc, children, |c, node| {
        if step.test.accepts(Axis::Descendant, node)
            && seen.as_mut().is_none_or(|s| s.insert(c))
            && step.holds(doc, c)
        {
            out.push(c);
        }
        false
    });
}

/// Whether some node reached from `ctx` along `path` satisfies `hit`.
fn walk(doc: &Document, ctx: NodeId, path: &[RStep], hit: &impl Fn(NodeId) -> bool) -> bool {
    let Some((step, rest)) = path.split_first() else {
        return hit(ctx);
    };
    let Ok(node) = doc.node(ctx) else {
        return false;
    };
    if step.axis == Axis::Descendant {
        preorder(doc, &node.children, |c, node| {
            step.admits(doc, c, node) && walk(doc, c, rest, hit)
        })
    } else {
        node.children.iter().any(|&c| {
            doc.node(c)
                .is_ok_and(|child| step.admits(doc, c, child) && walk(doc, c, rest, hit))
        })
    }
}

fn compare(doc: &Document, n: NodeId, op: CmpOp, value: &Literal) -> bool {
    let actual = text(doc, n);
    let ord = match value {
        Literal::Str(expected) => Some(actual.as_ref().cmp(expected.as_str())),
        // Non-numeric string-values never compare true to numbers.
        Literal::Number(expected) => actual
            .trim()
            .parse::<f64>()
            .ok()
            .and_then(|v| v.partial_cmp(expected)),
    };
    ord.is_some_and(|ord| match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    })
}

/// String-value of `n`, borrowed where the node stores it whole:
/// attributes, text nodes, and elements with no children or exactly one
/// text child.
fn text(doc: &Document, n: NodeId) -> Cow<'_, str> {
    let Ok(node) = doc.node(n) else {
        return Cow::Borrowed("");
    };
    if let Some(value) = node.kind.value() {
        return Cow::Borrowed(value);
    }
    if let [only] = node.children[..] {
        if let Ok(Node {
            kind: NodeKind::Text { value },
            ..
        }) = doc.node(only)
        {
            return Cow::Borrowed(value);
        }
    }
    let mut out = String::new();
    append_text(doc, &node.children, &mut out);
    Cow::Owned(out)
}

/// Appends the text nodes of the subtrees of `children`, in document
/// order.
fn append_text(doc: &Document, children: &[NodeId], out: &mut String) {
    preorder(doc, children, |_, node| {
        if let NodeKind::Text { value } = &node.kind {
            out.push_str(value);
        }
        false
    });
}

/// Visits the live nodes in the subtrees of `children` in document order
/// until `visit` returns true, and reports whether it did. The walk keeps
/// its own stack of child slices, so document depth costs heap, not call
/// stack.
fn preorder<'d>(
    doc: &'d Document,
    children: &'d [NodeId],
    mut visit: impl FnMut(NodeId, &'d Node) -> bool,
) -> bool {
    let mut stack = vec![children];
    while let Some(level) = stack.last_mut() {
        let Some((&c, later)) = level.split_first() else {
            stack.pop();
            continue;
        };
        *level = later;
        let Ok(node) = doc.node(c) else { continue };
        if visit(c, node) {
            return true;
        }
        if !node.children.is_empty() {
            stack.push(&node.children);
        }
    }
    false
}

/// A set of node ids: one bit per arena slot.
struct Seen(Vec<u64>);

impl Seen {
    fn new(arena_len: usize) -> Self {
        Seen(vec![0; arena_len.div_ceil(64)])
    }

    /// Adds a live node's id; true when it was not yet in the set.
    fn insert(&mut self, n: NodeId) -> bool {
        let (word, bit) = (n.index() / 64, 1u64 << (n.index() % 64));
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtx_xml::parse;

    fn doc() -> Document {
        parse(
            r#"<site>
                 <people>
                   <person id="p0"><name>Ana</name><age>31</age></person>
                   <person id="p1"><name>Bruno</name><age>45</age><phone>555</phone></person>
                 </people>
                 <products>
                   <product><id>4</id><name>Monitor</name><price>120.00</price></product>
                   <product><id>14</id><name>Printer</name><price>55.50</price></product>
                 </products>
               </site>"#,
        )
        .unwrap()
    }

    fn names(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| doc.label_str(n).unwrap_or("").to_owned())
            .collect()
    }

    fn q(s: &str) -> Query {
        Query::parse(s).unwrap()
    }

    #[test]
    fn root_test_must_match() {
        let d = doc();
        assert_eq!(eval(&d, &q("/site")).len(), 1);
        assert!(eval(&d, &q("/wrong")).is_empty());
    }

    #[test]
    fn child_paths() {
        let d = doc();
        let r = eval(&d, &q("/site/people/person"));
        assert_eq!(r.len(), 2);
        assert_eq!(names(&d, &r), vec!["person", "person"]);
    }

    #[test]
    fn descendant_axis_finds_all_depths() {
        let d = doc();
        assert_eq!(eval(&d, &q("//name")).len(), 4);
        assert_eq!(eval(&d, &q("//person")).len(), 2);
        assert_eq!(eval(&d, &q("/site//price")).len(), 2);
    }

    #[test]
    fn descendant_results_deduplicated_in_doc_order() {
        let d = parse("<r><a><a><b/></a></a></r>").unwrap();
        // //a//b: both a's reach the same b; result must contain b once.
        let r = eval(&d, &q("//a//b"));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn wildcard_and_text_tests() {
        let d = doc();
        let r = eval(&d, &q("/site/*"));
        assert_eq!(names(&d, &r), vec!["people", "products"]);
        let r = eval(&d, &q("/site/people/person/name/text()"));
        assert_eq!(r.len(), 2);
        assert_eq!(string_value(&d, r[0]), "Ana");
    }

    #[test]
    fn attribute_axis() {
        let d = doc();
        let r = eval(&d, &q("/site/people/person/@id"));
        assert_eq!(r.len(), 2);
        assert_eq!(string_value(&d, r[0]), "p0");
        // Attributes are not matched by child steps.
        assert!(eval(&d, &q("/site/people/person/id")).is_empty());
    }

    #[test]
    fn numeric_equality_predicate() {
        let d = doc();
        let r = eval(&d, &q("/site/products/product[id=4]"));
        assert_eq!(r.len(), 1);
        let name = eval_from(&d, &r, &Query::path(&["name"]));
        assert_eq!(string_value(&d, name[0]), "Monitor");
    }

    #[test]
    fn numeric_ordering_predicates() {
        let d = doc();
        assert_eq!(eval(&d, &q("/site/products/product[price>100]")).len(), 1);
        assert_eq!(eval(&d, &q("/site/products/product[price<=120]")).len(), 2);
        assert_eq!(eval(&d, &q("/site/people/person[age!=31]")).len(), 1);
    }

    #[test]
    fn string_predicates() {
        let d = doc();
        assert_eq!(eval(&d, &q("/site/people/person[name=\"Ana\"]")).len(), 1);
        assert_eq!(eval(&d, &q("/site/people/person[@id=\"p1\"]")).len(), 1);
        assert!(eval(&d, &q("/site/people/person[name=\"Zeno\"]")).is_empty());
    }

    #[test]
    fn exists_predicate() {
        let d = doc();
        let r = eval(&d, &q("/site/people/person[phone]"));
        assert_eq!(r.len(), 1);
        let id_sym = d.interner().get("id").unwrap();
        assert_eq!(d.attribute(r[0], id_sym).unwrap(), Some("p1"));
    }

    #[test]
    fn boolean_predicates() {
        let d = doc();
        assert_eq!(
            eval(&d, &q("/site/people/person[age>30 and phone]")).len(),
            1
        );
        assert_eq!(
            eval(&d, &q("/site/people/person[age>30 or phone]")).len(),
            2
        );
        assert_eq!(eval(&d, &q("/site/people/person[not(phone)]")).len(), 1);
    }

    #[test]
    fn predicate_on_missing_path_is_false() {
        let d = doc();
        assert!(eval(&d, &q("/site/people/person[salary=10]")).is_empty());
    }

    #[test]
    fn non_numeric_text_never_equals_number() {
        let d = doc();
        assert!(eval(&d, &q("/site/people/person[name=31]")).is_empty());
    }

    #[test]
    fn deep_relative_predicate_path() {
        let d = parse(
            "<site><open_auctions><open_auction><bidder><increase>12</increase></bidder></open_auction>\
             <open_auction><bidder><increase>3</increase></bidder></open_auction></open_auctions></site>",
        )
        .unwrap();
        let r = eval(
            &d,
            &q("/site/open_auctions/open_auction[bidder/increase>10]"),
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn child_step_from_nested_contexts_keeps_context_order() {
        let d = parse("<r><a><a><b>in</b></a><b>out</b></a></r>").unwrap();
        // `//a` yields [outer a, inner a]; the outer a's child comes first
        // although it follows the inner a's child in document order.
        let r = eval(&d, &q("//a/b"));
        let values: Vec<String> = r.iter().map(|&n| string_value(&d, n)).collect();
        assert_eq!(values, vec!["out", "in"]);
    }

    #[test]
    fn documents_deeper_than_the_call_stack() {
        const DEPTH: usize = 100_000;
        let xml = format!(
            "<r>{}<b>x</b>{}</r>",
            "<a>".repeat(DEPTH),
            "</a>".repeat(DEPTH)
        );
        let d = parse(&xml).unwrap();
        let b = eval(&d, &q("//b"));
        assert_eq!(b.len(), 1);
        assert_eq!(eval(&d, &q("/r/a//b")), b);
        assert_eq!(eval(&d, &q("/r[a//b=\"x\"]")), vec![d.root()]);
        assert_eq!(string_value(&d, d.root()), "x");
    }
}
