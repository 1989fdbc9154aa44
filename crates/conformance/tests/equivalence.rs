//! Cursor-evaluator equivalence suite: the compiled streaming evaluator
//! (symbol-annotated plans + lazy sequence cursors) pinned against the
//! retained materialising evaluator (`flux_xquery::reference`) — same
//! output bytes across all three engine architectures and, for FluX,
//! sequential and shard counts {1, 2}, invariant run statistics, and
//! identical evaluation-error messages.
//!
//! Part of the release-mode `conformance` CI job.

use flux_conformance::{
    assert_cursor_matches_reference, options, print_only_document, run_engine_with, Domain,
    PRINT_ONLY_DTD,
};
use flux_xml::Document;
use flux_xquery::{
    eval_to_string, normalize, parse_query, pretty, reference_eval_to_string, AttrConstructor,
    AttrPart, CmpOp, Cond, Expr, Operand, Path, Step,
};
use fluxquery_core::{EngineKind, FluxEngine, Options, Parallelism};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Labels of the bibliography schemas (plus a bogus one the cursor's
/// literal-spelling fallback has to handle: no DTD declares it).
const LABELS: &[&str] = &["book", "title", "author", "editor", "publisher", "bogus"];
const OUTPUT_NAMES: &[&str] = &["r", "item", "entry"];
const STRINGS: &[&str] = &["alpha", "", "x<y&z"];
/// Comparison literals of the print-only arm: author string values of
/// [`print_only_document`] (one with all three escaped characters) and a
/// miss.
const PRINT_ONLY_STRINGS: &[&str] = &["A1 <x> & y > z", "F0 L3", "", "miss"];
/// Key steps of the join arm, from a book: values that repeat across
/// books (years, publishers, author names) and some that rarely do.
const KEYS: &[&str] = &["@year", "author", "price", "publisher", "title"];

struct QueryGen {
    rng: SmallRng,
    vars: Vec<String>,
    next_var: u32,
    budget: i32,
    /// Whether the `for` arm may emit value joins.
    joins: bool,
    /// Whether the constructor arm may emit print-only buffer shapes.
    print_only: bool,
}

impl QueryGen {
    fn new(seed: u64) -> Self {
        QueryGen {
            rng: SmallRng::seed_from_u64(seed),
            vars: vec!["ROOT".to_string()],
            next_var: 0,
            budget: 30,
            joins: false,
            print_only: false,
        }
    }

    /// The print-only arm, over the book bound by the outermost loop:
    /// authors that are only printed (once, twice, through a `let` or a
    /// loop variable) and authors a comparison, a further step or an
    /// attribute read keeps a tree.
    fn print_only_expr(&mut self, depth: usize) -> Expr {
        let book = self.vars[1].clone();
        let authors = Path::var(&book).child("author");
        let wrap = |content: Expr| Expr::Element {
            name: "w".to_string(),
            attributes: vec![],
            content: Box::new(content),
        };
        self.next_var += 1;
        let x = format!("v{}", self.next_var);
        match self.rng.gen_range(0..9) {
            0 => Expr::seq(vec![
                Expr::Path(authors.clone()),
                Expr::If {
                    cond: Box::new(Cond::Cmp {
                        lhs: Operand::Path(authors),
                        op: CmpOp::Eq,
                        rhs: Operand::StringLit(self.pick(PRINT_ONLY_STRINGS).to_string()),
                    }),
                    then_branch: Box::new(self.random_expr(depth.saturating_sub(1))),
                    else_branch: Box::new(Expr::StringLit("no".to_string())),
                },
            ]),
            1 | 2 => Expr::Let {
                var: x.clone(),
                value: Box::new(Expr::Path(authors)),
                body: Box::new(wrap(Expr::Var(x))),
            },
            3 | 4 => Expr::For {
                var: x.clone(),
                source: authors,
                where_clause: None,
                body: Box::new(wrap(Expr::Var(x))),
            },
            5 | 6 => Expr::seq(vec![
                Expr::Path(authors.clone()),
                Expr::Path(Path::var(&book).child("title")),
                Expr::Path(authors),
            ]),
            7 => Expr::For {
                var: x.clone(),
                source: authors,
                where_clause: None,
                body: Box::new(wrap(Expr::seq(vec![
                    Expr::Path(Path::var(&x).child("last")),
                    Expr::Var(x),
                ]))),
            },
            _ => {
                let mut role = authors.clone();
                role.steps.push(Step::Attribute("role".to_string()));
                Expr::Element {
                    name: "w".to_string(),
                    attributes: vec![AttrConstructor {
                        name: "r".to_string(),
                        value: vec![AttrPart::Expr(Expr::Path(role))],
                    }],
                    content: Box::new(Expr::Path(authors)),
                }
            }
        }
    }

    fn key_path(&mut self, var: &str) -> Path {
        let key = self.pick(KEYS);
        let mut path = Path::var(var);
        path.steps.push(match key.strip_prefix('@') {
            Some(attr) => Step::Attribute(attr.to_string()),
            None => Step::Child(key.to_string()),
        });
        path
    }

    /// The join arm: `for $x in $ROOT/bib/book, $y in $ROOT/bib/book
    /// where $x/K = $y/K' [and C] return …` — the inner loop is keyed on
    /// `$y/K'` and probed by `$x/K` once per outer book.
    fn join_expr(&mut self, depth: usize) -> Expr {
        self.next_var += 2;
        let (x, y) = (
            format!("v{}", self.next_var - 1),
            format!("v{}", self.next_var),
        );
        self.vars.push(x.clone());
        self.vars.push(y.clone());
        let mut cond = Cond::Cmp {
            lhs: Operand::Path(self.key_path(&x)),
            op: CmpOp::Eq,
            rhs: Operand::Path(self.key_path(&y)),
        };
        if self.rng.gen_bool(0.5) {
            cond = Cond::And(Box::new(cond), Box::new(self.random_cond(1)));
        }
        let body = self.random_expr(depth.saturating_sub(1));
        self.vars.truncate(self.vars.len() - 2);
        let books = Path::var("ROOT").child("bib").child("book");
        Expr::For {
            var: x,
            source: books.clone(),
            where_clause: None,
            body: Box::new(Expr::For {
                var: y,
                source: books,
                where_clause: Some(Box::new(cond)),
                body: Box::new(body),
            }),
        }
    }

    fn pick<'a>(&mut self, options: &'a [&'a str]) -> &'a str {
        options[self.rng.gen_range(0..options.len())]
    }

    fn random_path(&mut self, max_steps: usize) -> Path {
        let start = self.vars[self.rng.gen_range(0..self.vars.len())].clone();
        let mut path = Path::var(start);
        for _ in 0..self.rng.gen_range(0..=max_steps) {
            path = path.child(self.pick(LABELS).to_string());
        }
        if path.start == "ROOT" && path.steps.is_empty() {
            path = path.child("bib");
        }
        path
    }

    fn random_cond(&mut self, depth: usize) -> Cond {
        self.budget -= 1;
        if depth == 0 || self.budget <= 0 {
            return Cond::Exists(self.random_path(2));
        }
        match self.rng.gen_range(0..5) {
            0 => Cond::Cmp {
                lhs: Operand::Path(self.random_path(2)),
                op: if self.rng.gen_bool(0.5) {
                    CmpOp::Eq
                } else {
                    CmpOp::Lt
                },
                rhs: Operand::StringLit(self.pick(STRINGS).to_string()),
            },
            1 => Cond::And(
                Box::new(self.random_cond(depth - 1)),
                Box::new(self.random_cond(depth - 1)),
            ),
            2 => Cond::Not(Box::new(self.random_cond(depth - 1))),
            3 => Cond::Empty(self.random_path(2)),
            _ => Cond::Exists(self.random_path(2)),
        }
    }

    fn random_expr(&mut self, depth: usize) -> Expr {
        self.budget -= 1;
        if depth == 0 || self.budget <= 0 {
            return match self.rng.gen_range(0..3) {
                0 => Expr::StringLit(self.pick(STRINGS).to_string()),
                1 => {
                    let v = self.vars[self.rng.gen_range(0..self.vars.len())].clone();
                    if v == "ROOT" {
                        Expr::StringLit("doc".to_string())
                    } else {
                        Expr::Var(v)
                    }
                }
                _ => Expr::Path(self.random_path(2)),
            };
        }
        match self.rng.gen_range(0..8) {
            0..=2 if self.joins && self.rng.gen_bool(0.5) => self.join_expr(depth),
            3..=4 if self.print_only && self.rng.gen_bool(0.6) => self.print_only_expr(depth),
            0..=2 => {
                self.next_var += 1;
                let var = format!("v{}", self.next_var);
                let source = {
                    let mut p = self.random_path(1);
                    if p.steps.is_empty() {
                        p = p.child(self.pick(LABELS).to_string());
                    }
                    p
                };
                let where_clause = if self.rng.gen_bool(0.4) {
                    Some(Box::new(self.random_cond(1)))
                } else {
                    None
                };
                self.vars.push(var.clone());
                let body = self.random_expr(depth - 1);
                self.vars.pop();
                Expr::For {
                    var,
                    source,
                    where_clause,
                    body: Box::new(body),
                }
            }
            3..=4 => {
                let attributes = if self.rng.gen_bool(0.3) {
                    vec![AttrConstructor {
                        name: "k".to_string(),
                        value: vec![
                            AttrPart::Literal("v-".to_string()),
                            AttrPart::Expr(Expr::Path(self.random_path(1))),
                        ],
                    }]
                } else {
                    vec![]
                };
                let n = self.rng.gen_range(1..=2);
                let content = Expr::seq((0..n).map(|_| self.random_expr(depth - 1)).collect());
                Expr::Element {
                    name: self.pick(OUTPUT_NAMES).to_string(),
                    attributes,
                    content: Box::new(content),
                }
            }
            5 => Expr::If {
                cond: Box::new(self.random_cond(1)),
                then_branch: Box::new(self.random_expr(depth - 1)),
                else_branch: Box::new(self.random_expr(depth - 1)),
            },
            6 => Expr::Path(self.random_path(2)),
            _ => Expr::StringLit(self.pick(STRINGS).to_string()),
        }
    }
}

fn random_query(seed: u64) -> String {
    let mut g = QueryGen::new(seed);
    g.next_var += 1;
    let var = format!("v{}", g.next_var);
    g.vars.push(var.clone());
    let body = g.random_expr(3);
    g.vars.pop();
    pretty(&Expr::Element {
        name: "out".to_string(),
        attributes: vec![],
        content: Box::new(Expr::For {
            var,
            source: Path::var("ROOT").child("bib").child("book"),
            where_clause: None,
            body: Box::new(body),
        }),
    })
}

/// A random query over [`PRINT_ONLY_DTD`] documents whose book loop
/// body leads with a print-only shape, with more allowed below it.
fn random_print_only_query(seed: u64) -> String {
    let mut g = QueryGen::new(seed);
    g.print_only = true;
    g.next_var += 1;
    let var = format!("v{}", g.next_var);
    g.vars.push(var.clone());
    let first = g.print_only_expr(2);
    let second = if g.rng.gen_bool(0.5) {
        g.print_only_expr(2)
    } else {
        g.random_expr(1)
    };
    let body = Expr::seq(vec![first, second]);
    g.vars.pop();
    pretty(&Expr::Element {
        name: "out".to_string(),
        attributes: vec![],
        content: Box::new(Expr::For {
            var,
            source: Path::var("ROOT").child("bib").child("book"),
            where_clause: None,
            body: Box::new(body),
        }),
    })
}

/// A random query whose top level is a value join, with joins allowed
/// anywhere below it.
fn random_join_query(seed: u64) -> String {
    let mut g = QueryGen::new(seed);
    g.joins = true;
    let join = g.join_expr(3);
    pretty(&Expr::Element {
        name: "out".to_string(),
        attributes: vec![],
        content: Box::new(join),
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Keyed loops against the nested-loop reference: value joins with an
    /// optional extra conjunct, through the same grid.
    #[test]
    fn keyed_joins_match_reference(
        query_seed in 0u64..100_000,
        doc_seed in 0u64..1_000,
        weak in any::<bool>(),
    ) {
        let query = random_join_query(query_seed);
        let domain = if weak { Domain::BibWeak } else { Domain::BibFig1 };
        let doc = domain.document(0.12, doc_seed);
        assert_cursor_matches_reference(
            &format!("join seed {query_seed}/{doc_seed}"),
            &query,
            domain.dtd(),
            doc.as_bytes(),
        );
    }

    /// The print-only arm through the same grid, plus the injected-default
    /// check only the validating engine can take.
    #[test]
    fn print_only_buffers_match_reference(
        query_seed in 0u64..100_000,
        doc_seed in 0u64..1_000,
    ) {
        let query = random_print_only_query(query_seed);
        assert_print_only_matches_reference(
            &format!("print-only seed {query_seed}/{doc_seed}"),
            &query,
            doc_seed,
        );
    }

    /// The full grid: every sampled query, on both bibliography domains,
    /// must reproduce the materialising reference evaluator's output
    /// byte-for-byte through every engine × parallelism cell.
    #[test]
    fn cursor_evaluator_matches_reference(
        query_seed in 0u64..100_000,
        doc_seed in 0u64..1_000,
        weak in any::<bool>(),
    ) {
        let query = random_query(query_seed);
        let domain = if weak { Domain::BibWeak } else { Domain::BibFig1 };
        let doc = domain.document(0.12, doc_seed);
        assert_cursor_matches_reference(
            &format!("seed {query_seed}/{doc_seed}"),
            &query,
            domain.dtd(),
            doc.as_bytes(),
        );
    }
}

/// Runs `query` over the print-only documents of `doc_seed`: every engine
/// must match the reference on the document that spells its attribute
/// defaults out, and flux — the one validating engine, which injects
/// them — must print the same bytes from the document that leaves them
/// to the DTD, sequentially and at every shard count.
fn assert_print_only_matches_reference(label: &str, query: &str, doc_seed: u64) {
    let spelled = print_only_document(12, doc_seed, false);
    assert_cursor_matches_reference(label, query, PRINT_ONLY_DTD, spelled.as_bytes());
    let expected = reference_output(query, &spelled);
    let defaulted = print_only_document(12, doc_seed, true);
    assert_ne!(defaulted, spelled, "{label}: no default was left out");
    for parallelism in [
        Parallelism::Sequential,
        Parallelism::Shards(1),
        Parallelism::Shards(2),
    ] {
        let outcome = run_engine_with(
            EngineKind::Flux,
            query,
            PRINT_ONLY_DTD,
            defaulted.as_bytes(),
            &options(parallelism),
        )
        .unwrap_or_else(|e| panic!("{label}: {e}\n{query}"));
        assert_eq!(
            String::from_utf8_lossy(&outcome.output),
            expected,
            "{label}: injected defaults diverged ({parallelism:?})\n{query}"
        );
    }
}

/// The print-only shapes one by one, each with the representation its
/// plan must choose for the buffered authors.
#[test]
fn print_only_shapes_match_reference() {
    for (query, bdf) in [
        // Printed and compared: a tree.
        (
            r#"<out>{ for $b in $ROOT/bib/book return <r>{$b/title}{$b/author}{ if ($b/author = "A1 <x> & y > z") then "hit" else () }</r> }</out>"#,
            "{author:*}",
        ),
        // `let`-bound (inlined), loop-bound and plain: bytes.
        (
            "<out>{ for $b in $ROOT/bib/book return let $a := $b/author return <r>{$b/title}<w>{$a}</w></r> }</out>",
            "{author:bytes}",
        ),
        (
            "<out>{ for $b in $ROOT/bib/book return <r>{$b/title}{ for $x in $b/author return <w>{$x}</w> }</r> }</out>",
            "{author:bytes}",
        ),
        // The same nodes flushed twice.
        (
            "<out>{ for $b in $ROOT/bib/book return <r>{$b/title}{$b/author}{$b/price}{$b/author}</r> }</out>",
            "{author:bytes,price:bytes}",
        ),
        // A further step into a printed author: a tree.
        (
            "<out>{ for $b in $ROOT/bib/book return <r>{$b/title}{ for $x in $b/author return <w>{$x/last}{$x}</w> }</r> }</out>",
            "{author:*}",
        ),
        // Only an attribute read: each author's shell, keeping `role`
        // and none of the names it mints.
        (
            r#"<out>{ for $b in $ROOT/bib/book return <r>{$b/title}{ for $x in $b/author return <w r="{$x/@role}"/> }</r> }</out>"#,
            "{author:{@role}}",
        ),
        // The book is atomised, so it buffers its subtree under its own
        // node, and the authors copied from it keep every attribute.
        (
            r#"<out>{ for $b in $ROOT/bib/book return <r>{$b/title}<s v="{$b}"/>{$b/author}</r> }</out>"#,
            "*",
        ),
        // Atomised or compared, with nothing copied below it: the authors
        // it buffers under its own node keep the `role` read of them.
        (
            r#"<out>{ for $b in $ROOT/bib/book return <r><s v="{$b}"/>{ for $a in $b/author return <a i="{$a/@role}"/> }</r> }</out>"#,
            "*",
        ),
        (
            r#"<out>{ for $b in $ROOT/bib/book return if ($b = "x") then () else <a i="{$b/author/@role}"/> }</out>"#,
            "*",
        ),
    ] {
        let engine = FluxEngine::compile(query, PRINT_ONLY_DTD, &Options::new())
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        let explain = engine.explain();
        assert!(
            explain.contains(&format!("$b (on book): {bdf}\n")),
            "{query}: expected {bdf} in\n{explain}"
        );
        for doc_seed in 0..4 {
            assert_print_only_matches_reference("print-only", query, doc_seed);
        }
    }
}

/// The print-only arm only proves something if its queries really reach
/// both representations: many must seal serialized nodes, and some must
/// keep a buffered author a tree.
#[test]
fn print_only_arm_reaches_both_representations() {
    let doc = print_only_document(12, 1, false);
    let (mut sealed, mut trees) = (0, 0);
    for seed in 0..32 {
        let query = random_print_only_query(seed);
        let engine = FluxEngine::compile(&query, PRINT_ONLY_DTD, &Options::new())
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        let (_, report) = engine
            .run_input_with_report(fluxquery_core::Input::from_bytes(doc.clone()), Vec::new())
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        let serialized = report
            .find("runtime")
            .and_then(|r| r.counter_value("serialized_nodes"))
            .expect("runtime counters");
        sealed += usize::from(serialized > 0);
        trees += usize::from(engine.explain().contains("author: tree"));
    }
    assert!(
        sealed >= 12,
        "only {sealed} of 32 print-only queries sealed bytes"
    );
    assert!(
        trees >= 4,
        "only {trees} of 32 print-only queries kept authors trees"
    );
}

/// Evaluation errors must render identically from the cursor evaluator and
/// the reference evaluator — message for message, including the spelled
/// variable name.
#[test]
fn cursor_and_reference_agree_on_errors() {
    let doc =
        Document::parse_str("<bib><book><title>T</title><price>12</price></book></bib>").unwrap();

    // Unbound variable, and a `for` over a path that selects no element
    // nodes (text tail where elements are required).
    for query in [
        "<r>{$nowhere}</r>",
        r#"<r>{ for $b in $ROOT/bib/book return <x a="{$oops}"/> }</r>"#,
    ] {
        let parsed = parse_query(query).unwrap();
        let normalized = normalize(&parsed).unwrap();
        let cursor = eval_to_string(&doc, &normalized).expect_err("query must fail");
        let reference = reference_eval_to_string(&doc, &normalized).expect_err("query must fail");
        assert_eq!(
            cursor.to_string(),
            reference.to_string(),
            "error rendering diverged on {query}"
        );
    }
}

/// Both evaluators agree on well-formed deterministic shapes that exercise
/// every tail kind: attribute selection, `text()`, and nested predicates.
#[test]
fn tails_and_predicates_agree() {
    let doc = "<bib>\
        <book year=\"1994\"><title>TCP/IP Illustrated</title>\
        <author>Stevens</author><publisher>AW</publisher><price>65.95</price></book>\
        <book year=\"2000\"><title>Data on the Web</title>\
        <author>Abiteboul</author><author>Buneman</author>\
        <publisher>MK</publisher><price>39.95</price></book>\
        </bib>";
    for query in [
        r#"<out>{ for $b in $ROOT/bib/book return <r y="{$b/@year}">{$b/title/text()}</r> }</out>"#,
        r#"<out>{ for $b in $ROOT/bib/book where $b/price < "50" return $b/author }</out>"#,
        r#"<out>{ for $b in $ROOT/bib/book where $b/author = "Stevens" return $b/title }</out>"#,
    ] {
        assert_cursor_matches_reference(
            "deterministic",
            query,
            fluxquery_core::PAPER_FIG1_DTD,
            doc.as_bytes(),
        );
    }
}

/// The join arm is only worth its cases if the generated joins really run
/// through indexes. Under the Figure 1 DTD every key label exists, so the
/// optimizer folds none of them away and most joins probe.
#[test]
fn join_arm_reaches_keyed_loops() {
    let doc = Domain::BibFig1.document(0.12, 5);
    let probed = (0..16)
        .filter(|&seed| {
            let query = random_join_query(seed);
            let engine = FluxEngine::compile(&query, Domain::BibFig1.dtd(), &Options::new())
                .unwrap_or_else(|e| panic!("{query}: {e}"));
            let (_, report) = engine
                .run_input_with_report(fluxquery_core::Input::from_bytes(doc.clone()), Vec::new())
                .unwrap_or_else(|e| panic!("{query}: {e}"));
            let probes = report
                .find("runtime")
                .and_then(|r| r.counter_value("join_probes"))
                .expect("runtime counters");
            probes > 0
        })
        .count();
    assert!(
        probed >= 8,
        "only {probed} of 16 generated joins were keyed"
    );
}

/// People buffered before orders, as in AUC-JOIN: every order probes the
/// same buffered people, so each keyed loop below is built on the second
/// order and probed by every later one.
const JOIN_DTD: &str = "<!ELEMENT db (people, orders)>\n\
     <!ELEMENT people (person*)>\n\
     <!ELEMENT person (name, tag*)>\n\
     <!ATTLIST person id CDATA #IMPLIED>\n\
     <!ELEMENT name (#PCDATA)>\n\
     <!ELEMENT tag (#PCDATA)>\n\
     <!ELEMENT orders (order*)>\n\
     <!ELEMENT order (ref*)>\n\
     <!ELEMENT ref (#PCDATA)>";

/// A person per key canonicalisation case; the `None` id is a missing
/// key attribute.
const PEOPLE: &[(Option<&str>, &[&str])] = &[
    (Some("1.5"), &["x"]),
    (Some("1.50"), &[]),
    (Some(" 7 "), &[]),
    (Some("7"), &[]),
    (Some(" a"), &[]),
    (Some("a"), &[]),
    (Some("NaN"), &[]),
    (Some("NaN"), &[]),
    (Some("-0"), &[]),
    (Some("0"), &[]),
    (Some("dup"), &["t1"]),
    (Some("dup"), &[]),
    (None, &["t1", "t2"]),
    (Some("p7"), &["t2", "dup"]),
];

/// One order per probe case: each value above, a multi-valued probe whose
/// matches arrive out of document order, a repeated value, and none.
const ORDERS: &[&[&str]] = &[
    &["1.5"],
    &["7"],
    &["a"],
    &[" a"],
    &["NaN"],
    &["0"],
    &["p7", "dup"],
    &[],
    &["dup", "dup"],
    &["t2", "1.50"],
];

fn join_document(people: &[(Option<&str>, &[&str])]) -> String {
    let mut doc = String::from("<db><people>");
    for (i, (id, tags)) in people.iter().enumerate() {
        match id {
            Some(id) => doc.push_str(&format!("<person id=\"{id}\">")),
            None => doc.push_str("<person>"),
        }
        doc.push_str(&format!("<name>n{i}</name>"));
        for tag in *tags {
            doc.push_str(&format!("<tag>{tag}</tag>"));
        }
        doc.push_str("</person>");
    }
    doc.push_str("</people><orders>");
    for refs in ORDERS {
        doc.push_str("<order>");
        for r in *refs {
            doc.push_str(&format!("<ref>{r}</ref>"));
        }
        doc.push_str("</order>");
    }
    doc.push_str("</orders></db>");
    doc
}

fn join_query(filter: &str) -> String {
    format!(
        "<out>{{ for $o in $ROOT/db/orders/order, $p in $ROOT/db/people/person \
         where {filter} return <hit>{{$p/name/text()}}</hit> }}</out>"
    )
}

/// The `explain()` line of the `$p` loop.
fn person_loop_line(query: &str) -> String {
    let engine = FluxEngine::compile(query, JOIN_DTD, &Options::new())
        .unwrap_or_else(|e| panic!("{query}: {e}"));
    let explain = engine.explain();
    explain
        .lines()
        .find(|l| l.starts_with("for $p in "))
        .unwrap_or_else(|| panic!("no $p loop in:\n{explain}"))
        .to_string()
}

/// Key canonicalisation, duplicates, multi-valued keys and probes, missing
/// keys, empty probe sides and literal probes, each against the nested-
/// loop reference — and each really answered from an index.
#[test]
fn keyed_loop_edge_cases_match_reference() {
    let doc = join_document(PEOPLE);
    for filter in [
        "$o/ref = $p/@id",
        "$p/@id = $o/ref",
        "$p/tag = $o/ref",
        "$o/ref = $p/@id and exists($p/tag)",
        r#"$p/@id = "p7""#,
        r#"$p/@id = "a""#,
        "$p/@id = 7",
        "$p/@id = 0",
        r#"$p/@id = "NaN""#,
    ] {
        let query = join_query(filter);
        assert_cursor_matches_reference(filter, &query, JOIN_DTD, doc.as_bytes());
        assert!(
            person_loop_line(&query).contains("keyed on"),
            "{filter}: {}",
            person_loop_line(&query)
        );
        let engine = FluxEngine::compile(&query, JOIN_DTD, &Options::new()).unwrap();
        let (_, report) = engine
            .run_input_with_report(fluxquery_core::Input::from_bytes(doc.clone()), Vec::new())
            .unwrap();
        let runtime = report.find("runtime").expect("runtime stage");
        assert_eq!(
            runtime.counter_value("join_index_builds"),
            Some(1),
            "{filter}"
        );
        assert_eq!(
            runtime.counter_value("join_probes"),
            Some(ORDERS.len() as u64 - 1),
            "{filter}"
        );
    }
    // The general-comparison rule, spelled out for the id join: numbers
    // match numerically after trimming, strings exactly, NaN never; a
    // multi-valued probe yields its matches once each, in document order.
    let out = reference_output(&join_query("$o/ref = $p/@id"), &doc);
    let hits: Vec<&str> = out
        .split("<hit>")
        .skip(1)
        .map(|h| &h[..h.find('<').unwrap()])
        .collect();
    assert_eq!(
        hits,
        [
            "n0", "n1", // 1.5 = "1.5", "1.50"
            "n2", "n3", // 7 = " 7 ", "7"
            "n5", // a = "a", not " a"
            "n4", // " a" = " a"
            // NaN = nothing
            "n8", "n9", // 0 = "-0", "0"
            "n10", "n11", "n13", // p7, dup: document order
            // no refs: nothing
            "n10", "n11", // dup, dup: once each
            "n0", "n1", // t2 = nothing, 1.50 = "1.5", "1.50"
        ]
    );
}

fn reference_output(query: &str, doc: &str) -> String {
    flux_conformance::reference_output(query, doc.as_bytes()).unwrap()
}

/// An empty source never evaluates the probe, so an unbound variable in it
/// errors exactly when the nested loop's would: on the first person, and
/// not at all when there are no people.
#[test]
fn keyed_loop_errors_match_nested_loop() {
    let query = join_query("$p/@id = $nope/ref");
    let parsed = normalize(&parse_query(&query).unwrap()).unwrap();
    for people in [PEOPLE, &[]] {
        let doc = Document::parse_str(&join_document(people)).unwrap();
        let cursor = eval_to_string(&doc, &parsed).map_err(|e| e.to_string());
        let reference = reference_eval_to_string(&doc, &parsed).map_err(|e| e.to_string());
        assert_eq!(cursor, reference);
        assert_eq!(cursor.is_err(), !people.is_empty(), "{cursor:?}");
    }
}

/// Shapes the rewrite must leave alone stay nested loops in `explain()`,
/// and still agree with the reference.
#[test]
fn unkeyed_shapes_stay_nested_loops() {
    let doc = join_document(PEOPLE);
    for (query, reason) in [
        (
            "<out>{ for $o in $ROOT/db/orders/order, $p in $ROOT/db/people/person \
             return if ($o/ref = $p/@id) then <hit/> else <miss/> }</out>"
                .to_string(),
            "non-empty `else`",
        ),
        (join_query("$o/ref < $p/@id"), "`<` is not `=`"),
        (join_query("$o/ref != $p/@id"), "`!=` is not `=`"),
        (
            join_query(r#"$o/ref = $p/@id or $p/@id = "a""#),
            "the filter is an `or`",
        ),
        (
            join_query("$p/name = $p/@id"),
            "both sides of `=` are paths from the loop variable",
        ),
    ] {
        let line = person_loop_line(&query);
        assert!(
            line.contains("not keyed") && line.contains(reason),
            "{query}: {line}"
        );
        assert_cursor_matches_reference(reason, &query, JOIN_DTD, doc.as_bytes());
    }
}
