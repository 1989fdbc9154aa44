//! Cursor-evaluator equivalence suite: the compiled streaming evaluator
//! (symbol-annotated plans + lazy sequence cursors) pinned against the
//! retained materialising evaluator (`flux_xquery::reference`) — same
//! output bytes across all three engine architectures, shard counts
//! {1, 2} and bounded/unbounded interners, invariant run statistics, and
//! identical evaluation-error messages.
//!
//! Part of the release-mode `conformance` CI job.

use flux_conformance::{assert_cursor_matches_reference, Domain};
use flux_xml::Document;
use flux_xquery::{
    eval_to_string, normalize, parse_query, pretty, reference_eval_to_string, AttrConstructor,
    AttrPart, CmpOp, Cond, Expr, Operand, Path,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Labels of the bibliography schemas (plus a bogus one the cursor's
/// literal-spelling fallback has to handle: no DTD declares it).
const LABELS: &[&str] = &["book", "title", "author", "editor", "publisher", "bogus"];
const OUTPUT_NAMES: &[&str] = &["r", "item", "entry"];
const STRINGS: &[&str] = &["alpha", "", "x<y&z"];

struct QueryGen {
    rng: SmallRng,
    vars: Vec<String>,
    next_var: u32,
    budget: i32,
}

impl QueryGen {
    fn new(seed: u64) -> Self {
        QueryGen {
            rng: SmallRng::seed_from_u64(seed),
            vars: vec!["ROOT".to_string()],
            next_var: 0,
            budget: 30,
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// The full grid: every sampled query, on both bibliography domains,
    /// must reproduce the materialising reference evaluator's output
    /// byte-for-byte through every engine × shards × interner-cap cell.
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
