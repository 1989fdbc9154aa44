//! Randomized query fuzzing: generate structurally valid queries of the
//! supported fragment from a seed, then check that all four engine
//! configurations produce byte-identical output on generated documents.
//!
//! This is the strongest correctness artifact in the suite: the scheduler's
//! streaming/buffering decisions, the algebraic rewrites, the XSAX firing
//! positions and the buffer projections all have to agree with the plain
//! tree-at-a-time semantics on every sampled query.

use flux_conformance::{
    engine_configurations, print_only_document, run_engine, run_engine_with, skip_document, Domain,
    PRINT_ONLY_DTD, SKIP_DTD, SKIP_SHAPES,
};
use fluxquery::xquery::{
    pretty, AttrConstructor, AttrPart, CmpOp, Cond, Expr, Operand, Path, Step,
};
use fluxquery::EngineKind;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Labels that exist in the bibliography schemas (plus a bogus one the
/// optimizer should prune).
const LABELS: &[&str] = &[
    "book",
    "title",
    "author",
    "editor",
    "publisher",
    "price",
    "bogus",
];
const OUTPUT_NAMES: &[&str] = &["r", "item", "entry", "wrap", "x"];
const STRINGS: &[&str] = &["alpha", "beta", "", "Goedel", "x<y&z"];
/// Comparison literals of the print-only arm: author string values of
/// [`print_only_document`] and a miss.
const PRINT_ONLY_STRINGS: &[&str] = &["A1 <x> & y > z", "F0 L3", "", "miss"];
/// Key steps of the join arm, from a book.
const KEYS: &[&str] = &["@year", "author", "price", "publisher", "title"];

struct QueryGen {
    rng: SmallRng,
    /// In-scope variables (innermost last).
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
            budget: 40,
            joins: false,
            print_only: false,
        }
    }

    /// The print-only arm, over the book bound by the outermost loop:
    /// authors only printed (once, twice, through a `let` or a loop
    /// variable), and authors a comparison, a further step or an
    /// attribute read keeps a tree.
    fn print_only_expr(&mut self, depth: usize) -> Expr {
        let book = self.vars[1].clone();
        let authors = Path::var(&book).child("author");
        let wrap = |content: Expr| Expr::Element {
            name: "w".to_string(),
            attributes: vec![],
            content: Box::new(content),
        };
        let x = self.fresh_var();
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
    /// where $x/K = $y/K' [and C] return …`, a keyed loop over `$y`.
    fn join_expr(&mut self, depth: usize) -> Expr {
        let (x, y) = (self.fresh_var(), self.fresh_var());
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

    fn fresh_var(&mut self) -> String {
        self.next_var += 1;
        format!("v{}", self.next_var)
    }

    fn random_path(&mut self, max_steps: usize) -> Path {
        let start = self.vars[self.rng.gen_range(0..self.vars.len())].clone();
        let mut path = Path::var(start);
        let steps = self.rng.gen_range(0..=max_steps);
        for _ in 0..steps {
            let label = self.pick(LABELS).to_string();
            path = path.child(label);
        }
        // The document variable needs at least one step to be useful in a
        // for-source; content positions accept bare vars.
        if path.start == "ROOT" && path.steps.is_empty() {
            path = path.child("bib");
        }
        path
    }

    fn random_operand(&mut self) -> Operand {
        match self.rng.gen_range(0..3) {
            0 => Operand::Path(self.random_path(2)),
            1 => Operand::StringLit(self.pick(STRINGS).to_string()),
            _ => Operand::NumberLit(format!("{}", self.rng.gen_range(0..120))),
        }
    }

    fn random_cond(&mut self, depth: usize) -> Cond {
        self.budget -= 1;
        if depth == 0 || self.budget <= 0 {
            return Cond::Exists(self.random_path(2));
        }
        match self.rng.gen_range(0..7) {
            0 => Cond::Cmp {
                lhs: self.random_operand(),
                op: match self.rng.gen_range(0..6) {
                    0 => CmpOp::Eq,
                    1 => CmpOp::Ne,
                    2 => CmpOp::Lt,
                    3 => CmpOp::Le,
                    4 => CmpOp::Gt,
                    _ => CmpOp::Ge,
                },
                rhs: self.random_operand(),
            },
            1 => Cond::And(
                Box::new(self.random_cond(depth - 1)),
                Box::new(self.random_cond(depth - 1)),
            ),
            2 => Cond::Or(
                Box::new(self.random_cond(depth - 1)),
                Box::new(self.random_cond(depth - 1)),
            ),
            3 => Cond::Not(Box::new(self.random_cond(depth - 1))),
            4 => Cond::Empty(self.random_path(2)),
            5 => Cond::True,
            _ => Cond::Exists(self.random_path(2)),
        }
    }

    fn random_expr(&mut self, depth: usize) -> Expr {
        self.budget -= 1;
        if depth == 0 || self.budget <= 0 {
            return match self.rng.gen_range(0..3) {
                0 => Expr::StringLit(self.pick(STRINGS).to_string()),
                1 => {
                    // A bare variable (whole copy) — but never the document.
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
        match self.rng.gen_range(0..10) {
            0..=2 if self.joins && self.rng.gen_bool(0.5) => self.join_expr(depth),
            3..=5 if self.print_only && self.rng.gen_bool(0.6) => self.print_only_expr(depth),
            0..=2 => {
                // for-loop over a schema path.
                let var = self.fresh_var();
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
            3..=5 => {
                // element constructor, sometimes with an attribute template.
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
                let n = self.rng.gen_range(1..=3);
                let content = Expr::seq((0..n).map(|_| self.random_expr(depth - 1)).collect());
                Expr::Element {
                    name: self.pick(OUTPUT_NAMES).to_string(),
                    attributes,
                    content: Box::new(content),
                }
            }
            6 => Expr::If {
                cond: Box::new(self.random_cond(2)),
                then_branch: Box::new(self.random_expr(depth - 1)),
                else_branch: Box::new(self.random_expr(depth - 1)),
            },
            7 => {
                let n = self.rng.gen_range(2..=3);
                Expr::seq((0..n).map(|_| self.random_expr(depth - 1)).collect())
            }
            8 => Expr::Path(self.random_path(2)),
            _ => Expr::StringLit(self.pick(STRINGS).to_string()),
        }
    }
}

/// Builds a random closed query: a root constructor around a book loop with
/// random body.
fn random_query(seed: u64) -> String {
    let mut g = QueryGen::new(seed);
    let var = g.fresh_var();
    g.vars.push(var.clone());
    let body = g.random_expr(3);
    g.vars.pop();
    let query = Expr::Element {
        name: "out".to_string(),
        attributes: vec![],
        content: Box::new(Expr::For {
            var,
            source: Path::var("ROOT").child("bib").child("book"),
            where_clause: None,
            body: Box::new(body),
        }),
    };
    pretty(&query)
}

/// A random query over [`PRINT_ONLY_DTD`] documents whose book loop body
/// leads with a print-only shape, with more allowed below it.
fn random_print_only_query(seed: u64) -> String {
    let mut g = QueryGen::new(seed);
    g.print_only = true;
    let var = g.fresh_var();
    g.vars.push(var.clone());
    let body = Expr::seq(vec![g.print_only_expr(2), g.random_expr(2)]);
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

/// Runs `query` through all four engine configurations: their outputs
/// must agree byte for byte.
fn assert_engines_agree(query: &str, dtd: &str, doc: &str, case: &str) -> Vec<u8> {
    let mut reference: Option<Vec<u8>> = None;
    for (label, kind, options) in engine_configurations() {
        let outcome = run_engine_with(kind, query, dtd, doc.as_bytes(), &options)
            .unwrap_or_else(|e| panic!("{label} failed ({case}):\n{query}\n{e}"));
        match &reference {
            None => reference = Some(outcome.output),
            Some(expected) => assert_eq!(
                String::from_utf8_lossy(&outcome.output),
                String::from_utf8_lossy(expected),
                "{label} diverged on {case}:\n{query}",
            ),
        }
    }
    reference.expect("four engines ran")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_queries_agree_across_engines(
        query_seed in 0u64..100_000,
        doc_seed in 0u64..1_000,
        weak in any::<bool>(),
    ) {
        let domain = if weak { Domain::BibWeak } else { Domain::BibFig1 };
        assert_engines_agree(
            &random_query(query_seed),
            domain.dtd(),
            &domain.document(0.15, doc_seed),
            &format!("query_seed={query_seed} doc_seed={doc_seed} weak={weak}"),
        );
    }

    /// The same, over value joins: keyed loops in every engine.
    #[test]
    fn random_joins_agree_across_engines(
        query_seed in 0u64..100_000,
        doc_seed in 0u64..1_000,
        weak in any::<bool>(),
    ) {
        let domain = if weak { Domain::BibWeak } else { Domain::BibFig1 };
        assert_engines_agree(
            &random_join_query(query_seed),
            domain.dtd(),
            &domain.document(0.15, doc_seed),
            &format!("join query_seed={query_seed} doc_seed={doc_seed} weak={weak}"),
        );
    }

    /// Print-only buffer shapes: all four configurations agree on the
    /// document that spells attribute defaults out, and flux — which
    /// injects them — prints the same bytes when the DTD supplies them.
    #[test]
    fn random_print_only_queries_agree_across_engines(
        query_seed in 0u64..100_000,
        doc_seed in 0u64..1_000,
    ) {
        let query = random_print_only_query(query_seed);
        let case = format!("print-only query_seed={query_seed} doc_seed={doc_seed}");
        let spelled = print_only_document(10, doc_seed, false);
        let agreed = assert_engines_agree(&query, PRINT_ONLY_DTD, &spelled, &case);
        let defaulted = print_only_document(10, doc_seed, true);
        let flux = run_engine(EngineKind::Flux, &query, PRINT_ONLY_DTD, defaulted.as_bytes())
            .unwrap_or_else(|e| panic!("flux failed ({case}):\n{query}\n{e}"));
        assert_eq!(
            String::from_utf8_lossy(&flux.output),
            String::from_utf8_lossy(&agreed),
            "injected defaults diverged on {case}:\n{query}"
        );
    }

    /// Skipped-subtree shapes: whatever the reader hops in flux, the
    /// baselines materialise — all four configurations print the same.
    #[test]
    fn skip_shapes_agree_across_engines(
        shape in 0..SKIP_SHAPES.len(),
        doc_seed in 0u64..1_000,
    ) {
        assert_engines_agree(
            SKIP_SHAPES[shape],
            SKIP_DTD,
            &skip_document(10, doc_seed),
            &format!("skip shape={shape} doc_seed={doc_seed}"),
        );
    }
}

/// A quick deterministic sweep (fast path for `cargo test` without
/// proptest's shrinking machinery) over a contiguous seed range, including
/// the buffer-everything scheduling ablation as a third implementation.
#[test]
fn seed_sweep_deterministic() {
    use fluxquery::{FluxEngine, Options};
    let doc_weak = Domain::BibWeak.document(0.1, 7);
    let doc_fig1 = Domain::BibFig1.document(0.1, 7);
    for seed in 0..150u64 {
        let query = random_query(seed);
        for (domain, doc) in [(Domain::BibWeak, &doc_weak), (Domain::BibFig1, &doc_fig1)] {
            let flux = run_engine(EngineKind::Flux, &query, domain.dtd(), doc.as_bytes())
                .unwrap_or_else(|e| panic!("flux failed on seed {seed}:\n{query}\n{e}"));
            let dom = run_engine(EngineKind::Dom, &query, domain.dtd(), doc.as_bytes())
                .unwrap_or_else(|e| panic!("dom failed on seed {seed}:\n{query}\n{e}"));
            assert_eq!(
                String::from_utf8_lossy(&flux.output),
                String::from_utf8_lossy(&dom.output),
                "divergence on seed {seed}:\n{query}"
            );
            let ablated =
                FluxEngine::compile(&query, domain.dtd(), &Options::new().streaming(false))
                    .unwrap_or_else(|e| {
                        panic!("ablated compile failed on seed {seed}:\n{query}\n{e}")
                    });
            let mut out = Vec::new();
            ablated
                .run_input(fluxquery::Input::from_bytes(doc.clone()), &mut out)
                .unwrap_or_else(|e| panic!("ablated run failed on seed {seed}:\n{query}\n{e}"));
            assert_eq!(
                String::from_utf8_lossy(&out),
                String::from_utf8_lossy(&dom.output),
                "ablated engine diverged on seed {seed}:\n{query}"
            );
        }
    }
}
