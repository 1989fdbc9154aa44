//! Algebraic optimization of normal-form XQuery using DTD constraints
//! (paper Sec. 3.1, step 2).
//!
//! Three rule families, applied together (the ablation switch,
//! `CompileOptions::optimizer`, skips the optimizer as a whole):
//!
//! * **R1 — loop merging under cardinality constraints**: adjacent loops
//!   over the same path `$x/a` merge when `a ∈ ||≤1 type(x)` (the paper's
//!   publisher example);
//! * **R2 — unsatisfiable-conditional elimination under language
//!   constraints**: a condition that requires both `$x/a` and `$x/b` to be
//!   nonempty is false when `never_together(type(x), a, b)` (the paper's
//!   author/editor example);
//! * **R3 — constraint-based constant folding**: `exists($x/a)` folds to
//!   true/false under `at_least_one`/`never_occurs`, and constant
//!   conditions propagate. Loops over labels the DTD rules out are left
//!   to the physical plan, which prunes them with the optimizer on or off.
//!
//! The optimizer runs to a fixpoint and records every application in a
//! trace for `explain()`.

use flux_dtd::{Dtd, Symbol, SymbolTable};
use flux_xquery::{Cond, Expr, Operand, Path, Step, VarName};
use std::collections::HashMap;

/// One applied rewrite, for the optimizer trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleApplication {
    /// "R1", "R2" or "R3".
    pub rule: &'static str,
    pub description: String,
}

/// Static types of variables: the element symbol a variable ranges over.
/// Variables over undeclared labels are untyped and get no optimization.
type TypeEnv = HashMap<VarName, Symbol>;

pub struct Optimizer<'d> {
    dtd: &'d Dtd,
    pub trace: Vec<RuleApplication>,
}

impl<'d> Optimizer<'d> {
    pub fn new(dtd: &'d Dtd) -> Self {
        Optimizer {
            dtd,
            trace: Vec::new(),
        }
    }

    /// Optimizes a normal-form expression to a fixpoint.
    pub fn optimize(&mut self, expr: &Expr) -> Expr {
        let mut env = TypeEnv::new();
        env.insert(flux_xquery::ROOT_VAR.to_string(), SymbolTable::DOCUMENT);
        let mut current = expr.clone();
        // The rule set strictly shrinks the expression, so the fixpoint
        // terminates; a generous bound guards against surprises.
        for _ in 0..64 {
            let before = self.trace.len();
            current = self.rewrite(&current, &mut env);
            if self.trace.len() == before {
                break;
            }
        }
        current
    }

    /// The element type a one-step child path ranges over, if known.
    fn step_type(&self, env: &TypeEnv, path: &Path) -> Option<(Symbol, Symbol)> {
        let parent = *env.get(&path.start)?;
        match path.steps.as_slice() {
            [Step::Child(label)] => {
                let child = self.dtd.lookup(label)?;
                Some((parent, child))
            }
            _ => None,
        }
    }

    fn rewrite(&mut self, expr: &Expr, env: &mut TypeEnv) -> Expr {
        match expr {
            Expr::Empty | Expr::StringLit(_) | Expr::Var(_) | Expr::Path(_) => expr.clone(),
            Expr::Sequence(items) => {
                // Splice before merging: constant folding can turn an item
                // into a nested sequence (or empty), and adjacent-loop
                // merging should see the spliced items, not the wrapper.
                let mut rewritten: Vec<Expr> = Vec::with_capacity(items.len());
                for item in items {
                    match self.rewrite(item, env) {
                        Expr::Empty => {}
                        Expr::Sequence(inner) => rewritten.extend(inner),
                        other => rewritten.push(other),
                    }
                }
                Expr::seq(self.merge_adjacent_loops(rewritten, env))
            }
            Expr::Element {
                name,
                attributes,
                content,
            } => Expr::Element {
                name: name.clone(),
                attributes: attributes.clone(),
                content: Box::new(self.rewrite(content, env)),
            },
            Expr::For {
                var,
                source,
                where_clause,
                body,
            } => {
                let shadowed = self.bind(env, var, source);
                let body = self.rewrite(body, env);
                self.unbind(env, var, shadowed);
                Expr::For {
                    var: var.clone(),
                    source: source.clone(),
                    where_clause: where_clause.clone(),
                    body: Box::new(body),
                }
            }
            Expr::Let { var, value, body } => Expr::Let {
                var: var.clone(),
                value: Box::new(self.rewrite(value, env)),
                body: Box::new(self.rewrite(body, env)),
            },
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let simplified = self.simplify_cond(cond, env);
                match simplified {
                    Cond::True => {
                        self.trace.push(RuleApplication {
                            rule: "R3",
                            description: "folded if(true())".to_string(),
                        });
                        self.rewrite(then_branch, env)
                    }
                    Cond::False => {
                        self.trace.push(RuleApplication {
                            rule: "R3",
                            description: "folded if(false()) to the else branch".to_string(),
                        });
                        self.rewrite(else_branch, env)
                    }
                    simplified => Expr::If {
                        cond: Box::new(simplified),
                        then_branch: Box::new(self.rewrite(then_branch, env)),
                        else_branch: Box::new(self.rewrite(else_branch, env)),
                    },
                }
            }
        }
    }

    fn bind(&self, env: &mut TypeEnv, var: &str, source: &Path) -> Option<Option<Symbol>> {
        let ty = self.step_type(env, source).map(|(_, child)| child);
        match ty {
            Some(ty) => Some(env.insert(var.to_string(), ty)),
            None => {
                // Untyped binding: remove any shadowed type so constraints
                // aren't wrongly applied inside the body.
                let old = env.remove(var);
                if old.is_some() {
                    Some(old)
                } else {
                    None
                }
            }
        }
    }

    fn unbind(&self, env: &mut TypeEnv, var: &str, shadowed: Option<Option<Symbol>>) {
        match shadowed {
            Some(Some(old)) => {
                env.insert(var.to_string(), old);
            }
            Some(None) | None => {
                env.remove(var);
            }
        }
    }

    /// R1: merges runs of adjacent for-loops over the same at-most-one path.
    fn merge_adjacent_loops(&mut self, items: Vec<Expr>, env: &TypeEnv) -> Vec<Expr> {
        let mut out: Vec<Expr> = Vec::with_capacity(items.len());
        for item in items {
            let merged = match (out.last_mut(), &item) {
                (
                    Some(Expr::For {
                        var: v1,
                        source: s1,
                        where_clause: None,
                        body: b1,
                    }),
                    Expr::For {
                        var: v2,
                        source: s2,
                        where_clause: None,
                        body: b2,
                    },
                ) if s1 == s2 => {
                    let at_most_one = self
                        .step_type(env, s1)
                        .is_some_and(|(parent, child)| self.dtd.at_most_one(parent, child));
                    if at_most_one {
                        // Rename $v2 to $v1 in the second body; the bodies
                        // of normalized loops never rebind these variables
                        // to conflicting values because normalizer-generated
                        // names are unique, but user queries can shadow, so
                        // check before renaming.
                        if rebinds(b2, v2) || uses_var(b1, v2) {
                            false
                        } else {
                            let renamed = rename_var(b2, v2, v1);
                            let combined = Expr::seq(vec![(**b1).clone(), renamed]);
                            self.trace.push(RuleApplication {
                                rule: "R1",
                                description: format!(
                                    "merged adjacent loops over {s1} (cardinality ≤ 1)"
                                ),
                            });
                            **b1 = combined;
                            true
                        }
                    } else {
                        false
                    }
                }
                _ => false,
            };
            if !merged {
                out.push(item);
            }
        }
        out
    }

    /// Simplifies a condition using schema constraints.
    fn simplify_cond(&mut self, cond: &Cond, env: &TypeEnv) -> Cond {
        // First: R2 global unsatisfiability of the whole condition.
        if let Some(desc) = self.unsatisfiable(cond, env) {
            self.trace.push(RuleApplication {
                rule: "R2",
                description: desc,
            });
            return Cond::False;
        }
        // Then: R3 leaf folding + boolean propagation.
        self.fold_cond(cond, env)
    }

    /// Returns a description when the condition cannot hold on any valid
    /// document: some conjunctively-required pair of sibling paths is
    /// excluded by a language constraint.
    fn unsatisfiable(&self, cond: &Cond, env: &TypeEnv) -> Option<String> {
        let required = required_paths(cond);
        for (i, p1) in required.iter().enumerate() {
            for p2 in &required[i + 1..] {
                if p1.start != p2.start {
                    continue;
                }
                let Some((parent, a)) = self.step_type(env, p1) else {
                    continue;
                };
                let Some((_, b)) = self.step_type(env, p2) else {
                    continue;
                };
                if a != b && self.dtd.never_together(parent, a, b) {
                    return Some(format!(
                        "condition requires both {p1} and {p2}, but `{}` and `{}` never occur together below `{}`",
                        self.dtd.name(a),
                        self.dtd.name(b),
                        self.dtd.name(parent)
                    ));
                }
            }
        }
        None
    }

    fn fold_cond(&mut self, cond: &Cond, env: &TypeEnv) -> Cond {
        match cond {
            Cond::True | Cond::False => cond.clone(),
            Cond::Exists(p) => match self.path_possibility(p, env) {
                Some(true) => {
                    self.trace.push(RuleApplication {
                        rule: "R3",
                        description: format!("exists({p}) always holds (cardinality ≥ 1)"),
                    });
                    Cond::True
                }
                Some(false) => {
                    self.trace.push(RuleApplication {
                        rule: "R3",
                        description: format!("exists({p}) never holds (label impossible)"),
                    });
                    Cond::False
                }
                None => cond.clone(),
            },
            Cond::Empty(p) => match self.path_possibility(p, env) {
                Some(true) => Cond::False,
                Some(false) => Cond::True,
                None => cond.clone(),
            },
            Cond::Cmp { lhs, op, rhs } => {
                // A comparison over an impossible path is false (existential
                // semantics over an empty sequence).
                for operand in [lhs, rhs] {
                    if let Operand::Path(p) = operand {
                        if self.path_possibility(p, env) == Some(false) {
                            self.trace.push(RuleApplication {
                                rule: "R3",
                                description: format!(
                                    "comparison over impossible path {p} is false"
                                ),
                            });
                            return Cond::False;
                        }
                    }
                }
                Cond::Cmp {
                    lhs: lhs.clone(),
                    op: *op,
                    rhs: rhs.clone(),
                }
            }
            Cond::And(a, b) => {
                let fa = self.fold_cond(a, env);
                let fb = self.fold_cond(b, env);
                match (fa, fb) {
                    (Cond::False, _) | (_, Cond::False) => Cond::False,
                    (Cond::True, other) | (other, Cond::True) => other,
                    (fa, fb) => Cond::And(Box::new(fa), Box::new(fb)),
                }
            }
            Cond::Or(a, b) => {
                let fa = self.fold_cond(a, env);
                let fb = self.fold_cond(b, env);
                match (fa, fb) {
                    (Cond::True, _) | (_, Cond::True) => Cond::True,
                    (Cond::False, other) | (other, Cond::False) => other,
                    (fa, fb) => Cond::Or(Box::new(fa), Box::new(fb)),
                }
            }
            Cond::Not(c) => match self.fold_cond(c, env) {
                Cond::True => Cond::False,
                Cond::False => Cond::True,
                folded => Cond::Not(Box::new(folded)),
            },
        }
    }

    /// `Some(true)`: the path always has matches; `Some(false)`: never.
    fn path_possibility(&self, path: &Path, env: &TypeEnv) -> Option<bool> {
        let parent = *env.get(&path.start)?;
        let [Step::Child(label)] = path.steps.as_slice() else {
            return None;
        };
        match self.dtd.lookup(label) {
            Some(child) => {
                if self.dtd.never_occurs(parent, child) {
                    Some(false)
                } else if self.dtd.at_least_one(parent, child) {
                    Some(true)
                } else {
                    None
                }
            }
            None => {
                if self.dtd.element(parent).is_some() {
                    Some(false)
                } else {
                    None
                }
            }
        }
    }
}

/// Paths whose nonemptiness the condition requires to hold (an
/// under-approximation that distributes over `and` and intersects over
/// `or`; comparisons require both operand paths nonempty).
fn required_paths(cond: &Cond) -> Vec<Path> {
    match cond {
        Cond::Cmp { lhs, rhs, .. } => {
            let mut out = Vec::new();
            if let Operand::Path(p) = lhs {
                out.push(p.clone());
            }
            if let Operand::Path(p) = rhs {
                out.push(p.clone());
            }
            out
        }
        Cond::Exists(p) => vec![p.clone()],
        Cond::And(a, b) => {
            let mut out = required_paths(a);
            out.extend(required_paths(b));
            out
        }
        Cond::Or(a, b) => {
            let left = required_paths(a);
            let right = required_paths(b);
            left.into_iter().filter(|p| right.contains(p)).collect()
        }
        Cond::Not(_) | Cond::Empty(_) | Cond::True | Cond::False => Vec::new(),
    }
}

/// Whether `expr` rebinds `var` somewhere inside.
fn rebinds(expr: &Expr, var: &str) -> bool {
    let mut found = false;
    expr.visit(&mut |e| match e {
        Expr::For { var: v, .. } | Expr::Let { var: v, .. } if v == var => found = true,
        _ => {}
    });
    found
}

/// Whether `expr` uses `var` freely.
fn uses_var(expr: &Expr, var: &str) -> bool {
    flux_xquery::free_vars(expr).contains(var)
}

/// Renames free occurrences of `from` to `to` (caller has checked that no
/// capture can occur).
fn rename_var(expr: &Expr, from: &str, to: &str) -> Expr {
    use flux_xquery::{AttrConstructor, AttrPart};
    let rename_path = |p: &Path| -> Path {
        if p.start == from {
            Path {
                start: to.to_string(),
                steps: p.steps.clone(),
            }
        } else {
            p.clone()
        }
    };
    let rename_operand = |o: &Operand| -> Operand {
        match o {
            Operand::Path(p) => Operand::Path(rename_path(p)),
            other => other.clone(),
        }
    };
    fn rename_cond(
        c: &Cond,
        rp: &impl Fn(&Path) -> Path,
        ro: &impl Fn(&Operand) -> Operand,
    ) -> Cond {
        match c {
            Cond::Cmp { lhs, op, rhs } => Cond::Cmp {
                lhs: ro(lhs),
                op: *op,
                rhs: ro(rhs),
            },
            Cond::And(a, b) => Cond::And(
                Box::new(rename_cond(a, rp, ro)),
                Box::new(rename_cond(b, rp, ro)),
            ),
            Cond::Or(a, b) => Cond::Or(
                Box::new(rename_cond(a, rp, ro)),
                Box::new(rename_cond(b, rp, ro)),
            ),
            Cond::Not(inner) => Cond::Not(Box::new(rename_cond(inner, rp, ro))),
            Cond::Exists(p) => Cond::Exists(rp(p)),
            Cond::Empty(p) => Cond::Empty(rp(p)),
            Cond::True => Cond::True,
            Cond::False => Cond::False,
        }
    }
    match expr {
        Expr::Empty | Expr::StringLit(_) => expr.clone(),
        Expr::Var(v) => Expr::Var(if v == from { to.to_string() } else { v.clone() }),
        Expr::Path(p) => Expr::Path(rename_path(p)),
        Expr::Sequence(items) => {
            Expr::Sequence(items.iter().map(|e| rename_var(e, from, to)).collect())
        }
        Expr::Element {
            name,
            attributes,
            content,
        } => Expr::Element {
            name: name.clone(),
            attributes: attributes
                .iter()
                .map(|a| AttrConstructor {
                    name: a.name.clone(),
                    value: a
                        .value
                        .iter()
                        .map(|part| match part {
                            AttrPart::Literal(t) => AttrPart::Literal(t.clone()),
                            AttrPart::Expr(e) => AttrPart::Expr(rename_var(e, from, to)),
                        })
                        .collect(),
                })
                .collect(),
            content: Box::new(rename_var(content, from, to)),
        },
        Expr::For {
            var,
            source,
            where_clause,
            body,
        } => {
            let source = rename_path(source);
            if var == from {
                // Shadowed below: only the source sees the rename.
                Expr::For {
                    var: var.clone(),
                    source,
                    where_clause: where_clause.clone(),
                    body: body.clone(),
                }
            } else {
                Expr::For {
                    var: var.clone(),
                    source,
                    where_clause: where_clause
                        .as_ref()
                        .map(|c| Box::new(rename_cond(c, &rename_path, &rename_operand))),
                    body: Box::new(rename_var(body, from, to)),
                }
            }
        }
        Expr::Let { var, value, body } => Expr::Let {
            var: var.clone(),
            value: Box::new(rename_var(value, from, to)),
            body: if var == from {
                body.clone()
            } else {
                Box::new(rename_var(body, from, to))
            },
        },
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => Expr::If {
            cond: Box::new(rename_cond(cond, &rename_path, &rename_operand)),
            then_branch: Box::new(rename_var(then_branch, from, to)),
            else_branch: Box::new(rename_var(else_branch, from, to)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_dtd::PAPER_FIG1_DTD;
    use flux_xquery::{normalize, parse_query, pretty};

    fn optimize(q: &str, dtd: &Dtd) -> (Expr, Vec<RuleApplication>) {
        let nf = normalize(&parse_query(q).unwrap()).unwrap();
        let mut opt = Optimizer::new(dtd);
        let out = opt.optimize(&nf);
        (out, opt.trace.clone())
    }

    fn fig1() -> Dtd {
        Dtd::parse(PAPER_FIG1_DTD).unwrap()
    }

    #[test]
    fn r1_merges_publisher_loops() {
        // The paper's Sec. 3.1 example: two loops over $book/publisher.
        let dtd = fig1();
        let q = r#"<out>{ for $b in $ROOT/bib/book return
            <r>{ for $x in $b/publisher return <a>{$x}</a> }
               { for $y in $b/publisher return <bb>{$y}</bb> }</r> }</out>"#;
        let (out, trace) = optimize(q, &dtd);
        assert!(trace.iter().any(|r| r.rule == "R1"), "{trace:?}");
        // Only one publisher loop remains.
        let printed = pretty(&out);
        assert_eq!(printed.matches("in $b/publisher").count(), 1, "{printed}");
    }

    #[test]
    fn r1_not_applied_to_authors() {
        // author is not ≤1 under Fig. 1, so merging would be wrong.
        let dtd = fig1();
        let q = r#"<out>{ for $b in $ROOT/bib/book return
            <r>{ for $x in $b/author return <a>{$x}</a> }
               { for $y in $b/author return <bb>{$y}</bb> }</r> }</out>"#;
        let (out, trace) = optimize(q, &dtd);
        assert!(!trace.iter().any(|r| r.rule == "R1"), "{trace:?}");
        let printed = pretty(&out);
        assert_eq!(printed.matches("in $b/author").count(), 2, "{printed}");
    }

    #[test]
    fn r2_eliminates_goedel_condition() {
        // The paper's example: author = "Goedel" and editor = "Goedel"
        // cannot both hold under Fig. 1.
        let dtd = fig1();
        let q = r#"<out>{ for $b in $ROOT/bib/book return
            if ($b/author = "Goedel" and $b/editor = "Goedel")
            then <hit/> else () }</out>"#;
        let (out, trace) = optimize(q, &dtd);
        assert!(trace.iter().any(|r| r.rule == "R2"), "{trace:?}");
        let printed = pretty(&out);
        assert!(
            !printed.contains("<hit"),
            "then branch eliminated: {printed}"
        );
        assert!(
            !printed.contains("if ("),
            "conditional folded away: {printed}"
        );
    }

    #[test]
    fn r2_keeps_satisfiable_disjunction() {
        let dtd = fig1();
        let q = r#"<out>{ for $b in $ROOT/bib/book return
            if ($b/author = "Goedel" or $b/editor = "Goedel")
            then <hit/> else () }</out>"#;
        let (_, trace) = optimize(q, &dtd);
        assert!(!trace.iter().any(|r| r.rule == "R2"), "{trace:?}");
    }

    #[test]
    fn r2_through_or_distribution() {
        // (author = X or author = Y) and editor = Z still requires
        // author+editor jointly: or-branches both require author.
        let dtd = fig1();
        let q = r#"<out>{ for $b in $ROOT/bib/book return
            if (($b/author = "X" or $b/author = "Y") and $b/editor = "Z")
            then <hit/> else () }</out>"#;
        let (_, trace) = optimize(q, &dtd);
        assert!(trace.iter().any(|r| r.rule == "R2"), "{trace:?}");
    }

    #[test]
    fn r3_exists_title_always_true() {
        let dtd = fig1();
        let q = r#"<out>{ for $b in $ROOT/bib/book return
            if (exists($b/title)) then <y/> else <n/> }</out>"#;
        let (out, trace) = optimize(q, &dtd);
        assert!(trace.iter().any(|r| r.rule == "R3"), "{trace:?}");
        let printed = pretty(&out);
        assert!(printed.contains("<y/>"), "{printed}");
        assert!(!printed.contains("<n/>"), "{printed}");
    }

    #[test]
    fn disabled_config_changes_nothing() {
        let dtd = fig1();
        let q = r#"<out>{ for $b in $ROOT/bib/book return
            if ($b/author = "Goedel" and $b/editor = "Goedel")
            then <hit/> else () }</out>"#;
        let options = crate::CompileOptions {
            optimizer: false,
            ..crate::CompileOptions::default()
        };
        let compiled = crate::compile(q, &dtd, &options).unwrap();
        assert_eq!(compiled.optimized, compiled.normalized);
        assert!(compiled.algebra_trace.is_empty());
    }

    #[test]
    fn weak_dtd_no_rules_fire() {
        let dtd = Dtd::parse(flux_dtd::PAPER_WEAK_DTD).unwrap();
        let q = r#"<out>{ for $b in $ROOT/bib/book return
            <r>{ for $x in $b/title return <a>{$x}</a> }
               { for $y in $b/title return <bb>{$y}</bb> }</r> }</out>"#;
        let (_, trace) = optimize(q, &dtd);
        assert!(trace.is_empty(), "{trace:?}");
    }

    #[test]
    fn untyped_variables_get_no_optimization() {
        // `chapter` is undeclared: $c is untyped; nothing may fire on its
        // children even if label names coincide.
        let dtd = fig1();
        let q = r#"<out>{ for $b in $ROOT/bib/book return
            for $c in $b/title return
            if ($c/sub = "x" and $c/sub2 = "y") then <h/> else () }</out>"#;
        let (_, trace) = optimize(q, &dtd);
        // title is declared (#PCDATA): sub/sub2 are impossible below it →
        // R3 folds the comparison to false. This is correct and desired.
        assert!(trace.iter().any(|r| r.rule == "R3"), "{trace:?}");
    }
}
