//! The full compilation pipeline of the paper's query optimizer (Fig. 2):
//! XQuery → normal form → algebraic optimization → FluX → safety check.

use crate::algebra::{Optimizer, RuleApplication};
use crate::ast::FluxExpr;
use crate::error::Result;
use crate::pretty::pretty_flux;
use crate::rewrite::Rewriter;
use crate::safety::check_safety;
use flux_dtd::{Dtd, Symbol};
use flux_xquery::{normalize, parse_query, pretty, AttrPart, Cond, Expr, Operand, Path, Step};

/// Options for [`compile`]: the two ablation switches. The independent
/// safety check always runs on the scheduled FluX query, so scheduler
/// bugs are hard errors.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Run the algebraic optimizer (on by default). Off, the normal form
    /// goes to the scheduler unchanged.
    pub optimizer: bool,
    /// Ablation switch: disable streaming handlers entirely; every item is
    /// buffered with `on-first`. Isolates the contribution of the paper's
    /// order-constraint scheduling.
    pub disable_streaming: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            optimizer: true,
            disable_streaming: false,
        }
    }
}

/// A fully compiled query with every intermediate stage retained for
/// inspection (`explain`) and execution.
#[derive(Debug, Clone)]
pub struct FluxQuery {
    /// The query as parsed.
    pub source: Expr,
    /// After normalization.
    pub normalized: Expr,
    /// After algebraic optimization.
    pub optimized: Expr,
    /// The scheduled FluX query the runtime executes.
    pub flux: FluxExpr,
    /// Applied algebraic rules.
    pub algebra_trace: Vec<RuleApplication>,
    /// Scheduling decisions.
    pub schedule_trace: Vec<String>,
    /// The query's path-label vocabulary, interned against the DTD at
    /// compile time: `(label, symbol)` sorted by label, `None` for labels
    /// the DTD does not declare. This is the symbol space the physical
    /// plan's buffer-description edges are keyed by — the runtime never
    /// rebuilds a per-run index.
    pub label_symbols: Vec<(String, Option<Symbol>)>,
}

impl FluxQuery {
    /// Number of `on-first` (buffering) handlers — the static buffering
    /// obligations of the plan.
    pub fn buffered_handler_count(&self) -> usize {
        self.flux.buffered_handler_count()
    }

    /// Resolves a path label through the vocabulary interned at compile
    /// time (sorted by label), falling back to `dtd` for labels outside
    /// it. This is the resolver the physical plan compiles its
    /// symbol-annotated handler bodies with: every label the query names
    /// resolves against the same index space the stream's seeded interner
    /// uses, so handler evaluation never hashes a declared label.
    pub fn resolve_label(&self, dtd: &Dtd, label: &str) -> Option<Symbol> {
        match self
            .label_symbols
            .binary_search_by(|(l, _)| l.as_str().cmp(label))
        {
            Ok(i) => self.label_symbols[i].1,
            Err(_) => dtd.lookup(label),
        }
    }

    /// A human-readable report of every compilation stage.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str("== normalized query ==\n");
        out.push_str(&pretty(&self.normalized));
        out.push_str("\n\n== algebraic optimization ==\n");
        if self.algebra_trace.is_empty() {
            out.push_str("(no rules applied)\n");
        } else {
            for rule in &self.algebra_trace {
                out.push_str(&format!("[{}] {}\n", rule.rule, rule.description));
            }
            out.push_str(&pretty(&self.optimized));
            out.push('\n');
        }
        out.push_str("\n== scheduling ==\n");
        for line in &self.schedule_trace {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("\n== FluX query ==\n");
        out.push_str(&pretty_flux(&self.flux));
        out.push('\n');
        let undeclared: Vec<&str> = self
            .label_symbols
            .iter()
            .filter(|(_, sym)| sym.is_none())
            .map(|(label, _)| label.as_str())
            .collect();
        if !undeclared.is_empty() {
            out.push_str(&format!(
                "\n(labels not declared in the DTD, matched only by spelling: {})\n",
                undeclared.join(", ")
            ));
        }
        out
    }
}

/// Collects every `child::label` step of the query into `out` (the labels
/// the buffer-description forest will key its edges by).
fn collect_labels(expr: &Expr, out: &mut std::collections::BTreeSet<String>) {
    fn path(p: &Path, out: &mut std::collections::BTreeSet<String>) {
        for step in &p.steps {
            if let Step::Child(label) = step {
                out.insert(label.clone());
            }
        }
    }
    fn cond(c: &Cond, out: &mut std::collections::BTreeSet<String>) {
        match c {
            Cond::True | Cond::False => {}
            Cond::And(a, b) | Cond::Or(a, b) => {
                cond(a, out);
                cond(b, out);
            }
            Cond::Not(inner) => cond(inner, out),
            Cond::Exists(p) | Cond::Empty(p) => path(p, out),
            Cond::Cmp { lhs, rhs, .. } => {
                for operand in [lhs, rhs] {
                    if let Operand::Path(p) = operand {
                        path(p, out);
                    }
                }
            }
        }
    }
    match expr {
        Expr::Empty | Expr::StringLit(_) | Expr::Var(_) => {}
        Expr::Path(p) => path(p, out),
        Expr::Sequence(items) => {
            for item in items {
                collect_labels(item, out);
            }
        }
        Expr::Element {
            attributes,
            content,
            ..
        } => {
            for attr in attributes {
                for part in &attr.value {
                    if let AttrPart::Expr(e) = part {
                        collect_labels(e, out);
                    }
                }
            }
            collect_labels(content, out);
        }
        Expr::For {
            source,
            where_clause,
            body,
            ..
        } => {
            path(source, out);
            if let Some(c) = where_clause {
                cond(c, out);
            }
            collect_labels(body, out);
        }
        Expr::Let { value, body, .. } => {
            collect_labels(value, out);
            collect_labels(body, out);
        }
        Expr::If {
            cond: c,
            then_branch,
            else_branch,
        } => {
            cond(c, out);
            collect_labels(then_branch, out);
            collect_labels(else_branch, out);
        }
    }
}

/// Compiles XQuery text against a DTD.
pub fn compile(query: &str, dtd: &Dtd, options: &CompileOptions) -> Result<FluxQuery> {
    let source = parse_query(query)?;
    compile_expr(&source, dtd, options)
}

/// Compiles an already-parsed query.
pub fn compile_expr(source: &Expr, dtd: &Dtd, options: &CompileOptions) -> Result<FluxQuery> {
    let normalized = normalize(source)?;
    let mut optimizer = Optimizer::new(dtd);
    let optimized = if options.optimizer {
        optimizer.optimize(&normalized)
    } else {
        normalized.clone()
    };
    let mut rewriter = if options.disable_streaming {
        Rewriter::without_streaming(dtd)
    } else {
        Rewriter::new(dtd)
    };
    let flux = rewriter.rewrite(&optimized)?;
    check_safety(&flux, dtd)?;
    // Intern the query's label vocabulary once, at compile time: these are
    // the symbols the plan's spec edges and handler dispatch compare
    // against on the hot path.
    let mut labels = std::collections::BTreeSet::new();
    collect_labels(&optimized, &mut labels);
    let label_symbols = labels
        .into_iter()
        .map(|label| {
            let sym = dtd.lookup(&label);
            (label, sym)
        })
        .collect();
    Ok(FluxQuery {
        source: source.clone(),
        normalized,
        optimized,
        flux,
        algebra_trace: optimizer.trace,
        schedule_trace: rewriter.trace,
        label_symbols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_dtd::{PAPER_FIG1_DTD, PAPER_WEAK_DTD};

    const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

    #[test]
    fn pipeline_q3() {
        let dtd = Dtd::parse(PAPER_FIG1_DTD).unwrap();
        let compiled = compile(Q3, &dtd, &CompileOptions::default()).unwrap();
        assert_eq!(compiled.buffered_handler_count(), 0);
        let explain = compiled.explain();
        assert!(explain.contains("process-stream"), "{explain}");
        assert!(explain.contains("on title as"), "{explain}");
    }

    #[test]
    fn pipeline_weak_dtd() {
        let dtd = Dtd::parse(PAPER_WEAK_DTD).unwrap();
        let compiled = compile(Q3, &dtd, &CompileOptions::default()).unwrap();
        assert_eq!(compiled.buffered_handler_count(), 1);
    }

    #[test]
    fn optimizer_effect_visible_in_flux() {
        // Without R1, two publisher loops -> two handlers; with R1 they
        // merge into one.
        let dtd = Dtd::parse(PAPER_FIG1_DTD).unwrap();
        let q = r#"<out>{ for $b in $ROOT/bib/book return
            <r>{ for $x in $b/publisher return <a>{$x}</a> }
               { for $y in $b/publisher return <bb>{$y}</bb> }</r> }</out>"#;
        let with = compile(q, &dtd, &CompileOptions::default()).unwrap();
        let without = compile(
            q,
            &dtd,
            &CompileOptions {
                optimizer: false,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert!(with.algebra_trace.iter().any(|r| r.rule == "R1"));
        assert!(without.algebra_trace.is_empty());
        let with_printed = pretty_flux(&with.flux);
        let without_printed = pretty_flux(&without.flux);
        assert_eq!(
            with_printed.matches("on publisher").count(),
            1,
            "{with_printed}"
        );
        // Unmerged: the second loop cannot stream after the first
        // (publisher ≤ 1 makes it schedulable actually — both stream).
        assert!(
            without_printed.matches("publisher").count() >= 2,
            "{without_printed}"
        );
    }

    #[test]
    fn parse_error_propagates() {
        let dtd = Dtd::parse(PAPER_WEAK_DTD).unwrap();
        assert!(compile("<r>{", &dtd, &CompileOptions::default()).is_err());
    }
}
