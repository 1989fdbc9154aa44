//! The full compilation pipeline of the paper's query optimizer (Fig. 2):
//! XQuery → normal form → algebraic optimization → FluX → safety check.

use crate::algebra::{Optimizer, RuleApplication};
use crate::ast::FluxExpr;
use crate::error::Result;
use crate::pretty::pretty_flux;
use crate::rewrite::Rewriter;
use crate::safety::check_safety;
use flux_dtd::Dtd;
use flux_xquery::{normalize, parse_query, pretty, Expr};

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
}

impl FluxQuery {
    /// Number of `on-first` (buffering) handlers — the static buffering
    /// obligations of the plan.
    pub fn buffered_handler_count(&self) -> usize {
        self.flux.buffered_handler_count()
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
        out
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
    Ok(FluxQuery {
        source: source.clone(),
        normalized,
        optimized,
        flux,
        algebra_trace: optimizer.trace,
        schedule_trace: rewriter.trace,
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
