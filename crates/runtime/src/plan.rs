//! Physical query plans: the compiled form of a FluX query that the
//! streamed evaluator executes (paper Sec. 3.2: "query compiler").
//!
//! Compilation walks the FluX tree once, building
//! * the **BDF** (projection specs per scope variable, [`crate::bdf`]),
//! * the list of **past queries** to register with XSAX, in firing order,
//! * a mirrored plan tree with all schema lookups resolved,
//! * per process-stream, the **child action table** its walk follows
//!   ([`PsPlan::walk`]).
//!
//! Whatever the DTD rules out is pruned on the way: an `on` handler, a
//! loop in a buffered body and a BDF edge whose label can never occur
//! under its parent's type ([`Dtd::never_occurs`]) are dropped, and so are
//! an `on-first` handler and a process-stream they leave empty.
//!
//! Every name the plan compares is a [`Symbol`] of one table, the run's
//! *vocabulary* ([`Plan::symbols`]): the DTD's elements and declared
//! attributes ([`seeded_symbols`]) plus every label the query names,
//! interned as the plan compiles. Handler labels, BDF edges and
//! attributes, and the path steps of handler bodies and attribute
//! templates — compiled here, once, into [`CompiledExpr`]s whose
//! variables are dense slots in one plan-wide [`SlotMap`] — all resolve
//! through it. Every run's reader is seeded from a clone, so the executor
//! and the streaming cursor evaluator match names by integer equality:
//! no per-firing hash lookups, no spelling compares, no per-firing
//! environment maps.

use crate::bdf::{collect_attribute_needs, collect_needs, SpecArena, SpecId};
use crate::error::{Result, RuntimeError};
use flux_dtd::{Dtd, Symbol, SymbolTable};
use flux_lang::{FluxExpr, FluxQuery, Handler, PastSet};
use flux_xquery::{
    compile_attr, compile_expr, explain_loops, free_vars, CompiledAttr, CompiledExpr, Expr,
    SlotMap, Step, VarName, ROOT_VAR,
};
use flux_xsax::{seeded_symbols, ChildAction, PastLabels};
use std::collections::BTreeSet;
use std::rc::Rc;

/// Index of a process-stream plan.
pub type PsId = usize;

/// A compiled expression tree.
#[derive(Debug, Clone)]
pub enum PlanExpr {
    Empty,
    /// Constant text output.
    Text(String),
    /// Evaluate a compiled expression over the buffer store, now.
    BufferedEval(Rc<CompiledExpr>),
    Sequence(Vec<PlanExpr>),
    Element {
        name: String,
        /// Attribute templates, compiled against the plan's slot map.
        attributes: Rc<Vec<CompiledAttr>>,
        content: Box<PlanExpr>,
        /// True when the content contains a process-stream or stream-copy:
        /// the end tag is owed when the current child element closes.
        deferred_close: bool,
    },
    /// Copy the current child's events through to the output.
    StreamCopy,
    /// Enter a process-stream over the current scope.
    Ps(PsId),
}

/// One handler of a compiled process-stream.
#[derive(Debug, Clone)]
pub enum HandlerPlan {
    On {
        /// The label in the plan's vocabulary. The executor dispatches on
        /// it by symbol equality. A label the DTD does not declare never
        /// matches: the validator rejects such an element first.
        symbol: Symbol,
        var: VarName,
        /// The bound variable's slot in the plan-wide [`SlotMap`].
        var_slot: usize,
        /// Buffer spec for the bound variable's scope shell.
        spec: SpecId,
        /// Whether a firing binds a scope shell at all: false when the
        /// plan proves the variable is never read — its spec is empty and
        /// no compiled expression mentions it. A nested process-stream
        /// over the variable reads its scope, not its shell.
        binds: bool,
        body: PlanExpr,
    },
    OnFirstPast {
        labels: PastSet,
        /// Index into [`Plan::past_regs`] (and the XSAX `PastId` space);
        /// `None` for document-level handlers, which the executor times
        /// itself via `doc_timing`.
        past_reg: Option<usize>,
        /// For document-level handlers: fire before or after the root.
        doc_timing: DocTiming,
        body: Rc<CompiledExpr>,
    },
}

/// When a document-level `on-first` handler fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocTiming {
    /// Not a document-level handler (fired by XSAX).
    Element,
    /// Before the root element is processed.
    AtStart,
    /// After the root element has closed.
    AtEnd,
}

/// A compiled process-stream.
#[derive(Debug, Clone)]
pub struct PsPlan {
    pub var: VarName,
    /// Element type of the scope (DOCUMENT for the `$ROOT` stream).
    pub element: Option<Symbol>,
    pub handlers: Vec<HandlerPlan>,
    /// The BDF root of the scope's shell, which [`PsPlan::walk`] is built
    /// from.
    pub spec: SpecId,
    /// The walk's action per child symbol (indexed by [`Symbol::index`];
    /// absent symbols deliver) when the scope is *walkable*: a child the
    /// DTD allows there is read by nothing (*skip*), only by one pure
    /// stream-copy handler whose variable binds no shell (*copy*), or only
    /// by a print-only node of the shell's BDF (*capture*) — copy and
    /// capture for a text-only child type with no registration of its
    /// own. Empty otherwise, and when the shell keeps the whole subtree.
    /// The scope's own `on-first` registrations do not stop the walk:
    /// [`flux_xsax::XsaxParser::walk`] stops where a fire comes due. The
    /// executor walks a scope's children only while the scope's frame
    /// neither copies nor captures and fills no tree buffer but the
    /// shell's, under [`PsPlan::spec`].
    pub walk: Vec<ChildAction>,
}

/// A past-query registration for XSAX.
#[derive(Debug, Clone)]
pub struct PastReg {
    pub element: Symbol,
    pub labels: PastLabels,
    pub ps: PsId,
    pub handler_index: usize,
}

/// The complete physical plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub top: PlanExpr,
    pub ps: Vec<PsPlan>,
    pub specs: SpecArena,
    /// Spec root for the `$ROOT` document scope.
    pub root_spec: SpecId,
    pub past_regs: Vec<PastReg>,
    /// Variable numbering shared by every compiled expression in the plan;
    /// the executor's binding array is sized from this.
    pub slots: SlotMap,
    /// `$ROOT`'s slot (always allocated first).
    pub root_slot: usize,
    /// The run's vocabulary: [`seeded_symbols`] of the DTD plus every
    /// label the query names. Every symbol in the plan is one of its
    /// entries, and every source [`crate::execute`] reads must be seeded
    /// from a clone of it.
    pub symbols: SymbolTable,
}

impl Plan {
    /// Renders the BDF for explain output: per scope, its projection with
    /// each kept-whole node's representation (`bytes` for print-only
    /// subtrees, `*` for trees), then one line per tree naming the use
    /// that keeps it one.
    pub fn render_bdf(&self) -> String {
        let (specs, names) = (&self.specs, &self.symbols);
        let mut out = String::new();
        out.push_str(&format!("$ROOT: {}\n", specs.render(self.root_spec, names)));
        specs.render_tree_reasons(self.root_spec, names, "  ", &mut out);
        for ps in &self.ps {
            for handler in &ps.handlers {
                if let HandlerPlan::On {
                    symbol, var, spec, ..
                } = handler
                {
                    if !specs.is_empty_spec(*spec) {
                        out.push_str(&format!(
                            "${var} (on {}): {}\n",
                            names.name(*symbol),
                            specs.render(*spec, names)
                        ));
                        specs.render_tree_reasons(*spec, names, "  ", &mut out);
                    }
                }
            }
        }
        out
    }

    /// Renders, for explain output, one line per walkable process-stream:
    /// the children its walk copies, captures and skips, in DTD order.
    pub fn render_walks(&self) -> String {
        let mut out = String::new();
        for ps in self.ps.iter().filter(|ps| !ps.walk.is_empty()) {
            let labels = |want: ChildAction| {
                let names: Vec<&str> = (ps.walk.iter().enumerate())
                    .filter(|&(_, &action)| action == want)
                    .map(|(i, _)| self.symbols.name(Symbol::from_index(i)))
                    .collect();
                names.join(", ")
            };
            let actions = [
                ("copy", ChildAction::Copy),
                ("capture", ChildAction::Capture),
                ("skip", ChildAction::Skip),
            ];
            let parts: Vec<String> = (actions.into_iter())
                .map(|(verb, action)| (verb, labels(action)))
                .filter(|(_, names)| !names.is_empty())
                .map(|(verb, names)| format!("{verb} {names}"))
                .collect();
            out.push_str(&format!("walk under ${}: {}\n", ps.var, parts.join("; ")));
        }
        if out.is_empty() {
            out.push_str("(no walkable scopes)\n");
        }
        out
    }

    /// Renders, for explain output, one line per `for` in the buffered
    /// bodies: keyed (on which key, probed by what) or why not.
    pub fn render_loops(&self) -> String {
        let mut out = String::new();
        self.loops_in(&self.top, &mut out);
        if out.is_empty() {
            out.push_str("(no loops in buffered bodies)\n");
        }
        out
    }

    fn loops_in(&self, expr: &PlanExpr, out: &mut String) {
        match expr {
            PlanExpr::BufferedEval(e) => explain_loops(e, &self.slots, out),
            PlanExpr::Sequence(items) => {
                for item in items {
                    self.loops_in(item, out);
                }
            }
            PlanExpr::Element { content, .. } => self.loops_in(content, out),
            PlanExpr::Ps(id) => {
                for handler in &self.ps[*id].handlers {
                    match handler {
                        HandlerPlan::On { body, .. } => self.loops_in(body, out),
                        HandlerPlan::OnFirstPast { body, .. } => {
                            explain_loops(body, &self.slots, out)
                        }
                    }
                }
            }
            PlanExpr::Empty | PlanExpr::Text(_) | PlanExpr::StreamCopy => {}
        }
    }
}

/// Compiles a FluX query into a physical plan, building the run's
/// vocabulary ([`Plan::symbols`]) as it goes: the BDF's edges and
/// attributes, the handler labels and the compiled expressions' path
/// steps are all keyed by its symbols, so the executor never builds a
/// per-run index and never hashes or compares a label's spelling.
pub fn compile_plan(query: &FluxQuery, dtd: &Dtd) -> Result<Plan> {
    let mut compiler = Compiler {
        dtd,
        symbols: seeded_symbols(dtd),
        specs: SpecArena::new(),
        ps: Vec::new(),
        past_regs: Vec::new(),
        scopes: Vec::new(),
        slots: SlotMap::new(),
        read_vars: BTreeSet::new(),
        spec_roots: Vec::new(),
    };
    let root_slot = compiler.slots.slot(ROOT_VAR);
    let root_spec = compiler.specs.new_root();
    compiler
        .spec_roots
        .push((root_spec, Some(SymbolTable::DOCUMENT)));
    compiler.scopes.push(ScopeEntry {
        var: ROOT_VAR.to_string(),
        spec: root_spec,
        element: Some(SymbolTable::DOCUMENT),
    });
    let top = compiler.compile(&query.flux)?;
    for &(root, element) in &compiler.spec_roots {
        if let Some(element) = element {
            compiler.specs.prune_impossible(root, element, dtd);
        }
    }
    compiler.specs.mark_output_only();
    for handler in compiler.ps.iter_mut().flat_map(|ps| &mut ps.handlers) {
        if let HandlerPlan::On {
            var, spec, binds, ..
        } = handler
        {
            *binds = !compiler.specs.is_empty_spec(*spec) || compiler.read_vars.contains(var);
        }
    }
    let walks: Vec<Vec<ChildAction>> = compiler
        .ps
        .iter()
        .map(|ps| compiler.walk_table(ps))
        .collect();
    for (ps, walk) in compiler.ps.iter_mut().zip(walks) {
        ps.walk = walk;
    }
    Ok(Plan {
        top,
        ps: compiler.ps,
        specs: compiler.specs,
        root_spec,
        past_regs: compiler.past_regs,
        slots: compiler.slots,
        root_slot,
        symbols: compiler.symbols,
    })
}

struct ScopeEntry {
    var: VarName,
    spec: SpecId,
    element: Option<Symbol>,
}

struct Compiler<'d> {
    dtd: &'d Dtd,
    /// The vocabulary every label is interned into.
    symbols: SymbolTable,
    specs: SpecArena,
    ps: Vec<PsPlan>,
    past_regs: Vec<PastReg>,
    scopes: Vec<ScopeEntry>,
    /// Plan-wide variable numbering for every compiled expression.
    slots: SlotMap,
    /// Every variable a compiled expression mentions.
    read_vars: BTreeSet<VarName>,
    /// Every scope's BDF root, with the element type it stands for.
    spec_roots: Vec<(SpecId, Option<Symbol>)>,
}

/// Whether a FluX subtree contains a process-stream or stream-copy (the
/// "spine"), which defers enclosing constructors' end tags.
fn contains_spine(expr: &FluxExpr) -> bool {
    match expr {
        FluxExpr::Empty | FluxExpr::StringLit(_) | FluxExpr::Buffered(_) => false,
        FluxExpr::StreamCopy(_) | FluxExpr::ProcessStream { .. } => true,
        FluxExpr::Sequence(items) => items.iter().any(contains_spine),
        FluxExpr::Element { content, .. } => contains_spine(content),
    }
}

impl<'d> Compiler<'d> {
    fn scope_pairs(&self) -> Vec<(VarName, SpecId)> {
        self.scopes
            .iter()
            .map(|s| (s.var.clone(), s.spec))
            .collect()
    }

    /// Records the buffering needs of `e` — in content position, or as an
    /// attribute value template part — in the BDF, interning path labels
    /// into the vocabulary, and the variables it reads.
    fn collect_buffered_needs(&mut self, e: &Expr, attribute: bool) {
        let pairs = self.scope_pairs();
        let collect = if attribute {
            collect_attribute_needs
        } else {
            collect_needs
        };
        let symbols = &mut self.symbols;
        collect(&mut self.specs, e, &pairs, &mut |label| {
            symbols.intern(label)
        });
        self.read_vars.extend(free_vars(e));
    }

    /// Compiles a buffered normal-form expression against the plan's slot
    /// map and vocabulary.
    fn compile_buffered(&mut self, e: &Expr) -> Result<CompiledExpr> {
        let (symbols, slots) = (&mut self.symbols, &mut self.slots);
        compile_expr(e, slots, &mut |label| symbols.intern(label)).map_err(Into::into)
    }

    fn compile(&mut self, expr: &FluxExpr) -> Result<PlanExpr> {
        match expr {
            FluxExpr::Empty => Ok(PlanExpr::Empty),
            FluxExpr::StringLit(s) => Ok(PlanExpr::Text(s.clone())),
            FluxExpr::StreamCopy(_) => Ok(PlanExpr::StreamCopy),
            FluxExpr::Buffered(e) => {
                let e = self.prune_loops(e, &mut Vec::new());
                if e == Expr::Empty {
                    return Ok(PlanExpr::Empty);
                }
                self.collect_buffered_needs(&e, false);
                Ok(PlanExpr::BufferedEval(Rc::new(self.compile_buffered(&e)?)))
            }
            FluxExpr::Sequence(items) => Ok(PlanExpr::Sequence(
                items
                    .iter()
                    .map(|i| self.compile(i))
                    .collect::<Result<Vec<_>>>()?,
            )),
            FluxExpr::Element {
                name,
                attributes,
                content,
            } => {
                // Attribute templates read buffered data: record their
                // needs, then compile them against the plan's slot map.
                let mut compiled_attrs = Vec::with_capacity(attributes.len());
                for attr in attributes {
                    for part in &attr.value {
                        if let flux_xquery::AttrPart::Expr(e) = part {
                            self.collect_buffered_needs(e, true);
                        }
                    }
                    let (symbols, slots) = (&mut self.symbols, &mut self.slots);
                    compiled_attrs.push(
                        compile_attr(attr, slots, &mut |label| symbols.intern(label))
                            .map_err(RuntimeError::from)?,
                    );
                }
                let deferred_close = contains_spine(content);
                let content = self.compile(content)?;
                Ok(PlanExpr::Element {
                    name: name.clone(),
                    attributes: Rc::new(compiled_attrs),
                    content: Box::new(content),
                    deferred_close,
                })
            }
            FluxExpr::ProcessStream { var, handlers } => {
                // `compile_plan` pushes `$ROOT`'s scope before compiling.
                let scope = self.scopes.last().filter(|s| s.var == *var);
                let Some(&ScopeEntry { element, spec, .. }) = scope else {
                    return Err(RuntimeError::Plan {
                        message: format!("process-stream ${var} does not match its scope"),
                    });
                };
                let ps_id = self.ps.len();
                // Reserve the slot so nested process-streams get later ids.
                self.ps.push(PsPlan {
                    var: var.clone(),
                    element,
                    handlers: Vec::new(),
                    spec,
                    walk: Vec::new(),
                });
                let mut compiled: Vec<HandlerPlan> = Vec::new();
                for handler in handlers {
                    match handler {
                        Handler::On {
                            label,
                            var: v,
                            body,
                        } => {
                            if self.impossible(element, label) {
                                continue;
                            }
                            let spec = self.specs.new_root();
                            let var_slot = self.slots.slot(v);
                            let child = self.dtd.lookup(label);
                            self.spec_roots.push((spec, child));
                            self.scopes.push(ScopeEntry {
                                var: v.clone(),
                                spec,
                                element: child,
                            });
                            let body = self.compile(body);
                            self.scopes.pop();
                            compiled.push(HandlerPlan::On {
                                symbol: self.symbols.intern(label),
                                var: v.clone(),
                                var_slot,
                                spec,
                                binds: true,
                                body: body?,
                            });
                        }
                        Handler::OnFirstPast { labels, body } => {
                            let FluxExpr::Buffered(e) = body else {
                                return Err(RuntimeError::Plan {
                                    message: "on-first bodies must be buffered XQuery".to_string(),
                                });
                            };
                            let e = &self.prune_loops(e, &mut Vec::new());
                            if *e == Expr::Empty {
                                continue;
                            }
                            self.collect_buffered_needs(e, false);
                            let handler_index = compiled.len();
                            let (past_reg, doc_timing) = match element {
                                Some(sym) if sym != SymbolTable::DOCUMENT => {
                                    let reg = self.past_regs.len();
                                    self.past_regs.push(PastReg {
                                        element: sym,
                                        labels: to_xsax_labels(labels, self.dtd),
                                        ps: ps_id,
                                        handler_index,
                                    });
                                    (Some(reg), DocTiming::Element)
                                }
                                Some(_) => (None, self.doc_timing(labels)),
                                None => {
                                    // Scope over an undeclared element: the
                                    // validator rejects such documents, so
                                    // the handler can never fire.
                                    (None, DocTiming::Element)
                                }
                            };
                            compiled.push(HandlerPlan::OnFirstPast {
                                labels: labels.clone(),
                                past_reg,
                                doc_timing,
                                body: Rc::new(self.compile_buffered(e)?),
                            });
                        }
                    }
                }
                if compiled.is_empty() {
                    // Every handler was pruned: nothing to dispatch.
                    return Ok(PlanExpr::Empty);
                }
                self.ps[ps_id].handlers = compiled;
                Ok(PlanExpr::Ps(ps_id))
            }
        }
    }

    /// Whether the DTD rules out a `label` child under `parent`: no valid
    /// document has one, so a handler on it never fires.
    fn impossible(&self, parent: Option<Symbol>, label: &str) -> bool {
        let Some(dfa) = parent.and_then(|p| self.dtd.content_dfa(p)) else {
            return false;
        };
        self.dtd
            .lookup(label)
            .map_or(true, |child| dfa.never_occurs(child))
    }

    /// `expr` without the loops over labels the DTD rules out: `for $v in
    /// $x/l/…` yields nothing when `l` cannot occur below the element type
    /// of `$x` — an enclosing scope's variable, or a loop variable over a
    /// one-step path, as `types` (innermost last) and the scopes say.
    fn prune_loops(&self, expr: &Expr, types: &mut Vec<(VarName, Option<Symbol>)>) -> Expr {
        match expr {
            Expr::Empty | Expr::StringLit(_) | Expr::Var(_) | Expr::Path(_) => expr.clone(),
            Expr::Sequence(items) => {
                Expr::seq(items.iter().map(|i| self.prune_loops(i, types)).collect())
            }
            Expr::Element {
                name,
                attributes,
                content,
            } => Expr::Element {
                name: name.clone(),
                attributes: attributes.clone(),
                content: Box::new(self.prune_loops(content, types)),
            },
            Expr::For {
                var,
                source,
                where_clause,
                body,
            } => {
                let start = (types.iter().rev().find(|(v, _)| *v == source.start))
                    .map(|&(_, t)| t)
                    .or_else(|| {
                        let scope = self.scopes.iter().rev().find(|s| s.var == source.start);
                        scope.map(|s| s.element)
                    })
                    .flatten();
                let first = match source.steps.first() {
                    Some(Step::Child(label)) => Some(label),
                    _ => None,
                };
                if first.is_some_and(|label| self.impossible(start, label)) {
                    return Expr::Empty;
                }
                let ty = match source.steps.as_slice() {
                    [Step::Child(label)] => self.dtd.lookup(label),
                    _ => None,
                };
                types.push((var.clone(), ty));
                let body = self.prune_loops(body, types);
                types.pop();
                Expr::For {
                    var: var.clone(),
                    source: source.clone(),
                    where_clause: where_clause.clone(),
                    body: Box::new(body),
                }
            }
            Expr::Let { var, value, body } => {
                let value = self.prune_loops(value, types);
                types.push((var.clone(), None));
                let body = self.prune_loops(body, types);
                types.pop();
                Expr::Let {
                    var: var.clone(),
                    value: Box::new(value),
                    body: Box::new(body),
                }
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => Expr::If {
                cond: cond.clone(),
                then_branch: Box::new(self.prune_loops(then_branch, types)),
                else_branch: Box::new(self.prune_loops(else_branch, types)),
            },
        }
    }

    /// The child action table of `ps` (see [`PsPlan::walk`]).
    fn walk_table(&self, ps: &PsPlan) -> Vec<ChildAction> {
        let registered = |sym: Symbol| self.past_regs.iter().any(|r| r.element == sym);
        let element = ps.element.filter(|&e| e != SymbolTable::DOCUMENT);
        let Some(dfa) = element.and_then(|e| self.dtd.content_dfa(e)) else {
            return Vec::new();
        };
        let shell = self.specs.node(ps.spec);
        if ps.handlers.is_empty() || shell.whole {
            return Vec::new();
        }
        let mut table = vec![ChildAction::Deliver; self.symbols.len()];
        for &child in dfa.alphabet() {
            let Some(decl) = self.dtd.element(child) else {
                continue;
            };
            let mut on = ps
                .handlers
                .iter()
                .filter(|h| matches!(h, HandlerPlan::On { symbol, .. } if *symbol == child));
            let kept = (shell.children.iter())
                .find(|edge| edge.sym == child)
                .map(|edge| self.specs.node(edge.child));
            let plain = decl.dfa.alphabet().is_empty() && !registered(child);
            table[child.index()] = match (on.next(), on.next(), kept) {
                (None, _, None) => ChildAction::Skip,
                (
                    Some(HandlerPlan::On {
                        body: PlanExpr::StreamCopy,
                        binds: false,
                        ..
                    }),
                    None,
                    None,
                ) if plain => ChildAction::Copy,
                (None, _, Some(node)) if node.output_only && plain => ChildAction::Capture,
                _ => ChildAction::Deliver,
            };
        }
        if table.iter().all(|&a| a == ChildAction::Deliver) {
            return Vec::new();
        }
        table
    }

    /// Document-level timing: the document's only child is the root
    /// element, so a past-set that does not mention it fires immediately.
    fn doc_timing(&self, labels: &PastSet) -> DocTiming {
        if labels.all {
            return DocTiming::AtEnd;
        }
        let Some(root) = self.dtd.root() else {
            return DocTiming::AtEnd;
        };
        let root_name = self.dtd.name(root);
        if labels.labels.contains(root_name) {
            DocTiming::AtEnd
        } else {
            DocTiming::AtStart
        }
    }
}

/// Converts a string-level past-set to XSAX symbols. Undeclared labels can
/// never occur in a valid stream and are dropped (they are trivially past).
fn to_xsax_labels(set: &PastSet, dtd: &Dtd) -> PastLabels {
    if set.all {
        return PastLabels::All;
    }
    let mut symbols: BTreeSet<Symbol> = set.labels.iter().filter_map(|l| dtd.lookup(l)).collect();
    if set.text {
        symbols.insert(SymbolTable::TEXT);
    }
    PastLabels::Labels(symbols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_dtd::{PAPER_FIG1_DTD, PAPER_WEAK_DTD};
    use flux_lang::{compile, CompileOptions};

    const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

    fn plan_for(q: &str, dtd: &Dtd) -> Plan {
        let compiled = compile(q, dtd, &CompileOptions::default()).unwrap();
        compile_plan(&compiled, dtd).unwrap()
    }

    #[test]
    fn q3_weak_plan_shape() {
        let dtd = Dtd::parse(PAPER_WEAK_DTD).unwrap();
        let plan = plan_for(Q3, &dtd);
        // Three nested process-streams: ROOT, bib, book.
        assert_eq!(plan.ps.len(), 3);
        // One past registration (the author handler on book).
        assert_eq!(plan.past_regs.len(), 1);
        let book = dtd.lookup("book").unwrap();
        assert_eq!(plan.past_regs[0].element, book);
        // The book scope buffers only authors — whole subtrees that are
        // only ever printed, so as serialized bytes.
        let bdf = plan.render_bdf();
        assert!(bdf.contains("{author:bytes}"), "{bdf}");
        assert!(!bdf.contains("title"), "titles are never buffered: {bdf}");
    }

    #[test]
    fn q3_fig1_plan_buffers_nothing() {
        let dtd = Dtd::parse(PAPER_FIG1_DTD).unwrap();
        let plan = plan_for(Q3, &dtd);
        assert_eq!(plan.past_regs.len(), 0);
        for ps in &plan.ps {
            for h in &ps.handlers {
                if let HandlerPlan::On { spec, .. } = h {
                    assert!(plan.specs.is_empty_spec(*spec));
                }
            }
        }
    }

    #[test]
    fn unread_handler_variables_bind_no_shell() {
        // Under Figure 1, `on title as $t return {$t}` and its author twin
        // only stream-copy, and the bib and book handlers only host nested
        // process-streams: nothing reads any variable. Under the weak DTD
        // the book scope buffers its authors, so `$b` binds.
        let binds = |dtd_text: &str| {
            let dtd = Dtd::parse(dtd_text).unwrap();
            let plan = plan_for(Q3, &dtd);
            let mut out: Vec<(String, bool)> = plan
                .ps
                .iter()
                .flat_map(|ps| &ps.handlers)
                .filter_map(|h| match h {
                    HandlerPlan::On { symbol, binds, .. } => {
                        Some((plan.symbols.name(*symbol).to_string(), *binds))
                    }
                    HandlerPlan::OnFirstPast { .. } => None,
                })
                .collect();
            out.sort();
            out
        };
        let named = |pairs: &[(&str, bool)]| -> Vec<(String, bool)> {
            pairs.iter().map(|&(l, b)| (l.to_string(), b)).collect()
        };
        assert_eq!(
            binds(PAPER_FIG1_DTD),
            named(&[
                ("author", false),
                ("bib", false),
                ("book", false),
                ("title", false)
            ])
        );
        assert_eq!(
            binds(PAPER_WEAK_DTD),
            named(&[("bib", false), ("book", true), ("title", false)])
        );
    }

    #[test]
    fn deferred_close_marked() {
        let dtd = Dtd::parse(PAPER_WEAK_DTD).unwrap();
        let plan = plan_for(Q3, &dtd);
        match &plan.top {
            PlanExpr::Element {
                deferred_close,
                name,
                ..
            } => {
                assert_eq!(name, "results");
                assert!(deferred_close);
            }
            other => panic!("expected results element, got {other:?}"),
        }
    }

    #[test]
    fn doc_timing_classification() {
        // A query that buffers at document level: copy the whole document
        // twice (the second copy can only start once the stream has ended).
        let dtd = Dtd::parse(PAPER_WEAK_DTD).unwrap();
        let q = r#"<r>{$ROOT}{$ROOT}</r>"#;
        let plan = plan_for(q, &dtd);
        let doc_ps = plan
            .ps
            .iter()
            .find(|p| p.element == Some(SymbolTable::DOCUMENT))
            .expect("document scope present");
        let timings: Vec<DocTiming> = doc_ps
            .handlers
            .iter()
            .filter_map(|h| match h {
                HandlerPlan::OnFirstPast { doc_timing, .. } => Some(*doc_timing),
                _ => None,
            })
            .collect();
        assert!(!timings.is_empty());
        assert!(timings.iter().all(|t| *t == DocTiming::AtEnd));
    }
}
