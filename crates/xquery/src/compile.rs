//! Query compilation: the one-time translation from the normalized AST to
//! a [`CompiledExpr`] whose path labels are pre-resolved [`Symbol`]s and
//! whose variables carry dense slot indices.
//!
//! The paper's premise is that everything a query needs to know about the
//! schema is decided at compile time; this module applies the same rule to
//! the evaluator itself. Each path step and attribute name is resolved to
//! a symbol exactly once, by the caller's resolver — the physical plan
//! interns every label into the run's vocabulary, the baselines into
//! their own tables — so evaluation compares interned integers and never
//! a spelling. Element-constructor names are output-side and keep their
//! spelling.

use crate::ast::*;
use crate::error::{Result, XQueryError};
use flux_xml::tree::{Document, NodeId};
use flux_xml::{Symbol, SymbolTable};
use std::fmt;

/// Maps a query label to its symbol in the symbol space the compiled
/// expression will be evaluated over.
pub type Resolver<'r> = dyn FnMut(&str) -> Symbol + 'r;

/// Dense variable numbering for one compiled query. Bindings live in a
/// flat `Slots` array indexed by these numbers, so runtime lookup is an
/// array read instead of a hash probe, and shadowing is save/restore of
/// one array cell. The map also numbers the query's keyed loops, so every
/// expression compiled against it names its loop sites uniquely.
#[derive(Debug, Clone, Default)]
pub struct SlotMap {
    names: Vec<VarName>,
    loop_sites: usize,
}

impl SlotMap {
    pub fn new() -> Self {
        SlotMap::default()
    }

    /// A fresh keyed-loop site number.
    fn next_loop_site(&mut self) -> usize {
        self.loop_sites += 1;
        self.loop_sites - 1
    }

    /// Slot of `name`, allocating one on first sight.
    pub fn slot(&mut self, name: &str) -> usize {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        }
    }

    pub fn lookup(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    pub fn name(&self, slot: usize) -> &str {
        &self.names[slot]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// A fresh, unbound binding array sized for this map.
    pub fn make_slots(&self) -> Slots {
        vec![None; self.names.len()]
    }
}

/// Runtime variable bindings: one optional node per slot.
pub type Slots = Vec<Option<NodeId>>;

/// The trailing non-element step of a path, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathTail {
    /// Pure element path.
    None,
    /// `/@name` — attribute string values.
    Attribute(Symbol),
    /// `/text()` — text-node children.
    Text,
}

/// A path whose child steps are pre-resolved symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPath {
    /// Slot of the start variable.
    pub start_slot: usize,
    /// Its name, kept for the unbound-variable diagnostic.
    pub start_name: VarName,
    /// The child steps (the tail excluded).
    pub steps: Vec<Symbol>,
    pub tail: PathTail,
    /// The AST rendering, kept verbatim for error-message parity with the
    /// reference interpreter.
    pub display: String,
}

impl fmt::Display for CompiledPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display)
    }
}

/// One part of a compiled attribute value template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledAttrPart {
    Literal(String),
    // Boxed: a compiled expression dwarfs a literal, and attribute
    // templates are cold compile-time data.
    Expr(Box<CompiledExpr>),
}

/// A compiled attribute constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledAttr {
    pub name: String,
    pub value: Vec<CompiledAttrPart>,
}

/// A compiled condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledCond {
    True,
    False,
    And(Box<CompiledCond>, Box<CompiledCond>),
    Or(Box<CompiledCond>, Box<CompiledCond>),
    Not(Box<CompiledCond>),
    Exists(CompiledPath),
    Empty(CompiledPath),
    Cmp {
        lhs: CompiledOperand,
        op: CmpOp,
        rhs: CompiledOperand,
    },
}

/// A compiled comparison operand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledOperand {
    Path(CompiledPath),
    StringLit(String),
    NumberLit(String),
}

impl fmt::Display for CompiledOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompiledOperand::Path(p) => write!(f, "{p}"),
            CompiledOperand::StringLit(s) => write!(f, "\"{s}\""),
            CompiledOperand::NumberLit(n) => f.write_str(n),
        }
    }
}

/// How the evaluator runs a `for` loop, decided once at compile time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopPlan {
    /// The nested loop: walk the source and test every node.
    Scan(ScanReason),
    /// Probe a key index over the source (see [`KeyedLoop`]).
    Keyed(Box<KeyedLoop>),
}

impl fmt::Display for LoopPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopPlan::Scan(reason) => write!(f, "not keyed: {reason}"),
            LoopPlan::Keyed(k) => write!(f, "keyed on {}, probed by {}", k.key, k.probe),
        }
    }
}

/// Why a loop stays a nested loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanReason {
    /// No `where` clause and no `if (C) then T else ()` body.
    NoFilter,
    /// The body is an `if` whose `else` is not `()`.
    ElseBranch,
    /// No top-level conjunct is a comparison.
    NoComparison,
    /// The filter, or one of its conjuncts, is an `or`.
    Disjunction,
    /// A comparison conjunct uses an operator other than `=`.
    Operator(CmpOp),
    /// An `=` conjunct has no side that is a path from the loop variable.
    NoKeyPath,
    /// Both sides of an `=` conjunct are paths from the loop variable.
    KeyOnBothSides,
}

impl fmt::Display for ScanReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanReason::NoFilter => f.write_str("no filter"),
            ScanReason::ElseBranch => f.write_str("the `if` has a non-empty `else`"),
            ScanReason::NoComparison => f.write_str("no `=` conjunct"),
            ScanReason::Disjunction => f.write_str("the filter is an `or`"),
            ScanReason::Operator(op) => write!(f, "`{}` is not `=`", op.as_str()),
            ScanReason::NoKeyPath => f.write_str("no side of `=` is a path from the loop variable"),
            ScanReason::KeyOnBothSides => {
                f.write_str("both sides of `=` are paths from the loop variable")
            }
        }
    }
}

/// A keyed loop: `for $v in S` whose filter has a top-level conjunct
/// `K = E`, with `K` a path from `$v` and `E` a literal or a path from
/// another variable. `E` is loop-invariant, so the nodes of `S` that can
/// pass are exactly those with a `K` value equal to an `E` value: the
/// evaluator indexes `S` by `K` once per start node and runs the filter
/// and body on the matches only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedLoop {
    /// Query-wide site number; with the start node it names one index.
    pub site: usize,
    /// `K`, the key path from the loop variable.
    pub key: CompiledPath,
    /// `E`, the probe.
    pub probe: CompiledOperand,
    /// Slots the filter reads besides the loop variable. A probe needs
    /// all of them bound; otherwise the loop scans, so an unbound
    /// variable errors exactly where the nested loop's would.
    pub free: Vec<usize>,
}

/// Decides whether a `for` is keyed. Its filter is the `where` clause, or
/// the condition of a body `if (C) then T else ()` (the normal form's
/// rendering of `where`); a loop that is not keyed reports why, naming
/// the first comparison or `or` conjunct that missed.
fn plan_loop(
    var_slot: usize,
    where_clause: Option<&CompiledCond>,
    body: &CompiledExpr,
    slots: &mut SlotMap,
) -> LoopPlan {
    let filter = match (where_clause, body) {
        (Some(cond), _) => cond,
        (
            None,
            CompiledExpr::If {
                cond, else_branch, ..
            },
        ) => {
            if **else_branch != CompiledExpr::Empty {
                return LoopPlan::Scan(ScanReason::ElseBranch);
            }
            cond
        }
        (None, _) => return LoopPlan::Scan(ScanReason::NoFilter),
    };
    let mut conjuncts = Vec::new();
    flatten_and(filter, &mut conjuncts);
    let mut miss = ScanReason::NoComparison;
    for conjunct in conjuncts {
        match key_conjunct(conjunct, var_slot) {
            Ok((key, probe)) => {
                let mut free = Vec::new();
                cond_slots(filter, &mut free);
                free.retain(|&s| s != var_slot);
                free.sort_unstable();
                free.dedup();
                return LoopPlan::Keyed(Box::new(KeyedLoop {
                    site: slots.next_loop_site(),
                    key: key.clone(),
                    probe: probe.clone(),
                    free,
                }));
            }
            Err(reason) if miss == ScanReason::NoComparison => miss = reason,
            Err(_) => {}
        }
    }
    LoopPlan::Scan(miss)
}

fn flatten_and<'c>(cond: &'c CompiledCond, out: &mut Vec<&'c CompiledCond>) {
    match cond {
        CompiledCond::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}

/// `(K, E)` when `conjunct` is `K = E` or `E = K` with `K` a path from the
/// loop variable and `E` not one.
fn key_conjunct(
    conjunct: &CompiledCond,
    var_slot: usize,
) -> std::result::Result<(&CompiledPath, &CompiledOperand), ScanReason> {
    let CompiledCond::Cmp { lhs, op, rhs } = conjunct else {
        return Err(match conjunct {
            CompiledCond::Or(..) => ScanReason::Disjunction,
            _ => ScanReason::NoComparison,
        });
    };
    if *op != CmpOp::Eq {
        return Err(ScanReason::Operator(*op));
    }
    let from_var =
        |o: &CompiledOperand| matches!(o, CompiledOperand::Path(p) if p.start_slot == var_slot);
    match (lhs, rhs) {
        (CompiledOperand::Path(k), e) | (e, CompiledOperand::Path(k))
            if k.start_slot == var_slot && !from_var(e) =>
        {
            Ok((k, e))
        }
        _ if from_var(lhs) => Err(ScanReason::KeyOnBothSides),
        _ => Err(ScanReason::NoKeyPath),
    }
}

/// The start slots of every path in `cond`.
fn cond_slots(cond: &CompiledCond, out: &mut Vec<usize>) {
    match cond {
        CompiledCond::True | CompiledCond::False => {}
        CompiledCond::And(a, b) | CompiledCond::Or(a, b) => {
            cond_slots(a, out);
            cond_slots(b, out);
        }
        CompiledCond::Not(c) => cond_slots(c, out),
        CompiledCond::Exists(p) | CompiledCond::Empty(p) => out.push(p.start_slot),
        CompiledCond::Cmp { lhs, rhs, .. } => {
            for side in [lhs, rhs] {
                if let CompiledOperand::Path(p) = side {
                    out.push(p.start_slot);
                }
            }
        }
    }
}

/// Appends one line per `for` in `expr` — the loop and how the evaluator
/// runs it — for the engines' `explain()` reports.
pub fn explain_loops(expr: &CompiledExpr, slots: &SlotMap, out: &mut String) {
    match expr {
        CompiledExpr::For {
            var_slot,
            source,
            body,
            plan,
            ..
        } => {
            out.push_str(&format!(
                "for ${} in {source}: {plan}\n",
                slots.name(*var_slot)
            ));
            explain_loops(body, slots, out);
        }
        CompiledExpr::Sequence(items) => {
            for item in items {
                explain_loops(item, slots, out);
            }
        }
        CompiledExpr::Element { content, .. } => explain_loops(content, slots, out),
        CompiledExpr::If {
            then_branch,
            else_branch,
            ..
        } => {
            explain_loops(then_branch, slots, out);
            explain_loops(else_branch, slots, out);
        }
        CompiledExpr::Empty
        | CompiledExpr::StringLit(_)
        | CompiledExpr::Var { .. }
        | CompiledExpr::Path(_) => {}
    }
}

/// The compiled expression form evaluated by
/// [`CursorEvaluator`](crate::eval::CursorEvaluator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledExpr {
    Empty,
    StringLit(String),
    Var {
        slot: usize,
        name: VarName,
    },
    Path(CompiledPath),
    Sequence(Vec<CompiledExpr>),
    Element {
        name: String,
        attributes: Vec<CompiledAttr>,
        content: Box<CompiledExpr>,
    },
    For {
        var_slot: usize,
        source: CompiledPath,
        where_clause: Option<CompiledCond>,
        body: Box<CompiledExpr>,
        plan: LoopPlan,
    },
    If {
        cond: CompiledCond,
        then_branch: Box<CompiledExpr>,
        else_branch: Box<CompiledExpr>,
    },
}

/// Compiles a normalized expression. `slots` accumulates variable numbering
/// (callers pre-intern `$ROOT` and any externally bound variables);
/// `resolve` maps each path label to its symbol.
pub fn compile_expr(
    expr: &Expr,
    slots: &mut SlotMap,
    resolve: &mut Resolver<'_>,
) -> Result<CompiledExpr> {
    Ok(match expr {
        Expr::Empty => CompiledExpr::Empty,
        Expr::StringLit(s) => CompiledExpr::StringLit(s.clone()),
        Expr::Var(v) => CompiledExpr::Var {
            slot: slots.slot(v),
            name: v.clone(),
        },
        Expr::Path(p) => CompiledExpr::Path(compile_path(p, slots, resolve)?),
        Expr::Sequence(items) => CompiledExpr::Sequence(
            items
                .iter()
                .map(|e| compile_expr(e, slots, resolve))
                .collect::<Result<_>>()?,
        ),
        Expr::Element {
            name,
            attributes,
            content,
        } => CompiledExpr::Element {
            name: name.clone(),
            attributes: attributes
                .iter()
                .map(|a| compile_attr(a, slots, resolve))
                .collect::<Result<_>>()?,
            content: Box::new(compile_expr(content, slots, resolve)?),
        },
        Expr::For {
            var,
            source,
            where_clause,
            body,
        } => {
            let source = compile_path(source, slots, resolve)?;
            let var_slot = slots.slot(var);
            let where_clause = match where_clause {
                Some(c) => Some(compile_cond(c, slots, resolve)?),
                None => None,
            };
            let body = compile_expr(body, slots, resolve)?;
            // `for $v in P return $v` — the normal form of every element
            // path copied to the output — is the path itself: the same
            // nodes, in the same order, with the same errors, and no
            // binding per node.
            if where_clause.is_none()
                && source.tail == PathTail::None
                && matches!(body, CompiledExpr::Var { slot, .. } if slot == var_slot)
            {
                return Ok(CompiledExpr::Path(source));
            }
            CompiledExpr::For {
                var_slot,
                plan: plan_loop(var_slot, where_clause.as_ref(), &body, slots),
                source,
                where_clause,
                body: Box::new(body),
            }
        }
        Expr::Let { .. } => {
            return Err(XQueryError::eval(
                "let must be inlined by normalization before evaluation",
            ))
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => CompiledExpr::If {
            cond: compile_cond(cond, slots, resolve)?,
            then_branch: Box::new(compile_expr(then_branch, slots, resolve)?),
            else_branch: Box::new(compile_expr(else_branch, slots, resolve)?),
        },
    })
}

/// Compiles a path. A non-final attribute or `text()` step is malformed in
/// every context, so it is rejected here (the reference interpreter raises
/// the same message lazily at evaluation time).
pub fn compile_path(
    path: &Path,
    slots: &mut SlotMap,
    resolve: &mut Resolver<'_>,
) -> Result<CompiledPath> {
    let (element_steps, tail) = match path.steps.last() {
        Some(Step::Attribute(name)) => (
            &path.steps[..path.steps.len() - 1],
            PathTail::Attribute(resolve(name)),
        ),
        Some(Step::Text) => (&path.steps[..path.steps.len() - 1], PathTail::Text),
        _ => (&path.steps[..], PathTail::None),
    };
    let mut steps = Vec::with_capacity(element_steps.len());
    for step in element_steps {
        let Step::Child(name) = step else {
            return Err(XQueryError::eval(format!(
                "non-final attribute/text step in {path}"
            )));
        };
        steps.push(resolve(name));
    }
    Ok(CompiledPath {
        start_slot: slots.slot(&path.start),
        start_name: path.start.clone(),
        steps,
        tail,
        display: path.to_string(),
    })
}

/// Compiles one attribute constructor (name kept literal — constructed
/// attributes are output-side, never matched against the stream).
pub fn compile_attr(
    attr: &AttrConstructor,
    slots: &mut SlotMap,
    resolve: &mut Resolver<'_>,
) -> Result<CompiledAttr> {
    Ok(CompiledAttr {
        name: attr.name.clone(),
        value: attr
            .value
            .iter()
            .map(|part| {
                Ok(match part {
                    AttrPart::Literal(t) => CompiledAttrPart::Literal(t.clone()),
                    AttrPart::Expr(e) => {
                        CompiledAttrPart::Expr(Box::new(compile_expr(e, slots, resolve)?))
                    }
                })
            })
            .collect::<Result<_>>()?,
    })
}

pub fn compile_cond(
    cond: &Cond,
    slots: &mut SlotMap,
    resolve: &mut Resolver<'_>,
) -> Result<CompiledCond> {
    Ok(match cond {
        Cond::True => CompiledCond::True,
        Cond::False => CompiledCond::False,
        Cond::And(a, b) => CompiledCond::And(
            Box::new(compile_cond(a, slots, resolve)?),
            Box::new(compile_cond(b, slots, resolve)?),
        ),
        Cond::Or(a, b) => CompiledCond::Or(
            Box::new(compile_cond(a, slots, resolve)?),
            Box::new(compile_cond(b, slots, resolve)?),
        ),
        Cond::Not(c) => CompiledCond::Not(Box::new(compile_cond(c, slots, resolve)?)),
        Cond::Exists(p) => CompiledCond::Exists(compile_path(p, slots, resolve)?),
        Cond::Empty(p) => CompiledCond::Empty(compile_path(p, slots, resolve)?),
        Cond::Cmp { lhs, op, rhs } => CompiledCond::Cmp {
            lhs: compile_operand(lhs, slots, resolve)?,
            op: *op,
            rhs: compile_operand(rhs, slots, resolve)?,
        },
    })
}

fn compile_operand(
    op: &Operand,
    slots: &mut SlotMap,
    resolve: &mut Resolver<'_>,
) -> Result<CompiledOperand> {
    Ok(match op {
        Operand::Path(p) => CompiledOperand::Path(compile_path(p, slots, resolve)?),
        Operand::StringLit(s) => CompiledOperand::StringLit(s.clone()),
        Operand::NumberLit(n) => CompiledOperand::NumberLit(n.clone()),
    })
}

/// Compiles against a document's own symbol table — the resolver used
/// when the evaluation target is already materialised. A label the table
/// lacks names no node of the document: it resolves to
/// [`SymbolTable::OVERFLOW`], which a tree never stores.
pub fn compile_for_document(
    expr: &Expr,
    doc: &Document,
    slots: &mut SlotMap,
) -> Result<CompiledExpr> {
    compile_expr(expr, slots, &mut |label| {
        doc.symbols().lookup(label).unwrap_or(SymbolTable::OVERFLOW)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn compile(query: &str, table: &mut SymbolTable) -> (CompiledExpr, SlotMap) {
        let expr = parse_query(query).unwrap();
        let mut slots = SlotMap::new();
        slots.slot(ROOT_VAR);
        let compiled = compile_expr(&expr, &mut slots, &mut |l| table.intern(l)).unwrap();
        (compiled, slots)
    }

    #[test]
    fn path_steps_carry_symbols() {
        let mut table = SymbolTable::new();
        let (compiled, slots) = compile(
            r#"<r>{ for $b in $ROOT/bib/book return $b/title }</r>"#,
            &mut table,
        );
        assert_eq!(slots.lookup(ROOT_VAR), Some(0));
        let CompiledExpr::Element { content, .. } = compiled else {
            panic!("element");
        };
        let CompiledExpr::For { source, body, .. } = *content else {
            panic!("for");
        };
        assert_eq!(source.start_slot, 0);
        assert_eq!(source.steps, [table.intern("bib"), table.intern("book")]);
        let CompiledExpr::Path(p) = *body else {
            panic!("path");
        };
        assert_eq!(p.steps[0], table.intern("title"));
        assert_eq!(p.display, "$b/title");
    }

    #[test]
    fn labels_resolve_once_and_constructors_keep_their_spelling() {
        // Every path label goes through the resolver exactly once per
        // occurrence; constructor names never do.
        let expr = parse_query(r#"<r>{$ROOT/mystery/@id}</r>"#).unwrap();
        let mut slots = SlotMap::new();
        let mut asked = Vec::new();
        let compiled = compile_expr(&expr, &mut slots, &mut |l| {
            asked.push(l.to_string());
            Symbol::from_index(40 + asked.len())
        })
        .unwrap();
        assert_eq!(asked, ["id", "mystery"]);
        let CompiledExpr::Element { name, content, .. } = compiled else {
            panic!("element");
        };
        assert_eq!(name, "r");
        let CompiledExpr::Path(p) = *content else {
            panic!("path");
        };
        assert_eq!(p.steps, [Symbol::from_index(42)]);
        assert_eq!(p.tail, PathTail::Attribute(Symbol::from_index(41)));
    }

    #[test]
    fn shared_variable_names_share_slots() {
        let mut table = SymbolTable::new();
        let (_, slots) = compile(
            r#"<r>{ for $b in $ROOT/bib/book return for $b in $b/author return $b }</r>"#,
            &mut table,
        );
        // $ROOT and the (shadowed) $b: two slots, not three.
        assert_eq!(slots.len(), 2);
    }

    /// The plan of the innermost `for` of `query`, and its loop variable.
    fn inner_loop_plan(query: &str) -> (String, LoopPlan) {
        let mut table = SymbolTable::new();
        let expr = crate::normalize::normalize(&parse_query(query).unwrap()).unwrap();
        let mut slots = SlotMap::new();
        slots.slot(ROOT_VAR);
        let compiled = compile_expr(&expr, &mut slots, &mut |l| table.intern(l)).unwrap();
        let mut lines = String::new();
        explain_loops(&compiled, &slots, &mut lines);
        let mut found = None;
        fn walk(e: &CompiledExpr, found: &mut Option<(usize, LoopPlan)>) {
            match e {
                CompiledExpr::For {
                    var_slot,
                    body,
                    plan,
                    ..
                } => {
                    *found = Some((*var_slot, plan.clone()));
                    walk(body, found);
                }
                CompiledExpr::Element { content, .. } => walk(content, found),
                CompiledExpr::Sequence(items) => items.iter().for_each(|i| walk(i, found)),
                _ => {}
            }
        }
        walk(&compiled, &mut found);
        let (slot, plan) = found.expect("a loop");
        assert!(lines.contains(&format!("{plan}")), "{lines}");
        (slots.name(slot).to_string(), plan)
    }

    #[test]
    fn keyed_loop_shapes_are_detected() {
        for (filter, key, probe) in [
            ("$a/buyer = $p/@id", "$p/@id", "$a/buyer"),
            ("$p/@id = $a/buyer", "$p/@id", "$a/buyer"),
            (r#"$p/@id = "p7""#, "$p/@id", "\"p7\""),
            ("$p/name = 3", "$p/name", "3"),
            (
                "exists($p/name) and $a/buyer = $p/@id and $p/@id != \"x\"",
                "$p/@id",
                "$a/buyer",
            ),
        ] {
            let q = format!(
                "<r>{{ for $a in $ROOT/s/a, $p in $ROOT/s/p where {filter} return $p }}</r>"
            );
            let (var, plan) = inner_loop_plan(&q);
            assert_eq!(var, "p", "{q}");
            let LoopPlan::Keyed(k) = plan else {
                panic!("{q}: {plan}");
            };
            assert_eq!(
                (k.key.to_string(), k.probe.to_string()),
                (key.into(), probe.into())
            );
        }
    }

    #[test]
    fn other_shapes_stay_nested_loops() {
        for (body, reason) in [
            ("<w>{$p}</w>", ScanReason::NoFilter),
            (
                "if ($a/buyer = $p/@id) then $p else <miss/>",
                ScanReason::ElseBranch,
            ),
            (
                "if ($a/buyer < $p/@id) then $p else ()",
                ScanReason::Operator(CmpOp::Lt),
            ),
            (
                "if ($a/buyer != $p/@id) then $p else ()",
                ScanReason::Operator(CmpOp::Ne),
            ),
            (
                r#"if ($a/buyer = $p/@id or $p/@id = "x") then $p else ()"#,
                ScanReason::Disjunction,
            ),
            (
                "if ($p/name = $p/@id) then $p else ()",
                ScanReason::KeyOnBothSides,
            ),
            (
                "if ($a/buyer = $a/price) then $p else ()",
                ScanReason::NoKeyPath,
            ),
            (
                "if (exists($p/name)) then $p else ()",
                ScanReason::NoComparison,
            ),
        ] {
            let q = format!("<r>{{ for $a in $ROOT/s/a, $p in $ROOT/s/p return {body} }}</r>");
            assert_eq!(inner_loop_plan(&q).1, LoopPlan::Scan(reason), "{q}");
        }
    }

    #[test]
    fn copy_loops_compile_to_their_path() {
        let content = |query: &str| {
            let mut table = SymbolTable::new();
            let (compiled, _) = compile(query, &mut table);
            let CompiledExpr::Element { content, .. } = compiled else {
                panic!("element");
            };
            *content
        };
        let folded = content("<r>{ for $x in $ROOT/bib/book return $x }</r>");
        assert!(
            matches!(&folded, CompiledExpr::Path(p) if p.display == "$ROOT/bib/book"),
            "{folded:?}"
        );
        // A filter or a constructed body keeps the loop.
        for query in [
            r#"<r>{ for $x in $ROOT/bib/book where $x/@y = "1" return $x }</r>"#,
            "<r>{ for $x in $ROOT/bib/book return <w>{$x}</w> }</r>",
        ] {
            assert!(
                matches!(content(query), CompiledExpr::For { .. }),
                "{query}"
            );
        }
    }

    #[test]
    fn attribute_tail_is_compiled() {
        let mut table = SymbolTable::new();
        let (compiled, _) = compile(r#"<r>{$ROOT/book/@year}</r>"#, &mut table);
        let CompiledExpr::Element { content, .. } = compiled else {
            panic!("element");
        };
        let CompiledExpr::Path(p) = *content else {
            panic!("path");
        };
        assert_eq!(p.steps.len(), 1);
        assert_eq!(p.tail, PathTail::Attribute(table.intern("year")));
    }
}
