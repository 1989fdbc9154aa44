//! The **Buffer Description Forest** (BDF, paper Sec. 3.2): for every
//! streaming scope variable, a projection tree describing which descendant
//! paths of that variable must be buffered, and how deeply.
//!
//! This is what improves on pure projection (\[10\] in the paper): data
//! consumed on the fly by streaming handlers never enters the BDF, and
//! buffered paths are projected further (only the descendants the buffered
//! expressions actually read are stored).

use flux_dtd::{Dtd, Symbol, SymbolTable};
use flux_xquery::{AttrPart, Cond, Expr, Operand, Path, Resolver, Step, VarName};
use std::fmt;

/// Index of a node in the [`SpecArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpecId(usize);

impl SpecId {
    pub fn index(self) -> usize {
        self.0
    }
}

/// One child edge of a spec node, keyed **natively by symbol**: the label
/// is interned once, at plan-compile time, into the plan's vocabulary
/// (FluX engine) or the engine's own table (projection baseline) — there
/// is no per-run index rebuild. Explain output spells it through that
/// table.
#[derive(Debug, Clone, Copy)]
pub struct SpecEdge {
    pub sym: Symbol,
    pub child: SpecId,
}

/// One node of the buffer description forest.
#[derive(Debug, Clone, Default)]
pub struct SpecNode {
    /// Keep the entire subtree below this point.
    pub whole: bool,
    /// Keep text children at this point.
    pub text: bool,
    /// Attributes of *this* element the plan reads (`$v/@a`), in
    /// insertion order. A scope shell keeps only these (all of them when
    /// `whole` is set) — an attribute name no expression reads never
    /// enters the buffer store, so an adversarial stream minting distinct
    /// names cannot grow the store's run-long dictionary.
    pub attrs: Vec<Symbol>,
    /// Child labels to keep, with their own projections, in insertion
    /// order. Spec nodes have a handful of children at most, so descent is
    /// a short scan of integer comparisons.
    pub children: Vec<SpecEdge>,
    /// The subtree is only ever copied to the output, so it is buffered
    /// as its serialized bytes instead of as a tree (set by
    /// [`SpecArena::mark_output_only`]).
    pub output_only: bool,
    /// The first use of this node that needs it as a tree — a comparison,
    /// a test, an atomisation, a `let` binding — for explain output.
    pub tree_use: Option<String>,
}

/// Arena of spec nodes; scope variables own root specs.
#[derive(Debug, Clone, Default)]
pub struct SpecArena {
    nodes: Vec<SpecNode>,
}

impl SpecArena {
    pub fn new() -> Self {
        SpecArena { nodes: Vec::new() }
    }

    pub fn new_root(&mut self) -> SpecId {
        self.push(SpecNode::default())
    }

    fn push(&mut self, node: SpecNode) -> SpecId {
        let id = SpecId(self.nodes.len());
        self.nodes.push(node);
        id
    }

    pub fn node(&self, id: SpecId) -> &SpecNode {
        &self.nodes[id.index()]
    }

    fn node_mut(&mut self, id: SpecId) -> &mut SpecNode {
        &mut self.nodes[id.index()]
    }

    /// Gets or creates the child spec under `id` for the label `sym`.
    pub fn child(&mut self, id: SpecId, sym: Symbol) -> SpecId {
        if let Some(edge) = self.nodes[id.index()]
            .children
            .iter()
            .find(|e| e.sym == sym)
        {
            return edge.child;
        }
        let child = self.push(SpecNode::default());
        self.node_mut(id).children.push(SpecEdge { sym, child });
        child
    }

    pub fn mark_whole(&mut self, id: SpecId) {
        self.node_mut(id).whole = true;
    }

    pub fn mark_text(&mut self, id: SpecId) {
        self.node_mut(id).text = true;
    }

    /// Records a use of this node that needs it as a tree, if `what` names
    /// one (the first one recorded is the one explain output names).
    fn note_tree_use(&mut self, id: SpecId, what: impl FnOnce() -> Option<String>) {
        let node = self.node_mut(id);
        if node.tree_use.is_none() {
            node.tree_use = what();
        }
    }

    /// The compile pass that picks each node's representation: a non-root
    /// node whose whole subtree is kept, that has no child edges and no
    /// `text()` or attribute reads, and that no expression uses except to
    /// copy it to the output, is *output-only* — buffered as serialized
    /// bytes. Everything else stays a tree. Call once every expression's
    /// needs are collected.
    pub fn mark_output_only(&mut self) {
        let mut is_child = vec![false; self.nodes.len()];
        for edge in self.nodes.iter().flat_map(|n| &n.children) {
            is_child[edge.child.index()] = true;
        }
        for (node, is_child) in self.nodes.iter_mut().zip(is_child) {
            node.output_only = is_child
                && node.whole
                && node.children.is_empty()
                && !node.text
                && node.attrs.is_empty()
                && node.tree_use.is_none();
        }
    }

    /// Why a node whose whole subtree is kept stays a tree; `None` for
    /// output-only nodes.
    fn tree_reason(&self, id: SpecId, names: &SymbolTable) -> Option<String> {
        let n = self.node(id);
        if n.output_only {
            return None;
        }
        if let Some(u) = &n.tree_use {
            return Some(u.clone());
        }
        if n.text {
            return Some("text() read".to_string());
        }
        if let Some(&attr) = n.attrs.first() {
            return Some(format!("@{} read", names.name(attr)));
        }
        n.children
            .first()
            .map(|e| format!("a further step reads {}", names.name(e.sym)))
    }

    /// The child edges of `id`, sorted by label for stable output.
    fn sorted_edges<'a>(&'a self, id: SpecId, names: &SymbolTable) -> Vec<&'a SpecEdge> {
        let mut edges: Vec<&SpecEdge> = self.node(id).children.iter().collect();
        edges.sort_by(|a, b| names.name(a.sym).cmp(names.name(b.sym)));
        edges
    }

    /// One line per kept-whole node below `id` that stays a tree, naming
    /// the use that keeps it one — the explain companion of
    /// [`SpecArena::render`]. `names` spells the labels.
    pub fn render_tree_reasons(
        &self,
        id: SpecId,
        names: &SymbolTable,
        indent: &str,
        out: &mut String,
    ) {
        if self.node(id).whole {
            return;
        }
        for edge in self.sorted_edges(id, names) {
            let child = self.node(edge.child);
            if child.whole {
                if let Some(reason) = self.tree_reason(edge.child, names) {
                    let label = names.name(edge.sym);
                    out.push_str(&format!("{indent}{label}: tree, {reason}\n"));
                }
            } else {
                self.render_tree_reasons(edge.child, names, indent, out);
            }
        }
    }

    /// Records that the plan reads attribute `name` of this element.
    pub fn mark_attr(&mut self, id: SpecId, name: Symbol) {
        let attrs = &mut self.node_mut(id).attrs;
        if !attrs.contains(&name) {
            attrs.push(name);
        }
    }

    /// Drops every edge below `id`, a node for an element of type
    /// `element`, whose label the DTD rules out there
    /// ([`Dtd::never_occurs`]; an undeclared label is ruled out under any
    /// declared type), and prunes the kept edges' nodes in turn. No valid
    /// document fills a dropped edge, so no run reads the difference.
    pub fn prune_impossible(&mut self, id: SpecId, element: Symbol, dtd: &Dtd) {
        let Some(dfa) = dtd.content_dfa(element) else {
            return;
        };
        self.node_mut(id)
            .children
            .retain(|edge| !dfa.never_occurs(edge.sym));
        for i in 0..self.node(id).children.len() {
            let SpecEdge { sym, child } = self.node(id).children[i];
            self.prune_impossible(child, sym, dtd);
        }
    }

    /// True when nothing below this spec needs buffering.
    pub fn is_empty_spec(&self, id: SpecId) -> bool {
        let n = self.node(id);
        !n.whole && !n.text && n.children.is_empty()
    }

    /// Renders a spec subtree, for `explain` output, spelling labels
    /// through `names` (sorted for stable output).
    pub fn render(&self, id: SpecId, names: &SymbolTable) -> String {
        let mut out = String::new();
        self.render_into(id, names, &mut out);
        out
    }

    fn render_into(&self, id: SpecId, names: &SymbolTable, out: &mut String) {
        let n = self.node(id);
        if n.output_only {
            out.push_str("bytes");
            return;
        }
        if n.whole {
            out.push('*');
            return;
        }
        out.push('{');
        let mut first = true;
        if n.text {
            out.push_str("text()");
            first = false;
        }
        let mut attrs: Vec<&str> = n.attrs.iter().map(|&a| names.name(a)).collect();
        attrs.sort_unstable();
        for attr in attrs {
            if !first {
                out.push(',');
            }
            out.push('@');
            out.push_str(attr);
            first = false;
        }
        for edge in self.sorted_edges(id, names) {
            if !first {
                out.push(',');
            }
            out.push_str(names.name(edge.sym));
            if !self.is_empty_spec(edge.child) {
                out.push(':');
                self.render_into(edge.child, names, out);
            }
            first = false;
        }
        out.push('}');
    }
}

impl fmt::Display for SpecArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpecArena({} nodes)", self.nodes.len())
    }
}

/// How a buffer-population step should treat a child element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecView {
    /// Copy everything below.
    Whole,
    /// Project per this spec node.
    Project(SpecId),
}

impl SpecView {
    /// Descends into a child element named by `sym`: `None` means the
    /// child is projected away entirely. A short scan of integer
    /// comparisons over the node's edges, against the symbols interned at
    /// plan-compile time.
    pub fn descend_sym(self, arena: &SpecArena, sym: Symbol) -> Option<SpecView> {
        match self {
            SpecView::Whole => Some(SpecView::Whole),
            SpecView::Project(id) => {
                let n = arena.node(id);
                if n.whole {
                    return Some(SpecView::Whole);
                }
                n.children
                    .iter()
                    .find(|e| e.sym == sym)
                    .map(|e| SpecView::Project(e.child))
            }
        }
    }

    /// Whether text children are kept at this point.
    pub fn keeps_text(self, arena: &SpecArena) -> bool {
        match self {
            SpecView::Whole => true,
            SpecView::Project(id) => {
                let n = arena.node(id);
                n.whole || n.text
            }
        }
    }
}

/// Collects the buffering needs of a normal-form XQuery expression in
/// content position into the spec roots of the in-scope variables,
/// interning every path label through `resolver` — the plan's vocabulary
/// for the FluX engine, the engine's own table for the projection
/// baseline — so the spec edges are symbol-keyed at compile time.
///
/// `scopes` maps streaming-scope variables to their spec roots; loop
/// variables bound *inside* `expr` are tracked locally and resolve to spec
/// nodes reached through their source paths.
pub fn collect_needs(
    arena: &mut SpecArena,
    expr: &Expr,
    scopes: &[(VarName, SpecId)],
    resolver: &mut Resolver<'_>,
) {
    collect(arena, expr, Use::Copy, scopes, &mut Vec::new(), resolver);
}

/// [`collect_needs`] for one expression part of an attribute value
/// template: its value is atomised, not copied.
pub fn collect_attribute_needs(
    arena: &mut SpecArena,
    expr: &Expr,
    scopes: &[(VarName, SpecId)],
    resolver: &mut Resolver<'_>,
) {
    collect(arena, expr, Use::Atomise, scopes, &mut Vec::new(), resolver);
}

/// What the value of an expression is used for where it stands.
#[derive(Clone, Copy)]
enum Use<'e> {
    /// Copied to the output.
    Copy,
    /// Atomised into an attribute value.
    Atomise,
    /// Bound by `let $var`, whose uses are not tracked.
    Let(&'e str),
}

impl Use<'_> {
    /// Why this use needs the node as a tree; `None` for a copy.
    fn tree_use(self) -> Option<String> {
        match self {
            Use::Copy => None,
            Use::Atomise => Some("atomised in an attribute value".to_string()),
            Use::Let(var) => Some(format!("bound by let ${var}")),
        }
    }
}

fn lookup(scopes: &[(VarName, SpecId)], local: &[(VarName, SpecId)], var: &str) -> Option<SpecId> {
    local
        .iter()
        .rev()
        .chain(scopes.iter().rev())
        .find(|(v, _)| v == var)
        .map(|&(_, id)| id)
}

/// Resolves the element-step prefix of a path, materialising spec nodes
/// along the way; returns the spec node of the final element position and
/// the trailing non-element step, if any.
fn resolve<'p>(
    arena: &mut SpecArena,
    path: &'p Path,
    scopes: &[(VarName, SpecId)],
    local: &[(VarName, SpecId)],
    resolver: &mut Resolver<'_>,
) -> Option<(SpecId, Option<&'p Step>)> {
    let mut current = lookup(scopes, local, &path.start)?;
    let (element_steps, tail) = match path.steps.last() {
        Some(s @ (Step::Attribute(_) | Step::Text)) => {
            (&path.steps[..path.steps.len() - 1], Some(s))
        }
        _ => (&path.steps[..], None),
    };
    for step in element_steps {
        let Step::Child(label) = step else {
            return None; // non-final attribute/text: rejected upstream
        };
        current = arena.child(current, resolver(label));
    }
    Some((current, tail))
}

/// Records a path's needs. `string_valued` paths keep their subtree;
/// `tree_use` names the use, if any, that needs the node the path selects
/// as a tree.
fn note_path(
    arena: &mut SpecArena,
    path: &Path,
    scopes: &[(VarName, SpecId)],
    local: &[(VarName, SpecId)],
    string_valued: bool,
    tree_use: &dyn Fn() -> Option<String>,
    resolver: &mut Resolver<'_>,
) {
    let Some((node, tail)) = resolve(arena, path, scopes, local, resolver) else {
        return;
    };
    match tail {
        Some(Step::Text) => arena.mark_text(node),
        Some(Step::Attribute(name)) => {
            // Shells keep only the attributes the plan reads — record the
            // read so this one survives shell projection.
            arena.mark_attr(node, resolver(name));
        }
        _ => {
            if string_valued {
                // String values need all descendant text: keep the subtree.
                arena.mark_whole(node);
            }
            arena.note_tree_use(node, tree_use);
        }
    }
}

fn collect_cond(
    arena: &mut SpecArena,
    cond: &Cond,
    scopes: &[(VarName, SpecId)],
    local: &[(VarName, SpecId)],
    resolver: &mut Resolver<'_>,
) {
    match cond {
        Cond::Cmp { lhs, op, rhs } => {
            let why = || Some(format!("compared in {lhs} {} {rhs}", op.as_str()));
            for operand in [lhs, rhs] {
                if let Operand::Path(p) = operand {
                    note_path(arena, p, scopes, local, true, &why, resolver);
                }
            }
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            collect_cond(arena, a, scopes, local, resolver);
            collect_cond(arena, b, scopes, local, resolver);
        }
        Cond::Not(c) => collect_cond(arena, c, scopes, local, resolver),
        // Existence checks only need the element shells materialised.
        Cond::Exists(p) => {
            let why = || Some(format!("tested by exists({p})"));
            note_path(arena, p, scopes, local, false, &why, resolver)
        }
        Cond::Empty(p) => {
            let why = || Some(format!("tested by empty({p})"));
            note_path(arena, p, scopes, local, false, &why, resolver)
        }
        Cond::True | Cond::False => {}
    }
}

fn collect(
    arena: &mut SpecArena,
    expr: &Expr,
    ctx: Use<'_>,
    scopes: &[(VarName, SpecId)],
    local: &mut Vec<(VarName, SpecId)>,
    resolver: &mut Resolver<'_>,
) {
    match expr {
        Expr::Empty | Expr::StringLit(_) => {}
        Expr::Var(v) => {
            if let Some(id) = lookup(scopes, local, v) {
                arena.mark_whole(id);
                arena.note_tree_use(id, || ctx.tree_use());
            }
        }
        Expr::Path(p) => {
            // Output position: nodes are copied (whole), attribute/text
            // reads are cheaper.
            note_path(arena, p, scopes, local, true, &|| ctx.tree_use(), resolver);
        }
        Expr::Sequence(items) => {
            for item in items {
                collect(arena, item, ctx, scopes, local, resolver);
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
                        collect(arena, e, Use::Atomise, scopes, local, resolver);
                    }
                }
            }
            collect(arena, content, Use::Copy, scopes, local, resolver);
        }
        Expr::For {
            var,
            source,
            where_clause,
            body,
        } => {
            let bound = resolve(arena, source, scopes, local, resolver).and_then(|(node, tail)| {
                if tail.is_none() {
                    Some(node)
                } else {
                    None
                }
            });
            // The loop variable is in scope in the `where` clause too.
            if let Some(node) = bound {
                local.push((var.clone(), node));
            }
            if let Some(cond) = where_clause {
                collect_cond(arena, cond, scopes, local, resolver);
            }
            // An unresolvable source (shadowing weirdness) binds nothing:
            // the body's roots still record their needs.
            collect(arena, body, ctx, scopes, local, resolver);
            if bound.is_some() {
                local.pop();
            }
        }
        Expr::Let { var, value, body } => {
            collect(arena, value, Use::Let(var), scopes, local, resolver);
            collect(arena, body, ctx, scopes, local, resolver);
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            collect_cond(arena, cond, scopes, local, resolver);
            collect(arena, then_branch, ctx, scopes, local, resolver);
            collect(arena, else_branch, ctx, scopes, local, resolver);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_dtd::SymbolTable;
    use flux_xquery::{normalize, parse_query};

    fn needs_of(query_body: &str) -> (SpecArena, SpecId, SymbolTable) {
        // The expression is a buffered body referencing $book; labels are
        // interned into a plan-local table, as the projection engine does.
        let expr = normalize(&parse_query(query_body).unwrap()).unwrap();
        let mut arena = SpecArena::new();
        let root = arena.new_root();
        let mut table = SymbolTable::new();
        collect_needs(
            &mut arena,
            &expr,
            &[("book".to_string(), root)],
            &mut |label| table.intern(label),
        );
        (arena, root, table)
    }

    /// The representation pass over `expr`'s needs: the rendered spec,
    /// then one line per node kept a tree and why.
    fn representations_of(expr: &Expr) -> String {
        let mut arena = SpecArena::new();
        let root = arena.new_root();
        let mut table = SymbolTable::new();
        collect_needs(
            &mut arena,
            expr,
            &[("book".to_string(), root)],
            &mut |label| table.intern(label),
        );
        arena.mark_output_only();
        let mut out = arena.render(root, &table);
        arena.render_tree_reasons(root, &table, "; ", &mut out);
        out.trim_end().to_string()
    }

    fn representations(query_body: &str) -> String {
        representations_of(&normalize(&parse_query(query_body).unwrap()).unwrap())
    }

    #[test]
    fn printed_only_subtrees_are_bytes() {
        for (query, expected) in [
            ("<r>{$book/author}</r>", "{author:bytes}"),
            (
                "<r>{ for $x in $book/author return <w>{$x}</w> }</r>",
                "{author:bytes}",
            ),
            ("<r>{$book/author}{$book/author}</r>", "{author:bytes}"),
            // The condition reads another node, not the author.
            (
                r#"<r>{ for $x in $book/author return if ($book/title = "t") then $x else () }</r>"#,
                r#"{author:bytes,title:*}; title: tree, compared in $book/title = "t""#,
            ),
        ] {
            assert_eq!(representations(query), expected, "{query}");
        }
    }

    #[test]
    fn every_non_copy_use_keeps_a_tree_and_says_which() {
        for (query, expected) in [
            (
                r#"<r>{$book/author}{ if ($book/author = "x") then "y" else () }</r>"#,
                r#"{author:*}; author: tree, compared in $book/author = "x""#,
            ),
            (
                r#"<r>{ for $x in $book/author return if ($x = "x") then $x else () }</r>"#,
                r#"{author:*}; author: tree, compared in $x = "x""#,
            ),
            (
                r#"<r>{ for $x in $book/author where $x = "x" return $x }</r>"#,
                r#"{author:*}; author: tree, compared in $x = "x""#,
            ),
            (
                r#"<r>{$book/author}{ if (exists($book/author)) then "y" else () }</r>"#,
                "{author:*}; author: tree, tested by exists($book/author)",
            ),
            (
                r#"<r>{$book/author}{ if (empty($book/author)) then "y" else () }</r>"#,
                "{author:*}; author: tree, tested by empty($book/author)",
            ),
            (
                r#"<r a="{$book/author}">{$book/author}</r>"#,
                "{author:*}; author: tree, atomised in an attribute value",
            ),
            (
                "<r>{$book/author}{$book/author/text()}</r>",
                "{author:*}; author: tree, text() read",
            ),
            (
                "<r>{$book/author}{$book/author/@id}</r>",
                "{author:*}; author: tree, @id read",
            ),
            (
                "<r>{$book/author}{$book/author/last}</r>",
                "{author:*}; author: tree, a further step reads last",
            ),
            // The scope root itself is never serialized.
            ("<r>{$book}</r>", "*"),
        ] {
            assert_eq!(representations(query), expected, "{query}");
        }
        // Normalisation inlines `let`; a `let` that survives binds a
        // variable whose uses are not tracked, so its value stays a tree.
        let let_bound = Expr::Let {
            var: "a".to_string(),
            value: Box::new(Expr::Path(Path::var("book").child("author"))),
            body: Box::new(Expr::Var("a".to_string())),
        };
        assert_eq!(
            representations_of(&let_bound),
            "{author:*}; author: tree, bound by let $a"
        );
    }

    #[test]
    fn author_loop_needs_whole_authors() {
        let (arena, root, table) = needs_of("<r>{ for $a in $book/author return $a }</r>");
        assert_eq!(arena.render(root, &table), "{author:*}");
    }

    #[test]
    fn text_read_projects_to_text() {
        let (arena, root, table) = needs_of("<r>{ for $a in $book/author return $a/text() }</r>");
        assert_eq!(arena.render(root, &table), "{author:{text()}}");
    }

    #[test]
    fn attribute_read_keeps_shell_only() {
        let (arena, root, table) = needs_of("<r>{ for $a in $book/author return $a/@id }</r>");
        assert_eq!(arena.render(root, &table), "{author}");
    }

    #[test]
    fn comparison_operands_keep_subtree() {
        let (arena, root, table) =
            needs_of(r#"<r>{ if ($book/publisher = "AW") then "y" else () }</r>"#);
        assert_eq!(arena.render(root, &table), "{publisher:*}");
    }

    #[test]
    fn exists_materialises_shell() {
        let (arena, root, table) =
            needs_of("<r>{ if (exists($book/editor)) then \"y\" else () }</r>");
        assert_eq!(arena.render(root, &table), "{editor}");
    }

    #[test]
    fn whole_var_marks_root() {
        let (arena, root, table) = needs_of("<r>{$book}</r>");
        assert_eq!(arena.render(root, &table), "*");
    }

    #[test]
    fn nested_projection() {
        let (arena, root, table) =
            needs_of("<r>{ for $a in $book/author return for $n in $a/last return $n/text() }</r>");
        assert_eq!(arena.render(root, &table), "{author:{last:{text()}}}");
    }

    #[test]
    fn multiple_needs_union() {
        let (arena, root, table) = needs_of(
            r#"<r>{ for $a in $book/author return $a }{ $book/title/text() }{ if ($book/price < 10) then "c" else () }</r>"#,
        );
        assert_eq!(
            arena.render(root, &table),
            "{author:*,price:*,title:{text()}}"
        );
    }

    #[test]
    fn undeclared_labels_keep_spec_structure() {
        // A label no DTD declares is interned into the vocabulary like any
        // other: the spec tree keys its edge by that symbol, and descent
        // on any other symbol finds nothing.
        let (arena, root, mut table) = needs_of("<r>{ for $a in $book/undeclared return $a }</r>");
        assert_eq!(arena.render(root, &table), "{undeclared:*}");
        let view = SpecView::Project(root);
        assert!(view
            .descend_sym(&arena, table.intern("undeclared"))
            .is_some());
        assert_eq!(view.descend_sym(&arena, table.intern("author")), None);
    }

    #[test]
    fn spec_view_descend() {
        let (arena, root, mut table) =
            needs_of("<r>{ for $a in $book/author return $a/text() }</r>");
        let view = SpecView::Project(root);
        let author = view.descend_sym(&arena, table.intern("author")).unwrap();
        assert!(author.keeps_text(&arena));
        assert!(
            view.descend_sym(&arena, table.intern("title")).is_none(),
            "title projected away"
        );
        assert!(!view.keeps_text(&arena));
        // Whole view keeps descending as whole.
        assert_eq!(
            SpecView::Whole.descend_sym(&arena, table.intern("anything")),
            Some(SpecView::Whole)
        );
    }
}
