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
    /// insertion order. An element buffered under this node keeps only
    /// these unless it is `copied` ([`SpecNode::keeps_attr`]) — an
    /// attribute name no expression reads never enters the buffer store,
    /// so an adversarial stream minting distinct names cannot grow the
    /// store's run-long dictionary.
    pub attrs: Vec<Symbol>,
    /// Some use copies this node — an output path, a `$v` copy, a `let`
    /// binding — so it keeps every attribute. A kept-whole node is also
    /// copied when a node below it is, since it buffers that node's
    /// elements under itself ([`SpecArena::mark_output_only`]). A node
    /// kept whole only for its string value keeps just `attrs`, which
    /// then also holds the attributes read of nodes below it: a string
    /// value holds no attribute.
    pub copied: bool,
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

impl SpecNode {
    /// The one attribute rule of the buffer store: an element buffered
    /// under this node, scope shell or descendant alike, keeps attribute
    /// `name` when a use copies the node or the plan reads `name`.
    pub fn keeps_attr(&self, name: Symbol) -> bool {
        self.copied || self.attrs.contains(&name)
    }
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

    /// Keeps the whole subtree below `id`; `copied` when the use copies
    /// it, which keeps every attribute too.
    pub fn mark_whole(&mut self, id: SpecId, copied: bool) {
        let node = self.node_mut(id);
        node.whole = true;
        node.copied |= copied;
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
    /// bytes. Everything else stays a tree. A kept-whole node buffers its
    /// whole subtree under itself ([`SpecArena::descend`]), so it is
    /// `copied` when any node below it is, and otherwise keeps every
    /// attribute read below it too. Call once every expression's needs
    /// are collected.
    pub fn mark_output_only(&mut self) {
        // A child is pushed after its parent, so a reverse scan settles
        // every node below one before the node itself, and a root is no
        // node's child. `below[i]`: whether a node below `i` is copied,
        // and the attributes read below it.
        let mut below = vec![(false, Vec::new()); self.nodes.len()];
        for i in (0..self.nodes.len()).rev() {
            let (mut copied, mut attrs) = (false, Vec::new());
            for edge in self.nodes[i].children.clone() {
                let (child, child_below) = (self.node_mut(edge.child), &below[edge.child.index()]);
                child.output_only = child.whole
                    && child.children.is_empty()
                    && !child.text
                    && child.attrs.is_empty()
                    && child.tree_use.is_none();
                copied |= child.copied || child_below.0;
                attrs.extend(child.attrs.iter().chain(&child_below.1));
            }
            let node = &mut self.nodes[i];
            node.copied |= node.whole && copied;
            if node.whole && !node.copied {
                for &attr in &attrs {
                    self.mark_attr(SpecId(i), attr);
                }
            }
            below[i] = (copied, attrs);
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

    /// The node a child element named `sym` of an element buffered under
    /// `id` is buffered under; `None` when it is projected away. A short
    /// scan of integer comparisons against the symbols interned at
    /// plan-compile time. A kept-whole node descends to itself, so its
    /// whole subtree is buffered under it.
    pub fn descend(&self, id: SpecId, sym: Symbol) -> Option<SpecId> {
        let n = self.node(id);
        if n.whole {
            return Some(id);
        }
        n.children.iter().find(|e| e.sym == sym).map(|e| e.child)
    }

    /// Whether an element buffered under `id` keeps its text children.
    pub fn keeps_text(&self, id: SpecId) -> bool {
        let n = self.node(id);
        n.whole || n.text
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
            if !self.is_empty_spec(edge.child) || !self.node(edge.child).attrs.is_empty() {
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
    /// What this use keeps of the node it takes: a copy, or a `let`
    /// binding whose uses are not tracked, keeps every attribute; an
    /// atomisation only the string value.
    fn keep(self) -> Keep {
        match self {
            Use::Copy | Use::Let(_) => Keep::Copy,
            Use::Atomise => Keep::StringValue,
        }
    }

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

/// What a use of a path keeps of the node the path selects.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Keep {
    /// Its shell: `exists` and `empty` test only that it is there.
    Shell,
    /// Its whole subtree for its string value, which holds no attribute:
    /// the attributes the plan reads, and no other.
    StringValue,
    /// Its whole subtree with every attribute: the use copies it.
    Copy,
}

/// Records a path's needs, keeping what `keep` says of the node the path
/// selects; `tree_use` names the use, if any, that needs that node as a
/// tree.
fn note_path(
    arena: &mut SpecArena,
    path: &Path,
    scopes: &[(VarName, SpecId)],
    local: &[(VarName, SpecId)],
    keep: Keep,
    tree_use: &dyn Fn() -> Option<String>,
    resolver: &mut Resolver<'_>,
) {
    let Some((node, tail)) = resolve(arena, path, scopes, local, resolver) else {
        return;
    };
    match tail {
        Some(Step::Text) => arena.mark_text(node),
        Some(Step::Attribute(name)) => {
            // Buffered nodes keep only the attributes the plan reads —
            // record the read so this one is kept.
            arena.mark_attr(node, resolver(name));
        }
        _ => {
            if keep != Keep::Shell {
                // String values need all descendant text: keep the subtree.
                arena.mark_whole(node, keep == Keep::Copy);
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
                    note_path(arena, p, scopes, local, Keep::StringValue, &why, resolver);
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
            note_path(arena, p, scopes, local, Keep::Shell, &why, resolver)
        }
        Cond::Empty(p) => {
            let why = || Some(format!("tested by empty({p})"));
            note_path(arena, p, scopes, local, Keep::Shell, &why, resolver)
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
                arena.mark_whole(id, ctx.keep() == Keep::Copy);
                arena.note_tree_use(id, || ctx.tree_use());
            }
        }
        Expr::Path(p) => {
            // Output position: nodes are copied (whole), attribute/text
            // reads are cheaper.
            let keep = ctx.keep();
            note_path(arena, p, scopes, local, keep, &|| ctx.tree_use(), resolver);
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
        assert_eq!(arena.render(root, &table), "{author:{@id}}");
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
        assert!(arena.descend(root, table.intern("undeclared")).is_some());
        assert_eq!(arena.descend(root, table.intern("author")), None);
    }

    #[test]
    fn spec_view_descend() {
        let (arena, root, mut table) =
            needs_of("<r>{ for $a in $book/author return $a/text() }</r>");
        let author = arena.descend(root, table.intern("author")).unwrap();
        assert!(arena.keeps_text(author));
        assert!(
            arena.descend(root, table.intern("title")).is_none(),
            "title projected away"
        );
        assert!(!arena.keeps_text(root));
        // A kept-whole node descends to itself.
        let (arena, root, mut table) = needs_of("<r>{$book}</r>");
        let anything = table.intern("anything");
        assert_eq!(arena.descend(root, anything), Some(root));
        assert!(arena.keeps_text(root));
    }

    #[test]
    fn only_copied_nodes_keep_every_attribute() {
        // (query, label under $book, keeps all attributes, reads @id)
        for (query, label, copied, reads_id) in [
            ("<r>{$book/author}</r>", "author", true, false),
            (
                r#"<r>{ if ($book/author = "x") then "y" else () }</r>"#,
                "author",
                false,
                false,
            ),
            (r#"<r a="{$book/author}"/>"#, "author", false, false),
            (
                "<r>{ for $a in $book/author return $a/@id }</r>",
                "author",
                false,
                true,
            ),
            (
                r#"<r a="{$book/author/@id}">{ if ($book/author = "x") then "y" else () }</r>"#,
                "author",
                false,
                true,
            ),
            // A compared node buffers its subtree under itself, so a copy
            // below it keeps every attribute of the whole subtree.
            (
                r#"<r>{ if ($book/author = "x") then $book/author/last else () }</r>"#,
                "author",
                true,
                false,
            ),
            // ... and, with nothing copied below it, the attributes read
            // below it.
            (
                r#"<r a="{$book/author}">{ for $l in $book/author/last return <l i="{$l/@id}"/> }</r>"#,
                "author",
                false,
                true,
            ),
        ] {
            let (mut arena, root, mut table) = needs_of(query);
            arena.mark_output_only();
            let node = arena.node(arena.descend(root, table.intern(label)).unwrap());
            let id = table.intern("id");
            assert_eq!(node.copied, copied, "{query}");
            assert_eq!(node.keeps_attr(id), copied || reads_id, "{query}");
            assert_eq!(node.keeps_attr(table.intern("minted")), copied, "{query}");
        }
    }
}
