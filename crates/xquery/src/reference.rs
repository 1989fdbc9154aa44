//! The materialising reference interpreter.
//!
//! This is the original tree-at-a-time evaluator: every path step builds a
//! `Vec` of matches and every label resolves by name. It is deliberately
//! simple and survives as the *oracle* the streaming
//! [`CursorEvaluator`](crate::eval::CursorEvaluator) is differentially
//! tested against (same output bytes, same errors) — production callers
//! all use the compiled cursor path.
//!
//! Comparison semantics are XPath-style *general comparisons*: `A op B`
//! holds iff some pair of items satisfies `op`, numerically when both
//! values parse as numbers, else by string comparison.

use crate::ast::*;
use crate::error::{Result, XQueryError};
use crate::eval::{compare, copy_node, QuerySink};
use flux_xml::tree::{Document, NodeId};
use std::collections::HashMap;

/// Variable bindings: every variable is bound to a single node.
pub type Env = HashMap<VarName, NodeId>;

/// One item of an evaluated sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Node(NodeId),
    Str(String),
}

/// Evaluator over one document arena.
pub struct TreeEvaluator<'d> {
    doc: &'d Document,
}

impl<'d> TreeEvaluator<'d> {
    pub fn new(doc: &'d Document) -> Self {
        TreeEvaluator { doc }
    }

    pub fn document(&self) -> &'d Document {
        self.doc
    }

    /// Evaluates `expr` under `env`, emitting results to `sink`.
    pub fn eval(&self, expr: &Expr, env: &mut Env, sink: &mut impl QuerySink) -> Result<()> {
        match expr {
            Expr::Empty => Ok(()),
            Expr::StringLit(s) => sink.text(s),
            Expr::Var(v) => {
                let node = self.bound(env, v)?;
                self.copy_node(node, sink)
            }
            Expr::Path(p) => {
                for item in self.resolve_items(p, env)? {
                    match item {
                        Item::Node(n) => self.copy_node(n, sink)?,
                        Item::Str(s) => sink.text(&s)?,
                    }
                }
                Ok(())
            }
            Expr::Sequence(items) => {
                for item in items {
                    self.eval(item, env, sink)?;
                }
                Ok(())
            }
            Expr::Element {
                name,
                attributes,
                content,
            } => {
                let mut attrs = Vec::with_capacity(attributes.len());
                for attr in attributes {
                    attrs.push(flux_xml::Attribute::new(
                        attr.name.clone(),
                        self.eval_attr_template(&attr.value, env)?,
                    ));
                }
                sink.start_element(name, &attrs)?;
                self.eval(content, env, sink)?;
                sink.end_element()
            }
            Expr::For {
                var,
                source,
                where_clause,
                body,
            } => {
                let nodes = self.resolve_nodes(source, env)?;
                for node in nodes {
                    let shadowed = env.insert(var.clone(), node);
                    let keep = match where_clause {
                        Some(cond) => self.eval_cond(cond, env)?,
                        None => true,
                    };
                    if keep {
                        self.eval(body, env, sink)?;
                    }
                    match shadowed {
                        Some(old) => {
                            env.insert(var.clone(), old);
                        }
                        None => {
                            env.remove(var);
                        }
                    }
                }
                Ok(())
            }
            Expr::Let { .. } => Err(XQueryError::eval(
                "let must be inlined by normalization before evaluation",
            )),
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval_cond(cond, env)? {
                    self.eval(then_branch, env, sink)
                } else {
                    self.eval(else_branch, env, sink)
                }
            }
        }
    }

    fn bound(&self, env: &Env, var: &str) -> Result<NodeId> {
        env.get(var)
            .copied()
            .ok_or_else(|| XQueryError::eval(format!("unbound variable `${var}`")))
    }

    /// Resolves an element path to nodes in document order.
    pub fn resolve_nodes(&self, path: &Path, env: &Env) -> Result<Vec<NodeId>> {
        let mut current = vec![self.bound(env, &path.start)?];
        for step in &path.steps {
            match step {
                Step::Child(name) => {
                    let mut next = Vec::new();
                    for node in current {
                        next.extend(self.doc.children_named(node, name));
                    }
                    current = next;
                }
                Step::Attribute(_) | Step::Text => {
                    return Err(XQueryError::eval(format!(
                        "path {path} used where element nodes are required"
                    )))
                }
            }
        }
        Ok(current)
    }

    /// Resolves any path to items (nodes, attribute strings, text pieces).
    pub fn resolve_items(&self, path: &Path, env: &Env) -> Result<Vec<Item>> {
        let (element_steps, tail) = match path.steps.last() {
            Some(Step::Attribute(_)) | Some(Step::Text) => {
                (&path.steps[..path.steps.len() - 1], path.steps.last())
            }
            _ => (&path.steps[..], None),
        };
        let mut current = vec![self.bound(env, &path.start)?];
        for step in element_steps {
            let Step::Child(name) = step else {
                return Err(XQueryError::eval(format!(
                    "non-final attribute/text step in {path}"
                )));
            };
            let mut next = Vec::new();
            for node in current {
                next.extend(self.doc.children_named(node, name));
            }
            current = next;
        }
        match tail {
            None => Ok(current.into_iter().map(Item::Node).collect()),
            Some(Step::Attribute(name)) => Ok(current
                .into_iter()
                .filter_map(|n| {
                    self.doc
                        .attribute(n, name)
                        .map(|v| Item::Str(v.to_string()))
                })
                .collect()),
            Some(Step::Text) => {
                let mut items = Vec::new();
                for node in current {
                    for &child in self.doc.children(node) {
                        if let Some(t) = self.doc.text(child) {
                            items.push(Item::Str(t.to_string()));
                        }
                    }
                }
                Ok(items)
            }
            Some(Step::Child(_)) => unreachable!("handled above"),
        }
    }

    /// Copies a node's subtree to the sink.
    pub fn copy_node(&self, node: NodeId, sink: &mut impl QuerySink) -> Result<()> {
        copy_node(self.doc, node, sink)
    }

    /// The string value of `node`.
    fn string_value(&self, node: NodeId) -> Result<String> {
        self.doc
            .string_value(node)
            .map_err(|e| XQueryError::eval(e.to_string()))
    }

    fn item_value(&self, item: Item) -> Result<String> {
        match item {
            Item::Node(n) => self.string_value(n),
            Item::Str(s) => Ok(s),
        }
    }

    /// Evaluates an attribute value template to its string value (multiple
    /// items joined with single spaces, per XQuery attribute semantics).
    pub fn eval_attr_template(&self, parts: &[AttrPart], env: &mut Env) -> Result<String> {
        let mut out = String::new();
        for part in parts {
            match part {
                AttrPart::Literal(t) => out.push_str(t),
                AttrPart::Expr(e) => {
                    let values = self.atomize(e, env)?;
                    for (i, v) in values.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        out.push_str(v);
                    }
                }
            }
        }
        Ok(out)
    }

    /// String values of an atomizable expression (paths, strings, vars).
    fn atomize(&self, expr: &Expr, env: &Env) -> Result<Vec<String>> {
        match expr {
            Expr::Empty => Ok(vec![]),
            Expr::StringLit(s) => Ok(vec![s.clone()]),
            Expr::Var(v) => {
                let node = self.bound(env, v)?;
                Ok(vec![self.string_value(node)?])
            }
            Expr::Path(p) => self
                .resolve_items(p, env)?
                .into_iter()
                .map(|item| self.item_value(item))
                .collect(),
            Expr::Sequence(items) => {
                let mut out = Vec::new();
                for item in items {
                    out.extend(self.atomize(item, env)?);
                }
                Ok(out)
            }
            other => Err(XQueryError::eval(format!(
                "expression cannot be atomized: {other:?}"
            ))),
        }
    }

    /// Evaluates a condition to a boolean.
    pub fn eval_cond(&self, cond: &Cond, env: &Env) -> Result<bool> {
        match cond {
            Cond::True => Ok(true),
            Cond::False => Ok(false),
            Cond::And(a, b) => Ok(self.eval_cond(a, env)? && self.eval_cond(b, env)?),
            Cond::Or(a, b) => Ok(self.eval_cond(a, env)? || self.eval_cond(b, env)?),
            Cond::Not(c) => Ok(!self.eval_cond(c, env)?),
            Cond::Exists(p) => Ok(!self.resolve_items(p, env)?.is_empty()),
            Cond::Empty(p) => Ok(self.resolve_items(p, env)?.is_empty()),
            Cond::Cmp { lhs, op, rhs } => {
                let left = self.operand_values(lhs, env)?;
                let right = self.operand_values(rhs, env)?;
                Ok(left
                    .iter()
                    .any(|a| right.iter().any(|b| compare(a, b, *op))))
            }
        }
    }

    fn operand_values(&self, op: &Operand, env: &Env) -> Result<Vec<String>> {
        match op {
            Operand::StringLit(s) => Ok(vec![s.clone()]),
            Operand::NumberLit(n) => Ok(vec![n.clone()]),
            Operand::Path(p) => {
                if p.steps.is_empty() {
                    let node = self.bound(env, &p.start)?;
                    return Ok(vec![self.string_value(node)?]);
                }
                self.resolve_items(p, env)?
                    .into_iter()
                    .map(|item| self.item_value(item))
                    .collect()
            }
        }
    }
}

/// Reference-interpreter counterpart of
/// [`eval_to_string`](crate::eval::eval_to_string), for differential tests.
pub fn reference_eval_to_string(doc: &Document, expr: &Expr) -> Result<String> {
    let evaluator = TreeEvaluator::new(doc);
    let mut env = Env::new();
    env.insert(ROOT_VAR.to_string(), doc.document_node());
    let mut writer = flux_xml::XmlWriter::new(Vec::new());
    evaluator.eval(expr, &mut env, &mut writer)?;
    writer
        .finish()
        .map_err(|e| XQueryError::eval(format!("output error: {e}")))?;
    String::from_utf8(writer.into_inner()).map_err(|_| XQueryError::eval("invalid UTF-8 output"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    const BIB: &str = r#"<bib><book year="1994"><title>TCP/IP</title><author>Stevens</author><author>Wright</author><publisher>AW</publisher><price>65.95</price></book><book year="2000"><title>Data on the Web</title><author>Abiteboul</author><publisher>MK</publisher><price>39.95</price></book></bib>"#;

    fn run(query: &str, doc_text: &str) -> String {
        let doc = Document::parse_str(doc_text).unwrap();
        let expr = parse_query(query).unwrap();
        reference_eval_to_string(&doc, &expr).unwrap()
    }

    #[test]
    fn q3_reference() {
        let out = run(
            r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#,
            BIB,
        );
        assert_eq!(
            out,
            "<results><result><title>TCP/IP</title><author>Stevens</author><author>Wright</author></result><result><title>Data on the Web</title><author>Abiteboul</author></result></results>"
        );
    }

    #[test]
    fn unbound_variable_is_error() {
        let doc = Document::parse_str("<a/>").unwrap();
        let expr = parse_query("<r>{$nope/x}</r>").unwrap();
        assert!(reference_eval_to_string(&doc, &expr).is_err());
    }
}
