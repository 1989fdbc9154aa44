//! # flux-xquery
//!
//! The XQuery frontend of FluXQuery: parser, AST, normal form, static
//! analysis, pretty printer, and the two-stage compile-then-stream
//! evaluator shared by the baseline engines and the runtime's buffered
//! execution.
//!
//! Evaluation is split into a compile stage ([`compile`]) that resolves
//! every name to a [`Symbol`](flux_xml::Symbol) and every variable to a
//! dense slot once per query, and a streaming stage ([`eval`]) that walks
//! buffered documents through lazy [`cursor`]s. The original materialising
//! interpreter survives in [`mod@reference`] as the differential-testing
//! oracle.
//!
//! The supported fragment follows the paper (Sec. 4): arbitrarily nested
//! for-loops and joins, conditionals with existential general comparisons,
//! direct element constructors, `let` (inlined during normalization), and
//! child/attribute/`text()` steps — no aggregation.

pub mod analysis;
pub mod ast;
pub mod compile;
pub mod cursor;
pub mod error;
pub mod eval;
pub mod join;
pub mod normalize;
pub mod parser;
pub mod pretty;
pub mod reference;

pub use analysis::{deps_on, free_vars, paths_rooted_at, DepSet};
pub use ast::{
    AttrConstructor, AttrPart, CmpOp, Cond, Expr, Operand, Path, Step, VarName,
    GENERATED_VAR_PREFIX, ROOT_VAR,
};
pub use compile::{
    compile_attr, compile_cond, compile_expr, compile_for_document, compile_path, explain_loops,
    CompiledAttr, CompiledAttrPart, CompiledCond, CompiledExpr, CompiledOperand, CompiledPath,
    KeyedLoop, LoopPlan, PathTail, Resolver, ScanReason, SlotMap, Slots,
};
pub use cursor::{CursorItem, CursorPool, ItemCursor, PathCursor, SequenceCursor};
pub use error::{QueryPos, Result, XQueryError};
pub use eval::{compare, copy_node, eval_to_string, CountingSink, CursorEvaluator, QuerySink};
pub use join::JoinCounters;
pub use normalize::{is_normal_form, normalize};
pub use parser::parse_query;
pub use pretty::{pretty, pretty_cond};
pub use reference::{reference_eval_to_string, Env, Item, TreeEvaluator};
