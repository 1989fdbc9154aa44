//! The engine facade: one type that compiles once and runs many times,
//! plus a uniform wrapper over the three architectures for experiments.

use crate::error::Result;
use flux_baseline::{DomEngine, ProjectionEngine};
use flux_dtd::Dtd;
use flux_lang::{compile as compile_flux, CompileOptions, FluxQuery};
use flux_runtime::{compile_plan, execute, Plan, RunReport, RunStats};
use flux_shard::{ShardConfig, ShardedReader};
use flux_xml::{BudgetKind, Input, XmlReader};
use std::io::Write;

/// How the engine parses its input stream.
///
/// Sharded parsing fans tokenisation out over N threads (`flux_shard`);
/// the query evaluator and the XSAX DFA still consume one stitched,
/// exactly-sequential event stream, so results, validation verdicts and
/// buffer accounting are identical to [`Parallelism::Sequential`] — only
/// the parse work moves off the critical path. Every [`Input`] reaches
/// the shards as one stream, dispatched chunk by chunk with bounded
/// in-flight memory and never materialised; an in-memory document of
/// known length is cut into an even share per shard. Prefer `Sequential`
/// for latency-sensitive streams, where the paper's token-bounded memory
/// guarantee is tightest.
/// *Malformed* input behaves the same in every mode: the result of the
/// valid prefix is streamed to the output first, then the run fails with
/// the same error at the same byte position (offset, line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One reader thread, token-bounded memory (the paper's model).
    #[default]
    Sequential,
    /// Parse with up to N parallel shards (N ≥ 1; 1 still pipelines but
    /// parses on one thread).
    Shards(usize),
}

/// Compilation and execution options: a builder, finished by
/// [`Options::compile`]. The defaults are the full optimizer, streaming
/// handlers and sequential parsing.
#[derive(Debug, Clone, Default)]
pub struct Options {
    compile: CompileOptions,
    parallelism: Parallelism,
}

impl Options {
    pub fn new() -> Options {
        Options::default()
    }

    /// Chainable: parse the input with `n` parallel shards (see
    /// [`Parallelism::Shards`]).
    pub fn shards(mut self, n: usize) -> Options {
        self.parallelism = Parallelism::Shards(n);
        self
    }

    /// Chainable: enable or disable the algebraic optimizer (ablation).
    pub fn algebraic_optimizer(mut self, enabled: bool) -> Options {
        self.compile.optimizer = enabled;
        self
    }

    /// Chainable: enable or disable streaming handlers (the scheduling
    /// ablation — disabled means buffer everything).
    pub fn streaming(mut self, enabled: bool) -> Options {
        self.compile.disable_streaming = !enabled;
        self
    }

    /// The one compilation entry point behind every architecture: compiles
    /// `query` for `kind` under these options and returns the uniform
    /// [`AnyEngine`] wrapper. The schema and the compiler ablations are
    /// used only by the FluX engine — the baselines cannot use a schema,
    /// which is the paper's point; parallelism applies to the FluX engine
    /// only.
    ///
    /// ```no_run
    /// # use fluxquery_core::{EngineKind, Input, Options};
    /// # let (query, dtd, doc) = ("", "", Vec::new());
    /// let engine = Options::new()
    ///     .shards(4)
    ///     .compile(EngineKind::Flux, query, dtd)?;
    /// engine.run_input(Input::from_bytes(doc), std::io::stdout())?;
    /// # Ok::<(), fluxquery_core::Error>(())
    /// ```
    pub fn compile(&self, kind: EngineKind, query: &str, dtd_text: &str) -> Result<AnyEngine> {
        Ok(match kind {
            EngineKind::Flux => {
                AnyEngine::Flux(Box::new(FluxEngine::compile(query, dtd_text, self)?))
            }
            EngineKind::Dom => AnyEngine::Dom(DomEngine::compile(query)?),
            EngineKind::Projection => AnyEngine::Projection(ProjectionEngine::compile(query)?),
        })
    }
}

/// The FluXQuery engine: a query compiled against a DTD, ready to run over
/// any number of input streams.
pub struct FluxEngine {
    dtd: Dtd,
    query: FluxQuery,
    plan: Plan,
    parallelism: Parallelism,
}

impl FluxEngine {
    /// Compiles `query` against a DTD.
    pub fn compile(query: &str, dtd_text: &str, options: &Options) -> Result<FluxEngine> {
        let dtd = Dtd::parse(dtd_text)?;
        let compiled = compile_flux(query, &dtd, &options.compile)?;
        let plan = compile_plan(&compiled, &dtd)?;
        Ok(FluxEngine {
            dtd,
            query: compiled,
            plan,
            parallelism: options.parallelism,
        })
    }

    /// Runs the query over a unified [`Input`], streaming results to
    /// `output` — the one execution method.
    ///
    /// The input's window and [`flux_xml::MemoryBudget`] are threaded into
    /// the pipeline, and the budget (if any) is enforced after the run:
    /// the run fails with a budget error if the tracked peak — scanner
    /// windows, in-flight shard tapes and chunks, runtime buffers —
    /// exceeded the limit. With [`Parallelism::Shards`], every input is
    /// dispatched to the shards incrementally and never materialised.
    pub fn run_input<W: Write>(&self, input: Input, output: W) -> Result<RunStats> {
        Ok(self.run(input, output, false)?.0)
    }

    /// [`run_input`](Self::run_input) plus the run's telemetry
    /// [`RunReport`] — every pipeline stage's counters, spans and (under
    /// sharded parsing) the per-shard timeline.
    pub fn run_input_with_report<W: Write>(
        &self,
        input: Input,
        output: W,
    ) -> Result<(RunStats, RunReport)> {
        let (stats, report) = self.run(input, output, true)?;
        let report = report.ok_or_else(|| flux_runtime::RuntimeError::Plan {
            message: "the run assembled no report".to_string(),
        })?;
        Ok((stats, report))
    }

    fn run<W: Write>(
        &self,
        input: Input,
        output: W,
        want_report: bool,
    ) -> Result<(RunStats, Option<RunReport>)> {
        let budget = input.memory_budget().cloned();
        // The run's reader configuration: the ingestion knobs the `Input`
        // owns (window, budget).
        let reader = input.reader_config();
        let known_len = input.known_len();
        // Resolving opens the file and applies gzip detection; I/O
        // failures join the engine error chain where the sequential
        // reader would surface them.
        let source = input
            .into_source()
            .map_err(|e| flux_runtime::RuntimeError::from(flux_xsax::XsaxError::Xml(e.into())))?;
        let (plan, dtd) = (&self.plan, &self.dtd);
        // Both readers are seeded with the plan's vocabulary, the one
        // symbol space every name the plan compares belongs to.
        let vocabulary = plan.symbols.clone();
        let (stats, report) = match self.parallelism {
            Parallelism::Sequential => {
                // Closed at the vocabulary: names outside it never grow
                // the interner.
                let source = XmlReader::closed(source, reader, vocabulary);
                execute(plan, dtd, source, output, want_report)?
            }
            Parallelism::Shards(n) => {
                let mut config = ShardConfig {
                    reader,
                    ..ShardConfig::new(n)
                };
                // A known length is cut into an even share per shard,
                // between 16 KiB and the 1 MiB a stream of unknown length
                // is cut into.
                if let Some(len) = known_len {
                    config.chunk_bytes = len
                        .div_ceil(config.shards)
                        .clamp(16 * 1024, config.chunk_bytes);
                }
                // Shard workers and the merged table stay open: every
                // name a fragment carries is interned.
                let source = ShardedReader::from_stream(source, config, vocabulary);
                execute(plan, dtd, source, output, want_report)?
            }
        };
        // Post-run budget enforcement: fold the evaluator's buffer peak
        // into the budget the pipeline charged its windows/tapes/chunks
        // against, then fail the run if the tracked peak exceeded the limit.
        if let Some(b) = budget {
            b.record_peak(BudgetKind::Buffer, stats.peak_buffer_bytes as u64);
            b.check().map_err(flux_runtime::RuntimeError::from)?;
        }
        Ok((stats, report))
    }

    /// Convenience: runs over a string, returning the output string.
    pub fn run_to_string(&self, input: &str) -> Result<(String, RunStats)> {
        let mut out = Vec::new();
        let stats = self.run_input(Input::from_bytes(input), &mut out)?;
        let out = String::from_utf8(out).map_err(|_| {
            flux_runtime::RuntimeError::Output(flux_xml::XmlError::WriterMisuse {
                message: "writer produced invalid UTF-8".to_string(),
            })
        })?;
        Ok((out, stats))
    }

    /// The DTD this engine validates against.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// The compiled query with all intermediate stages.
    pub fn query(&self) -> &FluxQuery {
        &self.query
    }

    /// Number of buffering (`on-first`) handlers in the plan.
    pub fn buffered_handler_count(&self) -> usize {
        self.query.buffered_handler_count()
    }

    /// A multi-stage compilation report: normal form, applied algebraic
    /// rules, scheduling decisions, the FluX query, the BDF, which loops
    /// of the buffered bodies are keyed, and which scopes walk their
    /// children off the event path (copying and skipping which).
    pub fn explain(&self) -> String {
        let mut out = self.query.explain();
        out.push_str("\n== buffer description forest ==\n");
        out.push_str(&self.plan.render_bdf());
        out.push_str("\n== keyed loops ==\n");
        out.push_str(&self.plan.render_loops());
        out.push_str("\n== walks ==\n");
        out.push_str(&self.plan.render_walks());
        out
    }
}

/// Which engine architecture to use (for the experiment harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// FluXQuery, with the compiler ablations [`Options`] selects.
    Flux,
    /// Full-document DOM materialisation.
    Dom,
    /// Marian & Siméon-style projection.
    Projection,
}

impl EngineKind {
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Flux => "fluxquery",
            EngineKind::Dom => "dom",
            EngineKind::Projection => "projection",
        }
    }

    pub fn all() -> [EngineKind; 3] {
        [EngineKind::Flux, EngineKind::Projection, EngineKind::Dom]
    }
}

/// A uniform wrapper over the three architectures, compiled once and run
/// over any [`Input`] under the same window and budget.
pub enum AnyEngine {
    Flux(Box<FluxEngine>),
    Dom(DomEngine),
    Projection(ProjectionEngine),
}

impl AnyEngine {
    /// Compiles `query` for the chosen architecture with default options.
    /// Shorthand for [`Options::compile`] on [`Options::new`].
    pub fn compile(kind: EngineKind, query: &str, dtd_text: &str) -> Result<AnyEngine> {
        Options::new().compile(kind, query, dtd_text)
    }

    /// Runs over a unified [`Input`] — the one execution entry point every
    /// architecture shares. The input's window and budget apply to all
    /// three engines; gzip sources are decompressed transparently.
    pub fn run_input<W: Write>(&self, input: Input, output: W) -> Result<RunStats> {
        match self {
            AnyEngine::Flux(e) => e.run_input(input, output),
            AnyEngine::Dom(e) => Ok(e.run_input(input, output)?),
            AnyEngine::Projection(e) => Ok(e.run_input(input, output)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_dtd::{PAPER_FIG1_DTD, PAPER_WEAK_DTD};
    use flux_xml::MemoryBudget;
    use std::sync::Arc;

    const Q3: &str = r#"<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>"#;

    #[test]
    fn compile_and_run() {
        let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new()).unwrap();
        let (out, stats) = engine
            .run_to_string("<bib><book><author>A</author><title>T</title></book></bib>")
            .unwrap();
        assert_eq!(
            out,
            "<results><result><title>T</title><author>A</author></result></results>"
        );
        assert!(stats.peak_buffer_bytes > 0);
        assert_eq!(engine.buffered_handler_count(), 1);
    }

    #[test]
    fn explain_has_all_stages() {
        let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new()).unwrap();
        let explain = engine.explain();
        for section in [
            "== normalized query ==",
            "== scheduling ==",
            "== FluX query ==",
            "== buffer description forest ==",
        ] {
            assert!(explain.contains(section), "missing {section}:\n{explain}");
        }
        assert!(explain.contains("process-stream"), "{explain}");
        assert!(explain.contains("{author:bytes}"), "{explain}");
    }

    #[test]
    fn engine_reusable_across_runs() {
        let engine = FluxEngine::compile(Q3, PAPER_FIG1_DTD, &Options::new()).unwrap();
        let doc = "<bib><book><title>T</title><author>A</author><publisher>P</publisher><price>1</price></book></bib>";
        let (out1, _) = engine.run_to_string(doc).unwrap();
        let (out2, _) = engine.run_to_string(doc).unwrap();
        assert_eq!(out1, out2);
    }

    #[test]
    fn all_engines_agree() {
        let doc = "<bib><book><title>T1</title><author>A1</author></book><book><title>T2</title><author>A2</author><author>A3</author></book></bib>";
        let mut outputs = Vec::new();
        for kind in EngineKind::all() {
            let engine = AnyEngine::compile(kind, Q3, PAPER_WEAK_DTD).unwrap();
            let mut out = Vec::new();
            engine.run_input(Input::from_bytes(doc), &mut out).unwrap();
            outputs.push((kind.label(), String::from_utf8(out).unwrap()));
        }
        let first = outputs[0].1.clone();
        for (label, out) in &outputs {
            assert_eq!(*out, first, "{label} diverged");
        }
    }

    #[test]
    fn sharded_run_matches_sequential() {
        let mut doc = String::from("<bib>");
        for i in 0..500 {
            doc.push_str(&format!(
                "<book><author>Author {i} &amp; co</author><title>Title {i}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        let sequential = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new()).unwrap();
        let (seq_out, seq_stats) = sequential.run_to_string(&doc).unwrap();
        for shards in [1, 2, 4] {
            let engine =
                FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new().shards(shards)).unwrap();
            let (out, stats) = engine.run_to_string(&doc).unwrap();
            assert_eq!(out, seq_out, "{shards} shards diverged");
            assert_eq!(
                stats.peak_buffer_bytes, seq_stats.peak_buffer_bytes,
                "buffer accounting must not depend on parallelism"
            );
        }
    }

    #[test]
    fn report_is_available_in_both_modes_and_parallelisms() {
        let mut doc = String::from("<bib>");
        for i in 0..50 {
            doc.push_str(&format!(
                "<book><author>A{i}</author><title>T{i}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        for options in [Options::new(), Options::new().shards(2)] {
            let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &options).unwrap();
            let mut out = Vec::new();
            let (stats, report) = engine
                .run_input_with_report(Input::from_bytes(doc.clone()), &mut out)
                .unwrap();
            let mut plain = Vec::new();
            let plain_stats = engine
                .run_input(Input::from_bytes(doc.clone()), &mut plain)
                .unwrap();
            assert_eq!(out, plain, "report assembly must not change output");
            assert_eq!(stats.peak_buffer_bytes, plain_stats.peak_buffer_bytes);
            let json = report.to_json();
            for needle in ["\"run_stats\"", "\"runtime\"", "\"xsax\"", "\"buffers\""] {
                assert!(json.contains(needle), "missing {needle} in:\n{json}");
            }
            // Text rendering never panics and carries the stats line.
            assert!(report.to_text().contains("run_stats:"));
        }
    }

    #[test]
    fn streamed_sharded_input_matches_sequential() {
        // A reader Input under Parallelism::Shards takes the incremental
        // dispatch path (never materialised); output and buffer accounting
        // must still match the sequential run byte for byte.
        let mut doc = String::from("<bib>");
        for i in 0..800 {
            doc.push_str(&format!(
                "<book><author>Author {i} &amp; co</author><title>Title {i}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        let sequential = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new()).unwrap();
        let (seq_out, seq_stats) = sequential.run_to_string(&doc).unwrap();
        for shards in [1, 2, 4] {
            let engine =
                FluxEngine::compile(Q3, PAPER_WEAK_DTD, &Options::new().shards(shards)).unwrap();
            let mut out = Vec::new();
            let stats = engine
                .run_input(
                    Input::from_reader(std::io::Cursor::new(doc.clone().into_bytes())),
                    &mut out,
                )
                .unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), seq_out, "{shards} shards");
            assert_eq!(stats.peak_buffer_bytes, seq_stats.peak_buffer_bytes);
        }
    }

    /// In-memory gzip streams through the decoder a `.gz` file goes
    /// through: the plain run's output when valid, and the `.gz` file's
    /// output prefix and error when truncated or corrupt — sequential and
    /// sharded.
    #[test]
    fn in_memory_gzip_runs_like_a_gz_file() {
        let mut doc = String::from("<bib>");
        for i in 0..3000 {
            doc.push_str(&format!(
                "<book><author>Author {i}</author><title>Title {i}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        // Stored blocks hold at most 0xFFFF bytes each: corrupting the
        // second block's length check leaves a valid first block before it.
        assert!(doc.len() > 2 * 0xFFFF);
        let gz = miniflate::gzip_compress_stored(doc.as_bytes());
        let truncated = gz[..gz.len() / 2].to_vec();
        let mut corrupt = gz.clone();
        corrupt[10 + 5 + 0xFFFF + 3] ^= 0xFF;
        let dir = std::env::temp_dir().join(format!("flux_engine_gz_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.xml.gz");
        let run = |engine: &FluxEngine, input: Input| {
            let mut out = Vec::new();
            let result = engine.run_input(input, &mut out);
            (out, result.map_err(|e| e.to_string()))
        };
        for options in [Options::new(), Options::new().shards(2)] {
            let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &options).unwrap();
            let (plain, plain_stats) = run(&engine, Input::from_bytes(doc.clone()));
            let (out, stats) = run(&engine, Input::from_bytes(gz.clone()));
            assert_eq!(out, plain, "{options:?}");
            assert_eq!(
                stats.unwrap().events,
                plain_stats.unwrap().events,
                "{options:?}"
            );
            for bad in [&truncated, &corrupt] {
                std::fs::write(&path, bad).unwrap();
                let (file_out, file_err) = run(&engine, Input::from_path(&path));
                let (out, err) = run(&engine, Input::from_bytes(bad.clone()));
                let file_err = file_err.expect_err("a broken .gz file fails");
                assert_eq!(err.expect_err("broken gzip bytes fail"), file_err);
                assert_eq!(out, file_out, "{options:?}: {file_err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_is_enforced_post_run() {
        let mut doc = String::from("<bib>");
        for i in 0..200 {
            doc.push_str(&format!(
                "<book><author>A{i}</author><title>T{i}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        // A generous budget passes, in every parallelism and architecture.
        for options in [Options::new(), Options::new().shards(2)] {
            let engine = FluxEngine::compile(Q3, PAPER_WEAK_DTD, &options).unwrap();
            let budget = MemoryBudget::new(64 * 1024 * 1024);
            let mut out = Vec::new();
            engine
                .run_input(
                    Input::from_reader(std::io::Cursor::new(doc.clone().into_bytes()))
                        .budget(Arc::clone(&budget)),
                    &mut out,
                )
                .unwrap();
            assert!(budget.peak_total() > 0, "pipeline charged nothing");
        }
        // An absurdly small one fails post-run with a budget error naming
        // the pool that grew — on the flux engine and both baselines.
        for kind in EngineKind::all() {
            let engine = AnyEngine::compile(kind, Q3, PAPER_WEAK_DTD).unwrap();
            let mut out = Vec::new();
            let err = engine
                .run_input(
                    Input::from_bytes(doc.clone()).budget(MemoryBudget::new(16)),
                    &mut out,
                )
                .unwrap_err();
            assert!(
                err.to_string().contains("memory budget exceeded"),
                "{}: {err}",
                kind.label()
            );
        }
    }

    #[test]
    fn builder_path_compiles_every_architecture() {
        let doc = "<bib><book><title>T</title><author>A</author></book></bib>";
        for (kind, optimizer) in [
            (EngineKind::Flux, true),
            (EngineKind::Flux, false),
            (EngineKind::Dom, true),
            (EngineKind::Projection, true),
        ] {
            let engine = Options::new()
                .algebraic_optimizer(optimizer)
                .compile(kind, Q3, PAPER_WEAK_DTD)
                .unwrap();
            let mut out = Vec::new();
            engine
                .run_input(Input::from_bytes(doc.as_bytes().to_vec()), &mut out)
                .unwrap();
            assert!(!out.is_empty(), "{}", kind.label());
        }
    }

    #[test]
    fn sharded_run_rejects_invalid_documents() {
        let engine = FluxEngine::compile(Q3, PAPER_FIG1_DTD, &Options::new().shards(4)).unwrap();
        // Wrong child order under the Fig. 1 DTD: validation must still
        // fail with sharded parsing.
        let doc = "<bib><book><author>A</author><title>T</title><publisher>P</publisher><price>9</price></book></bib>";
        assert!(engine.run_to_string(doc).is_err());
    }

    #[test]
    fn memory_hierarchy_flux_below_projection_below_dom() {
        // Generate a document large enough for the architecture to dominate.
        let mut doc = String::from("<bib>");
        for i in 0..200 {
            doc.push_str(&format!(
                "<book><author>Author{i:04}</author><title>Title number {i:04}</title></book>"
            ));
        }
        doc.push_str("</bib>");
        let mut peaks = std::collections::HashMap::new();
        for kind in EngineKind::all() {
            let engine = AnyEngine::compile(kind, Q3, PAPER_WEAK_DTD).unwrap();
            let mut out = Vec::new();
            let stats = engine
                .run_input(Input::from_bytes(doc.clone()), &mut out)
                .unwrap();
            peaks.insert(kind.label(), stats.peak_buffer_bytes);
        }
        assert!(
            peaks["fluxquery"] < peaks["projection"],
            "flux {} < projection {}",
            peaks["fluxquery"],
            peaks["projection"]
        );
        assert!(
            peaks["projection"] <= peaks["dom"],
            "projection {} <= dom {}",
            peaks["projection"],
            peaks["dom"]
        );
    }
}
