//! The measurements: end-to-end (untraced), the traced ladder with its
//! lanes, and the scaling section.
//!
//! Load shape: a closed loop with one client. One `fluxquery` child or one
//! in-process call runs at a time; the next starts when it has finished.

use crate::child::{self, ChildRun, Spawner};
use crate::json::Json;
use crate::layers::{self, ByteCounter, Engine, RunCounts, Schema};
use crate::metrics::{better_quartile, Better, Metric, Spec, END_TO_END, PER_LAYER};
use crate::stats::{count, Digest, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::Arc;
use std::time::Instant;

/// Timed samples behind every gated metric, after one warm-up.
pub const GATED_SAMPLES: usize = 9;
/// A timed sample lasts at least this long; shorter calls are repeated.
const MIN_SAMPLE_S: f64 = 0.5;
/// Compilations timed for `setup_s` in each round: 9 rounds give 207.
const SETUP_PER_ROUND: usize = 23;
/// Ladder rounds, and whole-process runs behind `cli_overhead_s`.
const LADDER_ROUNDS: usize = 9;
const CLI_LANE_SAMPLES: usize = 3;

/// Checked operations: every run whose exit status, output digest or
/// oracle check is wrong is a failure, never a panic.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Checks an operation that carries its own verdict: its value when
    /// it passed, a failure named `what` when it did not.
    pub fn pass<T>(
        &mut self,
        outcome: Result<T, String>,
        what: impl FnOnce() -> String,
    ) -> Option<T> {
        match outcome {
            Ok(value) => {
                self.attempted += 1;
                Some(value)
            }
            Err(why) => {
                self.check(false, || format!("{}: {why}", what()));
                None
            }
        }
    }
}

pub struct Ctx {
    pub seed: u64,
    /// How long the end-to-end loop samples (never fewer than
    /// [`GATED_SAMPLES`] rounds).
    pub seconds: f64,
    /// `<target>/fluxbench`: every scratch file lives here.
    pub scratch: String,
    /// The `fluxquery` binary built from this checkout.
    pub fluxquery: String,
    pub spawner: Spawner,
    pub tracer: Tracer,
    /// Pinned digests (`expected.json`), checked when the seed is 42.
    pub expected: BTreeMap<String, String>,
}

/// The benchmark's directory in the checkout: queries, DTDs, pinned digests.
pub const BENCH_DIR: &str = "fluxbench";

/// The seed whose input and output digests `expected.json` pins.
pub const PINNED_SEED: u64 = 42;

/// A workload ready to measure: its document on disk and in memory, the
/// compiled engine, and the reference output every run must reproduce.
pub struct Prepared<'w> {
    pub workload: &'w Workload,
    query_path: String,
    dtd_path: String,
    input_path: String,
    output_path: String,
    query: String,
    dtd: String,
    schema: Schema,
    doc: Arc<Vec<u8>>,
    engine: Engine,
    reference: Vec<u8>,
    pub input_digest: Digest,
    pub output_digest: Digest,
    /// `RunStats` of the reference run; every later run must repeat them.
    pub counts: RunCounts,
    /// Events the reader delivers for the document.
    pub input_events: u64,
}

impl Prepared<'_> {
    fn input_mb(&self) -> f64 {
        self.doc.len() as f64 / 1e6
    }
}

fn io_err(what: &str, e: io::Error) -> String {
    format!("{what}: {e}")
}

fn digest_file(path: &str) -> io::Result<Digest> {
    let mut digest = Digest::default();
    io::copy(&mut File::open(path)?, &mut digest)?;
    Ok(digest)
}

/// Generates straight to disk, so a 128 MiB document costs no memory.
fn generate_to(path: &str, doc: layers::Doc, seed: u64) -> Result<(), String> {
    let file = File::create(path).map_err(|e| io_err(path, e))?;
    let mut out = BufWriter::new(file);
    layers::generate(doc, seed, &mut out)?;
    out.flush().map_err(|e| io_err(path, e))
}

pub fn prepare<'w>(
    ctx: &Ctx,
    workload: &'w Workload,
    tally: &mut Tally,
) -> Result<Prepared<'w>, String> {
    let read = |file: &str| {
        let path = format!("{BENCH_DIR}/{file}");
        std::fs::read_to_string(&path)
            .map(|text| (path.clone(), text))
            .map_err(|e| io_err(&path, e))
    };
    let (query_path, query) = read(workload.query_file)?;
    let (dtd_path, dtd) = read(workload.dtd_file)?;
    let input_path = format!("{}/{}.xml", ctx.scratch, workload.name);
    generate_to(&input_path, workload.doc, ctx.seed)?;
    let doc = Arc::new(std::fs::read(&input_path).map_err(|e| io_err(&input_path, e))?);

    let engine = layers::compile(&query, &dtd)?;
    let mut reference = Vec::new();
    let counts = engine.run(&doc, &mut reference)?;
    let input_events = layers::read_events(&doc)?;
    let prepared = Prepared {
        workload,
        query_path,
        dtd_path,
        output_path: format!("{}/{}.out.xml", ctx.scratch, workload.name),
        input_path,
        schema: layers::parse_dtd(&dtd)?,
        query,
        dtd,
        input_digest: Digest::of(&doc),
        output_digest: Digest::of(&reference),
        doc,
        engine,
        reference,
        counts,
        input_events,
    };

    let mut wrong = workload
        .oracle
        .mismatches(&prepared.doc, &prepared.reference);
    if ctx.seed == PINNED_SEED {
        for (what, got) in [
            ("input", prepared.input_digest),
            ("output", prepared.output_digest),
        ] {
            let key = format!("{}.{what}", workload.name);
            match ctx.expected.get(&key) {
                Some(want) if *want == got.to_string() => {}
                Some(want) => wrong.push(format!(
                    "{what} digest {got} differs from the pinned {want}"
                )),
                None => wrong.push(format!("expected.json pins no `{key}` (this run: {got})")),
            }
        }
    }
    tally.check(wrong.is_empty(), || {
        format!("{}: reference run: {}", workload.name, wrong.join("; "))
    });
    Ok(prepared)
}

/// One whole `fluxquery` process over `input_path`, checked: exit code 0
/// and the reference output in the output file. `None` when it failed.
/// A traced caller names the span that brackets the child.
fn cli(
    ctx: &mut Ctx,
    p: &Prepared<'_>,
    input_path: &str,
    extra: &[&str],
    span_id: Option<&str>,
    tally: &mut Tally,
) -> Option<ChildRun> {
    let mut argv = vec![
        ctx.fluxquery.as_str(),
        "--query",
        &p.query_path,
        "--dtd",
        &p.dtd_path,
        "--input",
        input_path,
        "--output",
        &p.output_path,
    ];
    argv.extend_from_slice(extra);
    let span = span_id.map(|id| ctx.tracer.open("cli", id, None));
    let ran = ctx.spawner.run(&argv);
    if let Some(span) = span {
        ctx.tracer.close(span);
    }
    let outcome = ran.and_then(|run| {
        if run.code != 0 {
            return Err(format!("exit code {}", run.code));
        }
        match digest_file(&p.output_path) {
            Ok(digest) if digest == p.output_digest => Ok(run),
            Ok(digest) => Err(format!(
                "output digest {digest}, reference {}",
                p.output_digest
            )),
            Err(e) => Err(io_err(&p.output_path, e)),
        }
    });
    tally.pass(outcome, || {
        format!("{}: fluxquery {}", p.workload.name, extra.join(" "))
    })
}

/// One in-process run into a counting sink, checked against the
/// reference counts. `None` when it failed.
fn lib(p: &Prepared<'_>, tally: &mut Tally) -> Option<()> {
    let mut sink = ByteCounter::default();
    let outcome = p.engine.run(&p.doc, &mut sink);
    let ok =
        matches!(&outcome, Ok(counts) if *counts == p.counts && sink.bytes == p.output_digest.len);
    tally
        .check(ok, || {
            format!(
                "{}: in-process run gave {outcome:?}, reference {:?}",
                p.workload.name, p.counts
            )
        })
        .then_some(())
}

/// Samples by metric (or span) name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The reported value of a span's seconds: times are better lower.
    fn seconds(&self, span: &str) -> Result<f64, String> {
        self.0
            .get(span)
            .and_then(|samples| better_quartile(Better::Lower, samples))
            .ok_or_else(|| format!("every sample of {span} failed"))
    }

    fn into_metrics(mut self, specs: &'static [Spec]) -> Result<Vec<Metric>, String> {
        specs
            .iter()
            .map(|spec| match self.0.remove(spec.name) {
                Some(samples) => Ok(Metric { spec, samples }),
                None => Err(format!("every sample of {} failed", spec.name)),
            })
            .collect()
    }
}

/// The end-to-end metrics, tracing off: whole-process and in-process
/// throughput on the same document, the child's peak RSS, and set-up.
pub fn end_to_end(
    ctx: &mut Ctx,
    p: &Prepared<'_>,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let input = p.input_path.clone();
    // Warm-up: page cache, allocator, branch predictors; and the length
    // of one in-process run, to size a sample.
    cli(ctx, p, &input, &[], None, tally);
    let warm = Instant::now();
    lib(p, tally);
    let reps = (MIN_SAMPLE_S / warm.elapsed().as_secs_f64().max(1e-6))
        .ceil()
        .max(1.0) as usize;

    let mut s = Samples::default();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < GATED_SAMPLES || start.elapsed().as_secs_f64() < ctx.seconds {
        rounds += 1;
        if let Some(run) = cli(ctx, p, &input, &[], None, tally) {
            s.push("cli_mbps", p.input_mb() / run.wall_s);
            s.push("peak_rss_mb", run.peak_rss_mb);
        }
        let timer = Instant::now();
        let ok = (0..reps).all(|_| lib(p, tally).is_some());
        let seconds = timer.elapsed().as_secs_f64() / reps as f64;
        if ok {
            s.push("lib_mbps", p.input_mb() / seconds);
        }
        // Set-up is sampled in every round, so a burst of interference
        // cannot cover all of its samples.
        for _ in 0..SETUP_PER_ROUND {
            let timer = Instant::now();
            let engine = layers::compile(&p.query, &p.dtd);
            let seconds = timer.elapsed().as_secs_f64();
            if tally.check(engine.is_ok(), || {
                format!("{}: compile failed", p.workload.name)
            }) {
                s.push("setup_s", seconds);
            }
        }
    }
    s.into_metrics(&END_TO_END)
        .map_err(|e| format!("{}: {e}", p.workload.name))
}

/// One row of the printed ladder: a cumulative layer on the one document.
pub struct LadderRow {
    pub layer: &'static str,
    pub seconds: f64,
}

pub struct PerLayer {
    pub metrics: Vec<Metric>,
    /// prescan ≤ reader ≤ xsax ≤ lib ≤ cli, in seconds.
    pub ladder: Vec<LadderRow>,
}

/// The traced ladder — the same bytes through each layer's entry point,
/// every call in a span — then the whole-process lanes.
pub fn per_layer(ctx: &mut Ctx, p: &Prepared<'_>, tally: &mut Tally) -> Result<PerLayer, String> {
    let name = p.workload.name;
    let (in_mb, out_mb, events) = (
        p.input_mb(),
        p.reference.len() as f64 / 1e6,
        p.input_events as f64,
    );
    let angle_brackets = count(&p.doc, b"<");
    let output_events = layers::read_events(&p.reference)?;

    let mut s = Samples::default();
    let mut overhead_pct = Vec::new();
    for round in 0..LADDER_ROUNDS {
        let id = format!("{name}/{round}");
        let t = &mut ctx.tracer;
        let root = t.open("round", &id, None);
        let (found, prescan) = t.span("prescan", &id, root, || layers::prescan(&p.doc));
        tally.check(found == angle_brackets, || {
            format!("{id}: prescan indexed {found} `<`, the input has {angle_brackets}")
        });
        let (read, reader) = t.span("reader", &id, root, || layers::read_events(&p.doc));
        tally.check(read == Ok(p.input_events), || {
            format!("{id}: reader gave {read:?}, reference {}", p.input_events)
        });
        let (valid, xsax) = t.span("xsax", &id, root, || layers::validate(&p.doc, &p.schema));
        tally.check(valid == Ok(p.input_events), || {
            format!("{id}: xsax gave {valid:?}, reference {}", p.input_events)
        });
        let (ran, runtime) = t.span("runtime", &id, root, || lib(p, tally));
        // The writer alone: serialise the reference output's events, minus
        // the parse that produced them.
        let (reparsed, parse) = t.span("writer_parse", &id, root, || {
            layers::read_events(&p.reference)
        });
        let (copied, copy) = t.span("writer_copy", &id, root, || {
            layers::copy_events(&p.reference, ByteCounter::default())
        });
        t.close(root);
        tally.check(
            reparsed == Ok(output_events) && copied == Ok(p.reference.len() as u64),
            || {
                format!(
                    "{id}: re-serialising the reference output gave {copied:?} bytes, it has {}",
                    p.reference.len()
                )
            },
        );
        if ran.is_some() {
            s.push("runtime_s", runtime);
        }
        for (span, seconds) in [
            ("prescan_s", prescan),
            ("reader_s", reader),
            ("xsax_s", xsax),
            ("parse_s", parse),
            ("copy_s", copy),
        ] {
            s.push(span, seconds);
        }
        s.push("prescan_mbps", in_mb / prescan);
        s.push("reader_mbps", in_mb / reader);
        s.push("reader_ns_per_event", reader * 1e9 / events);
        s.push("xsax_mbps", in_mb / xsax);
        // Every other round also takes the same call with no span around
        // it, back to back so that host drift cancels: the difference is
        // what tracing costs.
        if round % 2 == 1 && ran.is_some() {
            let timer = Instant::now();
            if lib(p, tally).is_some() {
                let untraced = timer.elapsed().as_secs_f64();
                overhead_pct.push((runtime - untraced) / untraced * 100.0);
            }
        }
    }
    // The pairs' median: a difference of two timings is not a cost that
    // interference only inflates, so neither quartile is the better one.
    if let Some(pairs) = Summary::of(&overhead_pct) {
        s.push("trace_overhead_pct", pairs.median);
    }

    // Lanes: whole processes. The default engine three times (its
    // overhead over the in-process run is a metric); the reference rows
    // once each.
    let input = p.input_path.clone();
    for sample in 0..CLI_LANE_SAMPLES {
        if let Some(run) = cli(
            ctx,
            p,
            &input,
            &[],
            Some(&format!("{name}/cli{sample}")),
            tally,
        ) {
            s.push("cli_s", run.wall_s);
            s.push("cli_sys_share", run.sys_s / run.wall_s);
        }
    }
    for (engine, mbps, rss) in [
        ("dom", "dom_cli_mbps", "dom_peak_rss_mb"),
        (
            "projection",
            "projection_cli_mbps",
            "projection_peak_rss_mb",
        ),
    ] {
        if let Some(run) = cli(ctx, p, &input, &["--engine", engine], None, tally) {
            s.push(mbps, in_mb / run.wall_s);
            s.push(rss, run.peak_rss_mb);
        }
    }
    if let Some(run) = cli(ctx, p, &input, &["--shards", "2"], None, tally) {
        s.push("shards2_mbps", in_mb / run.wall_s);
    }
    let gz_path = format!("{input}.gz");
    let zipped = child::run_to_file(&["gzip", "-1", "-c", &input], &gz_path);
    if tally.check(matches!(zipped, Ok(true)), || {
        format!("{name}: gzip -1 -c: {zipped:?}")
    }) {
        if let Some(run) = cli(ctx, p, &gz_path, &[], None, tally) {
            s.push("gz_mbps", in_mb / run.wall_s);
        }
    }
    for (engine, metric) in [
        ("flux", "flux_first_output_ms"),
        ("dom", "dom_first_output_ms"),
    ] {
        let argv = [
            ctx.fluxquery.as_str(),
            "--query",
            &p.query_path,
            "--dtd",
            &p.dtd_path,
            "--engine",
            engine,
        ];
        let piped = child::run_piped(&argv, &input)
            .map_err(|e| e.to_string())
            .and_then(|run| match run {
                run if run.code == 0 && run.output == p.output_digest => Ok(run),
                run => Err(format!("{run:?}, reference {}", p.output_digest)),
            });
        if let Some(run) = tally.pass(piped, || format!("{name}: piped {engine}")) {
            s.push(metric, run.first_output_s * 1e3);
        }
    }

    // Everything derived is a difference of the layers' reported seconds,
    // the same figures the printed ladder shows.
    let seconds = |span| s.seconds(span).map_err(|e| format!("{name}: {e}"));
    let (prescan, reader, xsax, lib_s, cli_s) = (
        seconds("prescan_s")?,
        seconds("reader_s")?,
        seconds("xsax_s")?,
        seconds("runtime_s")?,
        seconds("cli_s")?,
    );
    let writer = (seconds("copy_s")? - seconds("parse_s")?).max(1e-9);
    s.push("xsax_self_ns_per_event", (xsax - reader) * 1e9 / events);
    s.push("runtime_self_s", lib_s - xsax - writer);
    s.push("writer_mbps", out_mb / writer);
    s.push("events", p.counts.events as f64);
    s.push("peak_buffer_bytes", p.counts.peak_buffer_bytes as f64);
    s.push("total_buffered_bytes", p.counts.total_buffered_bytes as f64);
    s.push(
        "buffered_share",
        p.counts.total_buffered_bytes as f64 / p.doc.len() as f64,
    );
    s.push("cli_overhead_s", cli_s - lib_s);
    let ladder = [
        ("prescan", prescan),
        ("reader", reader),
        ("xsax", xsax),
        ("lib", lib_s),
        ("cli", cli_s),
    ]
    .map(|(layer, seconds)| LadderRow { layer, seconds })
    .into();
    let metrics = s
        .into_metrics(&PER_LAYER)
        .map_err(|e| format!("{name}: {e}"))?;
    Ok(PerLayer { metrics, ladder })
}

/// The paper's size axis: wall time and peak RSS of each engine as the
/// `auction-select` document grows. FluX must stay flat.
pub fn scaling(ctx: &mut Ctx, tally: &mut Tally) -> Result<Json, String> {
    let mut rows = Vec::new();
    let mut flux_rss = Vec::new();
    for document in &workloads::SCALING {
        let p = prepare(ctx, document, tally)?;
        let input = p.input_path.clone();
        // FluX three times: its flatness is checked, and one run's RSS
        // wobbles by a few hundred KB. The comparison rows once.
        for (engine, runs) in [("flux", 3), ("projection", 1), ("dom", 1)] {
            let samples: Vec<ChildRun> = (0..runs)
                .filter_map(|_| cli(ctx, &p, &input, &["--engine", engine], None, tally))
                .collect();
            let reported = |of: fn(&ChildRun) -> f64| {
                better_quartile(Better::Lower, &samples.iter().map(of).collect::<Vec<_>>())
            };
            let (Some(wall_s), Some(peak_rss_mb)) =
                (reported(|r| r.wall_s), reported(|r| r.peak_rss_mb))
            else {
                continue;
            };
            if engine == "flux" {
                flux_rss.push(peak_rss_mb);
            }
            rows.push(Json::obj([
                ("document", Json::str(document.name)),
                ("input_bytes", Json::Int(p.input_digest.len)),
                ("engine", Json::str(engine)),
                ("runs", Json::Int(samples.len() as u64)),
                ("wall_s", Json::Num(wall_s)),
                ("peak_rss_mb", Json::Num(peak_rss_mb)),
            ]));
        }
    }
    let (low, high) = flux_rss
        .iter()
        .fold((f64::MAX, 0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    tally.check(
        flux_rss.len() == workloads::SCALING.len() && high <= low * 1.10,
        || format!("scaling: flux peak RSS is not flat across sizes: {flux_rss:?} MB"),
    );
    Ok(Json::Arr(rows))
}
