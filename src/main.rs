//! The `fluxquery` command-line tool: compile an XQuery against a DTD and
//! run it over an XML stream.
//!
//! ```text
//! fluxquery --query q.xq --dtd bib.dtd [--input doc.xml] [OPTIONS]
//!
//! Options:
//!   --query <FILE|STRING>   query file, or inline text when no such file exists
//!   --dtd <FILE|STRING>     DTD, as a file or inline text
//!   --input <FILE|->        input document; `-` reads stdin (the default).
//!                           `.gz` files are decompressed transparently
//!   --output <FILE>         result stream (default: stdout)
//!   --engine <flux|dom|projection>   engine architecture (default: flux)
//!   --shards <N>            parse the input with N parallel shards (flux
//!                           engine only; the input is streamed chunk by
//!                           chunk, never fully buffered)
//!   --window <BYTES>        scanner window size, at most 1g (accepts k/m/g
//!                           suffixes)
//!   --memory-budget <BYTES> enforce a tracked-memory budget on the run:
//!                           scanner windows + in-flight shard tapes and
//!                           chunks + runtime buffers (k/m/g suffixes)
//!   --explain               print the compilation report instead of running
//!                           (flux engine only)
//!   --stats                 print run statistics to stderr
//!   --report <json|text>    print the pipeline telemetry RunReport to stderr
//!                           (flux engine only)
//!   --no-optimizer          disable the algebraic optimizer (ablation; flux
//!                           engine only)
//! ```

use fluxquery::{EngineKind, FluxEngine, Input, MemoryBudget, Options};
use std::io::{BufWriter, Write};
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum ReportFormat {
    Json,
    Text,
}

struct Args {
    query: Option<String>,
    dtd: Option<String>,
    input: Option<String>,
    output: Option<String>,
    engine: EngineKind,
    shards: Option<usize>,
    window: Option<usize>,
    memory_budget: Option<u64>,
    explain: bool,
    stats: bool,
    report: Option<ReportFormat>,
    no_optimizer: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fluxquery --query <FILE|STRING> --dtd <FILE|STRING> \
         [--input FILE|-] [--output FILE] [--engine flux|dom|projection] \
         [--shards N] [--window BYTES] [--memory-budget BYTES] \
         [--explain] [--stats] [--report json|text] [--no-optimizer]"
    );
    std::process::exit(2);
}

/// The scanner allocates its window eagerly, so `--window` is capped.
const MAX_WINDOW: u64 = 1 << 30;

/// Parses a byte count with an optional `k`/`m`/`g` suffix (binary units);
/// `None` on a malformed or overflowing value.
fn parse_bytes(value: &str) -> Option<u64> {
    let value = value.trim();
    let (digits, multiplier) = match value.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&value[..i], 1024),
        (i, 'm') | (i, 'M') => (&value[..i], 1024 * 1024),
        (i, 'g') | (i, 'G') => (&value[..i], 1024 * 1024 * 1024),
        _ => (value, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(multiplier)
}

fn parse_args() -> Args {
    let mut args = Args {
        query: None,
        dtd: None,
        input: None,
        output: None,
        engine: EngineKind::Flux,
        shards: None,
        window: None,
        memory_budget: None,
        explain: false,
        stats: false,
        report: None,
        no_optimizer: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--query" | "-q" => args.query = Some(value(&mut it)),
            "--dtd" | "-d" => args.dtd = Some(value(&mut it)),
            "--input" | "-i" => args.input = Some(value(&mut it)),
            "--output" | "-o" => args.output = Some(value(&mut it)),
            "--engine" | "-e" => {
                args.engine = match value(&mut it).as_str() {
                    "flux" => EngineKind::Flux,
                    "dom" => EngineKind::Dom,
                    "projection" => EngineKind::Projection,
                    other => {
                        eprintln!("unknown engine `{other}`");
                        usage()
                    }
                }
            }
            "--shards" => {
                args.shards = match value(&mut it).parse() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        eprintln!("--shards expects a positive integer");
                        usage()
                    }
                }
            }
            "--window" => {
                args.window = match parse_bytes(&value(&mut it)) {
                    Some(n) if (1..=MAX_WINDOW).contains(&n) => Some(n as usize),
                    _ => {
                        eprintln!(
                            "--window expects a byte count of at most 1g (k/m/g suffixes allowed)"
                        );
                        usage()
                    }
                }
            }
            "--memory-budget" => {
                args.memory_budget = match parse_bytes(&value(&mut it)) {
                    Some(n) if n > 0 => Some(n),
                    _ => {
                        eprintln!("--memory-budget expects a byte count (k/m/g suffixes allowed)");
                        usage()
                    }
                }
            }
            "--explain" => args.explain = true,
            "--stats" => args.stats = true,
            "--report" => {
                args.report = match value(&mut it).as_str() {
                    "json" => Some(ReportFormat::Json),
                    "text" => Some(ReportFormat::Text),
                    other => {
                        eprintln!("--report expects `json` or `text`, got `{other}`");
                        usage()
                    }
                }
            }
            "--no-optimizer" => args.no_optimizer = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    args
}

/// Treats the value as a file path when such a file exists, inline text
/// otherwise.
fn file_or_inline(value: &str) -> std::io::Result<String> {
    if std::path::Path::new(value).is_file() {
        std::fs::read_to_string(value)
    } else {
        Ok(value.to_string())
    }
}

fn run() -> Result<(), String> {
    let args = parse_args();
    let (Some(query_arg), Some(dtd_arg)) = (&args.query, &args.dtd) else {
        usage();
    };
    if args.engine != EngineKind::Flux {
        for (set, flag) in [
            (args.shards.is_some(), "--shards"),
            (args.report.is_some(), "--report"),
            (args.explain, "--explain"),
            (args.no_optimizer, "--no-optimizer"),
        ] {
            if set {
                return Err(format!("{flag} is only supported by the flux engine"));
            }
        }
    }
    let query = file_or_inline(query_arg).map_err(|e| format!("reading query: {e}"))?;
    let dtd = file_or_inline(dtd_arg).map_err(|e| format!("reading DTD: {e}"))?;

    let mut options = Options::new().algebraic_optimizer(!args.no_optimizer);
    if let Some(n) = args.shards {
        options = options.shards(n);
    }

    if args.explain {
        let engine = FluxEngine::compile(&query, &dtd, &options).map_err(|e| e.to_string())?;
        println!("{}", engine.explain());
        return Ok(());
    }

    // The unified ingestion entry point: `-` (or no --input) streams
    // stdin, paths get transparent `.gz` decompression, and the window /
    // budget knobs ride along. Nothing below ever materialises the input.
    let mut input = match args.input.as_deref() {
        Some("-") | None => Input::from_reader(std::io::stdin()),
        Some(path) => Input::from_path(path),
    };
    if let Some(window) = args.window {
        input = input.window(window);
    }
    let budget = args.memory_budget.map(MemoryBudget::new);
    if let Some(b) = &budget {
        input = input.budget(std::sync::Arc::clone(b));
    }
    let sink: Box<dyn Write> = match &args.output {
        Some(path) => {
            Box::new(std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?)
        }
        None => Box::new(std::io::stdout()),
    };
    // The writer emits one small fragment per `write`; batch them so the run
    // is not one syscall per fragment. `XmlWriter::finish` flushes, so a
    // failed final write surfaces as the run's error.
    let output = BufWriter::with_capacity(16 * 1024, sink);

    let stats = if args.engine == EngineKind::Flux {
        let engine = FluxEngine::compile(&query, &dtd, &options).map_err(|e| e.to_string())?;
        if let Some(format) = args.report {
            let (stats, report) = engine
                .run_input_with_report(input, output)
                .map_err(|e| e.to_string())?;
            // The report goes to stderr like `--stats`, keeping stdout a
            // pure result stream.
            match format {
                ReportFormat::Json => eprintln!("{}", report.to_json()),
                ReportFormat::Text => eprint!("{}", report.to_text()),
            }
            stats
        } else {
            engine.run_input(input, output).map_err(|e| e.to_string())?
        }
    } else {
        let engine = options
            .compile(args.engine, &query, &dtd)
            .map_err(|e| e.to_string())?;
        engine.run_input(input, output).map_err(|e| e.to_string())?
    };

    if let Some(b) = &budget {
        // The engine already failed the run if the budget was exceeded;
        // on success, report how close it came when asked for stats.
        if args.stats {
            eprintln!(
                "memory budget: peak {} of {} bytes",
                b.peak_total(),
                b.limit()
            );
        }
    }

    if args.stats {
        eprintln!();
        eprintln!("engine: {} | {stats}", args.engine.label());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("fluxquery: {message}");
            ExitCode::FAILURE
        }
    }
}
