//! `fluxbench`: one document per workload through every layer of
//! FluXQuery, whole-process and in-process, with a stated noise floor.
//! See the README beside this package for what is measured and why.
//!
//! ```text
//! fluxbench [--seed N] [--workload NAME] [--trace 0|1] [--seconds S] [--self-check]
//!
//!   --seed N          workload seed (default 42, whose digests are pinned)
//!   --workload NAME   one workload only (alias: --only); default all four
//!   --trace 0         end-to-end metrics only, tracing off
//!   --trace 1         traced ladder and lanes only
//!                     (default: both, and the scaling section when no
//!                      workload is named)
//!   --seconds S       how long the end-to-end loop samples (default 10;
//!                     never fewer than 9 samples)
//!   --self-check      run everything twice, fail if the two disagree
//! ```
//!
//! Run from the root of the checkout. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod child;
mod json;
mod layers;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::Outcome;
use run::{Ctx, Tally, BENCH_DIR};
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

struct Args {
    seed: u64,
    workload: Option<String>,
    trace: Option<bool>,
    seconds: f64,
    self_check: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: run::PINNED_SEED,
        workload: None,
        trace: None,
        seconds: 10.0,
        self_check: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workload" | "--only" => args.workload = Some(value()?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown argument `{other}` (see the README)")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{name}`; the workloads are {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// Builds the product binary from this checkout and returns its path and
/// the scratch directory beside it.
fn build_product() -> Result<(String, String), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let built = Command::new(&cargo)
        .args(["build", "--release", "--quiet", "--bin", "fluxquery"])
        .status();
    if !matches!(&built, Ok(status) if status.success()) {
        return Err(format!("`{cargo} build --release --bin fluxquery` failed ({built:?}); run from the root of the checkout"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let fluxquery = format!("{target}/release/fluxquery");
    if !std::path::Path::new(&fluxquery).is_file() {
        return Err(format!("{fluxquery} is missing after the build"));
    }
    let scratch = format!("{target}/fluxbench");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{scratch}: {e}"))?;
    Ok((fluxquery, scratch))
}

fn git_commit() -> String {
    // Only this checkout's own repository: in a bare copy `git` would
    // walk up and name whatever repository holds the directory.
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    let head = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    match head {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// Measures one workload. `Err` only when nothing could be measured.
fn measure(
    ctx: &mut Ctx,
    workload: &'static Workload,
    trace: Option<bool>,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let p = run::prepare(ctx, workload, &mut tally)?;
    let end_to_end = if trace != Some(true) {
        run::end_to_end(ctx, &p, &mut tally)?
    } else {
        Vec::new()
    };
    let (per_layer, ladder) = if trace != Some(false) {
        let layers = run::per_layer(ctx, &p, &mut tally)?;
        (layers.metrics, layers.ladder)
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(Outcome {
        workload: workload.name,
        why: workload.why,
        exact: vec![
            ("input_bytes", p.input_digest.len),
            ("input_events", p.input_events),
            ("events", p.counts.events),
            ("output_bytes", p.counts.output_bytes),
            ("peak_buffer_bytes", p.counts.peak_buffer_bytes),
            ("total_buffered_bytes", p.counts.total_buffered_bytes),
        ],
        input_digest: p.input_digest.to_string(),
        output_digest: p.output_digest.to_string(),
        end_to_end,
        per_layer,
        ladder,
        tally,
    })
}

struct Suite {
    outcomes: Vec<Outcome>,
    scaling: Json,
    /// Checks that belong to no workload (the scaling section's).
    tally: Tally,
}

fn suite(ctx: &mut Ctx, args: &Args) -> Result<Suite, String> {
    let mut outcomes = Vec::new();
    for workload in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
    {
        let outcome = measure(ctx, workload, args.trace)?;
        report::print(&outcome);
        outcomes.push(outcome);
    }
    let mut tally = Tally::default();
    let scaling = if args.workload.is_none() && args.trace.is_none() {
        let rows = run::scaling(ctx, &mut tally)?;
        println!("\n== scaling — auction-select's query as the document grows");
        if let Json::Arr(rows) = &rows {
            for row in rows {
                println!("  {row}");
            }
        }
        for failure in &tally.failures {
            println!("    FAILED {failure}");
        }
        rows
    } else {
        Json::Null
    };
    Ok(Suite {
        outcomes,
        scaling,
        tally,
    })
}

fn real_main(args: Args, spawner: child::Spawner) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err(
            "built with debug assertions; measure optimized builds only (cargo run --release)"
                .to_string(),
        );
    }
    let (fluxquery, scratch) = build_product()?;
    let expected_path = format!("{BENCH_DIR}/expected.json");
    let expected = std::fs::read_to_string(&expected_path)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse_flat_strings(&text))
        .map_err(|e| format!("{expected_path}: {e}"))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scratch,
        fluxquery,
        spawner,
        tracer: trace::Tracer::new(),
        expected,
    };
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    // What `ru_maxrss` reads for a `fluxquery` that compiles a query and
    // reads no document: no run can report less, whatever it allocates.
    let (query, dtd) = (
        format!("{BENCH_DIR}/queries/q3.xq"),
        format!("{BENCH_DIR}/dtds/bib-fig1.dtd"),
    );
    let rss_floor_mb = ctx
        .spawner
        .run(&[
            &ctx.fluxquery,
            "--query",
            &query,
            "--dtd",
            &dtd,
            "--explain",
        ])?
        .peak_rss_mb;
    let commit = git_commit();
    println!(
        "fluxbench: seed {} isa {} host_cores {host_cores} commit {commit} rss_floor_mb {rss_floor_mb}\n\
         closed loop, one client; at least {} timed samples per gated metric, which support no percentile above the median",
        args.seed,
        layers::active_isa_name(),
        run::GATED_SAMPLES
    );

    let first = suite(&mut ctx, &args)?;
    let mut agree = true;
    if args.self_check {
        println!("\n== self-check — the same suite again");
        let second = suite(&mut ctx, &args)?;
        println!("\n== self-check — first suite against second");
        let found = report::disagreements(&first.outcomes, &second.outcomes);
        for line in &found {
            println!("  DISAGREE {line}");
        }
        let failed = |suite: &Suite| {
            suite.tally.failed + suite.outcomes.iter().map(|o| o.tally.failed).sum::<u64>()
        };
        agree = found.is_empty() && failed(&first) + failed(&second) == 0;
    }

    let result = Json::obj([
        ("git_commit", Json::Str(commit)),
        ("seed", Json::Int(args.seed)),
        ("isa", Json::str(layers::active_isa_name())),
        ("host_cores", Json::Int(host_cores as u64)),
        ("rss_floor_mb", Json::Num(rss_floor_mb)),
        ("seconds", Json::Num(args.seconds)),
        (
            "workloads",
            Json::Arr(first.outcomes.iter().map(report::outcome_json).collect()),
        ),
        ("scaling", first.scaling.clone()),
    ]);
    for (file, json) in [
        ("result.json", &result),
        ("trace.json", &ctx.tracer.to_json()),
    ] {
        let path = format!("{}/{file}", ctx.scratch);
        std::fs::write(&path, format!("{json}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("\nwrote {0}/result.json and {0}/trace.json", ctx.scratch);
    println!("{}", report::last_line(&first.outcomes, &first.tally));
    Ok(agree)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().is_some_and(|a| a == "--spawner") {
        return match child::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }
    // Before anything allocates: see `child`.
    let spawner = child::Spawner::start();
    let outcome = parse_args(argv).and_then(|args| {
        real_main(
            args,
            spawner.map_err(|e| format!("starting the spawner: {e}"))?,
        )
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("fluxbench: the self-check failed");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("fluxbench: {why}");
            ExitCode::FAILURE
        }
    }
}
