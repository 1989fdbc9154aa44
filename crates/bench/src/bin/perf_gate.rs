//! CI perf-regression gate over `BENCH_events.json`.
//!
//! Usage: `perf_gate <committed.json> <fresh.json> [--threshold 0.10]
//!         [--json <verdict.json>]`
//!
//! Compares every `events_per_sec` stage in the committed recording's
//! `current` and `parallel` sections — and every `workload_<id>` section
//! of the workload matrix (`flux_bench::workloads()`) — against the
//! freshly measured file and fails (exit 1) when any stage regresses by
//! more than the threshold.
//! Stages that also record `peak_buffer_bytes` (the engine stages) are
//! gated on memory too: buffered bytes growing more than the threshold
//! over the committed recording is a regression of the paper's headline
//! metric, and fails the same way. Memory is deterministic, so that check
//! arms even when the events/sec comparison has to skip.
//! Comparisons are only meaningful on like-for-like hardware and workload:
//!
//! * a `host_cores` mismatch means the runner is not the recording host —
//!   the events/sec comparison **skips with a visible notice** instead of
//!   comparing apples to oranges (the deterministic memory gate still
//!   runs, so the exit code can still be 1);
//! * a workload-stamp mismatch is a configuration error (the `--e8`
//!   harness refuses to overwrite across workloads, so the committed file
//!   should never drift) and fails loudly (exit 2);
//! * a stage present in the committed file but missing from the fresh one
//!   fails — silently dropping a measurement is how perf claims rot;
//! * a section the workload matrix expects but the committed file lacks
//!   (or a `parallel` section recorded on a 1-core host, whose shard
//!   speedups carry no signal) **skips with a visible notice** — never
//!   silently.
//!
//! The file format is our own generator's output
//! (`experiments --e8` → `BENCH_events.json`); parsing is a small
//! brace-matching scan rather than a JSON dependency, which the offline
//! build environment does not have.
//!
//! `--json <path>` additionally writes a machine-readable verdict file
//! (overall pass/fail, every comparison with its delta, every skipped
//! section) without changing the human output. When the gate fails and
//! the fresh recording embeds a telemetry `run_report`, the per-stage
//! span totals are printed after the failures so a throughput regression
//! can be attributed to the pipeline stage that slowed down.

use flux_telemetry::json::JsonWriter;
use std::process::exit;

/// One gated comparison, kept for the `--json` verdict file.
struct Comparison {
    stage: String,
    metric: &'static str,
    base: f64,
    fresh: Option<f64>,
    ok: bool,
}

impl Comparison {
    fn delta_pct(&self) -> Option<f64> {
        self.fresh
            .filter(|_| self.base > 0.0)
            .map(|fresh| (fresh / self.base - 1.0) * 100.0)
    }
}

/// Extracts the string value of a `"key": "value"` pair.
fn extract_str<'j>(json: &'j str, key: &str) -> Option<&'j str> {
    let marker = format!("\"{key}\": \"");
    let start = json.find(&marker)? + marker.len();
    let end = json[start..].find('"')?;
    Some(&json[start..start + end])
}

/// Extracts the numeric value of a `"key": <number>` pair.
fn extract_num(json: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = json.find(&marker)? + marker.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the body of a top-level `"name": { ... }` section by brace
/// matching (the generator never nests braces inside strings).
fn extract_section<'j>(json: &'j str, name: &str) -> Option<&'j str> {
    let marker = format!("\"{name}\": {{");
    let start = json.find(&marker)? + marker.len();
    let mut depth = 1usize;
    for (i, b) in json[start..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Stage names in a section: every `"key": {` object that records an
/// `events_per_sec` figure.
fn stages(section: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = section;
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let Some(qe) = after.find('"') else { break };
        let key = &after[..qe];
        let tail = after[qe + 1..].trim_start_matches(':').trim_start();
        if tail.starts_with('{') {
            let object = extract_section(rest, key).unwrap_or("");
            if extract_num(object, "events_per_sec").is_some() {
                out.push(key.to_string());
            }
        }
        rest = &after[qe + 1..];
    }
    out
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf_gate: cannot read {path}: {e}");
        exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 0.10f64;
    let mut verdict_path: Option<String> = None;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            threshold = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("perf_gate: --threshold needs a number");
                exit(2);
            });
        } else if a == "--json" {
            verdict_path = Some(it.next().cloned().unwrap_or_else(|| {
                eprintln!("perf_gate: --json needs a file path");
                exit(2);
            }));
        } else {
            files.push(a.clone());
        }
    }
    let [committed_path, fresh_path] = files.as_slice() else {
        eprintln!(
            "usage: perf_gate <committed.json> <fresh.json> [--threshold 0.10] [--json FILE]"
        );
        exit(2);
    };
    let committed = read(committed_path);
    let fresh = read(fresh_path);

    // Same workload, or the numbers mean different things.
    let base_workload = extract_str(&committed, "workload").unwrap_or("");
    let fresh_workload = extract_str(&fresh, "workload").unwrap_or("");
    if base_workload != fresh_workload {
        eprintln!("perf_gate: workload stamps differ — the committed recording has drifted:");
        eprintln!("  committed: {base_workload}");
        eprintln!("  fresh:     {fresh_workload}");
        exit(2);
    }

    // Same hardware, or skip the *throughput* comparison with a notice:
    // events/sec across different core counts (or machines) is not a
    // regression signal. Peak buffered bytes are deterministic — the
    // memory gate stays armed either way.
    let base_cores = extract_num(&committed, "host_cores");
    let fresh_cores = extract_num(&fresh, "host_cores");
    let cores_match = base_cores == fresh_cores;
    if !cores_match {
        println!(
            "perf_gate: events/sec comparison SKIPPED — committed recording was made on a host \
             with {} core(s), this runner has {}; cross-hardware events/sec deltas are not \
             regressions. Re-record BENCH_events.json on this class of host to arm the \
             throughput gate here. The deterministic peak_buffer_bytes gate still applies.",
            base_cores.map_or("?".to_string(), |c| format!("{c}")),
            fresh_cores.map_or("?".to_string(), |c| format!("{c}")),
        );
    }

    // The recording on a single-core host still measures sharded
    // throughput, but its speedup axis is pinned at ~1.0x: say so rather
    // than letting a green "parallel" section imply scaling was gated.
    if base_cores == Some(1.0) {
        println!(
            "perf_gate: NOTE parallel: committed recording was made on a 1-core host — its \
             shard speedups are bounded at 1.0x, so this gate checks sharded *overhead* only, \
             not scaling. Re-record on a multicore host to gate speedup."
        );
    }

    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut comparisons: Vec<Comparison> = Vec::new();
    let mut skips: Vec<String> = Vec::new();
    if !cores_match {
        skips.push("events_per_sec: cross-hardware recording (host_cores mismatch)".to_string());
    }
    let mut sections: Vec<String> = vec!["current".into(), "parallel".into()];
    sections.extend(
        flux_bench::workloads()
            .iter()
            .filter(|w| w.perf_gated)
            .map(|w| w.section_name()),
    );
    for section_name in &sections {
        let Some(base_section) = extract_section(&committed, section_name) else {
            // A silent skip here would read as "gated and green" — make
            // the hole visible instead.
            println!(
                "perf_gate: SKIP {section_name}: no committed section — re-record \
                 BENCH_events.json (cargo run --release -p flux_bench --bin experiments -- --e8) \
                 to arm this gate"
            );
            skips.push(format!("{section_name}: no committed section"));
            continue;
        };
        let fresh_section = extract_section(&fresh, section_name).unwrap_or("");
        for stage in stages(base_section) {
            let base_stage = extract_section(base_section, &stage)
                .expect("stages() only lists objects it parsed");
            let base_eps = extract_num(base_stage, "events_per_sec")
                .expect("stages() only lists objects with events_per_sec");
            let fresh_stage = extract_section(fresh_section, &stage);
            let label = format!("{section_name}.{stage}");
            let Some(fresh_stage) = fresh_stage else {
                println!("perf_gate: FAIL {label}: stage missing from the fresh recording");
                regressions += 1;
                comparisons.push(Comparison {
                    stage: label,
                    metric: "events_per_sec",
                    base: base_eps,
                    fresh: None,
                    ok: false,
                });
                continue;
            };
            if cores_match {
                match extract_num(fresh_stage, "events_per_sec") {
                    None => {
                        println!(
                            "perf_gate: FAIL {label}: events_per_sec missing from the fresh stage"
                        );
                        regressions += 1;
                        comparisons.push(Comparison {
                            stage: label.clone(),
                            metric: "events_per_sec",
                            base: base_eps,
                            fresh: None,
                            ok: false,
                        });
                    }
                    Some(fresh_eps) => {
                        compared += 1;
                        let delta_pct = (fresh_eps / base_eps - 1.0) * 100.0;
                        let ok = fresh_eps >= base_eps * (1.0 - threshold);
                        let verdict = if ok {
                            "ok"
                        } else {
                            regressions += 1;
                            "FAIL"
                        };
                        println!(
                            "perf_gate: {verdict:>4} {label:<28} {base_eps:>12.0} -> {fresh_eps:>12.0} events/s ({delta_pct:+.1}%)"
                        );
                        comparisons.push(Comparison {
                            stage: label.clone(),
                            metric: "events_per_sec",
                            base: base_eps,
                            fresh: Some(fresh_eps),
                            ok,
                        });
                    }
                }
            }
            // Memory gate: any stage recording peak buffered bytes must
            // not grow them past the threshold — buffer consumption is
            // the paper's headline metric and is deterministic.
            if let Some(base_mem) = extract_num(base_stage, "peak_buffer_bytes") {
                match extract_num(fresh_stage, "peak_buffer_bytes") {
                    None => {
                        println!(
                            "perf_gate: FAIL {label}: peak_buffer_bytes missing from the fresh stage"
                        );
                        regressions += 1;
                        comparisons.push(Comparison {
                            stage: label,
                            metric: "peak_buffer_bytes",
                            base: base_mem,
                            fresh: None,
                            ok: false,
                        });
                    }
                    Some(fresh_mem) => {
                        compared += 1;
                        let delta_pct = if base_mem > 0.0 {
                            (fresh_mem / base_mem - 1.0) * 100.0
                        } else {
                            0.0
                        };
                        let regressed = fresh_mem > base_mem * (1.0 + threshold)
                            || (base_mem == 0.0 && fresh_mem > 0.0);
                        let verdict = if regressed {
                            regressions += 1;
                            "FAIL"
                        } else {
                            "ok"
                        };
                        println!(
                            "perf_gate: {verdict:>4} {label:<28} {base_mem:>12.0} -> {fresh_mem:>12.0} peak bytes ({delta_pct:+.1}%)"
                        );
                        comparisons.push(Comparison {
                            stage: label,
                            metric: "peak_buffer_bytes",
                            base: base_mem,
                            fresh: Some(fresh_mem),
                            ok: !regressed,
                        });
                    }
                }
            }
        }
    }
    if compared == 0 {
        eprintln!("perf_gate: no comparable stages found — malformed recordings?");
        exit(2);
    }
    if let Some(path) = &verdict_path {
        let verdict = render_verdict(threshold, compared, regressions, &comparisons, &skips);
        if let Err(e) = std::fs::write(path, verdict) {
            eprintln!("perf_gate: cannot write {path}: {e}");
            exit(2);
        }
        println!("perf_gate: wrote machine-readable verdict to {path}");
    }
    if regressions > 0 {
        print_report_attribution(&fresh);
        eprintln!(
            "perf_gate: {regressions} comparison(s) regressed more than {:.0}% vs the committed baseline",
            threshold * 100.0
        );
        exit(1);
    }
    println!(
        "perf_gate: all {compared} comparisons within {:.0}% of the committed baseline",
        threshold * 100.0
    );
}

/// Renders the `--json` verdict document.
fn render_verdict(
    threshold: f64,
    compared: usize,
    regressions: usize,
    comparisons: &[Comparison],
    skips: &[String],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("verdict", if regressions > 0 { "fail" } else { "pass" });
    w.field_f64("threshold", threshold);
    w.field_u64("compared", compared as u64);
    w.field_u64("regressions", regressions as u64);
    w.begin_named_arr("comparisons");
    for c in comparisons {
        w.begin_obj();
        w.field_str("stage", &c.stage);
        w.field_str("metric", c.metric);
        w.field_f64("base", c.base);
        match c.fresh {
            Some(fresh) => w.field_f64("fresh", fresh),
            None => w.field_raw("fresh", "null"),
        }
        if let Some(delta) = c.delta_pct() {
            w.field_f64("delta_pct", delta);
        }
        w.field_bool("ok", c.ok);
        w.end_obj();
    }
    w.end_arr();
    w.begin_named_arr("skipped");
    for s in skips {
        let mut rendered = String::from("\"");
        flux_telemetry::json::escape_into(&mut rendered, s);
        rendered.push('"');
        w.value_raw(&rendered);
    }
    w.end_arr();
    w.end_obj();
    let mut out = w.finish();
    out.push('\n');
    out
}

/// On failure, prints the per-stage span totals from the fresh
/// recording's embedded telemetry `run_report`, so a throughput
/// regression can be pinned on the pipeline stage that slowed down.
/// Quiet when the recording has no report or carries no spans (a file
/// recorded before telemetry was always on).
fn print_report_attribution(fresh: &str) {
    let Some(report) = extract_section(fresh, "run_report") else {
        return;
    };
    let mut lines = Vec::new();
    let mut rest = report;
    while let Some(pos) = rest.find("\"name\": \"") {
        let after = &rest[pos + "\"name\": \"".len()..];
        let Some(name_end) = after.find('"') else {
            break;
        };
        let name = &after[..name_end];
        // The stage's body runs until its next sibling/child stage name.
        let chunk_end = after[name_end..]
            .find("\"name\": \"")
            .map_or(after.len(), |i| name_end + i);
        let chunk = &after[name_end..chunk_end];
        if let Some(spans) = extract_section(chunk, "spans_ns") {
            for line in spans.lines() {
                let entry = line.trim().trim_end_matches(',');
                if !entry.is_empty() {
                    lines.push(format!("perf_gate:   {name:<16} {entry}"));
                }
            }
        }
        rest = &after[chunk_end..];
    }
    if !lines.is_empty() {
        println!(
            "perf_gate: span attribution from the fresh recording's run_report \
             (where the pipeline spent its time):"
        );
        for line in lines {
            println!("{line}");
        }
    }
}
