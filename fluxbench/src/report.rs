//! What a run prints and writes: every metric by name with its unit, its
//! quartiles and noise floor beside the median; `result.json`; the
//! driver's last line; and the A/A comparison behind `--self-check`.

use crate::json::Json;
use crate::metrics::Metric;
use crate::run::{LadderRow, Tally};

/// Everything measured on one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub why: &'static str,
    /// Counts that must repeat exactly from run to run.
    pub exact: Vec<(&'static str, u64)>,
    pub input_digest: String,
    pub output_digest: String,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub ladder: Vec<LadderRow>,
    pub tally: Tally,
}

impl Outcome {
    fn exact(&self, name: &str) -> u64 {
        self.exact
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Counts as integers, everything else with six decimals.
fn num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.6}")
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("  {title}");
    println!(
        "    {:<26} {:>16} {:<9} {:>16} {:>16} {:>16} {:>8} {:>4}",
        "metric", "value", "unit", "q1", "median", "q3", "noise", "n"
    );
    for m in metrics {
        let (Some(s), Some(value)) = (m.summary(), m.value()) else {
            continue;
        };
        println!(
            "    {:<26} {:>16} {:<9} {:>16} {:>16} {:>16} {:>7.2}% {:>4}",
            m.spec.name,
            num(value),
            m.spec.unit,
            num(s.q1),
            num(s.median),
            num(s.q3),
            s.noise() * 100.0,
            s.n
        );
    }
}

pub fn print(outcome: &Outcome) {
    let o = outcome;
    println!("\n== {} — {}", o.workload, o.why);
    let facts: Vec<String> = o
        .exact
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    println!("  {}", facts.join(" "));
    println!("  input {}  output {}", o.input_digest, o.output_digest);
    print_metrics(
        "end to end (tracing off; value = the quartile on the better side; noise = IQR / median)",
        &o.end_to_end,
    );
    if !o.ladder.is_empty() {
        let (mb, events) = (
            o.exact("input_bytes") as f64 / 1e6,
            o.exact("input_events") as f64,
        );
        println!(
            "  ladder (cumulative layers over the same document; seconds = lower quartile of 9)"
        );
        println!(
            "    {:<8} {:>12} {:>10} {:>10} {:>12}",
            "layer", "seconds", "MB/s", "ns/event", "delta s"
        );
        let mut previous = 0.0;
        for row in &o.ladder {
            println!(
                "    {:<8} {:>12.6} {:>10.1} {:>10.1} {:>+12.6}",
                row.layer,
                row.seconds,
                mb / row.seconds,
                row.seconds * 1e9 / events,
                row.seconds - previous
            );
            previous = row.seconds;
        }
        if !ladder_ordered(&o.ladder) {
            println!("    warning: the layers are not in order; a delta above is noise");
        }
    }
    print_metrics(
        "per layer (traced run; one sample where n = 1)",
        &o.per_layer,
    );
    println!(
        "  ops_attempted {}  ops_failed {}",
        o.tally.attempted, o.tally.failed
    );
    for failure in &o.tally.failures {
        println!("    FAILED {failure}");
    }
}

pub fn ladder_ordered(ladder: &[LadderRow]) -> bool {
    ladder
        .windows(2)
        .all(|pair| pair[0].seconds <= pair[1].seconds)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().filter_map(|m| {
        let (s, value) = (m.summary()?, m.value()?);
        let fields = [
            ("value", Json::Num(value)),
            ("unit", Json::str(m.spec.unit)),
            ("better", Json::str(m.spec.better.as_str())),
            ("q1", Json::Num(s.q1)),
            ("median", Json::Num(s.median)),
            ("q3", Json::Num(s.q3)),
            ("noise", Json::Num(s.noise())),
            ("n", Json::Int(s.n as u64)),
            (
                "samples",
                Json::Arr(m.samples.iter().map(|&x| Json::Num(x)).collect()),
            ),
        ];
        Some((m.spec.name, Json::obj(fields)))
    }))
}

pub fn outcome_json(o: &Outcome) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::str(o.workload)),
        ("why".to_string(), Json::str(o.why)),
    ];
    fields.extend(
        o.exact
            .iter()
            .map(|(name, value)| (name.to_string(), Json::Int(*value))),
    );
    fields.extend([
        ("input_digest".to_string(), Json::str(&o.input_digest)),
        ("output_digest".to_string(), Json::str(&o.output_digest)),
        ("end_to_end".to_string(), metrics_json(&o.end_to_end)),
        ("per_layer".to_string(), metrics_json(&o.per_layer)),
        (
            "ladder_s".to_string(),
            Json::obj(
                o.ladder
                    .iter()
                    .map(|row| (row.layer, Json::Num(row.seconds))),
            ),
        ),
        (
            "ladder_ordered".to_string(),
            Json::Bool(ladder_ordered(&o.ladder)),
        ),
        ("ops_attempted".to_string(), Json::Int(o.tally.attempted)),
        ("ops_failed".to_string(), Json::Int(o.tally.failed)),
        (
            "failures".to_string(),
            Json::Arr(o.tally.failures.iter().map(|f| Json::str(f)).collect()),
        ),
    ]);
    Json::Obj(fields)
}

/// The driver's line: `correct`, `attempted`, `failed` and the values.
/// One workload reports bare metric names; several prefix the workload.
pub fn last_line(outcomes: &[Outcome], extra: &Tally) -> Json {
    let attempted = extra.attempted + outcomes.iter().map(|o| o.tally.attempted).sum::<u64>();
    let failed = extra.failed + outcomes.iter().map(|o| o.tally.failed).sum::<u64>();
    let mut metrics = Vec::new();
    for o in outcomes {
        for m in o.end_to_end.iter().chain(&o.per_layer) {
            let Some(value) = m.value() else { continue };
            let name = if outcomes.len() == 1 {
                m.spec.name.to_string()
            } else {
                format!("{}.{}", o.workload, m.spec.name)
            };
            metrics.push((
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(m.spec.unit)),
                ]),
            ));
        }
    }
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// A/A: every way two suites of the same commit disagree — an end-to-end
/// value moved by more than its bound, or an exact count moved at all.
pub fn disagreements(first: &[Outcome], second: &[Outcome]) -> Vec<String> {
    let mut found = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for (x, y) in a.end_to_end.iter().zip(&b.end_to_end) {
            let (spec, Some(bound)) = (x.spec, x.spec.bound) else {
                continue;
            };
            let (Some(before), Some(after)) = (x.value(), y.value()) else {
                continue;
            };
            let noise = |m: &Metric| m.summary().map_or(0.0, |s| s.noise() * 100.0);
            let moved = (after - before).abs() / before;
            println!(
                "  {:<15} {:<12} {:>14.6} -> {:>14.6} {:<5} moved {:>5.2}% (bound {:.0}%, noise {:.2}% / {:.2}%)",
                a.workload,
                spec.name,
                before,
                after,
                spec.unit,
                moved * 100.0,
                bound * 100.0,
                noise(x),
                noise(y)
            );
            if moved > bound {
                found.push(format!(
                    "{}: {} moved {:.2}%, its bound is {:.0}%",
                    a.workload,
                    spec.name,
                    moved * 100.0,
                    bound * 100.0
                ));
            }
        }
        for ((name, x), (_, y)) in a.exact.iter().zip(&b.exact) {
            if x != y {
                found.push(format!("{}: {name} was {x}, then {y}", a.workload));
            }
        }
        if (&a.input_digest, &a.output_digest) != (&b.input_digest, &b.output_digest) {
            found.push(format!(
                "{}: the digests differ between the two suites",
                a.workload
            ));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn outcome(cli_mbps: f64, events: u64) -> Outcome {
        Outcome {
            workload: "w",
            why: "",
            exact: vec![("input_events", events)],
            input_digest: "1:a".into(),
            output_digest: "1:b".into(),
            end_to_end: vec![Metric {
                spec: &END_TO_END[0],
                samples: vec![cli_mbps; 9],
            }],
            per_layer: Vec::new(),
            ladder: Vec::new(),
            tally: Tally::default(),
        }
    }

    #[test]
    fn self_check_flags_moved_medians_and_counts() {
        let bound = END_TO_END[0].bound.unwrap() * 100.0;
        let moved = |by: f64| disagreements(&[outcome(100.0, 7)], &[outcome(100.0 + by, 7)]).len();
        assert_eq!(moved(bound - 1.0), 0);
        assert_eq!(moved(bound + 1.0), 1);
        assert_eq!(moved(-bound - 1.0), 1);
        assert_eq!(
            disagreements(&[outcome(100.0, 7)], &[outcome(100.0, 8)]),
            ["w: input_events was 7, then 8"]
        );
    }

    #[test]
    fn last_line_has_the_contract_keys() {
        let mut o = outcome(12.5, 7);
        o.tally.check(true, String::new);
        o.tally.check(false, || "bad".into());
        let line = last_line(&[o], &Tally::default()).to_string();
        assert_eq!(
            line,
            r#"{"correct": false, "attempted": 2, "failed": 1, "metrics": {"cli_mbps": {"value": 12.5, "unit": "MB/s"}}}"#
        );
    }

    #[test]
    fn ladder_order() {
        let rows = |s: &[f64]| {
            s.iter()
                .map(|&seconds| LadderRow {
                    layer: "l",
                    seconds,
                })
                .collect::<Vec<_>>()
        };
        assert!(ladder_ordered(&rows(&[0.1, 0.2, 0.2, 0.9])));
        assert!(!ladder_ordered(&rows(&[0.1, 0.3, 0.2])));
    }
}
