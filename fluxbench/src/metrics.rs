//! The metrics by name: unit, direction, regression bound — the table
//! `BENCHMARK.json` states (a test holds the two together) — and the
//! statistic each one reports.

use crate::stats::Summary;
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's value by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. The bounds come from the spread of ten
/// runs on ten seeds on the recording host (README, "Noise").
pub static END_TO_END: [Spec; 4] = [
    gated("cli_mbps", "MB/s", Higher, 0.25),
    gated("lib_mbps", "MB/s", Higher, 0.25),
    gated("peak_rss_mb", "MB", Lower, 0.1),
    gated("setup_s", "s", Lower, 0.25),
];

/// Single layers, from the traced run. None is gated.
pub static PER_LAYER: [Spec; 22] = [
    layer("prescan_mbps", "MB/s", Higher),
    layer("reader_mbps", "MB/s", Higher),
    layer("reader_ns_per_event", "ns/event", Lower),
    layer("xsax_mbps", "MB/s", Higher),
    layer("xsax_self_ns_per_event", "ns/event", Lower),
    layer("runtime_self_s", "s", Lower),
    layer("writer_mbps", "MB/s", Higher),
    layer("events", "count", Lower),
    layer("peak_buffer_bytes", "B", Lower),
    layer("total_buffered_bytes", "B", Lower),
    layer("buffered_share", "ratio", Lower),
    layer("cli_overhead_s", "s", Lower),
    layer("cli_sys_share", "ratio", Lower),
    layer("flux_first_output_ms", "ms", Lower),
    layer("dom_first_output_ms", "ms", Lower),
    layer("shards2_mbps", "MB/s", Higher),
    layer("gz_mbps", "MB/s", Higher),
    layer("dom_cli_mbps", "MB/s", Higher),
    layer("dom_peak_rss_mb", "MB", Lower),
    layer("projection_cli_mbps", "MB/s", Higher),
    layer("projection_peak_rss_mb", "MB", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

/// The quartile on the better side of a sample.
///
/// On a shared host interference only ever makes a sample worse, and it
/// comes in bursts as long as a run: in one recorded run six of nine
/// samples were 10–40 % slow. The median then reports the neighbour, not
/// the program. The better-side quartile still needs a quarter of the
/// samples to agree, so one lucky sample cannot set it, and across runs
/// it spread half as wide as the median (README, "Noise").
pub fn better_quartile(better: Better, samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| match better {
        Better::Higher => s.q3,
        Better::Lower => s.q1,
    })
}

/// One measured metric: every sample, reported as [`better_quartile`].
pub struct Metric {
    pub spec: &'static Spec,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.samples)
    }

    pub fn value(&self) -> Option<f64> {
        better_quartile(self.spec.better, &self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_value_is_the_better_side_quartile() {
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(better_quartile(Higher, &nine), Some(7.5));
        assert_eq!(better_quartile(Lower, &nine), Some(2.5));
        assert_eq!(better_quartile(Lower, &[4.0]), Some(4.0));
        assert_eq!(better_quartile(Lower, &[]), None);
        // Three samples: the best one.
        assert_eq!(better_quartile(Higher, &[2.0, 9.0, 4.0]), Some(9.0));
    }

    /// `BENCHMARK.json` is the contract later changes are held to; the
    /// tables above are what this program reports and `--self-check`
    /// enforces. They must agree.
    #[test]
    fn benchmark_json_states_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            let bound = s
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            let line = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}"{bound}}}"#,
                s.name,
                s.unit,
                s.better.as_str()
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        assert_eq!(
            text.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in &crate::workloads::WORKLOADS {
            let line = format!(r#"{{"name": "{}", "why": "{}"}}"#, w.name, w.why);
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
    }
}
