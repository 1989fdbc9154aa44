//! The unified per-run report tree.
//!
//! A [`RunReport`] is the single rollup every instrumented pipeline
//! component appends itself to at the end of a run: a tree of [`Stage`]s,
//! each carrying counters, span totals, derived rates, annotations,
//! residency samples and journal events. The engine returns it next to
//! `RunStats`; the CLI renders it with `--report json|text`, and
//! `tests/cli.rs` checks that its counters reconcile with the run.

use crate::json::JsonWriter;

/// One pipeline stage's telemetry (possibly with nested child stages —
/// the shard pipeline nests one lane stage per shard).
#[derive(Debug, Default, Clone)]
pub struct Stage {
    pub name: String,
    /// String annotations (active ISA, ingest path, ...).
    pub notes: Vec<(&'static str, String)>,
    /// Monotonic counter values.
    pub counters: Vec<(&'static str, u64)>,
    /// Span totals, nanoseconds.
    pub spans_ns: Vec<(&'static str, u64)>,
    /// Derived rates (events/s, bytes/s, ratios).
    pub rates: Vec<(&'static str, f64)>,
    /// Residency trace points: `(tick, high_water_bytes)`.
    pub samples: Vec<(u64, u64)>,
    /// Journal entries: `(seq, tag, value)`.
    pub events: Vec<(u64, &'static str, u64)>,
    pub children: Vec<Stage>,
}

impl Stage {
    pub fn new(name: impl Into<String>) -> Self {
        Stage {
            name: name.into(),
            ..Stage::default()
        }
    }

    /// Appends one counter.
    pub fn counter(&mut self, name: &'static str, value: u64) -> &mut Self {
        self.counters.push((name, value));
        self
    }

    /// Appends a counter-struct snapshot, routing `*_ns` entries into the
    /// span list so timings and counts stay separate in the report.
    pub fn absorb(&mut self, snapshot: Vec<(&'static str, u64)>) -> &mut Self {
        for (name, value) in snapshot {
            if name.ends_with("_ns") {
                self.spans_ns.push((name, value));
            } else {
                self.counters.push((name, value));
            }
        }
        self
    }

    /// Appends one span total (nanoseconds).
    pub fn span(&mut self, name: &'static str, ns: u64) -> &mut Self {
        self.spans_ns.push((name, ns));
        self
    }

    /// Appends one derived rate.
    pub fn rate(&mut self, name: &'static str, value: f64) -> &mut Self {
        self.rates.push((name, value));
        self
    }

    /// Appends one string annotation.
    pub fn note(&mut self, name: &'static str, value: impl Into<String>) -> &mut Self {
        self.notes.push((name, value.into()));
        self
    }

    /// Looks a counter up by name (searching this stage only).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks a span total up by name (searching this stage only).
    pub fn span_value(&self, name: &str) -> Option<u64> {
        self.spans_ns
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.field_str("name", &self.name);
        if !self.notes.is_empty() {
            w.begin_named_obj("notes");
            for (k, v) in &self.notes {
                w.field_str(k, v);
            }
            w.end_obj();
        }
        if !self.counters.is_empty() {
            w.begin_named_obj("counters");
            for &(k, v) in &self.counters {
                w.field_u64(k, v);
            }
            w.end_obj();
        }
        if !self.spans_ns.is_empty() {
            w.begin_named_obj("spans_ns");
            for &(k, v) in &self.spans_ns {
                w.field_u64(k, v);
            }
            w.end_obj();
        }
        if !self.rates.is_empty() {
            w.begin_named_obj("rates");
            for &(k, v) in &self.rates {
                w.field_f64(k, v);
            }
            w.end_obj();
        }
        if !self.samples.is_empty() {
            w.begin_named_arr("samples");
            for &(tick, high) in &self.samples {
                w.value_raw(&format!("[{tick}, {high}]"));
            }
            w.end_arr();
        }
        if !self.events.is_empty() {
            w.begin_named_arr("journal");
            for &(seq, tag, value) in &self.events {
                w.value_raw(&format!("[{seq}, \"{tag}\", {value}]"));
            }
            w.end_arr();
        }
        if !self.children.is_empty() {
            w.begin_named_arr("stages");
            for child in &self.children {
                child.write_json(w);
            }
            w.end_arr();
        }
        w.end_obj();
    }

    fn write_text(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        out.push_str(&indent);
        out.push_str(&self.name);
        for (k, v) in &self.notes {
            out.push_str(&format!("  [{k}={v}]"));
        }
        out.push('\n');
        for &(k, v) in &self.counters {
            out.push_str(&format!("{indent}  {k:<24} {v}\n"));
        }
        for &(k, ns) in &self.spans_ns {
            out.push_str(&format!("{indent}  {k:<24} {}\n", fmt_ns(ns)));
        }
        for &(k, v) in &self.rates {
            out.push_str(&format!("{indent}  {k:<24} {v:.1}\n"));
        }
        if !self.samples.is_empty() {
            let peak = self.samples.iter().map(|&(_, h)| h).max().unwrap_or(0);
            out.push_str(&format!(
                "{indent}  residency trace           {} points, max {} bytes\n",
                self.samples.len(),
                peak
            ));
        }
        for &(seq, tag, value) in &self.events {
            out.push_str(&format!("{indent}  @{seq} {tag} {value}\n"));
        }
        for child in &self.children {
            child.write_text(out, depth + 1);
        }
    }
}

/// The per-run telemetry rollup.
#[derive(Debug, Default, Clone)]
pub struct RunReport {
    pub stages: Vec<Stage>,
    /// The run's `RunStats`, pre-rendered as JSON by `flux_runtime` and
    /// spliced into the report verbatim.
    pub stats_json: Option<String>,
}

impl RunReport {
    /// Appends a top-level stage.
    pub fn stage(&mut self, stage: Stage) {
        self.stages.push(stage);
    }

    /// Finds a top-level stage by name.
    pub fn find(&self, name: &str) -> Option<&Stage> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        if let Some(stats) = &self.stats_json {
            w.field_raw("run_stats", stats);
        }
        w.begin_named_arr("stages");
        for stage in &self.stages {
            stage.write_json(&mut w);
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }

    /// Renders the report as an indented text tree.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("run report\n");
        if let Some(stats) = &self.stats_json {
            out.push_str("run_stats: ");
            out.push_str(stats.replace('\n', " ").as_str());
            out.push('\n');
        }
        for stage in &self.stages {
            stage.write_text(&mut out, 0);
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut report = RunReport::default();
        let mut scanner = Stage::new("scanner");
        scanner.note("isa", "swar-fallback");
        scanner.counter("refills", 3).counter("prescan_bytes", 4096);
        report.stage(scanner);
        let mut pipeline = Stage::new("shard_pipeline");
        pipeline.counter("shards", 2);
        let mut lane = Stage::new("shard_0");
        lane.span("parse_ns", 1_500_000).counter("events", 120);
        lane.samples.push((64, 1024));
        lane.events.push((0, "tape_ready", 0));
        pipeline.children.push(lane);
        report.stage(pipeline);
        report.stats_json = Some("{\n  \"events\": 120\n}".to_string());
        report
    }

    #[test]
    fn json_contains_every_section() {
        let json = sample_report().to_json();
        for needle in [
            "\"run_stats\":",
            "\"scanner\"",
            "\"isa\": \"swar-fallback\"",
            "\"prescan_bytes\": 4096",
            "\"shard_0\"",
            "\"parse_ns\": 1500000",
            "[64, 1024]",
            "[0, \"tape_ready\", 0]",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn text_tree_indents_children() {
        let text = sample_report().to_text();
        assert!(text.contains("shard_pipeline"));
        assert!(text.contains("  shard_0"), "child indented:\n{text}");
        assert!(text.contains("1.500ms"), "span humanized:\n{text}");
    }

    #[test]
    fn lookup_helpers_find_values() {
        let report = sample_report();
        let scanner = report.find("scanner").unwrap();
        assert_eq!(scanner.counter_value("refills"), Some(3));
        assert_eq!(scanner.counter_value("absent"), None);
        let lane = &report.find("shard_pipeline").unwrap().children[0];
        assert_eq!(lane.span_value("parse_ns"), Some(1_500_000));
    }
}
