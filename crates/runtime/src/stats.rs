//! Deterministic memory accounting and run statistics.
//!
//! The paper's evaluation metric is *buffer consumption*. We account every
//! byte that enters the buffer store (element shells, projected subtree
//! copies, text) and track the peak — a deterministic, allocator-independent
//! measure of what the engine architecture must hold in memory.

use flux_telemetry::json::JsonWriter;
use flux_telemetry::{BufferCounters, Residency};
use std::fmt;
use std::time::Duration;

/// Tracks current and peak buffered memory.
#[derive(Debug, Clone, Default)]
pub struct MemoryTracker {
    current_bytes: usize,
    peak_bytes: usize,
    current_nodes: usize,
    peak_nodes: usize,
    total_allocated_bytes: u64,
    /// Bytes of keyed-loop indexes included in `current_bytes`.
    index_bytes: usize,
    /// Alloc/grow traffic counters (frees are derived from the live node
    /// count).
    tel: BufferCounters,
    /// Buffer-residency high-water sampler: a bounded trace of how the
    /// buffered-byte level evolved over the run, fed at scope frees.
    residency: Residency,
}

impl MemoryTracker {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn allocate(&mut self, bytes: usize) {
        self.current_bytes += bytes;
        self.current_nodes += 1;
        self.total_allocated_bytes += bytes as u64;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
        self.peak_nodes = self.peak_nodes.max(self.current_nodes);
        self.tel.buffer_allocs += 1;
    }

    /// Accounts growth of an existing node (e.g. text appended to a merged
    /// text node).
    pub fn grow(&mut self, bytes: usize) {
        self.current_bytes += bytes;
        self.total_allocated_bytes += bytes as u64;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
        self.tel.buffer_grows += 1;
    }

    /// Counts one sealed print-only node of `xml_bytes` serialized bytes
    /// (its charge goes through [`MemoryTracker::allocate`]).
    pub fn count_serialized(&mut self, xml_bytes: usize) {
        self.tel.serialized_nodes += 1;
        self.tel.serialized_bytes += xml_bytes as u64;
    }

    pub fn release(&mut self, bytes: usize) {
        debug_assert!(self.current_bytes >= bytes, "released more than allocated");
        self.current_bytes = self.current_bytes.saturating_sub(bytes);
        self.current_nodes = self.current_nodes.saturating_sub(1);
    }

    /// Sets the bytes held by keyed-loop indexes: a rise is charged like
    /// growth, a fall released. Indexes are not nodes, so the node counts
    /// do not move.
    pub fn set_index_bytes(&mut self, bytes: usize) {
        if bytes > self.index_bytes {
            self.grow(bytes - self.index_bytes);
        } else {
            self.current_bytes -= self.index_bytes - bytes;
        }
        self.index_bytes = bytes;
    }

    /// Feeds the residency sampler the current level. The level only falls
    /// in [`MemoryTracker::release`], so the buffer store calls this once
    /// before releasing a scope: every local maximum of the curve is seen
    /// without a sample per node operation.
    pub fn sample_residency(&mut self) {
        self.residency.tick(self.current_bytes as u64);
    }

    /// A copy of the buffer traffic counters.
    pub fn telemetry(&self) -> BufferCounters {
        self.tel
    }

    /// The residency high-water trace, closed with the current level (what
    /// has been buffered since the last scope free).
    pub fn residency(&self) -> Residency {
        let mut trace = self.residency.clone();
        trace.tick(self.current_bytes as u64);
        trace
    }

    pub fn current_bytes(&self) -> usize {
        self.current_bytes
    }

    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    pub fn current_nodes(&self) -> usize {
        self.current_nodes
    }

    pub fn peak_nodes(&self) -> usize {
        self.peak_nodes
    }

    /// Total bytes ever allocated (allocation traffic, not residency).
    pub fn total_allocated_bytes(&self) -> u64 {
        self.total_allocated_bytes
    }
}

/// Statistics of one query execution.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Peak bytes held in buffers at any point during execution.
    pub peak_buffer_bytes: usize,
    /// Peak number of buffered nodes.
    pub peak_buffer_nodes: usize,
    /// Total buffer allocation traffic in bytes.
    pub total_buffered_bytes: u64,
    /// Bytes written to the output stream.
    pub output_bytes: u64,
    /// Steps delivered to the executor (SAX + on-first). Events inside a
    /// skipped subtree are never delivered and not counted.
    pub events: u64,
    /// Elements whose content no frame read, skipped in the reader.
    pub skipped_subtrees: u64,
    /// Input bytes those skips passed over (content and end tag).
    pub skipped_bytes: u64,
    /// Wall-clock execution time.
    pub duration: Duration,
}

impl RunStats {
    /// Rough throughput in events per second.
    pub fn events_per_second(&self) -> f64 {
        if self.duration.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.events as f64 / self.duration.as_secs_f64()
    }

    /// Renders the stats as pretty-printed JSON (hand-rolled — no
    /// dependencies). The same rendering is spliced into the `RunReport`
    /// as `run_stats`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_u64("peak_buffer_bytes", self.peak_buffer_bytes as u64);
        w.field_u64("peak_buffer_nodes", self.peak_buffer_nodes as u64);
        w.field_u64("total_buffered_bytes", self.total_buffered_bytes);
        w.field_u64("output_bytes", self.output_bytes);
        w.field_u64("events", self.events);
        w.field_u64("skipped_subtrees", self.skipped_subtrees);
        w.field_u64("skipped_bytes", self.skipped_bytes);
        w.field_u64(
            "duration_ns",
            u64::try_from(self.duration.as_nanos()).unwrap_or(u64::MAX),
        );
        w.field_f64("events_per_second", self.events_per_second());
        w.end_obj();
        w.finish()
    }
}

/// The one-line human rendering shared by the CLI `--stats` switch,
/// conformance failure diagnostics and the text report.
impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events: {} | peak buffer: {} bytes / {} nodes | buffered total: {} bytes | output: {} bytes | {:.2?} ({:.0} events/s)",
            self.events,
            self.peak_buffer_bytes,
            self.peak_buffer_nodes,
            self.total_buffered_bytes,
            self.output_bytes,
            self.duration,
            self.events_per_second()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_peak_survives_release() {
        let mut t = MemoryTracker::new();
        t.allocate(100);
        t.allocate(50);
        assert_eq!(t.current_bytes(), 150);
        assert_eq!(t.peak_bytes(), 150);
        t.release(100);
        assert_eq!(t.current_bytes(), 50);
        assert_eq!(t.peak_bytes(), 150);
        t.allocate(30);
        assert_eq!(
            t.peak_bytes(),
            150,
            "peak unchanged below the high-water mark"
        );
        assert_eq!(t.total_allocated_bytes(), 180);
    }

    #[test]
    fn grow_counts_bytes_not_nodes() {
        let mut t = MemoryTracker::new();
        t.allocate(10);
        t.grow(5);
        assert_eq!(t.current_bytes(), 15);
        assert_eq!(t.current_nodes(), 1);
        assert_eq!(t.peak_nodes(), 1);
    }

    #[test]
    fn index_bytes_charge_and_release_without_nodes() {
        let mut t = MemoryTracker::new();
        t.allocate(100);
        t.set_index_bytes(48);
        assert_eq!((t.current_bytes(), t.peak_bytes()), (148, 148));
        t.set_index_bytes(16);
        assert_eq!((t.current_bytes(), t.peak_bytes()), (116, 148));
        t.set_index_bytes(0);
        assert_eq!(t.current_bytes(), 100);
        assert_eq!(t.current_nodes(), 1);
        assert_eq!(t.total_allocated_bytes(), 148);
    }

    #[test]
    fn residency_trace_agrees_with_tracker_peak() {
        let mut t = MemoryTracker::new();
        for _ in 0..500 {
            t.allocate(64);
        }
        assert_eq!(
            t.residency().max_high_water(),
            t.peak_bytes() as u64,
            "a peak no scope free has followed yet is still in the trace"
        );
        t.sample_residency();
        for _ in 0..500 {
            t.release(64);
        }
        assert_eq!(t.residency().max_high_water(), t.peak_bytes() as u64);
        let rows = t.telemetry().rows(t.current_nodes() as u64);
        assert!(rows.contains(&("buffer_allocs", 500)), "{rows:?}");
        assert!(rows.contains(&("buffer_frees", 500)), "{rows:?}");
    }

    #[test]
    fn stats_render_as_json_and_text() {
        let stats = RunStats {
            peak_buffer_bytes: 1234,
            peak_buffer_nodes: 7,
            total_buffered_bytes: 9999,
            output_bytes: 321,
            events: 1000,
            skipped_subtrees: 3,
            skipped_bytes: 77,
            duration: Duration::from_millis(250),
        };
        let json = stats.to_json();
        for needle in [
            "\"peak_buffer_bytes\": 1234",
            "\"peak_buffer_nodes\": 7",
            "\"total_buffered_bytes\": 9999",
            "\"output_bytes\": 321",
            "\"events\": 1000",
            "\"skipped_subtrees\": 3",
            "\"skipped_bytes\": 77",
            "\"duration_ns\": 250000000",
            "\"events_per_second\": 4000.0",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        let text = stats.to_string();
        assert!(text.contains("events: 1000"));
        assert!(text.contains("peak buffer: 1234 bytes / 7 nodes"));
        assert!(text.contains("4000 events/s"));
    }
}
