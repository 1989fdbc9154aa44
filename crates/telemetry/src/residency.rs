//! The buffer-residency high-water sampler.
//!
//! [`Residency`] turns the memory tracker's `current_bytes` level into a
//! bounded trace of how buffered memory evolved over the run — the curve
//! the paper's buffer-minimization claim is about. The level only falls
//! when a scope is freed, so every local maximum of the curve sits right
//! before a scope free: the tracker calls [`Residency::tick`] there (and
//! once more when the trace is read), not on every node operation. The
//! sampler keeps the high-water mark of each sampling window and emits
//! one `(tick, high_water)` point per window into a **fixed inline
//! array**: no heap allocation ever, so the allocation-free
//! buffer-and-free loop stays allocation-free.
//!
//! The trace is kept bounded by *decimation*: when the array fills, its
//! points are folded pairwise (keeping each pair's high-water maximum)
//! and the sampling stride doubles. A run of any length therefore yields
//! between 32 and 64 points whose maxima are exact — the global peak is
//! never lost, only time resolution.

/// Sample slots held inline (the trace never exceeds this many points).
pub const RESIDENCY_SLOTS: usize = 64;

/// A decimating high-water sampler over tracker ticks.
#[derive(Debug, Clone)]
pub struct Residency {
    /// `(tick, high_water_bytes)` points, oldest first.
    samples: [(u64, u64); RESIDENCY_SLOTS],
    len: usize,
    /// Ticks per sample window minus one (the stride is always a power of
    /// two, so the boundary test is a mask, not a division).
    stride_mask: u64,
    ticks: u64,
    /// High-water mark inside the current (unfinished) window.
    window_high: u64,
}

impl Default for Residency {
    fn default() -> Self {
        Residency {
            samples: [(0, 0); RESIDENCY_SLOTS],
            len: 0,
            stride_mask: 0,
            ticks: 0,
            window_high: 0,
        }
    }
}

impl Residency {
    /// Feeds one sample point: the live byte count at a local maximum of
    /// the level (just before a scope free, or at the end of the run).
    #[inline]
    pub fn tick(&mut self, current_bytes: u64) {
        self.ticks += 1;
        if current_bytes > self.window_high {
            self.window_high = current_bytes;
        }
        if self.ticks & self.stride_mask == 0 {
            self.push_sample(current_bytes);
        }
    }

    fn push_sample(&mut self, current_bytes: u64) {
        if self.len == RESIDENCY_SLOTS {
            // Decimate in place: fold pairs, keep each pair's maximum and
            // the later tick, double the stride.
            for i in 0..RESIDENCY_SLOTS / 2 {
                let (_, high_a) = self.samples[2 * i];
                let (tick_b, high_b) = self.samples[2 * i + 1];
                self.samples[i] = (tick_b, high_a.max(high_b));
            }
            self.len = RESIDENCY_SLOTS / 2;
            self.stride_mask = self.stride_mask * 2 + 1;
            if self.ticks & self.stride_mask != 0 {
                // This window is now only half done under the new stride;
                // keep accumulating instead of emitting a short sample.
                return;
            }
        }
        self.samples[self.len] = (self.ticks, self.window_high);
        self.len += 1;
        self.window_high = current_bytes;
    }

    /// The trace so far: `(tick, high_water_bytes)` points, oldest first.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        self.samples[..self.len].to_vec()
    }

    /// The maximum high-water mark across all windows, including the
    /// current unfinished one — must equal the tracker's own peak.
    pub fn max_high_water(&self) -> u64 {
        self.samples[..self.len]
            .iter()
            .map(|&(_, h)| h)
            .max()
            .unwrap_or(0)
            .max(self.window_high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_trace_preserves_peak() {
        let mut r = Residency::default();
        // A sawtooth with one spike: grow to i, drop to 0; spike to 9999
        // mid-run.
        for i in 0..10_000u64 {
            r.tick(i % 97);
            if i == 5_000 {
                r.tick(9_999);
            }
        }
        let trace = r.snapshot();
        assert!(trace.len() <= RESIDENCY_SLOTS, "trace stays bounded");
        assert!(trace.len() >= RESIDENCY_SLOTS / 2, "decimation keeps half");
        assert_eq!(r.max_high_water(), 9_999, "spike survives decimation");
        let ticks: Vec<u64> = trace.iter().map(|&(t, _)| t).collect();
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        assert_eq!(ticks, sorted, "samples stay in tick order");
    }

    #[test]
    fn short_runs_sample_every_tick() {
        let mut r = Residency::default();
        for i in [5u64, 3, 8, 2] {
            r.tick(i);
        }
        assert_eq!(r.snapshot().len(), 4, "stride 1 until the array fills");
        assert_eq!(r.max_high_water(), 8);
    }
}
