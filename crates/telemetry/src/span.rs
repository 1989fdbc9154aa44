//! Coarse monotonic span timers.
//!
//! A [`Stopwatch`] is a captured [`std::time::Instant`]: starting one and
//! reading `elapsed_ns` are the *only* clock reads the instrumentation
//! performs — spans bracket whole stages (a shard's parse, a replay
//! window), never individual events. A copy of one stopwatch shared
//! across threads is the pipeline *epoch*: every thread's `elapsed_ns`
//! reads off the same monotonic axis, so cross-thread timeline points
//! (tape ready vs. tape picked up) subtract meaningfully.

use std::time::Instant;

/// A started monotonic timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Captures the current monotonic instant.
    #[inline]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since [`Stopwatch::start`] (saturating at `u64::MAX`).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a, "monotonic clock must not run backwards");
    }
}
