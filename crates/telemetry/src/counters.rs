//! Fixed-slot stage counters.
//!
//! Each counter struct is a block of plain `u64` fields owned by exactly
//! one thread (a scanner, a shard worker, the consumer): recording is
//! `counters.field += n`, and cross-thread aggregation happens once, at
//! join time, through [`ScanCounters::merge`]-style folds — never through
//! atomics on the hot path.
//!
//! Per-event paths bump as little as possible. Where one arm of a pair is
//! rare (a slow-path fallback, a copied text run) only the rare arm is
//! counted, and a value that restates another count is *derived* when the
//! report is built ([`ReaderCounters::fast_start_tags`],
//! [`XsaxCounters::sax_events`], [`BufferCounters::buffer_frees`]).
//!
//! The full catalogue (what each field means, where it is bumped, which
//! rows are derived) is documented in `docs/OBSERVABILITY.md`.

/// Defines a counter struct: `u64` fields plus the join-time `merge` fold
/// and a named `snapshot` in declaration order.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$fmeta:meta])* $field:ident),+ $(,)? }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64,)+
        }

        impl $name {
            /// Folds `other` into `self`, field by field — the join-time
            /// aggregation of per-thread counters.
            #[inline]
            pub fn merge(&mut self, other: &Self) {
                $(self.$field += other.$field;)+
            }

            /// Named values in declaration order.
            pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)+]
            }
        }
    };
}

counters! {
    /// Scanner-level counters: the refill path and the structural prescan
    /// that runs inside it.
    pub struct ScanCounters {
        /// Source reads that delivered bytes into the scanner window.
        refills,
        /// Bytes swept by the vectorised structural prescan (every
        /// buffered byte is prescanned exactly once).
        prescan_bytes,
    }
}

counters! {
    /// Reader-level counters: how events were actually produced. The
    /// per-tag totals are the only unconditional bumps; everything else
    /// sits on a rare arm.
    pub struct ReaderCounters {
        /// Start tags parsed (either path).
        start_tags,
        /// Start tags that fell back to the byte-at-a-time parser.
        slow_start_tags,
        /// Explicit end tags parsed (either path; the virtual end of
        /// `<e/>` is not a tag).
        end_tags,
        /// End tags that fell back to the byte-at-a-time parser.
        slow_end_tags,
        /// Text segments that required entity unescaping.
        entity_unescapes,
        /// Text segments copied into the recycled event buffer instead of
        /// being served as borrowed scanner-window slices.
        copied_text_runs,
    }
}

impl ReaderCounters {
    /// Derived: start tags parsed wholly from the prescanned window.
    pub fn fast_start_tags(&self) -> u64 {
        self.start_tags - self.slow_start_tags
    }

    /// Derived: end tags parsed wholly from the prescanned window.
    pub fn fast_end_tags(&self) -> u64 {
        self.end_tags - self.slow_end_tags
    }

    /// Report rows: the counted fields plus the derived ones.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        let mut rows = self.snapshot();
        rows.push(("fast_start_tags", self.fast_start_tags()));
        rows.push(("fast_end_tags", self.fast_end_tags()));
        rows
    }
}

counters! {
    /// One shard's lane in the parallel pipeline timeline. Workers fill
    /// the parse-side fields; the consumer fills the replay side when the
    /// shard is activated and exhausted. `*_ns` fields are span totals in
    /// nanoseconds relative to the pipeline epoch.
    pub struct ShardLane {
        /// Wall-clock span of this shard's fragment parse.
        parse_ns,
        /// Events recorded onto this shard's tape.
        events,
        /// Tape bytes produced (payload arena plus encoded headers).
        tape_bytes,
        /// Time the finished tape waited in the bounded channel before the
        /// consumer picked it up (producer-side backpressure: the channel
        /// is sized so senders never block, so dwell is the stall signal).
        dwell_ns,
        /// Time the consumer spent blocked in `recv` waiting for this
        /// shard's tape (consumer-side stall).
        recv_stall_ns,
        /// Number of blocking receives attributed to this shard.
        recv_stalls,
        /// Wall-clock span from shard activation to tape exhaustion — the
        /// consumer's replay time for this shard.
        replay_ns,
    }
}

counters! {
    /// XSAX validating-parser counters.
    pub struct XsaxCounters {
        /// `on-first` fire events delivered.
        fires,
    }
}

impl XsaxCounters {
    /// Derived: SAX events delivered downstream, given the `steps` the
    /// consumer pulled (`RunStats::events`) — every step is a SAX event or
    /// a fire.
    pub fn sax_events(&self, steps: u64) -> u64 {
        steps - self.fires
    }

    /// Report rows: the counted fields plus the derived ones.
    pub fn rows(&self, steps: u64) -> Vec<(&'static str, u64)> {
        let mut rows = self.snapshot();
        rows.push(("sax_events", self.sax_events(steps)));
        rows
    }
}

counters! {
    /// Buffer-store traffic counters, owned by the memory tracker.
    pub struct BufferCounters {
        /// Node allocations charged to the buffer store.
        buffer_allocs,
        /// In-place growth charges (text merged into an existing node).
        buffer_grows,
    }
}

impl BufferCounters {
    /// Derived: node releases (scope frees) credited back, given the
    /// tracker's `live_nodes` — every allocated node is live or freed.
    pub fn buffer_frees(&self, live_nodes: u64) -> u64 {
        self.buffer_allocs - live_nodes
    }

    /// Report rows: the counted fields plus the derived ones.
    pub fn rows(&self, live_nodes: u64) -> Vec<(&'static str, u64)> {
        let mut rows = self.snapshot();
        rows.push(("buffer_frees", self.buffer_frees(live_nodes)));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(refills: u64, prescan_bytes: u64) -> ScanCounters {
        ScanCounters {
            refills,
            prescan_bytes,
        }
    }

    #[test]
    fn merge_folds_field_by_field_in_any_order() {
        let (x, y, z) = (scan(1, 10), scan(2, 20), scan(4, 40));
        let mut left = x;
        left.merge(&y);
        left.merge(&z);
        let mut right = z;
        right.merge(&x);
        right.merge(&y);
        assert_eq!(left.snapshot(), right.snapshot());
        assert_eq!(left.snapshot(), vec![("refills", 7), ("prescan_bytes", 70)]);
    }

    // Each derivation below is replayed against the per-event bump it
    // replaced: `bumped_*` is what the deleted counter would have read.

    #[test]
    fn fast_tags_equal_the_deleted_fast_path_bumps() {
        let mut tel = ReaderCounters::default();
        let (mut bumped_fast_starts, mut bumped_fast_ends) = (0, 0);
        for i in 0..1000u64 {
            tel.start_tags += 1;
            if i % 7 == 0 {
                tel.slow_start_tags += 1;
            } else {
                bumped_fast_starts += 1;
            }
            // `<e/>` every third element: no explicit end tag.
            if i % 3 != 0 {
                tel.end_tags += 1;
                if i % 11 == 0 {
                    tel.slow_end_tags += 1;
                } else {
                    bumped_fast_ends += 1;
                }
            }
        }
        assert_eq!(tel.fast_start_tags(), bumped_fast_starts);
        assert_eq!(tel.fast_end_tags(), bumped_fast_ends);
    }

    #[test]
    fn sax_events_equal_the_deleted_per_delivery_bump() {
        let mut tel = XsaxCounters::default();
        let (mut steps, mut bumped_sax_events) = (0, 0);
        for i in 0..1000u64 {
            steps += 1;
            if i % 5 == 4 {
                tel.fires += 1;
            } else {
                bumped_sax_events += 1;
            }
        }
        assert_eq!(tel.sax_events(steps), bumped_sax_events);
    }

    #[test]
    fn buffer_frees_equal_the_deleted_per_release_bump() {
        let mut tel = BufferCounters::default();
        let (mut live_nodes, mut bumped_frees) = (0u64, 0);
        for scope in 0..100u64 {
            for _ in 0..=scope % 4 {
                tel.buffer_allocs += 1;
                live_nodes += 1;
            }
            // Every other scope is freed; the rest stay live to the end.
            if scope % 2 == 0 {
                for _ in 0..=scope % 4 {
                    live_nodes -= 1;
                    bumped_frees += 1;
                }
            }
        }
        assert!(live_nodes > 0, "some nodes must outlive the loop");
        assert_eq!(tel.buffer_frees(live_nodes), bumped_frees);
    }
}
