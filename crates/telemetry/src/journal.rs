//! The bounded ring-buffer event journal.
//!
//! A [`Journal`] records coarse pipeline lifecycle moments — "shard 3's
//! tape is ready", "shard 3 activated for replay" — as `(tag, value)`
//! pairs stamped with a monotonically increasing sequence number. The
//! backing store is allocated once (at [`Journal::with_capacity`]) and
//! never grows: when full, the oldest entry is overwritten, so recording
//! in the steady state costs two stores and never allocates.

/// One journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// Global record index (keeps ordering across wrap-around; the first
    /// record is 0).
    pub seq: u64,
    /// What happened.
    pub tag: &'static str,
    /// The tagged quantity — a shard index, a byte count, a timestamp.
    pub value: u64,
}

/// A fixed-capacity overwrite-oldest event log.
#[derive(Debug, Default)]
pub struct Journal {
    entries: Vec<JournalEvent>,
    /// Slot the next record lands in once the buffer has wrapped.
    head: usize,
    seq: u64,
}

impl Journal {
    /// A journal whose backing store is allocated up front; `record`
    /// never allocates after this.
    pub fn with_capacity(cap: usize) -> Self {
        Journal {
            entries: Vec::with_capacity(cap.max(1)),
            head: 0,
            seq: 0,
        }
    }

    /// Appends an entry, overwriting the oldest when full.
    #[inline]
    pub fn record(&mut self, tag: &'static str, value: u64) {
        let ev = JournalEvent {
            seq: self.seq,
            tag,
            value,
        };
        self.seq += 1;
        if self.entries.len() < self.entries.capacity() {
            self.entries.push(ev);
        } else {
            self.entries[self.head] = ev;
            self.head = (self.head + 1) % self.entries.capacity();
        }
    }

    /// Entries in record order, oldest first.
    pub fn events(&self) -> Vec<JournalEvent> {
        let mut out = Vec::with_capacity(self.entries.len());
        out.extend_from_slice(&self.entries[self.head..]);
        out.extend_from_slice(&self.entries[..self.head]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_overwrite_keeps_newest() {
        let mut j = Journal::with_capacity(4);
        for i in 0..10 {
            j.record("tick", i);
        }
        let events = j.events();
        assert_eq!(events.len(), 4, "capacity bounds retention");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest first, newest retained");
        assert_eq!(events[3].value, 9);
    }
}
