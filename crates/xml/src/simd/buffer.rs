//! The scanner's byte buffer, indexed and UTF-8-validated as it fills:
//! each byte read is swept into the [`StructuralIndex`] and checked as
//! UTF-8 once, at refill, and the buffer records how far the check has
//! reached — the *watermark*. [`IndexedBuffer::str`] then lends a range
//! below the watermark as `&str` without a pass over it.
//!
//! # The watermark invariant
//!
//! `buf[..valid]` is a contiguous slice of one valid UTF-8 stream, so any
//! range inside it that starts and ends on a character boundary is valid
//! UTF-8 by itself. That is the one fact the unchecked conversion in
//! [`IndexedBuffer::str`] rests on, and why this module owns the buffer:
//! nothing outside it can write below the watermark.
//!
//! * A character cut off by the end of a read is *carried*: the watermark
//!   stops before it, [`IndexedBuffer::discard`] keeps it, and the next
//!   refill validates it whole.
//! * At an invalid sequence the watermark stops for good; ranges past it
//!   take the checked path, so errors are exactly `from_utf8`'s.
#![allow(unsafe_code)]

use super::index::StructuralIndex;
use crate::input::BudgetCharge;
use std::io::{self, Read};
use std::ops::Range;

/// A refillable byte buffer with its structural index and UTF-8
/// watermark. The index covers exactly the buffered bytes, `buf[..end]`.
pub(crate) struct IndexedBuffer {
    buf: Vec<u8>,
    /// Bytes buffered.
    end: usize,
    index: StructuralIndex,
    /// The watermark: `buf[..valid]` has been validated.
    valid: usize,
    /// An invalid sequence sits at the watermark: validation has stopped.
    stuck: bool,
    /// Bytes validated over the buffer's life.
    validated: u64,
    /// Live charge for the allocation against a memory budget.
    charge: Option<BudgetCharge>,
}

/// Whether `b` continues a multi-byte UTF-8 sequence (never starts one).
fn is_continuation(b: u8) -> bool {
    b & 0xC0 == 0x80
}

impl IndexedBuffer {
    pub(crate) fn new(capacity: usize, charge: Option<BudgetCharge>) -> Self {
        IndexedBuffer {
            buf: vec![0; capacity],
            end: 0,
            index: StructuralIndex::new(),
            valid: 0,
            stuck: false,
            validated: 0,
            charge,
        }
    }

    /// Allocated size: how many bytes can be buffered before a grow.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The buffered bytes.
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf[..self.end]
    }

    #[inline]
    pub(crate) fn index(&self) -> &StructuralIndex {
        &self.index
    }

    /// Bytes validated as UTF-8 so far — each input byte once.
    pub(crate) fn validated_bytes(&self) -> u64 {
        self.validated
    }

    /// Grows the allocation (and its budget charge) to `capacity` bytes.
    pub(crate) fn grow(&mut self, capacity: usize) {
        self.buf.resize(capacity, 0);
        if let Some(charge) = &mut self.charge {
            charge.grow_to(capacity as u64);
        }
    }

    /// Drops up to `n` leading (consumed) bytes, shifting everything down;
    /// returns how many were dropped. A character the watermark has not
    /// finished validating is kept for the next refill.
    pub(crate) fn discard(&mut self, n: usize) -> usize {
        let n = if self.stuck { n } else { n.min(self.valid) };
        if n > 0 {
            self.buf.copy_within(n..self.end, 0);
            self.end -= n;
            self.valid = self.valid.saturating_sub(n);
            self.index.discard_front(n);
        }
        n
    }

    /// One read from `src` into the free tail (the caller grows the buffer
    /// first when it is full), then phase one over what arrived: the
    /// structural prescan and the UTF-8 check. Returns the bytes read.
    pub(crate) fn fill_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        debug_assert!(self.end < self.buf.len(), "grow before filling");
        let read = src.read(&mut self.buf[self.end..])?;
        let base = self.index.base() + self.index.len() as u64;
        super::prescan_into(&self.buf[self.end..self.end + read], base, &mut self.index);
        self.end += read;
        if !self.stuck {
            let pending = &self.buf[self.valid..self.end];
            let ok = match std::str::from_utf8(pending) {
                Ok(_) => pending.len(),
                Err(e) => {
                    // `error_len() == None`: a character cut off by the
                    // end of the read — carried, not invalid.
                    self.stuck = e.error_len().is_some();
                    e.valid_up_to()
                }
            };
            self.valid += ok;
            self.validated += ok as u64;
        }
        Ok(read)
    }

    /// `buf[range]` as `&str` when it is UTF-8 — the answer
    /// `std::str::from_utf8` would give, but a range below the watermark
    /// costs two boundary checks instead of a pass over its bytes.
    #[inline(always)]
    pub(crate) fn str(&self, range: Range<usize>) -> Option<&str> {
        let bytes = &self.buf[..self.end][range.clone()];
        let starts_on_boundary = bytes.first().map_or(true, |&b| !is_continuation(b));
        let ends_on_boundary = range.end == self.valid
            || range.end < self.valid && !is_continuation(self.buf[range.end]);
        if starts_on_boundary && ends_on_boundary {
            // SAFETY: `range` lies below the watermark, and by the module
            // invariant `buf[..valid]` is a slice of a valid UTF-8 stream;
            // a sub-range starting and ending on character boundaries (the
            // two checks above) is therefore valid UTF-8 itself.
            return Some(unsafe { std::str::from_utf8_unchecked(bytes) });
        }
        std::str::from_utf8(bytes).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out at most `step` bytes per call, so refills
    /// cut multi-byte characters at every possible offset.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(self.1).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn filled(input: &[u8], step: usize) -> IndexedBuffer {
        let mut buf = IndexedBuffer::new(input.len() + 1, None);
        let mut src = Trickle(input, step);
        while buf.fill_from(&mut src).unwrap() > 0 {}
        buf
    }

    #[test]
    fn characters_cut_by_a_refill_are_carried() {
        let text = "aé€💡b".repeat(3);
        for step in 1..6 {
            let buf = filled(text.as_bytes(), step);
            assert_eq!(buf.validated_bytes(), text.len() as u64, "step {step}");
            assert_eq!(buf.str(0..text.len()), Some(text.as_str()));
        }
    }

    #[test]
    fn str_agrees_with_from_utf8_on_every_range() {
        let input = "x<é>€\u{1F4A1}&".as_bytes();
        let mut bad = input.to_vec();
        bad.extend_from_slice(b"\xFFtail");
        for bytes in [input, &bad] {
            let buf = filled(bytes, 3);
            for a in 0..=bytes.len() {
                for b in a..=bytes.len() {
                    let want = std::str::from_utf8(&bytes[a..b]).ok();
                    assert_eq!(buf.str(a..b), want, "{a}..{b}");
                }
            }
        }
    }

    #[test]
    fn an_invalid_sequence_stops_the_watermark() {
        let buf = filled(b"ok \xC0\xAF then more", 4);
        assert_eq!(buf.validated_bytes(), 3);
        assert_eq!(buf.str(0..3), Some("ok "));
        assert_eq!(buf.str(5..10), Some(" then"), "checked past the watermark");
    }

    #[test]
    fn discard_keeps_an_unfinished_character() {
        let mut buf = IndexedBuffer::new(16, None);
        let mut src = Trickle("ab€".as_bytes(), 3);
        buf.fill_from(&mut src).unwrap(); // "ab" + first byte of '€'
        assert_eq!(buf.discard(3), 2, "the cut character stays");
        buf.fill_from(&mut src).unwrap();
        assert_eq!(buf.str(0..3), Some("€"));
        assert_eq!(buf.validated_bytes(), 5);
    }
}
