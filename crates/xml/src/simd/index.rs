//! The structural index: one bitmap per structural byte class, filled by
//! the vectorised prescan and queried by the scanner, reader and shard
//! splitter.
//!
//! Bit `i` of a [`Lane`] is set when byte `i` of the indexed span — which
//! starts at absolute input offset [`StructuralIndex::base`] — belongs to
//! the lane's class; bits past the span are zero. Every query is a word
//! operation: the next `<` is a `tzcnt`, a newline count a `popcnt`, the
//! last newline a `lzcnt`. A lane costs one bit per input byte whatever
//! the structure density, and dropping a consumed prefix is a word shift —
//! there is no per-position storage to push, prune or release.

use super::swar;

/// One structural byte class: a bitmap over the indexed span, 64 bytes
/// per word, bit `i % 64` of word `i / 64` standing for byte `i`.
#[derive(Debug, Default, Clone)]
pub struct Lane {
    words: Vec<u64>,
}

impl Lane {
    /// How many positions the lane holds: the count of its class over the
    /// indexed span.
    pub fn pending(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The first position in `[from, to)` (span-relative).
    #[inline(always)]
    pub fn next_in(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let at = w * 64 + bits.trailing_zeros() as usize;
                return (at < to).then_some(at);
            }
            w += 1;
            if w * 64 >= to {
                return None;
            }
            bits = *self.words.get(w)?;
        }
    }

    /// How many positions lie in `[from, to)`, and the last of them.
    pub fn count_in(&self, from: usize, to: usize) -> (u64, Option<usize>) {
        let to = to.min(self.words.len() * 64);
        if from >= to {
            return (0, None);
        }
        let (first, last_word) = (from / 64, (to - 1) / 64);
        let words = &self.words[first..=last_word];
        let mut count = 0u64;
        let mut last = None;
        for (i, &word) in words.iter().enumerate() {
            let mut bits = word;
            if i == 0 {
                bits &= !0u64 << (from % 64);
            }
            if i == words.len() - 1 {
                bits &= !0u64 >> (63 - (to - 1) % 64);
            }
            count += u64::from(bits.count_ones());
            if bits != 0 {
                last = Some((first + i) * 64 + 63 - bits.leading_zeros() as usize);
            }
        }
        (count, last)
    }

    /// Every position, ascending (span-relative).
    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits >> b & 1 == 1)
                .map(move |b| w * 64 + b)
        })
    }
}

/// The structural index: one [`Lane`] per byte class over a contiguous,
/// growing span of the input. The quote lane merges `"` and `'` — the
/// consumer knows which quote opened a value and checks the byte itself.
#[derive(Debug, Default)]
pub struct StructuralIndex {
    /// Absolute input offset of the span's first byte.
    base: u64,
    /// Bytes indexed.
    len: usize,
    /// `<` — markup start candidates.
    pub lt: Lane,
    /// `>` — markup end candidates (may sit inside quoted values).
    pub gt: Lane,
    /// `"` or `'` — quote-parity boundaries inside markup.
    pub quote: Lane,
    /// `&` — entity/character reference starts.
    pub amp: Lane,
    /// `\n` — newline positions feeding line/column accounting.
    pub nl: Lane,
}

/// One 64-byte block's masks, in [`StructuralIndex`] lane order: `<`,
/// `>`, quote, `&`, `\n`.
pub(crate) type BlockMasks = [u64; 5];

impl StructuralIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Absolute input offset of the indexed span's first byte.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Bytes indexed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn lanes_mut(&mut self) -> [&mut Lane; 5] {
        [
            &mut self.lt,
            &mut self.gt,
            &mut self.quote,
            &mut self.amp,
            &mut self.nl,
        ]
    }

    /// Appends one full block's masks (the kernels' bulk output).
    #[inline]
    pub(crate) fn push_block(&mut self, masks: BlockMasks) {
        for (lane, bits) in self.lanes_mut().into_iter().zip(masks) {
            lane.words.push(bits);
        }
    }

    /// Indexes `bytes`, the input at absolute offset `base_abs`: the
    /// continuation of the span, or the start of a new one when the index
    /// is empty. `bulk` classifies a run of whole 64-byte blocks into
    /// [`StructuralIndex::push_block`]; a partial block at either end is
    /// zero-padded and classified by the SWAR kernel.
    pub(crate) fn append(
        &mut self,
        bytes: &[u8],
        base_abs: u64,
        bulk: impl FnOnce(&[u8], &mut Self),
    ) {
        if self.len == 0 {
            self.base = base_abs;
        }
        debug_assert_eq!(base_abs, self.base + self.len as u64, "not contiguous");
        let mut rest = bytes;
        let head = self.len % 64;
        if head != 0 && !rest.is_empty() {
            // Finish the partial last word: classify the new bytes at their
            // bit positions and OR them in.
            let k = rest.len().min(64 - head);
            let mut block = [0u8; 64];
            block[head..head + k].copy_from_slice(&rest[..k]);
            for (lane, bits) in self.lanes_mut().into_iter().zip(swar::classify(&block)) {
                *lane.words.last_mut().expect("partial word") |= bits;
            }
            self.len += k;
            rest = &rest[k..];
        }
        let whole = rest.len() / 64 * 64;
        for lane in self.lanes_mut() {
            lane.words.reserve(rest.len().div_ceil(64));
        }
        bulk(&rest[..whole], self);
        if whole < rest.len() {
            let mut block = [0u8; 64];
            block[..rest.len() - whole].copy_from_slice(&rest[whole..]);
            self.push_block(swar::classify(&block));
        }
        self.len += rest.len();
    }

    /// Forgets everything, keeping capacity.
    pub fn clear(&mut self) {
        for lane in self.lanes_mut() {
            lane.words.clear();
        }
        self.base += self.len as u64;
        self.len = 0;
    }

    /// Drops the first `n` indexed bytes: every lane shifts down by `n`
    /// bits, so positions stay relative to the (new) span start.
    pub(crate) fn discard_front(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        let (skip, shift) = (n / 64, n % 64);
        let keep = (self.len - n).div_ceil(64);
        for lane in self.lanes_mut() {
            let w = &mut lane.words;
            for i in 0..keep {
                let hi = match shift {
                    0 => 0,
                    _ => w.get(i + skip + 1).map_or(0, |next| next << (64 - shift)),
                };
                w[i] = w[i + skip] >> shift | hi;
            }
            w.truncate(keep);
        }
        self.base += n as u64;
        self.len -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(bytes: &[u8], base: u64) -> StructuralIndex {
        let mut idx = StructuralIndex::new();
        idx.append(bytes, base, swar::classify_into);
        idx
    }

    #[test]
    fn positions_round_trip() {
        let mut doc = vec![b'.'; 1100];
        let positions = [0usize, 1, 7, 8, 63, 64, 65, 1000, 1001, 1099];
        for &p in &positions {
            doc[p] = b'<';
        }
        let idx = index_of(&doc, 0);
        assert_eq!(idx.lt.positions().collect::<Vec<_>>(), positions);
        assert_eq!(idx.lt.pending(), positions.len());
        assert_eq!(idx.len(), doc.len());
    }

    #[test]
    fn bases_past_u32_stay_exact() {
        // Positions are span-relative, so a span starting beyond 4 GiB
        // needs nothing special: the base carries the high bits.
        let base = 5 * u64::from(u32::MAX) + 17;
        let mut idx = index_of(b"ab<cd", base);
        idx.append(b"\n<", base + 5, swar::classify_into);
        let abs: Vec<u64> = idx.lt.positions().map(|p| idx.base() + p as u64).collect();
        assert_eq!(abs, [base + 2, base + 6]);
        assert_eq!(idx.nl.next_in(0, idx.len()), Some(5));
    }

    #[test]
    fn next_in_stops_at_range_end() {
        let mut doc = vec![b'x'; 300];
        for p in [2usize, 4, 130, 299] {
            doc[p] = b'&';
        }
        let idx = index_of(&doc, 0);
        assert_eq!(idx.amp.next_in(0, 300), Some(2));
        assert_eq!(idx.amp.next_in(3, 300), Some(4));
        assert_eq!(idx.amp.next_in(5, 130), None, "130 is outside [5, 130)");
        assert_eq!(idx.amp.next_in(5, 131), Some(130));
        assert_eq!(idx.amp.next_in(131, 299), None);
        assert_eq!(idx.amp.next_in(131, 1000), Some(299));
        assert_eq!(idx.amp.next_in(300, 1000), None);
    }

    #[test]
    fn count_in_counts_and_reports_last() {
        let mut doc = vec![b'x'; 200];
        for p in [1usize, 3, 5, 7, 11, 64, 127, 128, 190] {
            doc[p] = b'\n';
        }
        let idx = index_of(&doc, 0);
        assert_eq!(idx.nl.count_in(0, 4), (2, Some(3)));
        assert_eq!(idx.nl.count_in(6, 12), (2, Some(11)));
        assert_eq!(idx.nl.count_in(12, 64), (0, None));
        assert_eq!(idx.nl.count_in(12, 129), (3, Some(128)));
        assert_eq!(idx.nl.count_in(0, 200), (9, Some(190)));
        assert_eq!(idx.nl.count_in(191, 500), (0, None));
        assert_eq!(idx.nl.count_in(7, 7), (0, None));
    }

    #[test]
    fn discard_front_keeps_pending_positions() {
        let mut doc = vec![b'x'; 300];
        for p in [10usize, 20, 70, 140, 260] {
            doc[p] = b'>';
        }
        for n in [0usize, 1, 15, 64, 65, 128, 200, 300] {
            let mut idx = index_of(&doc, 1000);
            idx.discard_front(n);
            let want: Vec<usize> = [10usize, 20, 70, 140, 260]
                .into_iter()
                .filter(|&p| p >= n)
                .map(|p| p - n)
                .collect();
            assert_eq!(idx.gt.positions().collect::<Vec<_>>(), want, "discard {n}");
            assert_eq!((idx.base(), idx.len()), (1000 + n as u64, 300 - n));
            // Appending after a discard continues the span seamlessly.
            idx.append(b"x>", 1300, swar::classify_into);
            assert_eq!(idx.gt.positions().last(), Some(301 - n));
        }
    }
}
