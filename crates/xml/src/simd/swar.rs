//! Portable prescan kernel: `u64` SWAR, eight bytes per step.
//!
//! This is the dispatch fallback, the kernel that classifies the
//! zero-padded partial blocks at either end of every sweep, and the
//! reference the vectorised kernels are tested against. It reuses the
//! carry-free zero-byte mask from [`crate::scan`] — one XOR + mask pair per
//! byte class per word — and gathers each word's eight match flags into
//! eight mask bits with one multiply.

use super::index::{BlockMasks, StructuralIndex};
use crate::scan::{broadcast, zero_byte_mask};

/// The eight flags of a zero-byte mask (bit 7 of each matching byte) as
/// the low eight bits, byte 0 first. The multiply moves flag `i` to bit
/// `56 + i`; every other partial product lands on a distinct bit outside
/// the top byte, so nothing carries into it.
#[inline]
fn gather(mask: u64) -> u64 {
    ((mask >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

/// The five class masks of one 64-byte block.
#[inline]
pub(crate) fn classify(block: &[u8; 64]) -> BlockMasks {
    let (lt, gt, dq, sq, amp, nl) = (
        broadcast(b'<'),
        broadcast(b'>'),
        broadcast(b'"'),
        broadcast(b'\''),
        broadcast(b'&'),
        broadcast(b'\n'),
    );
    let mut masks = [0u64; 5];
    for (i, chunk) in block.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let classes = [
            zero_byte_mask(word ^ lt),
            zero_byte_mask(word ^ gt),
            zero_byte_mask(word ^ dq) | zero_byte_mask(word ^ sq),
            zero_byte_mask(word ^ amp),
            zero_byte_mask(word ^ nl),
        ];
        for (mask, class) in masks.iter_mut().zip(classes) {
            *mask |= gather(class) << (8 * i);
        }
    }
    masks
}

/// Classifies whole 64-byte blocks into `idx`.
pub(crate) fn classify_into(body: &[u8], idx: &mut StructuralIndex) {
    for block in body.chunks_exact(64) {
        idx.push_block(classify(block.try_into().expect("64-byte block")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: classify byte-at-a-time.
    fn naive(bytes: &[u8]) -> [Vec<usize>; 5] {
        let mut lanes: [Vec<usize>; 5] = Default::default();
        for (i, &b) in bytes.iter().enumerate() {
            let lane = match b {
                b'<' => 0,
                b'>' => 1,
                b'"' | b'\'' => 2,
                b'&' => 3,
                b'\n' => 4,
                _ => continue,
            };
            lanes[lane].push(i);
        }
        lanes
    }

    fn lanes(idx: &StructuralIndex) -> [Vec<usize>; 5] {
        [&idx.lt, &idx.gt, &idx.quote, &idx.amp, &idx.nl].map(|l| l.positions().collect())
    }

    fn sweep(idx: &mut StructuralIndex, bytes: &[u8], base: u64) {
        idx.append(bytes, base, classify_into);
    }

    #[test]
    fn matches_naive_classification() {
        let long = "<a b=\"x>y\" c='&'>\ntext &amp; more\n</a>".repeat(5);
        let cases: &[&[u8]] = &[
            b"",
            b"<",
            b"<a b=\"x>y\" c='&'>\ntext &amp; more\n</a>",
            long.as_bytes(),
            b"no structure at all, just plain text padding out the words",
            b"<<<<>>>>\"\"''&&\n\n",
            "grüße <tag attr=\"\u{1F4A1}\">".as_bytes(),
        ];
        for case in cases {
            for base in [0u64, 7, 8 * 1024] {
                let mut got = StructuralIndex::new();
                sweep(&mut got, case, base);
                assert_eq!(lanes(&got), naive(case));
                assert_eq!(got.base(), base);
            }
        }
    }

    #[test]
    fn incremental_prescan_equals_one_shot() {
        // The scanner feeds the prescan refill-sized pieces; splitting at
        // arbitrary points must not change the recorded positions.
        let doc = b"<books>\n  <book id=\"1\" title='a>b'>&lt;text</book>\n</books>".repeat(3);
        for split in 0..doc.len() {
            let mut got = StructuralIndex::new();
            sweep(&mut got, &doc[..split], 0);
            sweep(&mut got, &doc[split..], split as u64);
            assert_eq!(lanes(&got), naive(&doc), "split at {split}");
        }
    }
}
