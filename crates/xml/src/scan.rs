//! Word-at-a-time (SWAR) byte scanning primitives.
//!
//! The scanner's hot loops — text runs (`read_while(|b| b != b'<')`) and
//! delimiter searches (`read_until`) — reduce to "find one byte value in a
//! window" (position accounting does not: newlines are counted on the
//! structural index's newline lane). These helpers do that eight bytes at a
//! time with plain `u64` arithmetic (no `unsafe`, no platform intrinsics),
//! using the carry-free zero-byte mask so matches are exact:
//! `(x & !HI) + !HI` cannot carry across lanes, which the classic `x - LO`
//! trick cannot guarantee.
//!
//! The shard splitter (`flux_shard`) reuses [`find_byte`] to hop from `<`
//! to `<` when choosing chunk boundaries, so the same kernel serves both
//! the sequential hot path and the parallel pipeline.

const HI: u64 = 0x8080_8080_8080_8080;
const LO: u64 = 0x0101_0101_0101_0101;

/// A mask with `0x80` in every lane whose byte in `x` is zero, and `0x00`
/// in every other lane. Exact: the per-lane addition cannot carry into the
/// next lane, so neighbouring zero bytes never produce false positives.
#[inline]
pub(crate) fn zero_byte_mask(x: u64) -> u64 {
    !(((x & !HI).wrapping_add(!HI)) | x | !HI)
}

/// Broadcasts `b` to all eight lanes.
#[inline]
pub(crate) fn broadcast(b: u8) -> u64 {
    LO.wrapping_mul(b as u64)
}

/// Index of the first occurrence of `needle` in `haystack`.
///
/// Equivalent to `haystack.iter().position(|&b| b == needle)`, eight bytes
/// per step.
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let pat = broadcast(needle);
    let mut chunks = haystack.chunks_exact(8);
    let mut offset = 0usize;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let mask = zero_byte_mask(word ^ pat);
        if mask != 0 {
            return Some(offset + (mask.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| offset + i)
}

/// Index of the first occurrence of `needle` in `haystack`, for multi-byte
/// needles: hops between first-byte candidates with [`find_byte`] and
/// verifies the remainder at each. Shared by the scanner's `read_until`
/// and the shard splitter's construct skipping.
#[inline]
pub fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    debug_assert!(!needle.is_empty());
    let mut i = 0;
    while i + needle.len() <= haystack.len() {
        // Candidates must leave room for the whole needle.
        match find_byte(&haystack[i..=haystack.len() - needle.len()], needle[0]) {
            Some(at) => {
                let cand = i + at;
                if &haystack[cand..cand + needle.len()] == needle {
                    return Some(cand);
                }
                i = cand + 1;
            }
            None => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_byte_matches_naive() {
        let cases: &[&[u8]] = &[
            b"",
            b"<",
            b"abc",
            b"abc<def",
            b"<<<<",
            b"aaaaaaaaaaaaaaaa<",
            b"aaaaaaa<aaaaaaaa<",
            b"exactly8",
            b"exactly8<",
        ];
        for hay in cases {
            for needle in [b'<', b'a', b'z', 0u8, 0xFF] {
                assert_eq!(
                    find_byte(hay, needle),
                    hay.iter().position(|&b| b == needle),
                    "haystack {hay:?} needle {needle}"
                );
            }
        }
    }

    #[test]
    fn find_byte_handles_high_bytes() {
        // 0x80 and multi-byte UTF-8 lanes must not confuse the mask.
        let hay = "grüße 💡 <tag".as_bytes();
        assert_eq!(find_byte(hay, b'<'), hay.iter().position(|&b| b == b'<'));
        assert_eq!(find_byte(hay, 0x80), hay.iter().position(|&b| b == 0x80));
    }

    #[test]
    fn find_subslice_matches_naive() {
        let hay = b"xx-->x--->x-->";
        for needle in [b"-->".as_slice(), b"--->", b"x", b"zz", b"xx-->x--->x-->"] {
            let naive = hay
                .windows(needle.len())
                .position(|w| w == needle)
                .filter(|_| needle.len() <= hay.len());
            assert_eq!(find_subslice(hay, needle), naive, "needle {needle:?}");
        }
        assert_eq!(find_subslice(b"ab", b"abc"), None, "needle longer than hay");
        assert_eq!(find_subslice(b"", b"a"), None);
    }

    #[test]
    fn exhaustive_small_windows() {
        // Every placement of the needle in windows up to 3 words long.
        for len in 0..24 {
            for at in 0..len {
                let mut v = vec![b'x'; len];
                v[at] = b'<';
                assert_eq!(find_byte(&v, b'<'), Some(at), "len {len} at {at}");
            }
            let v = vec![b'x'; len];
            assert_eq!(find_byte(&v, b'<'), None);
        }
    }
}
