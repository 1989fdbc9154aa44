//! Equivalence suite for the structural prescan (phase one of the
//! two-phase parser).
//!
//! The contract under test: **every** kernel — AVX2 and portable SWAR —
//! records exactly the positions a per-byte scan finds, for any input
//! bytes, at any absolute base offset, whether the input arrives in one
//! sweep or split across refill-sized pieces. The parser's correctness
//! rests on this: phase two never re-reads bytes the index already
//! classified, so a single missed or phantom position would silently
//! corrupt tag boundaries.

use flux_xml::simd::{available_isas, prescan_with, Isa, StructuralIndex};
use proptest::prelude::*;

/// Per-byte reference: the positions each lane must hold, computed with
/// no kernels at all. Lane order: `<`, `>`, quote, `&`, newline.
fn naive_lanes(bytes: &[u8], base: u64) -> [Vec<u64>; 5] {
    let mut lanes: [Vec<u64>; 5] = Default::default();
    for (i, &b) in bytes.iter().enumerate() {
        let lane = match b {
            b'<' => 0,
            b'>' => 1,
            b'"' | b'\'' => 2,
            b'&' => 3,
            b'\n' => 4,
            _ => continue,
        };
        lanes[lane].push(base + i as u64);
    }
    lanes
}

/// Drains an index built by `isa` into absolute positions per lane.
fn kernel_lanes(isa: Isa, bytes: &[u8], base: u64) -> [Vec<u64>; 5] {
    let mut idx = StructuralIndex::new();
    prescan_with(isa, bytes, base, &mut idx);
    drain(idx)
}

fn drain(idx: StructuralIndex) -> [Vec<u64>; 5] {
    [&idx.lt, &idx.gt, &idx.quote, &idx.amp, &idx.nl]
        .map(|lane| lane.positions().map(|p| idx.base() + p as u64).collect())
}

fn assert_all_kernels_match(bytes: &[u8], base: u64) {
    let want = naive_lanes(bytes, base);
    for isa in available_isas() {
        assert_eq!(
            kernel_lanes(isa, bytes, base),
            want,
            "{isa:?} diverges from the per-byte reference ({} bytes, base {base})",
            bytes.len()
        );
    }
}

#[test]
fn handcrafted_pathological_inputs() {
    let cases: &[&[u8]] = &[
        b"",
        b"<",
        b">",
        b"'",
        b"\n",
        b"&",
        b"plain text with no structure at all",
        b"<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<<",
        b"<>\"'&\n<>\"'&\n<>\"'&\n<>\"'&\n<>\"'&\n<>\"'&\n",
        b"<a href=\"x>y\" alt='p>q'>quoted `>` stays indexed</a>",
        b"<!-- comment full of <fake> tags & ampersands -->",
        b"<![CDATA[raw <b>bytes</b> &amp; more]]>",
        // 31/32/33 bytes straddle the AVX2 step; 7/8/9 the SWAR step.
        b"0123456789012345678901234567890<",
        b"01234567890123456789012345678901<",
        b"012345678901234567890123456789012<",
        b"0123456<",
        b"01234567<",
        b"012345678<",
    ];
    for bytes in cases {
        for base in [0u64, 1, 7, 4096] {
            assert_all_kernels_match(bytes, base);
        }
    }
}

#[test]
fn split_sweeps_concatenate() {
    // The scanner prescans each refill separately into one shared index;
    // any split of the input must build the same lanes as one sweep.
    let doc =
        b"<list>\n  <item id=\"a>b\">text &amp; more</item>\n  <item id='c'>x</item>\n</list>\n";
    for isa in available_isas() {
        let whole = kernel_lanes(isa, doc, 0);
        for split in [1usize, 7, 8, 9, 31, 32, 33, doc.len() - 1] {
            let mut idx = StructuralIndex::new();
            prescan_with(isa, &doc[..split], 0, &mut idx);
            prescan_with(isa, &doc[split..], split as u64, &mut idx);
            assert_eq!(drain(idx), whole, "{isa:?} split at {split}");
        }
    }
}

/// Deterministic byte soup from a seed. With `xmlish`, roughly half the
/// bytes are remapped onto a structure-heavy palette so lane boundaries
/// and dense runs get exercised; otherwise bytes stay uniform.
fn bytes_from_seed(seed: u64, len: usize, xmlish: bool) -> Vec<u8> {
    const PALETTE: &[u8] = b"<<>>\"'&\n<>a b\tc&";
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        for b in next().to_le_bytes() {
            if out.len() == len {
                break;
            }
            if xmlish && b % 2 == 0 {
                out.push(PALETTE[(b as usize / 2) % PALETTE.len()]);
            } else {
                out.push(b);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        ..ProptestConfig::default()
    })]

    /// Arbitrary bytes, arbitrary base: every kernel equals the per-byte
    /// reference.
    #[test]
    fn kernels_match_naive_on_arbitrary_bytes(
        seed in 0u64..u64::MAX,
        len in 0usize..400,
        base in 0u64..1_000_000,
    ) {
        assert_all_kernels_match(&bytes_from_seed(seed, len, false), base);
    }

    /// Structure-dense inputs at misaligned bases.
    #[test]
    fn kernels_match_naive_on_xmlish_bytes(
        seed in 0u64..u64::MAX,
        len in 0usize..600,
        base in 0u64..1_000_000,
    ) {
        assert_all_kernels_match(&bytes_from_seed(seed, len, true), base);
    }

    /// Splitting the sweep at an arbitrary point changes nothing.
    #[test]
    fn arbitrary_splits_concatenate(
        seed in 0u64..u64::MAX,
        len in 1usize..600,
        split_pick in 0usize..600,
    ) {
        let bytes = bytes_from_seed(seed, len, true);
        let split = split_pick % (bytes.len() + 1);
        let want = naive_lanes(&bytes, 0);
        for isa in available_isas() {
            let mut idx = StructuralIndex::new();
            prescan_with(isa, &bytes[..split], 0, &mut idx);
            prescan_with(isa, &bytes[split..], split as u64, &mut idx);
            prop_assert_eq!(&drain(idx), &want, "{:?} split at {}", isa, split);
        }
    }
}
