//! AVX2 prescan kernel: one 64-byte block per step on x86_64.
//!
//! Two 32-byte loads per block and one `vpcmpeqb` + `vpmovmskb` pair per
//! byte class per load; the two 32-bit masks concatenate into the block's
//! `u64` lane word. Partial blocks at either end of a sweep are
//! classified by the SWAR kernel (see [`super::index`]), which keeps the
//! two paths trivially consistent at the edges.
//!
//! `unsafe` is confined to this module and the UTF-8 accessor in
//! [`super::buffer`]: the workspace denies it, and only the intrinsic
//! calls here (guarded by runtime feature detection) are exempted.
#![allow(unsafe_code)]

use super::index::StructuralIndex;
use std::arch::x86_64::*;

/// Safe entry point: verifies AVX2 support before touching intrinsics.
pub fn classify_into(body: &[u8], idx: &mut StructuralIndex) {
    assert!(
        is_x86_feature_detected!("avx2"),
        "AVX2 prescan invoked on a host without AVX2"
    );
    // SAFETY: the assert above proves the required target feature is
    // available on this CPU; `classify_impl` has no other preconditions.
    unsafe { classify_impl(body, idx) }
}

/// The 64-bit mask of the bytes of the block `lo ++ hi` equal to any of
/// `needles`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn eq_mask(lo: __m256i, hi: __m256i, needles: &[__m256i]) -> u64 {
    let (mut a, mut b) = (_mm256_setzero_si256(), _mm256_setzero_si256());
    for &n in needles {
        a = _mm256_or_si256(a, _mm256_cmpeq_epi8(lo, n));
        b = _mm256_or_si256(b, _mm256_cmpeq_epi8(hi, n));
    }
    u64::from(_mm256_movemask_epi8(a) as u32) | u64::from(_mm256_movemask_epi8(b) as u32) << 32
}

#[target_feature(enable = "avx2")]
unsafe fn classify_impl(body: &[u8], idx: &mut StructuralIndex) {
    let lt = _mm256_set1_epi8(b'<' as i8);
    let gt = _mm256_set1_epi8(b'>' as i8);
    let dq = _mm256_set1_epi8(b'"' as i8);
    let sq = _mm256_set1_epi8(b'\'' as i8);
    let amp = _mm256_set1_epi8(b'&' as i8);
    let nl = _mm256_set1_epi8(b'\n' as i8);
    for block in body.chunks_exact(64) {
        // SAFETY: `block` is 64 bytes long, loadu has no alignment needs,
        // and this function only runs with AVX2 enabled.
        unsafe {
            let a = _mm256_loadu_si256(block.as_ptr() as *const __m256i);
            let b = _mm256_loadu_si256(block.as_ptr().add(32) as *const __m256i);
            idx.push_block([
                eq_mask(a, b, &[lt]),
                eq_mask(a, b, &[gt]),
                eq_mask(a, b, &[dq, sq]),
                eq_mask(a, b, &[amp]),
                eq_mask(a, b, &[nl]),
            ]);
        }
    }
}
