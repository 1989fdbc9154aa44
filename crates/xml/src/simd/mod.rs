//! Phase one of the two-phase parser: the vectorised structural prescan.
//!
//! The prescan sweeps input bytes exactly once — as they arrive in the
//! scanner's refill path — and records the positions of the five byte
//! classes that determine XML structure (`<`, `>`, `"`/`'`, `&`, `\n`)
//! into a [`StructuralIndex`] of delta-encoded lanes. Phase two (the
//! scanner and reader) then hops structure-to-structure through the index
//! instead of inspecting bytes one at a time: text runs jump straight to
//! the next `<`, tag ends are found by walking `>` candidates against the
//! quote lane's parity (a `>` inside a quoted attribute value is not a tag
//! end), escape checks consult the `&` lane, and line/column accounting
//! folds into the newline lane instead of re-counting every consumed span.
//!
//! # Kernel dispatch
//!
//! Two kernels produce byte-identical indices:
//!
//! * **AVX2** (x86_64, runtime-detected) — 32 bytes per step;
//! * **SWAR** (portable `u64`, reusing the [`crate::scan`] zero-byte
//!   mask) — 8 bytes per step, always available, and the kernel every
//!   other architecture runs.
//!
//! The active kernel is chosen once per process ([`active_isa`]) and can
//! be overridden for CI and A/B testing:
//!
//! * `FLUX_FORCE_SWAR=1` — pin the portable fallback;
//! * `FLUX_FORCE_ISA=swar|avx2` — pin a specific kernel (panics
//!   with a clear message if the host cannot run it).

mod index;
pub(crate) mod swar;

#[cfg(target_arch = "x86_64")]
mod avx2;

pub use index::{Class, DeltaLane, LaneCursor, StructuralIndex};

use std::sync::OnceLock;

/// The instruction-set architectures the prescan can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// AVX2 vectors, 32 bytes per step (x86_64 only).
    Avx2,
    /// Portable `u64` SWAR, 8 bytes per step (everywhere).
    Swar,
}

impl Isa {
    /// Stable name for run reports and benchmark metadata.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx2 => "avx2",
            Isa::Swar => "swar-fallback",
        }
    }

    /// Whether this host can execute the kernel.
    pub fn available(self) -> bool {
        match self {
            Isa::Swar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

static ACTIVE: OnceLock<Isa> = OnceLock::new();

/// The kernel every prescan in this process uses. Detected once, then
/// cached; honours `FLUX_FORCE_SWAR` / `FLUX_FORCE_ISA`.
pub fn active_isa() -> Isa {
    *ACTIVE.get_or_init(detect)
}

/// [`Isa::name`] of [`active_isa`] — the string surfaced in run reports
/// (the scanner's `isa` note) and `fluxbench` output.
pub fn active_isa_name() -> &'static str {
    active_isa().name()
}

fn detect() -> Isa {
    if std::env::var_os("FLUX_FORCE_SWAR").is_some_and(|v| v == "1") {
        return Isa::Swar;
    }
    if let Ok(forced) = std::env::var("FLUX_FORCE_ISA") {
        let isa = match forced.as_str() {
            "swar" => Isa::Swar,
            "avx2" => Isa::Avx2,
            other => panic!("FLUX_FORCE_ISA={other}: expected swar or avx2"),
        };
        assert!(
            isa.available(),
            "FLUX_FORCE_ISA={forced}: this host cannot run the {forced} kernel"
        );
        return isa;
    }
    if Isa::Avx2.available() {
        return Isa::Avx2;
    }
    Isa::Swar
}

/// Every kernel this host can run — the equivalence tests compare each
/// against the SWAR reference in-process (the cached [`active_isa`] would
/// otherwise pin a whole test binary to one arm).
pub fn available_isas() -> Vec<Isa> {
    [Isa::Avx2, Isa::Swar]
        .into_iter()
        .filter(|isa| isa.available())
        .collect()
}

/// Sweeps `bytes` (whose first byte sits at absolute input offset
/// `base_abs`) with the active kernel, appending every structural
/// position to `idx`.
#[inline]
pub fn prescan_into(bytes: &[u8], base_abs: u64, idx: &mut StructuralIndex) {
    prescan_with(active_isa(), bytes, base_abs, idx)
}

/// [`prescan_into`] with an explicit kernel (must be [`Isa::available`]).
pub fn prescan_with(isa: Isa, bytes: &[u8], base_abs: u64, idx: &mut StructuralIndex) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => avx2::prescan(bytes, base_abs, idx),
        _ => swar::prescan(bytes, base_abs, idx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_isa_is_available_and_named() {
        let isa = active_isa();
        assert!(isa.available());
        assert!(["avx2", "swar-fallback"].contains(&active_isa_name()));
    }

    #[test]
    fn swar_is_always_listed() {
        assert!(available_isas().contains(&Isa::Swar));
    }

    fn lanes(isa: Isa, bytes: &[u8], base: u64) -> [Vec<u64>; 5] {
        let mut idx = StructuralIndex::new();
        prescan_with(isa, bytes, base, &mut idx);
        [
            std::iter::from_fn(|| idx.lt.pop()).collect(),
            std::iter::from_fn(|| idx.gt.pop()).collect(),
            std::iter::from_fn(|| idx.quote.pop()).collect(),
            std::iter::from_fn(|| idx.amp.pop()).collect(),
            std::iter::from_fn(|| idx.nl.pop()).collect(),
        ]
    }

    #[test]
    fn every_available_kernel_matches_swar() {
        let doc: Vec<u8> = b"<item key=\"v>al\" alt='&#38;'>line\n&amp;</item>"
            .iter()
            .copied()
            .cycle()
            .take(40 * 47)
            .collect();
        // Misaligned bases and non-multiple lengths exercise the tails.
        for (start, base) in [(0usize, 0u64), (3, 17), (7, 8 * 1024)] {
            let window = &doc[start..];
            let want = lanes(Isa::Swar, window, base);
            for isa in available_isas() {
                assert_eq!(lanes(isa, window, base), want, "{isa:?} diverges from SWAR");
            }
        }
    }
}
