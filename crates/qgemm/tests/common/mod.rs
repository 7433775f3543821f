//! Helpers shared by the equivalence suites.

use srmac_qgemm::{MacGemm, MacGemmConfig, SimdTier};

/// An engine of `cfg` at `threads` threads for every vector-ISA tier this
/// host supports, each capped with `MacGemm::with_max_tier` — so one host
/// runs the portable, the AVX2 and the AVX-512 kernel bodies, whichever it
/// has.
pub fn tier_engines(cfg: MacGemmConfig, threads: usize) -> Vec<(SimdTier, MacGemm)> {
    SimdTier::supported()
        .into_iter()
        .map(|tier| {
            let engine = MacGemm::new(cfg.with_threads(threads)).with_max_tier(tier);
            (tier, engine)
        })
        .collect()
}
