//! Precomputed product tables: FP8 x FP8 -> accumulator-format encodings,
//! built once per engine from the RTL-verified exact multiplier.

use srmac_core::ExactMultiplier;
use srmac_fp::{ops, FpFormat, RoundMode};

use crate::batch::FastAdderBatch;

/// A dense product lookup table for 8-bit-or-smaller multiplier formats.
///
/// The table is always the full 256 x 256 code plane (inputs are masked to
/// the format during construction), so [`ProductLut::product`] indexes a
/// fixed-size array with a provably in-range `u8`-derived index — the
/// bounds check vanishes from the GEMM inner loop.
#[derive(Debug, Clone)]
pub struct ProductLut {
    fmt_in: FpFormat,
    fmt_out: FpFormat,
    table: Box<[u16; 1 << 16]>,
}

impl ProductLut {
    /// Builds the table. Products are exact when the output format is wide
    /// enough (the paper's configuration); otherwise they are rounded RN
    /// once, which is what a fused multiplier-rounding stage would produce.
    ///
    /// # Panics
    ///
    /// Panics if the input format is wider than 8 bits or the output format
    /// wider than 16.
    #[must_use]
    pub fn build(fmt_in: FpFormat, fmt_out: FpFormat) -> Self {
        assert!(
            fmt_in.bits() <= 8,
            "LUT input format must be at most 8 bits"
        );
        assert!(
            fmt_out.bits() <= 16,
            "LUT output format must be at most 16 bits"
        );
        let code_mask = (1u64 << fmt_in.bits()) - 1;
        let mut table = vec![0u16; 1 << 16];
        let mult = ExactMultiplier::new(fmt_in, fmt_out).ok();
        for a in 0..256u64 {
            for b in 0..256u64 {
                // Out-of-format high bits are masked off, so every index a
                // `u8` pair can form holds the product of valid codes.
                let (am, bm) = (a & code_mask, b & code_mask);
                table[((a as usize) << 8) | b as usize] = match &mult {
                    Some(m) => m.multiply(am, bm) as u16,
                    None => ops::mul(fmt_in, fmt_out, am, bm, RoundMode::NearestEven) as u16,
                };
            }
        }
        #[expect(clippy::expect_used, reason = "table was built with 65536 entries")]
        let table = table.into_boxed_slice().try_into().expect("table is 65536");
        Self {
            fmt_in,
            fmt_out,
            table,
        }
    }

    /// The multiplier input format.
    #[must_use]
    pub fn input_format(&self) -> FpFormat {
        self.fmt_in
    }

    /// The product format.
    #[must_use]
    pub fn output_format(&self) -> FpFormat {
        self.fmt_out
    }

    /// Looks up the product of two input-format encodings.
    #[inline]
    #[must_use]
    pub fn product(&self, a: u8, b: u8) -> u16 {
        self.table[((a as usize) << 8) | b as usize]
    }
}

/// The product-pair decode LUT: the 256 x 256 code plane with every
/// product stored as a pre-decoded `u32` lane word, so the tiled inner
/// loop loads operands ready for [`FastAdderBatch::mac_step`] with no
/// per-element decode at all.
///
/// At 256 KiB it keeps, together with the column-tiled B panel (see
/// `engine.rs`), the whole working set of the hot loop L2-resident. It
/// exists only alongside a [`FastAdderBatch`], i.e. inside the lane-word
/// envelope; formats outside it run the engine's scalar path.
#[derive(Clone)]
pub struct PairLut {
    table: Box<[u32; 1 << 16]>,
}

impl std::fmt::Debug for PairLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairLut").finish_non_exhaustive()
    }
}

impl PairLut {
    /// Decodes every entry of `lut` into a lane word.
    ///
    /// # Panics
    ///
    /// Panics if the LUT's output format and the adder's format disagree.
    #[must_use]
    pub fn build(lut: &ProductLut, batch: &FastAdderBatch) -> Self {
        assert_eq!(
            lut.output_format(),
            batch.format(),
            "pair LUT must share the adder's format"
        );
        let table: Vec<u32> = (0..1usize << 16)
            .map(|i| batch.decode(u64::from(lut.product((i >> 8) as u8, i as u8))))
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "the collect above produced exactly 65536 entries"
        )]
        let table = table.into_boxed_slice().try_into().expect("table is 65536");
        Self { table }
    }

    /// The full 256 x 256 table, indexed `(ca << 8) | cb` — the raw form
    /// the vector gather kernel addresses directly.
    #[inline]
    #[must_use]
    pub(crate) fn table(&self) -> &[u32; 1 << 16] {
        &self.table
    }

    /// The 256-entry decoded product row for left code `ca`.
    #[inline]
    #[must_use]
    pub fn row(&self, ca: u8) -> &[u32; 256] {
        let start = (ca as usize) << 8;
        #[expect(
            clippy::expect_used,
            reason = "start + 256 <= 65536 for any u8 row index"
        )]
        let row = self.table[start..start + 256]
            .try_into()
            .expect("row is 256");
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastmath::AccumRounding;

    #[test]
    fn pair_lut_entries_match_narrow_decode_of_products() {
        let fin = FpFormat::e5m2();
        let fout = FpFormat::e6m5();
        let lut = ProductLut::build(fin, fout);
        for mode in [AccumRounding::Nearest, AccumRounding::Stochastic { r: 13 }] {
            let batch = FastAdderBatch::new(fout, mode).expect("e6m5 fits the lane word");
            let plut = PairLut::build(&lut, &batch);
            for a in 0..=255u8 {
                let row = plut.row(a);
                for b in 0..=255u8 {
                    let enc = u64::from(lut.product(a, b));
                    assert_eq!(row[b as usize], batch.decode(enc), "{a:#x}*{b:#x}");
                    // And the lane word is faithful: re-encoding gives
                    // back the product encoding.
                    assert_eq!(batch.encode(row[b as usize]), enc, "{a:#x}*{b:#x}");
                }
            }
        }
    }

    #[test]
    fn pair_lut_is_gated_by_the_narrow_envelope() {
        // E5M10 at SR13 needs p + f = 11 + 28 bits: over the u32 budget,
        // so no lane adder exists to build a pair LUT for, and the engine
        // runs its scalar path (see `tests/tiled_kernel.rs`). Under RN the
        // same accumulator fits.
        let fout = FpFormat::e5m10();
        assert!(FastAdderBatch::new(fout, AccumRounding::Stochastic { r: 13 }).is_none());
        assert!(FastAdderBatch::new(fout, AccumRounding::Nearest).is_some());
    }

    #[test]
    fn lut_matches_multiplier_exhaustively() {
        let fin = FpFormat::e5m2();
        let fout = FpFormat::e6m5();
        let lut = ProductLut::build(fin, fout);
        let m = ExactMultiplier::new(fin, fout).unwrap();
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                assert_eq!(
                    u64::from(lut.product(a as u8, b as u8)),
                    m.multiply(u64::from(a), u64::from(b))
                );
            }
        }
    }

    #[test]
    fn lut_rounds_when_output_is_narrow() {
        // E5M2 products into FP16 (E5M10): representable except for deep
        // underflow; the table must match the golden RN multiplication.
        let fin = FpFormat::e5m2();
        let fout = FpFormat::e5m10();
        let lut = ProductLut::build(fin, fout);
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                let want = ops::mul(
                    fin,
                    fout,
                    u64::from(a),
                    u64::from(b),
                    RoundMode::NearestEven,
                );
                assert_eq!(u64::from(lut.product(a as u8, b as u8)), want);
            }
        }
    }
}
