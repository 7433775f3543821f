//! The lane-batched MAC adder: [`FastAdder`]'s algebra applied to `L`
//! independent accumulation lanes at once, branch-free.
//!
//! # Why lanes, and why this is bit-exact
//!
//! The paper's MAC is a parallel datapath — one aligned add per product
//! per cycle — while the scalar emulation walks one add at a time through
//! a chain of data-dependent branches (operand swap, alignment, sticky,
//! round-up, carry) that mispredict constantly. This module restores the
//! parallel shape in software: `L` output columns of the same GEMM row
//! are accumulated side by side, every select expressed as SWAR mask
//! arithmetic (`(t & m) | (e & !m)` blends over `u32` lane words), so the
//! whole step is straight-line code the CPU can overlap across lanes.
//!
//! Vectorizing *across columns* never touches correctness: each output
//! element's adds stay in `k` order and its SR stream (position-seeded by
//! `(seed, row, column)`) is consumed identically — lanes only change
//! *when* independent elements are computed, never *what* each one
//! computes. The exhaustive `narrow_add_vs_scalar` test below pins this
//! down code-for-code against [`FastAdder`].
//!
//! # The decoded lane word
//!
//! Between adds a lane's accumulator never round-trips through the packed
//! encoding: it stays in a *decoded* `u32` word holding the ULP-anchored
//! significand and exponent the adder algebra actually works on —
//! re-encoding after one add and re-decoding at the next would be pure
//! overhead. The layout:
//!
//! ```text
//! bit 31      sign (1 = negative)
//! bit 30      special (infinity / NaN)
//! bit 29      draws (the packed encoding has non-zero magnitude, i.e.
//!             this value consumes an SR word as a product)
//! bits 16..29 exponent field: ULP exponent minus `qmin` (zero for
//!             subnormals and zeros)
//! bits  0..16 ULP-anchored significand (implicit bit explicit), or the
//!             raw encoding verbatim for special words
//! ```
//!
//! The low 29 bits form a *magnitude key*: for canonical finite words,
//! unsigned comparison of keys is exactly magnitude comparison (the
//! exponent field sits above the significand), and a zero key means a
//! zero value. That makes the operand swap, the zero tests and the
//! alignment distance all plain integer arithmetic on one word.
//!
//! Special values (exponent field all ones) are rare in training — they
//! only appear on accumulator overflow or NaN inputs — and fall back to
//! the scalar adder per lane, preserving golden special semantics.
//!
//! # The envelope
//!
//! The algebra fits the word when `AdderSpec::fits_narrow` holds: the
//! pre-shifted significand sum needs `p + f + 1 <= 32` bits, the exponent
//! field 13 bits and the raw encoding 16. That is true for every RN
//! accumulator the engine accepts and for the paper's E6M5 accumulator at
//! every SR `r` up to 15. [`FastAdderBatch::new`] returns `None` outside
//! it (e.g. E5M10 at SR13), and the engine then runs the scalar
//! [`FastAdder`] loop over the same compaction and panel.

use srmac_fp::FpFormat;

use crate::fastmath::{AccumRounding, AdderSpec, FastAdder};

/// Sign bit of a decoded lane word.
pub const LANE_SIGN: u32 = 1 << 31;
/// Special marker (infinity/NaN) of a decoded lane word; the raw encoding
/// sits in bits 0..16.
pub const LANE_SPECIAL: u32 = 1 << 30;
/// Draw marker: the encoded value has non-zero magnitude, so as a product
/// it consumes one SR rounding word (the zero-skip rule's complement).
pub const LANE_DRAWS: u32 = 1 << 29;
/// Magnitude-comparison key: exponent field + significand (+ the raw
/// encoding bits of special words, which never take part in comparisons
/// but must keep the key non-zero).
pub const LANE_KEY: u32 = (1 << 29) - 1;

const EF_SHIFT: u32 = 16;

/// Branch-free select: `t` where `c`, else `e`.
#[inline(always)]
fn sel(c: bool, t: u32, e: u32) -> u32 {
    let m = (c as u32).wrapping_neg();
    (t & m) | (e & !m)
}

/// A lane-batched fixed-format floating-point adder: the same algebra as
/// [`FastAdder`] (they share one `AdderSpec`), evaluated over `L`
/// decoded lane words at once with every select a SWAR mask blend.
///
/// The portable SWAR code is written to auto-vectorize; the engine
/// invokes it through runtime-detected `#[target_feature]` wrappers (see
/// `SimdTier` in `engine.rs`), so stock builds get AVX2 codegen of this
/// exact code with no special compiler flags, and AVX-512 hosts run its
/// explicit rendition in `z16`. The exhaustive equivalence tests pin
/// it against the scalar [`FastAdder`].
#[derive(Clone, Copy, Debug)]
pub struct FastAdderBatch {
    spec: AdderSpec,
    scalar: FastAdder,
    /// Stochastic (`true`) or round-to-nearest-even (`false`).
    sr: bool,
    /// `1 << (p - 1)`: smallest normalized significand.
    half: u32,
    /// Largest representable exponent field (`emax - (p - 1) - qmin`).
    ef_max: i32,
    /// Exponent field of an infinity encoding, pre-shifted.
    inf_exp: u32,
    /// Sign-bit position of the packed encoding.
    enc_sign_shift: u32,
}

impl FastAdderBatch {
    /// Creates the batch adder, or `None` when the algebra does not fit
    /// the `u32` lane word (`AdderSpec::fits_narrow`). True for the
    /// paper's E6M5 accumulator under RN and every SR `r <= 15`; false
    /// e.g. for an E5M10 accumulator at SR13.
    ///
    /// # Panics
    ///
    /// Panics if the format or `r` exceeds the fast-path envelope of
    /// [`FastAdder::new`].
    #[must_use]
    pub fn new(fmt: FpFormat, mode: AccumRounding) -> Option<Self> {
        let scalar = FastAdder::new(fmt, mode);
        let spec = *scalar.spec();
        spec.fits_narrow().then(|| Self {
            spec,
            scalar,
            sr: matches!(mode, AccumRounding::Stochastic { .. }),
            half: 1 << (spec.p - 1),
            ef_max: spec.emax - (spec.p as i32 - 1) - spec.qmin,
            inf_exp: (spec.emask << spec.mbits) as u32,
            enc_sign_shift: fmt.bits() - 1,
        })
    }

    /// The format this adder operates on.
    #[must_use]
    pub fn format(&self) -> FpFormat {
        self.spec.fmt
    }

    /// Decodes a packed encoding into a lane word.
    ///
    /// Finite values become canonical decoded words; special encodings
    /// (exponent field all ones) are carried verbatim behind
    /// [`LANE_SPECIAL`]. With subnormals disabled, pseudo-subnormal
    /// encodings (`e == 0, m != 0`) decode — like everywhere else in the
    /// stack — to a zero word, though they keep their [`LANE_DRAWS`] bit
    /// (the scalar GEMM loop draws a rounding word for any non-zero
    /// *encoded* magnitude before discovering the value is zero).
    #[must_use]
    pub fn decode(&self, enc: u64) -> u32 {
        let spec = &self.spec;
        let e = (enc >> spec.mbits) & spec.emask;
        let m = enc & spec.mmask;
        let sign = ((enc >> self.enc_sign_shift) & 1) as u32;
        let draws = sel(enc & spec.magmask != 0, LANE_DRAWS, 0);
        if e == spec.emask {
            return LANE_SPECIAL | draws | (enc & 0xFFFF) as u32;
        }
        if e == 0 && (m == 0 || !spec.sub) {
            return (sign << 31) | draws;
        }
        let norm = u64::from(e != 0);
        let sig = (m | (norm << spec.mbits)) as u32;
        // ULP exponent minus qmin: `e - 1` for normals (qmin = emin - mbits
        // and the bias arithmetic cancel), 0 for subnormals (e == 0).
        let ef = e.saturating_sub(1) as u32;
        (sign << 31) | draws | (ef << EF_SHIFT) | sig
    }

    /// Encodes a lane word back into the packed format. Inverse of
    /// [`FastAdderBatch::decode`] on canonical words; special words return
    /// their carried encoding verbatim.
    #[must_use]
    pub fn encode(&self, w: u32) -> u64 {
        let spec = &self.spec;
        if w & LANE_SPECIAL != 0 {
            return u64::from(w) & srmac_fp::mask(spec.fmt.bits());
        }
        let sbit = u64::from(w >> 31) << self.enc_sign_shift;
        let sig = w & 0xFFFF;
        let ef = u64::from((w >> EF_SHIFT) & 0x1FFF);
        if sig < self.half {
            // Zero or subnormal: the exponent field of the encoding is 0.
            debug_assert!(ef == 0, "subnormal lane words sit at the qmin exponent");
            return sbit | u64::from(sig);
        }
        sbit | ((ef + 1) << spec.mbits) | (u64::from(sig) & spec.mmask)
    }

    /// One MAC accumulation step over `L` lanes: `acc[l] += prod[l]` in
    /// the adder's rounding semantics, with the GEMM zero-skip rule
    /// applied per lane — a zero-magnitude product leaves its accumulator
    /// word (sign of zero included) completely untouched, exactly as the
    /// scalar loop's `is_zero_prod` skip does.
    ///
    /// `words[l]` is lane `l`'s SR rounding word (ignored under RN); the
    /// caller advances each lane's stream only when [`LANE_DRAWS`] is set
    /// on the product, which keeps the per-element SR streams identical
    /// to the scalar path. Only the low `r` bits of a word matter, so
    /// truncating it into the `u32` arithmetic is exact.
    ///
    /// `inline(always)`: the caller's accumulation loop must keep `acc`
    /// in (vector) registers across `k` steps; an out-of-line call here
    /// forces a full spill/reload of every lane per step.
    #[inline(always)]
    pub fn mac_step<const L: usize>(&self, acc: &mut [u32; L], prods: &[u32; L], words: &[u64; L]) {
        let mut special = 0u32;
        for l in 0..L {
            special |= acc[l] | prods[l];
        }
        let mut res = [0u32; L];
        for l in 0..L {
            res[l] = self.add_core(acc[l], prods[l], words[l] as u32);
        }
        if special & LANE_SPECIAL != 0 {
            self.fixup_specials(acc, prods, words, &mut res);
        }
        for l in 0..L {
            // Zero-skip: only non-zero-magnitude products commit.
            acc[l] = sel(prods[l] & LANE_KEY != 0, res[l], acc[l]);
        }
    }

    /// Adds `L` pairs of packed encodings with their rounding words —
    /// the encoding-level API, bit-identical lane by lane to
    /// [`FastAdder::add`] (the equivalence the exhaustive tests assert).
    #[must_use]
    pub fn add<const L: usize>(&self, a: &[u64; L], b: &[u64; L], words: &[u64; L]) -> [u64; L] {
        let mut out = [0u64; L];
        for l in 0..L {
            let aw = self.decode(a[l]);
            let bw = self.decode(b[l]);
            out[l] = if (aw | bw) & LANE_SPECIAL != 0 {
                self.scalar.add(a[l], b[l], words[l])
            } else {
                self.encode(self.add_core(aw, bw, words[l] as u32))
            };
        }
        out
    }

    /// Scalar repair of the rare special lanes of a [`FastAdderBatch::mac_step`].
    #[cold]
    fn fixup_specials<const L: usize>(
        &self,
        acc: &[u32; L],
        prods: &[u32; L],
        words: &[u64; L],
        res: &mut [u32; L],
    ) {
        for l in 0..L {
            if (acc[l] | prods[l]) & LANE_SPECIAL != 0 {
                let enc = self
                    .scalar
                    .add(self.encode(acc[l]), self.encode(prods[l]), words[l]);
                res[l] = self.decode(enc);
            }
        }
    }

    /// The branch-free core: adds two *finite* decoded lane words under
    /// the adder's rounding mode. Special words must be handled by the
    /// caller (the result for them is garbage, never a panic). This is
    /// the exact algebra of [`FastAdder::add`] + `round_pack` with every
    /// branch replaced by a mask blend and every variable shift clamped
    /// at 31, which is exact under the envelope (`p + f <= 31`, so
    /// pre-shifted significands never reach bit 31 and the sum never
    /// wraps).
    #[inline(always)]
    fn add_core(&self, aw: u32, bw: u32, word: u32) -> u32 {
        let spec = &self.spec;
        let f = spec.f;
        let p = spec.p;

        // Operand swap on the magnitude key (ties keep `a`, matching the
        // scalar `bmag > amag` strict compare).
        let akey = aw & LANE_KEY;
        let bkey = bw & LANE_KEY;
        let sm = ((bkey > akey) as u32).wrapping_neg();
        let hi = aw ^ ((aw ^ bw) & sm);
        let lo = aw ^ bw ^ hi;
        let sign_hi = hi >> 31;
        let sign_lo = lo >> 31;
        let ef_hi = (hi >> EF_SHIFT) & 0x1FFF;
        let ef_lo = (lo >> EF_SHIFT) & 0x1FFF;
        let sig_hi = hi & 0xFFFF;
        let sig_lo = lo & 0xFFFF;

        // Alignment. `sig_lo << f >> d` with the shifted-out tail as the
        // sticky `sigma`; the clamp at 31 is exact because
        // `yb < 2^(p+f) <= 2^31`.
        let d = (ef_hi - ef_lo).min(31);
        let yb = sig_lo << f;
        let y = yb >> d;
        let sigma = u32::from(yb & ((1u32 << d) - 1) != 0);
        let x = sig_hi << f;

        // Branch-free effective subtraction (see `FastAdder::add`):
        // `x - y - sigma == x + !y + (1 - sigma)` in two's complement.
        // `x + y < 2^(p+f+1) <= 2^32` never wraps on the addition side.
        let sub_eff = sign_hi ^ sign_lo;
        let subm = sub_eff.wrapping_neg();
        let s = x.wrapping_add(y ^ subm).wrapping_add(subm & (1 - sigma));
        let ones = sub_eff & sigma;
        let extra_sticky = (1 - sub_eff) & sigma;

        // Round `(-1)^sign_hi * s * 2^(q_hi - f)` into the format — the
        // `round_pack` algebra on exponent *fields* (qmin-relative), with
        // both the exact and the rounding path computed and blended.
        // `s | 1` keeps `leading_zeros` defined for the cancellation case
        // (selected to +0 below).
        let msb = 31 - (s | 1).leading_zeros() as i32;
        let drop0 = msb - (p - 1) as i32;
        let drop = if spec.sub {
            // The qmin clamp: never round below the subnormal quantum.
            drop0.max(f as i32 - ef_hi as i32)
        } else {
            drop0
        };

        // Exact path (drop <= 0): left-justify; no rounding.
        let shl = (-drop).max(0) as u32;
        let kept_e = s << shl;

        // Rounding path (drop >= 1): split kept/tail and decide the
        // round-up. Shift amounts are clamped so the unselected path
        // never overshifts.
        let dr = drop.clamp(1, 31) as u32;
        let kept_r = s >> dr;
        let tail = s & ((1u32 << dr) - 1);
        let up = if self.sr {
            // Scale the dropped tail to `r` bits; a borrowed trail of
            // ones (`ones`) fills the upshifted low bits.
            let r = spec.r;
            let rs_dn = dr.saturating_sub(r);
            let rs_up = r.saturating_sub(dr);
            let t_hi = tail >> rs_dn;
            let t_lo = (tail << rs_up) | (ones.wrapping_neg() & ((1u32 << rs_up) - 1));
            let t = sel(dr >= r, t_hi, t_lo);
            (t + (word & spec.rmask as u32)) >> r
        } else {
            // RN-even, branch-free (the same fix as the scalar adder).
            let guard = (tail >> (dr - 1)) & 1;
            let rest = u32::from(tail & ((1u32 << (dr - 1)) - 1) != 0) | ones | extra_sticky;
            guard & (rest | kept_r) & 1
        };

        let is_round = drop > 0;
        let mut kept = sel(is_round, kept_r, kept_e) + sel(is_round, up, 0);
        let carry = kept >> p; // 1 iff kept reached 1 << p
        kept >>= carry;
        // Output exponent field: q - qmin = drop + ef_hi - f (+ carry).
        let ef_out = drop + ef_hi as i32 - f as i32 + carry as i32;

        // Assemble, then apply the packing special cases lowest-precedence
        // first so each later select overrides the ones before it.
        let zero_w = sign_hi << 31;
        let natural = zero_w | ((ef_out as u32 & 0x1FFF) << EF_SHIFT) | kept;
        let inf_enc = (sign_hi << self.enc_sign_shift) | self.inf_exp;
        let inf_w = LANE_SPECIAL | LANE_DRAWS | inf_enc;
        let mut w = natural;
        w = sel(ef_out < 0, zero_w, w); // below emin: flush (!sub only)
        w = sel(ef_out > self.ef_max, inf_w, w); // overflow -> infinity
        if !spec.sub {
            w = sel(kept < self.half, zero_w, w); // subnormal range: flush
        }
        w = sel(kept == 0, zero_w, w); // everything rounded away
        w = sel(s == 0, 0, w); // exact cancellation -> +0
        w = sel(bkey == 0, aw, w); // zero operands pass the other
        w = sel(akey == 0, bw, w); //   through unchanged...
        w = sel((akey | bkey) == 0, aw & bw & LANE_SIGN, w); // ...except -0 + -0
        w
    }
}

/// The explicit AVX-512 rendition of the lane kernel: 16 u32 lanes per
/// `zmm`, the full dot-product loop in one function so the accumulator
/// vector provably stays in a register across every `k` step (the
/// property the auto-vectorized array loops cannot guarantee — their
/// 64-lane state round-trips through the stack each step).
///
/// This *is* the default fast path on AVX-512 hardware: the engine's
/// runtime tier dispatch (`SimdTier::detect`) routes 64-wide panel
/// blocks here in chunks of 16 columns. Everything is a 1:1 translation
/// of [`FastAdderBatch::add_core`] — same variable names, same
/// clamping, same select order — plus the draw/zero-skip/special
/// semantics of `mac_step`, and the randomized cross-check in this
/// module's tests pins it lane-for-lane against those scalar-verified
/// kernels. Special lanes take the same `#[cold]` scalar fixup.
///
/// Masked compares/blends replace the SWAR `sel` ladders; the
/// pointer-based operations are the product gather, whose indices are
/// zero-extended bytes into the 65536-entry pair table (in-bounds by
/// construction), the write-back's decode gather, whose indices are
/// masked below the table size, and loads and stores of whole or masked
/// 16-lane groups of bounds-checked slices.
///
/// The module also holds the two per-element loops around the kernel:
/// the block write-back (`write_back`: `encode` plus the decode
/// table lookup, 16 lanes per step) and the CSR row compaction of
/// `pack_a` (`compact_row`).
#[cfg(target_arch = "x86_64")]
pub(crate) mod z16 {
    use std::arch::x86_64::*;

    use super::{FastAdderBatch, EF_SHIFT, LANE_DRAWS, LANE_KEY, LANE_SIGN, LANE_SPECIAL};
    use srmac_rng::SPLITMIX_GAMMA;

    /// Loop-invariant broadcast constants of one adder configuration.
    struct Consts {
        key: __m512i,
        special: __m512i,
        draws: __m512i,
        sign: __m512i,
        efmask: __m512i,
        sigmask: __m512i,
        zero: __m512i,
        one: __m512i,
        c32: __m512i,
        f: __m512i,
        p: __m512i,
        /// `32 - p`: folds the `31 - lzcnt - (p - 1)` normalization.
        c31mp: __m512i,
        r: __m512i,
        rmask: __m512i,
        /// `32 - r`: the right-shift that realigns the register-justified
        /// rounding tail (see the SR path in [`add_core`]).
        c32mr: __m512i,
        /// `1 << r`, for deriving the low sticky-fill mask by shift.
        rp1: __m512i,
        half: __m512i,
        efmax: __m512i,
        inf_base: __m512i,
        /// `31 - enc_sign_shift`: moves the sign bit from the lane MSB
        /// straight to its encoded position.
        iss: __m512i,
        /// The even dword indices of a `(lo, hi)` u64-lane vector pair:
        /// one `vpermt2v` gathers the low 32 bits of 16 finalized draws.
        evens: __m512i,
        /// Whether `sig << f` self-clears the exponent/flag bits
        /// (`f >= EF_SHIFT`), letting the shift skip the sig mask.
        fsig: bool,
        sub: bool,
    }

    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd"
    )]
    fn consts(batch: &FastAdderBatch) -> Consts {
        let spec = &batch.spec;
        let b32 = |v: u32| _mm512_set1_epi32(v as i32);
        Consts {
            key: b32(LANE_KEY),
            special: b32(LANE_SPECIAL),
            draws: b32(LANE_DRAWS),
            sign: b32(LANE_SIGN),
            efmask: b32(0x1FFF),
            sigmask: b32(0xFFFF),
            zero: _mm512_setzero_si512(),
            one: b32(1),
            c32: b32(32),
            f: b32(spec.f),
            p: b32(spec.p),
            c31mp: b32(32 - spec.p),
            r: b32(spec.r),
            rmask: b32(spec.rmask as u32),
            c32mr: b32(32 - spec.r),
            rp1: b32(1 << spec.r),
            half: b32(batch.half),
            efmax: b32(batch.ef_max as u32),
            inf_base: b32(LANE_SPECIAL | LANE_DRAWS | batch.inf_exp),
            iss: b32(31 - batch.enc_sign_shift),
            evens: _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30),
            fsig: spec.f >= EF_SHIFT,
            sub: spec.sub,
        }
    }

    /// [`consts`] with every field a compile-time literal: the paper's
    /// headline E6M5 accumulator (RN `r = 2`, SR `r = 13`).
    ///
    /// This exists purely for register allocation: literal constants are
    /// folded into embedded-broadcast memory operands (`{1to16}`), so
    /// ~15 `zmm` registers that the generic body pins (or spills, once
    /// the interleaved chains join in) come free. [`is_e6m5`] guards
    /// every use by checking the runtime spec field-for-field — the
    /// literals are asserted, never assumed, and a mismatch falls back
    /// to the generic-constant body.
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd"
    )]
    fn consts_e6m5<const SR: bool, const SUB: bool>() -> Consts {
        let b32 = |v: u32| _mm512_set1_epi32(v as i32);
        let (f, r, rmask) = if SR { (23, 13, 0x1FFF) } else { (12, 2, 0x3) };
        Consts {
            key: b32(LANE_KEY),
            special: b32(LANE_SPECIAL),
            draws: b32(LANE_DRAWS),
            sign: b32(LANE_SIGN),
            efmask: b32(0x1FFF),
            sigmask: b32(0xFFFF),
            zero: _mm512_setzero_si512(),
            one: b32(1),
            c32: b32(32),
            f: b32(f),
            p: b32(6),
            c31mp: b32(32 - 6),
            r: b32(r),
            rmask: b32(rmask),
            c32mr: b32(32 - r),
            rp1: b32(1 << r),
            half: b32(32),
            efmax: b32(61),
            inf_base: b32(LANE_SPECIAL | LANE_DRAWS | 0x7E0),
            iss: b32(31 - 11),
            evens: _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30),
            fsig: f >= EF_SHIFT,
            sub: SUB,
        }
    }

    /// Whether `batch` is exactly the algebra that the literals in
    /// `consts_e6m5::<SR, _>` describe; returns the subnormal flag when
    /// it is.
    fn is_e6m5<const SR: bool>(batch: &FastAdderBatch) -> Option<bool> {
        let spec = &batch.spec;
        let (f, r, rmask) = if SR { (23, 13, 0x1FFF) } else { (12, 2, 0x3) };
        (batch.sr == SR
            && spec.p == 6
            && spec.f == f
            && spec.r == r
            && spec.rmask == rmask
            && batch.half == 32
            && batch.ef_max == 61
            && batch.inf_exp == 0x7E0
            && batch.enc_sign_shift == 11)
            .then_some(spec.sub)
    }

    /// [`FastAdderBatch::add_core`], 16 lanes per instruction. Every
    /// `sel` becomes a masked move, every data-dependent shift a
    /// `vps{l,r}lvd`, the normalization `leading_zeros` a `vplzcntd`.
    #[inline]
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd"
    )]
    #[allow(clippy::similar_names)]
    fn add_core<const SR: bool>(c: &Consts, aw: __m512i, bw: __m512i, word: __m512i) -> __m512i {
        let akey = _mm512_and_si512(aw, c.key);
        let bkey = _mm512_and_si512(bw, c.key);
        let kswap = _mm512_cmpgt_epu32_mask(bkey, akey);
        let hi = _mm512_mask_blend_epi32(kswap, aw, bw);
        let lo = _mm512_mask_blend_epi32(kswap, bw, aw);
        let ef_hi = _mm512_and_si512(_mm512_srli_epi32::<16>(hi), c.efmask);
        let ef_lo = _mm512_and_si512(_mm512_srli_epi32::<16>(lo), c.efmask);
        // When `f >= 16` the sig shift self-clears the exponent and flag
        // bits, so the sig mask is folded into it.
        let x = if c.fsig {
            _mm512_sllv_epi32(hi, c.f)
        } else {
            _mm512_sllv_epi32(_mm512_and_si512(hi, c.sigmask), c.f)
        };
        let yb = if c.fsig {
            _mm512_sllv_epi32(lo, c.f)
        } else {
            _mm512_sllv_epi32(_mm512_and_si512(lo, c.sigmask), c.f)
        };

        // Alignment. `d` is unclamped: `vpsrlvd`/`vpsllvd` already yield 0
        // for counts >= 32, which is exactly the all-bits-shifted-out case
        // the scalar kernel's clamp emulates. The sticky bit falls out of
        // a round trip: bits were lost iff `(y << d) != yb`.
        let d = _mm512_sub_epi32(ef_hi, ef_lo);
        let y = _mm512_srlv_epi32(yb, d);
        let ksig = _mm512_cmpneq_epu32_mask(_mm512_sllv_epi32(y, d), yb);

        // Branch-free effective subtraction: `subm` is the all-ones lane
        // mask of differing signs, the `+1` two's-complement correction
        // lands only where no sticky bit was lost.
        let xhl = _mm512_xor_si512(hi, lo);
        let ksub = _mm512_test_epi32_mask(xhl, c.sign);
        let subm = _mm512_srai_epi32::<31>(xhl);
        let t0 = _mm512_add_epi32(x, _mm512_xor_si512(y, subm));
        let s = _mm512_mask_add_epi32(t0, !ksig & ksub, t0, c.one);
        let kones = ksub & ksig;

        // Normalization and the qmin clamp (`31 - lzcnt - (p - 1)` folds
        // to one subtraction from the `c31mp = 32 - p` constant).
        let drop0 = _mm512_sub_epi32(c.c31mp, _mm512_lzcnt_epi32(_mm512_or_si512(s, c.one)));
        let drop = if c.sub {
            _mm512_max_epi32(drop0, _mm512_sub_epi32(c.f, ef_hi))
        } else {
            drop0
        };

        // Exact path.
        let shl = _mm512_max_epi32(_mm512_sub_epi32(c.zero, drop), c.zero);
        let kept_e = _mm512_sllv_epi32(s, shl);

        // Rounding path. `drop <= 31 - (p - 1)` and (subnormal clamp)
        // `f <= 27`, so `dr` needs no upper clamp.
        let dr = _mm512_max_epi32(drop, c.one);
        let kept_r = _mm512_srlv_epi32(s, dr);
        let up = if SR {
            // Align the tail at the `r`-bit draw in one shift pair:
            // `s << (32 - dr)` top-justifies exactly the `dr` tail bits
            // (no mask needed), and `>> (32 - r)` lands them at the draw,
            // covering both `tail >> (dr - r)` and `tail << (r - dr)`.
            // Subtracted sticky ones fill the low `r - dr` bits only when
            // the tail was up-shifted.
            let t1 = _mm512_srlv_epi32(_mm512_sllv_epi32(s, _mm512_sub_epi32(c.c32, dr)), c.c32mr);
            let kfill = kones & _mm512_cmplt_epu32_mask(dr, c.r);
            let fill = _mm512_sub_epi32(_mm512_srlv_epi32(c.rp1, dr), c.one);
            let t = _mm512_mask_or_epi32(t1, kfill, t1, fill);
            _mm512_srlv_epi32(_mm512_add_epi32(t, _mm512_and_si512(word, c.rmask)), c.r)
        } else {
            let drm1 = _mm512_sub_epi32(dr, c.one);
            let guard = _mm512_and_si512(_mm512_srlv_epi32(s, drm1), c.one);
            let m2 = _mm512_sub_epi32(_mm512_sllv_epi32(c.one, drm1), c.one);
            // Sticky union: bits below the guard, or any alignment loss
            // (`ones | extra_sticky` in the scalar kernel is just sigma).
            let ksticky = _mm512_test_epi32_mask(s, m2) | ksig;
            let rok = _mm512_or_si512(_mm512_maskz_mov_epi32(ksticky, c.one), kept_r);
            _mm512_and_si512(guard, rok)
        };

        let kround = _mm512_cmpgt_epi32_mask(drop, c.zero);
        let mut kept = _mm512_mask_add_epi32(kept_e, kround, kept_r, up);
        let carry = _mm512_srlv_epi32(kept, c.p);
        kept = _mm512_srlv_epi32(kept, carry);
        let ef_out = _mm512_add_epi32(_mm512_add_epi32(drop, _mm512_sub_epi32(ef_hi, c.f)), carry);

        // Assemble, lowest-precedence first (same select order as the
        // scalar kernel). `ef_out` is left unmasked in `natural`: every
        // lane where it strays outside `0..=ef_max` is overwritten by the
        // selects directly below.
        let zero_w = _mm512_and_si512(hi, c.sign);
        let natural = _mm512_or_si512(
            _mm512_or_si512(zero_w, _mm512_slli_epi32::<16>(ef_out)),
            kept,
        );
        let inf_w = _mm512_or_si512(c.inf_base, _mm512_srlv_epi32(zero_w, c.iss));
        let mut w = natural;
        w = _mm512_mask_mov_epi32(w, _mm512_cmplt_epi32_mask(ef_out, c.zero), zero_w);
        w = _mm512_mask_mov_epi32(w, _mm512_cmpgt_epi32_mask(ef_out, c.efmax), inf_w);
        // `kept == 0` implies `kept < half`, so one select covers both
        // flush conditions in flush-to-zero mode.
        if c.sub {
            w = _mm512_mask_mov_epi32(w, _mm512_testn_epi32_mask(kept, kept), zero_w);
        } else {
            w = _mm512_mask_mov_epi32(w, _mm512_cmplt_epu32_mask(kept, c.half), zero_w);
        }
        w = _mm512_mask_mov_epi32(w, _mm512_testn_epi32_mask(s, s), c.zero);
        let kb0 = _mm512_testn_epi32_mask(bkey, bkey);
        w = _mm512_mask_mov_epi32(w, kb0, aw);
        let ka0 = _mm512_testn_epi32_mask(akey, akey);
        w = _mm512_mask_mov_epi32(w, ka0, bw);
        w = _mm512_mask_mov_epi32(
            w,
            ka0 & kb0,
            _mm512_and_si512(_mm512_and_si512(aw, bw), c.sign),
        );
        w
    }

    /// `splitmix_finalize` over 8 u64 lanes.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512dq")]
    fn finalize(z: __m512i) -> __m512i {
        let c1 = _mm512_set1_epi64(0xBF58_476D_1CE4_E5B9_u64 as i64);
        let c2 = _mm512_set1_epi64(0x94D0_49BB_1331_11EB_u64 as i64);
        let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), c1);
        let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), c2);
        _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
    }

    /// Scalar repair of the rare special lanes of one step — identical
    /// semantics to [`FastAdderBatch::fixup_specials`].
    #[cold]
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd"
    )]
    fn fixup(
        batch: &FastAdderBatch,
        kspec: __mmask16,
        acc: __m512i,
        prods: __m512i,
        words: __m512i,
        res: __m512i,
    ) -> __m512i {
        let (av, pv, wv, mut rv) = (to_u32s(acc), to_u32s(prods), to_u32s(words), to_u32s(res));
        for l in 0..16 {
            if kspec & (1 << l) != 0 {
                // Only the low `r` bits of the rounding word matter, so
                // the u32-truncated word is the word (r <= 27).
                let enc =
                    batch
                        .scalar
                        .add(batch.encode(av[l]), batch.encode(pv[l]), u64::from(wv[l]));
                rv[l] = batch.decode(enc);
            }
        }
        from_u32s(rv)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn to_u32s(v: __m512i) -> [u32; 16] {
        let mut out = [0u32; 16];
        // SAFETY: `out` is exactly 64 bytes; unaligned store is allowed.
        #[allow(unsafe_code)]
        unsafe {
            _mm512_storeu_si512(out.as_mut_ptr().cast(), v);
        }
        out
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn from_u32s(a: [u32; 16]) -> __m512i {
        // SAFETY: `a` is exactly 64 bytes and outlives the load.
        #[allow(unsafe_code)]
        unsafe {
            _mm512_loadu_si512(a.as_ptr().cast())
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn from_u64s(a: [u64; 8]) -> __m512i {
        // SAFETY: `a` is exactly 64 bytes and outlives the load.
        #[allow(unsafe_code)]
        unsafe {
            _mm512_loadu_si512(a.as_ptr().cast())
        }
    }

    /// One 16-lane chain step: gather the pre-decoded products for the
    /// chain's columns, draw rounding words (SR only, masked commit so
    /// non-consuming lanes re-offer the word), run [`add_core`], repair
    /// rare special lanes through the scalar adder, and commit under the
    /// zero-skip mask.
    ///
    /// A macro rather than a helper fn so the interleaved kernels unroll
    /// over *named locals*: a `for q in 0..N` loop over `[__m512i; N]`
    /// arrays is left rolled by the compiler and round-trips every chain
    /// through the stack at each `k` step.
    macro_rules! chain_step {
        ($sr:expr, $c:expr, $batch:expr, $gamma:expr, $bc:expr, $row:expr,
         $acc:ident, $slo:ident, $shi:ident, $q:literal) => {{
            // SAFETY: the indices are zero-extended bytes (< 256) into a
            // 256-entry row of the 65536-entry table.
            #[allow(unsafe_code)]
            let prods = unsafe {
                let idx = _mm512_cvtepu8_epi32(_mm_loadu_si128($bc[$q * 16..].as_ptr().cast()));
                _mm512_i32gather_epi32::<4>(idx, $row.cast::<i32>())
            };
            let words = if $sr {
                let kconsume = _mm512_test_epi32_mask(prods, $c.draws);
                let sl = _mm512_add_epi64($slo, $gamma);
                let sh = _mm512_add_epi64($shi, $gamma);
                let w = _mm512_permutex2var_epi32(finalize(sl), $c.evens, finalize(sh));
                // Dense blocks consume on every lane; the masked re-offer
                // commit is only paid when some product was zero.
                if kconsume == 0xFFFF {
                    $slo = sl;
                    $shi = sh;
                } else {
                    $slo = _mm512_mask_mov_epi64($slo, kconsume as __mmask8, sl);
                    $shi = _mm512_mask_mov_epi64($shi, (kconsume >> 8) as __mmask8, sh);
                }
                w
            } else {
                $c.zero
            };
            let kspec = _mm512_test_epi32_mask(_mm512_or_si512($acc, prods), $c.special);
            let mut res = add_core::<$sr>(&$c, $acc, prods, words);
            if kspec != 0 {
                res = fixup($batch, kspec, $acc, prods, words, res);
            }
            let kkey = _mm512_test_epi32_mask(prods, $c.key);
            $acc = if kkey == 0xFFFF {
                res
            } else {
                _mm512_mask_mov_epi32($acc, kkey, res)
            };
        }};
    }

    /// The full interleaved dot-product body — a macro (not a fn) so it
    /// expands textually into each instantiation: a function boundary
    /// here would pass `Consts` by reference and un-fold the literal
    /// constants that `consts_e6m5` exists to provide.
    macro_rules! dot_body {
        ($sr:expr, $c:expr, $batch:expr, $table:expr, $ids:expr, $cods:expr, $pan:expr,
         $seeds:expr, $w:literal,
         [$(($acc:ident, $slo:ident, $shi:ident, $q:literal)),+]) => {{
            let c = $c;
            let gamma = _mm512_set1_epi64(SPLITMIX_GAMMA as i64);
            // Infallible: q indexes whole 8-lane groups of the seed array.
            let seed8 =
                |q: usize| from_u64s($seeds[q * 8..q * 8 + 8].try_into().expect("8 seeds"));
            $(
                let mut $slo = seed8(2 * $q);
                let mut $shi = seed8(2 * $q + 1);
                let mut $acc = _mm512_setzero_si512();
            )+
            for (&ci, &ca) in $ids.iter().zip($cods) {
                let base = ci as usize * $w;
                // Infallible: base + $w <= panel len by the packer's row stride.
                let bc: &[u8; $w] = $pan[base..base + $w].try_into().expect("panel block");
                let row = $table.as_ptr().wrapping_add(usize::from(ca) << 8);
                $(chain_step!($sr, c, $batch, gamma, bc, row, $acc, $slo, $shi, $q);)+
            }
            let mut out = [0u32; $w];
            $(out[$q * 16..$q * 16 + 16].copy_from_slice(&to_u32s($acc));)+
            out
        }};
    }

    /// One 16-column dot product over a 16-wide lane-interleaved panel
    /// block, accumulated over the compacted A entries `(ids, cods)`.
    /// Returns the final decoded accumulator words (encode with
    /// [`FastAdderBatch::encode`]).
    ///
    /// Bit-identical to 16 scalar dot products: per-lane draws advance
    /// exactly as [`srmac_rng::SrLaneStreams::draw`] (`seeds[l]` replays
    /// `SplitMix64::new(seeds[l])`), adds run in `k` order through
    /// [`add_core`], special lanes divert to the scalar adder, and
    /// zero-magnitude products neither touch the accumulator nor consume
    /// a draw. One chain of the interleaved body that [`dot64`]
    /// runs four of, with the same literal-constant E6M5 instantiation.
    ///
    /// Callers discharge the `#[target_feature]` obligation: the CPU must
    /// support AVX-512 F/BW/DQ/VL/CD (the engine checks via
    /// `SimdTier::detect` before routing here).
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd"
    )]
    pub(crate) fn dot16<const SR: bool>(
        batch: &FastAdderBatch,
        table: &[u32; 1 << 16],
        ids: &[u32],
        cods: &[u8],
        pan: &[u8],
        seeds: &[u64; 16],
    ) -> [u32; 16] {
        match is_e6m5::<SR>(batch) {
            Some(true) => dot16_e6m5::<SR, true>(batch, table, ids, cods, pan, seeds),
            Some(false) => dot16_e6m5::<SR, false>(batch, table, ids, cods, pan, seeds),
            None => {
                let c = consts(batch);
                dot_body!(
                    SR,
                    c,
                    batch,
                    table,
                    ids,
                    cods,
                    pan,
                    seeds,
                    16,
                    [(a0, s0, s1, 0)]
                )
            }
        }
    }

    /// The literal-constant E6M5 instantiation of [`dot16`].
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd"
    )]
    fn dot16_e6m5<const SR: bool, const SUB: bool>(
        batch: &FastAdderBatch,
        table: &[u32; 1 << 16],
        ids: &[u32],
        cods: &[u8],
        pan: &[u8],
        seeds: &[u64; 16],
    ) -> [u32; 16] {
        let c = consts_e6m5::<SR, SUB>();
        dot_body!(
            SR,
            c,
            batch,
            table,
            ids,
            cods,
            pan,
            seeds,
            16,
            [(a0, s0, s1, 0)]
        )
    }

    /// A full 64-column panel block in one `k` pass: four interleaved
    /// 16-lane chains, each bit-identical to 16 scalar dot products as
    /// in [`dot16`].
    ///
    /// Interleaving is the point: one 16-lane chain is a serial
    /// `add_core` dependency per `k` step, so a lone chain is bound by
    /// its latency. Four independent accumulator chains in the same loop
    /// body give the out-of-order core ~4x the exploitable parallelism,
    /// and the per-step scalars (`ci`, `ca`, the LUT row pointer) are
    /// computed once instead of four times.
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd"
    )]
    pub(crate) fn dot64<const SR: bool>(
        batch: &FastAdderBatch,
        table: &[u32; 1 << 16],
        ids: &[u32],
        cods: &[u8],
        pan: &[u8],
        seeds: &[u64; 64],
    ) -> [u32; 64] {
        match is_e6m5::<SR>(batch) {
            Some(true) => dot64_e6m5::<SR, true>(batch, table, ids, cods, pan, seeds),
            Some(false) => dot64_e6m5::<SR, false>(batch, table, ids, cods, pan, seeds),
            None => {
                let c = consts(batch);
                dot_body!(
                    SR,
                    c,
                    batch,
                    table,
                    ids,
                    cods,
                    pan,
                    seeds,
                    64,
                    [
                        (a0, s0, s1, 0),
                        (a1, s2, s3, 1),
                        (a2, s4, s5, 2),
                        (a3, s6, s7, 3)
                    ]
                )
            }
        }
    }

    /// The literal-constant E6M5 instantiation of [`dot64`] (a
    /// single `dot64_body` call site, so the body inlines and every
    /// `Consts` field constant-folds).
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd"
    )]
    fn dot64_e6m5<const SR: bool, const SUB: bool>(
        batch: &FastAdderBatch,
        table: &[u32; 1 << 16],
        ids: &[u32],
        cods: &[u8],
        pan: &[u8],
        seeds: &[u64; 64],
    ) -> [u32; 64] {
        let c = consts_e6m5::<SR, SUB>();
        dot_body!(
            SR,
            c,
            batch,
            table,
            ids,
            cods,
            pan,
            seeds,
            64,
            [
                (a0, s0, s1, 0),
                (a1, s2, s3, 1),
                (a2, s4, s5, 2),
                (a3, s6, s7, 3)
            ]
        )
    }

    /// The write-back of a panel block: `out[l] = decode[encode(accs[l])]`
    /// for every live lane `l < out.len()`, 16 lanes per step. The encode
    /// is [`FastAdderBatch::encode`] with its branches as masked moves
    /// (special words return their carried encoding, words below `half`
    /// the sign and significand, normal words the sign, biased exponent
    /// and stored significand); the decode is one `vpgatherdd` from the
    /// `decode` table, and the store is masked to the live lanes, so the
    /// padded lanes of a remainder block are never written.
    ///
    /// # Panics
    ///
    /// Panics unless `decode` has exactly one entry per accumulator
    /// encoding, `accs.len()` is a multiple of 16 and
    /// `out.len() <= accs.len()`.
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd"
    )]
    pub(crate) fn write_back(
        batch: &FastAdderBatch,
        decode: &[f32],
        accs: &[u32],
        out: &mut [f32],
    ) {
        let spec = &batch.spec;
        let encmask = srmac_fp::mask(spec.fmt.bits()) as u32;
        assert_eq!(
            decode.len(),
            encmask as usize + 1,
            "one decode entry per encoding"
        );
        assert!(
            accs.len().is_multiple_of(16) && out.len() <= accs.len(),
            "accs must hold whole 16-lane groups covering out"
        );
        let b32 = |v: u32| _mm512_set1_epi32(v as i32);
        let (special, sign, sigmask, efmask) =
            (b32(LANE_SPECIAL), b32(LANE_SIGN), b32(0xFFFF), b32(0x1FFF));
        let (one, half, mmask, encm) = (
            b32(1),
            b32(batch.half),
            b32(spec.mmask as u32),
            b32(encmask),
        );
        let mbits = b32(spec.mbits);
        let iss = b32(31 - batch.enc_sign_shift);
        for (q, dst) in out.chunks_mut(16).enumerate() {
            let live = (1u32 << dst.len()) - 1;
            // SAFETY: `accs[q * 16..][..16]` is 16 in-bounds u32s (`accs`
            // holds whole 16-lane groups and `q * 16 < out.len() <=
            // accs.len()`).
            #[allow(unsafe_code)]
            let w = unsafe { _mm512_loadu_si512(accs[q * 16..][..16].as_ptr().cast()) };
            let sig = _mm512_and_si512(w, sigmask);
            let ef = _mm512_and_si512(_mm512_srli_epi32::<16>(w), efmask);
            let sbit = _mm512_srlv_epi32(_mm512_and_si512(w, sign), iss);
            let normal = _mm512_or_si512(
                _mm512_or_si512(sbit, _mm512_sllv_epi32(_mm512_add_epi32(ef, one), mbits)),
                _mm512_and_si512(sig, mmask),
            );
            let mut enc = _mm512_mask_mov_epi32(
                normal,
                _mm512_cmplt_epu32_mask(sig, half),
                _mm512_or_si512(sbit, sig),
            );
            enc = _mm512_mask_mov_epi32(enc, _mm512_test_epi32_mask(w, special), sig);
            // Canonical words already encode below `2^bits`; the mask
            // makes every gather index provably in bounds.
            let enc = _mm512_and_si512(enc, encm);
            // SAFETY: every index is masked below `decode.len()` (asserted
            // above to be `2^bits`); the store is masked to the `dst.len()`
            // live lanes, and masked-off lanes are never accessed.
            #[allow(unsafe_code)]
            unsafe {
                let v = _mm512_i32gather_ps::<4>(enc, decode.as_ptr());
                _mm512_mask_storeu_ps(dst.as_mut_ptr(), live as __mmask16, v);
            }
        }
    }

    /// Appends the CSR compaction of one code row — the k-index and code
    /// of every entry with non-zero magnitude (`code & mag != 0`), in
    /// ascending k order — to `idx`/`code` at offset `len`, and returns
    /// the new length. One 16-code chunk per step: a masked load covers
    /// the ragged tail, `vpcompressd` packs the selected lanes' indices
    /// and (widened) codes to the front, both are stored in full at
    /// `len` (`vpmovdb` narrows the codes back to bytes), and `len`
    /// advances by the mask's popcount.
    ///
    /// # Panics
    ///
    /// Panics unless `idx` and `code` have room for every selected entry
    /// plus 16 lanes of store slack, or if `row` is longer than
    /// `i32::MAX`.
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd"
    )]
    pub(crate) fn compact_row(
        row: &[u8],
        mag: u8,
        idx: &mut [u32],
        code: &mut [u8],
        mut len: usize,
    ) -> usize {
        assert!(i32::try_from(row.len()).is_ok(), "row too long to index");
        let magv = _mm_set1_epi8(mag as i8);
        let iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        for (q, chunk) in row.chunks(16).enumerate() {
            let live = ((1u32 << chunk.len()) - 1) as __mmask16;
            // SAFETY: the load is masked to the chunk's `chunk.len()`
            // in-bounds bytes; masked-off lanes are never accessed.
            #[allow(unsafe_code)]
            let v = unsafe { _mm_maskz_loadu_epi8(live, chunk.as_ptr().cast()) };
            let keep = _mm_test_epi8_mask(v, magv);
            let ks = _mm512_add_epi32(_mm512_set1_epi32((q * 16) as i32), iota);
            let ids = _mm512_maskz_compress_epi32(keep, ks);
            let cds =
                _mm512_cvtepi32_epi8(_mm512_maskz_compress_epi32(keep, _mm512_cvtepu8_epi32(v)));
            let (idst, cdst) = (&mut idx[len..len + 16], &mut code[len..len + 16]);
            // SAFETY: `idst` is 16 u32s and `cdst` 16 bytes, both
            // in bounds (sliced just above); unaligned stores are allowed.
            #[allow(unsafe_code)]
            unsafe {
                _mm512_storeu_si512(idst.as_mut_ptr().cast(), ids);
                _mm_storeu_si128(cdst.as_mut_ptr().cast(), cds);
            }
            len += keep.count_ones() as usize;
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::{PairLut, ProductLut};
    use srmac_fp::mask;
    use srmac_rng::{SplitMix64, SrLaneStreams};

    #[test]
    fn decode_encode_roundtrip_all_encodings() {
        for sub in [true, false] {
            let fmt = FpFormat::e6m5().with_subnormals(sub);
            let batch = FastAdderBatch::new(fmt, AccumRounding::Nearest).expect("e6m5 fits");
            for enc in fmt.iter_encodings() {
                let w = batch.decode(enc);
                let pseudo_subnormal = !sub && fmt.is_zero(enc) && enc & fmt.man_mask() != 0;
                if pseudo_subnormal {
                    // Canonicalized to a (draw-consuming) zero, like every
                    // other consumer of such encodings in the stack.
                    assert_eq!(w & LANE_KEY, 0, "{enc:#x} decodes to a zero key");
                    assert_ne!(w & LANE_DRAWS, 0, "{enc:#x} still consumes a word");
                } else {
                    assert_eq!(batch.encode(w), enc, "roundtrip of {enc:#x} (sub={sub})");
                }
                // The draws bit mirrors the scalar loop's zero-skip rule.
                assert_eq!(
                    w & LANE_DRAWS != 0,
                    enc & mask(fmt.bits() - 1) != 0,
                    "{enc:#x} draws"
                );
            }
        }
    }

    /// Exhaustive code-for-code equivalence with the scalar adder over the
    /// full operand plane of the paper's accumulator format, both
    /// subnormal settings, RN and SR at several word values — the
    /// load-bearing guarantee that lane batching changes performance and
    /// nothing else.
    #[test]
    fn narrow_add_vs_scalar_e6m5_exhaustive() {
        for sub in [true, false] {
            let fmt = FpFormat::e6m5().with_subnormals(sub);
            for (mode, words) in [
                (AccumRounding::Nearest, vec![0u64]),
                (AccumRounding::Stochastic { r: 9 }, vec![0u64, 0x0F3, 0x1FF]),
                (AccumRounding::Stochastic { r: 13 }, vec![0u64, 0x1ACE]),
            ] {
                let scalar = FastAdder::new(fmt, mode);
                let batch = FastAdderBatch::new(fmt, mode).expect("e6m5 fits the lane word");
                let all: Vec<u64> = fmt.iter_encodings().collect();
                for a in fmt.iter_encodings() {
                    for &w in &words {
                        // Sweep b across lanes, 8 at a time.
                        for chunk in all.chunks(8) {
                            let mut bs = [0u64; 8];
                            bs[..chunk.len()].copy_from_slice(chunk);
                            let got = batch.add(&[a; 8], &bs, &[w; 8]);
                            for (l, &b) in chunk.iter().enumerate() {
                                let want = scalar.add(a, b, w);
                                assert_eq!(
                                    got[l], want,
                                    "{fmt} {mode:?}: {a:#x}+{b:#x} w={w:#x} lane {l}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Other formats inside the envelope, random-sampled against the
    /// scalar adder: E8M7 at SR11 (p + f = 8 + 23 = 31, exactly at the
    /// envelope edge) with and without subnormals covers exponent fields
    /// wider than E6M5's, and E4M3 at SR7 a narrower format.
    #[test]
    fn narrow_add_vs_scalar_random_formats() {
        let mut rng = SplitMix64::new(777);
        for (fmt, r) in [
            (FpFormat::e8m7(), 11),
            (FpFormat::e8m7().with_subnormals(false), 11),
            (FpFormat::e4m3(), 7),
        ] {
            let mode = AccumRounding::Stochastic { r };
            let scalar = FastAdder::new(fmt, mode);
            let batch = FastAdderBatch::new(fmt, mode).expect("inside the envelope");
            for _ in 0..60_000 {
                let mut a = [0u64; 8];
                let mut b = [0u64; 8];
                let mut w = [0u64; 8];
                for l in 0..8 {
                    a[l] = rng.next_u64() & fmt.bits_mask();
                    b[l] = rng.next_u64() & fmt.bits_mask();
                    w[l] = rng.next_u64() & mask(r);
                }
                let got = batch.add(&a, &b, &w);
                for l in 0..8 {
                    assert_eq!(
                        got[l],
                        scalar.add(a[l], b[l], w[l]),
                        "{fmt} r={r}: {:#x}+{:#x} w={:#x}",
                        a[l],
                        b[l],
                        w[l]
                    );
                }
            }
        }
    }

    #[test]
    fn narrow_gate_matches_the_envelope() {
        // The paper's accumulator fits up to r = 15 (p + f = 6 + 25 = 31,
        // the envelope edge)...
        for mode in [
            AccumRounding::Nearest,
            AccumRounding::Stochastic { r: 13 },
            AccumRounding::Stochastic { r: 15 },
        ] {
            assert!(FastAdderBatch::new(FpFormat::e6m5(), mode).is_some());
        }
        // ...but not beyond (r = 16 -> p + f = 32), and a p=11
        // accumulator at SR13 (p + f = 39) does not either.
        for (fmt, r) in [(FpFormat::e6m5(), 16), (FpFormat::e5m10(), 13)] {
            assert!(FastAdderBatch::new(fmt, AccumRounding::Stochastic { r }).is_none());
        }
    }

    #[test]
    fn mac_step_skips_zero_products_verbatim() {
        let fmt = FpFormat::e6m5();
        let mode = AccumRounding::Stochastic { r: 13 };
        let batch = FastAdderBatch::new(fmt, mode).expect("e6m5 fits");
        // A negative-zero accumulator must survive a +0 product untouched
        // (the scalar loop never even calls the adder for it).
        let neg_zero = batch.decode(fmt.zero_bits(true));
        let one = batch.decode(fmt.quantize_f32(1.0, srmac_fp::RoundMode::NearestEven).bits);
        let mut acc = [neg_zero, one, 0u32, one];
        let before = acc;
        let zero = batch.decode(fmt.zero_bits(false));
        batch.mac_step(&mut acc, &[zero; 4], &[0u64; 4]);
        assert_eq!(acc, before);
        // A non-zero product in one lane commits only that lane.
        batch.mac_step(&mut acc, &[zero, one, zero, zero], &[0u64; 4]);
        assert_eq!([acc[0], acc[2], acc[3]], [before[0], before[2], before[3]]);
        assert_eq!(
            batch.encode(acc[1]),
            FastAdder::new(fmt, mode).add(batch.encode(one), batch.encode(one), 0)
        );
    }

    #[test]
    fn mac_step32_skips_zero_products_verbatim() {
        // The same zero-skip contract at the other envelope modes: RN, and
        // SR15, where p + f = 31 fills the 32-bit lane word to its edge.
        // Non-zero random draws must not leak into the skipped lanes.
        let fmt = FpFormat::e6m5();
        for mode in [AccumRounding::Nearest, AccumRounding::Stochastic { r: 15 }] {
            let batch = FastAdderBatch::new(fmt, mode).expect("e6m5 fits");
            let scalar = FastAdder::new(fmt, mode);
            let neg_zero = batch.decode(fmt.zero_bits(true));
            let one = fmt.quantize_f32(1.0, srmac_fp::RoundMode::NearestEven).bits;
            let third = fmt
                .quantize_f32(1.0 / 3.0, srmac_fp::RoundMode::NearestEven)
                .bits;
            let big = fmt.max_finite_bits(true);
            let mut acc = [
                neg_zero,
                batch.decode(one),
                batch.decode(big),
                batch.decode(third),
            ];
            let before = acc;
            let zero = batch.decode(fmt.zero_bits(false));
            let neg = batch.decode(fmt.zero_bits(true));
            let rand = [0x7fff_u64, 0x1234, 0x5a5a, 0x4321];
            batch.mac_step(&mut acc, &[zero, neg, zero, neg], &rand);
            assert_eq!(acc, before, "{mode:?}");
            // A non-zero product in the last lane commits only that lane,
            // with the scalar adder's rounding of the same draw.
            batch.mac_step(&mut acc, &[zero, zero, neg, batch.decode(third)], &rand);
            assert_eq!(acc[..3], before[..3], "{mode:?}");
            assert_eq!(
                batch.encode(acc[3]),
                scalar.add(third, third, rand[3]),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn narrow_special_lanes_fall_back_to_golden_semantics() {
        let fmt = FpFormat::e6m5();
        let mode = AccumRounding::Stochastic { r: 13 };
        let batch = FastAdderBatch::new(fmt, mode).expect("e6m5 fits");
        let scalar = FastAdder::new(fmt, mode);
        let inf = fmt.inf_bits(false);
        let ninf = fmt.inf_bits(true);
        let nan = fmt.nan_bits();
        let big = fmt.max_finite_bits(false);
        let one = fmt.quantize_f32(1.0, srmac_fp::RoundMode::NearestEven).bits;
        // Infinity and NaN operands through the encoding-level add.
        for (a, b) in [
            (inf, one),
            (one, inf),
            (inf, ninf),
            (nan, one),
            (one, nan),
            (inf, inf),
        ] {
            let got = batch.add(&[a; 2], &[b; 2], &[0x123; 2]);
            let want = scalar.add(a, b, 0x123);
            assert_eq!(got, [want; 2], "{a:#x}+{b:#x}");
        }
        // Overflow to infinity inside mac_step, then keep accumulating:
        // golden special semantics all the way through.
        let mut acc = [batch.decode(big)];
        batch.mac_step(&mut acc, &[batch.decode(big)], &[0]);
        assert_eq!(batch.encode(acc[0]), scalar.add(big, big, 0));
        let after_inf = batch.encode(acc[0]);
        batch.mac_step(&mut acc, &[batch.decode(one)], &[0]);
        assert_eq!(batch.encode(acc[0]), scalar.add(after_inf, one, 0));
    }

    /// The vector write-back against `decode[encode(w)]` lane by lane:
    /// every encoding's lane word (±0, sub-half, normal, ±inf and NaN
    /// words), both subnormal settings of E6M5 plus the 16-bit E8M7, at
    /// 1..=16 live lanes of a 16-lane group and at ragged widths of a
    /// 64-lane block. Lanes past the live ones must stay untouched.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn z16_write_back_matches_scalar_encode_and_decode() {
        if !(is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("avx512cd"))
        {
            eprintln!("skipping z16 write-back test: no AVX-512 at runtime");
            return;
        }
        let sentinel = f32::from_bits(0xDEAD_BEEF);
        for fmt in [
            FpFormat::e6m5(),
            FpFormat::e6m5().with_subnormals(false),
            FpFormat::e8m7(),
        ] {
            let batch =
                FastAdderBatch::new(fmt, AccumRounding::Stochastic { r: 11 }).expect("fits");
            let decode: Vec<f32> = fmt
                .iter_encodings()
                .map(|e| fmt.decode_f64(e) as f32)
                .collect();
            let words: Vec<u32> = fmt.iter_encodings().map(|e| batch.decode(e)).collect();
            let want = |w: u32| decode[batch.encode(w) as usize].to_bits();
            for group in words.chunks_exact(16) {
                for live in 1..=16 {
                    let mut out = [sentinel; 32];
                    // SAFETY: AVX-512 F/BW/DQ/VL/CD verified at runtime above.
                    #[allow(unsafe_code)]
                    unsafe {
                        z16::write_back(&batch, &decode, group, &mut out[..live]);
                    }
                    for l in 0..live {
                        assert_eq!(
                            out[l].to_bits(),
                            want(group[l]),
                            "{fmt}: word {:#x}",
                            group[l]
                        );
                    }
                    assert!(out[live..]
                        .iter()
                        .all(|v| v.to_bits() == sentinel.to_bits()));
                }
            }
            for (b, block) in words.chunks_exact(64).enumerate() {
                let live = [1, 17, 40, 64][b % 4];
                let mut out = [sentinel; 64];
                // SAFETY: as above.
                #[allow(unsafe_code)]
                unsafe {
                    z16::write_back(&batch, &decode, block, &mut out[..live]);
                }
                for l in 0..live {
                    assert_eq!(out[l].to_bits(), want(block[l]), "{fmt}: 64-lane word {l}");
                }
                assert!(out[live..]
                    .iter()
                    .all(|v| v.to_bits() == sentinel.to_bits()));
            }
        }
    }

    /// The lane-step reference of the `z16` dot kernels: `W` lanes of
    /// the (scalar-verified) `mac_step` + `SrLaneStreams` machinery over
    /// a `W`-wide panel block.
    #[cfg(target_arch = "x86_64")]
    fn lane_loop<const W: usize>(
        batch: &FastAdderBatch,
        plut: &PairLut,
        (ids, cods): (&[u32], &[u8]),
        pan: &[u8],
        seeds: [u64; W],
    ) -> [u32; W] {
        let mut streams = SrLaneStreams::new(seeds);
        let mut acc = [0u32; W];
        for (&id, &ca) in ids.iter().zip(cods) {
            let row = plut.row(ca);
            let prods: [u32; W] = std::array::from_fn(|l| row[pan[id as usize * W + l] as usize]);
            let words = if batch.sr {
                streams.draw(std::array::from_fn(|l| prods[l] & LANE_DRAWS != 0))
            } else {
                [0u64; W]
            };
            batch.mac_step(&mut acc, &prods, &words);
        }
        acc
    }

    /// The AVX-512 dot kernels against [`lane_loop`] at the engine's
    /// panel layout, 16-wide blocks through `dot16` and 64-wide ones
    /// through the interleaved `dot64`: random compacted-A streams and
    /// panel bytes over the full e5m2 code plane — zeros (zero-skip + no
    /// draw), NaN/Inf codes (the `#[cold]` scalar fixup), RN, SR13 and
    /// SR9.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn z16_dot_matches_scalar_mac_loop() {
        if !(is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("avx512cd"))
        {
            eprintln!("skipping z16 equivalence test: no AVX-512 at runtime");
            return;
        }
        let lut = ProductLut::build(FpFormat::e5m2(), FpFormat::e6m5());
        let mut rng = SplitMix64::new(0xD0716);
        // RN and SR13 take the literal-constant E6M5 bodies, SR9 the
        // generic-constant ones.
        for mode in [
            AccumRounding::Nearest,
            AccumRounding::Stochastic { r: 13 },
            AccumRounding::Stochastic { r: 9 },
        ] {
            let batch = FastAdderBatch::new(FpFormat::e6m5(), mode).expect("e6m5 fits");
            let plut = PairLut::build(&lut, &batch);
            let table = plut.table();
            for case in 0..160 {
                let width = [16usize, 64][case % 2];
                let rows = 1 + (rng.next_u64() % 48) as usize;
                let pan: Vec<u8> = (0..rows * width).map(|_| rng.next_u64() as u8).collect();
                // Compacted A: ascending ids, codes across the whole
                // plane — specials included every few steps.
                let mut ids = Vec::new();
                let mut cods = Vec::new();
                let mut ci = 0usize;
                while ci < rows {
                    ids.push(ci as u32);
                    cods.push(if rng.next_u64().is_multiple_of(11) {
                        [0x7D, 0x7C, 0x00][(rng.next_u64() % 3) as usize]
                    } else {
                        rng.next_u64() as u8
                    });
                    ci += 1 + (rng.next_u64() % 3) as usize;
                }
                let a = (&ids[..], &cods[..]);
                let (got, want) = if width == 16 {
                    let seeds: [u64; 16] = std::array::from_fn(|_| rng.next_u64());
                    // SAFETY: AVX-512 F/BW/DQ/VL/CD verified at runtime above.
                    #[allow(unsafe_code)]
                    let got = unsafe {
                        if batch.sr {
                            z16::dot16::<true>(&batch, table, a.0, a.1, &pan, &seeds)
                        } else {
                            z16::dot16::<false>(&batch, table, a.0, a.1, &pan, &seeds)
                        }
                    };
                    (
                        got.to_vec(),
                        lane_loop(&batch, &plut, a, &pan, seeds).to_vec(),
                    )
                } else {
                    let seeds: [u64; 64] = std::array::from_fn(|_| rng.next_u64());
                    // SAFETY: AVX-512 F/BW/DQ/VL/CD verified at runtime above.
                    #[allow(unsafe_code)]
                    let got = unsafe {
                        if batch.sr {
                            z16::dot64::<true>(&batch, table, a.0, a.1, &pan, &seeds)
                        } else {
                            z16::dot64::<false>(&batch, table, a.0, a.1, &pan, &seeds)
                        }
                    };
                    (
                        got.to_vec(),
                        lane_loop(&batch, &plut, a, &pan, seeds).to_vec(),
                    )
                };
                for (l, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g, w, "{mode:?} case {case}: lane {l} of {width}");
                }
            }
        }
    }
}
