//! Fast fixed-format scalar kernels: a `u64` specialization of the golden
//! rounding/addition algorithms of `srmac-fp`, for the inner loops of the
//! GEMM emulation. Exhaustively verified against the golden implementation
//! (see the `fast_vs_golden` tests): same bits, always.

use srmac_fp::{mask, FpFormat};

/// Accumulation rounding mode of the fast kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccumRounding {
    /// IEEE round-to-nearest-even.
    Nearest,
    /// Stochastic rounding with `r` random bits per operation.
    Stochastic {
        /// Number of random bits.
        r: u32,
    },
}

impl AccumRounding {
    fn r(&self) -> u32 {
        match self {
            AccumRounding::Nearest => 2,
            AccumRounding::Stochastic { r } => *r,
        }
    }
}

/// Format-derived constants of the fast addition algebra: every field
/// width, mask, exponent bound and alignment width the scalar
/// [`FastAdder`] and the lane-batched `FastAdderBatch` (see `batch.rs`)
/// both work from. Extracting them into one shared spec keeps the two
/// kernels provably on the same algebra — the batch kernel is the scalar
/// algebra applied to `L` codes at once, not a reimplementation with its
/// own constants.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AdderSpec {
    /// The accumulator format.
    pub fmt: FpFormat,
    /// Significand precision `p` (implicit bit included).
    pub p: u32,
    /// Stored significand width `p - 1`.
    pub mbits: u32,
    /// Exponent-field mask (at bit 0).
    pub emask: u64,
    /// Significand-field mask.
    pub mmask: u64,
    /// Magnitude mask: all encoding bits except the sign.
    pub magmask: u64,
    /// The encoding sign bit.
    pub signbit: u64,
    /// ULP exponent of the smallest quantum (`emin - (p - 1)`).
    pub qmin: i32,
    /// Minimum normal exponent.
    pub emin: i32,
    /// Maximum normal exponent.
    pub emax: i32,
    /// Exponent bias.
    pub bias: i32,
    /// Whether subnormals are honoured.
    pub sub: bool,
    /// Alignment width: operand significands are pre-shifted by `f` so
    /// every sticky/rounding bit of the sum is explicit.
    pub f: u32,
    /// Number of stochastic-rounding bits (2 under RN, for the guard +
    /// round positions).
    pub r: u32,
    /// Mask of the `r` rounding bits.
    pub rmask: u64,
}

impl AdderSpec {
    /// Whether this algebra fits the u32 lane word of `batch.rs`: the
    /// pre-shifted significand sum must stay below `2^32` (`p + f + 1`
    /// bits, so `p + f <= 31`), the exponent field must fit the word's
    /// 13-bit field, and the raw encoding carried by special words its
    /// 16 bits. The paper's E6M5 accumulator fits at every `r <= 15`
    /// (SR13: `p + f = 6 + 23 = 29`); an E5M10 accumulator at SR13
    /// (`11 + 28 = 39`) does not, and its engine runs the scalar path.
    pub(crate) fn fits_narrow(&self) -> bool {
        self.p + self.f <= 31 && self.emask <= 0x1FFF && self.fmt.bits() <= 16
    }

    /// Derives the constants, enforcing the fast-path envelope.
    ///
    /// # Panics
    ///
    /// Panics if the format or `r` exceeds the fast-path envelope.
    pub fn new(fmt: FpFormat, mode: AccumRounding) -> Self {
        let p = fmt.precision();
        let r = mode.r();
        assert!(p <= 12, "fast adder supports p <= 12");
        assert!(r <= 24, "fast adder supports r <= 24");
        if let AccumRounding::Stochastic { r } = mode {
            // r = 0 would make the special-value path (golden ops::add,
            // which requires 1..=64 random bits) panic mid-GEMM; reject it
            // at construction like the golden implementation does.
            assert!(r >= 1, "stochastic rounding needs at least 1 random bit");
        }
        let f = r.max(2) + p + 4;
        assert!(2 * p + r + 8 < 64, "fast path must fit u64");
        Self {
            fmt,
            p,
            mbits: fmt.man_bits(),
            emask: mask(fmt.exp_bits()),
            mmask: fmt.man_mask(),
            magmask: mask(fmt.bits() - 1),
            signbit: 1 << (fmt.bits() - 1),
            qmin: fmt.min_quantum(),
            emin: fmt.emin(),
            emax: fmt.emax(),
            bias: fmt.bias(),
            sub: fmt.subnormals(),
            f,
            r,
            rmask: mask(r),
        }
    }
}

/// A fixed-format floating-point adder specialized for narrow formats
/// (`p <= 12`, `E <= 8`, `r <= 24`), operating on encodings in `u64` words.
#[derive(Clone, Copy, Debug)]
pub struct FastAdder {
    spec: AdderSpec,
    mode: AccumRounding,
}

impl FastAdder {
    /// Creates the adder.
    ///
    /// # Panics
    ///
    /// Panics if the format or `r` exceeds the fast-path envelope.
    #[must_use]
    pub fn new(fmt: FpFormat, mode: AccumRounding) -> Self {
        Self {
            spec: AdderSpec::new(fmt, mode),
            mode,
        }
    }

    /// The shared algebra constants (also consumed by `FastAdderBatch`).
    pub(crate) fn spec(&self) -> &AdderSpec {
        &self.spec
    }

    /// The format this adder operates on.
    #[must_use]
    pub fn format(&self) -> FpFormat {
        self.spec.fmt
    }

    /// Adds two encodings with the rounding word `word` (ignored for RN).
    ///
    /// Bit-identical to `srmac_fp::ops::add` with the corresponding mode.
    #[inline]
    #[must_use]
    pub fn add(&self, a: u64, b: u64, word: u64) -> u64 {
        let spec = self.spec;
        let ea = (a >> spec.mbits) & spec.emask;
        let eb = (b >> spec.mbits) & spec.emask;
        if ea == spec.emask || eb == spec.emask {
            return self.add_special(a, b);
        }
        let ma = a & spec.mmask;
        let mb = b & spec.mmask;
        let sa = a & spec.signbit != 0;
        let sb = b & spec.signbit != 0;
        let a_zero = ea == 0 && (ma == 0 || !spec.sub);
        let b_zero = eb == 0 && (mb == 0 || !spec.sub);
        if a_zero || b_zero {
            if a_zero && b_zero {
                return if sa && sb { spec.signbit } else { 0 };
            }
            return if a_zero { b } else { a };
        }

        // ULP-anchored decode (branchless: `hid` is the implicit bit, zero
        // for subnormal encodings, and the subnormal exponent select is a
        // mask-blend — both compile to straight-line code).
        let dec = |e: u64, m: u64| -> (i32, u64) {
            let norm = (e != 0) as u64;
            let exp_norm = e as i32 - spec.bias - spec.mbits as i32;
            let exp = (spec.qmin & (norm as i32 - 1)) | (exp_norm & -(norm as i32));
            (exp, m | (norm << spec.mbits))
        };
        let (expa0, siga0) = dec(ea, ma);
        let (expb0, sigb0) = dec(eb, mb);

        // Magnitude order via the integer-compare trick (same format),
        // selected with explicit arithmetic blends: the comparison is
        // data-dependent and mispredicts constantly in the GEMM inner
        // loop, so no branch (and no compiler-chosen conditional-move
        // lottery) is left on this path.
        let amag = a & spec.magmask;
        let bmag = b & spec.magmask;
        let swap = bmag > amag;
        let sm = (swap as u64).wrapping_neg();
        let smi = -(swap as i32);
        let expa = expa0 ^ ((expa0 ^ expb0) & smi);
        let expb = expa0 ^ expb0 ^ expa;
        let siga = siga0 ^ ((siga0 ^ sigb0) & sm);
        let sigb = siga0 ^ sigb0 ^ siga;
        let na = (sa & !swap) | (sb & swap);
        let nb = sa ^ sb ^ na;
        if amag == bmag && na != nb {
            return 0; // exact cancellation -> +0
        }
        let d = (expa - expb) as u32;

        let x = siga << spec.f;
        let (y, sigma) = if d <= spec.f {
            (sigb << (spec.f - d), false)
        } else {
            let sh = d - spec.f;
            if sh >= 64 {
                (0, sigb != 0)
            } else {
                (sigb >> sh, sigb & mask(sh) != 0)
            }
        };

        // Branch-free effective subtraction (the operand signs are just as
        // data-dependent as the magnitude order):
        // `x - y - sigma == x + !y + (1 - sigma)` in two's complement. For
        // a subtraction the shifted-out tail (sigma) borrows one ULP and
        // leaves a trail of ones; for an addition it is plain sticky.
        let sub = na != nb;
        let subm = (sub as u64).wrapping_neg();
        let s = x
            .wrapping_add(y ^ subm)
            .wrapping_add(subm & (1 - u64::from(sigma)));
        let ones = sub && sigma;
        let extra_sticky = !sub && sigma;
        if s == 0 {
            return 0;
        }
        self.round_pack(na, expa - spec.f as i32, s, ones, extra_sticky, word)
    }

    /// Rounds `(-1)^neg * s * 2^exp` (with optional trailing ones / extra
    /// sticky) into the format. `u64` port of `FpFormat::round_finite`.
    #[inline]
    fn round_pack(
        &self,
        neg: bool,
        exp: i32,
        s: u64,
        ones: bool,
        extra_sticky: bool,
        word: u64,
    ) -> u64 {
        let spec = self.spec;
        let p = spec.p;
        let msb = 63 - s.leading_zeros() as i32;
        let qn = exp + msb - (p as i32 - 1);
        let mut q = if spec.sub { qn.max(spec.qmin) } else { qn };
        let drop = q - exp;

        let (mut kept, up) = if drop <= 0 {
            debug_assert!(!ones, "trailing ones cannot reach the exact path here");
            ((s << (-drop) as u32), false)
        } else {
            let dr = drop as u32;
            debug_assert!(dr < 64);
            let kept = s >> dr;
            let tail = s & mask(dr);
            let up = match self.mode {
                AccumRounding::Nearest => {
                    // Branch-free RN-even decision. The guard bit, the
                    // sticky disjunction and the kept-LSB tiebreak are all
                    // ~coin flips in the accumulation loop, and the
                    // short-circuiting `&&`/`||` chain this used to be
                    // compiled to a ladder of mispredicting branches —
                    // which made RN measurably *slower* than SR despite
                    // doing strictly less work. (`mask(0) == 0`, so the
                    // old `dr >= 2` gate on the sticky term is subsumed.)
                    let guard = (tail >> (dr - 1)) & 1;
                    let rest = u64::from(tail & mask(dr - 1) != 0)
                        | u64::from(ones)
                        | u64::from(extra_sticky);
                    guard & (rest | kept) == 1
                }
                AccumRounding::Stochastic { r } => {
                    let t = if dr >= r {
                        tail >> (dr - r)
                    } else {
                        (tail << (r - dr)) | if ones { mask(r - dr) } else { 0 }
                    };
                    t + (word & spec.rmask) >= 1 << r
                }
            };
            (kept, up)
        };
        // Branch-free round-up and carry renormalization: `up` is a
        // data-dependent coin flip under SR, and the carry (`kept` hitting
        // `1 << p` exactly) is its rare amplification — both mispredict
        // badly as branches in the accumulation loop.
        kept += u64::from(up);
        let carry = (kept >> p) as u32; // 1 iff kept overflowed to 1 << p
        kept >>= carry;
        q += carry as i32;
        let sbit = if neg { spec.signbit } else { 0 };
        if kept == 0 {
            return sbit;
        }
        if kept < 1 << (p - 1) {
            if !spec.sub {
                return sbit;
            }
            return sbit | kept;
        }
        let e = q + p as i32 - 1;
        if e > spec.emax {
            return sbit | (spec.emask << spec.mbits); // infinity
        }
        if e < spec.emin {
            return sbit; // flush (only without subnormals)
        }
        sbit | (((e + spec.bias) as u64) << spec.mbits) | (kept & spec.mmask)
    }

    #[cold]
    fn add_special(&self, a: u64, b: u64) -> u64 {
        let mode = match self.mode {
            AccumRounding::Nearest => srmac_fp::RoundMode::NearestEven,
            AccumRounding::Stochastic { r } => srmac_fp::RoundMode::Stochastic { r, word: 0 },
        };
        srmac_fp::ops::add(self.spec.fmt, a, b, mode)
    }
}

/// A fast, saturating `f32 -> small format` round-to-nearest quantizer.
///
/// Values beyond the largest finite target value clamp to it (the standard
/// FP8 training practice — dynamic loss scaling keeps ranges in check);
/// NaN propagates.
#[derive(Clone, Copy, Debug)]
pub struct FastQuantizer {
    fmt: FpFormat,
    p: u32,
    mbits: u32,
    mmask: u64,
    signbit: u64,
    qmin: i32,
    emin: i32,
    emax: i32,
    bias: i32,
    sub: bool,
    /// Fast normal-range path: enabled when the target's normal range sits
    /// inside the `f32` normal range.
    fast: bool,
    /// `f32` bit pattern of `2^emin` (smallest normal target magnitude).
    fast_lo: u32,
    /// `abs_bits >> fast_shift` of the largest finite target value.
    fast_hi_t: u64,
    /// Bits dropped from an `f32` significand at the target's precision.
    fast_shift: u32,
    /// Exponent-field rebias from `f32` to the target, pre-shifted.
    fast_rebias: u64,
    /// Whether [`FastQuantizer::quantize_block`] may take the 16-wide
    /// AVX-512 lane path (byte-sized target, fast path available, CPU
    /// support detected at construction).
    vect: bool,
}

impl FastQuantizer {
    /// Creates the quantizer.
    ///
    /// # Panics
    ///
    /// Panics for formats beyond the fast-path envelope (`p <= 12`).
    #[must_use]
    pub fn new(fmt: FpFormat) -> Self {
        assert!(fmt.precision() <= 12, "fast quantizer supports p <= 12");
        let p = fmt.precision();
        let fast = fmt.emin() >= -126 && fmt.emax() <= 127;
        let fast_shift = 23 - (p - 1);
        let (fast_lo, fast_hi_t) = if fast {
            let lo = ((fmt.emin() + 127) as u32) << 23;
            // Exact: the largest finite target value has p <= 12 < 24
            // significant bits and an in-range exponent.
            let hi = (fmt.decode_f64(fmt.max_finite_bits(false)) as f32).to_bits();
            (lo, u64::from(hi >> fast_shift))
        } else {
            (0, 0)
        };
        #[cfg(target_arch = "x86_64")]
        let vect = fast && fmt.bits() <= 8 && std::is_x86_feature_detected!("avx512f");
        #[cfg(not(target_arch = "x86_64"))]
        let vect = false;
        Self {
            fmt,
            p,
            mbits: fmt.man_bits(),
            mmask: fmt.man_mask(),
            signbit: 1 << (fmt.bits() - 1),
            qmin: fmt.min_quantum(),
            emin: fmt.emin(),
            emax: fmt.emax(),
            bias: fmt.bias(),
            sub: fmt.subnormals(),
            fast,
            fast_lo,
            fast_hi_t,
            fast_shift,
            fast_rebias: ((127 - fmt.bias()) as u64) << (p - 1),
            vect,
        }
    }

    /// The target format.
    #[must_use]
    pub fn format(&self) -> FpFormat {
        self.fmt
    }

    /// Quantizes one value (round-to-nearest-even, saturating).
    #[inline]
    #[must_use]
    pub fn quantize(&self, x: f32) -> u64 {
        // Fast path for strictly-normal, non-saturating results — the
        // overwhelmingly common case for activations and weights. With the
        // target quantum aligned inside the `f32` significand, exponent
        // and mantissa concatenate monotonically and RN-even reduces to
        // one add on the raw bit pattern (a mantissa carry increments the
        // exponent field natively). NaN/infinity bit patterns exceed
        // `fast_hi_t` and fall through, as do subnormal-range and
        // saturating magnitudes.
        let b = x.to_bits();
        if self.fast {
            let abs = b & 0x7FFF_FFFF;
            if abs >= self.fast_lo {
                let t = u64::from(abs >> self.fast_shift);
                let rem = abs & ((1u32 << self.fast_shift) - 1);
                let half = 1u32 << (self.fast_shift - 1);
                let t = t + u64::from(rem > half || (rem == half && t & 1 == 1));
                if t <= self.fast_hi_t {
                    let sbit = if b >> 31 == 1 { self.signbit } else { 0 };
                    return sbit | (t - self.fast_rebias);
                }
            }
        }
        self.quantize_slow(b)
    }

    /// Quantizes a whole slice into byte codes — [`FastQuantizer::quantize`]
    /// per element, bit-for-bit, but 16 lanes per instruction on AVX-512
    /// for the fast normal-range path (plus exact zeros). Lanes outside
    /// that envelope (subnormal range, saturation, NaN) divert to the
    /// scalar path individually.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ or the format exceeds a byte.
    pub fn quantize_block(&self, xs: &[f32], out: &mut [u8]) {
        assert_eq!(xs.len(), out.len(), "quantize output length mismatch");
        assert!(
            self.fmt.bits() <= 8,
            "byte-code quantization needs <= 8 bits"
        );
        #[cfg(target_arch = "x86_64")]
        if self.vect {
            // SAFETY: `vect` is only set when `avx512f` was detected.
            #[allow(unsafe_code)]
            unsafe {
                self.quantize_block_z(xs, out);
            }
            return;
        }
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.quantize(x) as u8;
        }
    }

    /// The AVX-512 lane path of [`FastQuantizer::quantize_block`]: the
    /// scalar fast path verbatim (truncate, RN-even increment, rebias),
    /// 16 values per iteration, with a zero-lane select and a per-lane
    /// scalar diversion for anything the fast envelope excludes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn quantize_block_z(&self, xs: &[f32], out: &mut [u8]) {
        use std::arch::x86_64::*;
        let b32 = |v: u32| _mm512_set1_epi32(v as i32);
        let absmask = b32(0x7FFF_FFFF);
        let lo = b32(self.fast_lo);
        let hi_t = b32(self.fast_hi_t as u32);
        let half = b32(1 << (self.fast_shift - 1));
        let remmask = b32((1 << self.fast_shift) - 1);
        let rebias = b32(self.fast_rebias as u32);
        let signbit = b32(self.signbit as u32);
        let one = b32(1);
        let shift = _mm_cvtsi32_si128(self.fast_shift as i32);
        let sshift = _mm_cvtsi32_si128(32 - self.fmt.bits() as i32);
        let mut i = 0;
        while i + 16 <= xs.len() {
            // SAFETY: 16 in-bounds `f32`s load as one unaligned vector.
            #[allow(unsafe_code)]
            let b = unsafe { _mm512_loadu_si512(xs.as_ptr().add(i).cast()) };
            let abs = _mm512_and_si512(b, absmask);
            let t = _mm512_srl_epi32(abs, shift);
            let rem = _mm512_and_si512(abs, remmask);
            let kup = _mm512_cmpgt_epu32_mask(rem, half)
                | (_mm512_cmpeq_epu32_mask(rem, half) & _mm512_test_epi32_mask(t, one));
            let t = _mm512_mask_add_epi32(t, kup, t, one);
            let kfast = _mm512_cmpge_epu32_mask(abs, lo) & _mm512_cmple_epu32_mask(t, hi_t);
            let kzero = _mm512_testn_epi32_mask(abs, abs);
            let sbit = _mm512_and_si512(_mm512_srl_epi32(b, sshift), signbit);
            let code = _mm512_or_si512(sbit, _mm512_sub_epi32(t, rebias));
            let code = _mm512_mask_mov_epi32(code, kzero, sbit);
            // SAFETY: 16 in-bounds output bytes; `vpmovdb` narrows the
            // 16 lanes (codes fit a byte by the `bits <= 8` guard).
            #[allow(unsafe_code)]
            unsafe {
                _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), _mm512_cvtepi32_epi8(code));
            }
            let mut kslow = !(kfast | kzero);
            while kslow != 0 {
                let l = kslow.trailing_zeros() as usize;
                out[i + l] = self.quantize(xs[i + l]) as u8;
                kslow &= kslow - 1;
            }
            i += 16;
        }
        for (o, &x) in out[i..].iter_mut().zip(&xs[i..]) {
            *o = self.quantize(x) as u8;
        }
    }

    /// The general path: subnormal and flush-to-zero range, saturation,
    /// NaN, and formats whose range exceeds `f32` normals.
    fn quantize_slow(&self, b: u32) -> u64 {
        let sbit = if b >> 31 == 1 { self.signbit } else { 0 };
        let abs = b & 0x7FFF_FFFF;
        if abs >= 0x7F80_0000 {
            if abs > 0x7F80_0000 {
                return self.fmt.nan_bits();
            }
            return sbit | self.fmt.max_finite_bits(false); // saturate infinity
        }
        if abs == 0 {
            return sbit;
        }
        let e = (abs >> 23) as i32;
        let m = u64::from(abs) & 0x7F_FFFF;
        let (sig, exp) = if e == 0 {
            (m, -149)
        } else {
            (m | 0x80_0000, e - 150)
        };

        // Round-to-nearest-even at the target quantum.
        let msb = 63 - sig.leading_zeros() as i32;
        let qn = exp + msb - (self.p as i32 - 1);
        let mut q = if self.sub { qn.max(self.qmin) } else { qn };
        let drop = q - exp;
        let mut kept = if drop <= 0 {
            if -drop >= 64 {
                0
            } else {
                sig << (-drop) as u32
            }
        } else if drop >= 64 {
            0
        } else {
            let dr = drop as u32;
            let kept = sig >> dr;
            let tail = sig & mask(dr);
            let guard = (tail >> (dr - 1)) & 1 == 1;
            let sticky = dr >= 2 && tail & mask(dr - 1) != 0;
            kept + u64::from(guard && (sticky || kept & 1 == 1))
        };
        if kept == 1 << self.p {
            kept >>= 1;
            q += 1;
        }
        if kept == 0 {
            return sbit;
        }
        if kept < 1 << (self.p - 1) {
            if !self.sub {
                return sbit;
            }
            return sbit | kept;
        }
        let e_res = q + self.p as i32 - 1;
        if e_res > self.emax {
            return sbit | self.fmt.max_finite_bits(false); // saturate
        }
        if e_res < self.emin {
            return sbit;
        }
        sbit | (((e_res + self.bias) as u64) << self.mbits) | (kept & self.mmask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srmac_fp::{ops, RoundMode};
    use srmac_rng::SplitMix64;

    #[test]
    fn fast_add_vs_golden_e6m5_exhaustive() {
        for sub in [true, false] {
            let fmt = FpFormat::e6m5().with_subnormals(sub);
            for (mode, words) in [
                (AccumRounding::Nearest, vec![0u64]),
                (AccumRounding::Stochastic { r: 9 }, vec![0u64, 0x0F3, 0x1FF]),
                (AccumRounding::Stochastic { r: 13 }, vec![0u64, 0x1ACE]),
            ] {
                let fast = FastAdder::new(fmt, mode);
                for a in fmt.iter_encodings() {
                    for b in fmt.iter_encodings() {
                        for &w in &words {
                            let gold_mode = match mode {
                                AccumRounding::Nearest => RoundMode::NearestEven,
                                AccumRounding::Stochastic { r } => {
                                    RoundMode::Stochastic { r, word: w }
                                }
                            };
                            let want = ops::add(fmt, a, b, gold_mode);
                            let got = fast.add(a, b, w);
                            // NaN payloads: both canonicalize.
                            assert_eq!(got, want, "{fmt} {mode:?}: {a:#x}+{b:#x} w={w:#x}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_add_vs_golden_wider_formats_random() {
        let mut rng = SplitMix64::new(42);
        for fmt in [
            FpFormat::e5m10(),
            FpFormat::e8m7(),
            FpFormat::e8m7().with_subnormals(false),
        ] {
            let r = fmt.precision() + 3;
            let fast = FastAdder::new(fmt, AccumRounding::Stochastic { r });
            for _ in 0..200_000 {
                let a = rng.next_u64() & fmt.bits_mask();
                let b = rng.next_u64() & fmt.bits_mask();
                let w = rng.next_u64() & mask(r);
                let want = ops::add(fmt, a, b, RoundMode::Stochastic { r, word: w });
                assert_eq!(fast.add(a, b, w), want, "{fmt}: {a:#x}+{b:#x} w={w:#x}");
            }
        }
    }

    #[test]
    fn fast_quantize_vs_golden_random_and_edges() {
        let mut rng = SplitMix64::new(77);
        for fmt in [
            FpFormat::e5m2(),
            FpFormat::e5m2().with_subnormals(false),
            FpFormat::e4m3(),
            FpFormat::e6m5(),
        ] {
            let q = FastQuantizer::new(fmt);
            let check = |x: f32| {
                let got = q.quantize(x);
                let gold = fmt.quantize_f32(x, RoundMode::NearestEven);
                let want = if fmt.is_inf(gold.bits) {
                    // The fast quantizer saturates instead of overflowing.
                    let neg = x < 0.0;
                    fmt.max_finite_bits(neg)
                } else {
                    gold.bits
                };
                if x.is_nan() {
                    assert!(fmt.is_nan(got));
                } else {
                    assert_eq!(got, want, "{fmt}: quantize({x})");
                }
            };
            for x in [
                0.0f32,
                -0.0,
                1.0,
                -1.0,
                0.1,
                -0.1,
                1e9,
                -1e9,
                1e-9,
                -1e-9,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN_POSITIVE,
                6e-8,
            ] {
                check(x);
            }
            for _ in 0..300_000 {
                check(f32::from_bits(rng.next_u64() as u32));
            }
            // Dense coverage around the format's own grid.
            for bits in fmt.iter_encodings() {
                if fmt.is_nan(bits) || fmt.is_inf(bits) {
                    continue;
                }
                let v = fmt.decode_f64(bits) as f32;
                check(v);
                check(v * (1.0 + 1e-3));
                check(v * (1.0 - 1e-3));
            }
        }
    }
}
