//! RTL-faithful floating-point adder models: round-to-nearest (RN), lazy
//! stochastic rounding, and the paper's eager stochastic rounding design.
//!
//! All three share a dual-path skeleton (paper Sec. III-A, footnote 1):
//! operands are swapped so `|x| >= |y|`, and the exponent distance `d`
//! selects the **close path** (`d <= 1`, where effective subtraction can
//! cancel many leading bits and a leading-zero detector normalizes the
//! result) or the **far path** (`d >= 2`, where normalization is a shift by
//! at most one position but alignment sheds tail bits that rounding must
//! see). The three designs differ only in how the far-path rounding carry is
//! produced:
//!
//! - **RN** ([`RoundingDesign::Nearest`]): guard/sticky bits, ties to even;
//! - **lazy SR** ([`RoundingDesign::SrLazy`], Fig. 3a): after normalization,
//!   an `r`-bit random word is added to the top `r` discarded bits; the
//!   carry out increments the result. The normalization/LZD datapath must be
//!   `p + r` bits wide;
//! - **eager SR** ([`RoundingDesign::SrEager`], Fig. 3b/4): a *Sticky Round*
//!   block adds the `r-2` low random bits to the alignment tail in parallel
//!   with the main addition, and a 2-bit *Round Correction* after the
//!   (`p + 2`-bit) normalization combines the two top random bits, the two
//!   first discarded bits, and the sticky-round carry selected by the
//!   normalization case.
//!
//! Every design is verified bit-for-bit against the golden arithmetic of
//! [`srmac_fp::ops`] (and the lazy and exact-eager designs against each
//! other) over exhaustive and property-based input sets.

mod far;

use srmac_fp::{mask, FpFormat, FpValue, RoundMode};

pub(crate) use far::far_path;

/// Rounding design of an adder/MAC, in the paper's configuration space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundingDesign {
    /// IEEE round-to-nearest-even (the paper's RN baseline).
    Nearest,
    /// Classic stochastic rounding after normalization (Fig. 3a).
    SrLazy {
        /// Number of random bits.
        r: u32,
    },
    /// The paper's reduced-latency eager stochastic rounding (Fig. 3b).
    SrEager {
        /// Number of random bits.
        r: u32,
        /// Round-correction carry selection (see [`EagerCorrection`]).
        correction: EagerCorrection,
    },
}

impl RoundingDesign {
    /// The number of random bits consumed per operation (0 for RN).
    #[must_use]
    pub fn random_bits(&self) -> u32 {
        match self {
            RoundingDesign::Nearest => 0,
            RoundingDesign::SrLazy { r } | RoundingDesign::SrEager { r, .. } => *r,
        }
    }

    /// The paper's default number of random bits for a format, `r = p + 3`,
    /// "to align with the IEEE-754 definition of RN, ensuring consistency in
    /// the number of bits retained after shifting" (Sec. III-C).
    #[must_use]
    pub fn default_r(fmt: FpFormat) -> u32 {
        fmt.precision() + 3
    }
}

/// How the eager design derives the sticky-round carry used by the Round
/// Correction stage (the paper's `S'1`/`S'2` selection).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EagerCorrection {
    /// The Sticky Round block produces the boundary carry for each possible
    /// normalization window (a carry-select over the one-bit alignment
    /// uncertainty). Bit-exactly equivalent to the lazy design for every
    /// input and random word; this is the reading the `far` module docs
    /// (`adder/far.rs`) derive and the `validate_eager` binary of
    /// `srmac-bench` checks, the one the authors' validated RTL must
    /// implement.
    #[default]
    Exact,
    /// Literal prose reading: a single sticky addition; the shifted
    /// normalization cases reuse its *sum bits* (`S'2`, ...) as the carry.
    /// Provably biased in the shifted cases (demonstrated in tests); kept as
    /// an ablation.
    SumBit,
}

/// Which datapath produced a result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PathTaken {
    /// Special-value bypass (NaN/Inf/zero operands).
    #[default]
    Special,
    /// Close path: `|ex - ey| <= 1`, LZD normalization.
    Close,
    /// Far path: `|ex - ey| >= 2`, alignment tail + 1-bit normalization.
    Far,
}

/// Trace of the eager design's Sticky Round stage (Fig. 3b "Sticky Round"
/// and Fig. 4 "Round Correction" inputs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StickyRoundTrace {
    /// Low `r-2` random bits added to the alignment tail.
    pub rlow: u64,
    /// Boundary carries for the three normalization windows
    /// (index 0 = carry/no-shift, 1 = one-bit shift, 2 = two-bit shift).
    pub carries: [bool; 3],
    /// Which window the Round Correction selected (0/1/2).
    pub selected: u8,
    /// The two top random bits `R1 R2`.
    pub r_top2: u8,
}

/// Stage-by-stage record of one addition, for inspection and the
/// `adder_trace` example. Fields not exercised by the taken path are zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdderTrace {
    /// Datapath taken.
    pub path: PathTaken,
    /// Whether the operands were swapped so that `|x| >= |y|`.
    pub swapped: bool,
    /// Effective operation is a subtraction (signs differ).
    pub effective_sub: bool,
    /// Exponent distance after the swap.
    pub d: u32,
    /// Alignment shifted bits out past the modelled tail window (compressed
    /// into a sticky contribution).
    pub sigma: bool,
    /// Alignment tail window (`r` bits, MSB first) after the effective-
    /// subtraction complement.
    pub tau: u64,
    /// Main adder output (window positions `0 ..= p+1`).
    pub s_main: u64,
    /// Discarded-bit count taken from the main sum (0, 1 or 2); encodes the
    /// normalization case (2 = carry, 1 = none, 0 = one-bit cancellation).
    pub drop: u32,
    /// Result significand before rounding increment.
    pub kept: u64,
    /// Top `r` discarded bits (the lazy design's rounding-adder operand).
    pub tail_t: u64,
    /// Sticky OR of discarded bits beyond the guard (RN view).
    pub sticky: bool,
    /// The random word consumed (0 for RN).
    pub round_word: u64,
    /// Final rounding increment.
    pub round_carry: bool,
    /// Eager Sticky Round stage, when the eager design ran.
    pub sticky_round: Option<StickyRoundTrace>,
    /// Result encoding.
    pub result: u64,
}

/// A floating-point adder of a fixed format and rounding design.
///
/// # Examples
///
/// ```
/// use srmac_core::{FpAdder, RoundingDesign, EagerCorrection};
/// use srmac_fp::FpFormat;
///
/// let fmt = FpFormat::e6m5();
/// let eager = FpAdder::new(fmt, RoundingDesign::SrEager {
///     r: 9,
///     correction: EagerCorrection::Exact,
/// });
/// let one = fmt.quantize_f64(1.0, srmac_fp::RoundMode::NearestEven).bits;
/// let tiny = fmt.quantize_f64(2f64.powi(-9), srmac_fp::RoundMode::NearestEven).bits;
/// // With eps = 2^-4 ULP, the word 0x1F0 (= 496 >= 512 - 32) rounds up.
/// let up = eager.add(one, tiny, 0x1F0);
/// assert!(fmt.decode_f64(up) > 1.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FpAdder {
    fmt: FpFormat,
    design: RoundingDesign,
}

impl FpAdder {
    /// Creates an adder.
    ///
    /// # Panics
    ///
    /// Panics if an SR design requests fewer than 1 (lazy) / 3 (eager) or
    /// more than 60 random bits, or (for [`EagerCorrection::SumBit`]) fewer
    /// than 5.
    #[must_use]
    pub fn new(fmt: FpFormat, design: RoundingDesign) -> Self {
        match design {
            RoundingDesign::Nearest => {}
            RoundingDesign::SrLazy { r } => {
                assert!((1..=60).contains(&r), "lazy SR needs 1..=60 random bits");
            }
            RoundingDesign::SrEager { r, correction } => {
                assert!((3..=60).contains(&r), "eager SR needs 3..=60 random bits");
                if correction == EagerCorrection::SumBit {
                    assert!(r >= 5, "the SumBit ablation needs r >= 5");
                }
            }
        }
        Self { fmt, design }
    }

    /// The operand/result format.
    #[must_use]
    pub fn format(&self) -> FpFormat {
        self.fmt
    }

    /// The rounding design.
    #[must_use]
    pub fn design(&self) -> RoundingDesign {
        self.design
    }

    /// Adds two encodings, consuming `word` as the random rounding word
    /// (ignored by the RN design).
    #[must_use]
    pub fn add(&self, a: u64, b: u64, word: u64) -> u64 {
        self.add_traced(a, b, word).0
    }

    /// Adds two encodings and returns the full datapath trace.
    #[must_use]
    pub fn add_traced(&self, a: u64, b: u64, word: u64) -> (u64, AdderTrace) {
        let fmt = self.fmt;
        let mut trace = AdderTrace {
            round_word: word,
            ..AdderTrace::default()
        };

        if let Some(bits) = add_specials(fmt, a, b) {
            trace.result = bits;
            return (bits, trace);
        }

        // Decode to ULP-anchored integer significands.
        let (na, ea, sa) = finite_parts(fmt, a);
        let (nb, eb, sb) = finite_parts(fmt, b);

        // Swap so x has the larger magnitude.
        let swap = fmt.decode(a).cmp_mag(&fmt.decode(b)) == std::cmp::Ordering::Less;
        let (nx, ex, mx, ny, ey, my) = if swap {
            (nb, eb, sb, na, ea, sa)
        } else {
            (na, ea, sa, nb, eb, sb)
        };
        trace.swapped = swap;
        let sub = nx != ny;
        trace.effective_sub = sub;
        let d = (ex - ey) as u32;
        trace.d = d;

        if d <= 1 {
            trace.path = PathTaken::Close;
            let bits = close_path(fmt, self.design, nx, ex, mx, sub, d, my, word, &mut trace);
            trace.result = bits;
            (bits, trace)
        } else {
            trace.path = PathTaken::Far;
            let bits = far_path(fmt, self.design, nx, ex, mx, sub, d, my, word, &mut trace);
            trace.result = bits;
            (bits, trace)
        }
    }
}

/// IEEE special-value handling shared by all designs; returns `Some` when a
/// bypass result applies. Matches `srmac_fp::ops::add_full` exactly.
pub(crate) fn add_specials(fmt: FpFormat, a: u64, b: u64) -> Option<u64> {
    let va = fmt.decode(a);
    let vb = fmt.decode(b);
    if va.is_nan() || vb.is_nan() {
        return Some(fmt.nan_bits());
    }
    match (va, vb) {
        (FpValue::Inf { neg: n1 }, FpValue::Inf { neg: n2 }) => Some(if n1 == n2 {
            fmt.inf_bits(n1)
        } else {
            fmt.nan_bits()
        }),
        (FpValue::Inf { neg }, _) | (_, FpValue::Inf { neg }) => Some(fmt.inf_bits(neg)),
        (FpValue::Zero { neg: n1 }, FpValue::Zero { neg: n2 }) => Some(fmt.zero_bits(n1 && n2)),
        (FpValue::Zero { .. }, FpValue::Finite { .. }) => Some(b & fmt.bits_mask()),
        (FpValue::Finite { .. }, FpValue::Zero { .. }) => Some(a & fmt.bits_mask()),
        _ => None,
    }
}

/// Decodes a finite encoding into `(negative, ulp_exponent, significand)`.
pub(crate) fn finite_parts(fmt: FpFormat, bits: u64) -> (bool, i32, u64) {
    match fmt.decode(bits) {
        FpValue::Finite { neg, exp, sig } => (neg, exp, sig as u64),
        v => panic!("finite_parts on non-finite value {v:?}"),
    }
}

/// Close path (`d <= 1`): exact small integer arithmetic, LZD normalization
/// clamped at the subnormal exponent floor, and at most two discarded bits.
/// With so short a tail, the lazy and eager rounding dataflows coincide; a
/// single implementation serves every design (the far path is where they
/// diverge — see [`far`]).
#[allow(clippy::too_many_arguments)]
fn close_path(
    fmt: FpFormat,
    design: RoundingDesign,
    neg: bool,
    ex: i32,
    mx: u64,
    sub: bool,
    d: u32,
    my: u64,
    word: u64,
    trace: &mut AdderTrace,
) -> u64 {
    let p = fmt.precision();
    // One fractional position suffices: units of 2^(ex - 1).
    #[expect(
        clippy::expect_used,
        reason = "precision is bounded far below 63 bits, so the shifted significand fits i64"
    )]
    let x = i64::try_from(mx << 1).expect("significand fits");
    #[expect(
        clippy::expect_used,
        reason = "precision is bounded far below 63 bits, so the shifted significand fits i64"
    )]
    let y = i64::try_from(my << (1 - d)).expect("significand fits");
    let s = if sub { x - y } else { x + y };
    debug_assert!(s >= 0, "operands were magnitude-ordered");
    if s == 0 {
        // Exact cancellation: +0 under round-to-nearest conventions.
        return fmt.zero_bits(false);
    }
    let s = s as u64;
    let q0 = ex - 1;
    let msb = 63 - s.leading_zeros() as i32;
    let q_nat = q0 + msb - (p as i32 - 1);
    let q = if fmt.subnormals() {
        q_nat.max(fmt.min_quantum())
    } else {
        q_nat
    };
    let drop = q - q0;
    debug_assert!(drop <= 2, "close path discards at most two bits");
    let (kept, tail, tail_len) = if drop <= 0 {
        (s << (-drop) as u32, 0u64, 0u32)
    } else {
        let dr = drop as u32;
        (s >> dr, s & mask(dr), dr)
    };
    trace.s_main = s;
    trace.drop = drop.max(0) as u32;
    trace.kept = kept;

    let r = design.random_bits().max(1);
    // Left-align the tail into an r-bit rounding field.
    let t = if tail_len <= r {
        tail << (r - tail_len)
    } else {
        tail >> (tail_len - r)
    };
    let guard = tail_len > 0 && (tail >> (tail_len - 1)) & 1 == 1;
    let sticky = tail_len > 1 && tail & mask(tail_len - 1) != 0;
    trace.tail_t = t;
    trace.sticky = sticky;

    let carry = match design {
        RoundingDesign::Nearest => guard && (sticky || kept & 1 == 1),
        RoundingDesign::SrLazy { r } | RoundingDesign::SrEager { r, .. } => {
            u128::from(t) + u128::from(word & mask(r)) >= (1u128 << r)
        }
    };
    trace.round_carry = carry;
    pack_result(fmt, neg, kept + u64::from(carry), q)
}

/// Packs a rounded `(kept, quantum)` pair into the format, handling the
/// significand overflow of the rounding increment, the subnormal range, the
/// without-subnormals flush, and exponent overflow to infinity.
pub(crate) fn pack_result(fmt: FpFormat, neg: bool, kept: u64, q: i32) -> u64 {
    let p = fmt.precision();
    let (kept, q) = if kept == 1 << p {
        (kept >> 1, q + 1)
    } else {
        (kept, q)
    };
    debug_assert!(kept < 1 << p);
    if kept == 0 {
        return fmt.zero_bits(neg);
    }
    if kept < 1 << (p - 1) {
        // Subnormal magnitude.
        if !fmt.subnormals() {
            return fmt.zero_bits(neg);
        }
        debug_assert_eq!(q, fmt.min_quantum());
        return fmt.pack(neg, 0, kept);
    }
    let e = q + p as i32 - 1;
    if e > fmt.emax() {
        return fmt.inf_bits(neg);
    }
    if e < fmt.emin() {
        debug_assert!(!fmt.subnormals());
        return fmt.zero_bits(neg);
    }
    fmt.pack(neg, (e + fmt.bias()) as u64, kept & fmt.man_mask())
}

/// Convenience: the golden-model rounding mode matching a design and word.
#[must_use]
pub fn golden_mode(design: RoundingDesign, word: u64) -> RoundMode {
    match design {
        RoundingDesign::Nearest => RoundMode::NearestEven,
        RoundingDesign::SrLazy { r } | RoundingDesign::SrEager { r, .. } => {
            RoundMode::Stochastic { r, word }
        }
    }
}
