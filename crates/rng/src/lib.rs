//! # srmac-rng: random bit sources for stochastic rounding
//!
//! The paper's MAC design is completed by "a r-bit pseudo-random number
//! generator (PRNG) that operates in parallel and asynchronously with the
//! multiplier ... based on a Galois linear feedback shift register (LFSR)"
//! (Sec. III). This crate models that block: [`GaloisLfsr`] is a
//! bit-faithful Galois LFSR with maximal-length taps for every width from
//! 4 to 64, and [`SplitMix64`] is a fast software generator used for
//! seeding, data generation and tests.
//!
//! Both implement [`RandomBits`], the interface the adder/MAC models and
//! the GEMM engine draw their rounding words from.
//!
//! # Example
//!
//! ```
//! use srmac_rng::{GaloisLfsr, RandomBits};
//!
//! let mut lfsr = GaloisLfsr::new(13, 0x1ABC);
//! let w1 = lfsr.next_bits(13);
//! let w2 = lfsr.next_bits(13);
//! assert!(w1 < 1 << 13 && w2 < 1 << 13);
//! assert_ne!((w1, w2), (0, 0)); // a nonzero-seeded LFSR never reaches 0
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

/// A source of uniformly distributed random words of a requested width.
pub trait RandomBits {
    /// Returns the next `n`-bit random word (`1 <= n <= 64`) in the low bits.
    fn next_bits(&mut self, n: u32) -> u64;
}

/// Build-invariant scalar transcendentals.
///
/// IEEE-754 pins `+ - * / sqrt` exactly, but `exp`/`ln`/`sin`/`cos` are
/// library approximations — and when the autovectorizer widens a loop over
/// them it may substitute the C library's SIMD variants (libmvec), whose
/// results differ from scalar libm by a few ULPs. That would make f32
/// training results (and therefore the golden-vector `History` tests)
/// depend on the build's target features. Every transcendental on a
/// deterministic data path must go through these `#[inline(never)]`
/// wrappers instead: an opaque scalar call the vectorizer cannot replace,
/// so the same seeds produce the same bits under `-C target-cpu=native`,
/// plain x86-64, or any feature matrix in between.
pub mod scalar_math {
    /// Scalar `exp` for `f32`.
    #[inline(never)]
    #[must_use]
    pub fn exp_f32(x: f32) -> f32 {
        x.exp()
    }

    /// Scalar `ln` for `f32`.
    #[inline(never)]
    #[must_use]
    pub fn ln_f32(x: f32) -> f32 {
        x.ln()
    }

    /// Scalar `ln` for `f64`.
    #[inline(never)]
    #[must_use]
    pub fn ln_f64(x: f64) -> f64 {
        x.ln()
    }

    /// Scalar `sin` for `f64`.
    #[inline(never)]
    #[must_use]
    pub fn sin_f64(x: f64) -> f64 {
        x.sin()
    }

    /// Scalar `cos` for `f64`.
    #[inline(never)]
    #[must_use]
    pub fn cos_f64(x: f64) -> f64 {
        x.cos()
    }
}

/// Maximal-length feedback polynomials (taps) for Galois LFSRs of width
/// 4..=64. Entry `w - 4` is the tap mask for width `w`: the XOR mask applied
/// when the shifted-out bit is 1. Source: standard tables of primitive
/// polynomials over GF(2) (Xilinx XAPP052 and successors).
const TAPS: [u64; 61] = [
    0x9,                // 4: x^4 + x^3 + 1
    0x12,               // 5
    0x21,               // 6
    0x41,               // 7
    0x8E,               // 8
    0x108,              // 9
    0x204,              // 10
    0x402,              // 11
    0x829,              // 12
    0x100D,             // 13
    0x2015,             // 14
    0x4001,             // 15
    0x8016,             // 16
    0x10004,            // 17
    0x20013,            // 18
    0x40013,            // 19
    0x80004,            // 20
    0x100002,           // 21
    0x200001,           // 22
    0x400010,           // 23
    0x80000D,           // 24
    0x1000004,          // 25
    0x2000023,          // 26
    0x4000013,          // 27
    0x8000004,          // 28
    0x10000002,         // 29
    0x20000029,         // 30
    0x40000004,         // 31
    0x80000057,         // 32
    0x100000029,        // 33
    0x200000073,        // 34
    0x400000002,        // 35
    0x80000003B,        // 36
    0x100000001F,       // 37
    0x2000000031,       // 38
    0x4000000008,       // 39
    0x800000001C,       // 40
    0x10000000004,      // 41
    0x2000000001F,      // 42
    0x4000000002C,      // 43
    0x80000000032,      // 44
    0x10000000000D,     // 45
    0x200000000097,     // 46
    0x400000000010,     // 47
    0x80000000005B,     // 48
    0x1000000000038,    // 49
    0x200000000000E,    // 50
    0x4000000000025,    // 51
    0x8000000000004,    // 52
    0x10000000000023,   // 53
    0x2000000000003E,   // 54
    0x40000000000023,   // 55
    0x8000000000004A,   // 56
    0x100000000000016,  // 57
    0x200000000000031,  // 58
    0x40000000000003D,  // 59
    0x800000000000001,  // 60
    0x1000000000000013, // 61
    0x2000000000000034, // 62
    0x4000000000000001, // 63
    0x800000000000000D, // 64
];

/// A Galois linear feedback shift register with maximal-length taps.
///
/// The register holds `width` bits and never reaches the all-zero state
/// from a nonzero seed; its sequence period is `2^width - 1`.
///
/// One hardware step produces one output bit (the LSB before the shift);
/// [`RandomBits::next_bits`] steps `n` times and packs the bits MSB-first,
/// mirroring a serial-to-parallel collection register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaloisLfsr {
    state: u64,
    width: u32,
    taps: u64,
}

impl GaloisLfsr {
    /// Creates an LFSR of the given width (4..=64), seeded with `seed`.
    ///
    /// A zero (or all-masked-zero) seed is replaced by a fixed nonzero
    /// constant, since the all-zero state is a fixed point.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `4..=64`.
    #[must_use]
    pub fn new(width: u32, seed: u64) -> Self {
        assert!((4..=64).contains(&width), "LFSR width must be in 4..=64");
        let m = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mut state = seed & m;
        if state == 0 {
            state = 0x5A5A_5A5A_5A5A_5A5A & m;
        }
        if state == 0 {
            state = 1;
        }
        Self {
            state,
            width,
            taps: TAPS[(width - 4) as usize],
        }
    }

    /// The register width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The current register state.
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Advances the register one step, returning the output bit.
    pub fn step(&mut self) -> u64 {
        let out = self.state & 1;
        self.state >>= 1;
        if out == 1 {
            self.state ^= self.taps;
        }
        out
    }
}

impl RandomBits for GaloisLfsr {
    fn next_bits(&mut self, n: u32) -> u64 {
        assert!((1..=64).contains(&n), "can draw 1..=64 bits");
        let mut w = 0u64;
        for _ in 0..n {
            w = (w << 1) | self.step();
        }
        w
    }
}

/// The SplitMix64 state increment (Weyl constant, Steele et al.).
///
/// Public so that vectorized reimplementations of the stream (the AVX-512
/// MAC kernel in `srmac-qgemm`) stay pinned to the exact same sequence.
pub const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: the stateless bijective mix applied to
/// the Weyl-sequence state. Shared by [`SplitMix64`] and [`SrLaneStreams`]
/// so both produce bit-identical words from the same seed.
#[inline]
#[must_use]
const fn splitmix_finalize(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: a tiny, high-quality software PRNG (Steele et al.), used for
/// seeding LFSRs, synthetic data generation and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The current generator state. `SplitMix64::new(state)` reconstructs
    /// a generator that continues the exact same word sequence — the hook
    /// checkpoint/resume paths use to persist and verify RNG positions.
    #[inline]
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Returns the next 64-bit word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX_GAMMA);
        splitmix_finalize(self.state)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * 2f64.powi(-53)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * 2f32.powi(-24)
    }

    /// Returns a standard normal sample (Box–Muller). Transcendentals go
    /// through [`scalar_math`] so the sample bits are build-invariant.
    pub fn next_normal(&mut self) -> f64 {
        let u1 = (self.next_f64()).max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * scalar_math::ln_f64(u1)).sqrt() * scalar_math::cos_f64(std::f64::consts::TAU * u2)
    }

    /// Returns a uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        // Rejection-free multiply-shift; bias is negligible for n << 2^64.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

impl RandomBits for SplitMix64 {
    fn next_bits(&mut self, n: u32) -> u64 {
        assert!((1..=64).contains(&n), "can draw 1..=64 bits");
        self.next_u64() >> (64 - n)
    }
}

/// `L` independent SplitMix64-equivalent rounding-word streams advanced
/// together — the random-bit block generator behind the lane-batched MAC
/// kernel of `srmac-qgemm`.
///
/// Each lane reproduces, bit for bit, the word sequence of
/// `SplitMix64::new(seeds[lane])`: the SplitMix64 state walk is a Weyl
/// sequence (`state_n = seed + n * GAMMA`), so the `n`-th word is a pure
/// function of the seed and a counter. That removes the serial state
/// dependency a per-draw `next_u64` loop carries: a whole block of words
/// (across lanes *and* positions) is computed from independent counter
/// values, which the compiler can unroll and vectorize freely.
///
/// Two consumption shapes are offered:
///
/// - [`SrLaneStreams::draw`] computes the next word of every lane and
///   advances only the lanes the caller marks as consuming — the shape of
///   the GEMM inner loop, where a lane consumes a rounding word only for a
///   non-zero product (the SR determinism contract: one word per non-zero
///   product, in `k` order, per output element).
/// - [`SrLaneStreams::fill_block`] fills a `block[t][lane]` buffer in one
///   pass with every lane advancing — batch amortization for
///   always-consuming workloads (statistical tests, the golden rounder).
///
/// # Example
///
/// ```
/// use srmac_rng::{SplitMix64, SrLaneStreams};
///
/// let mut lanes = SrLaneStreams::new([7u64, 11]);
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(11);
/// // Lane 0 consumes both draws, lane 1 only the second.
/// let w0 = lanes.draw([true, false]);
/// let w1 = lanes.draw([true, true]);
/// assert_eq!([w0[0], w1[0]], [a.next_u64(), a.next_u64()]);
/// assert_eq!(w0[1], w1[1]); // an unconsumed word is offered again
/// assert_eq!(w1[1], b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrLaneStreams<const L: usize> {
    states: [u64; L],
}

impl<const L: usize> SrLaneStreams<L> {
    /// Creates the lane streams; lane `l` replays `SplitMix64::new(seeds[l])`.
    #[inline]
    #[must_use]
    pub fn new(seeds: [u64; L]) -> Self {
        Self { states: seeds }
    }

    /// Returns the next word of every lane and advances the lanes with
    /// `consume[lane]` set. A lane that does not consume is offered the
    /// same word on the next call — exactly the behaviour of calling
    /// `next_u64` only on consuming steps.
    #[inline]
    pub fn draw(&mut self, consume: [bool; L]) -> [u64; L] {
        let mut words = [0u64; L];
        for l in 0..L {
            let stepped = self.states[l].wrapping_add(SPLITMIX_GAMMA);
            words[l] = splitmix_finalize(stepped);
            // Branch-free commit: keep the old state on non-consuming lanes.
            let keep = (consume[l] as u64).wrapping_neg();
            self.states[l] = (stepped & keep) | (self.states[l] & !keep);
        }
        words
    }

    /// Fills `block[t][lane]` with the next `block.len()` words of every
    /// lane (all lanes advance). Each output is computed directly from
    /// `seed + (t + 1) * GAMMA` — no serial dependency between positions,
    /// so the whole block is one flat, vectorizable pass.
    pub fn fill_block(&mut self, block: &mut [[u64; L]]) {
        for (t, row) in block.iter_mut().enumerate() {
            let step = (t as u64 + 1).wrapping_mul(SPLITMIX_GAMMA);
            for (word, state) in row.iter_mut().zip(&self.states) {
                *word = splitmix_finalize(state.wrapping_add(step));
            }
        }
        let advance = (block.len() as u64).wrapping_mul(SPLITMIX_GAMMA);
        for state in &mut self.states {
            *state = state.wrapping_add(advance);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_periods_are_maximal_for_small_widths() {
        for width in 4..=16u32 {
            let mut l = GaloisLfsr::new(width, 1);
            let start = l.state();
            let mut period = 0u64;
            loop {
                l.step();
                period += 1;
                if l.state() == start {
                    break;
                }
                assert!(period <= 1 << width, "width {width}: period too long");
            }
            assert_eq!(period, (1 << width) - 1, "width {width}");
        }
    }

    #[test]
    fn lfsr_never_hits_zero() {
        let mut l = GaloisLfsr::new(13, 12345);
        for _ in 0..100_000 {
            l.step();
            assert_ne!(l.state(), 0);
        }
    }

    #[test]
    fn lfsr_zero_seed_is_fixed_up() {
        let l = GaloisLfsr::new(8, 0);
        assert_ne!(l.state(), 0);
    }

    #[test]
    fn lfsr_bits_are_roughly_balanced() {
        // Over a full period the number of 1 output bits is 2^(w-1).
        let width = 12u32;
        let mut l = GaloisLfsr::new(width, 7);
        let mut ones = 0u64;
        for _ in 0..((1u64 << width) - 1) {
            ones += l.step();
        }
        assert_eq!(ones, 1 << (width - 1));
    }

    #[test]
    fn lfsr_words_cover_range_roughly_uniformly() {
        let mut l = GaloisLfsr::new(16, 0xACE1);
        let n = 64 * 1024;
        let mut buckets = [0u32; 16];
        for _ in 0..n {
            let w = l.next_bits(8);
            buckets[(w >> 4) as usize] += 1;
        }
        let expect = n as f64 / 16.0;
        for (i, &c) in buckets.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(dev < 0.1, "bucket {i}: count {c} deviates {dev:.3}");
        }
    }

    #[test]
    fn splitmix_next_below_in_range() {
        let mut g = SplitMix64::new(42);
        for _ in 0..10_000 {
            assert!(g.next_below(10) < 10);
        }
    }

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(7);
            (0..16).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::new(7);
            (0..16).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut g = SplitMix64::new(8);
            (0..16).map(|_| g.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn lane_streams_match_splitmix_when_always_consuming() {
        let seeds = [1u64, 0xDEAD_BEEF, 42, u64::MAX];
        let mut lanes = SrLaneStreams::new(seeds);
        let mut refs: Vec<SplitMix64> = seeds.iter().map(|&s| SplitMix64::new(s)).collect();
        for _ in 0..1000 {
            let words = lanes.draw([true; 4]);
            for (l, r) in refs.iter_mut().enumerate() {
                assert_eq!(words[l], r.next_u64());
            }
        }
    }

    #[test]
    fn lane_streams_masked_draws_match_conditional_consumption() {
        // A lane that consumes only on selected steps must see exactly the
        // words a scalar SplitMix64 would hand out on those steps — the SR
        // determinism contract of the GEMM inner loop.
        let seeds = [9u64, 10, 11];
        let mut lanes = SrLaneStreams::new(seeds);
        let mut refs: Vec<SplitMix64> = seeds.iter().map(|&s| SplitMix64::new(s)).collect();
        let mut pattern = SplitMix64::new(123);
        for _ in 0..2000 {
            let consume = [
                pattern.next_u64() & 1 == 1,
                pattern.next_u64() & 3 == 0,
                true,
            ];
            let words = lanes.draw(consume);
            for l in 0..3 {
                if consume[l] {
                    assert_eq!(words[l], refs[l].next_u64(), "lane {l}");
                }
            }
        }
    }

    #[test]
    fn lane_streams_fill_block_matches_draws() {
        let seeds = [3u64, 5];
        let mut blocked = SrLaneStreams::new(seeds);
        let mut stepped = SrLaneStreams::new(seeds);
        let mut block = [[0u64; 2]; 37];
        blocked.fill_block(&mut block);
        for row in &block {
            assert_eq!(*row, stepped.draw([true, true]));
        }
        // Both generators continue from the same position.
        assert_eq!(blocked.draw([true, true]), stepped.draw([true, true]));
    }

    #[test]
    fn normal_moments_sane() {
        let mut g = SplitMix64::new(99);
        let n = 100_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = g.next_normal();
            s += x;
            s2 += x * x;
        }
        let mean = s / f64::from(n);
        let var = s2 / f64::from(n) - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
