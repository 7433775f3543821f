//! The low-precision GEMM engine: FP8-quantized operands, exact products,
//! and bit-exact low-precision accumulation with RN or stochastic rounding —
//! the software equivalent of tiling the paper's MAC units over a matrix
//! multiplication, and the Rust counterpart of its "PyTorch software-based
//! bit-accurate emulation flow ... custom CUDA kernels" (Sec. IV).
//!
//! # Pack/plan lifecycle
//!
//! [`MacGemm`] implements the prepared-operand pipeline of
//! [`GemmEngine`]: [`GemmEngine::pack_a`] quantizes a matrix to FP8 codes
//! and CSR-compacts each row's non-zero entries, [`GemmEngine::pack_b`]
//! quantizes *and* interleaves the columns into a lane panel (so every
//! `k` step reads a block's operand codes contiguously), and
//! [`GemmEngine::gemm_packed`] runs only the
//! accumulation loops. Packing depends only on the operand values and the
//! multiplier format — never on the accumulator format, rounding mode,
//! seed or thread count — so a packed weight can be reused across
//! forward, backward and evaluation products, and even across engines
//! that share a multiplier format.
//!
//! The one-shot [`GemmEngine::gemm`] (in training, the weight gradients)
//! quantizes each operand once and compacts whichever one is cheaper to
//! zero-skip. The compaction skips only its own operand's zeros, and the
//! sparse side of `dW = dYᵀ · rows` is B, the post-ReLU im2row matrix. So
//! when compacting `Bᵀ` costs fewer lane-steps, it computes
//! `outᵀ = Bᵀ · Aᵀ` with `Aᵀ` as the lane panel and writes the result back
//! transposed. The orientation is a pure function of the shape and the
//! operand codes, and never changes a bit (see below).
//!
//! Every product runs one plan — a compaction against a lane panel — on
//! one operand layout per side. A NaN in the panel operand keeps the
//! compaction whole ([`CompactA::keep_all`]), so `0 * NaN` reaches the
//! accumulator; engines whose accumulator has no lane kernel run the
//! scalar [`MacKernel::dot`] loop over the same compaction and panel.
//! Only the oracle [`MacGemm::gemm_reference`] builds dense codes.
//!
//! # Determinism contract
//!
//! Every output element draws its stochastic-rounding words from a
//! `SplitMix64` stream seeded by `(engine seed, row, column)`; the stream
//! advances once per non-zero product in `k` order. Results are therefore
//! a pure function of `(values, config.seed)` — independent of packing,
//! chunking, the worker-pool size, call order and which operand the
//! kernel compacts: a transposed product seeds each lane at its output
//! coordinate, and skipping a zero product is exact whichever operand
//! holds the zero.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use srmac_fp::FpFormat;
use srmac_rng::{SplitMix64, SrLaneStreams};
use srmac_runtime::Runtime;
use srmac_tensor::{GemmEngine, NeededRows, PackSide, PackedOperand};

#[cfg(target_arch = "x86_64")]
use crate::batch::z16;
use crate::batch::{FastAdderBatch, Row, Stage, GROUP_ROWS, LANE_DRAWS, STAGE_STEPS};
use crate::fastmath::{AccumRounding, FastAdder, FastQuantizer};
use crate::lut::{PairLut, ProductLut};

/// Lanes of every kernel call, and the width of the full panel blocks:
/// the number of output elements [`FastAdderBatch`] advances per step.
/// The per-element accumulation chain is serial in `k`, so wall-clock is
/// bounded by chain *latency* unless enough independent chains are in
/// flight to cover it — 64 `u32` lanes (eight 8-wide vector chains under
/// AVX2, four 16-wide under AVX-512) measure fastest on current cores.
/// The `n % 64` columns past the last full block form one narrower tail
/// block (see [`tail_width`]), and `64 / W` consecutive rows share a
/// `W`-wide block's call, so narrow outputs fill all 64 lanes too.
const LANES: usize = 64;

/// Most output rows per dispatch rectangle (fewer for thin products; see
/// [`dispatch_tiles`]).
const ROW_TILE: usize = 32;

/// Output columns per dispatch rectangle. A multiple of [`LANES`], so
/// tile boundaries never split a panel block.
const COL_TILE: usize = 512;

/// Products below this many MAC steps run as one job on the caller: a
/// pool round-trip costs more than it saves.
const SINGLE_JOB_MACS: usize = 32 * 1024;

/// The least work a pool job is cut to, in MAC steps — about a quarter
/// of a millisecond of kernel time, far above the cost of a pool
/// round-trip.
const MIN_JOB_MACS: usize = 288 * 1024;

/// The dispatch grid of an `m x k x n` product as `(row_tile, col_tile)`.
///
/// The output matrix is cut into a fixed grid of rectangles for
/// multi-core dispatch (one pool job per rectangle), and inside each
/// rectangle the loop walks one panel block at a time across all of the
/// rectangle's rows, so one lane-interleaved B panel slice is reused
/// across every row before the next slice is touched. The grid is a pure
/// function of the shape, never of the thread count — which together
/// with the per-output-element accumulation order and position-seeded SR
/// streams keeps results bitwise identical for every thread count.
///
/// Small products are one job. Otherwise a rectangle holds up to
/// [`ROW_TILE`] rows, but only as many as it takes to reach
/// [`MIN_JOB_MACS`]: a thin product such as a weight gradient
/// (`m = out_c` rows of `k * n` steps each) is cut into one- or two-row
/// jobs instead of becoming a single job that leaves every other core
/// idle, while products with short rows keep the full row tile. The
/// row tile rounds to the nearest whole number of the tail block's row
/// groups ([`group_rows`]), so rectangles end on full groups; a tile
/// under half a group stays as it is, because a thin product's jobs
/// matter more than full chains in its tail block.
fn dispatch_tiles(m: usize, k: usize, n: usize) -> (usize, usize) {
    if m * k * n < SINGLE_JOB_MACS {
        return (m.max(1), n.max(LANES));
    }
    let row_tile = ROW_TILE.min(MIN_JOB_MACS.div_ceil(k * n)).max(1);
    let g = group_rows(n);
    let grouped = (row_tile + g / 2) / g * g;
    (if grouped == 0 { row_tile } else { grouped }, COL_TILE)
}

/// Vector-ISA tier of the batched accumulation loop and the row
/// compaction, detected at engine construction (and capped by
/// [`MacGemm::with_max_tier`]). The portable and AVX2 tiers run the same
/// portable SWAR lane algebra, which the annotated wrappers let LLVM
/// auto-vectorize with the detected extensions; AVX-512 runs its
/// explicit rendition (`z16` in `batch.rs`). Function-level
/// `#[target_feature]` (rather than workspace-wide `-C` flags) confines
/// the widened vectorizer to this integer-only, exhaustively bit-verified
/// kernel; see the workspace `Cargo.toml` note on why the flags must not
/// be global. Tiers are ordered from the baseline up, and every tier
/// computes the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Baseline codegen (any architecture; NEON on `aarch64` is part of
    /// the baseline there).
    Portable,
    /// AVX2: 8 `u32` lanes per `ymm` register.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512 (F/BW/DQ/VL/CD): 16 `u32` lanes per `zmm` register,
    /// masked selects, and — load-bearing for the adder's normalization
    /// step — `vplzcnt` vector leading-zero counts.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl SimdTier {
    /// Every tier this host can run, from [`SimdTier::Portable`] up to
    /// the detected one — the tiers [`MacGemm::with_max_tier`] can select
    /// (the equivalence suites run every one of them).
    #[doc(hidden)]
    #[must_use]
    pub fn supported() -> Vec<SimdTier> {
        let mut tiers = vec![SimdTier::Portable];
        #[cfg(target_arch = "x86_64")]
        tiers.extend([SimdTier::Avx2, SimdTier::Avx512]);
        tiers.retain(|&t| t <= Self::detect());
        tiers
    }

    /// The host's highest tier.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512cd")
            {
                return SimdTier::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdTier::Avx2;
            }
        }
        SimdTier::Portable
    }
}

/// Configuration of a [`MacGemm`] engine.
#[derive(Clone, Copy, Debug)]
pub struct MacGemmConfig {
    /// Multiplier input format (quantization target for both operands).
    pub mul_fmt: FpFormat,
    /// Accumulator format.
    pub acc_fmt: FpFormat,
    /// Accumulation rounding.
    pub rounding: AccumRounding,
    /// Base seed for the per-dot-product random streams.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl MacGemmConfig {
    /// The paper's reference MAC: E5M2 multipliers, E6M5 accumulation.
    #[must_use]
    pub fn fp8_fp12(rounding: AccumRounding, subnormals: bool) -> Self {
        Self {
            mul_fmt: FpFormat::e5m2().with_subnormals(subnormals),
            acc_fmt: FpFormat::e6m5().with_subnormals(subnormals),
            rounding,
            seed: 0x5EED,
            threads: srmac_tensor::available_threads(),
        }
    }

    /// FP8 multipliers with a chosen accumulator format (e.g. E5M10 for the
    /// paper's "RN W/ Sub FP16" rows).
    #[must_use]
    pub fn fp8_acc(acc_fmt: FpFormat, rounding: AccumRounding, subnormals: bool) -> Self {
        Self {
            mul_fmt: FpFormat::e5m2().with_subnormals(subnormals),
            acc_fmt,
            rounding,
            seed: 0x5EED,
            threads: srmac_tensor::available_threads(),
        }
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Serializes the numerically relevant configuration into a fixed-size
    /// little-endian record (the checkpoint metadata hook of `srmac-io`).
    ///
    /// The thread count is deliberately excluded: results are bitwise
    /// thread-invariant, and a checkpoint written on one machine must not
    /// pin the pool size of another. [`MacGemmConfig::from_wire`] restores
    /// the machine default.
    ///
    /// # Panics
    ///
    /// Panics if the configuration lies outside the [`MacGemm`] engine
    /// envelope (see [`MacGemmConfig::from_wire`]) — such a config could
    /// not have built an engine, and silently serializing it would write
    /// a checkpoint [`MacGemmConfig::from_wire`] must reject.
    #[must_use]
    pub fn to_wire(&self) -> [u8; Self::WIRE_BYTES] {
        Self::check_envelope(self.mul_fmt, self.acc_fmt, self.rounding)
            .unwrap_or_else(|e| panic!("cannot serialize a config the engine rejects: {e}"));
        let mut w = [0u8; Self::WIRE_BYTES];
        w[0] = self.mul_fmt.exp_bits() as u8;
        w[1] = self.mul_fmt.man_bits() as u8;
        w[2] = u8::from(self.mul_fmt.subnormals());
        w[3] = self.acc_fmt.exp_bits() as u8;
        w[4] = self.acc_fmt.man_bits() as u8;
        w[5] = u8::from(self.acc_fmt.subnormals());
        #[expect(
            clippy::expect_used,
            reason = "envelope-checked above — r fits u8 losslessly"
        )]
        let (tag, r) = match self.rounding {
            AccumRounding::Nearest => (0u8, 0u8),
            // Envelope-checked above: r fits u8 losslessly.
            AccumRounding::Stochastic { r } => (1, u8::try_from(r).expect("r <= 24")),
        };
        w[6] = tag;
        w[7] = r;
        w[8..16].copy_from_slice(&self.seed.to_le_bytes());
        w
    }

    /// Validates this configuration against the engine envelope without
    /// building anything — the typed-error twin of the asserts in
    /// [`MacGemm::with_runtime`], used by the wire codec and the spec
    /// parser so no decodable checkpoint or parseable spec can panic
    /// the engine build.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigWireError`] when the formats or SR bit count lie
    /// outside the envelope.
    pub fn validate(&self) -> Result<(), ConfigWireError> {
        Self::check_envelope(self.mul_fmt, self.acc_fmt, self.rounding)
    }

    /// The fast-path envelope [`MacGemm::with_runtime`] (via
    /// [`ProductLut`], [`FastAdder`]) enforces with asserts; the wire
    /// codec enforces it with typed errors on both directions so no
    /// decodable checkpoint can panic the engine rebuild.
    fn check_envelope(
        mul_fmt: FpFormat,
        acc_fmt: FpFormat,
        rounding: AccumRounding,
    ) -> Result<(), ConfigWireError> {
        if mul_fmt.bits() > 8 {
            return Err(ConfigWireError::OutsideEngineEnvelope(
                "multiplier format wider than 8 bits",
            ));
        }
        if acc_fmt.bits() > 16 || acc_fmt.precision() > 12 {
            return Err(ConfigWireError::OutsideEngineEnvelope(
                "accumulator format wider than 16 bits / precision above 12",
            ));
        }
        if let AccumRounding::Stochastic { r } = rounding {
            if !(1..=24).contains(&r) {
                return Err(ConfigWireError::BadSrBits(r.min(255) as u8));
            }
        }
        Ok(())
    }

    /// Decodes a [`MacGemmConfig::to_wire`] record, validating every field
    /// (an untrusted checkpoint must produce a typed error, never a panic
    /// or a silently nonsensical engine).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigWireError`] on invalid formats, an unknown rounding
    /// tag, or an out-of-range SR bit count.
    pub fn from_wire(w: &[u8; Self::WIRE_BYTES]) -> Result<Self, ConfigWireError> {
        let fmt = |exp: u8, man: u8, sub: u8| -> Result<FpFormat, ConfigWireError> {
            if sub > 1 {
                return Err(ConfigWireError::BadFlag(sub));
            }
            FpFormat::new(u32::from(exp), u32::from(man))
                .map(|f| f.with_subnormals(sub == 1))
                .map_err(|_| ConfigWireError::BadFormat {
                    exp_bits: exp,
                    man_bits: man,
                })
        };
        let mul_fmt = fmt(w[0], w[1], w[2])?;
        let acc_fmt = fmt(w[3], w[4], w[5])?;
        let rounding = match w[6] {
            0 => AccumRounding::Nearest,
            1 => AccumRounding::Stochastic { r: u32::from(w[7]) },
            tag => return Err(ConfigWireError::BadRoundingTag(tag)),
        };
        Self::check_envelope(mul_fmt, acc_fmt, rounding)?;
        #[expect(clippy::expect_used, reason = "w[8..16] is exactly 8 bytes")]
        let seed = w[8..16].try_into().expect("8-byte slice");
        Ok(Self {
            mul_fmt,
            acc_fmt,
            rounding,
            seed: u64::from_le_bytes(seed),
            threads: srmac_tensor::available_threads(),
        })
    }
}

impl MacGemmConfig {
    /// Size in bytes of the [`MacGemmConfig::to_wire`] record.
    pub const WIRE_BYTES: usize = 16;

    /// The seed of the named constructors ([`MacGemmConfig::fp8_fp12`],
    /// [`MacGemmConfig::fp8_acc`]); spec strings omit the `seed…` token
    /// at this value (see the `spec` module).
    pub const DEFAULT_SEED: u64 = 0x5EED;
}

/// Error decoding a [`MacGemmConfig`] wire record (see
/// [`MacGemmConfig::from_wire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigWireError {
    /// A floating-point format field is outside the supported range.
    BadFormat {
        /// Stored exponent width.
        exp_bits: u8,
        /// Stored significand width.
        man_bits: u8,
    },
    /// A boolean flag byte was neither 0 nor 1.
    BadFlag(u8),
    /// The rounding tag byte was neither 0 (RN) nor 1 (SR).
    BadRoundingTag(u8),
    /// The SR random-bit count is outside the fast-adder envelope (1..=24).
    BadSrBits(u8),
    /// The formats are individually valid but outside the envelope the
    /// `MacGemm` engine can actually build (`MacGemm::new` would panic).
    OutsideEngineEnvelope(&'static str),
}

impl std::fmt::Display for ConfigWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigWireError::BadFormat { exp_bits, man_bits } => {
                write!(f, "invalid floating-point format E{exp_bits}M{man_bits}")
            }
            ConfigWireError::BadFlag(b) => write!(f, "boolean flag byte must be 0 or 1, got {b}"),
            ConfigWireError::BadRoundingTag(t) => write!(f, "unknown rounding tag {t}"),
            ConfigWireError::BadSrBits(r) => write!(f, "SR bit count {r} outside 1..=24"),
            ConfigWireError::OutsideEngineEnvelope(what) => {
                write!(f, "outside the MacGemm engine envelope: {what}")
            }
        }
    }
}

impl std::error::Error for ConfigWireError {}

/// The lane kernel of the compacted hot path: the lane-batched adder and
/// its products pre-decoded into `u32` lane words (256 KiB), built
/// together for accumulators inside the lane-word envelope.
#[derive(Clone, Debug)]
struct Lanes {
    batch: FastAdderBatch,
    plut: PairLut,
}

/// The shareable inner accumulation kernel: everything a worker needs to
/// compute output rows from packed codes. Lives behind an `Arc` so pool
/// jobs (which must be `'static`) can hold it without copying tables.
#[derive(Clone, Debug)]
struct MacKernel {
    lut: ProductLut,
    adder: FastAdder,
    /// The lane kernel, `None` when the accumulator algebra does not fit
    /// the `u32` lane word; every product then runs the scalar
    /// [`MacKernel::dot`] loop over the same compaction and panel
    /// ([`MacKernel::compute_rect_scalar`]).
    lanes: Option<Lanes>,
    decode: Vec<f32>,
    /// Accumulator-format magnitude mask (all bits except the sign).
    acc_mag_mask: u64,
    rounding: AccumRounding,
    seed: u64,
    /// Detected vector-ISA tier of the batched loop.
    tier: SimdTier,
}

impl MacKernel {
    /// The zero-product skip rule shared by every accumulation loop — the
    /// load-bearing invariant that makes CSR compaction bit-exact: adding
    /// `(+/-)0` never changes a (non-negative-zero) accumulator and never
    /// consumes a rounding word.
    #[inline]
    fn is_zero_prod(&self, p: u16) -> bool {
        u64::from(p) & self.acc_mag_mask == 0
    }

    /// Output element `(r, c)` in MAC semantics: the products of the
    /// `(A code, B code)` pairs accumulated in order, each non-zero one
    /// drawing the next word of the element's stream under SR. The one
    /// scalar loop, shared by [`MacGemm::gemm_reference`] and
    /// [`MacKernel::compute_rect_scalar`].
    fn dot(&self, pairs: impl Iterator<Item = (u8, u8)>, r: usize, c: usize) -> f32 {
        let sr = !matches!(self.rounding, AccumRounding::Nearest);
        let mut rng = SplitMix64::new(mix_seed(self.seed, r, c));
        let mut acc: u64 = 0;
        for (ca, cb) in pairs {
            let p = self.lut.product(ca, cb);
            if !self.is_zero_prod(p) {
                let word = if sr { rng.next_u64() } else { 0 };
                acc = self.adder.add(acc, u64::from(p), word);
            }
        }
        self.decode[acc as usize]
    }

    /// The portable row-group kernel: the first `L` lanes (`L / 16`
    /// chains' worth) of one `W`-wide panel block for up to `64 / W`
    /// compacted rows (`rows`, the ones past the group empty), advanced
    /// in lock-step through the lane-batched [`FastAdderBatch`]. Lane
    /// `l` is column `l % W` of row `l / W`; a block row is the `W`
    /// contiguous bytes `pan[ci * W..]` of k-index `ci`, and products
    /// come pre-decoded from the [`PairLut`]. A full-width block's one row
    /// is walked in place; narrower blocks run as many steps as the
    /// longest row has entries, through a [`Stage`] chunk by chunk, so a
    /// row that has run out meets code `+0` at k-index 0. Each lane's adds
    /// stay in `k` order and its SR stream advances once per product
    /// with non-zero encoded magnitude, so results are bit-identical to
    /// one scalar [`MacKernel::dot`] per lane whenever a compaction that
    /// dropped zeros meets a NaN-free panel: products against a dropped
    /// zero-magnitude A code, and against `+0` past a row's end, are
    /// exactly `+/-0` then, which the scalar loop skips without drawing
    /// a rounding word (a NaN panel meets [`CompactA::keep_all`], whose
    /// rows all have `k` entries and whose `0 * NaN` lanes take the
    /// special-lane fixup). Returns the decoded accumulator words of the
    /// 64 lanes, those past `L` as 0.
    #[inline(always)]
    fn dotn_group<const W: usize, const L: usize, const SR: bool>(
        lanes: &Lanes,
        rows: &[Row<'_>; GROUP_ROWS],
        pan: &[u8],
        seeds: &[u64; LANES],
        stage: &mut Stage,
    ) -> [u32; LANES] {
        let batch = &lanes.batch;
        let mut streams = SrLaneStreams::<L>::new(std::array::from_fn(|l| seeds[l]));
        let mut acc = [0u32; L];
        if W == LANES {
            // A full-width block's one row, walked in place.
            let (ids, cods) = rows[0];
            for (&ci, &ca) in ids.iter().zip(cods) {
                let (row, base) = (lanes.plut.row(ca), ci as usize * W);
                let mut prods = [0u32; L];
                for (p, &cb) in prods.iter_mut().zip(&pan[base..base + L]) {
                    *p = row[usize::from(cb)];
                }
                Self::lane_step::<L, SR>(batch, &mut streams, &mut acc, &prods);
            }
        } else {
            let nrows = L.div_ceil(W);
            let steps = rows[..nrows].iter().map(|r| r.0.len()).max().unwrap_or(0);
            for t0 in (0..steps).step_by(STAGE_STEPS) {
                let len = STAGE_STEPS.min(steps - t0);
                stage.fill(rows, nrows, t0, len);
                for t in 0..len {
                    let mut prods = [0u32; L];
                    for r in 0..nrows {
                        let (ci, row) = stage.at(r, t);
                        let (row, bc) = (
                            &lanes.plut.table()[row..row + 256],
                            &pan[ci * W..ci * W + W],
                        );
                        for (p, &cb) in prods[r * W..L.min(r * W + W)].iter_mut().zip(bc) {
                            *p = row[usize::from(cb)];
                        }
                    }
                    Self::lane_step::<L, SR>(batch, &mut streams, &mut acc, &prods);
                }
            }
        }
        let mut out = [0u32; LANES];
        out[..L].copy_from_slice(&acc);
        out
    }

    /// One `k` step of [`MacKernel::dotn_group`]: draws a rounding word
    /// for every lane whose product has non-zero magnitude (SR only) and
    /// accumulates the products. A plain function, not a closure, so it
    /// inlines into each tier's `#[target_feature]` codegen.
    #[inline(always)]
    fn lane_step<const L: usize, const SR: bool>(
        batch: &FastAdderBatch,
        streams: &mut SrLaneStreams<L>,
        acc: &mut [u32; L],
        prods: &[u32; L],
    ) {
        let words = if SR {
            let mut consume = [false; L];
            for l in 0..L {
                consume[l] = prods[l] & LANE_DRAWS != 0;
            }
            streams.draw(consume)
        } else {
            [0u64; L]
        };
        batch.mac_step(acc, prods, &words);
    }

    /// One `W`-wide panel block for a group of up to `64 / W` compacted
    /// rows in one 64-lane kernel call of `chains` (1..=4) 16-lane
    /// chains, the ones holding a live lane. Under the AVX-512 tier it is
    /// the explicit `z16::dot_group` (accumulators register-resident
    /// across the whole `k` loop); elsewhere the portable
    /// [`MacKernel::dotn_group`], auto-vectorized, over `16 * chains`
    /// lanes.
    #[inline(always)]
    fn group_dot<const W: usize>(
        &self,
        lanes: &Lanes,
        rows: &[Row<'_>; GROUP_ROWS],
        pan: &[u8],
        seeds: &[u64; LANES],
        chains: usize,
        stage: &mut Stage,
    ) -> [u32; LANES] {
        let sr = !matches!(self.rounding, AccumRounding::Nearest);
        #[cfg(target_arch = "x86_64")]
        if self.tier == SimdTier::Avx512 {
            let (batch, table) = (&lanes.batch, lanes.plut.table());
            // SAFETY: `SimdTier::detect` verified every feature the z16
            // kernels enable.
            #[allow(unsafe_code)]
            return unsafe {
                if sr {
                    z16::dot_group::<true, W>(batch, table, rows, pan, seeds, chains, stage)
                } else {
                    z16::dot_group::<false, W>(batch, table, rows, pan, seeds, chains, stage)
                }
            };
        }
        match (sr, chains) {
            (true, 1) => Self::dotn_group::<W, 16, true>(lanes, rows, pan, seeds, stage),
            (true, 2) => Self::dotn_group::<W, 32, true>(lanes, rows, pan, seeds, stage),
            (true, 3) => Self::dotn_group::<W, 48, true>(lanes, rows, pan, seeds, stage),
            (true, _) => Self::dotn_group::<W, 64, true>(lanes, rows, pan, seeds, stage),
            (false, 1) => Self::dotn_group::<W, 16, false>(lanes, rows, pan, seeds, stage),
            (false, 2) => Self::dotn_group::<W, 32, false>(lanes, rows, pan, seeds, stage),
            (false, 3) => Self::dotn_group::<W, 48, false>(lanes, rows, pan, seeds, stage),
            (false, _) => Self::dotn_group::<W, 64, false>(lanes, rows, pan, seeds, stage),
        }
    }

    /// The SR stream seeds of a group's first `live` lanes, whose lane
    /// `l` computes kernel element `(row g, column c)` with
    /// `(g, c) = (l / W, l % W)` — output element `(r + g, c0 + c)` in
    /// today's orientation and `(r + c, c0 + g)` transposed, `(r, c0)`
    /// being the output coordinate of lane 0 — so every output element
    /// draws the stream of its own output coordinate whichever operand
    /// the kernel compacted. RN never reads them, so they are derived
    /// under SR only, in plain indexed loops the seed mixing vectorizes
    /// in.
    #[inline(always)]
    fn group_seeds<const W: usize>(
        &self,
        orient: Orient,
        (r, c0): (usize, usize),
        live: usize,
    ) -> [u64; LANES] {
        let mut seeds = [0u64; LANES];
        if !matches!(self.rounding, AccumRounding::Nearest) {
            let lanes = seeds[..live].iter_mut().enumerate();
            match orient {
                Orient::AsIs => {
                    for (l, s) in lanes {
                        *s = mix_seed(self.seed, r + l / W, c0 + l % W);
                    }
                }
                Orient::Transposed => {
                    for (l, s) in lanes {
                        *s = mix_seed(self.seed, r + l % W, c0 + l / W);
                    }
                }
            }
        }
        seeds
    }

    /// Decodes the accumulator words `accs` into the live lanes `out`
    /// (`accs` may run past `out.len()`; those lanes are dropped): the
    /// vector write-back under AVX-512, else lane by lane.
    #[inline(always)]
    fn write_lanes(&self, lanes: &Lanes, accs: &[u32], out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if self.tier == SimdTier::Avx512 {
            // SAFETY: `SimdTier::detect` verified every feature the z16
            // write-back enables.
            #[allow(unsafe_code)]
            unsafe {
                z16::write_back(&lanes.batch, &self.decode, accs, out);
            }
            return;
        }
        for (o, &a) in out.iter_mut().zip(accs) {
            *o = self.decode[lanes.batch.encode(a) as usize];
        }
    }

    /// Compacted-A rectangle kernel on the lane kernel `lanes` (a NaN in
    /// the panel needs a [`CompactA::keep_all`] compaction; see
    /// [`MacKernel::dotn_group`]): fills output
    /// rows `rows` x columns `cols` into `block` (row-major, stride
    /// `cols.len()`). Bit-identical to the scalar path for every tile
    /// shape and column range — the tiling only reorders *which
    /// independent element* is computed when. Dispatches once onto the
    /// engine's [`SimdTier`] (detected, or capped by
    /// [`MacGemm::with_max_tier`]) and its codegen of the loop body.
    #[allow(clippy::too_many_arguments)] // internal dispatch seam: shape + operand views
    fn compute_rect_compact(
        &self,
        lanes: &Lanes,
        compact: &CompactA,
        panel: &[u8],
        k: usize,
        n: usize,
        row_base: usize,
        orient: Orient,
        rows: Range<usize>,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => {
                // SAFETY: `SimdTier::detect` verified at runtime that this
                // CPU has every feature the callee enables.
                #[allow(unsafe_code)]
                unsafe {
                    self.compute_rect_compact_avx512(
                        lanes, compact, panel, k, n, row_base, orient, rows, cols, block,
                    );
                }
            }
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => {
                // SAFETY: as above — `avx2` was detected at runtime.
                #[allow(unsafe_code)]
                unsafe {
                    self.compute_rect_compact_avx2(
                        lanes, compact, panel, k, n, row_base, orient, rows, cols, block,
                    );
                }
            }
            SimdTier::Portable => {
                self.compute_rect_compact_body(
                    lanes, compact, panel, k, n, row_base, orient, rows, cols, block,
                );
            }
        }
    }

    /// AVX-512 codegen of the compacted loop: the panel blocks run the
    /// explicit `z16` kernels, inlined into a loop compiled with the same
    /// features.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd",
        enable = "avx2"
    )]
    #[allow(clippy::too_many_arguments)]
    fn compute_rect_compact_avx512(
        &self,
        lanes: &Lanes,
        compact: &CompactA,
        panel: &[u8],
        k: usize,
        n: usize,
        row_base: usize,
        orient: Orient,
        rows: Range<usize>,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        self.compute_rect_compact_body(
            lanes, compact, panel, k, n, row_base, orient, rows, cols, block,
        );
    }

    /// AVX2 codegen of the compacted loop (8-lane `ymm` arithmetic).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn compute_rect_compact_avx2(
        &self,
        lanes: &Lanes,
        compact: &CompactA,
        panel: &[u8],
        k: usize,
        n: usize,
        row_base: usize,
        orient: Orient,
        rows: Range<usize>,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        self.compute_rect_compact_body(
            lanes, compact, panel, k, n, row_base, orient, rows, cols, block,
        );
    }

    /// The tier-independent rectangle body (inlined into each tier wrapper
    /// so every tier gets its own codegen of the whole lane pipeline).
    ///
    /// Panel blocks outermost, row groups inner: each block's
    /// `W * k`-byte panel slice is reused across every row of the
    /// rectangle before the loop moves on. Every column sits in a panel
    /// block (64-wide blocks, then one tail block of width `W` in 8, 16,
    /// 32 or 64, zero-padded; see [`build_panel`]), and every kernel call
    /// advances `64 / W` consecutive rows across one block (see
    /// [`MacKernel::row_groups`]). Tile and dispatch boundaries are
    /// 64-aligned, so they never split a block.
    ///
    /// `rows` x `cols` index the kernel's product (compacted rows times
    /// panel columns). In today's orientation that is the output itself:
    /// `block` is the rectangle row-major with stride `cols.len()`. When
    /// `orient` is [`Orient::Transposed`] the kernel computes the
    /// output's transpose, so kernel element `(i, j)` is output element
    /// `(j, i)`: `block` is the output rectangle `cols x rows`, row-major
    /// with stride `rows.len()`, and each group's lanes scatter into it.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn compute_rect_compact_body(
        &self,
        lanes: &Lanes,
        compact: &CompactA,
        panel: &[u8],
        k: usize,
        n: usize,
        row_base: usize,
        orient: Orient,
        rows: Range<usize>,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        let mut j = cols.start;
        while j < cols.end {
            // A block starting at column `j` occupies panel bytes
            // `[j * k, (j + W) * k)`.
            let (_, width) = panel_block_of(j, n);
            let at = BlockAt {
                pan: &panel[j * k..(j + width) * k],
                j,
                live: width.min(cols.end - j),
            };
            let (rows, cols) = (rows.clone(), cols.clone());
            match width {
                LANES => self
                    .row_groups::<LANES>(lanes, compact, at, row_base, orient, rows, cols, block),
                32 => {
                    self.row_groups::<32>(lanes, compact, at, row_base, orient, rows, cols, block)
                }
                16 => {
                    self.row_groups::<16>(lanes, compact, at, row_base, orient, rows, cols, block)
                }
                _ => self.row_groups::<8>(lanes, compact, at, row_base, orient, rows, cols, block),
            }
            j += width;
        }
    }

    /// One `W`-wide panel block `at` across the rectangle's rows, in
    /// groups of `64 / W` consecutive compacted rows per kernel call (the
    /// last group possibly partial, running only the chains that hold a
    /// live lane). Operand data indexes at the local kernel row `i`; SR
    /// streams seed at the output coordinate, whose row is offset by
    /// `row_base` (the kernel row in today's orientation, the kernel
    /// column when transposed). `rows`, `cols` and `block` are the
    /// rectangle of [`MacKernel::compute_rect_compact_body`].
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn row_groups<const W: usize>(
        &self,
        lanes: &Lanes,
        compact: &CompactA,
        at: BlockAt<'_>,
        row_base: usize,
        orient: Orient,
        rows: Range<usize>,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        let (h, w) = (rows.len(), cols.len());
        let BlockAt { pan, j, live } = at;
        let mut stage = Stage::new();
        let mut i0 = rows.start;
        while i0 < rows.end {
            let live_rows = (LANES / W).min(rows.end - i0);
            let mut group: [Row<'_>; GROUP_ROWS] = [(&[], &[]); GROUP_ROWS];
            for (slot, i) in group.iter_mut().zip(i0..i0 + live_rows) {
                *slot = compact.row(i);
            }
            // The chains up to the last live lane, `(live_rows - 1, live - 1)`.
            let chains = ((live_rows - 1) * W + live).div_ceil(16);
            let origin = match orient {
                Orient::AsIs => (row_base + i0, j),
                Orient::Transposed => (row_base + j, i0),
            };
            let seeds = self.group_seeds::<W>(orient, origin, live_rows * W);
            let accs = self.group_dot::<W>(lanes, &group, pan, &seeds, chains, &mut stage);
            let mut vals = [0.0f32; LANES];
            self.write_lanes(lanes, &accs, &mut vals[..live_rows * W]);
            let (ri, rj) = (i0 - rows.start, j - cols.start);
            for (g, vals) in vals.chunks_exact(W).take(live_rows).enumerate() {
                match orient {
                    Orient::AsIs => {
                        let o = (ri + g) * w + rj;
                        block[o..o + live].copy_from_slice(&vals[..live]);
                    }
                    Orient::Transposed => {
                        for (l, &v) in vals[..live].iter().enumerate() {
                            block[(rj + l) * h + ri + g] = v;
                        }
                    }
                }
            }
            i0 += live_rows;
        }
    }

    /// The masked strip kernel on the lane kernel `lanes` and `bt`, the
    /// compaction of `Bᵀ` (see [`MacPackedB::columns`]): fills the
    /// needed entries of the whole-height column strip `cols` into
    /// `block` (row-major, stride `cols.len()`) and leaves the others as
    /// they are. Dispatches onto the engine's [`SimdTier`] like
    /// [`MacKernel::compute_rect_compact`].
    fn compute_masked(
        &self,
        lanes: &Lanes,
        bt: &CompactA,
        plan: &MaskedPlan,
        row_base: usize,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => {
                // SAFETY: `SimdTier::detect` verified at runtime that this
                // CPU has every feature the callee enables.
                #[allow(unsafe_code)]
                unsafe {
                    self.compute_masked_avx512(lanes, bt, plan, row_base, cols, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => {
                // SAFETY: as above — `avx2` was detected at runtime.
                #[allow(unsafe_code)]
                unsafe {
                    self.compute_masked_avx2(lanes, bt, plan, row_base, cols, block);
                }
            }
            SimdTier::Portable => {
                self.compute_masked_body(lanes, bt, plan, row_base, cols, block);
            }
        }
    }

    /// AVX-512 codegen of the masked loop.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx512cd",
        enable = "avx2"
    )]
    fn compute_masked_avx512(
        &self,
        lanes: &Lanes,
        bt: &CompactA,
        plan: &MaskedPlan,
        row_base: usize,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        self.compute_masked_body(lanes, bt, plan, row_base, cols, block);
    }

    /// AVX2 codegen of the masked loop.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn compute_masked_avx2(
        &self,
        lanes: &Lanes,
        bt: &CompactA,
        plan: &MaskedPlan,
        row_base: usize,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        self.compute_masked_body(lanes, bt, plan, row_base, cols, block);
    }

    /// The tier-independent masked body: the gathered-lane plan on the
    /// full-width kernel. Each output column `j` is one compacted row,
    /// `bt`'s row `j` (column `j` of B), and its lanes are only the
    /// needed rows of that column, 64 per kernel call. A block's panel
    /// holds its lanes' A rows, staged once per block ([`stage_lanes`]);
    /// lane `l` seeds at its output coordinate `(row_base + r_l, j)` and
    /// writes back to `(r_l, j)` through a decoded row
    /// ([`MacKernel::write_lanes`]). Each needed element therefore keeps
    /// its SR stream and its `k` order, and a zero A code meets a
    /// compacted B code in a zero-magnitude product that neither commits
    /// nor draws, so every needed element has the bits of the full
    /// product.
    #[inline(always)]
    fn compute_masked_body(
        &self,
        lanes: &Lanes,
        bt: &CompactA,
        plan: &MaskedPlan,
        row_base: usize,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        let (k, w) = (plan.k, cols.len());
        let sr = !matches!(self.rounding, AccumRounding::Nearest);
        let mut pan = vec![plan.zero; k * LANES];
        let mut stage = Stage::new();
        let mut group: [Row<'_>; GROUP_ROWS] = [(&[], &[]); GROUP_ROWS];
        let mut needed = Vec::with_capacity(plan.need.m() + LANES);
        for j in cols.clone() {
            group[0] = bt.row(j);
            plan.needed(j, &mut needed);
            for chunk in needed.chunks(LANES) {
                stage_lanes(self.tier, &plan.rows, chunk, k, plan.zero, &mut pan);
                let mut seeds = [0u64; LANES];
                if sr {
                    for (s, &r) in seeds.iter_mut().zip(chunk) {
                        *s = mix_seed(self.seed, row_base + r as usize, j);
                    }
                }
                let chains = chunk.len().div_ceil(16);
                let accs = self.group_dot::<LANES>(lanes, &group, &pan, &seeds, chains, &mut stage);
                let mut vals = [0.0f32; LANES];
                self.write_lanes(lanes, &accs, &mut vals[..chunk.len()]);
                for (&r, &v) in chunk.iter().zip(&vals) {
                    block[r as usize * w + j - cols.start] = v;
                }
            }
        }
    }

    /// The rectangle kernel of engines without a lane kernel: the
    /// operands, orientation and `block` layout of
    /// [`MacKernel::compute_rect_compact_body`], one scalar
    /// [`MacKernel::dot`] per element, seeded at its output coordinate.
    #[allow(clippy::too_many_arguments)]
    fn compute_rect_scalar(
        &self,
        compact: &CompactA,
        panel: &[u8],
        k: usize,
        n: usize,
        row_base: usize,
        orient: Orient,
        rows: Range<usize>,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        let (h, w) = (rows.len(), cols.len());
        for i in rows.clone() {
            let (ids, cods) = compact.row(i);
            for j in cols.clone() {
                let (col0, width) = panel_block_of(j, n);
                let at = col0 * k + j - col0;
                let pairs =
                    (ids.iter().zip(cods)).map(|(&ci, &ca)| (ca, panel[at + ci as usize * width]));
                let (ri, rj) = (i - rows.start, j - cols.start);
                match orient {
                    Orient::AsIs => block[ri * w + rj] = self.dot(pairs, row_base + i, j),
                    Orient::Transposed => block[rj * h + ri] = self.dot(pairs, row_base + j, i),
                }
            }
        }
    }
}

/// One panel block as a kernel rectangle walks it: the block's panel
/// bytes, its first column `j`, and how many of its lanes are live
/// columns of the rectangle.
#[derive(Clone, Copy)]
struct BlockAt<'p> {
    pan: &'p [u8],
    j: usize,
    live: usize,
}

/// CSR-style compaction of a row-major code matrix: per row, the k-indices
/// and codes of the non-zero-magnitude entries. Post-ReLU activations and
/// im2row padding make left operands substantially sparse in practice, and
/// skipping zero entries is exact (their products are `+/-0`, which the
/// accumulation loop ignores without consuming randomness).
#[derive(Debug)]
struct CompactA {
    row_ptr: Vec<u32>,
    idx: Vec<u32>,
    code: Vec<u8>,
}

impl CompactA {
    /// Compacts row-major `rows x cols` codes, keeping the `nnz` entries
    /// with `code & mag != 0` (counted by [`code_stats`]). Always
    /// `rows + 1` row offsets, also for `cols == 0`. The buffers are sized
    /// from `nnz` plus 16 lanes of store slack (never from `codes.len()`,
    /// which would commit memory for every zero), then each row is
    /// compacted in one branch-free pass (see [`CompactA::push_row`]).
    ///
    /// # Panics
    ///
    /// Panics if the non-zero count or `cols` does not fit a `u32`.
    fn build(codes: &[u8], rows: usize, cols: usize, nnz: usize, mag: u8, tier: SimdTier) -> Self {
        debug_assert_eq!(codes.len(), rows * cols);
        let mut compact = Self::with_capacity(rows, cols, nnz);
        for r in 0..rows {
            compact.push_row(&codes[r * cols..(r + 1) * cols], mag, tier);
        }
        compact.finish(rows, nnz)
    }

    /// [`CompactA::build`] of the transpose of row-major `rows x cols`
    /// codes: row `j` holds column `j`'s entries in ascending row order.
    /// Transposes [`TRANSPOSE_STRIP`] columns at a time into a strip
    /// buffer and compacts its rows, so no transposed copy of the whole
    /// operand exists.
    ///
    /// # Panics
    ///
    /// Panics if the non-zero count or `rows` does not fit a `u32`.
    fn build_transposed(
        codes: &[u8],
        rows: usize,
        cols: usize,
        nnz: usize,
        mag: u8,
        tier: SimdTier,
    ) -> Self {
        debug_assert_eq!(codes.len(), rows * cols);
        let mut compact = Self::with_capacity(cols, rows, nnz);
        // A small fresh buffer rather than one off the engine's free list:
        // listed buffers keep the capacity of the largest operand they
        // ever held, so one more per concurrent product raised peak RSS.
        let mut strip = vec![0u8; TRANSPOSE_STRIP * rows];
        for c0 in (0..cols).step_by(TRANSPOSE_STRIP) {
            let w = TRANSPOSE_STRIP.min(cols - c0);
            transpose_bytes(&codes[c0..], cols, rows, w, &mut strip, rows);
            for j in 0..w {
                compact.push_row(&strip[j * rows..(j + 1) * rows], mag, tier);
            }
        }
        compact.finish(cols, nnz)
    }

    /// Empty buffers for `rows` rows of `cols` codes holding `nnz` kept
    /// entries, plus 16 lanes of store slack.
    fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        assert!(
            u32::try_from(nnz).is_ok() && u32::try_from(cols).is_ok(),
            "operand too large to compact"
        );
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0u32);
        Self {
            row_ptr,
            idx: vec![0u32; nnz + 16],
            code: vec![0u8; nnz + 16],
        }
    }

    /// Compacts one more row in one branch-free pass: `z16::compact_row`
    /// under AVX-512, elsewhere a scalar loop that writes every entry at
    /// `len` and advances `len` by the predicate.
    fn push_row(&mut self, row: &[u8], mag: u8, tier: SimdTier) {
        let (idx, code) = (&mut self.idx, &mut self.code);
        let len = self.row_ptr[self.row_ptr.len() - 1] as usize;
        let len = match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `SimdTier::detect` verified every feature the
            // z16 routine enables.
            #[allow(unsafe_code)]
            SimdTier::Avx512 => unsafe { z16::compact_row(row, mag, idx, code, len) },
            _ => compact_row(row, mag, idx, code, len),
        };
        self.row_ptr.push(len as u32);
    }

    /// Drops the store slack once all `rows` rows are in.
    fn finish(mut self, rows: usize, nnz: usize) -> Self {
        debug_assert_eq!(self.row_ptr.len(), rows + 1);
        debug_assert_eq!(
            self.row_ptr[rows] as usize, nnz,
            "nnz must count the kept codes"
        );
        self.idx.truncate(nnz);
        self.code.truncate(nnz);
        self
    }

    /// The k-indices and codes of row `i`'s kept entries.
    fn row(&self, i: usize) -> (&[u32], &[u8]) {
        let (s, e) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
        (&self.idx[s..e], &self.code[s..e])
    }

    /// The compaction of `Bᵀ` from B's `k x n` panel (see
    /// [`build_panel`]): row `j` holds column `j`'s non-zero-magnitude
    /// codes in ascending `k` order.
    fn from_panel_columns(panel: &[u8], k: usize, n: usize, mag: u8, tier: SimdTier) -> Self {
        let mut codes = vec![0u8; n * k];
        for (j, col) in codes.chunks_exact_mut(k.max(1)).enumerate().take(n) {
            let (col0, width) = panel_block_of(j, n);
            for (ci, cd) in col.iter_mut().enumerate() {
                *cd = panel[col0 * k + ci * width + j - col0];
            }
        }
        let (nnz, _) = code_stats(&codes, mag, mag);
        Self::build(&codes, n, k, nnz, mag, tier)
    }

    /// The compaction of the same `cols`-wide rows that keeps every
    /// entry, the dropped ones as `zero` — what a panel holding a NaN
    /// meets, so `0 * NaN` reaches the accumulator as it does in the
    /// scalar oracle. Either zero sign is exact: a zero-magnitude code
    /// only ever produces `+/-0` (skipped without a rounding word) or,
    /// against a NaN, the same NaN. (B holds no infinities: the quantizer
    /// saturates them.)
    ///
    /// # Panics
    ///
    /// Panics if the entry count does not fit a `u32`.
    fn keep_all(&self, cols: usize, zero: u8) -> Self {
        let rows = self.row_ptr.len() - 1;
        assert!(
            u32::try_from(rows * cols).is_ok(),
            "operand too large to compact"
        );
        let mut code = vec![zero; rows * cols];
        for r in 0..rows {
            let (ids, cods) = self.row(r);
            for (&c, &cd) in ids.iter().zip(cods) {
                code[r * cols + c as usize] = cd;
            }
        }
        Self {
            row_ptr: (0..=rows).map(|r| (r * cols) as u32).collect(),
            idx: (0..rows).flat_map(|_| 0..cols as u32).collect(),
            code,
        }
    }
}

/// The portable rendition of `z16::compact_row`: every entry is written
/// at `len`, and `len` advances only past the kept ones, so the loop has
/// no data-dependent branch. Needs one entry of slack past the last kept
/// entry in `idx` and `code`.
fn compact_row(row: &[u8], mag: u8, idx: &mut [u32], code: &mut [u8], mut len: usize) -> usize {
    for (c, &cd) in row.iter().enumerate() {
        idx[len] = c as u32;
        code[len] = cd;
        len += usize::from(cd & mag != 0);
    }
    len
}

/// [`PackedOperand`] payload for the A side: the zero-skipping compaction.
#[derive(Debug)]
struct MacPackedA {
    compact: Arc<CompactA>,
    fingerprint: u64,
}

/// [`PackedOperand`] payload for the B side: the lane-interleaved panel,
/// and whether any code is a NaN (which makes the product keep every A
/// entry, see [`CompactA::keep_all`]).
#[derive(Debug)]
struct MacPackedB {
    /// Lane-interleaved panel holding every column (see [`build_panel`]).
    panel: Arc<Vec<u8>>,
    has_nan: bool,
    fingerprint: u64,
    /// The compaction of `Bᵀ` the masked product reads, built by the
    /// first one (see [`MacPackedB::columns`]).
    cols: OnceLock<Arc<CompactA>>,
}

impl MacPackedB {
    /// The compaction of `Bᵀ` (see [`CompactA::from_panel_columns`]),
    /// built once per packed operand: a weight packed for a step serves
    /// every masked product of that step, on every replica.
    fn columns(&self, k: usize, n: usize, mag: u8, tier: SimdTier) -> Arc<CompactA> {
        let cols = self
            .cols
            .get_or_init(|| Arc::new(CompactA::from_panel_columns(&self.panel, k, n, mag, tier)));
        Arc::clone(cols)
    }
}

/// The width of the tail block that holds the `rem = n % 64` columns
/// past the last full block: `rem` rounded up to 8, 16, 32 or 64, and 0
/// without a remainder. Its kernel calls advance `64 / W` rows at once
/// (see [`group_rows`]).
fn tail_width(rem: usize) -> usize {
    if rem == 0 {
        0
    } else {
        rem.next_power_of_two().max(8)
    }
}

/// The rows one kernel call advances across the tail block of an
/// `n`-column panel: `64 / W` for a `W`-wide tail, 1 without one.
fn group_rows(n: usize) -> usize {
    match tail_width(n % LANES) {
        0 => 1,
        w => LANES / w,
    }
}

/// The column blocks of an `n`-column B panel as `(first column, width)`:
/// 64-wide blocks over `[0, n64)`, then one tail block of
/// [`tail_width`] over the remaining columns, possibly extending past
/// `n` (`n64 = n - n % 64`).
fn panel_blocks(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let (n64, tail) = (n - n % LANES, tail_width(n % LANES));
    let full = (0..n64).step_by(LANES).map(|c| (c, LANES));
    full.chain((tail > 0).then_some((n64, tail)))
}

/// The block of [`panel_blocks`] that holds column `j` of an `n`-column
/// panel, as `(first column, width)`.
fn panel_block_of(j: usize, n: usize) -> (usize, usize) {
    let n64 = n - n % LANES;
    if j < n64 {
        (j - j % LANES, LANES)
    } else {
        (n64, tail_width(n % LANES))
    }
}

/// Builds the lane-interleaved B panel from row-major `k x n` codes. A
/// block of width `W` starting at column `c` (see [`panel_blocks`])
/// occupies bytes `[c * k, (c + W) * k)` and stores code `(ci, c + l)`
/// at `c * k + ci * W + l`, so a k-step loads one block row as one
/// contiguous line:
///
/// - `W = 64` over columns `[0, n64)`;
/// - one tail block over the remaining `n - n64` columns, `W` their
///   count rounded up to 8, 16, 32 or 64, with the lanes past `n`
///   holding `zero` (+0). A padded lane only ever sees zero-magnitude
///   products, which are never committed and never consume an SR draw,
///   so the live lanes' results do not depend on it.
///
/// Each block row is one contiguous copy out of the row-major codes.
/// Tile and dispatch boundaries are multiples of 64, so no block ever
/// straddles a job boundary.
fn build_panel(codes: &[u8], k: usize, n: usize, zero: u8) -> Vec<u8> {
    let mut panel = vec![zero; panel_width(n) * k];
    for (col0, width) in panel_blocks(n) {
        let live = width.min(n - col0);
        for ci in 0..k {
            let dst = col0 * k + ci * width;
            panel[dst..dst + live].copy_from_slice(&codes[ci * n + col0..][..live]);
        }
    }
    panel
}

/// The panel of `Aᵀ` for a product run transposed: the `k x m` operand
/// whose column `j` is row `j` of A, in the layout of [`build_panel`],
/// scattered from A's compaction. The entries the compaction dropped
/// stay `zero`: like a padded lane, they only ever meet in zero-magnitude
/// products, which are never committed and never consume an SR draw.
fn panel_from_rows(rows: &CompactA, k: usize, m: usize, zero: u8) -> Vec<u8> {
    let mut panel = vec![zero; panel_width(m) * k];
    for (col0, width) in panel_blocks(m) {
        let block = &mut panel[col0 * k..(col0 + width) * k];
        for l in 0..width.min(m - col0) {
            let (ids, cods) = rows.row(col0 + l);
            for (&ci, &cd) in ids.iter().zip(cods) {
                block[ci as usize * width + l] = cd;
            }
        }
    }
    panel
}

/// The number of panel lanes of an `n`-column operand: the full 64-lane
/// blocks plus the tail block.
fn panel_width(n: usize) -> usize {
    n - n % LANES + tail_width(n % LANES)
}

/// Transposes `rows x cols` bytes, whose rows start `src_stride` bytes
/// apart in `src`, into `dst`, whose rows start `dst_stride` bytes apart:
/// `dst[c * dst_stride + r] = src[r * src_stride + c]`. Walks 32 x 32
/// tiles, so every source and destination line a tile touches stays in
/// L1 while the tile is copied.
fn transpose_bytes(
    src: &[u8],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [u8],
    dst_stride: usize,
) {
    const T: usize = 32;
    for r0 in (0..rows).step_by(T) {
        let r1 = rows.min(r0 + T);
        for c0 in (0..cols).step_by(T) {
            for c in c0..cols.min(c0 + T) {
                let line = &mut dst[c * dst_stride + r0..c * dst_stride + r1];
                for (d, r) in line.iter_mut().zip(r0..r1) {
                    *d = src[r * src_stride + c];
                }
            }
        }
    }
}

/// The transpose of row-major `rows x cols` codes (column-major order).
fn transposed(codes: &[u8], rows: usize, cols: usize) -> Vec<u8> {
    let mut out = vec![0u8; rows * cols];
    transpose_bytes(codes, cols, rows, cols, &mut out, rows);
    out
}

/// Columns per strip of [`CompactA::build_transposed`]: a strip of a
/// `k`-row operand is `16 * k` bytes.
const TRANSPOSE_STRIP: usize = 16;

/// The zero-skip statistics of a code matrix in one pass: how many codes
/// have a non-zero magnitude (the entries a compaction keeps), and
/// whether any is a NaN (a magnitude above infinity's). Counts in `u8`
/// lanes per 128-byte chunk, which vectorizes; a `usize` fold does not.
fn code_stats(codes: &[u8], mag: u8, inf_mag: u8) -> (usize, bool) {
    let (mut nnz, mut top) = (0usize, 0u8);
    for chunk in codes.chunks(128) {
        let mut kept = 0u8;
        for &cd in chunk {
            kept += u8::from(cd & mag != 0);
            top = top.max(cd & mag);
        }
        nnz += usize::from(kept);
    }
    (nnz, top > inf_mag)
}

/// The kernel's cost estimate of a compacted product: `nnz` compacted
/// entries, each one k-step across the panel lanes of an `n`-column
/// output — the full 64-lane blocks and the zero-padded tail block. A
/// lane-step costs the same in every block: rows share a narrow block's
/// 64-lane call ([`MacKernel::row_groups`]), so it runs four chains like
/// a full one.
fn lane_cost(nnz: usize, n: usize) -> usize {
    nnz * panel_width(n)
}

/// Whether an `m x k x n` product runs transposed (`outᵀ = Bᵀ · Aᵀ`,
/// compacting `Bᵀ`): when B's `nnz_b` non-zero codes across `m` panel
/// lanes cost less than A's `nnz_a` across `n`. A pure function of the
/// shape and the operand codes; either orientation computes the same
/// bits.
fn runs_transposed(m: usize, n: usize, nnz_a: usize, nnz_b: usize) -> bool {
    lane_cost(nnz_b, m) < lane_cost(nnz_a, n)
}

/// Which operand the compacted kernel walks. Each output element keeps
/// its `(row_base + i, j)` stream and its `k` order in both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Orient {
    /// Today's orientation: A is compacted, B is the lane panel.
    AsIs,
    /// `outᵀ = Bᵀ · Aᵀ`: B's columns are compacted and A's rows form the
    /// lane panel; results are written back transposed.
    Transposed,
}

/// The execution plan every product runs: compacted rows against a lane
/// panel, in orientation `orient` — A's rows against B's panel, or
/// transposed, `Bᵀ`'s against `Aᵀ`'s. A panel holding a NaN meets a
/// compaction that kept every entry ([`CompactA::keep_all`]).
#[derive(Debug)]
struct Plan {
    compact: Arc<CompactA>,
    panel: Arc<Vec<u8>>,
    orient: Orient,
}

impl Plan {
    /// Fills the kernel rectangle `rows x cols` into `block` (see
    /// [`MacKernel::compute_rect_compact_body`] for the transposed layout)
    /// on the lane kernel, or on the scalar loop without one.
    #[allow(clippy::too_many_arguments)]
    fn compute_rect(
        &self,
        kernel: &MacKernel,
        k: usize,
        n: usize,
        row_base: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        let (compact, panel, orient) = (&self.compact, &self.panel, self.orient);
        match &kernel.lanes {
            Some(lanes) => kernel.compute_rect_compact(
                lanes, compact, panel, k, n, row_base, orient, rows, cols, block,
            ),
            None => kernel
                .compute_rect_scalar(compact, panel, k, n, row_base, orient, rows, cols, block),
        }
    }
}

/// The plan of a masked product ([`GemmEngine::gemm_packed_masked`]):
/// the gathered-lane plan of [`MacKernel::compute_masked_body`] on the
/// lane kernel, or one scalar [`MacKernel::dot`] per needed element
/// without one.
#[derive(Debug)]
struct MaskedPlan {
    /// A's compacted rows: the lanes' operands.
    rows: Arc<CompactA>,
    /// `Bᵀ`'s compacted rows, one per output column (see
    /// [`MacPackedB::columns`]): present exactly when the kernel has
    /// lanes.
    cols: Option<Arc<CompactA>>,
    /// B's panel, for the scalar loop.
    panel: Arc<Vec<u8>>,
    need: Arc<NeededRows>,
    k: usize,
    n: usize,
    zero: u8,
}

impl MaskedPlan {
    /// The needed rows of column `j`, ascending, into `out` (cleared
    /// first): `NeededRows::rows` as a plain loop over the bit words,
    /// which measured faster than collecting that iterator.
    fn needed(&self, j: usize, out: &mut Vec<u32>) {
        out.clear();
        for (w, &word) in self.need.column(j).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Fills the needed entries of the whole-height column strip `cols`
    /// into `block` (row-major, stride `cols.len()`).
    fn compute_strip(
        &self,
        kernel: &MacKernel,
        row_base: usize,
        cols: Range<usize>,
        block: &mut [f32],
    ) {
        if let (Some(lanes), Some(bt)) = (&kernel.lanes, &self.cols) {
            kernel.compute_masked(lanes, bt, self, row_base, cols, block);
            return;
        }
        let (w, mut needed) = (cols.len(), Vec::new());
        for j in cols.clone() {
            let (col0, width) = panel_block_of(j, self.n);
            let at = col0 * self.k + j - col0;
            self.needed(j, &mut needed);
            for &r in &needed {
                let (ids, cods) = self.rows.row(r as usize);
                let pairs = (ids.iter().zip(cods))
                    .map(|(&ci, &ca)| (ca, self.panel[at + ci as usize * width]));
                let v = kernel.dot(pairs, row_base + r as usize, j);
                block[r as usize * w + j - cols.start] = v;
            }
        }
    }
}

/// Stages the A rows `lanes` (at most 64) of a masked kernel call into
/// the 64-lane panel `pan` (code `(ci, l)` at `ci * 64 + l`, `k * 64`
/// bytes): lane `l` holds row `lanes[l]`, its dropped zeros
/// and the lanes past `lanes.len()` hold `zero`. Under AVX-512, with `k`
/// a multiple of 8, `z16::stage_lanes` reads eight codes of each row
/// that kept all `k` entries at once and leaves the other rows to
/// [`stage_lane`]; elsewhere every lane is staged by [`stage_lane`].
fn stage_lanes(tier: SimdTier, a: &CompactA, lanes: &[u32], k: usize, zero: u8, pan: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx512 && k.is_multiple_of(8) {
        // SAFETY: `SimdTier::detect` verified every feature the z16
        // routine enables.
        #[allow(unsafe_code)]
        let mut partial = unsafe { z16::stage_lanes(&a.row_ptr, &a.code, lanes, k, zero, pan) };
        while partial != 0 {
            let l = partial.trailing_zeros() as usize;
            stage_lane(a.row(lanes[l] as usize), l, zero, pan);
            partial &= partial - 1;
        }
        return;
    }
    let _ = tier;
    for l in 0..LANES {
        let row = lanes
            .get(l)
            .map_or((&[][..], &[][..]), |&r| a.row(r as usize));
        stage_lane(row, l, zero, pan);
    }
}

/// Stages one compacted row into lane `l` of a 64-lane panel of
/// `pan.len() / 64` k-indices: its kept codes, `zero` elsewhere.
fn stage_lane((ids, cods): Row<'_>, l: usize, zero: u8, pan: &mut [u8]) {
    for at in (l..pan.len()).step_by(LANES) {
        pan[at] = zero;
    }
    for (&ci, &cd) in ids.iter().zip(cods) {
        pan[ci as usize * LANES + l] = cd;
    }
}

/// A [`GemmEngine`] where every scalar operation is a bit-exact MAC-unit
/// step: operands quantize to FP8 (RN, saturating), products are exact, and
/// the accumulator is a low-precision float updated with RN or SR — in the
/// sequential `k` order a hardware MAC would see.
///
/// Rounding words come from counter-seeded `SplitMix64` streams, one per
/// output element, making results independent of the thread partition.
/// (Hardware uses the Galois LFSR of `srmac-rng`; both are uniform sources,
/// and the LFSR-driven `MacUnit` is verified separately.)
///
/// Dispatch runs on a shared parallel [`Runtime`] (`srmac-runtime`):
/// by default the engine builds its own runtime sized to
/// `config.threads`, but [`MacGemm::with_runtime`] lets it share one pool
/// with the rest of the stack.
#[derive(Debug)]
pub struct MacGemm {
    config: MacGemmConfig,
    quant: FastQuantizer,
    zero_code: u8,
    kernel: Arc<MacKernel>,
    runtime: Arc<Runtime>,
    /// Recycled byte buffers for the quantization scratch of `pack_a`,
    /// `pack_b`, the one-shot `gemm`, [`MacGemm::gemm_reference`] and the
    /// `_into` quantization helpers.
    codes_scratch: Mutex<Vec<Vec<u8>>>,
    /// SR streams seed at output row `row_base + i` instead of `i`: 0 for
    /// ordinary engines, the first-row offset for the derived engines of
    /// [`GemmEngine::with_row_base`] (data-parallel sub-batches drawing
    /// their full-batch streams).
    row_base: usize,
}

impl MacGemm {
    /// Builds the engine (precomputes product and decode tables). At the
    /// default thread count the engine dispatches on the process-wide
    /// [`Runtime::global`] — one worker pool shared with every other
    /// default engine and the trainer's replicas, never a second
    /// oversubscribing pool; an explicit non-default `config.threads` gets
    /// a private runtime of that size (results are bitwise identical
    /// either way).
    ///
    /// # Panics
    ///
    /// Panics if the formats exceed the fast-path envelope (multiplier
    /// format wider than 8 bits, accumulator wider than 16).
    #[must_use]
    pub fn new(config: MacGemmConfig) -> Self {
        let runtime = if config.threads == srmac_runtime::available_threads() {
            Arc::clone(Runtime::global())
        } else {
            Arc::new(Runtime::new(config.threads))
        };
        Self::with_runtime(config, runtime)
    }

    /// Builds the engine on an existing shared [`Runtime`] (the pool size
    /// of `runtime` supersedes `config.threads` for dispatch). Results are
    /// bitwise identical for every runtime size.
    ///
    /// # Panics
    ///
    /// Panics if the formats exceed the fast-path envelope (multiplier
    /// format wider than 8 bits, accumulator wider than 16).
    #[must_use]
    pub fn with_runtime(config: MacGemmConfig, runtime: Arc<Runtime>) -> Self {
        let lut = ProductLut::build(config.mul_fmt, config.acc_fmt);
        let quant = FastQuantizer::new(config.mul_fmt);
        let adder = FastAdder::new(config.acc_fmt, config.rounding);
        let lanes = FastAdderBatch::new(config.acc_fmt, config.rounding).map(|batch| Lanes {
            plut: PairLut::build(&lut, &batch),
            batch,
        });
        let decode: Vec<f32> = (0..1u64 << config.acc_fmt.bits())
            .map(|bits| config.acc_fmt.decode_f64(bits) as f32)
            .collect();
        let zero_code = config.mul_fmt.zero_bits(false) as u8;
        let kernel = Arc::new(MacKernel {
            lut,
            adder,
            lanes,
            decode,
            acc_mag_mask: !(1 << (config.acc_fmt.bits() - 1))
                & srmac_fp::mask(config.acc_fmt.bits()),
            rounding: config.rounding,
            seed: config.seed,
            tier: SimdTier::detect(),
        });
        Self {
            config,
            quant,
            zero_code,
            kernel,
            runtime,
            codes_scratch: Mutex::new(Vec::new()),
            row_base: 0,
        }
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &MacGemmConfig {
        &self.config
    }

    /// Whether the lane kernel and its product-pair LUT are engaged:
    /// false for accumulators outside the `u32` lane-word envelope (e.g.
    /// E5M10 at SR13), whose products all run the scalar loop over the
    /// same compaction and panel.
    #[must_use]
    pub fn pair_lut_active(&self) -> bool {
        self.kernel.lanes.is_some()
    }

    /// Caps the vector-ISA tier of the lane kernel and the row
    /// compaction at `max`: the engine runs `max` or the host's detected
    /// tier, whichever is lower, so one host can run (and test) every
    /// codegen up to its own. Downgrade only — a cap above the host's
    /// tier changes nothing — and every tier computes the same bits.
    #[must_use]
    pub fn with_max_tier(mut self, max: SimdTier) -> Self {
        let tier = self.kernel.tier.min(max);
        Arc::make_mut(&mut self.kernel).tier = tier;
        self
    }

    /// Quantizes a slice to multiplier-format codes.
    #[must_use]
    pub fn quantize_codes(&self, xs: &[f32]) -> Vec<u8> {
        let mut out = self.take_codes_buf();
        self.quantize_codes_into(xs, &mut out);
        out
    }

    /// [`MacGemm::quantize_codes`] into a caller-owned buffer (cleared
    /// and refilled) — the workspace-reuse variant for paths that
    /// quantize repeatedly.
    pub fn quantize_codes_into(&self, xs: &[f32], out: &mut Vec<u8>) {
        out.clear();
        out.resize(xs.len(), 0);
        self.quant.quantize_block(xs, out, self.kernel.tier);
    }

    /// Pops a recycled byte buffer (or a fresh empty one).
    fn take_codes_buf(&self) -> Vec<u8> {
        #[expect(
            clippy::expect_used,
            reason = "a poisoned stash means a worker already panicked — propagate the abort"
        )]
        let mut stash = self.codes_scratch.lock().expect("codes scratch poisoned");
        stash.pop().unwrap_or_default()
    }

    /// Returns a byte buffer to the bounded free list.
    fn recycle_codes_buf(&self, mut buf: Vec<u8>) {
        buf.clear();
        #[expect(
            clippy::expect_used,
            reason = "a poisoned stash means a worker already panicked — propagate the abort"
        )]
        let mut stash = self.codes_scratch.lock().expect("codes scratch poisoned");
        if stash.len() < 8 {
            stash.push(buf);
        }
    }

    /// The multiplier-format fingerprint packed operands carry: engines
    /// sharing it produce (and accept) identical codes.
    fn fingerprint(&self) -> u64 {
        let f = self.config.mul_fmt;
        (u64::from(f.exp_bits()) << 9) | (u64::from(f.man_bits()) << 1) | u64::from(f.subnormals())
    }

    fn unpack_a<'p>(&self, p: &'p PackedOperand, rows: usize, cols: usize) -> &'p MacPackedA {
        assert_eq!(p.side(), PackSide::A, "operand packed for the wrong side");
        assert_eq!(
            (p.rows(), p.cols()),
            (rows, cols),
            "packed operand shape mismatch"
        );
        #[expect(
            clippy::expect_used,
            reason = "documented contract — operands must come from this engine's pack_a/pack_b"
        )]
        let payload = p
            .payload::<MacPackedA>()
            .expect("operand was not packed by a MacGemm engine");
        assert_eq!(
            payload.fingerprint,
            self.fingerprint(),
            "operand was packed for a different multiplier format"
        );
        payload
    }

    fn unpack_b<'p>(&self, p: &'p PackedOperand, rows: usize, cols: usize) -> &'p MacPackedB {
        assert_eq!(p.side(), PackSide::B, "operand packed for the wrong side");
        assert_eq!(
            (p.rows(), p.cols()),
            (rows, cols),
            "packed operand shape mismatch"
        );
        #[expect(
            clippy::expect_used,
            reason = "documented contract — operands must come from this engine's pack_b"
        )]
        let payload = p
            .payload::<MacPackedB>()
            .expect("operand was not packed by a MacGemm engine");
        assert_eq!(
            payload.fingerprint,
            self.fingerprint(),
            "operand was packed for a different multiplier format"
        );
        payload
    }

    /// Runs a planned product on the runtime. `m x k x n` is the kernel's
    /// shape: the plan's A side holds its `m` rows, its B side its `n`
    /// columns. A transposed plan computes the transpose of the `n x m`
    /// matrix `out`.
    fn gemm_codes(&self, m: usize, k: usize, n: usize, plan: Plan, out: &mut [f32]) {
        // The grid depends on the shape alone: a single-job grid runs
        // inline on the caller, a thin product gets rows-per-job small
        // enough to reach every core (see `dispatch_tiles`). Transposed,
        // the runtime fills `out` over the same grid with its axes
        // swapped, so column tiles still never split a panel block.
        let (row_tile, col_tile) = dispatch_tiles(m, k, n);
        let transposed = plan.orient == Orient::Transposed;
        let kernel = Arc::clone(&self.kernel);
        let row_base = self.row_base;
        let job = move |rows, cols, block: &mut [f32]| {
            plan.compute_rect(&kernel, k, n, row_base, rows, cols, block);
        };
        if transposed {
            self.runtime
                .parallel_fill_blocks(n, m, col_tile, row_tile, out, move |r, c, b| job(c, r, b));
        } else {
            self.runtime
                .parallel_fill_blocks(m, n, row_tile, col_tile, out, job);
        }
    }

    /// The scalar reference GEMM: quantizes both operands, transposes B,
    /// and runs one dense scalar dot product per output element on the
    /// calling thread, seeded with the element's `(row_base + i, j)`
    /// stream — with no compaction, panel, lane batch or dispatch, and
    /// the only place dense codes are built. The equivalence suites use
    /// it as the oracle every fast path must match bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with `m * k`, `k * n`, `m * n`.
    pub fn gemm_reference(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        assert_eq!(a.len(), m * k, "A must be m x k");
        assert_eq!(b.len(), k * n, "B must be k x n");
        assert_eq!(out.len(), m * n, "out must be m x n");
        let mut acode = self.take_codes_buf();
        self.quantize_codes_into(a, &mut acode);
        let mut bcode = self.take_codes_buf();
        self.quantize_codes_into(b, &mut bcode);
        let bcode_t = transposed(&bcode, k, n);
        for (ij, o) in out.iter_mut().enumerate() {
            let (arow, bcol) = (&acode[ij / n * k..][..k], &bcode_t[ij % n * k..][..k]);
            let pairs = arow.iter().copied().zip(bcol.iter().copied());
            *o = self.kernel.dot(pairs, self.row_base + ij / n, ij % n);
        }
        self.recycle_codes_buf(acode);
        self.recycle_codes_buf(bcode);
    }

    /// The plan of A's `k`-wide compacted rows against B's panel, in
    /// today's orientation: a panel holding a NaN meets every A entry.
    fn plan_as_is(&self, rows_a: Arc<CompactA>, k: usize, panel: Arc<Vec<u8>>, nan: bool) -> Plan {
        let compact = if nan {
            Arc::new(rows_a.keep_all(k, self.zero_code))
        } else {
            rows_a
        };
        Plan {
            compact,
            panel,
            orient: Orient::AsIs,
        }
    }

    /// Quantizes row-major `rows x cols` values and CSR-compacts them,
    /// through a recycled buffer.
    fn compact(&self, rows: usize, cols: usize, xs: &[f32]) -> CompactA {
        let (mag_mask, inf_mag) = self.code_masks();
        let codes = self.quantize_codes(xs);
        let (nnz, _) = code_stats(&codes, mag_mask, inf_mag);
        let compact = CompactA::build(&codes, rows, cols, nnz, mag_mask, self.kernel.tier);
        self.recycle_codes_buf(codes);
        compact
    }

    /// The magnitude mask and infinity magnitude of multiplier codes.
    fn code_masks(&self) -> (u8, u8) {
        let fmt = self.config.mul_fmt;
        let mag = srmac_fp::mask(fmt.bits() - 1);
        (mag as u8, (fmt.inf_bits(false) & mag) as u8)
    }
}

/// Mixes the base seed with an output coordinate into a stream seed.
fn mix_seed(seed: u64, i: usize, j: usize) -> u64 {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((j as u64) << 32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

impl GemmEngine for MacGemm {
    fn pack_a(&self, rows: usize, cols: usize, a: &[f32]) -> PackedOperand {
        assert_eq!(a.len(), rows * cols, "A must be rows x cols");
        // Block-quantize into reusable scratch, then CSR-compact the
        // non-zero-magnitude entries in one vector pass per row.
        let payload = MacPackedA {
            compact: Arc::new(self.compact(rows, cols, a)),
            fingerprint: self.fingerprint(),
        };
        PackedOperand::new(PackSide::A, rows, cols, Box::new(payload))
    }

    fn pack_b(&self, rows: usize, cols: usize, b: &[f32]) -> PackedOperand {
        assert_eq!(b.len(), rows * cols, "B must be rows x cols");
        // Block-quantize into reusable scratch (16 values per instruction
        // on AVX-512), flag NaN codes, and interleave the panel straight
        // from the row-major codes.
        let (mag_mask, inf_mag) = self.code_masks();
        let codes = self.quantize_codes(b);
        let (_, has_nan) = code_stats(&codes, mag_mask, inf_mag);
        let panel = build_panel(&codes, rows, cols, self.zero_code);
        self.recycle_codes_buf(codes);
        let payload = MacPackedB {
            panel: Arc::new(panel),
            has_nan,
            fingerprint: self.fingerprint(),
            cols: OnceLock::new(),
        };
        PackedOperand::new(PackSide::B, rows, cols, Box::new(payload))
    }

    fn gemm_packed(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &PackedOperand,
        b: &PackedOperand,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), m * n, "out must be m x n");
        let a = self.unpack_a(a, m, k);
        let b = self.unpack_b(b, k, n);
        let plan = self.plan_as_is(Arc::clone(&a.compact), k, Arc::clone(&b.panel), b.has_nan);
        self.gemm_codes(m, k, n, plan, out);
    }

    // The masked product runs the gathered-lane plan (see
    // `MacKernel::compute_masked_body`): output column `j` is a compacted
    // row of `Bᵀ` whose lanes are only the needed rows of that column, so
    // the entries nobody reads cost no lane-steps. A NaN in either
    // operand runs today's full product instead: in the gathered plan A
    // is the panel, and `0 * NaN` would have to meet the B zeros the
    // compaction dropped.
    fn gemm_packed_masked(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &PackedOperand,
        b: &PackedOperand,
        need: &Arc<NeededRows>,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), m * n, "out must be m x n");
        assert_eq!((need.m(), need.n()), (m, n), "need must be m x n");
        let a = self.unpack_a(a, m, k);
        let b = self.unpack_b(b, k, n);
        let (mag_mask, inf_mag) = self.code_masks();
        let (_, a_nan) = code_stats(&a.compact.code, mag_mask, inf_mag);
        if a_nan || b.has_nan {
            let plan = self.plan_as_is(Arc::clone(&a.compact), k, Arc::clone(&b.panel), b.has_nan);
            self.gemm_codes(m, k, n, plan, out);
            return;
        }
        let (lanes, tier) = (self.kernel.lanes.is_some(), self.kernel.tier);
        let cols = lanes.then(|| b.columns(k, n, mag_mask, tier));
        let plan = MaskedPlan {
            rows: Arc::clone(&a.compact),
            cols,
            panel: Arc::clone(&b.panel),
            need: Arc::clone(need),
            k,
            n,
            zero: self.zero_code,
        };
        // Whole-height column strips: every column's needed rows stay in
        // one list, so only its last 64-lane call runs part-empty. A
        // strip holds as many entries as a job of the full product
        // (`MIN_JOB_MACS / k`), so its output block is no larger than
        // theirs: strips cut to the full product's work per job, twice
        // its entries at half density, measured about 3 MB more peak RSS
        // in a training run. A product small enough for one job of the
        // full product runs as one strip.
        let col_tile = if m * k * n < SINGLE_JOB_MACS {
            n
        } else {
            MIN_JOB_MACS.div_ceil(k * m).max(1)
        };
        let (kernel, row_base) = (Arc::clone(&self.kernel), self.row_base);
        self.runtime.parallel_fill_blocks(
            m,
            n,
            m.max(1),
            col_tile,
            out,
            move |rows, cols, block| {
                debug_assert_eq!(rows, 0..m, "strips are whole-height");
                plan.compute_strip(&kernel, row_base, cols, block);
            },
        );
    }

    // The one-shot product (in training, only the weight gradients)
    // quantizes each operand once and compacts whichever side is cheaper
    // to skip: CSR compaction drops only the compacted operand's zeros,
    // and the sparse side of `dW = dYᵀ · rows` is B, the post-ReLU im2row
    // matrix. Skipping a zero product is exact whichever operand holds
    // the zero — it neither changes an accumulator nor draws an SR word —
    // and the transposed kernel seeds each output element at its own
    // `(row_base + i, j)` in its own `k` order, so both orientations
    // produce the same bits as `gemm_packed` and `gemm_reference`. A NaN
    // in either operand keeps today's orientation: transposed, A's NaN
    // would sit in the panel against a compaction that dropped B's zeros,
    // while a NaN in B keeps every A entry as `gemm_packed` does.
    //
    // A is compacted first, as `pack_a` does: both orientations read it
    // (transposed, its rows become the panel), and only one operand's
    // codes are ever held at a time, so the one-shot path keeps no more
    // buffers than `pack_a` plus `pack_b`.
    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(a.len(), m * k, "A must be m x k");
        assert_eq!(b.len(), k * n, "B must be k x n");
        assert_eq!(out.len(), m * n, "out must be m x n");
        let (mag_mask, inf_mag) = self.code_masks();
        let (tier, zero) = (self.kernel.tier, self.zero_code);
        let rows_a = self.compact(m, k, a);
        let (_, a_nan) = code_stats(&rows_a.code, mag_mask, inf_mag);
        let bcode = self.quantize_codes(b);
        let (nnz_b, b_nan) = code_stats(&bcode, mag_mask, inf_mag);
        let (km, kn, plan) = if !a_nan && !b_nan && runs_transposed(m, n, rows_a.idx.len(), nnz_b) {
            let plan = Plan {
                compact: Arc::new(CompactA::build_transposed(
                    &bcode, k, n, nnz_b, mag_mask, tier,
                )),
                panel: Arc::new(panel_from_rows(&rows_a, k, m, zero)),
                orient: Orient::Transposed,
            };
            (n, m, plan)
        } else {
            let panel = Arc::new(build_panel(&bcode, k, n, zero));
            (m, n, self.plan_as_is(Arc::new(rows_a), k, panel, b_nan))
        };
        self.recycle_codes_buf(bcode);
        self.gemm_codes(km, k, kn, plan, out);
    }

    // The spec atom of this configuration (`spec` module grammar), with
    // the seed always explicit: per-role resolution folds role ids only into
    // *default* seeds, so an atom carrying its exact seed rebuilds
    // identical numerics in any position of any policy.
    fn spec(&self) -> Option<String> {
        let mut atom = self.config.to_string();
        if self.config.seed == MacGemmConfig::DEFAULT_SEED {
            atom.push_str(&format!("_seed{:x}", self.config.seed));
        }
        Some(atom)
    }

    // SR accumulation streams are seeded per output coordinate, so a
    // sample's rows depend on its batch position — the one engine family
    // that must opt out of the serving determinism contract.
    fn position_invariant(&self) -> bool {
        matches!(self.config.rounding, AccumRounding::Nearest)
    }

    // The derived engine shares the kernel (LUTs, adders — behind one
    // `Arc`) and the runtime; only the stream row origin differs, so row
    // `i` of its output is bit-identical to row `first_row + i` of the
    // base engine's output over the same operand rows. Offsets compose:
    // deriving from a derived engine adds the bases. Packed operands
    // carry no position state and transfer freely between base and
    // derived engines.
    fn with_row_base(&self, first_row: usize) -> Option<Arc<dyn GemmEngine>> {
        if first_row == 0 || self.position_invariant() {
            return None;
        }
        Some(Arc::new(Self {
            config: self.config,
            quant: FastQuantizer::new(self.config.mul_fmt),
            zero_code: self.zero_code,
            kernel: Arc::clone(&self.kernel),
            runtime: Arc::clone(&self.runtime),
            codes_scratch: Mutex::new(Vec::new()),
            row_base: self.row_base + first_row,
        }))
    }

    fn name(&self) -> String {
        let c = &self.config;
        let rnd = match c.rounding {
            AccumRounding::Nearest => "RN".to_owned(),
            AccumRounding::Stochastic { r } => format!("SR r={r}"),
        };
        format!(
            "MAC E{}M{} x E{}M{} acc E{}M{} {} {}",
            c.mul_fmt.exp_bits(),
            c.mul_fmt.man_bits(),
            c.mul_fmt.exp_bits(),
            c.mul_fmt.man_bits(),
            c.acc_fmt.exp_bits(),
            c.acc_fmt.man_bits(),
            rnd,
            if c.acc_fmt.subnormals() {
                "W/ Sub"
            } else {
                "W/O Sub"
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srmac_core::{MacConfig, MacUnit, RoundingDesign};
    use srmac_tensor::{F32Engine, GemmEngine};

    fn rand_vec(n: usize, seed: u64, scale: f32) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| (rng.next_f64() as f32 - 0.5) * scale)
            .collect()
    }

    #[test]
    fn rn_gemm_matches_mac_unit_loop() {
        // The engine under RN must agree exactly with driving the RTL-level
        // MacUnit element by element (no randomness involved).
        let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Nearest, true).with_threads(2);
        let engine = MacGemm::new(cfg);
        let (m, k, n) = (5, 23, 4);
        let a = rand_vec(m * k, 1, 4.0);
        let b = rand_vec(k * n, 2, 4.0);
        let mut out = vec![0.0f32; m * n];
        engine.gemm(m, k, n, &a, &b, &mut out);

        let mut mac = MacUnit::new(MacConfig::fp8_fp12(RoundingDesign::Nearest, true)).unwrap();
        let fp8 = FpFormat::e5m2();
        for i in 0..m {
            for j in 0..n {
                mac.reset();
                for l in 0..k {
                    let qa = fp8.quantize_f32(a[i * k + l], srmac_fp::RoundMode::NearestEven);
                    let qb = fp8.quantize_f32(b[l * n + j], srmac_fp::RoundMode::NearestEven);
                    mac.mac(qa.bits, qb.bits);
                }
                assert_eq!(out[i * n + j], mac.acc_f64() as f32, "element ({i},{j})");
            }
        }
    }

    #[test]
    fn gemm_is_thread_invariant_and_deterministic() {
        let (m, k, n) = (17, 64, 9);
        let a = rand_vec(m * k, 3, 2.0);
        let b = rand_vec(k * n, 4, 2.0);
        let mut outs = Vec::new();
        for threads in [1usize, 2, 4] {
            let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false)
                .with_threads(threads);
            let engine = MacGemm::new(cfg);
            let mut out = vec![0.0f32; m * n];
            engine.gemm(m, k, n, &a, &b, &mut out);
            outs.push(out);
        }
        assert_eq!(outs[0], outs[1], "1 vs 2 threads");
        assert_eq!(outs[0], outs[2], "1 vs 4 threads");
    }

    #[test]
    fn packed_gemm_is_bitwise_identical_and_reusable() {
        // Same values through the one-shot, packed (reused twice), and
        // scalar-reference paths must agree bit for bit, under both RN and
        // SR, with and without the worker pool.
        let (m, k, n) = (23, 65, 11);
        let a = rand_vec(m * k, 31, 2.0);
        let b = rand_vec(k * n, 32, 2.0);
        for rounding in [AccumRounding::Nearest, AccumRounding::Stochastic { r: 13 }] {
            for threads in [1usize, 4] {
                let cfg = MacGemmConfig::fp8_fp12(rounding, false).with_threads(threads);
                let engine = MacGemm::new(cfg);
                let mut one_shot = vec![0.0f32; m * n];
                engine.gemm(m, k, n, &a, &b, &mut one_shot);

                let mut reference = vec![0.0f32; m * n];
                engine.gemm_reference(m, k, n, &a, &b, &mut reference);
                assert_eq!(one_shot, reference, "{rounding:?} t={threads}: reference");

                let pa = engine.pack_a(m, k, &a);
                let pb = engine.pack_b(k, n, &b);
                for trial in 0..2 {
                    let mut packed = vec![0.0f32; m * n];
                    engine.gemm_packed(m, k, n, &pa, &pb, &mut packed);
                    assert_eq!(
                        one_shot, packed,
                        "{rounding:?} t={threads} reuse {trial}: packed"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_operands_transfer_between_same_format_engines() {
        // Packing depends only on the multiplier format: codes packed by an
        // RN engine feed an SR engine with the same mul_fmt.
        let (m, k, n) = (4, 40, 3);
        let a = rand_vec(m * k, 41, 1.0);
        let b = rand_vec(k * n, 42, 1.0);
        let packer = MacGemm::new(MacGemmConfig::fp8_fp12(AccumRounding::Nearest, false));
        let runner = MacGemm::new(MacGemmConfig::fp8_fp12(
            AccumRounding::Stochastic { r: 13 },
            false,
        ));
        let pa = packer.pack_a(m, k, &a);
        let pb = packer.pack_b(k, n, &b);
        let mut via_transfer = vec![0.0f32; m * n];
        runner.gemm_packed(m, k, n, &pa, &pb, &mut via_transfer);
        let mut direct = vec![0.0f32; m * n];
        runner.gemm(m, k, n, &a, &b, &mut direct);
        assert_eq!(via_transfer, direct);
    }

    #[test]
    #[should_panic(expected = "different multiplier format")]
    fn packed_operand_format_mismatch_panics() {
        let with_sub = MacGemm::new(MacGemmConfig::fp8_fp12(AccumRounding::Nearest, true));
        let without_sub = MacGemm::new(MacGemmConfig::fp8_fp12(AccumRounding::Nearest, false));
        let pa = with_sub.pack_a(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let pb = with_sub.pack_b(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = vec![0.0f32; 4];
        without_sub.gemm_packed(2, 2, 2, &pa, &pb, &mut out);
    }

    #[test]
    fn sparse_and_nan_inputs_match_the_dense_reference() {
        // The compacted A path must be bitwise identical to the dense
        // scalar reference on heavily sparse inputs (ReLU-style zeros drawn
        // into A), and a NaN in B must force the exact dense semantics
        // (0 * NaN = NaN reaches the accumulator).
        let (m, k, n) = (9, 48, 6);
        let mut rng = SplitMix64::new(91);
        let mut a = rand_vec(m * k, 92, 2.0);
        for v in a.iter_mut() {
            if rng.next_f64() < 0.6 {
                // Mix positive and negative zeros: the whole compaction a
                // NaN in B meets canonicalizes skipped entries to +0, which
                // must not change any result (see CompactA::keep_all).
                *v = if rng.next_f64() < 0.5 { 0.0 } else { -0.0 };
            }
        }
        for rounding in [AccumRounding::Nearest, AccumRounding::Stochastic { r: 13 }] {
            for subnormals in [true, false] {
                let engine = MacGemm::new(MacGemmConfig::fp8_fp12(rounding, subnormals));
                for nan_in_b in [false, true] {
                    let mut b = rand_vec(k * n, 93, 2.0);
                    if nan_in_b {
                        b[k * n / 2] = f32::NAN;
                    }
                    let mut reference = vec![0.0f32; m * n];
                    engine.gemm_reference(m, k, n, &a, &b, &mut reference);
                    let mut packed = vec![0.0f32; m * n];
                    let (pa, pb) = (engine.pack_a(m, k, &a), engine.pack_b(k, n, &b));
                    engine.gemm_packed(m, k, n, &pa, &pb, &mut packed);
                    let same = reference
                        .iter()
                        .zip(&packed)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        same,
                        "{rounding:?} sub={subnormals} nan_in_b={nan_in_b}: \
                         {reference:?} vs {packed:?}"
                    );
                    if nan_in_b {
                        assert!(
                            packed.iter().any(|v| v.is_nan()),
                            "a NaN code must propagate into some output"
                        );
                    }
                }
            }
        }
    }

    /// The masked plan's staging agrees on every tier (rows that kept all
    /// `k` entries, rows that dropped some, empty rows, depths around the
    /// 8-code word, lane counts up to 64), and its need listing equals
    /// `NeededRows::rows`, columns that end inside a bit word included.
    #[test]
    fn masked_staging_and_listing_match_on_every_tier() {
        let zero = FpFormat::e5m2().zero_bits(false) as u8;
        let mag = srmac_fp::mask(FpFormat::e5m2().bits() - 1) as u8;
        let mut rng = SplitMix64::new(17);
        for k in [1usize, 5, 8, 16, 24, 32] {
            let rows = 150;
            let codes: Vec<u8> = (0..rows * k)
                .map(|i| {
                    // Rows 3, 10, 17, ... keep everything; row 4 nothing.
                    let (r, keep) = (i / k, rng.next_f64() < 0.6);
                    if r % 7 == 3 || (keep && r != 4) {
                        (rng.next_u64() % 120 + 1) as u8
                    } else {
                        zero
                    }
                })
                .collect();
            let (nnz, _) = code_stats(&codes, mag, mag);
            let compact = CompactA::build(&codes, rows, k, nnz, mag, SimdTier::Portable);
            let lane_rows: Vec<u32> = (0..rows as u32).filter(|r| r % 3 != 1).collect();
            for live in [0usize, 1, 17, 63, 64] {
                let lanes = &lane_rows[lane_rows.len() - live..];
                let pans: Vec<Vec<u8>> = SimdTier::supported()
                    .into_iter()
                    .map(|tier| {
                        let mut pan = vec![0xEE; k * LANES];
                        stage_lanes(tier, &compact, lanes, k, zero, &mut pan);
                        pan
                    })
                    .collect();
                for (l, &r) in lanes.iter().enumerate() {
                    let row = &codes[r as usize * k..][..k];
                    let staged: Vec<u8> = (0..k).map(|ci| pans[0][ci * LANES + l]).collect();
                    assert_eq!(staged, row, "k={k} lane {l} (row {r})");
                }
                for pan in &pans[1..] {
                    assert_eq!(pan, &pans[0], "k={k}, {live} lanes: tiers disagree");
                }
            }
        }
        let need = NeededRows::from_fn(300, 3, |i, j| (i * 7 + j * 3) % 5 < 2 || i == 299);
        let plan = MaskedPlan {
            rows: Arc::new(CompactA::build(&[], 0, 1, 0, mag, SimdTier::Portable)),
            cols: None,
            panel: Arc::new(Vec::new()),
            need: Arc::new(need.clone()),
            k: 1,
            n: 3,
            zero,
        };
        for j in 0..3 {
            let want: Vec<u32> = need.rows(j).map(|r| r as u32).collect();
            let mut got = vec![7u32; 3];
            plan.needed(j, &mut got);
            assert_eq!(got, want, "column {j}");
        }
    }

    #[test]
    fn wide_accumulator_approaches_f32_engine() {
        // With an E5M10 accumulator and RN, results should be very close to
        // (though not bitwise equal to) the f32 engine on quantized inputs.
        let (m, k, n) = (4, 32, 4);
        let a = rand_vec(m * k, 7, 1.0);
        let b = rand_vec(k * n, 8, 1.0);
        let engine = MacGemm::new(MacGemmConfig::fp8_acc(
            FpFormat::e5m10(),
            AccumRounding::Nearest,
            true,
        ));
        let mut out = vec![0.0f32; m * n];
        engine.gemm(m, k, n, &a, &b, &mut out);

        // f32 on the same quantized values.
        let ac: Vec<f32> = engine
            .quantize_codes(&a)
            .iter()
            .map(|&c| FpFormat::e5m2().decode_f64(u64::from(c)) as f32)
            .collect();
        let bc: Vec<f32> = engine
            .quantize_codes(&b)
            .iter()
            .map(|&c| FpFormat::e5m2().decode_f64(u64::from(c)) as f32)
            .collect();
        let mut want = vec![0.0f32; m * n];
        F32Engine::new(1).gemm(m, k, n, &ac, &bc, &mut want);
        for (got, want) in out.iter().zip(&want) {
            assert!(
                (got - want).abs() <= want.abs() * 0.01 + 1e-3,
                "{got} vs {want}"
            );
        }
    }

    #[test]
    fn config_wire_roundtrip_and_rejects_garbage() {
        for cfg in [
            MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_seed(77),
            MacGemmConfig::fp8_fp12(AccumRounding::Nearest, true),
            MacGemmConfig::fp8_acc(FpFormat::e5m10(), AccumRounding::Stochastic { r: 9 }, true),
        ] {
            let back = MacGemmConfig::from_wire(&cfg.to_wire()).expect("round trip");
            assert_eq!(back.mul_fmt, cfg.mul_fmt);
            assert_eq!(back.acc_fmt, cfg.acc_fmt);
            assert_eq!(back.rounding, cfg.rounding);
            assert_eq!(back.seed, cfg.seed);
            // Threads are machine state, not checkpoint state.
            assert!(back.threads >= 1);
        }
        let good = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).to_wire();
        for (byte, value, want) in [
            (
                0usize,
                0u8,
                ConfigWireError::BadFormat {
                    exp_bits: 0,
                    man_bits: 2,
                },
            ),
            (2, 7, ConfigWireError::BadFlag(7)),
            (6, 9, ConfigWireError::BadRoundingTag(9)),
            (7, 60, ConfigWireError::BadSrBits(60)),
            (7, 0, ConfigWireError::BadSrBits(0)),
        ] {
            let mut w = good;
            w[byte] = value;
            assert_eq!(MacGemmConfig::from_wire(&w).unwrap_err(), want);
        }
        // Individually valid formats outside the engine envelope must be
        // typed errors too — `MacGemm::new` would panic on them, and the
        // loader contract is "no decodable checkpoint panics the rebuild".
        for (byte, value) in [(1usize, 10u8), (4, 23)] {
            let mut w = good;
            w[byte] = value;
            assert!(matches!(
                MacGemmConfig::from_wire(&w).unwrap_err(),
                ConfigWireError::OutsideEngineEnvelope(_)
            ));
        }
    }

    #[test]
    #[should_panic(expected = "cannot serialize a config the engine rejects")]
    fn to_wire_rejects_configs_the_engine_cannot_build() {
        // MacGemmConfig's fields are public, so an out-of-envelope config
        // is constructible; serializing it must fail loudly rather than
        // write a checkpoint from_wire would refuse to load.
        let cfg = MacGemmConfig {
            mul_fmt: FpFormat::e5m10(),
            ..MacGemmConfig::fp8_fp12(AccumRounding::Nearest, true)
        };
        let _ = cfg.to_wire();
    }

    #[test]
    fn build_panel_zero_pads_the_last_block_and_round_trips() {
        // Every column lands in exactly one block: full 64-wide blocks,
        // then one tail block as wide as the remaining columns rounded up
        // to 8, 16, 32 or 64, its lanes past `n` holding the +0 code; and
        // the scalar loop's `panel_block_of` finds every column's code
        // again.
        let zero = FpFormat::e5m2().zero_bits(false) as u8;
        let k = 5;
        for (n, tail) in [
            (1usize, 8usize),
            (7, 8),
            (8, 8),
            (9, 16),
            (16, 16),
            (17, 32),
            (27, 32),
            (32, 32),
            (33, 64),
            (64, 0),
            (72, 8),
            (81, 32),
            (100, 64),
            (144, 16),
            (288, 32),
        ] {
            let codes: Vec<u8> = (0..k * n).map(|x| (x % 251 + 1) as u8).collect();
            let panel = build_panel(&codes, k, n, zero);
            let n64 = n - n % 64;
            assert_eq!(tail_width(n % 64), tail, "n={n}: tail width");
            assert_eq!(panel.len(), (n64 + tail) * k, "n={n}: panel length");
            let blocks: Vec<_> = panel_blocks(n).collect();
            let mut want: Vec<_> = (0..n64).step_by(64).map(|c| (c, 64)).collect();
            if tail > 0 {
                want.push((n64, tail));
            }
            assert_eq!(blocks, want, "n={n}: blocks");
            assert_eq!(group_rows(n), 64usize.checked_div(tail).unwrap_or(1));
            for (col0, width) in blocks {
                for ci in 0..k {
                    for l in 0..width {
                        let got = panel[col0 * k + ci * width + l];
                        let want = if col0 + l < n {
                            codes[ci * n + col0 + l]
                        } else {
                            zero
                        };
                        assert_eq!(got, want, "n={n} block {col0} k-index {ci} lane {l}");
                    }
                }
            }
            for j in 0..n {
                let (col0, width) = panel_block_of(j, n);
                for ci in 0..k {
                    let got = panel[col0 * k + ci * width + j - col0];
                    assert_eq!(got, codes[ci * n + j], "n={n} ({ci},{j})");
                }
            }
        }
    }

    /// The old compaction loop (one `if … push` per entry), kept here as
    /// the oracle of [`CompactA::build`].
    fn push_loop_compaction(codes: &[u8], rows: usize, cols: usize, mag: u8) -> CompactA {
        let (mut row_ptr, mut idx, mut code) = (vec![0u32], Vec::new(), Vec::new());
        for r in 0..rows {
            for (c, &cd) in codes[r * cols..(r + 1) * cols].iter().enumerate() {
                if cd & mag != 0 {
                    idx.push(c as u32);
                    code.push(cd);
                }
            }
            row_ptr.push(idx.len() as u32);
        }
        CompactA { row_ptr, idx, code }
    }

    #[test]
    fn compaction_matches_the_push_loop_on_every_tier() {
        // Every e5m2 code appears (both zeros, subnormals, normals, the
        // infinities and the NaNs), at ragged and whole-chunk widths, with
        // whole zero rows and zero runs mixed in.
        let mag = srmac_fp::mask(FpFormat::e5m2().bits() - 1) as u8;
        let mut tiers = vec![SimdTier::Portable];
        if SimdTier::detect() != SimdTier::Portable {
            tiers.push(SimdTier::detect());
        }
        for cols in [1usize, 8, 15, 16, 17, 27, 72, 130] {
            let rows = 256usize.div_ceil(cols) * 3 + 3;
            let mut next = 0usize;
            let codes: Vec<u8> = (0..rows * cols)
                .map(|x| {
                    let (r, c) = (x / cols, x % cols);
                    match r % 4 {
                        // zero rows: +0 and -0 only
                        3 => [0x00, 0x80][c % 2],
                        // zero runs inside a row
                        2 if c % 5 < 3 => [0x00, 0x80][c % 2],
                        _ => {
                            next += 1;
                            ((next * 167 + 13) % 256) as u8
                        }
                    }
                })
                .collect();
            let mut seen = [false; 256];
            codes.iter().for_each(|&cd| seen[usize::from(cd)] = true);
            assert!(seen.iter().all(|&s| s), "cols={cols}: every code appears");
            let want = push_loop_compaction(&codes, rows, cols, mag);
            let want_t = push_loop_compaction(&transposed(&codes, rows, cols), cols, rows, mag);
            for &tier in &tiers {
                let nnz = want.idx.len();
                let got = CompactA::build(&codes, rows, cols, nnz, mag, tier);
                assert_eq!(got.row_ptr, want.row_ptr, "{tier:?} cols={cols}: row_ptr");
                assert_eq!(got.idx, want.idx, "{tier:?} cols={cols}: idx");
                assert_eq!(got.code, want.code, "{tier:?} cols={cols}: code");
                // Keeping every entry restores the codes, zeros as +0.
                let all = got.keep_all(cols, 0x00);
                let mag_codes = codes.iter().map(|&cd| if cd & mag == 0 { 0 } else { cd });
                assert_eq!(
                    all.row_ptr,
                    (0..=rows).map(|r| (r * cols) as u32).collect::<Vec<_>>()
                );
                assert!(all
                    .idx
                    .chunks(cols)
                    .all(|r| r.iter().copied().eq(0..cols as u32)));
                assert!(
                    all.code.iter().copied().eq(mag_codes),
                    "{tier:?} cols={cols}"
                );
                // The strip-wise compaction of the transpose.
                let got = CompactA::build_transposed(&codes, rows, cols, nnz, mag, tier);
                assert_eq!(
                    got.row_ptr, want_t.row_ptr,
                    "{tier:?} cols={cols}: row_ptr of the transpose"
                );
                assert_eq!(
                    got.idx, want_t.idx,
                    "{tier:?} cols={cols}: idx of the transpose"
                );
                assert_eq!(
                    got.code, want_t.code,
                    "{tier:?} cols={cols}: code of the transpose"
                );
            }
        }
        // Empty rows still get one offset each.
        for &tier in &tiers {
            assert_eq!(CompactA::build(&[], 3, 0, 0, mag, tier).row_ptr, vec![0; 4]);
            let empty_t = CompactA::build_transposed(&[], 0, 3, 0, mag, tier);
            assert_eq!(empty_t.row_ptr, vec![0; 4]);
        }
    }

    #[test]
    fn zero_depth_products_match_the_reference() {
        // k = 0: every output is the empty sum, +0, on every path.
        for rounding in [AccumRounding::Nearest, AccumRounding::Stochastic { r: 13 }] {
            for threads in [1usize, 2] {
                let engine =
                    MacGemm::new(MacGemmConfig::fp8_fp12(rounding, false).with_threads(threads));
                for (m, n) in [(3usize, 4usize), (64, 130)] {
                    let mut reference = vec![f32::NAN; m * n];
                    engine.gemm_reference(m, 0, n, &[], &[], &mut reference);
                    let mut one_shot = vec![f32::NAN; m * n];
                    engine.gemm(m, 0, n, &[], &[], &mut one_shot);
                    let mut packed = vec![f32::NAN; m * n];
                    let (pa, pb) = (engine.pack_a(m, 0, &[]), engine.pack_b(0, n, &[]));
                    engine.gemm_packed(m, 0, n, &pa, &pb, &mut packed);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&reference), vec![0; m * n], "{m}x0x{n}: reference");
                    assert_eq!(bits(&one_shot), bits(&reference), "{m}x0x{n}: gemm");
                    assert_eq!(bits(&packed), bits(&reference), "{m}x0x{n}: gemm_packed");
                }
            }
        }
    }

    #[test]
    fn thin_products_split_into_row_jobs() {
        // The width-8 ResNet-20 at batch 32 on 16x16 inputs. Weight
        // gradients are `out_c x positions x in_c * kh * kw`: without the
        // finer row grid each would be one job on one core.
        let row_jobs = |m: usize, k: usize, n: usize| m.div_ceil(dispatch_tiles(m, k, n).0);
        for (m, k, n) in [
            (8, 8192, 72),   // stage 1 3x3
            (16, 2048, 72),  // stage 2 first 3x3 (stride 2)
            (16, 2048, 144), // stage 2 3x3
            (32, 512, 144),  // stage 3 first 3x3 (stride 2)
            (32, 512, 288),  // stage 3 3x3
        ] {
            assert!(
                row_jobs(m, k, n) >= 8,
                "wgrad {m}x{k}x{n}: {} jobs",
                row_jobs(m, k, n)
            );
        }
        // The 3-channel stem has the shortest 3x3 rows: two per job.
        assert_eq!(row_jobs(8, 8192, 27), 4, "stem wgrad");
        // Run transposed, the stem and stage-1 weight gradients have
        // 8-wide panels: their 5-row tiles round to one 8-row group.
        assert_eq!(dispatch_tiles(72, 8192, 8).0, 8, "stage 1 wgrad transposed");
        assert_eq!(row_jobs(72, 8192, 8), 9, "stage 1 wgrad transposed");
        assert_eq!(row_jobs(27, 8192, 8), 4, "stem wgrad transposed");
        // A 1x1 projection's whole product is under one job's worth.
        assert_eq!(row_jobs(16, 2048, 8), 1, "stage 2 projection wgrad");
        assert_eq!(row_jobs(32, 512, 16), 1, "stage 3 projection wgrad");
        // Forward (`positions x in_c * kh * kw x out_c`) and data-gradient
        // (`positions x out_c x in_c * kh * kw`) products have short rows
        // and keep the full row tile, as does the 64x128x64 headline.
        for (m, kn) in [
            (8192, [27, 8]),
            (8192, [72, 8]),
            (2048, [72, 16]),
            (2048, [144, 16]),
            (2048, [8, 16]),
            (512, [144, 32]),
            (512, [288, 32]),
            (512, [16, 32]),
        ] {
            for [k, n] in [kn, [kn[1], kn[0]]] {
                assert_eq!(dispatch_tiles(m, k, n).0, 32, "{m}x{k}x{n}");
            }
        }
        assert_eq!(dispatch_tiles(64, 128, 64), (32, 512), "headline");
        // Below the single-job threshold the grid is one rectangle.
        assert_eq!(dispatch_tiles(32, 32, 10), (32, 64), "head");
    }

    #[test]
    fn orientation_rule_transposes_the_sparse_weight_gradients() {
        // The width-8 ResNet-20 weight gradients `dW = dYᵀ · rows` at
        // batch 32: `dYᵀ` is 99% non-zero, `rows` as dense as a training
        // step measured it. Every one compacts Bᵀ: with rows sharing a
        // narrow block's 64-lane call, the stem and stage 1 (`m = 8`, an
        // 8-wide panel) cost 1.63M and 2.41M lane-steps transposed
        // against 2.08M and 4.67M as they are.
        let transposes = |m: usize, k: usize, n: usize, b_density: f64| {
            let nnz_b = (k as f64 * n as f64 * b_density) as usize;
            runs_transposed(m, n, m * k * 99 / 100, nnz_b)
        };
        assert!(transposes(32, 512, 288, 0.37), "stage 3 3x3");
        assert!(transposes(32, 512, 144, 0.60), "stage 3 first 3x3");
        assert!(transposes(16, 2048, 144, 0.45), "stage 2 3x3");
        assert!(transposes(16, 2048, 72, 0.68), "stage 2 first 3x3");
        assert!(transposes(16, 2048, 8, 0.73), "stage 2 projection");
        assert!(transposes(32, 512, 16, 0.71), "stage 3 projection");
        assert!(transposes(8, 8192, 72, 0.51), "stage 1 3x3");
        assert!(transposes(8, 8192, 27, 0.92), "stem");
        // Dense operands of equal width, and empty ones, stay as they are.
        assert!(!transposes(64, 128, 64, 1.0), "headline");
        assert!(!runs_transposed(0, 5, 0, 0), "empty");
        // The cost is the nominal lane count: full blocks plus the
        // zero-padded tail.
        assert_eq!(lane_cost(10, 72), 10 * 72);
        assert_eq!(lane_cost(10, 27), 10 * 32);
        assert_eq!(lane_cost(10, 100), 10 * 128);
    }

    #[test]
    fn zero_product_skip_preserves_semantics() {
        // A GEMM whose inputs include zeros must equal the unskipped MAC
        // reference; covered by rn_gemm_matches_mac_unit_loop's machinery
        // with explicit zero rows here.
        let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Nearest, true);
        let engine = MacGemm::new(cfg);
        let (m, k, n) = (2, 8, 2);
        let mut a = vec![0.0f32; m * k];
        a[3] = 1.5;
        a[9] = -2.0;
        let b = vec![0.25f32; k * n];
        let mut out = vec![0.0f32; m * n];
        engine.gemm(m, k, n, &a, &b, &mut out);
        assert_eq!(out, vec![0.375, 0.375, -0.5, -0.5]);
    }
}
