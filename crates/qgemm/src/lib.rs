//! # srmac-qgemm: bit-exact low-precision GEMM
//!
//! The Rust counterpart of the paper's "software-based bit-accurate
//! emulation flow" (Sec. IV): a [`MacGemm`] engine that performs every
//! matrix multiplication of the training stack exactly as an array of the
//! paper's MAC units would — operands quantized to FP8 (E5M2, round to
//! nearest, saturating), products exact in the accumulator format, and the
//! accumulator updated sequentially with round-to-nearest or stochastic
//! rounding at a chosen number of random bits `r`.
//!
//! The scalar kernels ([`FastAdder`], [`FastQuantizer`]) are `u64`
//! specializations of the golden arithmetic in `srmac-fp`, verified
//! bit-for-bit against it (exhaustively for the paper's E6M5 accumulator);
//! under round-to-nearest the whole engine is verified element-by-element
//! against the RTL-level `srmac_core::MacUnit`.
//!
//! # The pack/plan lifecycle
//!
//! A `MacGemm` product has two phases, exposed separately through the
//! [`srmac_tensor::GemmEngine`] trait:
//!
//! 1. **Pack** (`pack_a` / `pack_b`): quantize the `f32` operand to
//!    multiplier-format codes. The A side is then CSR-compacted: per
//!    row, the k-indices and codes of the non-zero-magnitude entries, in
//!    one branch-free pass per row (16 codes per step under AVX-512,
//!    selected with `vpcompressd`), into buffers sized from the non-zero
//!    count. The B side is interleaved into 64-lane panel blocks and
//!    one narrower tail block (8, 16, 32 or 64 lanes) so each `k` step
//!    loads a block row's operand codes contiguously.
//!    Packing is a pure function of the operand values and the
//!    *multiplier* format alone; the accumulator format, rounding
//!    mode, seed and thread count play no part. A packed operand is
//!    therefore reusable across any number of products and even across
//!    engines that share a multiplier format (e.g. an RN and an SR engine
//!    evaluating the same quantized weights).
//! 2. **Plan/execute** (`gemm_packed`): run only the bit-exact
//!    accumulation loops over the prepared codes, dispatched through the
//!    shared parallel runtime (`srmac-runtime`) — one persistent worker
//!    pool for every default engine and the trainer's replicas
//!    ([`MacGemm::with_runtime`] picks a pool explicitly).
//!
//! The one-shot `gemm` quantizes each operand once and runs the same
//! kernel without keeping packed operands. It compacts whichever operand
//! is cheaper to zero-skip: when B is the sparse side (a weight
//! gradient's post-ReLU im2row matrix), it computes `outᵀ = Bᵀ · Aᵀ`,
//! compacting `Bᵀ`, and writes the result back transposed — the same
//! bits, since every output element keeps its stream and its `k` order
//! (`tests/one_shot.rs`).
//!
//! The training layers in `srmac-tensor` exploit this split by caching
//! their weights' packed forms between optimizer steps: one weight pack
//! per step serves the forward product, the data-gradient product and any
//! number of evaluation batches.
//!
//! # The RN/SR determinism contract
//!
//! Every output element `(i, j)` owns a counter-seeded `SplitMix64`
//! stream derived from `(config.seed, i, j)`; the stream advances once per
//! non-zero product, in `k` order. Consequently results are a pure
//! function of the operand *values* and the engine configuration —
//! independent of how operands were packed, how rows were chunked, how
//! many runtime workers ran, and of any previous calls. RN ignores the
//! streams entirely. This is what makes experiment tables reproducible
//! and `gemm`/`gemm_packed` bitwise equal to the single-threaded scalar
//! oracle [`MacGemm::gemm_reference`], and it is one instance of the
//! runtime-wide contract (`srmac_runtime`): parallel dispatch never
//! splits an output element across workers and never reorders a
//! reduction, so thread count changes wall-clock time, never bits.
//!
//! # Lane-batched accumulation (the SWAR/SIMD hot path)
//!
//! The compacted accumulation loop advances 64 output lanes per step
//! through [`FastAdderBatch`]: 64 **columns** of one output row in a
//! full panel block, and in the tail block that holds the `n % 64`
//! remaining columns — `W` of 8, 16, 32 or 64 lanes, the count rounded
//! up and zero-padded — `W` columns of each of `64 / W` consecutive
//! rows, so a narrow product (the width-8 ResNet-20's 8-, 16- and
//! 32-column convolutions) fills every lane too. A row that runs out of
//! non-zero entries before the others in its group meets code `+0`,
//! which neither commits nor draws, as a padded lane does. Each lane is
//! one element's accumulator, carried in a *decoded* `u32` lane word
//! (sign / ULP exponent / significand as plain fields — see `batch.rs`),
//! fed with pre-decoded products from a 256 KiB [`PairLut`], and updated
//! by the scalar adder's exact algebra with every branch replaced by SWAR
//! mask arithmetic. The branch-free body auto-vectorizes, and
//! runtime-detected `#[target_feature]` wrappers give it AVX2 codegen
//! without any workspace-wide compiler flags; AVX-512 hosts run its
//! explicit rendition in four interleaved 16-lane chains (below), one
//! row per chain, or two 8-column rows. [`MacGemm::with_max_tier`] caps
//! the tier, so one host can test every codegen it supports.
//!
//! The lane word exists when the accumulator algebra fits 32 bits
//! (`p + f <= 31` for the pre-shifted significand sum, a 13-bit exponent
//! field, a 16-bit encoding): every RN accumulator the engine accepts and
//! the paper's E6M5 accumulator at every SR `r <= 15`. Outside that
//! envelope (e.g. E5M10 at SR13) the engine builds no lane kernel and
//! every product runs a scalar loop over the same compaction and panel —
//! bit-identical and several times slower; none of the paper's
//! configurations goes there ([`MacGemm::pair_lut_active`] reports
//! which path runs).
//!
//! Lane batching — across columns, and across the rows of a tail
//! block's group — preserves the determinism contract *by
//! construction*: SR streams are position-seeded per output element, so
//! computing many elements side by side reorders nothing **within** any
//! element — its adds stay in `k` order and its stream (an
//! [`srmac_rng::SrLaneStreams`] lane, bit-equal to the scalar
//! `SplitMix64` stream) is consumed on exactly the same products. The
//! batched kernel therefore matches the one-element-at-a-time scalar
//! oracle [`MacGemm::gemm_reference`] bit for bit (asserted in
//! `tests/lane_batch.rs` across ragged widths, with the operand-level
//! exhaustive equivalence in `batch.rs`).
//!
//! # The tiled, fused execution pipeline
//!
//! On top of the lane-batched adder, `gemm_packed` executes a
//! cache-blocked tile grid: the output plane is cut into rectangles of
//! up to 32 rows by 512 columns, each rectangle walks one
//! lane-interleaved B-panel slice to completion before the next slice is
//! touched, and the rectangles are the units handed to the shared
//! worker pool for multi-core dispatch. 32 rows is an upper bound: a
//! thin product — few, long rows, like a weight gradient with
//! `m = out_c` — gets rectangles of only as many rows as make one job's
//! worth of MAC steps, so it still spreads over every core. The grid is
//! a pure function of the shape — never of the thread count — and no
//! rectangle splits an output element, so every thread count is bitwise
//! identical (asserted across shapes that cross the grid in
//! `tests/tiled_kernel.rs`).
//!
//! Two fusions keep the per-call constant work off the measured path:
//!
//! * **Quantize+pack fusion** — `pack_a`/`pack_b` quantize straight
//!   into recycled workspace buffers (a vectorized block quantizer under
//!   AVX-512) and compact/interleave from there; the one-shot `gemm`
//!   quantizes through the same buffers, one operand at a time, and
//!   allocates per call only what the kernel reads (compaction and
//!   panel) plus, transposed, a 16-column transpose strip.
//! * **Product-pair decode LUT** — a 256 KiB [`PairLut`] maps each
//!   `(code_a, code_b)` pair directly to the pre-decoded `u32` product
//!   word, and under AVX-512 the inner loop runs four fully vectorized
//!   chains of 16 u32 lanes — no per-step decode — whose accumulators
//!   are encoded, decoded to `f32` (one gather) and stored 16 lanes at a
//!   time. It is bit-identical to the scalar oracle by construction and
//!   by test (`tests/narrow_blocks.rs` covers the row groups' edges).
//!
//! # Example
//!
//! ```
//! use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
//! use srmac_tensor::GemmEngine;
//!
//! // The paper's best configuration: E6M5 accumulator, SR, r = 13, no
//! // subnormals.
//! let engine = MacGemm::new(MacGemmConfig::fp8_fp12(
//!     AccumRounding::Stochastic { r: 13 },
//!     false,
//! ));
//! let (a, b) = ([1.0f32, 2.0, 3.0, 4.0], [0.5f32, -1.0, 0.25, 2.0]);
//!
//! // One-shot and prepared-operand paths are bitwise identical.
//! let mut out = [0.0f32; 4];
//! engine.gemm(2, 2, 2, &a, &b, &mut out);
//! assert_eq!(out[0], 1.0); // 1.0*0.5 + 2.0*0.25
//!
//! let (pa, pb) = (engine.pack_a(2, 2, &a), engine.pack_b(2, 2, &b));
//! let mut packed = [0.0f32; 4];
//! engine.gemm_packed(2, 2, 2, &pa, &pb, &mut packed);
//! assert_eq!(out, packed);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `deny` rather than the workspace-usual `forbid`: the sanctioned
// exceptions are the runtime-detected SIMD-tier calls in `engine.rs`
// (guarded by `is_x86_feature_detected!`) and the pointer loads, stores
// and gathers of the AVX-512 `z16` kernel in `batch.rs`. Each `unsafe`
// carries a `SAFETY` note proving its one obligation.
// Everything else in this crate remains unsafe-free, and new `unsafe`
// must justify itself the same way.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod batch;
mod engine;
mod fastmath;
mod lut;
pub mod spec;

pub use batch::{FastAdderBatch, LANE_DRAWS, LANE_KEY, LANE_SIGN, LANE_SPECIAL};
pub use engine::{ConfigWireError, MacGemm, MacGemmConfig, SimdTier};
pub use fastmath::{AccumRounding, FastAdder, FastQuantizer};
pub use lut::{PairLut, ProductLut};
pub use spec::{engine_from_spec, numerics_from_spec, validate_policy_spec, EngineSpecError};
