//! The GEMM abstraction: every matrix multiplication of the training stack
//! goes through a [`GemmEngine`], so the arithmetic of the forward and
//! backward passes can be swapped between exact `f32` and the bit-exact
//! low-precision MAC emulation in `srmac-qgemm` — the paper's "software-
//! based bit-accurate emulation flow" (Sec. IV).
//!
//! # Prepared operands
//!
//! Engines expose a two-phase *pack/plan* pipeline: [`GemmEngine::pack_a`] /
//! [`GemmEngine::pack_b`] convert an `f32` matrix into an engine-owned
//! [`PackedOperand`] (quantized FP8 codes and a transposed layout for the
//! MAC engine, a plain copy for the `f32` engine), and
//! [`GemmEngine::gemm_packed`] multiplies two prepared operands. The
//! one-shot [`GemmEngine::gemm`] serves operands used once (the layers'
//! weight gradients): by default it packs on the fly, and an engine may
//! override it to prepare the operands its own way — the MAC engine
//! picks which operand to zero-skip — but never to change a bit.
//! Packing is a pure function of the operand values (never of the
//! output position or thread count), so a packed operand can be reused
//! across any number of products — the layers cache their weights' packed
//! forms and only repack after an optimizer step.
//!
//! # Convolution operands
//!
//! A convolution's input reaches the engine as the NCHW tensor and its
//! [`Im2Row`] geometry, never as an unfolded matrix:
//! [`GemmEngine::pack_a_im2row`] prepares the forward operand and
//! [`GemmEngine::gemm_im2row`] runs the weight gradient. By default both
//! unfold an `f32` im2row matrix and run the plain methods, so an engine
//! (or a wrapper) that implements only `pack_a`, `pack_b` and
//! `gemm_packed` computes the same bits; the MAC engine overrides them to
//! quantize the input once and build its operands from the codes.

use std::any::Any;
use std::sync::Arc;

use crate::{Im2Row, Tensor};

/// Which side of the product an operand was prepared for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackSide {
    /// Left operand (`A` in `A * B`), packed row-major.
    A,
    /// Right operand (`B` in `A * B`); engines may transpose or retile.
    B,
}

/// An engine-owned, opaque prepared operand (see the module docs).
///
/// Created by [`GemmEngine::pack_a`] / [`GemmEngine::pack_b`]; consumed by
/// [`GemmEngine::gemm_packed`] of the *same* engine family. Engines verify
/// provenance at use time and panic on a mismatched operand rather than
/// compute garbage.
pub struct PackedOperand {
    side: PackSide,
    rows: usize,
    cols: usize,
    payload: Box<dyn Any + Send + Sync>,
}

impl std::fmt::Debug for PackedOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PackedOperand({:?}, {}x{})",
            self.side, self.rows, self.cols
        )
    }
}

impl PackedOperand {
    /// Wraps an engine-specific payload (for [`GemmEngine`] implementors).
    #[must_use]
    pub fn new(
        side: PackSide,
        rows: usize,
        cols: usize,
        payload: Box<dyn Any + Send + Sync>,
    ) -> Self {
        Self {
            side,
            rows,
            cols,
            payload,
        }
    }

    /// The side this operand was packed for.
    #[must_use]
    pub fn side(&self) -> PackSide {
        self.side
    }

    /// Logical (unpacked) row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical (unpacked) column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Downcasts the payload to a concrete engine payload type.
    #[must_use]
    pub fn payload<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

/// The output entries of an `m x n` product a caller will read, column by
/// column: one bit per entry, column-major, so column `j` is the set of
/// rows `i` whose entry `(i, j)` is needed.
/// [`GemmEngine::gemm_packed_masked`] takes one.
///
/// Each column is `m` rounded up to 64 bits, as `u64` words: row `i` at
/// bit `i % 64` of word `i / 64`. The bits past row `m` stay clear.
///
/// # Examples
///
/// ```
/// use srmac_tensor::NeededRows;
///
/// // The diagonal of a 3 x 3 product.
/// let need = NeededRows::from_fn(3, 3, |i, j| i == j);
/// assert_eq!(need.rows(1).collect::<Vec<_>>(), [1]);
/// assert_eq!(need.count(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NeededRows {
    m: usize,
    n: usize,
    bits: Vec<u64>,
}

impl NeededRows {
    /// An `m x n` product of which no entry is needed yet.
    #[must_use]
    pub fn new(m: usize, n: usize) -> Self {
        Self {
            m,
            n,
            bits: vec![0; m.div_ceil(64) * n],
        }
    }

    /// The needed entries of an `m x n` product: `(i, j)` with
    /// `need(i, j)`.
    #[must_use]
    pub fn from_fn(m: usize, n: usize, mut need: impl FnMut(usize, usize) -> bool) -> Self {
        let mut out = Self::new(m, n);
        for j in 0..n {
            let bits = out.column_mut(j);
            for i in 0..m {
                bits[i / 64] |= u64::from(need(i, j)) << (i % 64);
            }
        }
        out
    }

    /// Row count `m` of the product.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Column count `n` of the product.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Words per column: `m` rounded up to 64 rows.
    fn words_per_column(&self) -> usize {
        self.m.div_ceil(64)
    }

    /// Column `j`'s bit words (see the type docs).
    #[must_use]
    pub fn column(&self, j: usize) -> &[u64] {
        let words = self.words_per_column();
        &self.bits[j * words..(j + 1) * words]
    }

    /// Column `j`'s bit words, to fill in. The bits past row `m` must
    /// stay clear.
    pub fn column_mut(&mut self, j: usize) -> &mut [u64] {
        let words = self.words_per_column();
        &mut self.bits[j * words..(j + 1) * words]
    }

    /// The needed rows of column `j`, ascending.
    pub fn rows(&self, j: usize) -> impl Iterator<Item = usize> + '_ {
        self.column(j).iter().enumerate().flat_map(|(w, &bits)| {
            std::iter::successors((bits != 0).then_some(bits), |b| {
                Some(b & (b - 1)).filter(|&b| b != 0)
            })
            .map(move |b| w * 64 + b.trailing_zeros() as usize)
        })
    }

    /// The number of needed entries.
    #[must_use]
    pub fn count(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }
}

/// A matrix-multiplication backend: `out = A (m x k) * B (k x n)`.
///
/// Implementations must be deterministic for a fixed configuration, because
/// the experiment tables rely on reproducible runs. `gemm_packed` must be
/// bitwise identical to `gemm` on the same values: packing never changes
/// results, only where the preparation work happens.
///
/// # The demand contract
///
/// [`GemmEngine::gemm_packed_masked`] computes only the output entries
/// its [`NeededRows`] lists. Every needed entry has the bits
/// [`GemmEngine::gemm_packed`] gives it; every other entry of `out` is
/// unspecified, and callers must not read it.
pub trait GemmEngine: Send + Sync {
    /// Prepares a row-major `rows x cols` matrix as a left operand.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `a.len() != rows * cols`.
    fn pack_a(&self, rows: usize, cols: usize, a: &[f32]) -> PackedOperand;

    /// Prepares a row-major `rows x cols` matrix as a right operand.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `b.len() != rows * cols`.
    fn pack_b(&self, rows: usize, cols: usize, b: &[f32]) -> PackedOperand;

    /// Computes `out = A * B` from prepared operands, overwriting `out`.
    ///
    /// # Panics
    ///
    /// Implementations must panic if the operands' sides, shapes or origin
    /// engine disagree with `m`, `k`, `n`, or if `out.len() != m * n`.
    fn gemm_packed(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &PackedOperand,
        b: &PackedOperand,
        out: &mut [f32],
    );

    /// [`GemmEngine::gemm_packed`] at the entries `need` lists (see the
    /// demand contract in the trait docs): each needed entry gets the bits
    /// `gemm_packed` gives it, the rest of `out` is unspecified. The
    /// default computes the whole product, so every engine (and every
    /// wrapper that forwards only `gemm_packed`) stays correct; an engine
    /// overrides it to skip the work of the entries nobody reads. `need`
    /// is shared, so an engine that hands it to worker threads keeps a
    /// reference instead of a copy.
    ///
    /// # Panics
    ///
    /// As [`GemmEngine::gemm_packed`]; implementations must also panic if
    /// `need` is not `m x n`.
    #[allow(clippy::too_many_arguments)]
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
        assert_eq!((need.m(), need.n()), (m, n), "need must be m x n");
        self.gemm_packed(m, k, n, a, b, out);
    }

    /// Computes `out = A * B`, overwriting `out` (row-major slices),
    /// for operands used once. The default packs both operands on the fly
    /// and runs [`GemmEngine::gemm_packed`]. An engine may override it to
    /// prepare the operands differently — in another orientation, say —
    /// but the result must be bit-identical to that composition.
    ///
    /// # Panics
    ///
    /// Implementations may panic if slice lengths disagree with
    /// `m * k`, `k * n`, `m * n`.
    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(a.len(), m * k, "A must be m x k");
        assert_eq!(b.len(), k * n, "B must be k x n");
        assert_eq!(out.len(), m * n, "out must be m x n");
        let pa = self.pack_a(m, k, a);
        let pb = self.pack_b(k, n, b);
        self.gemm_packed(m, k, n, &pa, &pb, out);
    }

    /// Prepares the im2row matrix of the NCHW input `x` under `geom`
    /// (`geom.rows() x geom.cols()`, see [`crate::movement::im2row`]) as a
    /// left operand: a convolution's forward operand. The default unfolds
    /// `x` into an `f32` matrix and runs [`GemmEngine::pack_a`] on it. An
    /// engine may override it to build the operand from `x` itself, but
    /// every product must give the bits of that composition.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match `geom.shape`.
    fn pack_a_im2row(&self, x: &[f32], geom: &Im2Row) -> PackedOperand {
        self.pack_a(geom.rows(), geom.cols(), &geom.unfold(x))
    }

    /// Computes `out = a · im2row(x)`, overwriting `out`, for an `a` of
    /// `m x geom.rows()` and an `out` of `m x geom.cols()` (row-major): a
    /// convolution's weight gradient. The default unfolds `x` into an
    /// `f32` matrix and runs [`GemmEngine::gemm`] on it. An engine may
    /// override it to read `x` itself, but the result must be
    /// bit-identical to that composition.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match `geom.shape`; implementations may
    /// panic if `a` or `out` disagree with their shapes.
    fn gemm_im2row(&self, m: usize, a: &[f32], x: &[f32], geom: &Im2Row, out: &mut [f32]) {
        self.gemm(m, geom.rows(), geom.cols(), a, &geom.unfold(x), out);
    }

    /// True when this engine's packing does real preparation work worth
    /// caching (quantization, retiling). Engines whose `pack_*` is a plain
    /// copy return `false`, so callers (e.g. the layers' weight-pack
    /// caches) keep the zero-copy one-shot path instead of paying a
    /// per-call operand copy for nothing.
    fn benefits_from_packing(&self) -> bool {
        true
    }

    /// Short human-readable description (used in experiment tables).
    fn name(&self) -> String;

    /// The engine's [`crate::numerics`] spec atom, when it has one:
    /// `Engine::spec()` fed back through the atom resolver
    /// (`srmac_qgemm::engine_from_spec`) must rebuild an engine with
    /// identical numerics (format, rounding, seed — never machine state
    /// like thread counts). `None` for engines without a spec form; such
    /// engines cannot ride in a checkpoint's numerics metadata.
    fn spec(&self) -> Option<String> {
        None
    }

    /// True when every output row is a pure function of that row's
    /// inputs and the right-hand operand — so batching requests together
    /// cannot change any sample's result (the serving determinism
    /// contract; see `srmac-models`' serve module). Engines whose
    /// per-element randomness is seeded by output *position* (e.g.
    /// stochastic-rounding accumulation) must override this to `false`.
    fn position_invariant(&self) -> bool {
        true
    }

    /// A derived engine whose per-output-position randomness is offset by
    /// `first_row` output rows — the sub-batch position-offset contract
    /// of data-parallel training: a replica computing rows
    /// `first_row ..` of a logically larger product draws the *same*
    /// stochastic-rounding streams those rows would see in the full
    /// product, so sharding a batch never changes any sample's bits.
    ///
    /// `None` (the default, and the only sensible answer for
    /// [position-invariant](GemmEngine::position_invariant) engines or
    /// `first_row == 0`) means the caller should use `self` unchanged.
    /// Derived engines must accept packed operands produced by the base
    /// engine (packing is position-independent by contract).
    fn with_row_base(&self, first_row: usize) -> Option<std::sync::Arc<dyn GemmEngine>> {
        let _ = first_row;
        None
    }
}

/// Exact `f32` GEMM (accumulation in `f32`, i.e. IEEE round-to-nearest at
/// E8M23 per operation) — the paper's "FP32 Baseline" row. Parallelized
/// over row blocks.
#[derive(Debug, Clone)]
pub struct F32Engine {
    threads: usize,
}

impl Default for F32Engine {
    fn default() -> Self {
        Self::new(srmac_runtime::available_threads())
    }
}

/// The [`PackedOperand`] payload of [`F32Engine`]: a plain `f32` copy.
#[derive(Debug)]
struct F32Packed(Vec<f32>);

impl F32Engine {
    /// Creates the engine with an explicit thread count (min 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    fn unpack(p: &PackedOperand, side: PackSide, rows: usize, cols: usize) -> &[f32] {
        assert_eq!(p.side(), side, "operand packed for the wrong side");
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
            .payload::<F32Packed>()
            .expect("operand was not packed by an F32Engine");
        &payload.0
    }

    fn gemm_slices(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        // An empty output (`m = 0` or `n = 0`) has no rows to partition.
        if out.is_empty() {
            return;
        }
        let threads = if m * n * k < 64 * 1024 {
            1
        } else {
            self.threads
        };
        let chunk = m.div_ceil(threads.max(1)).max(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "fixed row partition into disjoint chunks — bitwise thread-invariant"
        )]
        std::thread::scope(|scope| {
            for (ci, out_chunk) in out.chunks_mut(chunk * n).enumerate() {
                let a = &a[ci * chunk * k..];
                scope.spawn(move || {
                    for (row_o, out_row) in out_chunk.chunks_mut(n).enumerate() {
                        let a_row = &a[row_o * k..row_o * k + k];
                        out_row.iter_mut().for_each(|v| *v = 0.0);
                        for (l, &av) in a_row.iter().enumerate() {
                            if av == 0.0 {
                                continue;
                            }
                            let b_row = &b[l * n..l * n + n];
                            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                                *o += av * bv;
                            }
                        }
                    }
                });
            }
        });
    }
}

impl GemmEngine for F32Engine {
    fn pack_a(&self, rows: usize, cols: usize, a: &[f32]) -> PackedOperand {
        assert_eq!(a.len(), rows * cols, "A must be rows x cols");
        PackedOperand::new(PackSide::A, rows, cols, Box::new(F32Packed(a.to_vec())))
    }

    fn pack_b(&self, rows: usize, cols: usize, b: &[f32]) -> PackedOperand {
        assert_eq!(b.len(), rows * cols, "B must be rows x cols");
        PackedOperand::new(PackSide::B, rows, cols, Box::new(F32Packed(b.to_vec())))
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
        let a = Self::unpack(a, PackSide::A, m, k);
        let b = Self::unpack(b, PackSide::B, k, n);
        self.gemm_slices(m, k, n, a, b, out);
    }

    // Override the default: the f32 engine needs no preparation, so the
    // one-shot path skips the copies packing would make.
    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(a.len(), m * k, "A must be m x k");
        assert_eq!(b.len(), k * n, "B must be k x n");
        assert_eq!(out.len(), m * n, "out must be m x n");
        self.gemm_slices(m, k, n, a, b, out);
    }

    // Packing an f32 operand is a plain copy: reusing one saves nothing,
    // so the layers should not route their products through it.
    fn benefits_from_packing(&self) -> bool {
        false
    }

    fn name(&self) -> String {
        "f32 (FP32 baseline)".to_owned()
    }

    // The spec atom of the exact engine; thread count is machine state
    // and deliberately not part of it (results are thread-invariant).
    fn spec(&self) -> Option<String> {
        Some("f32".to_owned())
    }
}

/// Multiplies `a (m x k)` by `b (k x n)` into a fresh tensor using `engine`.
///
/// # Panics
///
/// Panics if the tensor shapes are not 2-D and compatible.
#[must_use]
pub fn matmul(engine: &dyn GemmEngine, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "inner dimensions must agree");
    let mut out = Tensor::zeros(&[m, n]);
    engine.gemm(m, k, n, a.data(), b.data(), out.data_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc += a[i * k + l] * b[l * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn f32_engine_matches_naive_small() {
        let (m, k, n) = (3, 4, 5);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| 1.0 - i as f32 * 0.25).collect();
        let mut out = vec![0.0f32; m * n];
        F32Engine::new(2).gemm(m, k, n, &a, &b, &mut out);
        // Identical accumulation order => bitwise equal.
        assert_eq!(out, naive_gemm(m, k, n, &a, &b));
    }

    #[test]
    fn f32_engine_threaded_matches_naive_large() {
        let (m, k, n) = (64, 37, 29);
        let mut s = 1u32;
        let mut next = || {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (s >> 8) as f32 / (1 << 24) as f32 - 0.5
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut out = vec![0.0f32; m * n];
        F32Engine::new(4).gemm(m, k, n, &a, &b, &mut out);
        assert_eq!(out, naive_gemm(m, k, n, &a, &b));
    }

    #[test]
    fn f32_packed_is_bitwise_identical_to_one_shot() {
        let (m, k, n) = (33, 17, 21);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32).cos()).collect();
        let engine = F32Engine::new(3);
        let mut one_shot = vec![0.0f32; m * n];
        engine.gemm(m, k, n, &a, &b, &mut one_shot);

        let pa = engine.pack_a(m, k, &a);
        let pb = engine.pack_b(k, n, &b);
        let mut packed = vec![0.0f32; m * n];
        engine.gemm_packed(m, k, n, &pa, &pb, &mut packed);
        assert_eq!(one_shot, packed);

        // Reuse: a second product from the same packed operands.
        let mut reused = vec![0.0f32; m * n];
        engine.gemm_packed(m, k, n, &pa, &pb, &mut reused);
        assert_eq!(one_shot, reused);
    }

    #[test]
    fn f32_engine_handles_empty_dimensions() {
        // Empty outputs stay empty, and k = 0 gives the empty sum, +0.
        let engine = F32Engine::new(2);
        for (m, k, n) in [(3usize, 4usize, 0usize), (0, 4, 3), (3, 0, 4)] {
            let (a, b) = (vec![1.0f32; m * k], vec![1.0f32; k * n]);
            let mut one_shot = vec![f32::NAN; m * n];
            engine.gemm(m, k, n, &a, &b, &mut one_shot);
            let mut packed = vec![f32::NAN; m * n];
            let (pa, pb) = (engine.pack_a(m, k, &a), engine.pack_b(k, n, &b));
            engine.gemm_packed(m, k, n, &pa, &pb, &mut packed);
            let zeros = vec![0u32; m * n];
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&one_shot), zeros, "{m}x{k}x{n}: gemm");
            assert_eq!(bits(&packed), zeros, "{m}x{k}x{n}: gemm_packed");
        }
    }

    #[test]
    #[should_panic(expected = "wrong side")]
    fn f32_packed_side_mismatch_panics() {
        let engine = F32Engine::new(1);
        let pa = engine.pack_a(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let pa2 = engine.pack_a(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = vec![0.0f32; 4];
        engine.gemm_packed(2, 2, 2, &pa, &pa2, &mut out);
    }

    #[test]
    fn matmul_and_transpose_roundtrip() {
        use crate::movement::transpose;

        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let c = matmul(&F32Engine::new(1), &a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[4.0, 5.0, 10.0, 11.0]);

        let t = transpose(a.data(), 2, 3);
        assert_eq!(t, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }
}
