//! Convolution-operand equivalence suite: the operands `MacGemm` builds
//! from one quantization of an NCHW input must multiply to the bits of
//! the scalar oracle (`MacGemm::gemm_reference`) over the `f32` im2row
//! matrix (`movement::im2row`).
//!
//! - `pack_a_im2row`, then `gemm_packed` and `gemm_packed_masked`: the
//!   forward product and a masked one;
//! - `gemm_im2row`: the weight gradient, in either orientation.
//!
//! Each runs over the stem (3 channels), 3x3 kernels at pad 0, 1 and 2
//! and at stride 2, the strided 1x1 projection, a single image,
//! non-square inputs and a line wider than 64. The inputs hold ±0,
//! subnormals, saturating values, ±inf and NaN, including a NaN that
//! only an input no tap reads holds. Engines: SR13, RN and the lane-less
//! E5M10, on every tier, at 1 and 3 threads, at row base 0 and 7. On
//! top, the trait's default bodies (an unfolded `f32` matrix through
//! `pack_a`, `pack_b` and `gemm_packed`, as a wrapper that forwards only
//! those sees them) give the bits of the overrides.

mod common;

use std::sync::Arc;

use srmac_fp::FpFormat;
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::layers::{Conv2d, Layer};
use srmac_tensor::{GemmEngine, Im2Row, NeededRows, PackedOperand, RoleEngines, Tensor};

/// Values in `[-scale/2, scale/2)`, `zeros` of them `0.0`.
fn rand_vec(n: usize, seed: u64, scale: f32, zeros: f64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let v = (rng.next_f64() as f32 - 0.5) * scale;
            if rng.next_f64() < zeros {
                0.0
            } else {
                v
            }
        })
        .collect()
}

/// Special values: signed zeros, E5M2 subnormals and a value that
/// rounds to zero, an `f32` subnormal, saturating values and
/// infinities.
const SPECIALS: [f32; 14] = [
    0.0,
    -0.0,
    2.0e-5,
    -4.6e-5,
    6.1e-5,
    1.0e-6,
    1.0e-40,
    -1.0e-40,
    1.0e5,
    -3.0e5,
    57344.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
];

/// `(shape, k, stride, pad)`: the stem, 3x3 at pad 0, 1 and 2 and at
/// stride 2, the strided 1x1 projection, one image, and a line wider
/// than 64; most are not square.
const GEOMETRIES: [([usize; 4], usize, usize, usize); 8] = [
    ([2, 3, 8, 8], 3, 1, 1),
    ([2, 4, 6, 7], 3, 1, 0),
    ([2, 4, 6, 5], 3, 1, 1),
    ([2, 2, 5, 6], 3, 1, 2),
    ([2, 4, 9, 7], 3, 2, 1),
    ([2, 4, 8, 6], 1, 2, 0),
    ([1, 4, 6, 6], 3, 1, 1),
    ([1, 2, 3, 70], 3, 1, 1),
];

/// Where the NaN sits in a geometry's input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NanAt {
    Nowhere,
    /// An input some tap reads.
    Read,
    /// An input no tap reads: only the strided 1x1 kernel skips any.
    Unread,
    /// The weight gradient's `dY` (A) operand.
    Dy,
}

/// A ReLU-like input of `geom` (about half zeros) with every special
/// value at spread-out positions, and a NaN at `nan`.
fn input(geom: &Im2Row, seed: u64, nan: NanAt) -> Vec<f32> {
    let [n, c, h, w] = geom.shape;
    let mut x: Vec<f32> = rand_vec(n * c * h * w, seed, 4.0, 0.49)
        .into_iter()
        .map(f32::abs)
        .collect();
    let stride = x.len() / SPECIALS.len();
    for (i, &v) in SPECIALS.iter().enumerate() {
        x[i * stride + i % 3] = v;
    }
    let at = |img: usize, ch: usize, y: usize, xx: usize| ((img * c + ch) * h + y) * w + xx;
    match nan {
        NanAt::Read => x[at(n - 1, c - 1, 0, 0)] = f32::NAN,
        NanAt::Unread => {
            assert!(
                geom.stride > 1 && geom.k == 1,
                "only a strided 1x1 skips inputs"
            );
            x[at(0, 1, 1, 3)] = f32::NAN;
        }
        NanAt::Nowhere | NanAt::Dy => {}
    }
    x
}

fn configs() -> [(&'static str, MacGemmConfig); 3] {
    let sr = AccumRounding::Stochastic { r: 13 };
    [
        ("SR13", MacGemmConfig::fp8_fp12(sr, false)),
        ("RN", MacGemmConfig::fp8_fp12(AccumRounding::Nearest, true)),
        (
            "E5M10 SR13",
            MacGemmConfig::fp8_acc(FpFormat::e5m10().with_subnormals(true), sr, true),
        ),
    ]
}

/// The oracle `m x k x n` product at row base 0 and at row base 7 (the
/// rows of a product with seven rows in front, which draw the streams
/// of a `with_row_base(7)` engine).
fn references(
    oracle: &MacGemm,
    (m, k, n): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
) -> [Vec<f32>; 2] {
    let mut base = vec![0.0f32; m * n];
    oracle.gemm_reference(m, k, n, a, b, &mut base);
    let mut shifted_a = rand_vec(7 * k, 99, 2.0, 0.0);
    shifted_a.extend_from_slice(a);
    let mut shifted = vec![0.0f32; (m + 7) * n];
    oracle.gemm_reference(m + 7, k, n, &shifted_a, b, &mut shifted);
    [base, shifted.split_off(7 * n)]
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {i}");
    }
}

/// The geometry's NaN placements: none, a read input and the `dY`
/// operand everywhere, and an unread input where there is one.
fn nan_cases(geom: &Im2Row) -> Vec<NanAt> {
    let mut cases = vec![NanAt::Nowhere, NanAt::Read, NanAt::Dy];
    if geom.k == 1 && geom.stride > 1 {
        cases.push(NanAt::Unread);
    }
    cases
}

/// The forward operand, then the full and a masked product, and the
/// weight gradient, against the oracle over the `f32` im2row matrix.
#[test]
fn conv_operands_match_the_reference_over_the_f32_matrix() {
    for (gi, &(shape, k, stride, pad)) in GEOMETRIES.iter().enumerate() {
        let geom = Im2Row::new(shape, k, stride, pad);
        let (ns, kdim) = (geom.rows(), geom.cols());
        let out_c = if gi % 2 == 0 { 8 } else { 24 };
        let w = rand_vec(kdim * out_c, 10 + gi as u64, 2.0, 0.0);
        let mut rng = SplitMix64::new(20 + gi as u64);
        let keep: Vec<bool> = (0..ns * out_c).map(|_| rng.next_f64() < 0.5).collect();
        let need = Arc::new(NeededRows::from_fn(ns, out_c, |i, j| keep[i * out_c + j]));
        for nan in nan_cases(&geom) {
            let x = input(&geom, 30 + gi as u64, nan);
            let rows = geom.unfold(&x);
            // A dense `dY`, and every other geometry a sparse one that
            // keeps the weight gradient in today's orientation.
            let sparse = if gi % 2 == 1 { 0.9 } else { 0.0 };
            let mut dy = rand_vec(out_c * ns, 40 + gi as u64, 2.0, sparse);
            if nan == NanAt::Dy {
                dy[ns + 1] = f32::NAN;
            }
            for (name, cfg) in configs() {
                let oracle = MacGemm::new(cfg.with_threads(1));
                let fwd = references(&oracle, (ns, kdim, out_c), &rows, &w);
                let wgrad = references(&oracle, (out_c, ns, kdim), &dy, &rows);
                for threads in [1usize, 3] {
                    for (tier, engine) in common::tier_engines(cfg, threads) {
                        let derived = engine.with_row_base(7);
                        let engines: [(&dyn GemmEngine, usize); 2] =
                            [(&engine, 0), (derived.as_deref().unwrap_or(&engine), 1)];
                        for (e, at) in engines {
                            let what = format!(
                                "{name} {tier:?} {threads}t {shape:?} k{k} s{stride} p{pad} \
                                 NaN {nan:?} row base {}",
                                7 * at
                            );
                            let pa = e.pack_a_im2row(&x, &geom);
                            let pb = e.pack_b(kdim, out_c, &w);
                            let mut out = vec![f32::NAN; ns * out_c];
                            e.gemm_packed(ns, kdim, out_c, &pa, &pb, &mut out);
                            assert_bits(&out, &fwd[at], &format!("{what}: forward"));

                            let mut out = vec![f32::NAN; ns * out_c];
                            e.gemm_packed_masked(ns, kdim, out_c, &pa, &pb, &need, &mut out);
                            for j in 0..out_c {
                                for i in need.rows(j) {
                                    let at_ij = i * out_c + j;
                                    assert_eq!(
                                        out[at_ij].to_bits(),
                                        fwd[at][at_ij].to_bits(),
                                        "{what}: masked forward entry ({i}, {j})"
                                    );
                                }
                            }

                            let mut out = vec![f32::NAN; out_c * kdim];
                            e.gemm_im2row(out_c, &dy, &x, &geom, &mut out);
                            assert_bits(&out, &wgrad[at], &format!("{what}: weight gradient"));
                        }
                    }
                }
            }
        }
    }
}

/// A wrapper that forwards only the plain operand methods (and the
/// engine's metadata), as a tracing wrapper written before the im2row
/// entry points does: every convolution operand goes through the
/// trait's default bodies.
struct Plain(MacGemm);

impl GemmEngine for Plain {
    fn pack_a(&self, rows: usize, cols: usize, a: &[f32]) -> PackedOperand {
        self.0.pack_a(rows, cols, a)
    }

    fn pack_b(&self, rows: usize, cols: usize, b: &[f32]) -> PackedOperand {
        self.0.pack_b(rows, cols, b)
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
        self.0.gemm_packed(m, k, n, a, b, out);
    }

    fn name(&self) -> String {
        self.0.name()
    }

    fn position_invariant(&self) -> bool {
        self.0.position_invariant()
    }
}

/// The default bodies of `pack_a_im2row` and `gemm_im2row` give the bits
/// of `MacGemm`'s overrides, and so does a whole convolution's forward
/// and backward pass through the wrapper.
#[test]
fn default_bodies_match_the_overrides() {
    let sr = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
    let (fast, plain) = (
        MacGemm::new(sr.with_threads(2)),
        Plain(MacGemm::new(sr.with_threads(2))),
    );
    for (gi, &(shape, k, stride, pad)) in GEOMETRIES.iter().enumerate() {
        let geom = Im2Row::new(shape, k, stride, pad);
        let (ns, kdim, out_c) = (geom.rows(), geom.cols(), 8);
        let x = input(&geom, 50 + gi as u64, NanAt::Nowhere);
        let w = rand_vec(kdim * out_c, 60 + gi as u64, 2.0, 0.0);
        let dy = rand_vec(out_c * ns, 70 + gi as u64, 2.0, 0.0);
        let what = format!("{shape:?} k{k} s{stride} p{pad}");
        let forward = |e: &dyn GemmEngine| {
            let (pa, pb) = (e.pack_a_im2row(&x, &geom), e.pack_b(kdim, out_c, &w));
            let mut out = vec![f32::NAN; ns * out_c];
            e.gemm_packed(ns, kdim, out_c, &pa, &pb, &mut out);
            out
        };
        assert_bits(
            &forward(&plain),
            &forward(&fast),
            &format!("{what}: forward"),
        );
        let wgrad = |e: &dyn GemmEngine| {
            let mut out = vec![f32::NAN; out_c * kdim];
            e.gemm_im2row(out_c, &dy, &x, &geom, &mut out);
            out
        };
        assert_bits(&wgrad(&plain), &wgrad(&fast), &format!("{what}: wgrad"));

        let [n, c, h, wd] = shape;
        let weight = Tensor::from_vec(w[..out_c * kdim].to_vec(), &[out_c, kdim]);
        let x = Tensor::from_vec(x, &[n, c, h, wd]);
        let pass = |engine: Arc<dyn GemmEngine>| {
            let engines = RoleEngines::uniform(engine);
            let mut conv = Conv2d::per_role(c, out_c, k, stride, pad, weight.clone(), engines);
            let y = conv.forward(&x, true);
            let g = Tensor::from_vec(rand_vec(y.numel(), 80, 2.0, 0.0), y.shape());
            let dx = conv.backward(&g);
            let mut dw = Vec::new();
            conv.visit_params(&mut |p| dw.extend_from_slice(p.grad.data()));
            [y.data().to_vec(), dx.data().to_vec(), dw]
        };
        let (got, want) = (
            pass(Arc::new(Plain(MacGemm::new(sr.with_threads(1))))),
            pass(Arc::new(MacGemm::new(sr.with_threads(1)))),
        );
        for (part, (g, w)) in ["output", "input gradient", "weight gradient"]
            .iter()
            .zip(got.iter().zip(&want))
        {
            assert_bits(g, w, &format!("{what}: layer {part}"));
        }
    }
}
