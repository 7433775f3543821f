//! Masked-product equivalence suite (`GemmEngine::gemm_packed_masked`):
//! every needed output entry must carry the bits of the scalar oracle
//! (`MacGemm::gemm_reference`) — across need densities, the im2row
//! pattern of a ReLU'd convolution input, product depths and widths,
//! ragged row counts, thread counts, a row-offset engine, NaN operands,
//! SR and RN, the lane-less scalar engine, and every vector-ISA tier the
//! host has. On top, the layers' demand seam: a convolution's masked
//! backward and a `Sequential`'s mask hand-off keep every bit a reader
//! sees.

mod common;

use std::sync::Arc;

use srmac_fp::FpFormat;
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::layers::{BatchNorm2d, Conv2d, Layer, Relu};
use srmac_tensor::movement::im2row_need;
use srmac_tensor::{GemmEngine, NeededRows, RoleEngines, Sequential, Tensor};

fn rand_vec(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.next_f64() as f32 - 0.5) * scale)
        .collect()
}

/// A random need of the given density over an `m x n` product.
fn random_need(m: usize, n: usize, density: f64, seed: u64) -> Arc<NeededRows> {
    let mut rng = SplitMix64::new(seed);
    let keep: Vec<bool> = (0..m * n).map(|_| rng.next_f64() < density).collect();
    Arc::new(NeededRows::from_fn(m, n, |i, j| keep[j * m + i]))
}

/// The need of a convolution's data gradient whose input is a ReLU
/// output, half of it positive: a `c`-channel 7x19 image under a 3x3
/// pad-1 kernel (`n = 9c`), or a 1x1 kernel when `n = c`.
fn relu_need(n: usize, seed: u64) -> Arc<NeededRows> {
    let (c, k, pad) = if n.is_multiple_of(9) {
        (n / 9, 3, 1)
    } else {
        (n, 1, 0)
    };
    let shape = [1, c, 7, 19];
    let mut rng = SplitMix64::new(seed);
    let relu: Vec<bool> = (0..c * 7 * 19).map(|_| rng.next_f64() < 0.5).collect();
    Arc::new(im2row_need(&relu, shape, k, 1, pad))
}

/// Rows of every product: the 7x19 image of [`relu_need`], two full
/// 64-lane calls and a ragged third at full density.
const M: usize = 133;

/// Checks `engine`'s masked product against `want` at every needed
/// entry, starting from a NaN-filled output.
fn check(
    engine: &dyn GemmEngine,
    what: &str,
    (k, n): (usize, usize),
    a: &[f32],
    b: &[f32],
    need: &Arc<NeededRows>,
    want: &[f32],
) {
    let (pa, pb) = (engine.pack_a(M, k, a), engine.pack_b(k, n, b));
    let mut out = vec![f32::NAN; M * n];
    engine.gemm_packed_masked(M, k, n, &pa, &pb, need, &mut out);
    for j in 0..n {
        for i in need.rows(j) {
            let at = i * n + j;
            assert_eq!(
                out[at].to_bits(),
                want[at].to_bits(),
                "{what} k={k} n={n}: entry ({i}, {j}) of {} needed",
                need.count()
            );
        }
    }
}

/// The oracle product at row base 0, and at row base 7 (the rows of a
/// product with seven rows in front, which draw the streams of a
/// `with_row_base(7)` engine).
fn references(cfg: MacGemmConfig, (k, n): (usize, usize), a: &[f32], b: &[f32]) -> [Vec<f32>; 2] {
    let oracle = MacGemm::new(cfg.with_threads(1));
    let mut base = vec![0.0f32; M * n];
    oracle.gemm_reference(M, k, n, a, b, &mut base);
    let mut shifted_a = rand_vec(7 * k, 99, 2.0);
    shifted_a.extend_from_slice(a);
    let mut shifted = vec![0.0f32; (M + 7) * n];
    oracle.gemm_reference(M + 7, k, n, &shifted_a, b, &mut shifted);
    [base, shifted.split_off(7 * n)]
}

/// Each depth and width of the suite, paired so every `k` in
/// {1, 8, 16, 32} and every `n` in {8, 27, 72, 144, 288} appears.
const SHAPES: [(usize, usize); 8] = [
    (1, 8),
    (8, 27),
    (8, 72),
    (16, 144),
    (32, 288),
    (1, 72),
    (16, 8),
    (32, 27),
];

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

/// Needed entries match the oracle at densities 0, 3%, 50% (the im2row
/// pattern of a ReLU'd input) and 100%, on every tier, at 1 to 4
/// threads, with and without a row offset, with a dense and a sparse A.
#[test]
fn masked_product_matches_the_reference_at_every_needed_entry() {
    for (name, cfg) in configs() {
        for (si, &(k, n)) in SHAPES.iter().enumerate() {
            // Every other shape drops a third of A to zero, so rows that
            // kept fewer than `k` entries meet the staging too.
            let mut zeros = SplitMix64::new(si as u64);
            let a: Vec<f32> = rand_vec(M * k, 3 + si as u64, 2.0)
                .into_iter()
                .map(|v| {
                    if si % 2 == 1 && zeros.next_f64() < 0.3 {
                        0.0
                    } else {
                        v
                    }
                })
                .collect();
            let b = rand_vec(k * n, 5 + si as u64, 2.0);
            let [base, shifted] = references(cfg, (k, n), &a, &b);
            let needs = [
                ("0%", random_need(M, n, 0.0, 1)),
                ("3%", random_need(M, n, 0.03, 2 + si as u64)),
                ("relu 50%", relu_need(n, 3 + si as u64)),
                ("100%", random_need(M, n, 1.0, 4)),
            ];
            let threads = 1 + si % 4;
            for (tier, engine) in common::tier_engines(cfg, threads) {
                assert_eq!(engine.pair_lut_active(), name != "E5M10 SR13");
                for (density, need) in &needs {
                    let what = format!("{name} {tier:?} {threads}t need {density}");
                    check(&engine, &what, (k, n), &a, &b, need, &base);
                    let derived = engine.with_row_base(7);
                    let derived = derived.as_deref().unwrap_or(&engine);
                    let what = format!("{what} row base 7");
                    check(derived, &what, (k, n), &a, &b, need, &shifted);
                }
            }
        }
    }
}

/// A NaN in A or in B reaches the needed entries of its row or column
/// exactly as the oracle computes them.
#[test]
fn masked_product_with_a_nan_operand_matches_the_reference() {
    let (k, n) = (8usize, 72usize);
    for (name, cfg) in configs() {
        for nan_in_a in [true, false] {
            let mut a = rand_vec(M * k, 21, 2.0);
            let mut b = rand_vec(k * n, 22, 2.0);
            // Zeros next to the NaN, so `0 * NaN` meets the accumulator.
            if nan_in_a {
                a[5 * k + 3] = f32::NAN;
                a[9 * k..10 * k].fill(0.0);
            } else {
                b[2 * n + 40] = f32::NAN;
                b[4 * n..5 * n].fill(0.0);
            }
            let [base, _] = references(cfg, (k, n), &a, &b);
            let need = relu_need(n, 23);
            for threads in [1usize, 3] {
                for (tier, engine) in common::tier_engines(cfg, threads) {
                    let what = format!("{name} {tier:?} {threads}t NaN in A: {nan_in_a}");
                    check(&engine, &what, (k, n), &a, &b, &need, &base);
                }
            }
        }
    }
}

/// A random tensor of `shape`, with values in `[-1, 1)`.
fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec(rand_vec(len, seed, 2.0), shape)
}

/// Every parameter gradient of `layer`, as bits.
fn grad_bits(layer: &mut dyn Layer) -> Vec<u32> {
    let mut bits = Vec::new();
    layer.visit_params(&mut |p| bits.extend(p.grad.data().iter().map(|g| g.to_bits())));
    bits
}

/// `Conv2d::backward_masked` gives the bits of `backward` at every
/// needed input entry and the same weight gradient — strided and not,
/// 1x1 and 3x3, padded and not, at a batch offset, on every tier.
#[test]
fn conv_backward_masked_matches_backward_at_every_needed_entry() {
    let sr = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
    let (in_c, out_c, shape) = (3usize, 8usize, [2usize, 3, 9, 7]);
    for (seed, (k, stride, pad)) in [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0), (3, 1, 0)]
        .into_iter()
        .enumerate()
    {
        let seed = seed as u64;
        let w = rand_tensor(&[out_c, in_c * k * k], 40 + seed);
        let x = rand_tensor(&shape, 50 + seed);
        let mut rng = SplitMix64::new(60 + seed);
        let need: Vec<bool> = (0..x.numel()).map(|_| rng.next_f64() < 0.5).collect();
        for (tier, engine) in common::tier_engines(sr, 2) {
            let engines = RoleEngines::uniform(Arc::new(engine));
            let conv = || {
                let mut c =
                    Conv2d::per_role(in_c, out_c, k, stride, pad, w.clone(), engines.clone());
                c.set_batch_offset(5);
                c
            };
            let (mut full, mut masked) = (conv(), conv());
            let y = full.forward(&x, true);
            masked.forward(&x, true);
            let g = rand_tensor(y.shape(), 70 + seed);
            let want = full.backward(&g);
            let got = masked.backward_masked(&g, Some(&need));
            let what = format!("k{k} s{stride} p{pad} {tier:?}");
            for (i, _) in need.iter().enumerate().filter(|(_, &n)| n) {
                assert_eq!(
                    got.data()[i].to_bits(),
                    want.data()[i].to_bits(),
                    "{what}: input gradient {i}"
                );
            }
            assert_eq!(
                grad_bits(&mut masked),
                grad_bits(&mut full),
                "{what}: weight gradient"
            );
        }
    }
}

/// A layer with its demand hidden: it reads every output-gradient entry
/// and computes every input-gradient entry.
struct Unmasked(Box<dyn Layer>);

impl Layer for Unmasked {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.0.forward(x, train)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.0.backward(grad)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut srmac_tensor::Param)) {
        self.0.visit_params(f);
    }
}

/// `Sequential` hands each layer the mask of the layer before it, so a
/// conv-bn-relu stack computes, with every conv masked, the bits of the
/// same stack run unmasked: the input gradient and every parameter
/// gradient.
#[test]
fn sequential_masked_backward_matches_the_unmasked_stack() {
    let sr = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
    let engines = RoleEngines::uniform(Arc::new(MacGemm::new(sr.with_threads(2))));
    let layers = |seed: u64| -> Vec<Box<dyn Layer>> {
        let conv = |in_c: usize, out_c: usize, stride: usize, s: u64| -> Box<dyn Layer> {
            let w = rand_tensor(&[out_c, in_c * 9], seed + s);
            Box::new(Conv2d::per_role(
                in_c,
                out_c,
                3,
                stride,
                1,
                w,
                engines.clone(),
            ))
        };
        vec![
            conv(3, 8, 1, 1),
            Box::new(BatchNorm2d::new(8)),
            Box::new(Relu::new()),
            conv(8, 8, 1, 2),
            Box::new(BatchNorm2d::new(8)),
            Box::new(Relu::new()),
            conv(8, 16, 2, 3),
            Box::new(Relu::new()),
            conv(16, 16, 1, 4),
        ]
    };
    let (mut masked, mut unmasked) = (Sequential::new(), Sequential::new());
    for layer in layers(80) {
        masked.push_boxed(layer);
    }
    for layer in layers(80) {
        unmasked.push(Unmasked(layer));
    }
    let x = rand_tensor(&[2, 3, 10, 10], 90);
    let y = masked.forward(&x, true);
    unmasked.forward(&x, true);
    let g = rand_tensor(y.shape(), 91);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&masked.backward(&g)), bits(&unmasked.backward(&g)));
    assert_eq!(grad_bits(&mut masked), grad_bits(&mut unmasked));
}
