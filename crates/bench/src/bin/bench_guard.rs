//! Bench regression guard: one table of same-host paired gates.
//!
//! ```text
//! bench_guard [--samples N]
//! ```
//!
//! Each row of [`GATES`] compares a baseline and a candidate variant of
//! one workload on the host in hand — no recorded median, so the gate
//! holds on any machine. A row's sampler times both variants
//! back-to-back and returns one ratio per call, so slow machine-load
//! drift cancels within a pair. The guard warms each sampler up once,
//! takes `--samples` ratios (default 5), and checks their median against
//! the row's threshold: a `floor` must be met or beaten, a `ceiling`
//! must not be exceeded. Rows that need real cores behind them carry a
//! minimum host-thread count; below it the verdict is informational.
//! Exits non-zero when any enforced row misses its threshold.
//!
//! | row | ratio | kind | threshold | min host threads |
//! |---|---|---|---|---|
//! | `gemm_64x128x64` SR13, 1-thread engine | `gemm_reference` / batched `gemm` | floor | 1.2 | 1 |
//! | `gemm_64x128x64` SR13, 2-thread engine | `gemm_reference` / batched `gemm` | floor | 1.2 | 1 |
//! | `wgrad_32x512x288` SR13, 1-thread engine, B 63% zeros | packed path / one-shot `gemm` | floor | 1.4 | 1 |
//! | `fwd_8192x72x8` SR13, 1-thread engine, A 49% zeros | ns per live lane-step at `n = 64` / at `n = 8` | floor | 0.65 | 1 |
//! | `dgrad_masked_4096x8x72` SR13, 1-thread engine, half the entries needed | full `gemm_packed` / masked product | floor | 1.3 | 1 |
//! | `conv_pack_32x8x16x16` SR13, 1-thread engine, input 51% non-zero | `f32` im2row + `pack_a` / `pack_a_im2row` | floor | 2.0 | 1 |
//! | `train_scaling` | 1-replica step / 4-replica step | floor | 1.8 | 4 |
//! | `serve_scaling` | 1-worker stream / 4-worker stream | floor | 1.8 | 4 |
//! | `checkpoint_save` | save / `CKPT_SEGMENT_STEPS` steps | ceiling | 0.05 | 1 |
//!
//! The GEMM rows catch losing the lane batching, the SIMD-tier dispatch
//! or the zero-compaction; the 2-thread row drives the tiled kernel
//! through the multi-core rectangle dispatch. The `wgrad` row is a
//! stage-3 weight gradient of the width-8 ResNet-20 with its im2row B as
//! sparse as a training step measured it: the packed path (`pack_a` +
//! `pack_b` + `gemm_packed`, which compacts A) over the one-shot `gemm`,
//! which compacts the sparse side, so it catches losing the transposed
//! orientation. The `fwd` row is the stage-1 forward product of the
//! width-8 ResNet-20 (8 output columns, its im2row A as sparse as a
//! training step measured it) against a 64-column control on the same
//! A, per live lane-step: it catches narrow products falling back to
//! half-empty single chains, where rows no longer share a panel block's
//! 64 lanes. The `dgrad_masked` row is a stage-1 data gradient whose
//! caller reads half its entries (a ReLU'd input's, in the im2row
//! pattern): the full product over `gemm_packed_masked`, which computes
//! only the needed entries, so it catches a masked path that computes
//! every output. The `conv_pack` row is the stage-1 forward operand of
//! the width-8 ResNet-20 at batch 32 and 16x16 inputs, from a ReLU'd
//! input: unfolding the `f32` im2row matrix and packing it over
//! `pack_a_im2row`, which quantizes the input once and gathers its codes,
//! so it catches a byte path that builds the `f32` matrix. The scaling
//! rows compare
//! variants that compute identical bits by contract (pinned
//! `grad_shards = 4`; serving batch invariance), so only scheduling can
//! move them. The checkpoint row is the amortized auto-checkpointing tax
//! at `every = CKPT_SEGMENT_STEPS`, gated at < 5%.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use srmac_bench::guard::{
    rand_vec, relu_conv_need, serve_scaling_stream, train_scaling_step, CheckpointBench,
    CKPT_SEGMENT_STEPS,
};
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::movement::im2row;
use srmac_tensor::{available_threads, GemmEngine, Im2Row};

/// Which side of its threshold a gate's median ratio must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The ratio must be at least the threshold (a speedup).
    Floor,
    /// The ratio must be at most the threshold (an overhead).
    Ceiling,
}

/// The outcome of one gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regression,
    /// The host has fewer threads than the gate needs; not enforced.
    Informational,
}

/// Judges a gate's median `ratio` on a host with `host_threads` threads.
fn verdict(
    kind: Kind,
    threshold: f64,
    min_host_threads: usize,
    host_threads: usize,
    ratio: f64,
) -> Verdict {
    let missed = match kind {
        Kind::Floor => ratio < threshold,
        Kind::Ceiling => ratio > threshold,
    };
    if host_threads < min_host_threads {
        Verdict::Informational
    } else if missed {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// Times one variant and the other back-to-back; returns one ratio.
type Sampler = Box<dyn FnMut() -> f64>;

/// One row of the gate table.
struct Gate {
    name: &'static str,
    kind: Kind,
    threshold: f64,
    min_host_threads: usize,
    /// Builds the workload (outside any timing) and returns its sampler.
    sampler: fn() -> Sampler,
}

const GATES: [Gate; 9] = [
    Gate {
        name: "gemm_64x128x64 SR13 reference/batched, 1-thread engine",
        kind: Kind::Floor,
        threshold: 1.2,
        min_host_threads: 1,
        sampler: || gemm_batching(1),
    },
    Gate {
        name: "gemm_64x128x64 SR13 reference/batched, 2-thread engine",
        kind: Kind::Floor,
        threshold: 1.2,
        min_host_threads: 1,
        sampler: || gemm_batching(2),
    },
    Gate {
        name: "wgrad_32x512x288 SR13 packed path/one-shot, 1-thread engine, B 63% zeros",
        kind: Kind::Floor,
        threshold: 1.4,
        min_host_threads: 1,
        sampler: wgrad_orientation,
    },
    Gate {
        name: "fwd_8192x72x8 SR13 n=64/n=8 per live lane-step, 1-thread engine, A 49% zeros",
        kind: Kind::Floor,
        threshold: 0.65,
        min_host_threads: 1,
        sampler: narrow_forward,
    },
    Gate {
        name: "dgrad_masked_4096x8x72 SR13 full/masked, 1-thread engine, half needed",
        kind: Kind::Floor,
        threshold: 1.3,
        min_host_threads: 1,
        sampler: masked_dgrad,
    },
    Gate {
        name: "conv_pack_32x8x16x16 SR13 f32 im2row+pack_a/pack_a_im2row, 1-thread engine, 51% non-zero",
        kind: Kind::Floor,
        threshold: 2.0,
        min_host_threads: 1,
        sampler: conv_pack,
    },
    Gate {
        name: "train_scaling 1-replica/4-replica step",
        kind: Kind::Floor,
        threshold: 1.8,
        min_host_threads: 4,
        sampler: train_scaling,
    },
    Gate {
        name: "serve_scaling 1-worker/4-worker stream",
        kind: Kind::Floor,
        threshold: 1.8,
        min_host_threads: 4,
        sampler: serve_scaling,
    },
    Gate {
        name: "checkpoint_save save/(10 steps)",
        kind: Kind::Ceiling,
        threshold: 0.05,
        min_host_threads: 1,
        sampler: checkpoint_save,
    },
];

fn time_ns<T>(run: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(run());
    t.elapsed().as_nanos() as f64
}

/// The `gemm_64x128x64` one-shot SR13 product (the headline shape of
/// `probe_tune kernel`): the single-threaded scalar
/// oracle `MacGemm::gemm_reference` over the lane-batched kernel on a
/// `threads`-thread engine.
fn gemm_batching(threads: usize) -> Sampler {
    let (m, k, n) = (64usize, 128, 64);
    let a = rand_vec(m * k, 1);
    let b = rand_vec(k * n, 2);
    let mut out = vec![0.0f32; m * n];
    let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
    let reference = MacGemm::new(cfg);
    let batched = MacGemm::new(cfg.with_threads(threads));
    Box::new(move || {
        time_ns(|| reference.gemm_reference(m, k, n, &a, &b, &mut out))
            / time_ns(|| batched.gemm(m, k, n, &a, &b, &mut out))
    })
}

/// The stage-3 3x3 weight gradient of the width-8 ResNet-20 at batch 32
/// (`dW = dYᵀ · rows`, 32x512x288) on a 1-thread SR13 engine, with 63% of
/// the im2row matrix B zero as a training step measured and `dYᵀ` dense:
/// three packed-path products in today's orientation (`pack_a` +
/// `pack_b` + `gemm_packed`, compacting only A) over three one-shot
/// `gemm`s, which compact the sparse B instead — the same bits.
fn wgrad_orientation() -> Sampler {
    let (m, k, n) = (32usize, 512, 288);
    let a = rand_vec(m * k, 3);
    let mut zeros = SplitMix64::new(5);
    let b: Vec<f32> = rand_vec(k * n, 4)
        .into_iter()
        .map(|v| if zeros.next_f64() < 0.63 { 0.0 } else { v })
        .collect();
    let mut out = vec![0.0f32; m * n];
    let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
    let engine = MacGemm::new(cfg.with_threads(1));
    Box::new(move || {
        let packed = time_ns(|| {
            for _ in 0..3 {
                let (pa, pb) = (engine.pack_a(m, k, &a), engine.pack_b(k, n, &b));
                engine.gemm_packed(m, k, n, &pa, &pb, &mut out);
            }
        });
        packed / time_ns(|| (0..3).for_each(|_| engine.gemm(m, k, n, &a, &b, &mut out)))
    })
}

/// The stage-1 3x3 forward product of the width-8 ResNet-20 at batch 32
/// (`rows · W`, 8192x72x8) on a 1-thread SR13 engine, with 49% of the
/// im2row matrix A zero as a training step measured, against a
/// 64-column B on the same packed A: one 64-column product over eight
/// 8-column ones, which execute as many live lane-steps. Both compact
/// the same A, so the ratio is the 64-column product's ns per live
/// lane-step over the 8-column one's.
fn narrow_forward() -> Sampler {
    let (m, k) = (8192usize, 72);
    let mut zeros = SplitMix64::new(7);
    let a: Vec<f32> = rand_vec(m * k, 6)
        .into_iter()
        .map(|v| if zeros.next_f64() < 0.49 { 0.0 } else { v })
        .collect();
    let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
    let engine = MacGemm::new(cfg.with_threads(1));
    let pa = engine.pack_a(m, k, &a);
    let (b8, b64) = (
        engine.pack_b(k, 8, &rand_vec(k * 8, 8)),
        engine.pack_b(k, 64, &rand_vec(k * 64, 9)),
    );
    let mut out = vec![0.0f32; m * 64];
    Box::new(move || {
        let wide = time_ns(|| engine.gemm_packed(m, k, 64, &pa, &b64, &mut out));
        let narrow = time_ns(|| {
            for _ in 0..8 {
                engine.gemm_packed(m, k, 8, &pa, &b8, &mut out[..m * 8]);
            }
        });
        wide / narrow
    })
}

/// The stage-1 3x3 data gradient of the width-8 ResNet-20 (`dY · W`,
/// 4096x8x72) on a 1-thread SR13 engine, whose caller reads half its
/// entries in the im2row pattern of a ReLU'd input
/// (`guard::relu_conv_need`): the full product over the masked one on
/// the same packed operands.
fn masked_dgrad() -> Sampler {
    let (m, k, n) = (4096usize, 8, 72);
    let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
    let engine = MacGemm::new(cfg.with_threads(1));
    let pa = engine.pack_a(m, k, &rand_vec(m * k, 10));
    let pb = engine.pack_b(k, n, &rand_vec(k * n, 11));
    let need = Arc::new(relu_conv_need(m, n));
    let mut out = vec![0.0f32; m * n];
    Box::new(move || {
        let full = time_ns(|| engine.gemm_packed(m, k, n, &pa, &pb, &mut out));
        full / time_ns(|| engine.gemm_packed_masked(m, k, n, &pa, &pb, &need, &mut out))
    })
}

/// The stage-1 3x3 forward operand of the width-8 ResNet-20 at batch 32
/// and 16x16 inputs (`[32, 8, 16, 16]`, pad 1) on a 1-thread SR13
/// engine, from an input 51% non-zero as a ReLU's output: unfolding the
/// `f32` im2row matrix (`8192 x 72`) and `pack_a` over `pack_a_im2row` —
/// the same operand.
fn conv_pack() -> Sampler {
    let geom = Im2Row::new([32, 8, 16, 16], 3, 1, 1);
    let mut zeros = SplitMix64::new(12);
    let x: Vec<f32> = rand_vec(geom.shape.iter().product(), 13)
        .into_iter()
        .map(|v| {
            if zeros.next_f64() < 0.49 {
                0.0
            } else {
                v.abs()
            }
        })
        .collect();
    let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
    let engine = MacGemm::new(cfg.with_threads(1));
    let mut rows = vec![0.0f32; geom.rows() * geom.cols()];
    Box::new(move || {
        let unfolded = time_ns(|| {
            im2row(&x, geom.shape, geom.k, geom.stride, geom.pad, &mut rows);
            engine.pack_a(geom.rows(), geom.cols(), &rows)
        });
        unfolded / time_ns(|| engine.pack_a_im2row(&x, &geom))
    })
}

/// The full data-parallel trainer step (see `guard::train_scaling_step`)
/// at 1 replica on a 1-thread pool over 4 replicas on a 4-thread pool.
fn train_scaling() -> Sampler {
    let mut r1 = train_scaling_step(1, 1);
    let mut r4 = train_scaling_step(4, 4);
    Box::new(move || time_ns(&mut r1) / time_ns(&mut r4))
}

/// One pipelined 32-request stream (see `guard::serve_scaling_stream`)
/// against 1 worker over the same stream against 4 workers.
fn serve_scaling() -> Sampler {
    let mut w1 = serve_scaling_stream(1);
    let mut w4 = serve_scaling_stream(4);
    Box::new(move || time_ns(&mut w1) / time_ns(&mut w4))
}

/// One rotation save over [`CKPT_SEGMENT_STEPS`] times one training step
/// (see `guard::CheckpointBench`): the amortized overhead of saving
/// every `CKPT_SEGMENT_STEPS` steps.
fn checkpoint_save() -> Sampler {
    let mut bench = CheckpointBench::new();
    Box::new(move || {
        let step = time_ns(|| bench.step());
        time_ns(|| bench.save()) / (CKPT_SEGMENT_STEPS as f64 * step)
    })
}

fn parse_samples() -> usize {
    let mut samples = 5;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--samples" => {
                samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--samples needs an integer argument");
            }
            other => panic!("unknown argument {other} (try --samples N)"),
        }
    }
    samples.max(1)
}

fn main() -> ExitCode {
    let samples = parse_samples();
    let host_threads = available_threads();
    let mut failed = false;
    for gate in &GATES {
        let mut sample = (gate.sampler)();
        sample(); // warm-up: caches, pools, lazily built tables
        let mut ratios: Vec<f64> = (0..samples).map(|_| sample()).collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[ratios.len() / 2];
        let v = verdict(
            gate.kind,
            gate.threshold,
            gate.min_host_threads,
            host_threads,
            median,
        );
        failed |= v == Verdict::Regression;
        let verdict = match v {
            Verdict::Ok => "ok".to_owned(),
            Verdict::Regression => "REGRESSION".to_owned(),
            Verdict::Informational => format!(
                "informational (host has {host_threads} < {} threads)",
                gate.min_host_threads
            ),
        };
        println!(
            "{}: median of {samples} ratios {median:.4} (range {:.4}..{:.4}, {:?} {}) {verdict}",
            gate.name,
            ratios[0],
            ratios[ratios.len() - 1],
            gate.kind,
            gate.threshold,
        );
    }
    if failed {
        eprintln!("bench_guard: a gate missed its threshold on this host");
        return ExitCode::FAILURE;
    }
    println!("bench_guard: all gates passed");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_fails_just_below_and_passes_at_its_threshold() {
        assert_eq!(verdict(Kind::Floor, 1.2, 1, 2, 1.199), Verdict::Regression);
        assert_eq!(verdict(Kind::Floor, 1.2, 1, 2, 1.2), Verdict::Ok);
    }

    #[test]
    fn ceiling_passes_at_and_fails_just_above_its_threshold() {
        assert_eq!(verdict(Kind::Ceiling, 0.05, 1, 2, 0.05), Verdict::Ok);
        assert_eq!(
            verdict(Kind::Ceiling, 0.05, 1, 2, 0.0501),
            Verdict::Regression
        );
    }

    #[test]
    fn below_min_host_threads_is_informational_even_when_missed() {
        assert_eq!(verdict(Kind::Floor, 1.8, 4, 2, 1.0), Verdict::Informational);
        assert_eq!(
            verdict(Kind::Ceiling, 0.05, 4, 3, 1.0),
            Verdict::Informational
        );
    }

    #[test]
    fn gates_are_enforced_at_exactly_min_host_threads() {
        assert_eq!(verdict(Kind::Floor, 1.8, 4, 4, 1.0), Verdict::Regression);
        assert_eq!(verdict(Kind::Floor, 1.8, 4, 4, 1.9), Verdict::Ok);
    }
}
