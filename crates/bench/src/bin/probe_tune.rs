//! Development probe: `probe_tune kernel [--samples N]` times the tiled
//! MAC kernel at 1 and 2 threads: the headline 64x128x64 and 128x128x256
//! scaling shapes, the six ResNet-20 weight-gradient shapes, a `k = 8`
//! data-gradient shape, where per-row overhead shows, and the four
//! narrow forward shapes (8, 16 and 32 output columns), where rows share
//! a panel block's 64 lanes.
//!
//! Each weight gradient `dW = dYᵀ · rows` gets the B density a width-8
//! ResNet-20 training step (SR13, batch 32, 16x16 inputs) measured in its
//! im2row matrix `rows` — post-ReLU activations plus padding — while its
//! A operand `dYᵀ` stays dense, as it is there (99% non-zero). Each
//! forward product `rows · W` gets that im2row density in its A instead,
//! and a dense B. Per shape the probe prints:
//!
//! - `gemm_packed` on prepared operands in ns per *nominal* MAC step
//!   (`m * k * n`) and per *live executed* one (`nnz(A) * n`: the
//!   compaction skips A's zero entries, never B's, and a tail block's
//!   padded lanes are not counted);
//! - for the weight gradients, the one-shot `gemm` — which compacts
//!   whichever operand is cheaper to skip — next to the packed path in
//!   today's orientation (`pack_a` + `pack_b` + `gemm_packed`), both
//!   packing included, with the executed steps of compacting `Bᵀ`
//!   instead (`nnz(B) * m`);
//! - for the forward shapes, an `n = 64` control on the same A — one
//!   full panel block per row — in ns per live executed step, and the
//!   narrow shape's cost over the control's.
//!
//! `--samples N` (default 1) runs the whole shape list N times,
//! interleaved, so slow drift of the host lands on every shape alike,
//! and prints each figure's median with its quartiles.
//!
//! Every point computes bitwise-identical output (asserted here against
//! the scalar oracle `MacGemm::gemm_reference`), so the probe is a pure
//! wall-clock measurement.
//!
//! Environment knobs: `SRMAC_KERNEL_REPS` (default 120) timing
//! repetitions of the headline shape; other shapes scale theirs to time
//! about as many MAC steps.

#![forbid(unsafe_code)]

use std::time::Instant;

use srmac_bench::env_or;
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::{GemmEngine, PackedOperand};

/// Uniform values in `[-0.5, 0.5)`, each replaced by `+0` with
/// probability `1 - density`.
fn rand_vec(n: usize, seed: u64, density: f64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let v = rng.next_f32() - 0.5;
            if rng.next_f64() < density {
                v
            } else {
                0.0
            }
        })
        .collect()
}

/// Mean ns of `reps` calls of `run` after one warm-up call.
fn time_ns(reps: usize, mut run: impl FnMut()) -> f64 {
    run();
    let start = Instant::now();
    for _ in 0..reps {
        run();
    }
    start.elapsed().as_secs_f64() * 1e9 / reps as f64
}

/// What the probe times besides the packed kernel.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The packed kernel only.
    Kernel,
    /// A weight gradient: one-shot `gemm` against the packed path.
    Wgrad,
    /// A narrow forward product: an `n = 64` control on the same A.
    Forward,
}

/// The probe's shapes: label, `m x k x n`, A density, B density, role.
const SHAPES: [(&str, usize, usize, usize, f64, f64, Role); 15] = [
    ("headline 64x128x64", 64, 128, 64, 1.0, 1.0, Role::Kernel),
    ("scaling 128x128x256", 128, 128, 256, 1.0, 1.0, Role::Kernel),
    ("wgrad 8x8192x27", 8, 8192, 27, 1.0, 0.92, Role::Wgrad),
    ("wgrad 8x8192x72", 8, 8192, 72, 1.0, 0.51, Role::Wgrad),
    ("wgrad 16x2048x72", 16, 2048, 72, 1.0, 0.68, Role::Wgrad),
    ("wgrad 16x2048x144", 16, 2048, 144, 1.0, 0.45, Role::Wgrad),
    ("wgrad 32x512x144", 32, 512, 144, 1.0, 0.60, Role::Wgrad),
    ("wgrad 32x512x288", 32, 512, 288, 1.0, 0.37, Role::Wgrad),
    ("wgrad 16x2048x8", 16, 2048, 8, 1.0, 0.73, Role::Wgrad),
    ("wgrad 32x512x16", 32, 512, 16, 1.0, 0.71, Role::Wgrad),
    ("dgrad 8192x8x72", 8192, 8, 72, 1.0, 1.0, Role::Kernel),
    ("fwd 8192x27x8", 8192, 27, 8, 0.92, 1.0, Role::Forward),
    ("fwd 8192x72x8", 8192, 72, 8, 0.51, 1.0, Role::Forward),
    ("fwd 2048x144x16", 2048, 144, 16, 0.45, 1.0, Role::Forward),
    ("fwd 512x288x32", 512, 288, 32, 0.37, 1.0, Role::Forward),
];

/// The column count of the forward shapes' control.
const CONTROL_N: usize = 64;

/// One shape's operands, engines and oracle bits, built once and timed
/// once per sample.
struct Probe {
    label: &'static str,
    role: Role,
    shape: (usize, usize, usize),
    reps: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    /// Engines of 1 and 2 threads, with `pack_a(A)` and `pack_b(B)`.
    engines: [(MacGemm, PackedOperand, PackedOperand); 2],
    reference: Vec<u32>,
    /// The forward control's packed `k x 64` B and oracle bits.
    control: Option<(PackedOperand, Vec<u32>)>,
    /// Non-zero codes of A and of B.
    nnz: (usize, usize),
    out: Vec<f32>,
}

/// The named figures one sample of a [`Probe`] yields.
type Figures = Vec<(&'static str, f64)>;

impl Probe {
    fn new(
        (label, m, k, n, a_density, b_density, role): (
            &'static str,
            usize,
            usize,
            usize,
            f64,
            f64,
            Role,
        ),
        config: MacGemmConfig,
        headline_reps: usize,
    ) -> Self {
        let a = rand_vec(m * k, 3, a_density);
        let b = rand_vec(k * n, 4, b_density);
        let oracle = |n: usize, b: &[f32]| {
            let mut out = vec![0.0f32; m * n];
            MacGemm::new(config).gemm_reference(m, k, n, &a, b, &mut out);
            out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        let reference = oracle(n, &b);
        let engines = [1usize, 2].map(|threads| {
            let engine = MacGemm::new(config.with_threads(threads));
            let (pa, pb) = (engine.pack_a(m, k, &a), engine.pack_b(k, n, &b));
            (engine, pa, pb)
        });
        let control = (role == Role::Forward).then(|| {
            let b64 = rand_vec(k * CONTROL_N, 5, 1.0);
            let bits = oracle(CONTROL_N, &b64);
            (engines[0].0.pack_b(k, CONTROL_N, &b64), bits)
        });
        let nonzero = |xs: &[f32]| {
            engines[0]
                .0
                .quantize_codes(xs)
                .iter()
                .filter(|&&c| c & 0x7f != 0)
                .count()
        };
        let nnz = (nonzero(&a), nonzero(&b));
        let nominal = m * k * n;
        Self {
            label,
            role,
            shape: (m, k, n),
            reps: (headline_reps * 64 * 128 * 64 / nominal).max(3),
            a,
            b,
            engines,
            reference,
            control,
            nnz,
            out: vec![0.0f32; m * n.max(CONTROL_N)],
        }
    }

    /// Times every variant of the shape once, each bit-checked.
    fn sample(&mut self) -> Figures {
        let (m, k, n) = self.shape;
        let (reps, label) = (self.reps, self.label);
        let (a, b, out) = (&self.a, &self.b, &mut self.out);
        let check = |what: &str, out: &[f32], want: &[u32]| {
            assert!(
                out.iter().zip(want).all(|(v, &r)| v.to_bits() == r),
                "{label} {what}: bits diverged from reference"
            );
        };
        let nominal = (m * k * n) as f64;
        let exec = (self.nnz.0 * n) as f64;
        let mut figures = Vec::new();
        let mut kernel_ns = [0.0f64; 2];
        let mut ratio = [0.0f64; 2];
        for (t, (engine, pa, pb)) in self.engines.iter().enumerate() {
            let out = &mut out[..m * n];
            kernel_ns[t] = time_ns(reps, || engine.gemm_packed(m, k, n, pa, pb, out));
            check("gemm_packed", out, &self.reference);
            if self.role == Role::Wgrad {
                let packed_ns = time_ns(reps, || {
                    let (pa, pb) = (engine.pack_a(m, k, a), engine.pack_b(k, n, b));
                    engine.gemm_packed(m, k, n, &pa, &pb, out);
                });
                check("packed path", out, &self.reference);
                let one_shot_ns = time_ns(reps, || engine.gemm(m, k, n, a, b, out));
                check("one-shot gemm", out, &self.reference);
                ratio[t] = packed_ns / one_shot_ns;
                if t == 0 {
                    figures.push(("one-shot 1t ms", one_shot_ns / 1e6));
                    figures.push(("packed path 1t ms", packed_ns / 1e6));
                }
            }
        }
        figures.push(("packed 1t ns/step", kernel_ns[0] / nominal));
        figures.push(("packed 1t ns/exec", kernel_ns[0] / exec));
        figures.push(("packed 2t ns/step", kernel_ns[1] / nominal));
        figures.push(("2t speedup x", kernel_ns[0] / kernel_ns[1]));
        if self.role == Role::Wgrad {
            figures.push(("packed path/one-shot 1t x", ratio[0]));
            figures.push(("packed path/one-shot 2t x", ratio[1]));
        }
        if let Some((pb64, want)) = &self.control {
            let (engine, pa, _) = &self.engines[0];
            let out = &mut out[..m * CONTROL_N];
            let ns = time_ns(reps, || engine.gemm_packed(m, k, CONTROL_N, pa, pb64, out));
            check("n = 64 control", out, want);
            let control = ns / (self.nnz.0 * CONTROL_N) as f64;
            figures.push(("n=64 control 1t ns/exec", control));
            figures.push(("narrow/control x", kernel_ns[0] / exec / control));
        }
        figures
    }
}

/// The value at quantile `q` of sorted `xs` (nearest rank).
fn quantile(xs: &[f64], q: f64) -> f64 {
    xs[((xs.len() - 1) as f64 * q).round() as usize]
}

/// Times every shape of [`SHAPES`] at 1 and 2 threads, `samples` times
/// over, interleaved, bit-checked against the scalar oracle.
/// Repetitions scale down with the product size so each point times
/// about as many MAC steps as a headline point.
fn kernel(samples: usize) {
    let reps: usize = env_or("SRMAC_KERNEL_REPS", 120);
    let config =
        MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_threads(1);
    let mut probes: Vec<Probe> = SHAPES
        .iter()
        .map(|&s| Probe::new(s, config, reps))
        .collect();
    let mut runs: Vec<Vec<Figures>> = vec![Vec::new(); probes.len()];
    for _ in 0..samples {
        for (probe, run) in probes.iter_mut().zip(&mut runs) {
            run.push(probe.sample());
        }
    }
    println!(
        "-- SR13, default tiles, {samples} interleaved sample(s): median [q1, q3]; \
         ns per nominal (m*k*n) and live executed (nnz(A)*n) MAC step --"
    );
    for (probe, run) in probes.iter().zip(&runs) {
        let (m, k, n) = probe.shape;
        let (nnz_a, nnz_b) = probe.nnz;
        println!(
            "{} ({} reps): A {:.0}% B {:.0}% non-zero; steps nominal {:.2}M, executed {:.2}M \
             compacting A, {:.2}M compacting Bᵀ",
            probe.label,
            probe.reps,
            100.0 * nnz_a as f64 / (m * k) as f64,
            100.0 * nnz_b as f64 / (k * n) as f64,
            (m * k * n) as f64 / 1e6,
            (nnz_a * n) as f64 / 1e6,
            (nnz_b * m) as f64 / 1e6,
        );
        for (f, &(name, _)) in run[0].iter().enumerate() {
            let mut xs: Vec<f64> = run.iter().map(|figs| figs[f].1).collect();
            xs.sort_by(f64::total_cmp);
            println!(
                "  {name:<26} {:>8.3} [{:.3}, {:.3}]",
                quantile(&xs, 0.5),
                quantile(&xs, 0.25),
                quantile(&xs, 0.75),
            );
        }
    }
}

fn parse_samples(args: &[String]) -> usize {
    match args {
        [] => 1,
        [flag, v] if flag == "--samples" => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => usage(&format!("--samples needs a positive integer, got {v}")),
        },
        _ => usage(&format!("unknown arguments {args:?}")),
    }
}

fn usage(why: &str) -> ! {
    eprintln!("probe_tune: {why} (try `kernel [--samples N]`)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "kernel" => kernel(parse_samples(rest)),
        None => kernel(1),
        Some((other, _)) => usage(&format!("unknown subcommand {other}")),
    }
}
