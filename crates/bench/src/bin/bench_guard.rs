//! Bench regression guard: re-measures the headline MAC workloads —
//! `gemm_64x128x64` (SR and RN, one-shot, 1 thread), the
//! `resnet20_train_step/prepared_weight_reuse` GEMM sequence, the
//! per-role `resnet20_train_step/mixed_policy` sequence (RN forward / SR
//! backward engines resolved through the numerics spec registry), the
//! batch-1 forward-only `resnet20_eval_stream` sequence, the
//! `train_scaling` full data-parallel trainer step, the
//! `serve_scaling` replicated-inference stream, the micro-batched
//! single-worker `serve_resnet20` stream, and the
//! `checkpoint_save` auto-checkpointing segment — with the exact
//! data generation of the criterion benches, and diffs the fresh medians
//! against the committed `BENCH_gemm.json`. Exits non-zero when any
//! watched median regresses by more than the tolerance.
//!
//! ```text
//! bench_guard [--samples N] [--tolerance F] [--json PATH]
//!             [--relative [--min-speedup F] [--min-train-speedup F]
//!                         [--min-serve-speedup F]]
//!             [--max-ckpt-overhead F] [--threads N]
//! ```
//!
//! Defaults: 9 samples, 15% tolerance, the workspace `BENCH_gemm.json`.
//! Absolute mode (the default) compares fresh medians against the
//! committed ones — a tight gate, valid only on the machine class that
//! recorded them. `--relative` is the machine-independent gate CI runs:
//! it measures the lane-batched kernel against the single-threaded
//! scalar oracle (`MacGemm::gemm_reference`) *on the same host* and
//! fails if the batching speedup falls below `--min-speedup` (default
//! 1.2) — catching the regressions that
//! matter (losing the lane batching, the SIMD-tier dispatch, or the
//! zero-compaction) without betting on a shared runner's absolute
//! wall-clock; it also verifies the committed file still contains every
//! watched entry, and gates the data-parallel trainer step's replica
//! fan-out (4 replicas vs 1 at pinned `grad_shards = 4` — identical bits
//! by the trainer's contract, so only scheduling can move) at
//! `--min-train-speedup` (default 1.8), and the replicated inference
//! server's worker fan-out (a pipelined 32-request stream against 4
//! workers vs 1 — identical bits by the serving batch-invariance
//! contract) at `--min-serve-speedup` (default 1.8); both scaling gates
//! are enforced only on hosts with at least 4 hardware threads. Both
//! modes also gate the crash-tolerance tax: a 10-step training segment
//! with one keep-K rotation save at its end vs the same segment plain,
//! whose median ratio — the amortized per-step cost of
//! auto-checkpointing at `every = 10` — must stay at or below
//! `--max-ckpt-overhead` (default 1.05, the <5% acceptance bar). The
//! ratio compares two single-threaded runs on the same host, so it is
//! machine-independent and enforced unconditionally.
//! `--threads N` (default 1) runs the GEMM workloads on
//! N-thread engines — CI's second relative leg uses it to drive the
//! tiled kernel through the multi-core rectangle dispatch (results are
//! bitwise identical by contract; only the wall-clock moves), so a
//! dispatch-layer regression can't hide behind the 1-thread path.
//! `--threads` above 1 is restricted to `--relative`: the committed
//! absolute medians are 1-thread measurements.

use std::process::ExitCode;
use std::time::Instant;

use srmac_bench::guard::{
    checkpoint_save_segment, committed_median, mixed_policy_numerics_1thread, parse_bench_medians,
    rand_vec, relu_sparse_vec, resnet20_role_gemm_shapes, resnet20_weight_gemm_shapes,
    serve_microbatch_stream, serve_scaling_stream, train_scaling_step,
};
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_tensor::{available_threads, GemmEngine, GemmRole};

struct Args {
    samples: usize,
    tolerance: f64,
    json_path: String,
    relative: bool,
    min_speedup: f64,
    min_train_speedup: f64,
    min_serve_speedup: f64,
    max_ckpt_overhead: f64,
    threads: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        samples: 9,
        tolerance: 0.15,
        json_path: concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json").to_owned(),
        relative: false,
        min_speedup: 1.2,
        min_train_speedup: 1.8,
        min_serve_speedup: 1.8,
        max_ckpt_overhead: 1.05,
        threads: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a {what} argument"))
        };
        match flag.as_str() {
            "--samples" => args.samples = value("count").parse().expect("--samples: integer"),
            "--tolerance" => {
                args.tolerance = value("fraction").parse().expect("--tolerance: float");
            }
            "--json" => args.json_path = value("path"),
            "--relative" => args.relative = true,
            "--min-speedup" => {
                args.min_speedup = value("ratio").parse().expect("--min-speedup: float");
            }
            "--min-train-speedup" => {
                args.min_train_speedup =
                    value("ratio").parse().expect("--min-train-speedup: float");
            }
            "--min-serve-speedup" => {
                args.min_serve_speedup =
                    value("ratio").parse().expect("--min-serve-speedup: float");
            }
            "--max-ckpt-overhead" => {
                args.max_ckpt_overhead =
                    value("ratio").parse().expect("--max-ckpt-overhead: float");
            }
            "--threads" => args.threads = value("count").parse().expect("--threads: integer"),
            other => panic!(
                "unknown argument {other} \
                 (try --samples/--tolerance/--json/--relative/--min-speedup/\
                 --min-train-speedup/--min-serve-speedup/--max-ckpt-overhead/--threads)"
            ),
        }
    }
    assert!(args.threads >= 1, "--threads must be at least 1");
    assert!(
        args.threads == 1 || args.relative,
        "--threads above 1 needs --relative: the committed absolute medians are 1-thread"
    );
    args
}

fn median_ns(samples: usize, mut run: impl FnMut()) -> f64 {
    run(); // warm-up: caches, pools, lazily built tables
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The `gemm_64x128x64` one-shot workload (same shape, seeds and engine
/// configs as `benches/gemm.rs`).
fn gemm_median(samples: usize, rounding: AccumRounding, subnormals: bool, threads: usize) -> f64 {
    let (m, k, n) = (64usize, 128, 64);
    let a = rand_vec(m * k, 1);
    let b = rand_vec(k * n, 2);
    let mut out = vec![0.0f32; m * n];
    let engine = MacGemm::new(MacGemmConfig::fp8_fp12(rounding, subnormals).with_threads(threads));
    median_ns(samples, || engine.gemm(m, k, n, &a, &b, &mut out))
}

/// The same SR13 `gemm_64x128x64` product through the single-threaded
/// scalar oracle `MacGemm::gemm_reference` — the baseline of the
/// relative batching gate.
fn reference_median(samples: usize) -> f64 {
    let (m, k, n) = (64usize, 128, 64);
    let a = rand_vec(m * k, 1);
    let b = rand_vec(k * n, 2);
    let mut out = vec![0.0f32; m * n];
    let engine = MacGemm::new(MacGemmConfig::fp8_fp12(
        AccumRounding::Stochastic { r: 13 },
        false,
    ));
    median_ns(samples, || engine.gemm_reference(m, k, n, &a, &b, &mut out))
}

/// The `gemm_scaling/sr13_t1_auto` workload (same shape, seeds and
/// engine config as `benches/gemm.rs`): the tiled kernel on prepared
/// operands at 128x128x256, where the auto tile grid spans several
/// dispatch rectangles.
fn scaling_median(samples: usize, threads: usize) -> f64 {
    let (m, k, n) = (128usize, 128, 256);
    let a = rand_vec(m * k, 5);
    let b = rand_vec(k * n, 6);
    let mut out = vec![0.0f32; m * n];
    let engine = MacGemm::new(
        MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_threads(threads),
    );
    let pa = engine.pack_a(m, k, &a);
    let pb = engine.pack_b(k, n, &b);
    median_ns(samples, || engine.gemm_packed(m, k, n, &pa, &pb, &mut out))
}

/// The `train_scaling` workload: the full data-parallel trainer step
/// (see `guard::train_scaling_step`) at the given replica count on a
/// pool of `threads` threads, gradient shards pinned at 4. Steps are
/// slow, so the caller bounds the sample count separately.
fn train_scaling_median(samples: usize, replicas: usize, threads: usize) -> f64 {
    let mut step = train_scaling_step(replicas, threads);
    median_ns(samples, || {
        step();
    })
}

/// The `serve_scaling` workload: one pipelined 32-request stream against
/// a replicated inference server (see `guard::serve_scaling_stream`) at
/// the given worker count. Streams are slow, so the caller bounds the
/// sample count separately.
fn serve_scaling_median(samples: usize, workers: usize) -> f64 {
    let mut stream = serve_scaling_stream(workers);
    median_ns(samples, || {
        stream();
    })
}

/// The `serve_resnet20` workload: one pipelined 32-request micro-batched
/// stream against the single-worker inference server (see
/// `guard::serve_microbatch_stream`) at the given dynamic-batch ceiling.
/// Streams are slow, so the caller bounds the sample count separately.
fn serve_resnet20_median(samples: usize, max_batch: usize) -> f64 {
    let mut stream = serve_microbatch_stream(max_batch);
    median_ns(samples, || {
        stream();
    })
}

/// The `checkpoint_save` workload, measured *paired*: each sample times
/// a plain 10-step training segment and a saving one back-to-back (see
/// `guard::checkpoint_save_segment`), and the reported overhead is the
/// median of the per-pair ratios. The save costs ~1 ms against a
/// ~200 ms segment, so two independently-timed medians would drown the
/// signal in slow machine-load drift; adjacent pairs cancel the drift
/// and leave the actual checkpointing tax. Returns
/// `(plain_median_ns, ckpt_median_ns, median_pair_ratio)`.
fn checkpoint_save_measure(samples: usize) -> (f64, f64, f64) {
    let mut plain_seg = checkpoint_save_segment(false);
    let mut ckpt_seg = checkpoint_save_segment(true);
    plain_seg(); // warm-up: caches, pools, the rotation scratch file
    ckpt_seg();
    let mut plain_ns = Vec::with_capacity(samples.max(1));
    let mut ckpt_ns = Vec::with_capacity(samples.max(1));
    let mut ratios = Vec::with_capacity(samples.max(1));
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        plain_seg();
        let p = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        ckpt_seg();
        let k = t.elapsed().as_nanos() as f64;
        plain_ns.push(p);
        ckpt_ns.push(k);
        ratios.push(k / p);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (
        median(&mut plain_ns),
        median(&mut ckpt_ns),
        median(&mut ratios),
    )
}

/// Gates the amortized auto-checkpointing tax (the paired-median
/// `ckpt`/`plain` segment ratio) against `--max-ckpt-overhead`. Both
/// single-thread runs land interleaved on the same host, so the ratio is
/// machine-independent and both guard modes enforce it. Returns true
/// when the gate fails.
fn ckpt_overhead_gate(args: &Args) -> bool {
    let (plain, ckpt, ratio) = checkpoint_save_measure(args.samples.min(5));
    let failed = ratio > args.max_ckpt_overhead;
    let verdict = if failed { "REGRESSION" } else { "ok" };
    println!(
        "checkpoint_save: 10-step segment with save {ckpt:>12.0} ns vs plain \
         {plain:>12.0} ns (paired ratio {ratio:.3}x, ceiling {:.3}x) {verdict}",
        args.max_ckpt_overhead
    );
    failed
}

/// The machine-independent gate: lane batching must beat the scalar
/// kernel on this very host, the data-parallel trainer step and the
/// replicated inference server must scale with replicas/workers
/// (enforced only on hosts with >= 4 hardware threads), and the
/// committed file must still carry the watched entries.
fn run_relative(args: &Args, committed: &[srmac_bench::guard::CommittedMedian]) -> ExitCode {
    let mut failed = false;
    for (group, name) in [
        ("gemm_64x128x64", "mac_fp12_sr13_1thread"),
        ("gemm_64x128x64", "mac_fp12_rn_1thread"),
        ("gemm_scaling", "sr13_t1_auto"),
        ("gemm_scaling", "sr13_t2_auto"),
        ("resnet20_train_step", "prepared_weight_reuse"),
        ("resnet20_train_step", "mixed_policy"),
        ("resnet20_eval_stream", "prepared_weight_reuse"),
        ("serve_resnet20", "stream32_batch1"),
        ("serve_resnet20", "stream32_max8"),
        ("train_scaling", "resnet20_step_r1_s4"),
        ("train_scaling", "resnet20_step_r4_s4"),
        ("serve_scaling", "stream32_w1"),
        ("serve_scaling", "stream32_w4"),
        ("checkpoint_save", "train10_plain"),
        ("checkpoint_save", "train10_ckpt"),
    ] {
        if committed_median(committed, group, name).is_none() {
            eprintln!(
                "bench_guard: {group}/{name} missing from {}",
                args.json_path
            );
            failed = true;
        }
    }
    let scalar = reference_median(args.samples);
    let batched = gemm_median(
        args.samples,
        AccumRounding::Stochastic { r: 13 },
        false,
        args.threads,
    );
    let speedup = scalar / batched;
    let verdict = if speedup < args.min_speedup {
        failed = true;
        "REGRESSION"
    } else {
        "ok"
    };
    println!(
        "gemm_64x128x64 SR13 ({} thread(s)): batched {batched:>12.0} ns vs scalar reference \
         {scalar:>12.0} ns ({speedup:.2}x, floor {:.2}x) {verdict}",
        args.threads, args.min_speedup
    );
    // Replica scaling of the full trainer step: the 4-replica variant
    // computes the same bits as the 1-replica one (grad_shards pinned at
    // 4), so wall-clock is the only thing that may move. Trainer steps
    // are slow; a handful of samples is enough for a >= 1.8x gate. The
    // floor is only meaningful with real cores behind the pool — on
    // hosts with fewer than 4 hardware threads the measurement is
    // reported but not enforced.
    let host_threads = available_threads();
    let enforce_train = host_threads >= 4;
    let train_samples = args.samples.min(5);
    let ts_r1 = train_scaling_median(train_samples, 1, 1);
    let ts_r4 = train_scaling_median(train_samples, 4, 4);
    let train_speedup = ts_r1 / ts_r4;
    let train_verdict = if !enforce_train {
        "informational (host has < 4 threads)"
    } else if train_speedup < args.min_train_speedup {
        failed = true;
        "REGRESSION"
    } else {
        "ok"
    };
    println!(
        "train_scaling ({host_threads} host thread(s)): 4 replicas {ts_r4:>12.0} ns vs \
         1 replica {ts_r1:>12.0} ns ({train_speedup:.2}x, floor {:.2}x) {train_verdict}",
        args.min_train_speedup
    );
    // Worker scaling of the replicated inference server: every worker
    // count serves the same bits per request (the batch-invariance
    // contract), so only req/s may move. Same host-thread proviso as
    // the trainer gate.
    let serve_samples = args.samples.min(5);
    let sv_w1 = serve_scaling_median(serve_samples, 1);
    let sv_w4 = serve_scaling_median(serve_samples, 4);
    let serve_speedup = sv_w1 / sv_w4;
    let serve_verdict = if !enforce_train {
        "informational (host has < 4 threads)"
    } else if serve_speedup < args.min_serve_speedup {
        failed = true;
        "REGRESSION"
    } else {
        "ok"
    };
    println!(
        "serve_scaling ({host_threads} host thread(s)): 4 workers {sv_w4:>12.0} ns vs \
         1 worker {sv_w1:>12.0} ns ({serve_speedup:.2}x, floor {:.2}x) {serve_verdict}",
        args.min_serve_speedup
    );
    failed |= ckpt_overhead_gate(args);
    if failed {
        eprintln!(
            "bench_guard: a relative gate failed on this host — lane batching no \
             longer pays for itself, replica/worker fan-out stopped scaling, \
             auto-checkpointing got too expensive, or a watched entry vanished"
        );
        return ExitCode::FAILURE;
    }
    println!("bench_guard: relative gate passed");
    ExitCode::SUCCESS
}

/// The `prepared_weight_reuse` workload of the two GEMM-sequence groups
/// (`resnet20_train_step` at batch 4 with backward products,
/// `resnet20_eval_stream` at batch 1 forward-only): the sequence with
/// weights packed once, activations packed per call — same SR13 1-thread
/// engine, seeds and sparsity as `benches/gemm.rs`.
fn gemm_sequence_median(samples: usize, shapes: &[(usize, usize, usize)]) -> f64 {
    let engine = MacGemm::new(
        MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_threads(1),
    );
    let activations: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, k, _))| relu_sparse_vec(m * k, 100 + i as u64, 0.6))
        .collect();
    let weights: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, k, n))| rand_vec(k * n, 500 + i as u64))
        .collect();
    let mut outs: Vec<Vec<f32>> = shapes
        .iter()
        .map(|&(m, _, n)| vec![0.0f32; m * n])
        .collect();
    let packed_weights: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, k, n))| engine.pack_b(k, n, &weights[i]))
        .collect();
    median_ns(samples, || {
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            let pa = engine.pack_a(m, k, &activations[i]);
            engine.gemm_packed(m, k, n, &pa, &packed_weights[i], &mut outs[i]);
        }
    })
}

/// The `resnet20_train_step/mixed_policy` workload: the same training
/// GEMM sequence, role-tagged, with each product on the engine its role
/// resolves to under `fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13` (1-thread
/// engines; see `mixed_policy_numerics_1thread`) — weights packed once
/// per (shape, role engine), activations/gradients packed per call.
fn mixed_policy_median(samples: usize) -> f64 {
    let numerics = mixed_policy_numerics_1thread();
    let shapes = resnet20_role_gemm_shapes(4, 16, 8);
    let lhs: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(role, m, k, _))| {
            // Forward left operands look post-ReLU sparse; gradient left
            // operands are dense.
            if role == GemmRole::Forward {
                relu_sparse_vec(m * k, 100 + i as u64, 0.6)
            } else {
                rand_vec(m * k, 300 + i as u64)
            }
        })
        .collect();
    let weights: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, _, k, n))| rand_vec(k * n, 500 + i as u64))
        .collect();
    let mut outs: Vec<Vec<f32>> = shapes
        .iter()
        .map(|&(_, m, _, n)| vec![0.0f32; m * n])
        .collect();
    let packed_weights: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(role, _, k, n))| numerics.engine(role).pack_b(k, n, &weights[i]))
        .collect();
    median_ns(samples, || {
        for (i, &(role, m, k, n)) in shapes.iter().enumerate() {
            let engine = numerics.engine(role);
            let pa = engine.pack_a(m, k, &lhs[i]);
            engine.gemm_packed(m, k, n, &pa, &packed_weights[i], &mut outs[i]);
        }
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    let json = match std::fs::read_to_string(&args.json_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("bench_guard: cannot read {}: {e}", args.json_path);
            return ExitCode::FAILURE;
        }
    };
    let committed = parse_bench_medians(&json);
    if args.relative {
        return run_relative(&args, &committed);
    }

    // The checkpoint_save pair is measured once (paired, see
    // checkpoint_save_measure) and used twice: each median diffs against
    // its committed value below, and the paired ratio feeds the
    // machine-independent overhead gate after the loop.
    let (cs_plain, cs_ckpt, cs_ratio) = checkpoint_save_measure(args.samples.min(5));

    let watched: [(&str, &str, f64); 11] = [
        (
            "gemm_64x128x64",
            "mac_fp12_sr13_1thread",
            gemm_median(
                args.samples,
                AccumRounding::Stochastic { r: 13 },
                false,
                args.threads,
            ),
        ),
        (
            "gemm_64x128x64",
            "mac_fp12_rn_1thread",
            gemm_median(args.samples, AccumRounding::Nearest, true, args.threads),
        ),
        (
            "gemm_scaling",
            "sr13_t1_auto",
            scaling_median(args.samples, args.threads),
        ),
        (
            "resnet20_train_step",
            "prepared_weight_reuse",
            gemm_sequence_median(args.samples, &resnet20_weight_gemm_shapes(4, 16, 8, true)),
        ),
        (
            "resnet20_train_step",
            "mixed_policy",
            mixed_policy_median(args.samples),
        ),
        // The batch-1 forward-only inference sequence (the seed-scoped
        // repack variant only differs by when packing happens, so the
        // prepared-weight median is the representative absolute gate).
        (
            "resnet20_eval_stream",
            "prepared_weight_reuse",
            gemm_sequence_median(args.samples, &resnet20_weight_gemm_shapes(1, 16, 8, false)),
        ),
        // The micro-batched single-worker serving stream (batch1 is the
        // slow baseline; max8 is what serving actually runs, so it gets
        // the absolute gate).
        (
            "serve_resnet20",
            "stream32_max8",
            serve_resnet20_median(args.samples.min(5), 8),
        ),
        // The 1-replica data-parallel step (the 4-replica median is
        // host-core-dependent, so only the sequential variant gets an
        // absolute gate; the fan-out is gated relatively above).
        (
            "train_scaling",
            "resnet20_step_r1_s4",
            train_scaling_median(args.samples.min(5), 1, 1),
        ),
        // The 1-worker serving stream (the 4-worker median is
        // host-core-dependent, so only the single-replica variant gets
        // an absolute gate; the fan-out is gated relatively above).
        (
            "serve_scaling",
            "stream32_w1",
            serve_scaling_median(args.samples.min(5), 1),
        ),
        ("checkpoint_save", "train10_plain", cs_plain),
        ("checkpoint_save", "train10_ckpt", cs_ckpt),
    ];

    let mut failed = false;
    for (group, name, fresh) in watched {
        let Some(base) = committed_median(&committed, group, name) else {
            eprintln!(
                "bench_guard: {group}/{name} missing from {}",
                args.json_path
            );
            failed = true;
            continue;
        };
        let ratio = fresh / base;
        let verdict = if ratio > 1.0 + args.tolerance {
            failed = true;
            "REGRESSION"
        } else if ratio < 1.0 {
            "improved"
        } else {
            "ok"
        };
        println!(
            "{group}/{name}: fresh {fresh:>12.0} ns vs committed {base:>12.0} ns \
             ({ratio:.2}x) {verdict}"
        );
    }
    // The amortized auto-checkpointing tax, from the paired measurement
    // above (machine-independent, so it holds in both modes).
    let ckpt_ratio = cs_ratio;
    let ckpt_verdict = if ckpt_ratio > args.max_ckpt_overhead {
        failed = true;
        "REGRESSION"
    } else {
        "ok"
    };
    println!(
        "checkpoint_save overhead: {ckpt_ratio:.3}x (ceiling {:.3}x) {ckpt_verdict}",
        args.max_ckpt_overhead
    );
    if failed {
        eprintln!(
            "bench_guard: regression beyond {:.0}% (or missing entry, or the \
             auto-checkpointing overhead ceiling) — investigate before merging, \
             or re-record BENCH_gemm.json via `cargo bench --bench gemm` if the \
             change is intended",
            args.tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("bench_guard: all watched medians within tolerance");
    ExitCode::SUCCESS
}
