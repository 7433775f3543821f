//! Criterion benches for the GEMM engines and the shared runtime: exact
//! f32 vs the bit-exact low-precision MAC emulation (RN and SR
//! accumulation), the prepared-operand pipeline vs the one-shot path,
//! the parallel data-movement kernels (im2row / col2im / NCHW scatter /
//! transpose) against their serial baselines, and a ResNet-20-shaped
//! GEMM sequence with weight operands packed once and reused, plus the
//! serving, data-parallel scaling and checkpointing workloads whose
//! same-host ratios `bench_guard` gates.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use srmac_bench::guard::{
    mixed_policy_numerics_1thread, rand_vec, relu_sparse_vec, resnet20_role_gemm_shapes,
    resnet20_weight_gemm_shapes, serve_scaling_stream, train_scaling_step, CheckpointBench,
    SERVE_SCALING_STREAM,
};
use srmac_models::serve::{InferenceServer, ServeConfig};
use srmac_models::{data, resnet};
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_tensor::movement::{col2im, im2row, rows_to_nchw, transpose_into};
use srmac_tensor::GemmRole;
use srmac_tensor::{available_threads, F32Engine, GemmEngine, Numerics, Runtime};

fn bench_gemm(c: &mut Criterion) {
    let (m, k, n) = (64usize, 128, 64);
    let a = rand_vec(m * k, 1);
    let b = rand_vec(k * n, 2);
    let mut out = vec![0.0f32; m * n];

    let mut g = c.benchmark_group("gemm_64x128x64");
    // The recording host has bursty external interference on the order of
    // hundreds of ms; enough samples for the median to straddle the bursts.
    g.sample_size(60);
    g.throughput(Throughput::Elements((m * k * n) as u64));

    let f32e = F32Engine::new(1);
    g.bench_function("f32_1thread", |bch| {
        bch.iter(|| f32e.gemm(m, k, n, black_box(&a), black_box(&b), &mut out))
    });

    let rn = MacGemm::new(MacGemmConfig::fp8_fp12(AccumRounding::Nearest, true).with_threads(1));
    g.bench_function("mac_fp12_rn_1thread", |bch| {
        bch.iter(|| rn.gemm(m, k, n, black_box(&a), black_box(&b), &mut out))
    });

    let sr = MacGemm::new(
        MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_threads(1),
    );
    g.bench_function("mac_fp12_sr13_1thread", |bch| {
        bch.iter(|| sr.gemm(m, k, n, black_box(&a), black_box(&b), &mut out))
    });

    let sr2 = MacGemm::new(
        MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_threads(2),
    );
    g.bench_function("mac_fp12_sr13_2threads", |bch| {
        bch.iter(|| sr2.gemm(m, k, n, black_box(&a), black_box(&b), &mut out))
    });
    g.finish();

    // The lane-batched kernel on prepared operands, so only the
    // accumulation loop is timed.
    let mut g = c.benchmark_group("gemm_batched");
    g.sample_size(60);
    g.throughput(Throughput::Elements((m * k * n) as u64));
    for (name, rounding) in [
        ("sr13_lanes64", AccumRounding::Stochastic { r: 13 }),
        ("rn_lanes64", AccumRounding::Nearest),
    ] {
        let subnormals = matches!(rounding, AccumRounding::Nearest);
        let engine = MacGemm::new(MacGemmConfig::fp8_fp12(rounding, subnormals).with_threads(1));
        let pa = engine.pack_a(m, k, &a);
        let pb = engine.pack_b(k, n, &b);
        g.bench_function(name, |bch| {
            bch.iter(|| engine.gemm_packed(m, k, n, black_box(&pa), black_box(&pb), &mut out))
        });
    }
    g.finish();

    // Thread scaling of the tiled kernel on prepared operands at a larger
    // shape (several dispatch rectangles). The entries coincide on a
    // single-core box — the runtime degrades to inline execution — and
    // fan out with the pool width. All entries are bitwise-identical
    // computations.
    let (sm, sk, sn) = (128usize, 128, 256);
    let sa = rand_vec(sm * sk, 5);
    let sb = rand_vec(sk * sn, 6);
    let mut sout = vec![0.0f32; sm * sn];
    let mut g = c.benchmark_group("gemm_scaling");
    g.sample_size(10);
    g.throughput(Throughput::Elements((sm * sk * sn) as u64));
    let scaling_engine = |threads: usize| {
        MacGemm::new(
            MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false)
                .with_threads(threads),
        )
    };
    for threads in [1usize, 2, 4] {
        let engine = scaling_engine(threads);
        let pa = engine.pack_a(sm, sk, &sa);
        let pb = engine.pack_b(sk, sn, &sb);
        g.bench_function(&format!("sr13_t{threads}_auto"), |bch| {
            bch.iter(|| engine.gemm_packed(sm, sk, sn, black_box(&pa), black_box(&pb), &mut sout))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("quantize_f32_to_fp8");
    g.sample_size(20);
    let xs = rand_vec(64 * 1024, 3);
    g.throughput(Throughput::Elements(xs.len() as u64));
    let engine = MacGemm::new(MacGemmConfig::fp8_fp12(AccumRounding::Nearest, true));
    g.bench_function("quantize_64k", |bch| {
        bch.iter(|| engine.quantize_codes(black_box(&xs)))
    });
    g.finish();
}

/// Packed vs one-shot on a single weight-stationary product.
fn bench_packed_vs_oneshot(c: &mut Criterion) {
    let (m, k, n) = (64usize, 144, 16);
    let a = relu_sparse_vec(m * k, 11, 0.6);
    let b = rand_vec(k * n, 12);
    let mut out = vec![0.0f32; m * n];
    let engine = MacGemm::new(
        MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_threads(1),
    );

    let mut g = c.benchmark_group("gemm_pipeline_64x144x16");
    g.sample_size(20);
    g.throughput(Throughput::Elements((m * k * n) as u64));
    g.bench_function("pooled_oneshot", |bch| {
        bch.iter(|| engine.gemm(m, k, n, black_box(&a), black_box(&b), &mut out))
    });
    let pb = engine.pack_b(k, n, &b);
    g.bench_function("packed_weight_reused", |bch| {
        bch.iter(|| {
            let pa = engine.pack_a(m, k, black_box(&a));
            engine.gemm_packed(m, k, n, &pa, &pb, &mut out);
        })
    });
    let pa = engine.pack_a(m, k, &a);
    g.bench_function("both_packed_reused", |bch| {
        bch.iter(|| engine.gemm_packed(m, k, n, black_box(&pa), black_box(&pb), &mut out))
    });
    g.finish();
}

/// The data-movement kernels around a batch-8 width-16 conv layer, serial
/// vs parallel at the machine's thread width. On a single-core box the two
/// entries coincide (the runtime degrades to inline execution); with more
/// cores the parallel entries track the pool width while staying bitwise
/// identical.
fn bench_data_movement(c: &mut Criterion) {
    let (n, ch, h, w, k, stride, pad) = (8usize, 16usize, 16usize, 16usize, 3usize, 1usize, 1);
    let kdim = ch * k * k;
    let (oh, ow) = (16usize, 16usize);
    let x: Arc<Vec<f32>> = Arc::new(rand_vec(n * ch * h * w, 41));
    let drows: Arc<Vec<f32>> = Arc::new(rand_vec(n * oh * ow * kdim, 42));
    let yt: Arc<Vec<f32>> = Arc::new(rand_vec(n * oh * ow * ch, 43));
    let wide = Runtime::new(available_threads());
    let serial = Runtime::serial();

    let mut g = c.benchmark_group("data_movement_conv8x16");
    g.sample_size(20);
    let mut rows = vec![0.0f32; n * oh * ow * kdim];
    let mut dx = vec![0.0f32; n * ch * h * w];
    let mut nchw = vec![0.0f32; n * ch * oh * ow];
    let mut t = vec![0.0f32; n * oh * ow * kdim];
    for (name, rt) in [("serial", &serial), ("parallel", &wide)] {
        g.bench_function(&format!("im2row_{name}"), |bch| {
            bch.iter(|| im2row(rt, black_box(&x), [n, ch, h, w], k, stride, pad, &mut rows))
        });
        g.bench_function(&format!("col2im_{name}"), |bch| {
            bch.iter(|| {
                col2im(
                    rt,
                    black_box(&drows),
                    [n, ch, h, w],
                    k,
                    stride,
                    pad,
                    &mut dx,
                )
            })
        });
        g.bench_function(&format!("scatter_nchw_{name}"), |bch| {
            bch.iter(|| rows_to_nchw(rt, black_box(&yt), n, ch, oh * ow, &mut nchw))
        });
        g.bench_function(&format!("transpose_{name}"), |bch| {
            bch.iter(|| transpose_into(rt, black_box(&drows), n * oh * ow, kdim, &mut t))
        });
    }
    g.finish();
}

/// Benches one ResNet-20-shaped GEMM sequence with ReLU-sparse
/// activations/gradients through the prepared pipeline: weights packed
/// once and reused, activations packed per call with zero-compaction,
/// persistent workers.
fn bench_gemm_sequence(c: &mut Criterion, group: &str, shapes: &[(usize, usize, usize)]) {
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

    let mut g = c.benchmark_group(group);
    g.sample_size(10);

    // Weights packed once, outside the hot loop — the trainer does this
    // once per optimizer step, the evaluator once per weight update.
    let packed_weights: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, k, n))| engine.pack_b(k, n, &weights[i]))
        .collect();
    g.bench_function("prepared_weight_reuse", |bch| {
        bch.iter(|| {
            for (i, &(m, k, n)) in shapes.iter().enumerate() {
                let pa = engine.pack_a(m, k, &activations[i]);
                engine.gemm_packed(m, k, n, &pa, &packed_weights[i], &mut outs[i]);
            }
        })
    });
    g.finish();
}

/// Two ResNet-20-shaped sequences at laptop scale (width 8, 16x16 inputs):
/// a batch-4 training step (forward + data-gradient products) and the
/// serving-oriented batch-1 streaming evaluation, where cached weight
/// packs pay off most (the ROADMAP's request-serving scenario).
fn bench_resnet20_sequences(c: &mut Criterion) {
    let train = resnet20_weight_gemm_shapes(4, 16, 8, true);
    bench_gemm_sequence(c, "resnet20_train_step", &train);
    let eval = resnet20_weight_gemm_shapes(1, 16, 8, false);
    bench_gemm_sequence(c, "resnet20_eval_stream", &eval);
    bench_mixed_policy(c);
}

/// The per-role `mixed_policy` sequence (`fwd=fp8_fp12_rn;bwd=
/// fp8_fp12_sr13`, 1-thread engines): every training product — forward,
/// data gradient AND weight gradient — on the engine its GEMM role
/// resolves to, weights packed once per (shape, role engine), on the
/// 1-thread engines of `guard::mixed_policy_numerics_1thread`.
fn bench_mixed_policy(c: &mut Criterion) {
    let numerics = mixed_policy_numerics_1thread();
    let shapes = resnet20_role_gemm_shapes(4, 16, 8);
    let lhs: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(role, m, k, _))| {
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
    let mut g = c.benchmark_group("resnet20_train_step");
    g.sample_size(10);
    g.bench_function("mixed_policy", |bch| {
        bch.iter(|| {
            for (i, &(role, m, k, n)) in shapes.iter().enumerate() {
                let engine = numerics.engine(role);
                let pa = engine.pack_a(m, k, &lhs[i]);
                engine.gemm_packed(m, k, n, &pa, &packed_weights[i], &mut outs[i]);
            }
        })
    });
    g.finish();
}

/// Number of requests pushed through the inference server per timed
/// iteration of the `serve_resnet20` group.
const SERVE_STREAM: usize = 32;

/// Micro-batched serving throughput: a width-8 ResNet-20 (16x16 inputs,
/// the scale of the `resnet20_eval_stream` group) behind the
/// `InferenceServer` queue on the deterministic inference engine (MAC
/// RN), measured as a 32-request stream submitted pipelined. `max8`
/// assembles dynamic batches of up to 8; `batch1` forces singleton
/// batches (the queue overhead + batch-1 forward baseline). On a
/// single-core box the two
/// largely coincide — the MAC arithmetic dominates and batching saves
/// only per-dispatch overhead; the gap opens with the pool width.
fn bench_serve_resnet20(c: &mut Criterion) {
    let size = 16usize;
    let numerics = Numerics::uniform(Arc::new(MacGemm::new(
        MacGemmConfig::fp8_fp12(AccumRounding::Nearest, false).with_threads(1),
    )));
    let ds = data::synth_cifar10(SERVE_STREAM, size, 9);
    let samples: Vec<Vec<f32>> = (0..ds.len())
        .map(|i| ds.batch(&[i]).0.data().to_vec())
        .collect();

    let mut g = c.benchmark_group("serve_resnet20");
    g.sample_size(10);
    g.throughput(Throughput::Elements(SERVE_STREAM as u64));
    for (name, max_batch) in [("stream32_batch1", 1usize), ("stream32_max8", 8)] {
        let model = resnet::resnet20_with(&numerics, 8, 10, 42);
        let server = InferenceServer::start(
            model,
            size,
            ServeConfig {
                max_batch,
                max_wait_items: max_batch,
                straggler_wait: Duration::from_micros(200),
                ..ServeConfig::default()
            },
        )
        .expect("RN forward engine serves");
        let client = server.client();
        // Warm-up: populate the packed-weight caches and layer workspaces.
        let _ = client.predict(samples[0].clone()).expect("warm-up");
        g.bench_function(name, |bch| {
            bch.iter(|| {
                let pending: Vec<_> = samples
                    .iter()
                    .map(|s| client.submit(black_box(s.clone())).expect("submit"))
                    .collect();
                pending
                    .into_iter()
                    .map(|p| p.wait().expect("prediction").argmax)
                    .sum::<usize>()
            })
        });
        let (_, stats) = server.shutdown().expect("clean shutdown");
        assert!(
            stats.max_batch_seen <= max_batch,
            "assembly must respect max_batch"
        );
    }
    g.finish();
}

/// Replicated serving scale-out: the same pipelined 32-request stream as
/// `serve_resnet20` (width-8 ResNet-20, 16x16 inputs, 1-thread MAC RN
/// engine) against 1 vs 4 worker replicas, router-sharded over CoW
/// clones of one model. By the serving batch-invariance contract every
/// worker count answers the same bits per request, so the ratio is pure
/// serving fan-out; on a single-core host the two largely coincide (the
/// 4-worker variant additionally pays routing overhead) and the
/// `bench_guard` serve-scaling gate enforces the speedup floor only on
/// hosts with at least 4 hardware threads.
fn bench_serve_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_scaling");
    g.sample_size(10);
    g.throughput(Throughput::Elements(SERVE_SCALING_STREAM as u64));
    for (name, workers) in [("stream32_w1", 1usize), ("stream32_w4", 4)] {
        let mut stream = serve_scaling_stream(workers);
        g.bench_function(name, |b| b.iter(|| black_box(stream())));
    }
    g.finish();
}

/// Deterministic data-parallel scaling: the full `Trainer` step (shard,
/// CoW-replicate, per-replica forward/backward on the shared pool,
/// bitwise tree reduction, one SGD step) at 1 vs 4 replicas with the
/// gradient-shard count pinned at 4. By the trainer's invariance
/// contract both variants produce *identical bits*, so the ratio is pure
/// scheduling fan-out; each replica count runs on a pool of that many
/// threads. On a single-core host the two largely coincide (the
/// 4-replica variant additionally pays clone + dispatch overhead); the
/// `bench_guard` train-scaling gate enforces the speedup floor only on
/// hosts with at least 4 hardware threads.
fn bench_train_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("train_scaling");
    g.sample_size(10);
    for (name, replicas, threads) in [
        ("resnet20_step_r1_s4", 1usize, 1usize),
        ("resnet20_step_r4_s4", 4, 4),
    ] {
        let mut step = train_scaling_step(replicas, threads);
        g.bench_function(name, |b| b.iter(|| black_box(step())));
    }
    g.finish();
}

/// The crash-tolerance tax, as its two phases on one
/// `guard::CheckpointBench`: one training step and one keep-K rotation
/// save (model + full trainer state). `save / (CKPT_SEGMENT_STEPS *
/// step)` is the amortized per-step cost of auto-checkpointing, which
/// `bench_guard` gates at <= 5% from its own paired samples. Measured on
/// the fast exact-f32 engine so the fraction is a conservative worst
/// case: the save cost is engine-independent, and slower MAC-emulation
/// steps only shrink it.
fn bench_checkpoint_save(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint_save");
    g.sample_size(10);
    let mut bench = CheckpointBench::new();
    g.bench_function("train_step", |b| b.iter(|| black_box(bench.step())));
    g.bench_function("save", |b| b.iter(|| black_box(bench.save())));
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_packed_vs_oneshot,
    bench_data_movement,
    bench_resnet20_sequences,
    bench_serve_resnet20,
    bench_serve_scaling,
    bench_train_scaling,
    bench_checkpoint_save
);
criterion_main!(benches);
