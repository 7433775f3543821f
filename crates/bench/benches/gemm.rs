//! Criterion benches for the GEMM engines and the shared runtime: exact
//! f32 vs the bit-exact low-precision MAC emulation (RN and SR
//! accumulation), the prepared-operand pipeline vs the one-shot path,
//! the parallel data-movement kernels (im2row / col2im / NCHW scatter /
//! transpose) against their serial baselines, and a ResNet-20-shaped
//! GEMM sequence with weight operands packed once and reused.
//!
//! The sequence results (plus the cross-PR comparisons against the
//! recorded PR 1, PR 3 and PR 5 baselines) are recorded in
//! `BENCH_gemm.json` at the workspace root, which `bench_guard` treats
//! as the committed reference.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use srmac_bench::guard::{
    checkpoint_save_segment, mixed_policy_numerics_1thread, rand_vec, relu_sparse_vec,
    resnet20_role_gemm_shapes, resnet20_weight_gemm_shapes, serve_scaling_stream,
    train_scaling_step, SERVE_SCALING_STREAM,
};
use srmac_models::serve::{InferenceServer, ServeConfig};
use srmac_models::{data, resnet};
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
use srmac_tensor::movement::{col2im, im2row, rows_to_nchw, transpose_into};
use srmac_tensor::GemmRole;
use srmac_tensor::{available_threads, F32Engine, GemmEngine, Numerics, Runtime};

/// PR 1's recorded `resnet20_train_step/prepared_weight_reuse` median
/// (ns), kept as the fixed baseline for the cross-PR speedup entry.
const PR1_PREPARED_TRAIN_STEP_NS: f64 = 171_955_225.0;

/// PR 3's recorded medians, the fixed baselines for PR 4's lane-batched
/// MAC kernel acceptance: the one-shot SR GEMM and the prepared train
/// step, both bounded by the then-scalar `FastAdder` chain.
const PR3_SR_GEMM_NS: f64 = 8_277_775.2;
const PR3_PREPARED_TRAIN_STEP_NS: f64 = 134_059_004.0;

/// PR 5's recorded medians, the fixed baselines for this PR's tiled,
/// fused, pair-LUT kernel acceptance: the one-shot SR/RN GEMMs (then on
/// the wide u64 lane kernel with per-call allocation in pack) and the
/// prepared train step.
const PR5_SR_GEMM_NS: f64 = 2_381_012.6;
const PR5_RN_GEMM_NS: f64 = 2_034_894.5;
const PR5_PREPARED_TRAIN_STEP_NS: f64 = 61_903_297.0;

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
/// resolves to, weights packed once per (shape, role engine). Data
/// generation and engines are shared with `bench_guard`'s watched
/// workload of the same name via `srmac_bench::guard`, so regenerating
/// `BENCH_gemm.json` always carries the entry the guard checks.
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
/// batches (the queue overhead + batch-1 forward baseline). Requests/sec
/// for both land in `BENCH_gemm.json`. On a single-core box the two
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
/// `bench_guard --relative` serve-scaling gate enforces the speedup
/// floor only on hosts with at least 4 hardware threads.
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
/// `bench_guard --relative` train-scaling gate enforces the speedup
/// floor only on hosts with at least 4 hardware threads.
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

/// The crash-tolerance tax: a segment of 10 training steps, plain vs
/// with one keep-K rotation save (model + full trainer state) at the
/// segment's end — the `ckpt`/`plain` median ratio is the amortized
/// per-step cost of auto-checkpointing at `every = 10`. `bench_guard`
/// gates that overhead at <= 1.05 (the <5% acceptance bar) with its own
/// *paired* re-measurement (plain and saving segments interleaved
/// sample-by-sample, so machine-load drift cancels); these two recorded
/// medians are measured minutes apart during a full bench run, so their
/// ratio carries that drift and is informational. Measured on the fast
/// exact-f32 engine so the fraction is a conservative worst case: the
/// save cost is engine-independent, and slower MAC-emulation steps only
/// shrink it.
fn bench_checkpoint_save(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint_save");
    g.sample_size(10);
    for (name, with_ckpt) in [("train10_plain", false), ("train10_ckpt", true)] {
        let mut segment = checkpoint_save_segment(with_ckpt);
        g.bench_function(name, |b| b.iter(|| black_box(segment())));
    }
    g.finish();
}

/// Writes the collected measurements (and the summary blocks) to
/// `BENCH_gemm.json` at the workspace root.
fn write_summary(c: &mut Criterion) {
    let results = c.results();
    let find = |group: &str, name: &str| {
        results
            .iter()
            .find(|r| r.group == group && r.name == name)
            .map(|r| r.median_ns)
    };
    let fmt_opt =
        |v: Option<f64>, digits: usize| v.map_or("null".to_owned(), |v| format!("{v:.digits$}"));
    let sequence_entry = |group: &str| {
        format!(
            "{{\n    \"prepared_weight_reuse_ns\": {}\n  }}",
            fmt_opt(find(group, "prepared_weight_reuse"), 1),
        )
    };

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"median_ns\": {:.1}, \
             \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            r.group,
            r.name,
            r.median_ns,
            r.samples,
            r.iters_per_sample,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let train_json = sequence_entry("resnet20_train_step");
    let eval_json = sequence_entry("resnet20_eval_stream");
    // Cross-PR acceptance record: this PR's prepared path vs PR 1's.
    let vs_pr1 = find("resnet20_train_step", "prepared_weight_reuse")
        .map(|p| PR1_PREPARED_TRAIN_STEP_NS / p);
    // Serving throughput: requests/sec for the micro-batched server and
    // its forced-singleton baseline.
    let rps = |name: &str| find("serve_resnet20", name).map(|ns| SERVE_STREAM as f64 / (ns * 1e-9));
    let (rps_batch1, rps_max8) = (rps("stream32_batch1"), rps("stream32_max8"));
    let serve_speedup = match (rps_batch1, rps_max8) {
        (Some(b1), Some(m8)) if b1 > 0.0 => Some(m8 / b1),
        _ => None,
    };
    // PR 4's acceptance record: the lane-batched kernel vs PR 3's
    // scalar-chain medians (one-shot SR GEMM and prepared train step).
    let sr_gemm = find("gemm_64x128x64", "mac_fp12_sr13_1thread");
    let gemm_vs_pr3 = sr_gemm.map(|ns| PR3_SR_GEMM_NS / ns);
    let train_vs_pr3 = find("resnet20_train_step", "prepared_weight_reuse")
        .map(|p| PR3_PREPARED_TRAIN_STEP_NS / p);
    // This PR's acceptance record: the tiled + fused + pair-LUT kernel vs
    // PR 5's medians (one-shot SR/RN GEMMs and prepared train step).
    let rn_gemm = find("gemm_64x128x64", "mac_fp12_rn_1thread");
    let gemm_sr_vs_pr5 = sr_gemm.map(|ns| PR5_SR_GEMM_NS / ns);
    let gemm_rn_vs_pr5 = rn_gemm.map(|ns| PR5_RN_GEMM_NS / ns);
    let train_vs_pr5 = find("resnet20_train_step", "prepared_weight_reuse")
        .map(|p| PR5_PREPARED_TRAIN_STEP_NS / p);
    // This PR's acceptance record: data-parallel fan-out of the full
    // trainer step (identical bits by contract; the ratio is scheduling).
    let ts_r1 = find("train_scaling", "resnet20_step_r1_s4");
    let ts_r4 = find("train_scaling", "resnet20_step_r4_s4");
    let replica_speedup = match (ts_r1, ts_r4) {
        (Some(r1), Some(r4)) if r4 > 0.0 => Some(r1 / r4),
        _ => None,
    };
    // This PR's acceptance record: worker fan-out of the replicated
    // inference server (identical bits per request by the serving
    // batch-invariance contract; the ratio is pure routing/scale-out).
    let serve_rps = |name: &str| {
        find("serve_scaling", name).map(|ns| SERVE_SCALING_STREAM as f64 / (ns * 1e-9))
    };
    let (sv_w1, sv_w4) = (serve_rps("stream32_w1"), serve_rps("stream32_w4"));
    let worker_speedup = match (sv_w1, sv_w4) {
        (Some(w1), Some(w4)) if w1 > 0.0 => Some(w4 / w1),
        _ => None,
    };
    // This PR's acceptance record: the amortized auto-checkpointing tax
    // on the training loop (<5% by the bench_guard gate).
    let cs_plain = find("checkpoint_save", "train10_plain");
    let cs_ckpt = find("checkpoint_save", "train10_ckpt");
    let ckpt_overhead = match (cs_plain, cs_ckpt) {
        (Some(p), Some(k)) if p > 0.0 => Some(k / p),
        _ => None,
    };
    json.push_str(&format!(
        "  \"resnet20_train_step\": {train_json},\n  \"resnet20_eval_stream\": {eval_json},\n  \
         \"serve_resnet20\": {{\n    \"requests_per_sec_batch1\": {},\n    \
         \"requests_per_sec_max8\": {},\n    \
         \"speedup_microbatch_vs_batch1\": {}\n  }},\n  \
         \"train_scaling\": {{\n    \"resnet20_step_r1_s4_ns\": {},\n    \
         \"resnet20_step_r4_s4_ns\": {},\n    \
         \"replica_speedup_r4_vs_r1\": {},\n    \
         \"recording_host_threads\": {}\n  }},\n  \
         \"serve_scaling\": {{\n    \"requests_per_sec_w1\": {},\n    \
         \"requests_per_sec_w4\": {},\n    \
         \"worker_speedup_w4_vs_w1\": {},\n    \
         \"recording_host_threads\": {}\n  }},\n  \
         \"checkpoint_save\": {{\n    \"train10_plain_ns\": {},\n    \
         \"train10_ckpt_ns\": {},\n    \
         \"amortized_overhead_ratio\": {}\n  }},\n  \
         \"pr1_baseline\": {{\n    \"prepared_weight_reuse_ns\": {PR1_PREPARED_TRAIN_STEP_NS:.1},\n    \
         \"train_step_speedup_vs_pr1\": {}\n  }},\n  \
         \"pr3_baseline\": {{\n    \"gemm_sr13_1thread_ns\": {PR3_SR_GEMM_NS:.1},\n    \
         \"prepared_weight_reuse_ns\": {PR3_PREPARED_TRAIN_STEP_NS:.1},\n    \
         \"gemm_sr13_speedup_vs_pr3\": {},\n    \
         \"train_step_speedup_vs_pr3\": {}\n  }},\n  \
         \"pr5_baseline\": {{\n    \"gemm_sr13_1thread_ns\": {PR5_SR_GEMM_NS:.1},\n    \
         \"gemm_rn_1thread_ns\": {PR5_RN_GEMM_NS:.1},\n    \
         \"prepared_weight_reuse_ns\": {PR5_PREPARED_TRAIN_STEP_NS:.1},\n    \
         \"gemm_sr13_speedup_vs_pr5\": {},\n    \
         \"gemm_rn_speedup_vs_pr5\": {},\n    \
         \"train_step_speedup_vs_pr5\": {}\n  }}\n}}\n",
        fmt_opt(rps_batch1, 1),
        fmt_opt(rps_max8, 1),
        fmt_opt(serve_speedup, 3),
        fmt_opt(ts_r1, 1),
        fmt_opt(ts_r4, 1),
        fmt_opt(replica_speedup, 3),
        available_threads(),
        fmt_opt(sv_w1, 1),
        fmt_opt(sv_w4, 1),
        fmt_opt(worker_speedup, 3),
        available_threads(),
        fmt_opt(cs_plain, 1),
        fmt_opt(cs_ckpt, 1),
        fmt_opt(ckpt_overhead, 3),
        fmt_opt(vs_pr1, 3),
        fmt_opt(gemm_vs_pr3, 3),
        fmt_opt(train_vs_pr3, 3),
        fmt_opt(gemm_sr_vs_pr5, 3),
        fmt_opt(gemm_rn_vs_pr5, 3),
        fmt_opt(train_vs_pr5, 3),
    ));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    } else {
        if let (Some(b1), Some(m8)) = (rps_batch1, rps_max8) {
            println!(
                "serve_resnet20 throughput: {m8:.1} req/s micro-batched (max 8) \
                 vs {b1:.1} req/s singleton batches"
            );
        }
        if let Some(s) = vs_pr1 {
            println!("resnet20_train_step speedup vs PR 1 prepared baseline: {s:.2}x");
        }
        if let Some(s) = gemm_vs_pr3 {
            println!("gemm_64x128x64 SR13 speedup vs PR 3 baseline: {s:.2}x");
        }
        if let Some(s) = train_vs_pr3 {
            println!("resnet20_train_step speedup vs PR 3 prepared baseline: {s:.2}x");
        }
        if let Some(s) = gemm_sr_vs_pr5 {
            println!("gemm_64x128x64 SR13 speedup vs PR 5 baseline: {s:.2}x");
        }
        if let Some(s) = gemm_rn_vs_pr5 {
            println!("gemm_64x128x64 RN speedup vs PR 5 baseline: {s:.2}x");
        }
        if let Some(s) = train_vs_pr5 {
            println!("resnet20_train_step speedup vs PR 5 prepared baseline: {s:.2}x");
        }
        if let Some(s) = replica_speedup {
            println!(
                "train_scaling replica speedup (4 vs 1, identical bits, {} host thread(s)): {s:.2}x",
                available_threads()
            );
        }
        if let Some(s) = worker_speedup {
            println!(
                "serve_scaling worker speedup (4 vs 1, identical bits, {} host thread(s)): {s:.2}x",
                available_threads()
            );
        }
        if let Some(r) = ckpt_overhead {
            println!(
                "checkpoint_save amortized overhead (every=10): {:.2}%",
                (r - 1.0) * 100.0
            );
        }
        println!("summary -> {path}");
    }
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
    bench_checkpoint_save,
    write_summary
);
criterion_main!(benches);
