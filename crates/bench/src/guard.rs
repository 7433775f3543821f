//! Bench regression guard: shared workload definitions for the criterion
//! benches and the `bench_guard` binary, plus the minimal
//! `BENCH_gemm.json` reader the guard diffs fresh medians against.
//!
//! The guard exists so a PR that accidentally slows the MAC hot path
//! fails loudly: `bench_guard` re-measures the headline workloads with
//! the *same data generation* as the criterion benches (seeds included)
//! and exits non-zero when a median regresses past the tolerance against
//! the committed `BENCH_gemm.json`.

use std::sync::Arc;

use srmac_io::CheckpointMeta;
use srmac_models::{data, resnet, InferenceServer, ServeConfig, TrainConfig, Trainer};
use srmac_qgemm::{MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::numerics::fold_role_seed;
use srmac_tensor::{F32Engine, GemmEngine, GemmRole, Numerics, Runtime};

/// Uniform values in [-0.5, 0.5) — the benches' dense-operand generator.
#[must_use]
pub fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f32() - 0.5).collect()
}

/// Activation-like data: `sparsity` of the entries are exact zeros, the
/// profile post-ReLU feature maps (plus im2row padding) actually show.
#[must_use]
pub fn relu_sparse_vec(n: usize, seed: u64, sparsity: f64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let v = rng.next_f32() - 0.5;
            if rng.next_f64() < sparsity {
                0.0
            } else {
                v
            }
        })
        .collect()
}

/// The forward GEMM shapes of a (width-scaled) ResNet-20; with
/// `with_backward`, also the data-gradient products that reuse the same
/// weights. Shared by the `resnet20_train_step`/`resnet20_eval_stream`
/// criterion groups and the regression guard, so both always measure the
/// same sequence.
#[must_use]
pub fn resnet20_weight_gemm_shapes(
    batch: usize,
    size: usize,
    width: usize,
    with_backward: bool,
) -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    let mut s = size;
    // Stem 3x3 conv.
    shapes.push((batch * s * s, 27, width));
    let mut in_c = width;
    for stage in 0..3usize {
        let out_c = width << stage;
        for block in 0..3usize {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            if stride == 2 {
                s /= 2;
            }
            shapes.push((batch * s * s, in_c * 9, out_c)); // conv1 forward
            shapes.push((batch * s * s, out_c * 9, out_c)); // conv2 forward
            if in_c != out_c || stride != 1 {
                shapes.push((batch * s * s, in_c, out_c)); // 1x1 projection
            }
            if with_backward {
                // Data-gradient products of the two convs (dY * W).
                shapes.push((batch * s * s, out_c, in_c * 9));
                shapes.push((batch * s * s, out_c, out_c * 9));
            }
            in_c = out_c;
        }
    }
    // Classifier head (and its data gradient when training).
    shapes.push((batch, in_c, 10));
    if with_backward {
        shapes.push((batch, 10, in_c));
    }
    shapes
}

/// The full role-tagged GEMM sequence of one (width-scaled) ResNet-20
/// training step: per conv, the forward product (`Forward`), the
/// data-gradient product (`BackwardData`) and the weight-gradient product
/// (`BackwardWeight`), plus the classifier head's three products. The
/// `mixed_policy` guard workload runs each product on the engine its role
/// resolves to under a per-role `Numerics` policy — the execution shape
/// of a mixed-precision experiment like `fwd=rn;bwd=sr13`.
#[must_use]
pub fn resnet20_role_gemm_shapes(
    batch: usize,
    size: usize,
    width: usize,
) -> Vec<(GemmRole, usize, usize, usize)> {
    let mut shapes = Vec::new();
    let mut s = size;
    let push3 = |shapes: &mut Vec<_>, m: usize, k: usize, n: usize| {
        shapes.push((GemmRole::Forward, m, k, n));
        shapes.push((GemmRole::BackwardData, m, n, k));
        shapes.push((GemmRole::BackwardWeight, n, m, k));
    };
    // Stem 3x3 conv.
    push3(&mut shapes, batch * s * s, 27, width);
    let mut in_c = width;
    for stage in 0..3usize {
        let out_c = width << stage;
        for block in 0..3usize {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            if stride == 2 {
                s /= 2;
            }
            push3(&mut shapes, batch * s * s, in_c * 9, out_c); // conv1
            push3(&mut shapes, batch * s * s, out_c * 9, out_c); // conv2
            if in_c != out_c || stride != 1 {
                push3(&mut shapes, batch * s * s, in_c, out_c); // 1x1 proj
            }
            in_c = out_c;
        }
    }
    // Classifier head.
    push3(&mut shapes, batch, in_c, 10);
    shapes
}

/// The `mixed_policy` workload's per-role policy — RN forward, SR r=13
/// on both backward roles — with every engine pinned to **one thread**,
/// matching the 1-thread pinning of the sibling `gemm_64x128x64` and
/// `prepared_weight_reuse` workloads so the committed absolute medians
/// don't embed the recording host's core count. Configs come from the
/// registry grammar (`FromStr`) and the backward seeds are role-folded
/// exactly as `numerics_from_spec` would fold them; results are bitwise
/// identical to the registry-built policy (which differs only in thread
/// count, and results are thread-invariant). Shared by the criterion
/// `resnet20_train_step/mixed_policy` bench and the guard so both always
/// measure the same engines.
#[must_use]
pub fn mixed_policy_numerics_1thread() -> Numerics {
    let fwd: MacGemmConfig = "fp8_fp12_rn".parse().expect("forward atom");
    let bwd: MacGemmConfig = "fp8_fp12_sr13".parse().expect("backward atom");
    let engine = |cfg: MacGemmConfig, role: GemmRole| {
        Arc::new(MacGemm::new(
            cfg.with_seed(fold_role_seed(cfg.seed, role))
                .with_threads(1),
        )) as Arc<dyn srmac_tensor::GemmEngine>
    };
    Numerics::builder()
        .forward(engine(fwd, GemmRole::Forward))
        .role(GemmRole::BackwardData, engine(bwd, GemmRole::BackwardData))
        .role(
            GemmRole::BackwardWeight,
            engine(bwd, GemmRole::BackwardWeight),
        )
        .build()
        .expect("all roles assigned")
}

/// Minibatch size of the `train_scaling` workload — sharded 4 ways, so
/// every replica count sees shards of 8 samples.
pub const TRAIN_SCALING_BATCH: usize = 32;

/// The `train_scaling` workload: one full data-parallel `Trainer` step —
/// shard, CoW-replicate, per-replica forward/backward, bitwise tree
/// reduction, one SGD step — on a slim ResNet-20 with a **1-thread** SR
/// MAC engine, so replica fan-out across the trainer's pool is the only
/// parallelism in play. The gradient-shard count is pinned at 4 for
/// every replica count; by the trainer's invariance contract all replica
/// counts then compute the *same bits*, and a timing ratio between them
/// measures pure scheduling. Returns a closure running one step per call
/// (optimizer and loss-scaler state carry across calls, like real
/// training) and yielding the step loss. Shared by the `train_scaling`
/// criterion group and `bench_guard`, so both always measure the same
/// model, data and engine.
pub fn train_scaling_step(replicas: usize, threads: usize) -> impl FnMut() -> f32 {
    let atom: MacGemmConfig = "fp8_fp12_sr13".parse().expect("engine atom");
    let engine = Arc::new(MacGemm::new(atom.with_threads(1))) as Arc<dyn GemmEngine>;
    let numerics = Numerics::uniform(engine);
    let mut model = resnet::resnet20_with(&numerics, 4, 10, 42);
    let ds = data::synth_cifar10(TRAIN_SCALING_BATCH, 12, 9);
    let idx: Vec<usize> = (0..ds.len()).collect();
    let (x, labels) = ds.batch(&idx);
    let cfg = TrainConfig {
        batch_size: TRAIN_SCALING_BATCH,
        replicas,
        grad_shards: 4,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(&cfg).with_runtime(Arc::new(Runtime::new(threads)));
    move || trainer.train_step(&mut model, &x, &labels, 0.05)
}

/// Steps per call of the `checkpoint_save` workload: the checkpoint
/// cadence fires once per segment, so the `ckpt`/`plain` timing ratio is
/// the *amortized* per-step overhead of auto-checkpointing at
/// `every = CKPT_SEGMENT_STEPS` — the quantity the <5% overhead gate in
/// `bench_guard` watches.
pub const CKPT_SEGMENT_STEPS: usize = 10;

/// The `checkpoint_save` workload: a segment of [`CKPT_SEGMENT_STEPS`]
/// training steps on a slim ResNet-20, either plain (`with_ckpt =
/// false`) or with one keep-K rotation save of the model plus the full
/// trainer state at the segment's end (`with_ckpt = true`) — exactly
/// what [`Trainer::run`]'s cadence does every `CKPT_SEGMENT_STEPS`
/// steps. The engine is the exact 1-thread f32 GEMM: the checkpoint cost
/// is engine-independent and the guard gates a *ratio*, so the fast
/// engine keeps the workload cheap while making the overhead fraction a
/// conservative (worst-case) estimate — slower MAC-emulation steps only
/// shrink it. Returns a closure running one segment per call and
/// yielding the last step's loss. Shared by the `checkpoint_save`
/// criterion group and `bench_guard`, so both always measure the same
/// model, data and save path.
pub fn checkpoint_save_segment(with_ckpt: bool) -> impl FnMut() -> f32 {
    let engine = Arc::new(F32Engine::new(1)) as Arc<dyn GemmEngine>;
    let numerics = Numerics::uniform(engine);
    let mut model = resnet::resnet20_with(&numerics, 4, 10, 42);
    let ds = data::synth_cifar10(16, 12, 9);
    let idx: Vec<usize> = (0..ds.len()).collect();
    let (x, labels) = ds.batch(&idx);
    let cfg = TrainConfig {
        batch_size: 16,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(&cfg);
    if with_ckpt {
        let path =
            std::env::temp_dir().join(format!("srmac_bench_ckpt_{}.srmc", std::process::id()));
        trainer = trainer.checkpoint_every(
            CKPT_SEGMENT_STEPS,
            path,
            CheckpointMeta {
                arch: "resnet20-w4-c10".into(),
                engine: None,
                numerics: Some("f32".into()),
            },
        );
    }
    move || {
        let mut loss = 0.0;
        for _ in 0..CKPT_SEGMENT_STEPS {
            loss = trainer.train_step(&mut model, &x, &labels, 0.05);
        }
        if with_ckpt {
            trainer.checkpoint_now(&mut model).expect("bench save");
        }
        loss
    }
}

/// Requests per stream of the `serve_scaling` workload.
pub const SERVE_SCALING_STREAM: usize = 32;

/// The `serve_scaling` workload: one pipelined 32-request stream against
/// a replicated [`InferenceServer`] — every request submitted up front,
/// then all replies awaited — on a slim ResNet-20 with a **1-thread** RN
/// MAC engine, so worker fan-out across replicas is the only parallelism
/// in play. By the serving batch-invariance contract every worker count
/// computes the *same bits* per request, so a timing ratio between
/// worker counts measures pure serving scale-out. Returns a closure
/// running one stream per call (the server persists across calls, like a
/// real deployment) and yielding the number of predictions served.
/// Shared by the `serve_scaling` criterion group and `bench_guard`, so
/// both always measure the same model, data and engine.
///
/// # Panics
///
/// Panics if the server cannot start (the RN forward engine is
/// position-invariant and ResNet-20 is CoW-replicable, so it can).
pub fn serve_scaling_stream(workers: usize) -> impl FnMut() -> usize {
    let atom: MacGemmConfig = "fp8_fp12_rn".parse().expect("engine atom");
    let numerics = Numerics::uniform(Arc::new(MacGemm::new(atom.with_threads(1))));
    let model = resnet::resnet20_with(&numerics, 8, 10, 42);
    let size = 16;
    let ds = data::synth_cifar10(SERVE_SCALING_STREAM, size, 9);
    let samples: Vec<Vec<f32>> = (0..ds.len())
        .map(|i| {
            let (x, _) = ds.batch(&[i]);
            x.data().to_vec()
        })
        .collect();
    let server = InferenceServer::start(
        model,
        size,
        ServeConfig {
            workers,
            max_batch: 4,
            max_wait_items: 1,
            queue_depth: 256,
            ..ServeConfig::default()
        },
    )
    .expect("RN forward engine serves");
    let client = server.client();
    // Warm every replica's packed-weight path before timing.
    for s in samples.iter().take(workers.max(1)) {
        client.predict(s.clone()).expect("warmup prediction");
    }
    move || {
        // Owning the server keeps it (and its workers) alive across
        // closure calls; the stream is pipelined so batches form and
        // the router spreads requests over every replica.
        debug_assert_eq!(server.workers(), workers);
        let pending: Vec<_> = samples
            .iter()
            .map(|s| client.submit(s.clone()).expect("submit"))
            .collect();
        let mut served = 0usize;
        for p in pending {
            p.wait().expect("prediction");
            served += 1;
        }
        served
    }
}

/// Requests per stream of the `serve_resnet20` workload (the criterion
/// group's `SERVE_STREAM`).
pub const SERVE_RESNET20_STREAM: usize = 32;

/// The `serve_resnet20` workload: the micro-batched serving stream — a
/// width-8 ResNet-20 (16x16 inputs) behind the `InferenceServer` queue
/// on the deterministic inference engine (1-thread MAC RN), one
/// pipelined [`SERVE_RESNET20_STREAM`]-request stream per call, with
/// dynamic batches of up to `max_batch` (`max_wait_items = max_batch`,
/// 200 us straggler wait) — exactly the `serve_resnet20` criterion
/// group's model, data, engine and queue settings, so the guard and the
/// bench always measure the same thing. Returns a closure running one
/// stream per call (the server persists across calls) and yielding the
/// number of predictions served.
///
/// # Panics
///
/// Panics if the server cannot start (the RN forward engine is
/// position-invariant, so it can).
pub fn serve_microbatch_stream(max_batch: usize) -> impl FnMut() -> usize {
    use srmac_qgemm::AccumRounding;
    let numerics = Numerics::uniform(Arc::new(MacGemm::new(
        MacGemmConfig::fp8_fp12(AccumRounding::Nearest, false).with_threads(1),
    )));
    let size = 16usize;
    let model = resnet::resnet20_with(&numerics, 8, 10, 42);
    let ds = data::synth_cifar10(SERVE_RESNET20_STREAM, size, 9);
    let samples: Vec<Vec<f32>> = (0..ds.len())
        .map(|i| {
            let (x, _) = ds.batch(&[i]);
            x.data().to_vec()
        })
        .collect();
    let server = InferenceServer::start(
        model,
        size,
        ServeConfig {
            max_batch,
            max_wait_items: max_batch,
            straggler_wait: std::time::Duration::from_micros(200),
            ..ServeConfig::default()
        },
    )
    .expect("RN forward engine serves");
    let client = server.client();
    // Warm-up: populate the packed-weight caches and layer workspaces.
    client
        .predict(samples[0].clone())
        .expect("warmup prediction");
    move || {
        // Owning the server keeps its worker alive across closure calls.
        debug_assert!(server.workers() >= 1);
        let pending: Vec<_> = samples
            .iter()
            .map(|s| client.submit(s.clone()).expect("submit"))
            .collect();
        let mut served = 0usize;
        for p in pending {
            p.wait().expect("prediction");
            served += 1;
        }
        served
    }
}

/// One `benchmarks` entry of `BENCH_gemm.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedMedian {
    /// Criterion group name.
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Recorded median in nanoseconds.
    pub median_ns: f64,
}

/// Extracts every `{"group": ..., "name": ..., "median_ns": ...}` record
/// from the committed `BENCH_gemm.json`. A deliberately minimal reader
/// for the file this workspace itself writes (no dependency on a JSON
/// crate); entries missing any of the three fields are skipped.
#[must_use]
pub fn parse_bench_medians(json: &str) -> Vec<CommittedMedian> {
    fn str_field(obj: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\":");
        let rest = obj[obj.find(&pat)? + pat.len()..].trim_start();
        let rest = rest.strip_prefix('"')?;
        Some(rest[..rest.find('"')?].to_owned())
    }
    fn num_field(obj: &str, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\":");
        let rest = obj[obj.find(&pat)? + pat.len()..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }
    json.split('{')
        .skip(1)
        .filter_map(|obj| {
            let obj = &obj[..obj.find('}').unwrap_or(obj.len())];
            Some(CommittedMedian {
                group: str_field(obj, "group")?,
                name: str_field(obj, "name")?,
                median_ns: num_field(obj, "median_ns")?,
            })
        })
        .collect()
}

/// Looks up a committed median.
#[must_use]
pub fn committed_median(entries: &[CommittedMedian], group: &str, name: &str) -> Option<f64> {
    entries
        .iter()
        .find(|e| e.group == group && e.name == name)
        .map(|e| e.median_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_committed_layout() {
        let json = r#"{
  "benchmarks": [
    {"group": "gemm_64x128x64", "name": "f32_1thread", "median_ns": 78394.0, "samples": 15, "iters_per_sample": 448},
    {"group": "resnet20_train_step", "name": "prepared_weight_reuse", "median_ns": 134059004.0, "samples": 10, "iters_per_sample": 1}
  ],
  "pr1_baseline": {
    "prepared_weight_reuse_ns": 171955225.0
  }
}"#;
        let entries = parse_bench_medians(json);
        assert_eq!(
            committed_median(&entries, "gemm_64x128x64", "f32_1thread"),
            Some(78394.0)
        );
        assert_eq!(
            committed_median(&entries, "resnet20_train_step", "prepared_weight_reuse"),
            Some(134_059_004.0)
        );
        assert_eq!(committed_median(&entries, "nope", "nope"), None);
        // The trailing summary objects have no group/name and are skipped.
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn resnet20_shapes_cover_forward_and_backward() {
        let fwd = resnet20_weight_gemm_shapes(1, 16, 8, false);
        let train = resnet20_weight_gemm_shapes(4, 16, 8, true);
        assert!(train.len() > fwd.len());
        assert!(fwd.iter().all(|&(m, k, n)| m * k * n > 0));
    }

    #[test]
    fn mixed_policy_1thread_matches_the_registry_engines() {
        // The thread-pinned bench policy must resolve to exactly the
        // engines `numerics_from_spec` builds (spec atoms carry the
        // exact role-folded seeds), so the bench measures the real
        // mixed-policy numerics.
        let bench = mixed_policy_numerics_1thread();
        let registry = srmac_qgemm::numerics_from_spec("fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13")
            .expect("registry policy");
        for role in GemmRole::ALL {
            assert_eq!(
                bench.engine(role).spec(),
                registry.engine(role).spec(),
                "{role}"
            );
        }
    }

    #[test]
    fn train_scaling_variants_compute_the_same_bits() {
        // The bench's speedup ratio is only meaningful if the replica
        // counts really run identical numerics — pinned grad_shards = 4
        // must make the 1- and 4-replica steps bitwise equal.
        let l1 = train_scaling_step(1, 1)();
        let l4 = train_scaling_step(4, 4)();
        assert_eq!(
            l1.to_bits(),
            l4.to_bits(),
            "train_scaling replica counts diverged: {l1} vs {l4}"
        );
        assert!(l1.is_finite());
    }

    #[test]
    fn checkpoint_save_variants_compute_the_same_bits() {
        // The bench's overhead ratio is only meaningful if the saving
        // variant really trains the same bits as the plain one — the
        // checkpoint cadence must be pure I/O, never touching the loop's
        // arithmetic. The saving variant must also leave a loadable
        // rotation head behind (otherwise it timed a failed write).
        let plain = checkpoint_save_segment(false)();
        let ckpt = checkpoint_save_segment(true)();
        assert_eq!(
            plain.to_bits(),
            ckpt.to_bits(),
            "auto-checkpointing changed the training bits: {plain} vs {ckpt}"
        );
        assert!(plain.is_finite());
        let path =
            std::env::temp_dir().join(format!("srmac_bench_ckpt_{}.srmc", std::process::id()));
        let ckpt = srmac_io::read_checkpoint(&path).expect("the segment saved a valid head");
        assert!(ckpt.train.is_some(), "the save carries the trainer state");
        // Best-effort scratch cleanup (the rotation set shares the stem).
        if let Some(dir) = path.parent() {
            if let Ok(entries) = std::fs::read_dir(dir) {
                for e in entries.flatten() {
                    if e.file_name()
                        .to_string_lossy()
                        .starts_with(&format!("srmac_bench_ckpt_{}", std::process::id()))
                    {
                        std::fs::remove_file(e.path()).ok();
                    }
                }
            }
        }
    }

    #[test]
    fn serve_scaling_stream_serves_every_request() {
        // The bench's req/s ratio is only meaningful if every worker
        // count actually answers the whole stream.
        let mut stream = serve_scaling_stream(2);
        assert_eq!(stream(), SERVE_SCALING_STREAM);
        assert_eq!(
            stream(),
            SERVE_SCALING_STREAM,
            "server survives across calls"
        );
    }

    #[test]
    fn serve_microbatch_stream_serves_every_request() {
        // The bench's req/s figure is only meaningful if the stream
        // really answers all 32 requests, batched or not.
        let mut stream = serve_microbatch_stream(8);
        assert_eq!(stream(), SERVE_RESNET20_STREAM);
        assert_eq!(
            stream(),
            SERVE_RESNET20_STREAM,
            "server survives across calls"
        );
    }

    #[test]
    fn role_shapes_cover_every_role_per_product() {
        let shapes = resnet20_role_gemm_shapes(4, 16, 8);
        for role in GemmRole::ALL {
            assert_eq!(
                shapes.iter().filter(|(r, ..)| *r == role).count(),
                shapes.len() / 3,
                "{role}: one product of each role per layer"
            );
        }
        assert!(shapes.iter().all(|&(_, m, k, n)| m * k * n > 0));
        // Forward and data-gradient products of one layer share the
        // weight operand transposed: (m, k, n) vs (m, n, k).
        assert_eq!(shapes[0].2, shapes[1].3);
        assert_eq!(shapes[0].3, shapes[1].2);
    }
}
