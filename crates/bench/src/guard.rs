//! Shared workload definitions for the criterion benches and the
//! `bench_guard` binary.
//!
//! Every workload a `bench_guard` gate measures lives here, next to the
//! criterion group that benches it, so both always run the same model,
//! data (seeds included) and engines. The guard compares two variants of
//! one workload on the host in hand; nothing here reads a recorded
//! median.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use srmac_io::{CheckpointMeta, SaveReport};
use srmac_models::{data, resnet, InferenceServer, ServeConfig, TrainConfig, Trainer};
use srmac_qgemm::{numerics_from_spec, MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::{F32Engine, GemmEngine, GemmRole, Numerics, Runtime, Sequential, Tensor};

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

/// The spec of the `mixed_policy` workload: RN forward, SR r=13 on both
/// backward roles.
const MIXED_POLICY_SPEC: &str = "fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13";

/// The `mixed_policy` workload's per-role policy — RN forward, SR r=13
/// on both backward roles — with every engine pinned to **one thread**,
/// matching the 1-thread pinning of the sibling `gemm_64x128x64` and
/// `prepared_weight_reuse` groups so the bench times one core's work
/// whatever the host's core count. Each role's engine is rebuilt from
/// its spec atom, which carries the exact role-folded seed, so results
/// are bitwise identical to the `numerics_from_spec` policy (which
/// differs only in thread count, and results are thread-invariant),
/// which the unit tests pin.
#[must_use]
pub fn mixed_policy_numerics_1thread() -> Numerics {
    let policy = numerics_from_spec(MIXED_POLICY_SPEC).expect("mixed-policy spec");
    GemmRole::ALL
        .iter()
        .fold(Numerics::builder(), |b, &role| {
            let atom = policy.engine(role).spec().expect("MAC engines have specs");
            let cfg: MacGemmConfig = atom.parse().expect("spec atoms reparse");
            b.role(role, Arc::new(MacGemm::new(cfg.with_threads(1))))
        })
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

/// The checkpoint cadence the `checkpoint_save` workload models: one
/// keep-K rotation save per `CKPT_SEGMENT_STEPS` training steps, so
/// `save_ns / (CKPT_SEGMENT_STEPS * step_ns)` is the amortized per-step
/// overhead of auto-checkpointing at `every = CKPT_SEGMENT_STEPS` — the
/// quantity the <5% ceiling in `bench_guard` watches.
pub const CKPT_SEGMENT_STEPS: usize = 10;

/// The `checkpoint_save` workload: a slim ResNet-20 and a `Trainer` armed
/// with auto-checkpointing, exposing the two phases the overhead is made
/// of — one training [`step`](Self::step) and one keep-K rotation
/// [`save`](Self::save) of the model plus the full trainer state, exactly
/// what [`Trainer::run`]'s cadence does every [`CKPT_SEGMENT_STEPS`]
/// steps. The engine is the exact 1-thread f32 GEMM: the save cost is
/// engine-independent, so the fast engine keeps the workload cheap while
/// making the overhead fraction a conservative (worst-case) estimate —
/// slower MAC-emulation steps only shrink it. Shared by the
/// `checkpoint_save` criterion group and `bench_guard`, so both always
/// time the same model, data and save path. Dropping it removes the
/// rotation files it wrote.
pub struct CheckpointBench {
    trainer: Trainer,
    model: Sequential,
    x: Tensor,
    labels: Vec<usize>,
    path: PathBuf,
}

impl CheckpointBench {
    /// Builds the model, data and trainer; the rotation head is a fresh
    /// per-instance file under the system temp directory.
    #[must_use]
    pub fn new() -> Self {
        static INSTANCE: AtomicUsize = AtomicUsize::new(0);
        let engine = Arc::new(F32Engine::new(1)) as Arc<dyn GemmEngine>;
        let model = resnet::resnet20_with(&Numerics::uniform(engine), 4, 10, 42);
        let ds = data::synth_cifar10(16, 12, 9);
        let idx: Vec<usize> = (0..ds.len()).collect();
        let (x, labels) = ds.batch(&idx);
        let cfg = TrainConfig {
            batch_size: 16,
            ..TrainConfig::default()
        };
        let path = std::env::temp_dir().join(format!(
            "srmac_bench_ckpt_{}_{}.srmc",
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::Relaxed)
        ));
        let trainer = Trainer::new(&cfg).checkpoint_every(
            CKPT_SEGMENT_STEPS,
            path.clone(),
            CheckpointMeta {
                arch: "resnet20-w4-c10".into(),
                engine: None,
                numerics: Some("f32".into()),
            },
        );
        Self {
            trainer,
            model,
            x,
            labels,
            path,
        }
    }

    /// One training step; returns its loss.
    pub fn step(&mut self) -> f32 {
        self.trainer
            .train_step(&mut self.model, &self.x, &self.labels, 0.05)
    }

    /// One rotation save of the model and the full trainer state.
    ///
    /// # Panics
    ///
    /// Panics if the save fails (the temp directory is not writable).
    pub fn save(&mut self) -> SaveReport {
        self.trainer
            .checkpoint_now(&mut self.model)
            .expect("bench save")
    }

    /// The rotation head [`save`](Self::save) writes.
    #[must_use]
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Default for CheckpointBench {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CheckpointBench {
    fn drop(&mut self) {
        // Best-effort scratch cleanup: every rotation slot and staging
        // file is named `<stem>.…`.
        let (Some(dir), Some(stem)) = (self.path.parent(), self.path.file_stem()) else {
            return;
        };
        let prefix = format!("{}.", stem.to_string_lossy());
        for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                std::fs::remove_file(e.path()).ok();
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet20_shapes_cover_forward_and_backward() {
        let fwd = resnet20_weight_gemm_shapes(1, 16, 8, false);
        let train = resnet20_weight_gemm_shapes(4, 16, 8, true);
        assert!(train.len() > fwd.len());
        assert!(fwd.iter().all(|&(m, k, n)| m * k * n > 0));
    }

    #[test]
    fn mixed_policy_1thread_matches_the_spec_engines() {
        // The thread-pinned bench policy must resolve to exactly the
        // engines `numerics_from_spec` builds (spec atoms carry the
        // exact role-folded seeds), so the bench measures the real
        // mixed-policy numerics.
        let bench = mixed_policy_numerics_1thread();
        let policy = numerics_from_spec(MIXED_POLICY_SPEC).expect("mixed-policy spec");
        for role in GemmRole::ALL {
            assert_eq!(
                bench.engine(role).spec(),
                policy.engine(role).spec(),
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
        // The gate's overhead ratio is only meaningful if saving is pure
        // I/O: a run that saves after every step must train the same bits
        // as one that never saves, and must leave a loadable rotation
        // head carrying the trainer state (otherwise it timed a failed
        // write).
        let mut plain = CheckpointBench::new();
        let mut saving = CheckpointBench::new();
        for step in 0..CKPT_SEGMENT_STEPS {
            let (p, s) = (plain.step(), saving.step());
            saving.save();
            assert_eq!(
                p.to_bits(),
                s.to_bits(),
                "step {step}: checkpointing changed the training bits: {p} vs {s}"
            );
            assert!(p.is_finite());
        }
        let ckpt = srmac_io::read_checkpoint(saving.path()).expect("a valid rotation head");
        assert!(ckpt.train.is_some(), "the save carries the trainer state");
        assert!(
            !plain.path().exists(),
            "a bench that never saved wrote no head"
        );
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
