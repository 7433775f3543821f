//! The workload definitions of the `bench_guard` binary.
//!
//! Each gate compares two variants of one workload defined here, run on
//! the same model, data (seeds included) and engines on the host in
//! hand; nothing here reads a recorded median.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use srmac_io::{CheckpointMeta, SaveReport};
use srmac_models::{data, resnet, InferenceServer, ServeConfig, TrainConfig, Trainer};
use srmac_qgemm::{MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::{F32Engine, GemmEngine, Numerics, Runtime, Sequential, Tensor};

/// Uniform values in [-0.5, 0.5) — the gates' dense-operand generator.
#[must_use]
pub fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f32() - 0.5).collect()
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
/// training) and yielding the step loss.
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
/// slower MAC-emulation steps only shrink it. Dropping it removes the
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
    // Warm the serving path before timing. Packs are shared by every
    // replica (`warm_weight_packs` at start), so whichever worker pulls
    // these warms them all.
    for s in samples.iter().take(workers.max(1)) {
        client.predict(s.clone()).expect("warmup prediction");
    }
    move || {
        // Owning the server keeps it (and its workers) alive across
        // closure calls; the stream is pipelined so batches form and
        // every idle replica pulls its share from the admission queue.
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
}
