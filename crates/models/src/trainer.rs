//! The training harness: SGD with momentum, cosine-annealed learning rate,
//! and dynamic loss scaling — the paper's Sec. IV-A recipe — over any GEMM
//! engine or per-role `Numerics` policy (the harness itself is
//! engine-agnostic: the model's layers carry their role-resolved engines,
//! so a mixed RN-forward/SR-backward experiment trains through exactly
//! this code path; see `srmac_tensor::numerics`).
//!
//! The step-wise core is [`Trainer`]: deterministic data-parallel
//! training over CoW model replicas with bitwise tree-reduced gradients.
//! At a fixed gradient-shard count, training bits are invariant to the
//! replica count and the pool size (see the [`Trainer`] docs for the full
//! contract); `Trainer::new(&cfg).run(..)` trains a model end to end.
//!
//! Training is also **crash-tolerant**: [`Trainer::checkpoint_every`]
//! auto-saves the model *and* the full trainer state (optimizer momentum,
//! loss-scaler trajectory, shuffle-RNG position, epoch/step cursor,
//! mid-epoch loss partials, accumulated history) into an atomic keep-K
//! rotation, and [`Trainer::resume`] reconstructs a trainer that
//! continues the run such that the completed [`History`] is **bitwise
//! identical** to an uninterrupted one — under the exact-f32 engine, the
//! paper's SR MACs, and mixed per-role policies alike (pinned by
//! `tests/resume.rs`).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use srmac_io::{
    recover_latest, save_rotating, CheckpointError, CheckpointMeta, FsStorage, RetryPolicy,
    SaveReport, Storage, TrainState,
};
use srmac_rng::SplitMix64;
use srmac_tensor::layers::Layer;
use srmac_tensor::{
    count_correct, flatten_grads, scatter_grads, softmax_cross_entropy, tree_reduce, CosineLr,
    LossScaler, Runtime, Sequential, Sgd, Tensor,
};

use crate::ckpt::{
    codes, config_from_record, config_record, history_from_record, history_record, CkptOptions,
    DEFAULT_KEEP,
};
use crate::data::{shard_spans, Dataset};
use crate::diag::{DiagSink, Diagnostic, Severity};

/// Hyperparameters (defaults follow the paper's ResNet-20 settings:
/// momentum 0.9, initial loss scale 1024, cosine annealing).
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Initial dynamic loss scale.
    pub init_loss_scale: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Print one line per epoch when set.
    pub verbose: bool,
    /// Data-parallel replica count: how many model replicas run a step's
    /// forward/backward concurrently, each over a contiguous slice of the
    /// gradient shards. A pure scheduling knob — at a fixed
    /// [`TrainConfig::grad_shards`], every replica count produces bitwise
    /// identical training.
    pub replicas: usize,
    /// Gradient shard count `S`: how many contiguous sub-batches each
    /// minibatch splits into before the fixed binary-tree gradient
    /// reduction. `S` *defines the step's numerics* (per-shard products,
    /// per-shard batch-norm statistics, the reduction-tree shape); `0`
    /// (the default) resolves to `replicas`, so single-replica runs train
    /// on one full-batch shard but the *default* numerics follow the
    /// replica count. Pin `grad_shards` explicitly to scale replicas
    /// without changing a bit.
    pub grad_shards: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 32,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 1e-4,
            init_loss_scale: 1024.0,
            seed: 0xC0FFEE,
            verbose: false,
            replicas: 1,
            grad_shards: 0,
        }
    }
}

/// Per-epoch training records.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Mean training loss per epoch, over the finite batch losses only: a
    /// batch that overflowed (and whose step the scaler skipped) must not
    /// poison the whole epoch's mean with NaN when training recovered. An
    /// epoch with no finite batch at all records NaN truthfully.
    pub train_loss: Vec<f32>,
    /// Test accuracy (percent) per epoch.
    pub test_acc: Vec<f32>,
    /// Steps skipped by the loss scaler.
    pub skipped_steps: usize,
    /// Batches whose loss came out non-finite (excluded from the
    /// `train_loss` means).
    pub nonfinite_batches: usize,
    /// Final loss scale.
    pub final_scale: f32,
    /// Checkpoint saves that exhausted their retry budget (graceful
    /// degradation: training continued, the failures are counted here and
    /// diagnosed as `ckpt::retry-exhausted`).
    pub ckpt_save_failures: usize,
}

impl History {
    /// Number of epochs recorded.
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.test_acc.len()
    }

    /// Final test accuracy in percent. Defined for every history: `0.0`
    /// when no epoch ran (never panics).
    #[must_use]
    pub fn final_accuracy(&self) -> f32 {
        self.test_acc.last().copied().unwrap_or(0.0)
    }

    /// Best test accuracy in percent across epochs. Defined for every
    /// history: `0.0` when no epoch ran, and NaN entries (degenerate
    /// evaluations) are ignored rather than poisoning the maximum.
    #[must_use]
    pub fn best_accuracy(&self) -> f32 {
        // `f32::max` returns the non-NaN operand, so NaNs drop out.
        self.test_acc.iter().copied().fold(0.0, f32::max)
    }

    /// Final epoch's mean training loss. Defined for every history: NaN
    /// when no epoch ran (matching an epoch with no finite batch) — never
    /// panics, so callers don't need the `train_loss.last().unwrap()`
    /// footgun.
    #[must_use]
    pub fn final_loss(&self) -> f32 {
        self.train_loss.last().copied().unwrap_or(f32::NAN)
    }

    /// Lowest *finite* epoch loss across the run. Defined for every
    /// history: NaN when no epoch recorded a finite loss (zero-epoch runs
    /// and all-non-finite runs alike).
    #[must_use]
    pub fn best_loss(&self) -> f32 {
        self.train_loss
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .fold(f32::NAN, f32::min)
    }
}

/// One shard's step result: shard index, sub-batch loss, sample count,
/// flattened (loss-scaled) gradients, and flattened layer state
/// (batch-norm running statistics after the shard's forward).
type ShardResult = (usize, f32, usize, Vec<f32>, Vec<f32>);

/// Runs one shard's forward/backward on its replica. Pure in its inputs:
/// the same shard on the same replica yields the same bits no matter
/// which job or thread runs it.
fn run_shard(
    idx: usize,
    mut replica: Sequential,
    x: Tensor,
    labels: Vec<usize>,
    grad_scale: f32,
) -> ShardResult {
    let logits = replica.forward(&x, true);
    let (loss, mut grad) = softmax_cross_entropy(&logits, &labels);
    grad.scale_(grad_scale);
    // Nothing reads the gradient of the input images, so the first
    // layer's data-gradient product is never run.
    replica.backward_masked(&grad, Some(&vec![false; x.numel()]));
    let mut flat = Vec::new();
    flatten_grads(&mut replica, &mut flat);
    let state = flatten_state(&mut replica);
    (idx, loss, labels.len(), flat, state)
}

/// Concatenates every [`Layer::visit_state`] buffer in visit order.
fn flatten_state(model: &mut Sequential) -> Vec<f32> {
    let mut out = Vec::new();
    model.visit_state(&mut |s| out.extend_from_slice(s));
    out
}

/// Writes a [`flatten_state`]-shaped vector back through `visit_state`.
fn write_state(model: &mut Sequential, flat: &[f32]) {
    let mut off = 0usize;
    model.visit_state(&mut |s| {
        let len = s.len();
        s.copy_from_slice(&flat[off..off + len]);
        off += len;
    });
    assert_eq!(off, flat.len(), "state layout differs between replicas");
}

/// The step-wise, data-parallel training core.
///
/// Owns the optimizer, learning-rate schedule, loss scaler, shuffling RNG,
/// and the accumulating [`History`]. [`Trainer::run`] drives whole epochs;
/// [`Trainer::train_step`] executes exactly one optimizer step on an
/// already-assembled minibatch.
///
/// # Determinism contract
///
/// Every step, at any gradient-shard count `S`, proceeds in fixed phases:
///
/// 1. **Shard** — the minibatch splits into `S` contiguous sub-batches
///    ([`shard_spans`]: equal prefix, remainder to the last shard; empty
///    shards are skipped).
/// 2. **Replicate** — the model is CoW-cloned per non-empty shard
///    ([`Sequential::try_clone`]; weight tensors and packed-weight caches
///    are shared, gradients start fresh), and each clone is told its
///    shard's sample offset within the full batch
///    ([`Layer::set_batch_offset`]) so position-seeded SR engines draw
///    the same per-sample rounding streams the full batch would.
/// 3. **Compute** — replicas run forward/backward on the runtime pool.
///    `TrainConfig::replicas` controls only how shards are grouped onto
///    concurrent jobs; every grouping computes identical shard results.
/// 4. **Reduce** — per-shard gradient vectors combine through a fixed
///    binary tree in shard order ([`tree_reduce`], serial on the calling
///    thread); the tree shape is a pure function of `S`, never of thread
///    or replica count.
///    The batch loss and batch-norm running statistics combine
///    count-weighted in `f64`, also in shard order.
/// 5. **Step** — one [`Sgd::step`] on the primary model (or one skip,
///    when the scaler saw a non-finite loss or gradient).
///
/// Training bits therefore depend on `S` (and the usual numerics knobs)
/// but **not** on `replicas` or pool size. At `S == 1` the whole batch is
/// one shard on one replica, which the runtime runs on the calling
/// thread.
#[derive(Debug)]
pub struct Trainer {
    cfg: TrainConfig,
    grad_shards: usize,
    opt: Sgd,
    schedule: CosineLr,
    scaler: LossScaler,
    rng: SplitMix64,
    history: History,
    runtime: Arc<Runtime>,
    /// The run cursor: (epoch, optimizer steps completed inside it).
    /// `(cfg.epochs, 0)` marks a completed run.
    cursor: (usize, usize),
    /// Mid-epoch running loss sum over finite batches (f64, like the
    /// epoch mean it feeds).
    epoch_loss: f64,
    /// Mid-epoch finite-batch count.
    finite_batches: usize,
    /// Training-set length of the run (pinned at `run` start; a resumed
    /// trainer checks the dataset it is handed against it).
    train_len: u64,
    /// Auto-checkpoint policy, when armed.
    ckpt: Option<CkptOptions>,
    /// Diagnostic sink for `ckpt::*` / `train::*` events.
    diag: Option<DiagSink>,
    /// Stop after this many total optimizer steps (test/interrupt hook).
    halt_after: Option<usize>,
    /// Expected RNG state after replaying the resumed run's shuffles —
    /// verified once, at the resume epoch's shuffle.
    resume_rng_state: Option<u64>,
    /// Expected training-set length for a resumed run.
    resume_train_len: Option<u64>,
}

impl Trainer {
    /// Creates a trainer from `cfg` (resolving `grad_shards = 0` to the
    /// replica count) on the process-global runtime.
    #[must_use]
    pub fn new(cfg: &TrainConfig) -> Self {
        let grad_shards = if cfg.grad_shards == 0 {
            cfg.replicas.max(1)
        } else {
            cfg.grad_shards
        };
        Self {
            cfg: *cfg,
            grad_shards,
            opt: Sgd::new(cfg.momentum, cfg.weight_decay),
            schedule: CosineLr::new(cfg.lr, cfg.epochs.max(1)),
            scaler: LossScaler::with_scale(cfg.init_loss_scale),
            rng: SplitMix64::new(cfg.seed),
            history: History::default(),
            runtime: Arc::clone(Runtime::global()),
            cursor: (0, 0),
            epoch_loss: 0.0,
            finite_batches: 0,
            train_len: 0,
            ckpt: None,
            diag: None,
            halt_after: None,
            resume_rng_state: None,
            resume_train_len: None,
        }
    }

    /// Replaces the runtime that dispatches the data-parallel replicas
    /// (default: [`Runtime::global`]); batches are assembled serially on
    /// the calling thread. Training bits never depend on the choice.
    #[must_use]
    pub fn with_runtime(mut self, runtime: Arc<Runtime>) -> Self {
        self.runtime = runtime;
        self
    }

    /// Arms auto-checkpointing: every `every` optimizer steps (counted
    /// across epochs), the model and the full trainer state are saved to
    /// the keep-K rotation at `path` (`ckpt.srmc`, `ckpt.1.srmc`, …)
    /// atomically, with bounded retry; one final save lands at run
    /// completion regardless of cadence. `meta` is stamped on every save
    /// — give it the architecture tag and numerics/engine info a resumer
    /// needs to rebuild the model. Defaults: keep 3 generations
    /// ([`DEFAULT_KEEP`]), [`RetryPolicy::default`], the real filesystem.
    #[must_use]
    pub fn checkpoint_every(
        mut self,
        every: usize,
        path: impl Into<PathBuf>,
        meta: CheckpointMeta,
    ) -> Self {
        self.ckpt = Some(CkptOptions {
            every,
            path: path.into(),
            meta,
            keep: DEFAULT_KEEP,
            retry: RetryPolicy::default(),
            storage: Arc::new(FsStorage),
        });
        self
    }

    /// Sets the rotation depth (generations kept, head included).
    ///
    /// # Panics
    ///
    /// Panics unless [`Trainer::checkpoint_every`] was called first.
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.ckpt_options_mut().keep = keep;
        self
    }

    /// Sets the per-save retry budget.
    ///
    /// # Panics
    ///
    /// Panics unless [`Trainer::checkpoint_every`] was called first.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.ckpt_options_mut().retry = retry;
        self
    }

    /// Routes checkpoint I/O through an explicit [`Storage`] — the
    /// fault-injection hook.
    ///
    /// # Panics
    ///
    /// Panics unless [`Trainer::checkpoint_every`] was called first.
    #[must_use]
    pub fn with_storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.ckpt_options_mut().storage = storage;
        self
    }

    /// Attaches a diagnostic sink; checkpoint saves, failures, and
    /// resume provenance are reported as `ckpt::*` / `train::*` events.
    #[must_use]
    pub fn with_diag(mut self, diag: DiagSink) -> Self {
        self.diag = Some(diag);
        self
    }

    /// Stops [`Trainer::run`] after `n` total optimizer steps (counted
    /// across epochs), returning the partial history — the deterministic
    /// "kill the process here" hook the crash-recovery tests and the
    /// interrupt demo are built on.
    #[must_use]
    pub fn halt_after(mut self, n: usize) -> Self {
        self.halt_after = Some(n);
        self
    }

    fn ckpt_options_mut(&mut self) -> &mut CkptOptions {
        #[expect(
            clippy::expect_used,
            reason = "documented API-misuse panic — checkpoint_every(..) must be configured first"
        )]
        let options = self
            .ckpt
            .as_mut()
            .expect("configure checkpointing with checkpoint_every(..) first");
        options
    }

    /// The resolved gradient-shard count `S` (after `0 -> replicas`).
    #[must_use]
    pub fn grad_shards(&self) -> usize {
        self.grad_shards
    }

    /// The history accumulated so far (epoch records from [`Trainer::run`]
    /// plus counters from stand-alone [`Trainer::train_step`] calls).
    #[must_use]
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Runs the full training loop: per epoch, a Fisher-Yates shuffle,
    /// one [`Trainer::train_step`] per minibatch, then an [`evaluate`]
    /// pass — and returns the completed [`History`].
    ///
    /// A trainer built by [`Trainer::resume`] continues from its saved
    /// epoch/step cursor instead of the beginning: the shuffles the
    /// interrupted run already consumed are replayed from the seed (the
    /// RNG is touched only by the shuffle, so the permutation and the RNG
    /// state at any epoch are pure functions of seed × epoch index), the
    /// landing state is verified against the checkpoint, and the
    /// already-completed steps of the resume epoch are skipped. The
    /// completed [`History`] is bitwise identical to the uninterrupted
    /// run's.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`, if a resumed run is handed a training
    /// set whose length differs from the checkpointed one, if the
    /// replayed shuffle RNG does not land on the checkpointed state
    /// (dataset or seed changed), or if a model layer does not support
    /// replication.
    pub fn run(mut self, model: &mut Sequential, train: &Dataset, test: &Dataset) -> History {
        let cfg = self.cfg;
        assert!(cfg.batch_size > 0, "training needs a nonzero batch size");
        if let Some(expected) = self.resume_train_len {
            assert_eq!(
                train.len() as u64,
                expected,
                "resumed run must see the training set it was checkpointed with \
                 ({expected} samples)"
            );
        }
        self.train_len = train.len() as u64;
        let steps_per_epoch = train.len().div_ceil(cfg.batch_size);
        let (start_epoch, start_step) = self.cursor;
        let mut order: Vec<usize> = (0..train.len()).collect();
        // Replay the shuffles a resumed run already consumed.
        for _ in 0..start_epoch.min(cfg.epochs) {
            self.shuffle(&mut order);
        }
        if start_epoch >= cfg.epochs {
            // Resumed a run that had already completed (final checkpoint).
            self.verify_resume_rng();
            return self.history;
        }
        // One reused batch buffer for the whole run (only the final ragged
        // batch of an epoch reshapes it), assembled serially on the caller.
        let s = train.image_size();
        let mut x = Tensor::zeros(&[cfg.batch_size.min(train.len().max(1)), 3, s, s]);
        let mut labels = Vec::with_capacity(cfg.batch_size);
        for epoch in start_epoch..cfg.epochs {
            let lr = self.schedule.at(epoch);
            self.shuffle(&mut order);
            if epoch == start_epoch {
                // The checkpointed RNG state was captured after the resume
                // epoch's shuffle — the replay must land exactly on it.
                self.verify_resume_rng();
            }
            let skip = if epoch == start_epoch { start_step } else { 0 };
            self.cursor = (epoch, skip);
            for chunk in order.chunks(cfg.batch_size).skip(skip) {
                if x.shape()[0] != chunk.len() {
                    x = Tensor::zeros(&[chunk.len(), 3, s, s]);
                }
                train.gather(chunk, &mut x, &mut labels);
                let loss = self.train_step(model, &x, &labels, lr);
                if loss.is_finite() {
                    self.epoch_loss += f64::from(loss);
                    self.finite_batches += 1;
                }
                self.cursor.1 += 1;
                let total = epoch * steps_per_epoch + self.cursor.1;
                if self
                    .ckpt
                    .as_ref()
                    .is_some_and(|c| c.every > 0 && total.is_multiple_of(c.every))
                {
                    self.autosave(model);
                }
                if self.halt_after.is_some_and(|h| total >= h) {
                    // The deterministic interrupt: the partial history goes
                    // back as-is. Resume recomputes any steps past the last
                    // save — the halt need not coincide with one.
                    return self.history;
                }
            }
            let acc = evaluate(model, test, cfg.batch_size);
            self.history.train_loss.push(if self.finite_batches > 0 {
                (self.epoch_loss / self.finite_batches as f64) as f32
            } else {
                f32::NAN
            });
            self.history.test_acc.push(acc);
            #[expect(
                clippy::unwrap_used,
                reason = "this epoch's loss was pushed just above"
            )]
            if cfg.verbose {
                eprintln!(
                    "  epoch {:>3}: lr {:.4}  loss {:.4}  test acc {:.2}%  (scale {})",
                    epoch + 1,
                    lr,
                    self.history.train_loss.last().unwrap(),
                    acc,
                    self.scaler.scale(),
                );
            }
            self.cursor = (epoch + 1, 0);
            self.epoch_loss = 0.0;
            self.finite_batches = 0;
        }
        self.history.final_scale = self.scaler.scale();
        if self.ckpt.is_some() {
            // Final save at cursor (epochs, 0): a resume of a finished run
            // returns the completed history without touching the model.
            self.autosave(model);
        }
        self.history
    }

    /// One Fisher-Yates pass over `order` driven by the trainer's RNG —
    /// the **only** consumer of `self.rng`, which is what makes shuffle
    /// replay on resume sound.
    fn shuffle(&mut self, order: &mut [usize]) {
        for i in (1..order.len()).rev() {
            let j = self.rng.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
    }

    /// Checks the replayed RNG against the checkpointed state, once.
    fn verify_resume_rng(&mut self) {
        if let Some(expected) = self.resume_rng_state.take() {
            assert_eq!(
                self.rng.state(),
                expected,
                "replayed shuffle RNG diverged from the checkpoint — the training \
                 set or the seed changed since the save"
            );
        }
    }

    /// Snapshots the full trainer state for persistence.
    fn capture_train_state(&self) -> TrainState {
        TrainState {
            epoch: self.cursor.0 as u32,
            step: self.cursor.1 as u32,
            rng_state: self.rng.state(),
            scaler_scale: self.scaler.scale(),
            scaler_good_steps: self.scaler.good_steps(),
            scaler_growth_interval: self.scaler.growth_interval,
            epoch_loss: self.epoch_loss,
            finite_batches: self.finite_batches as u32,
            config: config_record(&self.cfg, self.grad_shards, self.train_len),
            history: history_record(&self.history),
            velocities: self.opt.velocity_state(),
        }
    }

    /// Saves the model plus the full trainer state to the configured
    /// keep-K rotation right now, regardless of cadence.
    ///
    /// # Errors
    ///
    /// Returns the last attempt's error when every retry failed; older
    /// rotation generations stay intact.
    ///
    /// # Panics
    ///
    /// Panics unless [`Trainer::checkpoint_every`] was called first.
    pub fn checkpoint_now(
        &mut self,
        model: &mut Sequential,
    ) -> Result<SaveReport, CheckpointError> {
        let state = self.capture_train_state();
        #[expect(
            clippy::expect_used,
            reason = "only reached from the checkpointing path, where ckpt is configured"
        )]
        let opts = self
            .ckpt
            .as_ref()
            .expect("configure checkpointing with checkpoint_every(..) first");
        let bytes = srmac_io::Checkpoint::capture(model, opts.meta.clone())
            .with_train_state(state)
            .encode();
        save_rotating(
            opts.storage.as_ref(),
            &opts.path,
            &bytes,
            opts.keep,
            opts.retry,
        )
    }

    /// The cadence save: never fatal. A save that needed retries is
    /// surfaced as a `ckpt::save-failed` warning; one that exhausted them
    /// is counted in [`History::ckpt_save_failures`] and diagnosed as
    /// `ckpt::retry-exhausted`, and training continues.
    fn autosave(&mut self, model: &mut Sequential) {
        match self.checkpoint_now(model) {
            Ok(report) => {
                if report.attempts > 1 {
                    if let Some(d) = &self.diag {
                        d.emit(
                            Diagnostic::new(
                                Severity::Warning,
                                codes::SAVE_FAILED,
                                "checkpoint save attempt failed; a retry landed it",
                            )
                            .field("attempts", report.attempts.to_string()),
                        );
                    }
                }
            }
            Err(e) => {
                self.history.ckpt_save_failures += 1;
                if let Some(d) = &self.diag {
                    d.emit(
                        Diagnostic::new(
                            Severity::Error,
                            codes::RETRY_EXHAUSTED,
                            "checkpoint save exhausted its retry budget; training continues",
                        )
                        .field("error", e.to_string()),
                    );
                }
            }
        }
    }

    /// Reconstructs a trainer (and `model`'s weights) from the newest
    /// valid checkpoint in the rotation set at `path`, such that
    /// [`Trainer::run`] continues the interrupted run **bitwise
    /// identically** to an uninterrupted one.
    ///
    /// The caller supplies a model of the same architecture (same layers,
    /// same engines — the checkpoint's metadata records which); weights,
    /// optimizer momentum, loss-scaler trajectory, RNG position, cursor,
    /// and history all come from the checkpoint. Re-arm auto-checkpointing
    /// with [`Trainer::checkpoint_every`] if the continued run should keep
    /// saving.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NoValidCheckpoint`] when no rotation slot
    /// decodes; [`CheckpointError::MissingTrainState`] when the newest
    /// valid one is a plain model checkpoint (pre-v3 or saved without a
    /// trainer); [`CheckpointError::ModelMismatch`] when `model` does not
    /// match the checkpointed architecture.
    pub fn resume(path: impl AsRef<Path>, model: &mut Sequential) -> Result<Self, CheckpointError> {
        Self::resume_with(&FsStorage, path.as_ref(), model, None)
    }

    /// [`Trainer::resume`] through an explicit [`Storage`], optionally
    /// reporting provenance to `diag`: a `train::resume-version` info
    /// event always, plus a `ckpt::corrupt-head-fallback` warning when
    /// the rotation head was unusable and an older generation was used.
    pub fn resume_with(
        storage: &dyn Storage,
        path: &Path,
        model: &mut Sequential,
        diag: Option<&DiagSink>,
    ) -> Result<Self, CheckpointError> {
        let rec = recover_latest(storage, path)?;
        let state = rec
            .checkpoint
            .train
            .clone()
            .ok_or(CheckpointError::MissingTrainState)?;
        rec.checkpoint.apply_to(model)?;
        let cfg = config_from_record(&state.config);
        let mut t = Trainer::new(&cfg);
        t.scaler = LossScaler::from_parts(
            state.scaler_scale,
            state.scaler_good_steps,
            state.scaler_growth_interval,
        );
        t.opt
            .restore_velocities(model, &state.velocities)
            .map_err(|what| CheckpointError::ModelMismatch { what })?;
        t.history = history_from_record(&state.history);
        t.cursor = (state.epoch as usize, state.step as usize);
        t.epoch_loss = state.epoch_loss;
        t.finite_batches = state.finite_batches as usize;
        t.resume_rng_state = Some(state.rng_state);
        t.resume_train_len = Some(state.config.train_len);
        if let Some(d) = diag {
            if rec.slot > 0 {
                let mut diag_fallback = Diagnostic::new(
                    Severity::Warning,
                    codes::CORRUPT_HEAD_FALLBACK,
                    "rotation head unusable; resumed from an older generation",
                )
                .field("slot", rec.slot.to_string());
                if let Some((p, e)) = rec.rejected.first() {
                    diag_fallback = diag_fallback
                        .field("head", p.display().to_string())
                        .field("head_error", e.to_string());
                }
                d.emit(diag_fallback);
            }
            let version = storage
                .read(&rec.path)
                .ok()
                .and_then(|b| srmac_io::wire_version(&b).ok());
            d.emit(
                Diagnostic::new(
                    Severity::Info,
                    codes::RESUME,
                    "training resumed from checkpoint",
                )
                .field("path", rec.path.display().to_string())
                .field(
                    "wire_version",
                    version.map_or_else(|| "?".into(), |v| v.to_string()),
                )
                .field("epoch", state.epoch.to_string())
                .field("step", state.step.to_string()),
            );
            t.diag = Some(d.clone());
        }
        Ok(t)
    }

    /// Executes one optimizer step on an assembled minibatch (`x` holds
    /// `labels.len()` samples in row order) at learning rate `lr`, and
    /// returns the batch loss (possibly non-finite; already recorded in
    /// the trainer's counters).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, a `x`/`labels` row-count mismatch, or a
    /// model layer that does not support replication
    /// ([`Layer::clone_layer`]) — at every `S`, `S = 1` included, since
    /// each shard runs on a replica (see the type-level contract).
    pub fn train_step(
        &mut self,
        model: &mut Sequential,
        x: &Tensor,
        labels: &[usize],
        lr: f32,
    ) -> f32 {
        let n = labels.len();
        assert!(n > 0, "train_step needs a nonempty batch");
        assert_eq!(x.shape()[0], n, "batch tensor rows must match labels");
        let plane = x.numel() / n;

        // Phase 1: shard. Batches smaller than S leave the leading shards
        // empty; they contribute nothing and are skipped.
        let spans: Vec<_> = shard_spans(n, self.grad_shards)
            .into_iter()
            .filter(|sp| !sp.is_empty())
            .collect();

        // Phase 2: replicate. Warm the primary's weight packs first so
        // every clone shares ready packs instead of re-packing per shard.
        model.warm_weight_packs();
        let scale = self.scaler.scale();
        let mut shard_work = Vec::with_capacity(spans.len());
        for (idx, sp) in spans.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "documented contract — data-parallel training requires replicable layers"
            )]
            let mut replica = model
                .try_clone()
                .expect("data-parallel training needs every layer to support clone_layer");
            replica.set_batch_offset(sp.start);
            let mut shape = x.shape().to_vec();
            shape[0] = sp.len();
            let xs = Tensor::from_vec(x.data()[sp.start * plane..sp.end * plane].to_vec(), &shape);
            let ls = labels[sp.clone()].to_vec();
            // Pre-scale the shard's loss gradient by its batch fraction:
            // the loss divides by the shard's rows, so n_s/N turns the
            // tree-reduced sum into the full batch's 1/N mean scaling.
            let gs = scale * (sp.len() as f32 / n as f32);
            shard_work.push((idx, replica, xs, ls, gs));
        }

        // Phase 3: compute. Group shards into at most `replicas`
        // contiguous jobs; grouping affects scheduling only — each shard's
        // result is the same bits under every grouping.
        let groups = shard_spans(
            shard_work.len(),
            self.cfg.replicas.max(1).min(shard_work.len()),
        );
        let mut work_iter = shard_work.into_iter();
        let jobs: Vec<_> = groups
            .into_iter()
            .map(|g| {
                let batch: Vec<_> = work_iter.by_ref().take(g.len()).collect();
                move || {
                    batch
                        .into_iter()
                        .map(|(idx, replica, xs, ls, gs)| run_shard(idx, replica, xs, ls, gs))
                        .collect::<Vec<ShardResult>>()
                }
            })
            .collect();
        let mut results: Vec<ShardResult> =
            self.runtime.run_jobs(jobs).into_iter().flatten().collect();
        // Job order already equals shard order (contiguous ascending
        // groups); the sort pins that invariant structurally.
        results.sort_by_key(|r| r.0);

        // Phase 4: reduce — fixed binary tree in shard order.
        let mut bufs: Vec<Vec<f32>> = results
            .iter_mut()
            .map(|r| std::mem::take(&mut r.3))
            .collect();
        tree_reduce(&mut bufs);
        let reduced = &bufs[0];

        // Count-weighted batch loss in f64 (a non-finite shard loss
        // makes the batch loss non-finite).
        let mut loss_acc = 0.0f64;
        for r in &results {
            loss_acc += f64::from(r.1) * r.2 as f64;
        }
        let loss = (loss_acc / n as f64) as f32;

        // Batch-norm running statistics advance during forward whether or
        // not the step proceeds (as a single-model forward would). The
        // count-weighted f64 combine equals a momentum update against the
        // pooled per-shard batch statistics.
        if !results[0].4.is_empty() {
            let mut acc = vec![0.0f64; results[0].4.len()];
            for r in &results {
                let w = r.2 as f64 / n as f64;
                for (a, &v) in acc.iter_mut().zip(&r.4) {
                    *a += w * f64::from(v);
                }
            }
            let combined: Vec<f32> = acc.iter().map(|&v| v as f32).collect();
            write_state(model, &combined);
        }

        if !loss.is_finite() {
            self.history.nonfinite_batches += 1;
        }
        let mut finite = loss.is_finite();
        if finite {
            finite = reduced.iter().all(|g| g.is_finite());
        }

        // Phase 5: one optimizer step on the primary (or one skip).
        if self.scaler.update(finite) {
            scatter_grads(model, reduced);
            self.opt.step(model, lr, 1.0 / self.scaler.scale());
        } else {
            Sgd::zero_grad(model);
            self.history.skipped_steps += 1;
        }
        loss
    }
}

/// Evaluates classification accuracy (percent) on a dataset.
///
/// Batches stream through one reused batch tensor, assembled serially
/// (as by `Dataset::batch_into`): after the first batch the loop performs
/// no per-batch input allocations. Batch boundaries are
/// identical to the naive per-batch path, so accuracies are bitwise
/// unchanged under every engine and rounding mode.
///
/// # Panics
///
/// Panics if `batch_size == 0`.
pub fn evaluate(model: &mut Sequential, data: &Dataset, batch_size: usize) -> f32 {
    assert!(batch_size > 0, "evaluate needs a nonzero batch size");
    let s = data.image_size();
    let idx: Vec<usize> = (0..data.len()).collect();
    let mut x = Tensor::zeros(&[batch_size.min(data.len().max(1)), 3, s, s]);
    let mut labels = Vec::with_capacity(batch_size);
    let mut correct = 0usize;
    for chunk in idx.chunks(batch_size) {
        if x.shape()[0] != chunk.len() {
            // Only the final ragged batch reshapes the buffer.
            x = Tensor::zeros(&[chunk.len(), 3, s, s]);
        }
        data.gather(chunk, &mut x, &mut labels);
        let logits = model.forward(&x, false);
        correct += count_correct(&logits, &labels);
    }
    100.0 * correct as f32 / data.len().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synth_cifar10;
    use crate::resnet::resnet20_with;
    use srmac_qgemm::engine_from_spec;
    use srmac_rng::SplitMix64;
    use srmac_tensor::init::kaiming_normal;
    use srmac_tensor::layers::{Conv2d, GlobalAvgPool, Linear, Relu};
    use srmac_tensor::{F32Engine, GemmEngine, Numerics, PackedOperand, RoleEngines};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn f32_numerics(threads: usize) -> Numerics {
        Numerics::uniform(Arc::new(F32Engine::new(threads)))
    }

    #[test]
    fn f32_training_learns_synthetic_classes() {
        // A tiny ResNet on a tiny synthetic set must beat chance (10%)
        // decisively within a few epochs — the sanity bar for every
        // experiment built on this harness.
        let numerics = Numerics::uniform(Arc::new(F32Engine::default()));
        let mut net = resnet20_with(&numerics, 4, 10, 42);
        let train_ds = synth_cifar10(160, 12, 10);
        let test_ds = synth_cifar10(80, 12, 11);
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 20,
            lr: 0.05,
            ..TrainConfig::default()
        };
        let h = Trainer::new(&cfg).run(&mut net, &train_ds, &test_ds);
        assert_eq!(h.test_acc.len(), 6);
        assert!(
            h.best_accuracy() > 30.0,
            "tiny ResNet should beat chance (10%) decisively, got {:.1}%",
            h.best_accuracy()
        );
        // Loss must come down substantially.
        assert!(
            h.train_loss.last().unwrap() < &1.8,
            "loss: {:?}",
            h.train_loss
        );
    }

    /// A small conv net with every GEMM-backed layer on `engine`.
    fn small_net(engine: &Arc<dyn GemmEngine>) -> Sequential {
        let mut rng = SplitMix64::new(5);
        let engines = RoleEngines::uniform(engine.clone());
        let mut net = Sequential::new();
        net.push(Conv2d::per_role(
            3,
            6,
            3,
            1,
            1,
            kaiming_normal(&[6, 27], 27, &mut rng),
            engines.clone(),
        ));
        net.push(Relu::new());
        net.push(GlobalAvgPool::new());
        net.push(Linear::per_role(
            6,
            10,
            kaiming_normal(&[10, 6], 6, &mut rng),
            engines,
        ));
        net
    }

    /// Delegates every product to the wrapped engine but reports that
    /// packing is not worth caching, so the layers pack on the fly every
    /// product — the path [`F32Engine`] takes.
    struct OnTheFly(Arc<dyn GemmEngine>);

    impl GemmEngine for OnTheFly {
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

        fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
            self.0.gemm(m, k, n, a, b, out);
        }

        fn benefits_from_packing(&self) -> bool {
            false
        }

        fn name(&self) -> String {
            self.0.name()
        }

        fn with_row_base(&self, first_row: usize) -> Option<Arc<dyn GemmEngine>> {
            let derived = self.0.with_row_base(first_row)?;
            Some(Arc::new(OnTheFly(derived)))
        }
    }

    /// Forwards every method to the wrapped engine and counts its
    /// products (row-offset engines derived from it count into the same
    /// counter).
    struct Counting {
        inner: Arc<dyn GemmEngine>,
        products: Arc<AtomicUsize>,
    }

    impl GemmEngine for Counting {
        fn pack_a(&self, rows: usize, cols: usize, a: &[f32]) -> PackedOperand {
            self.inner.pack_a(rows, cols, a)
        }

        fn pack_b(&self, rows: usize, cols: usize, b: &[f32]) -> PackedOperand {
            self.inner.pack_b(rows, cols, b)
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
            self.products.fetch_add(1, Ordering::Relaxed);
            self.inner.gemm_packed(m, k, n, a, b, out);
        }

        fn gemm_packed_masked(
            &self,
            m: usize,
            k: usize,
            n: usize,
            a: &PackedOperand,
            b: &PackedOperand,
            need: &Arc<srmac_tensor::NeededRows>,
            out: &mut [f32],
        ) {
            self.products.fetch_add(1, Ordering::Relaxed);
            self.inner.gemm_packed_masked(m, k, n, a, b, need, out);
        }

        fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
            self.products.fetch_add(1, Ordering::Relaxed);
            self.inner.gemm(m, k, n, a, b, out);
        }

        fn benefits_from_packing(&self) -> bool {
            self.inner.benefits_from_packing()
        }

        fn name(&self) -> String {
            self.inner.name()
        }

        fn position_invariant(&self) -> bool {
            self.inner.position_invariant()
        }

        fn with_row_base(&self, first_row: usize) -> Option<Arc<dyn GemmEngine>> {
            let inner = self.inner.with_row_base(first_row)?;
            let products = Arc::clone(&self.products);
            Some(Arc::new(Counting { inner, products }))
        }
    }

    /// A layer that computes its whole input gradient whatever its
    /// caller reads: `backward_masked` runs `backward`.
    struct FullBackward(Box<dyn Layer>);

    impl Layer for FullBackward {
        fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
            self.0.forward(x, train)
        }

        fn backward(&mut self, grad: &Tensor) -> Tensor {
            self.0.backward(grad)
        }

        fn visit_params(&mut self, f: &mut dyn FnMut(&mut srmac_tensor::Param)) {
            self.0.visit_params(f);
        }

        fn clone_layer(&self) -> Option<Box<dyn Layer>> {
            Some(Box::new(FullBackward(self.0.clone_layer()?)))
        }

        fn set_batch_offset(&mut self, offset: usize) {
            self.0.set_batch_offset(offset);
        }

        fn warm_weight_packs(&mut self) {
            self.0.warm_weight_packs();
        }
    }

    #[test]
    fn trainer_runs_no_product_for_the_input_gradient() {
        // Nothing reads the gradient of the images, so the first conv's
        // data-gradient engine never runs — and skipping it changes no
        // bit of the History against a stem that computes it anyway.
        let sr = engine_from_spec("fp8_fp12_sr13").expect("paper's pick");
        let train_ds = synth_cifar10(24, 8, 31);
        let test_ds = synth_cifar10(16, 8, 32);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 12,
            grad_shards: 2,
            ..TrainConfig::default()
        };
        let run = |full_backward: bool| {
            let products = Arc::new(AtomicUsize::new(0));
            let counted: Arc<dyn GemmEngine> = Arc::new(Counting {
                inner: Arc::clone(&sr),
                products: Arc::clone(&products),
            });
            let mut rng = SplitMix64::new(5);
            let stem = Conv2d::per_role(
                3,
                6,
                3,
                1,
                1,
                kaiming_normal(&[6, 27], 27, &mut rng),
                RoleEngines::new(Arc::clone(&sr), counted, Arc::clone(&sr)),
            );
            let mut net = Sequential::new();
            if full_backward {
                net.push(FullBackward(Box::new(stem)));
            } else {
                net.push(stem);
            }
            let engines = RoleEngines::uniform(Arc::clone(&sr));
            let w = kaiming_normal(&[6, 54], 54, &mut rng);
            net.push(Relu::new());
            net.push(Conv2d::per_role(6, 6, 3, 1, 1, w, engines.clone()));
            net.push(Relu::new());
            net.push(GlobalAvgPool::new());
            let w = kaiming_normal(&[10, 6], 6, &mut rng);
            net.push(Linear::per_role(6, 10, w, engines));
            let history = Trainer::new(&cfg).run(&mut net, &train_ds, &test_ds);
            (history, products.load(Ordering::Relaxed))
        };
        let (skipped, none) = run(false);
        let (computed, some) = run(true);
        assert_eq!(none, 0, "the stem's data gradient ran");
        assert!(some > 0, "the control must run the stem's data gradient");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&skipped.train_loss), bits(&computed.train_loss));
        assert_eq!(bits(&skipped.test_acc), bits(&computed.test_acc));
        assert_eq!(
            skipped.final_scale.to_bits(),
            computed.final_scale.to_bits()
        );
    }

    #[test]
    fn weight_pack_caching_does_not_change_history() {
        // Caching packed weights is an execution-plan change, not a numeric
        // one: the full training History (losses, accuracies, scaler
        // trajectory) must be bitwise unchanged — on the exact f32 engine
        // and on the paper's SR MAC engine, whose per-element rounding
        // streams must not notice *when* operands were quantized.
        // Engines by spec name (results are thread-invariant, so the
        // resolver's default thread count changes nothing).
        let engines: Vec<Arc<dyn GemmEngine>> = vec![
            Arc::new(F32Engine::new(2)),
            engine_from_spec("fp8_fp12_sr13").expect("paper's pick"),
            engine_from_spec("fp8_fp12_rn_sub").expect("RN reference"),
        ];
        let train_ds = synth_cifar10(48, 8, 21);
        let test_ds = synth_cifar10(32, 8, 22);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 12,
            ..TrainConfig::default()
        };
        for engine in &engines {
            let mut cached_net = small_net(engine);
            let on_the_fly: Arc<dyn GemmEngine> = Arc::new(OnTheFly(engine.clone()));
            let mut uncached_net = small_net(&on_the_fly);
            let cached = Trainer::new(&cfg).run(&mut cached_net, &train_ds, &test_ds);
            let uncached = Trainer::new(&cfg).run(&mut uncached_net, &train_ds, &test_ds);
            assert_eq!(cached.train_loss, uncached.train_loss, "{}", engine.name());
            assert_eq!(cached.test_acc, uncached.test_acc, "{}", engine.name());
            assert_eq!(
                cached.skipped_steps,
                uncached.skipped_steps,
                "{}",
                engine.name()
            );
            assert_eq!(
                cached.nonfinite_batches,
                uncached.nonfinite_batches,
                "{}",
                engine.name()
            );
            assert_eq!(
                cached.final_scale,
                uncached.final_scale,
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn overflow_batch_does_not_poison_the_epoch_loss() {
        // One sample with absurd magnitudes overflows its batch: the loss
        // comes out non-finite and the scaler skips that step. The epoch
        // mean must stay finite (the old code recorded NaN for the whole
        // epoch although training recovered), and the poisoned batches
        // must be counted.
        let base = synth_cifar10(40, 8, 31);
        let plane = 3 * 8 * 8;
        let mut images = Vec::with_capacity(40 * plane);
        for i in 0..40 {
            let (x, _) = base.batch(&[i]);
            images.extend_from_slice(x.data());
        }
        // Poison one sample far beyond f32 comfort.
        images[3 * plane..4 * plane]
            .iter_mut()
            .for_each(|v| *v = 1.0e20);
        let ds = Dataset::from_parts(images, base.labels().to_vec(), 8);

        let engine: Arc<dyn GemmEngine> = Arc::new(F32Engine::new(1));
        let mut net = small_net(&engine);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 10,
            lr: 0.01,
            ..TrainConfig::default()
        };
        let h = Trainer::new(&cfg).run(&mut net, &ds, &base);
        assert!(
            h.nonfinite_batches > 0,
            "the poisoned sample must produce at least one non-finite batch loss"
        );
        assert!(
            h.train_loss.iter().all(|l| l.is_finite()),
            "finite batches exist in every epoch, so no epoch mean may be NaN: {:?}",
            h.train_loss
        );
        assert!(
            h.skipped_steps > 0,
            "the scaler must skip the overflowed steps"
        );
    }

    #[test]
    fn history_accessors_are_defined_on_empty_runs() {
        // A zero-epoch run (`epochs: 0` is a legal config — e.g. "just
        // evaluate a checkpoint") must yield defined accessor values, not
        // panics or poisoned NaN maxima.
        let h = History::default();
        assert_eq!(h.epochs(), 0);
        assert_eq!(h.final_accuracy(), 0.0);
        assert_eq!(h.best_accuracy(), 0.0);
        assert!(h.final_loss().is_nan());
        assert!(h.best_loss().is_nan());

        // And the trainer really produces such a history for epochs = 0.
        let engine: Arc<dyn GemmEngine> = Arc::new(F32Engine::new(1));
        let mut net = small_net(&engine);
        let ds = synth_cifar10(10, 8, 1);
        let cfg = TrainConfig {
            epochs: 0,
            batch_size: 5,
            ..TrainConfig::default()
        };
        let h = Trainer::new(&cfg).run(&mut net, &ds, &ds);
        assert_eq!(h.epochs(), 0);
        assert_eq!(h.final_accuracy(), 0.0);
        assert!(h.final_loss().is_nan());
    }

    #[test]
    fn history_accessors_are_defined_on_all_non_finite_runs() {
        // A run whose every epoch loss came out non-finite (every batch
        // overflowed) keeps NaN epoch records; the accessors must stay
        // defined and must not let the NaNs poison the accuracy maximum.
        let h = History {
            train_loss: vec![f32::NAN, f32::NAN],
            test_acc: vec![10.0, f32::NAN],
            skipped_steps: 2,
            nonfinite_batches: 4,
            final_scale: 512.0,
            ckpt_save_failures: 0,
        };
        assert_eq!(h.epochs(), 2);
        assert_eq!(h.best_accuracy(), 10.0, "NaN accuracy must be ignored");
        assert!(h.final_loss().is_nan());
        assert!(
            h.best_loss().is_nan(),
            "no finite loss exists, so best_loss is NaN by definition"
        );
        assert!(h.final_accuracy().is_nan(), "last entry is truthfully NaN");
    }

    #[test]
    fn grad_shards_zero_resolves_to_replica_count() {
        let t = Trainer::new(&TrainConfig::default());
        assert_eq!(t.grad_shards(), 1, "defaults train on one shard");
        let t = Trainer::new(&TrainConfig {
            replicas: 4,
            ..TrainConfig::default()
        });
        assert_eq!(t.grad_shards(), 4, "auto shards follow the replicas");
        let t = Trainer::new(&TrainConfig {
            replicas: 2,
            grad_shards: 3,
            ..TrainConfig::default()
        });
        assert_eq!(t.grad_shards(), 3, "explicit shards win");
        let t = Trainer::new(&TrainConfig {
            replicas: 0,
            ..TrainConfig::default()
        });
        assert_eq!(t.grad_shards(), 1, "zero replicas clamp to one");
    }

    #[test]
    fn replica_count_does_not_change_training_bits() {
        // The core data-parallel contract on the f32 engine: at a pinned
        // gradient-shard count, every replica count — and every pool size —
        // produces the identical History. Batch 16 with a ragged final
        // batch of 12 exercises uneven shards; resnet20 brings batch-norm
        // state recombination into the picture.
        let numerics = f32_numerics(2);
        let run = |replicas: usize, threads: usize| {
            let mut net = resnet20_with(&numerics, 4, 10, 7);
            let train_ds = synth_cifar10(60, 8, 3);
            let test_ds = synth_cifar10(40, 8, 4);
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 16,
                replicas,
                grad_shards: 4,
                ..TrainConfig::default()
            };
            let rt = Arc::new(srmac_tensor::Runtime::new(threads));
            Trainer::new(&cfg)
                .with_runtime(rt)
                .run(&mut net, &train_ds, &test_ds)
        };
        let baseline = run(1, 1);
        assert!(
            baseline.train_loss.iter().all(|l| l.is_finite()),
            "sharded training must still train: {:?}",
            baseline.train_loss
        );
        for (replicas, threads) in [(2, 4), (4, 4), (8, 2), (3, 1)] {
            let h = run(replicas, threads);
            assert_eq!(
                baseline
                    .train_loss
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>(),
                h.train_loss.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                "losses changed at replicas={replicas} threads={threads}"
            );
            assert_eq!(
                baseline.test_acc, h.test_acc,
                "accuracy changed at replicas={replicas} threads={threads}"
            );
            assert_eq!(baseline.skipped_steps, h.skipped_steps);
            assert_eq!(baseline.final_scale, h.final_scale);
        }
    }

    #[test]
    fn one_shard_step_matches_thirteen_shards_with_twelve_empty() {
        // A batch no larger than one shard's span leaves S-1 shards empty,
        // and empty shards are skipped: S = 13 over 12 samples runs one
        // full-batch replica, exactly the S = 1 step — same loss-gradient
        // scaling (n_s/N = 1), same single-buffer reduction.
        let engine: Arc<dyn GemmEngine> = Arc::new(F32Engine::new(1));
        let run = |grad_shards: usize| {
            let mut net = small_net(&engine);
            let train_ds = synth_cifar10(12, 8, 9);
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 12,
                // 12 samples, shard span 12: every batch is one shard.
                grad_shards,
                ..TrainConfig::default()
            };
            Trainer::new(&cfg).run(&mut net, &train_ds, &train_ds)
        };
        let one = run(1);
        // S = 13 > 12 samples: the first 12 spans are empty, the last
        // holds the whole batch — one replica, full batch.
        let thirteen = run(13);
        assert_eq!(
            one.train_loss
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            thirteen
                .train_loss
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            "S = 13 with 12 empty shards must equal the S = 1 step"
        );
        assert_eq!(one.test_acc, thirteen.test_acc);
        assert_eq!(one.final_scale, thirteen.final_scale);
    }

    #[test]
    #[should_panic(expected = "clone_layer")]
    fn sharded_training_rejects_unreplicable_layers() {
        // A layer without clone support must fail loudly, not silently
        // train on something else — at S = 1 too, whose one shard also
        // runs on a replica.
        struct Opaque;
        impl Layer for Opaque {
            fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
                x.clone()
            }
            fn backward(&mut self, grad: &Tensor) -> Tensor {
                grad.clone()
            }
        }
        let step = |grad_shards: usize| {
            let mut net = Sequential::new();
            net.push(Opaque);
            let cfg = TrainConfig {
                grad_shards,
                ..TrainConfig::default()
            };
            let x = Tensor::zeros(&[2, 1, 1, 1]);
            Trainer::new(&cfg).train_step(&mut net, &x, &[0, 1], 0.1);
        };
        let at_one = std::panic::catch_unwind(|| step(1)).expect_err("S = 1 must reject it");
        let message = at_one
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| at_one.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("clone_layer"), "S = 1 panic: {message}");
        step(2);
    }

    #[test]
    fn training_is_deterministic() {
        let numerics = f32_numerics(2);
        let run = || {
            let mut net = resnet20_with(&numerics, 4, 10, 7);
            let train_ds = synth_cifar10(60, 8, 3);
            let test_ds = synth_cifar10(40, 8, 4);
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 16,
                ..TrainConfig::default()
            };
            Trainer::new(&cfg)
                .run(&mut net, &train_ds, &test_ds)
                .test_acc
        };
        assert_eq!(run(), run());
    }
}
