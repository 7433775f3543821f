//! Crash-tolerant training glue: the diagnostic codes the [`Trainer`]
//! emits on its checkpoint path, the auto-checkpoint policy it carries,
//! and the conversions between the live trainer types and the persisted
//! `srmac_io` wire records.
//!
//! The degradation contract: a checkpoint save that fails transiently is
//! retried with backoff ([`RetryPolicy`]); one that exhausts its retries
//! is **counted and diagnosed, never fatal** — training continues, the
//! failure lands in [`History::ckpt_save_failures`] and a
//! [`codes::RETRY_EXHAUSTED`] diagnostic, and the previous rotation
//! generations stay intact for recovery.
//!
//! [`Trainer`]: crate::trainer::Trainer
//! [`History::ckpt_save_failures`]: crate::trainer::History::ckpt_save_failures

use std::path::PathBuf;
use std::sync::Arc;

use srmac_io::{CheckpointMeta, HistoryRecord, RetryPolicy, Storage, TrainConfigRecord};

use crate::trainer::{History, TrainConfig};

/// Diagnostic codes for the checkpoint/resume path (`ckpt::*` and
/// `train::*` namespaces, alongside the serving codes in
/// [`crate::serve::codes`]).
pub mod codes {
    use crate::diag::DiagCode;

    /// A checkpoint save attempt failed but a retry landed it — the save
    /// succeeded, the storage hiccup is worth surfacing.
    pub const SAVE_FAILED: DiagCode = DiagCode::new("ckpt", 1, "save-failed");
    /// A checkpoint save exhausted its retry budget; training continues
    /// (graceful degradation) with the failure counted in the history.
    pub const RETRY_EXHAUSTED: DiagCode = DiagCode::new("ckpt", 2, "retry-exhausted");
    /// Recovery found the rotation head unusable and fell back to an
    /// older generation.
    pub const CORRUPT_HEAD_FALLBACK: DiagCode = DiagCode::new("ckpt", 3, "corrupt-head-fallback");
    /// A training run resumed from a checkpoint (records the wire-format
    /// version and the slot it came from).
    pub const RESUME: DiagCode = DiagCode::new("train", 1, "resume-version");

    /// Every checkpoint and training code, in id order per namespace.
    pub const ALL: [DiagCode; 4] = [SAVE_FAILED, RETRY_EXHAUSTED, CORRUPT_HEAD_FALLBACK, RESUME];
}

/// The auto-checkpoint policy a [`crate::trainer::Trainer`] carries:
/// cadence, rotation target, retry budget, and the storage to write
/// through (the fault-injection hook).
#[derive(Debug, Clone)]
pub struct CkptOptions {
    /// Save every `every` optimizer steps (counted across epochs); `0`
    /// disables cadence saves (the final save still happens).
    pub every: usize,
    /// The rotation head path (`ckpt.srmc`; older generations rotate to
    /// `ckpt.1.srmc`, `ckpt.2.srmc`, …).
    pub path: PathBuf,
    /// Metadata stamped on every save (architecture tag, engine config,
    /// numerics policy).
    pub meta: CheckpointMeta,
    /// Rotation generations to keep (head included).
    pub keep: usize,
    /// Retry budget per save.
    pub retry: RetryPolicy,
    /// The storage implementation saves and recovery go through.
    pub storage: Arc<dyn Storage>,
}

/// Default rotation depth: the head plus two older generations.
pub const DEFAULT_KEEP: usize = 3;

/// Builds the persisted config record from a live [`TrainConfig`]. The
/// gradient-shard count is stored **resolved** (the trainer's value, not
/// the config's possibly-`0` knob) and `train_len` pins the dataset the
/// shuffle permutation depends on; the cosmetic `verbose` flag is
/// deliberately dropped.
#[must_use]
pub fn config_record(cfg: &TrainConfig, grad_shards: usize, train_len: u64) -> TrainConfigRecord {
    TrainConfigRecord {
        epochs: cfg.epochs as u32,
        batch_size: cfg.batch_size as u32,
        lr: cfg.lr,
        momentum: cfg.momentum,
        weight_decay: cfg.weight_decay,
        init_loss_scale: cfg.init_loss_scale,
        seed: cfg.seed,
        replicas: cfg.replicas as u32,
        grad_shards: grad_shards as u32,
        train_len,
    }
}

/// Rebuilds a [`TrainConfig`] from the persisted record. `verbose` comes
/// back `false` (not persisted); `grad_shards` is the stored resolved
/// value, so re-resolution in [`crate::trainer::Trainer::new`] is
/// idempotent.
#[must_use]
pub fn config_from_record(rec: &TrainConfigRecord) -> TrainConfig {
    TrainConfig {
        epochs: rec.epochs as usize,
        batch_size: rec.batch_size as usize,
        lr: rec.lr,
        momentum: rec.momentum,
        weight_decay: rec.weight_decay,
        init_loss_scale: rec.init_loss_scale,
        seed: rec.seed,
        verbose: false,
        replicas: rec.replicas as usize,
        grad_shards: rec.grad_shards as usize,
    }
}

/// Builds the persisted history record from a live [`History`].
#[must_use]
pub fn history_record(h: &History) -> HistoryRecord {
    HistoryRecord {
        train_loss: h.train_loss.clone(),
        test_acc: h.test_acc.clone(),
        skipped_steps: h.skipped_steps as u64,
        nonfinite_batches: h.nonfinite_batches as u64,
        final_scale: h.final_scale,
        ckpt_save_failures: h.ckpt_save_failures as u64,
    }
}

/// Rebuilds a live [`History`] from the persisted record.
#[must_use]
pub fn history_from_record(rec: &HistoryRecord) -> History {
    History {
        train_loss: rec.train_loss.clone(),
        test_acc: rec.test_acc.clone(),
        skipped_steps: rec.skipped_steps as usize,
        nonfinite_batches: rec.nonfinite_batches as usize,
        final_scale: rec.final_scale,
        ckpt_save_failures: rec.ckpt_save_failures as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrips_with_resolution_pinned() {
        let cfg = TrainConfig {
            epochs: 7,
            batch_size: 24,
            replicas: 4,
            grad_shards: 0, // knob unresolved...
            verbose: true,
            ..TrainConfig::default()
        };
        let rec = config_record(&cfg, 4, 123); // ...stored resolved
        assert_eq!(rec.grad_shards, 4);
        assert_eq!(rec.train_len, 123);
        let back = config_from_record(&rec);
        assert_eq!(back.grad_shards, 4, "resolved value survives");
        assert!(!back.verbose, "verbose is cosmetic, not persisted");
        assert_eq!(back.epochs, cfg.epochs);
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.lr.to_bits(), cfg.lr.to_bits());
    }

    #[test]
    fn history_roundtrips_bitwise() {
        let h = History {
            train_loss: vec![2.5, f32::NAN, -0.0],
            test_acc: vec![10.0, 20.0, 30.0],
            skipped_steps: 3,
            nonfinite_batches: 1,
            final_scale: 2048.0,
            ckpt_save_failures: 2,
        };
        let back = history_from_record(&history_record(&h));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.train_loss), bits(&h.train_loss));
        assert_eq!(back.test_acc, h.test_acc);
        assert_eq!(back.skipped_steps, 3);
        assert_eq!(back.nonfinite_batches, 1);
        assert_eq!(back.final_scale, 2048.0);
        assert_eq!(back.ckpt_save_failures, 2);
    }

    #[test]
    fn code_tags_and_paths_follow_the_diag_idiom() {
        assert_eq!(codes::SAVE_FAILED.tag(), "CKPT0001");
        assert_eq!(codes::SAVE_FAILED.path(), "ckpt::save-failed");
        assert_eq!(codes::RETRY_EXHAUSTED.tag(), "CKPT0002");
        assert_eq!(codes::CORRUPT_HEAD_FALLBACK.tag(), "CKPT0003");
        assert_eq!(codes::RESUME.tag(), "TRAIN0001");
        assert_eq!(codes::RESUME.path(), "train::resume-version");
    }
}
