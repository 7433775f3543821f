//! # srmac-bench: the experiment harness
//!
//! One binary per table/figure of the paper (listed in the README's
//! "Reproducing the paper tables"), plus shared
//! infrastructure: accumulation-configuration descriptors, the training
//! experiment runner, environment-variable scale knobs and plain-text table
//! rendering.
//!
//! Scale knobs (all optional):
//!
//! | variable         | meaning                                | default |
//! |------------------|----------------------------------------|---------|
//! | `SRMAC_TRAIN`    | training samples                       | 480     |
//! | `SRMAC_TEST`     | test samples                           | 200     |
//! | `SRMAC_EPOCHS`   | epochs                                 | 12      |
//! | `SRMAC_SIZE`     | image side (ResNet experiments)        | 12      |
//! | `SRMAC_WIDTH`    | ResNet-20 base width (paper: 16)       | 4       |
//! | `SRMAC_BATCH`    | minibatch size                         | 16      |
//! | `SRMAC_LR`       | initial learning rate                  | 0.1     |
//! | `SRMAC_SEED`     | experiment seed                        | 1       |
//! | `SRMAC_VERBOSE`  | per-epoch logging when set to 1        | 0       |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod configs;
pub mod guard;
pub mod table;

use std::sync::Arc;

use srmac_models::{trainer, Dataset, TrainConfig, Trainer};
use srmac_tensor::{GemmEngine, Numerics, Sequential};

/// Reads a numeric environment knob.
#[must_use]
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The common experiment scale, assembled from environment knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Training samples.
    pub train_n: usize,
    /// Test samples.
    pub test_n: usize,
    /// Epochs.
    pub epochs: usize,
    /// Image side length.
    pub size: usize,
    /// ResNet-20 base width.
    pub width: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
    /// Per-epoch logging.
    pub verbose: bool,
}

impl Scale {
    /// Loads the scale from the environment.
    #[must_use]
    pub fn from_env() -> Self {
        Self {
            train_n: env_or("SRMAC_TRAIN", 480),
            test_n: env_or("SRMAC_TEST", 200),
            epochs: env_or("SRMAC_EPOCHS", 12),
            size: env_or("SRMAC_SIZE", 12),
            width: env_or("SRMAC_WIDTH", 4),
            batch: env_or("SRMAC_BATCH", 16),
            lr: env_or("SRMAC_LR", 0.1),
            seed: env_or("SRMAC_SEED", 1),
            verbose: env_or("SRMAC_VERBOSE", 0u32) != 0,
        }
    }

    /// The training config this scale implies.
    #[must_use]
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch,
            lr: self.lr,
            momentum: 0.9,
            weight_decay: 1e-4,
            init_loss_scale: 1024.0,
            seed: self.seed.wrapping_mul(0x9E37_79B9) + 7,
            verbose: self.verbose,
            replicas: 1,
            grad_shards: 0,
        }
    }
}

/// Trains a freshly built model, every GEMM on `engine`, on a dataset pair
/// and returns its history.
pub fn run_training(
    build: impl FnOnce(&Numerics) -> Sequential,
    engine: Arc<dyn GemmEngine>,
    train_ds: &Dataset,
    test_ds: &Dataset,
    cfg: &TrainConfig,
) -> trainer::History {
    let mut model = build(&Numerics::uniform(engine));
    Trainer::new(cfg).run(&mut model, train_ds, test_ds)
}
