//! # srmac-models: the paper's DNN workloads
//!
//! Model definitions (ResNet-20, ResNet-50, VGG16 — with width knobs for
//! laptop-scale runs), deterministic synthetic datasets standing in for
//! CIFAR-10 and Imagewoof, and the training harness implementing the
//! paper's Sec. IV-A recipe (SGD momentum 0.9, cosine annealing, dynamic
//! loss scaling from 1024).
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use srmac_models::{data, resnet, TrainConfig, Trainer};
//! use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig};
//! use srmac_tensor::Numerics;
//!
//! // Train a slim ResNet-20 with every GEMM on the paper's best MAC
//! // (E6M5 accumulator, eager SR, r = 13, no subnormals).
//! let numerics = Numerics::uniform(Arc::new(MacGemm::new(
//!     MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false),
//! )));
//! let mut net = resnet::resnet20_with(&numerics, 8, 10, 0);
//! let train_ds = data::synth_cifar10(400, 16, 1);
//! let test_ds = data::synth_cifar10(200, 16, 2);
//! let h = Trainer::new(&TrainConfig::default()).run(&mut net, &train_ds, &test_ds);
//! println!("final accuracy: {:.2}%", h.final_accuracy());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod blocks;
pub mod ckpt;
pub mod data;
pub mod diag;
pub mod resnet;
pub mod serve;
pub mod trainer;
pub mod vgg;

pub use blocks::ResidualBlock;
pub use ckpt::{CkptOptions, DEFAULT_KEEP};
pub use data::{shard_spans, synth_cifar10, synth_imagewoof, Dataset, NUM_CLASSES};
pub use diag::{DiagCode, DiagSink, Diagnostic, Severity};
pub use serve::{
    InferenceServer, LatencyHistogram, Prediction, ServeClient, ServeConfig, ServeError, ServeStats,
};
pub use trainer::{evaluate, History, TrainConfig, Trainer};
