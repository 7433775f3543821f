//! # srmac-tensor: a minimal CPU deep-learning framework
//!
//! The training substrate for the SR-MAC reproduction: dense tensors,
//! explicitly differentiated layers (convolution, linear, batch
//! normalization, activations, pooling), softmax cross-entropy, SGD with
//! momentum, cosine-annealing learning rates and dynamic loss scaling —
//! the exact recipe of the paper's Sec. IV-A.
//!
//! Its load-bearing abstraction is [`GemmEngine`]: every matrix product of
//! the forward *and* backward passes dispatches through it, so training can
//! run on exact `f32` (the paper's FP32 baseline) or on the bit-exact
//! low-precision MAC emulation from `srmac-qgemm` by swapping one object —
//! or on a different engine per GEMM *role* (forward / data gradient /
//! weight gradient) through a [`Numerics`] policy (see [`numerics`]),
//! which is how the paper's mixed-precision experiments are expressed.
//! Engines expose a prepared-operand pipeline ([`GemmEngine::pack_a`] /
//! [`GemmEngine::pack_b`] / [`GemmEngine::gemm_packed`]); the convolution
//! and linear layers cache their weights' packed form and invalidate it on
//! parameter updates, so a training step quantizes each weight once and
//! evaluation batches reuse it for free.
//!
//! The data movement around those products — [`movement::im2row`],
//! [`movement::col2im`], the NCHW scatter/gathers, transposes — is plain
//! serial loops over slices on the calling thread, into reused per-layer
//! scratch buffers: it only copies operands into the layouts the engines
//! read, so its results are a pure function of its inputs. [`Tensor`]
//! storage is `Arc`-backed copy-on-write, so clones (and data-parallel
//! replicas' weights) share buffers without copying.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use srmac_tensor::{F32Engine, RoleEngines, Sequential, Tensor, softmax_cross_entropy};
//! use srmac_tensor::layers::{Layer, Linear, Relu};
//! use srmac_tensor::init::kaiming_normal;
//! use srmac_rng::SplitMix64;
//!
//! let engines = RoleEngines::uniform(Arc::new(F32Engine::new(1)));
//! let mut rng = SplitMix64::new(1);
//! let mut net = Sequential::new();
//! net.push(Linear::per_role(4, 8, kaiming_normal(&[8, 4], 4, &mut rng), engines.clone()));
//! net.push(Relu::new());
//! net.push(Linear::per_role(8, 2, kaiming_normal(&[2, 8], 8, &mut rng), engines));
//!
//! let x = Tensor::zeros(&[3, 4]);
//! let logits = net.forward(&x, true);
//! let (_loss, grad) = softmax_cross_entropy(&logits, &[0, 1, 0]);
//! net.backward(&grad);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod engine;
pub mod grads;
pub mod init;
pub mod layers;
mod loss;
pub mod movement;
pub mod numerics;
pub mod optim;
mod tensor;

pub use engine::{matmul, F32Engine, GemmEngine, NeededRows, PackSide, PackedOperand};
pub use grads::{flatten_grads, grad_len, scatter_grads};
pub use layers::{Layer, Param, Sequential};
pub use loss::{count_correct, softmax_cross_entropy};
pub use movement::transpose;
pub use numerics::{GemmRole, Numerics, NumericsBuilder, PolicySpec, RoleEngines, SpecError};
pub use optim::{CosineLr, LossScaler, Sgd};
// The parallel runtime the qgemm engine and the trainer's replicas
// dispatch through; re-exported so downstream crates need no direct
// dependency.
pub use srmac_runtime::{available_threads, tree_reduce, Runtime};
pub use tensor::Tensor;
