//! # srmac-io: deterministic model checkpoints
//!
//! A hand-rolled, versioned binary checkpoint format (no external
//! dependencies) that round-trips any [`srmac_tensor::Sequential`] model
//! **bitwise**: magic/version header, an architecture tag, the
//! [`srmac_qgemm::MacGemmConfig`] the model was trained with, an optional
//! numerics policy, an optional trainer-state record ([`TrainState`],
//! format v3 — everything a resumed run needs to continue bitwise),
//! per-layer records carrying every parameter tensor and non-parameter
//! state buffer (batch-norm running statistics included), little-endian
//! `f32` bit patterns, and a trailing FNV-1a-64 checksum. See
//! [`checkpoint`] for the exact byte layout.
//!
//! Around the format sit the crash-tolerance layers: [`storage`] (the
//! [`Storage`] trait, the real filesystem, and a fault-injecting
//! failpoint wrapper for deterministic disk-failure tests) and
//! [`rotation`] (atomic keep-K checkpoint rotation with bounded
//! retry-with-backoff and a newest-valid-generation recovery scan).
//!
//! Guarantees:
//!
//! - **Determinism** — encoding is a pure function of the model state:
//!   the same weights produce the same bytes, byte for byte.
//! - **Bitwise round trip** — save → load restores every `f32` exactly
//!   (`-0.0`, NaN payloads and all), so a reloaded model's `evaluate` and
//!   logits are bit-identical to the source model's under every engine.
//! - **Typed failure** — corrupt input (truncation, bit flips, wrong
//!   version, bad checksum) yields a [`CheckpointError`], never a panic
//!   and never silently-wrong weights (property-tested in
//!   `tests/proptests.rs`).
//! - **No partial files** — saves land via a writer-unique temp file and
//!   an atomic rename, and the temp is removed on every failure path
//!   (pinned by the fault-injection suite in `tests/fault_injection.rs`).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use srmac_io::{Checkpoint, CheckpointMeta};
//! use srmac_tensor::layers::Linear;
//! use srmac_tensor::{F32Engine, RoleEngines, Sequential, Tensor};
//!
//! let engines = RoleEngines::uniform(Arc::new(F32Engine::new(1)));
//! let mut model = Sequential::new();
//! let w = Tensor::from_vec(vec![0.5, -1.25, 2.0, 0.0, -0.0, 3.5], &[2, 3]);
//! model.push(Linear::per_role(3, 2, w, engines.clone()));
//!
//! // Capture -> encode -> decode -> apply is a bitwise round trip.
//! let meta = CheckpointMeta { arch: "demo".into(), ..Default::default() };
//! let bytes = Checkpoint::capture(&mut model, meta).encode();
//! let ckpt = Checkpoint::decode(&bytes).unwrap();
//! ckpt.require_arch("demo").unwrap();
//!
//! let mut restored = Sequential::new();
//! restored.push(Linear::per_role(3, 2, Tensor::zeros(&[2, 3]), engines));
//! ckpt.apply_to(&mut restored).unwrap();
//! let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
//! use srmac_tensor::Layer;
//! assert_eq!(
//!     model.forward(&x, false).data(),
//!     restored.forward(&x, false).data(),
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod checkpoint;
mod error;
pub mod rotation;
pub mod storage;
pub mod train_state;

pub use checkpoint::{
    fnv1a64, load_model, read_checkpoint, read_checkpoint_with, save_model, save_model_with,
    wire_version, Checkpoint, CheckpointMeta, LayerRecord, TensorRecord, FORMAT_VERSION, MAGIC,
};
pub use error::CheckpointError;
pub use rotation::{recover_latest, save_rotating, slot_path, Recovery, RetryPolicy, SaveReport};
pub use storage::{
    unique_tmp_path, write_atomic, FailpointStorage, FaultKind, FaultOp, FsStorage, Storage,
};
pub use train_state::{HistoryRecord, TrainConfigRecord, TrainState};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use srmac_qgemm::{AccumRounding, MacGemmConfig};
    use srmac_tensor::layers::{BatchNorm2d, Linear};
    use srmac_tensor::{F32Engine, RoleEngines, Sequential, Tensor};

    use super::*;

    fn engines() -> RoleEngines {
        RoleEngines::uniform(Arc::new(F32Engine::new(1)))
    }

    fn small_model(seed_shift: f32) -> Sequential {
        let mut m = Sequential::new();
        let w: Vec<f32> = (0..12).map(|i| i as f32 * 0.25 - seed_shift).collect();
        m.push(Linear::per_role(
            4,
            3,
            Tensor::from_vec(w, &[3, 4]),
            engines(),
        ));
        m.push(BatchNorm2d::new(3));
        m
    }

    #[test]
    fn encode_is_deterministic_and_header_is_fixed() {
        let meta = || CheckpointMeta {
            arch: "t".into(),
            engine: Some(MacGemmConfig::fp8_fp12(
                AccumRounding::Stochastic { r: 13 },
                false,
            )),
            numerics: None,
        };
        let a = Checkpoint::capture(&mut small_model(1.0), meta()).encode();
        let b = Checkpoint::capture(&mut small_model(1.0), meta()).encode();
        assert_eq!(a, b, "same model state must encode to identical bytes");
        assert_eq!(&a[..4], &MAGIC);
        assert_eq!(u16::from_le_bytes([a[4], a[5]]), FORMAT_VERSION);
    }

    #[test]
    fn roundtrip_restores_params_state_and_engine_meta() {
        let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_seed(3);
        let mut src = small_model(0.5);
        // Dirty the batch-norm running stats so state restoration is
        // actually exercised (fresh stats are all 0/1).
        use srmac_tensor::Layer;
        src.visit_state(&mut |s| s.iter_mut().enumerate().for_each(|(i, v)| *v += i as f32));
        let bytes = Checkpoint::capture(
            &mut src,
            CheckpointMeta {
                arch: "small".into(),
                engine: Some(cfg),
                numerics: None,
            },
        )
        .encode();

        let ckpt = Checkpoint::decode(&bytes).expect("decode");
        let eng = ckpt.meta.engine.expect("engine meta");
        assert_eq!(eng.rounding, cfg.rounding);
        assert_eq!(eng.seed, cfg.seed);
        assert_eq!(eng.mul_fmt, cfg.mul_fmt);
        assert_eq!(eng.acc_fmt, cfg.acc_fmt);

        let mut dst = small_model(9.0);
        ckpt.apply_to(&mut dst).expect("apply");
        let want = Checkpoint::capture(&mut src, ckpt.meta.clone());
        let got = Checkpoint::capture(&mut dst, ckpt.meta.clone());
        assert_eq!(want.layers, got.layers, "restored state must be bitwise");
    }

    #[test]
    fn apply_rejects_architecture_mismatches() {
        let bytes = Checkpoint::capture(
            &mut small_model(0.0),
            CheckpointMeta {
                arch: "small".into(),
                engine: None,
                numerics: None,
            },
        )
        .encode();
        let ckpt = Checkpoint::decode(&bytes).unwrap();
        assert!(ckpt.require_arch("other").is_err());

        // Wrong layer count.
        let mut short = Sequential::new();
        short.push(Linear::per_role(4, 3, Tensor::zeros(&[3, 4]), engines()));
        assert!(matches!(
            ckpt.apply_to(&mut short),
            Err(CheckpointError::ModelMismatch { .. })
        ));

        // Right count, wrong shapes.
        let mut wrong = Sequential::new();
        wrong.push(Linear::per_role(3, 4, Tensor::zeros(&[4, 3]), engines()));
        wrong.push(BatchNorm2d::new(4));
        assert!(matches!(
            ckpt.apply_to(&mut wrong),
            Err(CheckpointError::ModelMismatch { .. })
        ));
    }

    #[test]
    fn file_roundtrip_via_save_and_load() {
        let dir = std::env::temp_dir().join("srmac_io_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.srmc");
        let mut src = small_model(2.5);
        save_model(
            &path,
            &mut src,
            CheckpointMeta {
                arch: "small".into(),
                engine: None,
                numerics: None,
            },
        )
        .expect("save");
        let mut dst = small_model(0.0);
        let meta = load_model(&path, &mut dst).expect("load");
        assert_eq!(meta.arch, "small");
        assert_eq!(
            Checkpoint::capture(&mut src, meta.clone()).layers,
            Checkpoint::capture(&mut dst, meta).layers,
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let mut m = small_model(0.0);
        assert!(matches!(
            load_model("/nonexistent/srmac/nope.srmc", &mut m),
            Err(CheckpointError::Io(_))
        ));
    }
}
