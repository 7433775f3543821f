//! Checkpoint robustness property tests: arbitrary corruption of a valid
//! checkpoint — truncation anywhere, flipped bits anywhere (header,
//! records, checksum), wrong version, wrong magic, random garbage — must
//! come back as a typed [`CheckpointError`], never a panic, and never an
//! `Ok` carrying silently different state.

use std::sync::Arc;
use std::sync::OnceLock;

use proptest::prelude::*;
use srmac_io::{
    Checkpoint, CheckpointError, CheckpointMeta, HistoryRecord, TrainConfigRecord, TrainState,
    FORMAT_VERSION, MAGIC,
};
use srmac_qgemm::{AccumRounding, MacGemmConfig};
use srmac_tensor::layers::{BatchNorm2d, Linear};
use srmac_tensor::{F32Engine, RoleEngines, Sequential, Tensor};

fn reference_model() -> Sequential {
    let mut m = Sequential::new();
    let w: Vec<f32> = (0..24).map(|i| (i as f32 * 0.37).sin()).collect();
    m.push(Linear::per_role(
        6,
        4,
        Tensor::from_vec(w, &[4, 6]),
        RoleEngines::uniform(Arc::new(F32Engine::new(1))),
    ));
    m.push(BatchNorm2d::new(4));
    m
}

fn reference_meta() -> CheckpointMeta {
    CheckpointMeta {
        arch: "prop-model".into(),
        engine: Some(MacGemmConfig::fp8_fp12(
            AccumRounding::Stochastic { r: 13 },
            false,
        )),
        numerics: None,
    }
}

fn reference_train_state() -> TrainState {
    TrainState {
        epoch: 2,
        step: 5,
        rng_state: 0x1234_5678_9ABC_DEF0,
        scaler_scale: 1024.0,
        scaler_good_steps: 17,
        scaler_growth_interval: 2000,
        epoch_loss: 8.75,
        finite_batches: 5,
        config: TrainConfigRecord {
            epochs: 4,
            batch_size: 8,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 1e-4,
            init_loss_scale: 1024.0,
            seed: 0xC0FFEE,
            replicas: 1,
            grad_shards: 2,
            train_len: 64,
        },
        history: HistoryRecord {
            train_loss: vec![2.2, 2.0],
            test_acc: vec![12.5, 25.0],
            skipped_steps: 1,
            nonfinite_batches: 0,
            final_scale: 0.0,
            ckpt_save_failures: 0,
        },
        velocities: vec![vec![0.25; 24], vec![0.5; 4]],
    }
}

/// A valid reference checkpoint (built once; the corruption strategies
/// only need its bytes).
fn valid_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| Checkpoint::capture(&mut reference_model(), reference_meta()).encode())
}

/// A valid reference checkpoint **with a v3 train-state record**, so the
/// corruption sweeps also cover the resume path's bytes.
fn valid_bytes_train() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        Checkpoint::capture(&mut reference_model(), reference_meta())
            .with_train_state(reference_train_state())
            .encode()
    })
}

fn reference(with_train: bool) -> &'static [u8] {
    if with_train {
        valid_bytes_train()
    } else {
        valid_bytes()
    }
}

/// Every single-bit flip breaks the checksum (or *is* the checksum, which
/// then disagrees with the content), so decode must return a typed error.
/// The only `Ok` a flip could ever produce would require an FNV-1a
/// collision between the mutated body and the mutated footer — and even
/// then the result would have to differ from the original, which we also
/// reject below.
fn assert_flip_detected(with_train: bool, pos: usize, bit: u8) {
    let base = reference(with_train);
    let mut bytes = base.to_vec();
    bytes[pos] ^= 1 << bit;
    match Checkpoint::decode(&bytes) {
        Err(_) => {}
        Ok(ckpt) => {
            // Astronomically unlikely, but the contract is "never silently
            // different": a surviving decode must round-trip to the
            // original bytes.
            assert_eq!(
                ckpt.encode(),
                base,
                "flip at byte {pos} bit {bit} decoded Ok with different content"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Truncation at any length: typed error, no panic — with and without
    /// the v3 train-state record present.
    #[test]
    fn truncation_yields_typed_error(with_train in any::<bool>(), frac in 0u64..10_000) {
        let full = reference(with_train);
        let keep = (full.len() as u64 * frac / 10_000) as usize;
        prop_assume!(keep < full.len());
        let got = Checkpoint::decode(&full[..keep]);
        prop_assert!(
            matches!(
                got,
                Err(CheckpointError::Truncated { .. })
                    | Err(CheckpointError::ChecksumMismatch { .. })
            ),
            "truncation to {keep} bytes gave {got:?}"
        );
    }

    /// A flipped bit anywhere in the file is detected.
    #[test]
    fn bit_flips_are_detected(with_train in any::<bool>(), pos in 0u64..u64::MAX, bit in 0u8..8) {
        let pos = (pos % reference(with_train).len() as u64) as usize;
        assert_flip_detected(with_train, pos, bit);
    }

    /// Corrupting the trailing checksum specifically reports a checksum
    /// mismatch (the footer is validated before any record is parsed).
    #[test]
    fn checksum_corruption_reports_checksum_mismatch(with_train in any::<bool>(), delta in 1u64..u64::MAX) {
        let mut bytes = reference(with_train).to_vec();
        let n = bytes.len();
        let stored = u64::from_le_bytes(bytes[n - 8..].try_into().unwrap());
        bytes[n - 8..].copy_from_slice(&stored.wrapping_add(delta).to_le_bytes());
        prop_assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    /// Random garbage never panics; it errors (or, vacuously, would have
    /// to be a byte-perfect valid file, which random bytes are not).
    #[test]
    fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(Checkpoint::decode(&data).is_err());
    }
}

#[test]
fn wrong_version_is_rejected_as_unsupported() {
    let mut bytes = valid_bytes().to_vec();
    // Rewrite the version field and fix up the checksum so only the
    // version differs — the decoder must reject it on the version itself.
    bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    let n = bytes.len();
    let sum = srmac_io::fnv1a64(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        Checkpoint::decode(&bytes),
        Err(CheckpointError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 1
    ));
}

#[test]
fn wrong_magic_is_rejected_as_bad_magic() {
    let mut bytes = valid_bytes().to_vec();
    bytes[..4].copy_from_slice(b"NOPE");
    let n = bytes.len();
    let sum = srmac_io::fnv1a64(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        Checkpoint::decode(&bytes),
        Err(CheckpointError::BadMagic(m)) if &m == b"NOPE"
    ));
}

/// Offset of the train-state presence tag in the reference layout:
/// 4 magic + 2 version + 2 flags + 4 arch len + arch + engine tag +
/// engine record + numerics tag (0, no policy in the fixtures).
fn train_tag_offset(base: &[u8]) -> usize {
    let arch_len = u32::from_le_bytes(base[8..12].try_into().unwrap()) as usize;
    let engine_tag_at = 12 + arch_len;
    assert_eq!(base[engine_tag_at], 1, "reference has engine meta");
    let numerics_tag_at = engine_tag_at + 1 + MacGemmConfig::WIRE_BYTES;
    assert_eq!(base[numerics_tag_at], 0, "reference has no numerics policy");
    numerics_tag_at + 1
}

fn patch_u32_and_rechecksum(base: &[u8], at: usize, v: u32) -> Vec<u8> {
    let mut bytes = base.to_vec();
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    let n = bytes.len();
    let sum = srmac_io::fnv1a64(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn hostile_length_fields_cannot_allocate_or_panic() {
    // Re-checksummed records with absurd counts/lengths: the decoder must
    // bound every allocation by the bytes present and error out.
    let base = valid_bytes();
    // The layer-count field sits right after the (absent) train-state tag.
    let train_tag_at = train_tag_offset(base);
    assert_eq!(base[train_tag_at], 0, "reference carries no train state");
    let layer_count_at = train_tag_at + 1;
    for huge in [u32::MAX, 1 << 30, 65_535] {
        let bytes = patch_u32_and_rechecksum(base, layer_count_at, huge);
        assert!(
            Checkpoint::decode(&bytes).is_err(),
            "layer count {huge} must be rejected"
        );
    }
    // A tiny "valid-shaped" file claiming a gigantic string.
    let mut tiny = Vec::new();
    tiny.extend_from_slice(&MAGIC);
    tiny.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    tiny.extend_from_slice(&0u16.to_le_bytes());
    tiny.extend_from_slice(&u32::MAX.to_le_bytes()); // arch length
    let sum = srmac_io::fnv1a64(&tiny);
    tiny.extend_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        Checkpoint::decode(&tiny),
        Err(CheckpointError::Truncated { .. })
    ));
}

#[test]
fn hostile_train_state_fields_are_typed_errors() {
    // Corrupt individual fields inside the v3 train-state record (and fix
    // the checksum so only that field is wrong): the decoder must reject
    // each one as a typed structural error, never panic or over-allocate.
    let base = valid_bytes_train();
    let rec = train_tag_offset(base);
    assert_eq!(base[rec], 1, "reference carries a train state");
    let rec = rec + 1; // first byte of the TrainState record
    let state = reference_train_state();
    let n_loss = state.history.train_loss.len();
    let n_acc = state.history.test_acc.len();
    // Field offsets inside the record (see train_state.rs wire order).
    let epoch_at = rec;
    let grad_shards_at = rec + 76;
    let loss_count_at = rec + 88;
    let acc_count_at = loss_count_at + 4 + 4 * n_loss;
    let vel_count_at = acc_count_at + 4 + 4 * n_acc + 8 + 8 + 4 + 8;
    let cases: [(usize, u32, &str); 6] = [
        (epoch_at, u32::MAX, "epoch cursor beyond configured epochs"),
        (grad_shards_at, 0, "unresolved grad_shards"),
        (loss_count_at, u32::MAX, "huge loss count"),
        (
            loss_count_at,
            (n_loss + 1) as u32,
            "loss/acc count mismatch",
        ),
        (acc_count_at, 1 << 30, "huge accuracy count"),
        (vel_count_at, u32::MAX, "huge velocity count"),
    ];
    for (at, v, what) in cases {
        let bytes = patch_u32_and_rechecksum(base, at, v);
        let got = Checkpoint::decode(&bytes);
        assert!(
            matches!(
                got,
                Err(CheckpointError::Malformed { .. }) | Err(CheckpointError::Truncated { .. })
            ),
            "{what}: expected a typed structural error, got {got:?}"
        );
    }
}

#[test]
fn train_state_roundtrips_through_the_container() {
    let ckpt = Checkpoint::decode(valid_bytes_train()).expect("decode");
    assert_eq!(ckpt.train.as_ref(), Some(&reference_train_state()));
    assert_eq!(ckpt.encode(), valid_bytes_train(), "re-encode is bitwise");
    // The train-free reference really has no record.
    let plain = Checkpoint::decode(valid_bytes()).expect("decode");
    assert!(plain.train.is_none());
}
