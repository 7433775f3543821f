//! Fault-injected checkpoint storage: every failure a disk can throw at a
//! save — clean errors, torn writes, a crash halfway through — must leave
//! the rotation set recoverable, surface as a typed error, and never
//! litter partial files. Drives the real `save_model` byte path through
//! [`FailpointStorage`].

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use srmac_io::{
    read_checkpoint_with, recover_latest, save_model_with, save_rotating, slot_path,
    CheckpointError, CheckpointMeta, FailpointStorage, FaultKind, FaultOp, FsStorage, RetryPolicy,
};
use srmac_tensor::layers::Linear;
use srmac_tensor::{F32Engine, RoleEngines, Sequential, Tensor};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srmac_faults_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn model(tag: u64) -> Sequential {
    let mut m = Sequential::new();
    let w: Vec<f32> = (0..8).map(|i| (i as f32) * 0.125 - tag as f32).collect();
    m.push(Linear::per_role(
        4,
        2,
        Tensor::from_vec(w, &[2, 4]),
        RoleEngines::uniform(Arc::new(F32Engine::new(1))),
    ));
    m
}

fn meta(tag: u64) -> CheckpointMeta {
    CheckpointMeta {
        arch: format!("fault-{tag}"),
        ..Default::default()
    }
}

fn no_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 1,
        backoff: Duration::ZERO,
    }
}

fn dir_entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn failed_save_model_write_leaves_no_temp_litter() {
    // The regression test for the historical save_model leak: a failed
    // *write* (not just a failed rename) must remove the partial temp.
    let dir = tmp_dir("save_leak");
    let path = dir.join("model.srmc");
    let storage = FailpointStorage::new(FsStorage);
    storage.fail_nth(FaultOp::Write, 0, FaultKind::Torn(16));
    let err = save_model_with(&storage, &path, &mut model(1), meta(1)).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)));
    assert_eq!(
        dir_entries(&dir),
        Vec::<String>::new(),
        "a torn save must leave neither the target nor a .tmp behind"
    );
}

#[test]
fn failed_rename_leaves_no_temp_litter_and_keeps_the_old_file() {
    let dir = tmp_dir("rename_leak");
    let path = dir.join("model.srmc");
    save_model_with(&FsStorage, &path, &mut model(1), meta(1)).unwrap();
    let before = std::fs::read(&path).unwrap();
    let storage = FailpointStorage::new(FsStorage);
    storage.fail_nth(FaultOp::Rename, 0, FaultKind::Error);
    assert!(save_model_with(&storage, &path, &mut model(2), meta(2)).is_err());
    assert_eq!(dir_entries(&dir), vec!["model.srmc".to_string()]);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "the previous checkpoint must survive a failed replacement intact"
    );
}

#[test]
fn torn_write_never_exposes_a_partial_checkpoint() {
    let dir = tmp_dir("torn");
    let path = dir.join("model.srmc");
    save_model_with(&FsStorage, &path, &mut model(1), meta(1)).unwrap();
    for keep in [0, 1, 7, 64] {
        let storage = FailpointStorage::new(FsStorage);
        storage.fail_nth(FaultOp::Write, 0, FaultKind::Torn(keep));
        assert!(save_model_with(&storage, &path, &mut model(9), meta(9)).is_err());
        let ckpt = read_checkpoint_with(&FsStorage, &path).expect("head still valid");
        assert_eq!(ckpt.meta.arch, "fault-1", "old generation intact");
    }
}

#[test]
fn mid_write_crash_is_recoverable_from_the_rotation_set() {
    // A simulated process death halfway through writing the new head: the
    // "restarted process" (a fresh storage over the same directory) must
    // recover the previous generation via the rotation scan.
    let dir = tmp_dir("crash");
    let path = dir.join("ckpt.srmc");
    let gen1 = {
        let mut m = model(1);
        let bytes = srmac_io::Checkpoint::capture(&mut m, meta(1)).encode();
        save_rotating(&FsStorage, &path, &bytes, 3, no_retry()).unwrap();
        bytes
    };
    let storage = FailpointStorage::new(FsStorage);
    storage.fail_nth(FaultOp::Write, 0, FaultKind::Crash);
    let mut m2 = model(2);
    let bytes2 = srmac_io::Checkpoint::capture(&mut m2, meta(2)).encode();
    assert!(save_rotating(&storage, &path, &bytes2, 3, no_retry()).is_err());
    assert!(storage.crashed());

    // Restart: fresh storage, same directory. The crash happened while
    // writing the *temp* file, so the head (shifted gen1... actually the
    // shift moved gen1 to slot 1 and the head write died on the temp; the
    // head name is absent) — recovery must find gen1 in slot 1.
    let rec = recover_latest(&FsStorage, &path).expect("recoverable");
    assert_eq!(rec.checkpoint.encode(), gen1);
    assert!(rec.slot >= 1, "head was lost; an older generation serves");
}

#[test]
fn corrupt_head_falls_back_with_the_rejection_recorded() {
    let dir = tmp_dir("fallback");
    let path = dir.join("ckpt.srmc");
    let mut m = model(3);
    let bytes = srmac_io::Checkpoint::capture(&mut m, meta(3)).encode();
    save_rotating(&FsStorage, &path, &bytes, 3, no_retry()).unwrap();
    save_rotating(&FsStorage, &path, &bytes, 3, no_retry()).unwrap();
    // Corrupt the head in place.
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x55;
    std::fs::write(&path, &bad).unwrap();
    let rec = recover_latest(&FsStorage, &path).expect("slot 1 valid");
    assert_eq!(rec.slot, 1);
    assert_eq!(rec.rejected.len(), 1);
    assert!(
        matches!(rec.rejected[0].1, CheckpointError::ChecksumMismatch { .. }),
        "the head rejection carries its typed decode error"
    );
    assert_eq!(rec.path, slot_path(&path, 1));
}

#[test]
fn unreadable_head_falls_back_too() {
    // An injected *read* error on the head (bad sector, not bad bytes)
    // must also fall through to the next generation.
    let dir = tmp_dir("read_fault");
    let path = dir.join("ckpt.srmc");
    let mut m = model(4);
    let bytes = srmac_io::Checkpoint::capture(&mut m, meta(4)).encode();
    save_rotating(&FsStorage, &path, &bytes, 3, no_retry()).unwrap();
    save_rotating(&FsStorage, &path, &bytes, 3, no_retry()).unwrap();
    let storage = FailpointStorage::new(FsStorage);
    storage.fail_nth(FaultOp::Read, 0, FaultKind::Error);
    let rec = recover_latest(&storage, &path).expect("slot 1 valid");
    assert_eq!(rec.slot, 1);
    assert!(matches!(rec.rejected[0].1, CheckpointError::Io(_)));
}

#[test]
fn retries_absorb_transient_faults_and_then_exhaust() {
    let dir = tmp_dir("retries");
    let path = dir.join("ckpt.srmc");
    let mut m = model(5);
    let bytes = srmac_io::Checkpoint::capture(&mut m, meta(5)).encode();

    // Two transient faults, three attempts: succeeds on the third.
    let storage = FailpointStorage::new(FsStorage);
    storage.fail_nth(FaultOp::Write, 0, FaultKind::Error);
    storage.fail_nth(FaultOp::Write, 1, FaultKind::Torn(8));
    let report = save_rotating(
        &storage,
        &path,
        &bytes,
        2,
        RetryPolicy {
            attempts: 3,
            backoff: Duration::ZERO,
        },
    )
    .expect("third attempt lands");
    assert_eq!(report.attempts, 3);
    assert_eq!(std::fs::read(&path).unwrap(), bytes);

    // Faults outnumbering the budget: typed error, set still consistent.
    let storage = FailpointStorage::new(FsStorage);
    for n in 0..3 {
        storage.fail_nth(FaultOp::Write, n, FaultKind::Error);
    }
    let err = save_rotating(
        &storage,
        &path,
        &bytes,
        2,
        RetryPolicy {
            attempts: 3,
            backoff: Duration::ZERO,
        },
    )
    .unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)));
    let rec = recover_latest(&FsStorage, &path).expect("previous generation survives");
    assert_eq!(rec.checkpoint.encode(), bytes);
}
