//! Keep-K checkpoint rotation with bounded retry and corruption-tolerant
//! recovery.
//!
//! A rotation set for head path `ckpt.srmc` is the head plus numbered
//! history slots `ckpt.1.srmc`, `ckpt.2.srmc`, … (newest first, the index
//! inserted before the extension). [`save_rotating`] shifts the existing
//! slots oldest-first, then lands the new bytes atomically under the head
//! name — a crash at any point leaves every slot either intact or absent,
//! never half-written. Each full save attempt is wrapped in a
//! [`RetryPolicy`] with exponential backoff, so transient storage errors
//! are absorbed without the trainer noticing.
//!
//! [`recover_latest`] walks the set newest-first and returns the first
//! slot whose bytes pass the checksum and decode cleanly, reporting every
//! rejected slot with its typed error — the corrupt-head-fallback path of
//! crash-tolerant training.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::checkpoint::Checkpoint;
use crate::error::CheckpointError;
use crate::storage::{write_atomic, Storage};

/// Bounded retry with exponential backoff for checkpoint saves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (>= 1; 1 means no retries).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per retry. Zero sleeps not
    /// at all (what the fault-injection tests use).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            backoff: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no retries.
    #[must_use]
    pub fn none() -> Self {
        Self {
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

/// What a successful [`save_rotating`] call actually took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReport {
    /// Attempts used (1 = clean first try; more means transient failures
    /// were retried away — worth a diagnostic).
    pub attempts: u32,
}

/// The path of rotation slot `i` for head path `path`: slot 0 is the head
/// itself; slot `i > 0` inserts the index before the extension
/// (`ckpt.srmc` → `ckpt.1.srmc`; an extensionless `ckpt` → `ckpt.1`).
#[must_use]
pub fn slot_path(path: &Path, i: usize) -> PathBuf {
    if i == 0 {
        return path.to_path_buf();
    }
    match path.extension() {
        Some(ext) => {
            let stem = path.file_stem().unwrap_or_default().to_os_string();
            let mut name = stem;
            name.push(format!(".{i}."));
            name.push(ext);
            path.with_file_name(name)
        }
        None => {
            let mut name = path.file_name().unwrap_or_default().to_os_string();
            name.push(format!(".{i}"));
            path.with_file_name(name)
        }
    }
}

/// Shifts the existing rotation set down one slot, oldest-first, keeping
/// at most `keep` files total. Best-effort: a failed shift must never
/// block the save itself (the head rename is the operation that matters),
/// so errors here are swallowed.
fn shift_slots(storage: &dyn Storage, path: &Path, keep: usize) {
    if keep <= 1 {
        // Keeping one file means the head is simply replaced.
        return;
    }
    // Drop the slot that would fall off the end.
    let last = slot_path(path, keep - 1);
    if storage.exists(&last) {
        storage.remove(&last).ok();
    }
    // Shift keep-2 → keep-1, …, 0 → 1 (oldest first so nothing is
    // overwritten before it has moved).
    for i in (0..keep - 1).rev() {
        let from = slot_path(path, i);
        if storage.exists(&from) {
            storage.rename(&from, &slot_path(path, i + 1)).ok();
        }
    }
}

/// Saves `bytes` as the new rotation head at `path`, keeping up to `keep`
/// generations, retrying each full atomic attempt per `retry`.
///
/// The sequence per attempt is: shift existing slots down (best-effort),
/// write a writer-unique temp file, rename it over the head. A crash at
/// any point leaves all existing generations readable.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] with the *last* attempt's error once
/// the retry budget is exhausted. The rotation set is left in whatever
/// consistent state the last attempt reached (previous generations
/// intact; no partial file under the head name).
pub fn save_rotating(
    storage: &dyn Storage,
    path: &Path,
    bytes: &[u8],
    keep: usize,
    retry: RetryPolicy,
) -> Result<SaveReport, CheckpointError> {
    let attempts = retry.attempts.max(1);
    let mut backoff = retry.backoff;
    let mut last_err: Option<std::io::Error> = None;
    for attempt in 1..=attempts {
        if attempt > 1 {
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            backoff = backoff.saturating_mul(2);
        }
        // Shift once, on the first attempt only: retries are re-runs of
        // the atomic head write, not new generations.
        if attempt == 1 {
            shift_slots(storage, path, keep);
        }
        match write_atomic(storage, path, bytes) {
            Ok(()) => return Ok(SaveReport { attempts: attempt }),
            Err(e) => last_err = Some(e),
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "the retry loop runs at least once, so a failure to return above always recorded an error here"
    )]
    let err = last_err.expect("at least one attempt");
    Err(CheckpointError::Io(err))
}

/// A checkpoint recovered from a rotation set.
#[derive(Debug)]
pub struct Recovery {
    /// The decoded checkpoint.
    pub checkpoint: Checkpoint,
    /// The slot file it came from.
    pub path: PathBuf,
    /// The slot index (0 = head; > 0 means the head was unusable and an
    /// older generation was used — the corrupt-head-fallback case).
    pub slot: usize,
    /// Slots that were present but rejected, newest-first, with the typed
    /// error each one failed on.
    pub rejected: Vec<(PathBuf, CheckpointError)>,
}

/// Scans the rotation set at `path` newest-first and returns the first
/// generation whose bytes decode to a checksum-valid checkpoint.
///
/// The scan tolerates single-slot gaps: a crash between the rotation
/// shift and the head rename leaves the head name empty while older
/// generations sit in the numbered slots, and a crash mid-shift can leave
/// one interior gap. Two adjacent missing slots mark the end of the set.
///
/// # Errors
///
/// Returns [`CheckpointError::NoValidCheckpoint`] when every present slot
/// fails to read or decode (including the degenerate empty set).
pub fn recover_latest(storage: &dyn Storage, path: &Path) -> Result<Recovery, CheckpointError> {
    let mut rejected = Vec::new();
    let mut missing_run = 0usize;
    let mut slot = 0usize;
    while missing_run < 2 {
        let p = slot_path(path, slot);
        slot += 1;
        if !storage.exists(&p) {
            missing_run += 1;
            continue;
        }
        missing_run = 0;
        let result = storage
            .read(&p)
            .map_err(CheckpointError::from)
            .and_then(|bytes| Checkpoint::decode(&bytes));
        match result {
            Ok(checkpoint) => {
                return Ok(Recovery {
                    checkpoint,
                    path: p,
                    slot: slot - 1,
                    rejected,
                })
            }
            Err(e) => rejected.push((p, e)),
        }
    }
    Err(CheckpointError::NoValidCheckpoint {
        scanned: rejected.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{fnv1a64, save_model, CheckpointMeta};
    use crate::storage::{FailpointStorage, FaultKind, FaultOp, FsStorage};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srmac_rot_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn slot_paths_insert_the_index_before_the_extension() {
        let p = Path::new("/x/ckpt.srmc");
        assert_eq!(slot_path(p, 0), PathBuf::from("/x/ckpt.srmc"));
        assert_eq!(slot_path(p, 1), PathBuf::from("/x/ckpt.1.srmc"));
        assert_eq!(slot_path(p, 12), PathBuf::from("/x/ckpt.12.srmc"));
        let q = Path::new("/x/ckpt");
        assert_eq!(slot_path(q, 2), PathBuf::from("/x/ckpt.2"));
    }

    #[test]
    fn rotation_keeps_the_newest_k_generations() {
        let dir = tmp_dir("keepk");
        let head = dir.join("ckpt.srmc");
        let s = FsStorage;
        for gen in 0..5u8 {
            save_rotating(&s, &head, &[gen; 8], 3, RetryPolicy::none()).unwrap();
        }
        assert_eq!(std::fs::read(&head).unwrap(), [4u8; 8]);
        assert_eq!(std::fs::read(slot_path(&head, 1)).unwrap(), [3u8; 8]);
        assert_eq!(std::fs::read(slot_path(&head, 2)).unwrap(), [2u8; 8]);
        assert!(!slot_path(&head, 3).exists(), "keep=3 caps the set");
    }

    #[test]
    fn retry_absorbs_transient_write_errors() {
        let dir = tmp_dir("retry");
        let head = dir.join("ckpt.srmc");
        let s = FailpointStorage::new(FsStorage);
        s.fail_nth(FaultOp::Write, 0, FaultKind::Error);
        s.fail_nth(FaultOp::Write, 1, FaultKind::Torn(1));
        let report = save_rotating(
            &s,
            &head,
            b"payload",
            3,
            RetryPolicy {
                attempts: 3,
                backoff: Duration::ZERO,
            },
        )
        .unwrap();
        assert_eq!(report.attempts, 3);
        assert_eq!(std::fs::read(&head).unwrap(), b"payload");
    }

    #[test]
    fn exhausted_retries_surface_the_last_error() {
        let dir = tmp_dir("exhaust");
        let head = dir.join("ckpt.srmc");
        let s = FailpointStorage::new(FsStorage);
        for n in 0..2 {
            s.fail_nth(FaultOp::Write, n, FaultKind::Error);
        }
        let err = save_rotating(
            &s,
            &head,
            b"payload",
            3,
            RetryPolicy {
                attempts: 2,
                backoff: Duration::ZERO,
            },
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
        assert!(!head.exists(), "no partial file under the head name");
    }

    fn valid_checkpoint_bytes(dir: &Path, tag: u64) -> Vec<u8> {
        use std::sync::Arc;

        use srmac_tensor::layers::Linear;
        use srmac_tensor::{F32Engine, RoleEngines, Sequential, Tensor};

        let mut model = Sequential::new();
        let w: Vec<f32> = (0..6).map(|i| (i as f32) * 0.5 + tag as f32).collect();
        model.push(Linear::per_role(
            3,
            2,
            Tensor::from_vec(w, &[2, 3]),
            RoleEngines::uniform(Arc::new(F32Engine::new(1))),
        ));
        let p = dir.join(format!("src_{tag}.srmc"));
        let meta = CheckpointMeta {
            arch: format!("m{tag}"),
            ..Default::default()
        };
        save_model(&p, &mut model, meta).unwrap();
        std::fs::read(&p).unwrap()
    }

    #[test]
    fn recovery_prefers_the_head_when_valid() {
        let dir = tmp_dir("rec_head");
        let head = dir.join("ckpt.srmc");
        let bytes = valid_checkpoint_bytes(&dir, 1);
        std::fs::write(&head, &bytes).unwrap();
        let rec = recover_latest(&FsStorage, &head).unwrap();
        assert_eq!(rec.slot, 0);
        assert!(rec.rejected.is_empty());
        assert_eq!(rec.checkpoint.meta.arch, "m1");
    }

    #[test]
    fn corrupt_head_falls_back_to_the_newest_valid_slot() {
        let dir = tmp_dir("rec_fall");
        let head = dir.join("ckpt.srmc");
        let good = valid_checkpoint_bytes(&dir, 2);
        // Head: corrupted copy (flip a payload byte; checksum now fails).
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert_ne!(fnv1a64(&bad), fnv1a64(&good));
        std::fs::write(&head, &bad).unwrap();
        std::fs::write(slot_path(&head, 1), &good).unwrap();
        let rec = recover_latest(&FsStorage, &head).unwrap();
        assert_eq!(rec.slot, 1, "fell back past the corrupt head");
        assert_eq!(rec.rejected.len(), 1);
        assert_eq!(rec.checkpoint.meta.arch, "m2");
    }

    #[test]
    fn all_slots_corrupt_is_a_typed_error() {
        let dir = tmp_dir("rec_none");
        let head = dir.join("ckpt.srmc");
        std::fs::write(&head, b"garbage").unwrap();
        std::fs::write(slot_path(&head, 1), b"more garbage").unwrap();
        let err = recover_latest(&FsStorage, &head).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::NoValidCheckpoint { scanned: 2 }
        ));
    }

    #[test]
    fn empty_set_is_a_typed_error() {
        let dir = tmp_dir("rec_empty");
        let err = recover_latest(&FsStorage, &dir.join("ckpt.srmc")).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::NoValidCheckpoint { scanned: 0 }
        ));
    }
}
