//! The checkpoint container: capture from / apply to a [`Sequential`]
//! model, plus the version-3 binary encoding (version-1 and version-2
//! files decode unchanged).
//!
//! # Layout (version 3, all integers little-endian)
//!
//! ```text
//! offset 0   magic            b"SRMC"
//!        4   u16              format version (currently 3)
//!        6   u16              reserved flags (must be 0)
//!        8   u32 La           architecture-tag length
//!        12  [La]             architecture tag (UTF-8, caller-chosen)
//!            u8               engine-meta tag: 0 = none, 1 = MacGemmConfig
//!            [16]             MacGemmConfig wire record (tag 1 only)
//!            u8               numerics tag: 0 = none, 1 = policy spec   (v2+)
//!            u32 Lp ; [Lp]    numerics policy spec (UTF-8, tag 1 only) (v2+)
//!            u8               train-state tag: 0 = none, 1 = present    (v3+)
//!            train state record (tag 1 only, v3+):
//!              u32 epoch ; u32 step ; u64 rng_state
//!              u32 scaler scale bits ; u32 good_steps ; u32 growth_interval
//!              u64 epoch-loss f64 bits ; u32 finite_batches
//!              config: u32 epochs ; u32 batch_size ;
//!                      u32 x4 lr/momentum/weight_decay/init_loss_scale bits ;
//!                      u64 seed ; u32 replicas ; u32 grad_shards (resolved) ;
//!                      u64 train_len
//!              history: u32 Ne ; Ne x f32 loss ; u32 Na ; Na x f32 acc ;
//!                       u64 skipped ; u64 nonfinite ; u32 final-scale bits ;
//!                       u64 ckpt_save_failures
//!              optimizer: u32 Nv ; Nv x (u32 len ; len x f32 velocity)
//!            u32 Nl           layer record count
//!            Nl x layer record:
//!              u32 Ln ; [Ln]  layer describe() string (UTF-8)
//!              u32 Np         parameter tensor count
//!              Np x tensor:   u32 ndim ; ndim x u32 dims ; f32 payload
//!              u32 Ns         state buffer count
//!              Ns x state:    u32 len ; f32 payload
//! end-8      u64              FNV-1a-64 checksum of every preceding byte
//! ```
//!
//! The **numerics policy spec** (new in version 2) records the full
//! per-role engine policy the model was trained with, in the
//! `srmac_tensor::numerics` spec grammar (e.g.
//! `fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13`): a loaded checkpoint rebuilds the
//! exact training numerics — forward *and* both backward roles — via
//! `srmac_qgemm::numerics_from_spec`, where the single `MacGemmConfig`
//! record of version 1 could only name one engine. The legacy engine
//! record remains a first-class field — version-1 files decode it, and
//! v2 writers may still fill it as a single-engine summary — but the
//! policy field supersedes it and new writers may leave it `None`.
//! Decoding validates the spec structurally — policy grammar plus every
//! atom, through `srmac_qgemm::validate_policy_spec`, the same atom
//! parser the rebuild uses — so no decodable checkpoint can fail the
//! engine rebuild. Version-1 files simply decode with no policy.
//!
//! The **train-state record** (new in version 3; see
//! [`crate::train_state::TrainState`]) carries the full trainer snapshot —
//! epoch/step cursor, shuffle-RNG position, loss-scaler trajectory,
//! mid-epoch loss partials, resolved training configuration, accumulated
//! history, and SGD momentum buffers — so a crashed run resumes bitwise
//! identical to an uninterrupted one. Version-1/2 files decode with
//! `train: None` (weights-only checkpoints remain first-class; the field
//! is optional in v3 too).
//!
//! The encoding is a pure function of the captured model state — no
//! timestamps, pointers, padding or map iteration orders — so identical
//! models produce identical bytes, and `f32` payloads are carried as raw
//! bit patterns (`-0.0` and NaN payloads survive). Decoding validates
//! every length against the bytes actually present *before* allocating,
//! and verifies the checksum before looking at any record, so corruption
//! surfaces as a typed [`CheckpointError`], never a panic or garbage
//! weights.

use std::path::Path;

use srmac_qgemm::{validate_policy_spec, MacGemmConfig};
use srmac_tensor::{Param, Sequential};

use crate::error::CheckpointError;
use crate::storage::{write_atomic, FsStorage, Storage};
use crate::train_state::TrainState;

/// File magic: the first four bytes of every srmac checkpoint.
pub const MAGIC: [u8; 4] = *b"SRMC";

/// The newest format version this crate writes.
pub const FORMAT_VERSION: u16 = 3;

/// The oldest format version this crate still decodes.
pub const MIN_FORMAT_VERSION: u16 = 1;

/// Maximum tensor rank the format accepts (sanity bound for decoding).
const MAX_NDIM: u32 = 8;

/// Checkpoint-level metadata.
#[derive(Debug, Clone, Default)]
pub struct CheckpointMeta {
    /// Caller-chosen architecture tag (e.g. `"resnet20-w8-c10"`); checked
    /// on load via [`Checkpoint::require_arch`], not interpreted.
    pub arch: String,
    /// The single GEMM engine configuration of the legacy (version-1)
    /// metadata, when the engine was a `MacGemm` (serialized via
    /// [`MacGemmConfig::to_wire`]). Kept for old checkpoints and as a
    /// summary; new writers should also fill [`CheckpointMeta::numerics`].
    pub engine: Option<MacGemmConfig>,
    /// The full per-role numerics policy spec the model was trained with
    /// (version 2+; see the module docs) — `Numerics::to_spec()` on the
    /// way in, `srmac_qgemm::numerics_from_spec` on the way out.
    pub numerics: Option<String>,
}

/// One captured tensor: logical shape plus row-major values.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorRecord {
    /// Logical shape.
    pub shape: Vec<usize>,
    /// Row-major values (bit-exact).
    pub data: Vec<f32>,
}

/// One captured layer: its `describe()` string, parameter tensors in
/// `visit_params` order, and non-parameter state buffers in `visit_state`
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRecord {
    /// The layer's `describe()` string (doubles as an architecture check).
    pub name: String,
    /// Parameter tensors.
    pub params: Vec<TensorRecord>,
    /// Non-parameter state buffers (e.g. batch-norm running statistics).
    pub state: Vec<Vec<f32>>,
}

/// A fully parsed (or about-to-be-written) checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Checkpoint metadata.
    pub meta: CheckpointMeta,
    /// The trainer snapshot for crash-tolerant resume (version 3+;
    /// `None` for weights-only checkpoints and for v1/v2 files).
    pub train: Option<TrainState>,
    /// Per-layer records, in model order.
    pub layers: Vec<LayerRecord>,
}

impl Checkpoint {
    /// Captures the full persistable state of `model` (parameters and
    /// state buffers; gradients are transient and excluded).
    #[must_use]
    pub fn capture(model: &mut Sequential, meta: CheckpointMeta) -> Self {
        let mut layers = Vec::with_capacity(model.len());
        model.for_each_layer(&mut |layer| {
            let mut params = Vec::new();
            layer.visit_params(&mut |p: &mut Param| {
                params.push(TensorRecord {
                    shape: p.value.shape().to_vec(),
                    data: p.value.data().to_vec(),
                });
            });
            let mut state = Vec::new();
            layer.visit_state(&mut |s: &mut Vec<f32>| state.push(s.clone()));
            layers.push(LayerRecord {
                name: layer.describe(),
                params,
                state,
            });
        });
        Self {
            meta,
            train: None,
            layers,
        }
    }

    /// Attaches a trainer snapshot (builder style) — the resumable-
    /// checkpoint writer's hook.
    #[must_use]
    pub fn with_train_state(mut self, train: TrainState) -> Self {
        self.train = Some(train);
        self
    }

    /// Restores this checkpoint's tensors into `model`, which must have
    /// the same architecture (layer count, layer `describe()` strings,
    /// parameter shapes, state buffer lengths). Parameter writes go
    /// through [`srmac_tensor::Tensor::copy_from_slice`], so the layers'
    /// packed-weight caches invalidate exactly as after an optimizer step.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ModelMismatch`] on the first structural
    /// disagreement; the model may be partially written in that case and
    /// should be discarded.
    pub fn apply_to(&self, model: &mut Sequential) -> Result<(), CheckpointError> {
        if model.len() != self.layers.len() {
            return Err(CheckpointError::ModelMismatch {
                what: format!(
                    "checkpoint has {} layer records, model has {} layers",
                    self.layers.len(),
                    model.len()
                ),
            });
        }
        let mut err: Option<String> = None;
        let mut li = 0usize;
        model.for_each_layer(&mut |layer| {
            let rec = &self.layers[li];
            li += 1;
            if err.is_some() {
                return;
            }
            let name = layer.describe();
            if name != rec.name {
                err = Some(format!(
                    "layer {} is {name:?} but the record says {:?}",
                    li - 1,
                    rec.name
                ));
                return;
            }
            let mut pi = 0usize;
            layer.visit_params(&mut |p: &mut Param| {
                if err.is_some() {
                    return;
                }
                let Some(r) = rec.params.get(pi) else {
                    err = Some(format!("layer {name:?} has more params than its record"));
                    return;
                };
                pi += 1;
                if p.value.shape() != r.shape.as_slice() {
                    err = Some(format!(
                        "param {} of {name:?}: model shape {:?}, record shape {:?}",
                        pi - 1,
                        p.value.shape(),
                        r.shape
                    ));
                    return;
                }
                p.value.copy_from_slice(&r.data);
            });
            if err.is_none() && pi != rec.params.len() {
                err = Some(format!(
                    "layer {name:?}: record has {} params, model visited {pi}",
                    rec.params.len()
                ));
            }
            let mut si = 0usize;
            layer.visit_state(&mut |s: &mut Vec<f32>| {
                if err.is_some() {
                    return;
                }
                let Some(r) = rec.state.get(si) else {
                    err = Some(format!(
                        "layer {name:?} has more state buffers than its record"
                    ));
                    return;
                };
                si += 1;
                if s.len() != r.len() {
                    err = Some(format!(
                        "state buffer {} of {name:?}: model len {}, record len {}",
                        si - 1,
                        s.len(),
                        r.len()
                    ));
                    return;
                }
                s.copy_from_slice(r);
            });
            if err.is_none() && si != rec.state.len() {
                err = Some(format!(
                    "layer {name:?}: record has {} state buffers, model visited {si}",
                    rec.state.len()
                ));
            }
        });
        match err {
            Some(what) => Err(CheckpointError::ModelMismatch { what }),
            None => Ok(()),
        }
    }

    /// Verifies the stored architecture tag.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ModelMismatch`] when the tag differs.
    pub fn require_arch(&self, expected: &str) -> Result<(), CheckpointError> {
        if self.meta.arch == expected {
            Ok(())
        } else {
            Err(CheckpointError::ModelMismatch {
                what: format!(
                    "architecture tag is {:?}, expected {expected:?}",
                    self.meta.arch
                ),
            })
        }
    }

    /// Serializes to the current binary layout (deterministic: equal
    /// checkpoints produce equal bytes).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len_hint());
        out.extend_from_slice(&MAGIC);
        push_u16(&mut out, FORMAT_VERSION);
        push_u16(&mut out, 0); // reserved flags
        push_bytes(&mut out, self.meta.arch.as_bytes());
        match &self.meta.engine {
            None => out.push(0),
            Some(cfg) => {
                out.push(1);
                out.extend_from_slice(&cfg.to_wire());
            }
        }
        match &self.meta.numerics {
            None => out.push(0),
            Some(spec) => {
                // Refuse to write a policy the decoder would reject: the
                // whole point of the field is a checkpoint that rebuilds
                // its engines.
                validate_policy_spec(spec)
                    .unwrap_or_else(|e| panic!("cannot serialize numerics spec {spec:?}: {e}"));
                out.push(1);
                push_bytes(&mut out, spec.as_bytes());
            }
        }
        match &self.train {
            None => out.push(0),
            Some(train) => {
                out.push(1);
                train.encode_into(&mut out);
            }
        }
        push_u32(&mut out, len_u32(self.layers.len(), "layer count"));
        for layer in &self.layers {
            push_bytes(&mut out, layer.name.as_bytes());
            push_u32(&mut out, len_u32(layer.params.len(), "param count"));
            for p in &layer.params {
                push_u32(&mut out, len_u32(p.shape.len(), "tensor rank"));
                let mut numel = 1usize;
                #[expect(
                    clippy::expect_used,
                    reason = "refusing to save a >usize-element tensor; aborting beats silent truncation"
                )]
                for &d in &p.shape {
                    push_u32(&mut out, len_u32(d, "tensor dim"));
                    numel = numel.checked_mul(d).expect("tensor too large");
                }
                assert_eq!(numel, p.data.len(), "tensor record shape/data mismatch");
                push_f32s(&mut out, &p.data);
            }
            push_u32(&mut out, len_u32(layer.state.len(), "state count"));
            for s in &layer.state {
                push_u32(&mut out, len_u32(s.len(), "state len"));
                push_f32s(&mut out, s);
            }
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses a checkpoint of any supported version.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] on any structural problem —
    /// wrong magic, unsupported version, truncation, checksum mismatch,
    /// impossible field values, or an invalid embedded engine config.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        // The checksum footer is validated first: every later length check
        // then runs over bytes known to be exactly what the writer wrote.
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(CheckpointError::Truncated {
                offset: 0,
                needed: MAGIC.len() + 4 + 8,
            });
        }
        let (body, footer) = bytes.split_at(bytes.len() - 8);
        #[expect(
            clippy::expect_used,
            reason = "split_at(len - 8) makes the footer exactly 8 bytes"
        )]
        let stored = u64::from_le_bytes(footer.try_into().expect("8-byte footer"));
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader::new(body);
        #[expect(clippy::expect_used, reason = "take(4) returned exactly 4 bytes")]
        let magic: [u8; 4] = r.take(4)?.try_into().expect("4 bytes");
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic(magic));
        }
        let version = r.u16()?;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let flags = r.u16()?;
        if flags != 0 {
            return Err(r.malformed("reserved flags must be 0"));
        }
        let arch = r.string()?;
        let engine = match r.u8()? {
            0 => None,
            1 => {
                #[expect(
                    clippy::expect_used,
                    reason = "take(WIRE_BYTES) returned exactly that many bytes"
                )]
                let wire: [u8; MacGemmConfig::WIRE_BYTES] = r
                    .take(MacGemmConfig::WIRE_BYTES)?
                    .try_into()
                    .expect("wire record");
                Some(MacGemmConfig::from_wire(&wire)?)
            }
            _ => return Err(r.malformed("engine-meta tag must be 0 or 1")),
        };
        // The per-role numerics policy exists from version 2 on; older
        // files decode with no policy.
        let numerics = if version >= 2 {
            match r.u8()? {
                0 => None,
                1 => {
                    let spec = r.string()?;
                    validate_policy_spec(&spec).map_err(|e| CheckpointError::BadPolicySpec {
                        spec: spec.clone(),
                        what: e.to_string(),
                    })?;
                    Some(spec)
                }
                _ => return Err(r.malformed("numerics tag must be 0 or 1")),
            }
        } else {
            None
        };
        // The trainer snapshot exists from version 3 on; older files (and
        // v3 weights-only files) decode with no train state.
        let train = if version >= 3 {
            match r.u8()? {
                0 => None,
                1 => Some(TrainState::decode_from(&mut r)?),
                _ => return Err(r.malformed("train-state tag must be 0 or 1")),
            }
        } else {
            None
        };
        let layer_count = r.count()?;
        let mut layers = Vec::with_capacity(layer_count.min(r.remaining()));
        for _ in 0..layer_count {
            let name = r.string()?;
            let param_count = r.count()?;
            let mut params = Vec::with_capacity(param_count.min(r.remaining()));
            for _ in 0..param_count {
                let ndim = r.u32()?;
                if ndim > MAX_NDIM {
                    return Err(r.malformed("tensor rank above the format maximum"));
                }
                let mut shape = Vec::with_capacity(ndim as usize);
                let mut numel = 1usize;
                for _ in 0..ndim {
                    let d = r.u32()? as usize;
                    numel = numel
                        .checked_mul(d)
                        .ok_or_else(|| r.malformed("tensor element count overflows"))?;
                    shape.push(d);
                }
                let data = r.f32s(numel)?;
                params.push(TensorRecord { shape, data });
            }
            let state_count = r.count()?;
            let mut state = Vec::with_capacity(state_count.min(r.remaining()));
            for _ in 0..state_count {
                let len = r.u32()? as usize;
                state.push(r.f32s(len)?);
            }
            layers.push(LayerRecord {
                name,
                params,
                state,
            });
        }
        if r.remaining() != 0 {
            return Err(CheckpointError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(Self {
            meta: CheckpointMeta {
                arch,
                engine,
                numerics,
            },
            train,
            layers,
        })
    }

    fn encoded_len_hint(&self) -> usize {
        let payload: usize = self
            .layers
            .iter()
            .map(|l| {
                l.name.len()
                    + l.params
                        .iter()
                        .map(|p| 4 * (p.shape.len() + p.data.len() + 2))
                        .sum::<usize>()
                    + l.state.iter().map(|s| 4 * (s.len() + 1)).sum::<usize>()
            })
            .sum();
        64 + self.meta.arch.len() + payload
    }
}

/// Captures `model` and writes the checkpoint to `path` (atomically via a
/// sibling temp file, so a crash cannot leave a half-written checkpoint
/// under the final name).
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on filesystem failure.
pub fn save_model(
    path: impl AsRef<Path>,
    model: &mut Sequential,
    meta: CheckpointMeta,
) -> Result<(), CheckpointError> {
    save_model_with(&FsStorage, path.as_ref(), model, meta)
}

/// [`save_model`] over an explicit [`Storage`] — the hook the
/// fault-injection suite and the trainer's auto-checkpointing use.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on storage failure (the temp file is
/// removed on every failure path) and [`CheckpointError::BadPolicySpec`]
/// for an invalid numerics policy string.
pub fn save_model_with(
    storage: &dyn Storage,
    path: &Path,
    model: &mut Sequential,
    meta: CheckpointMeta,
) -> Result<(), CheckpointError> {
    // Caller-supplied policy strings (config files, CLI flags) fail here
    // as a typed error; the panic inside `encode` stays as the backstop
    // for direct misuse of the lower-level API.
    if let Some(spec) = &meta.numerics {
        validate_policy_spec(spec).map_err(|e| CheckpointError::BadPolicySpec {
            spec: spec.clone(),
            what: e.to_string(),
        })?;
    }
    let bytes = Checkpoint::capture(model, meta).encode();
    write_atomic(storage, path, &bytes)?;
    Ok(())
}

/// Reads and parses a checkpoint file without touching any model.
///
/// # Errors
///
/// Returns a typed [`CheckpointError`] on I/O failure or any structural
/// problem in the bytes.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
    read_checkpoint_with(&FsStorage, path.as_ref())
}

/// [`read_checkpoint`] over an explicit [`Storage`].
///
/// # Errors
///
/// Returns a typed [`CheckpointError`] on I/O failure or any structural
/// problem in the bytes.
pub fn read_checkpoint_with(
    storage: &dyn Storage,
    path: &Path,
) -> Result<Checkpoint, CheckpointError> {
    Checkpoint::decode(&storage.read(path)?)
}

/// Peeks the wire-format version out of a checkpoint header without
/// decoding the body — cheap provenance for resume diagnostics.
///
/// # Errors
///
/// Returns [`CheckpointError::BadMagic`] or [`CheckpointError::Truncated`]
/// when the bytes do not start with a checkpoint header.
pub fn wire_version(bytes: &[u8]) -> Result<u16, CheckpointError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        #[expect(clippy::expect_used, reason = "the magic slice is exactly 4 bytes")]
        return Err(CheckpointError::BadMagic(
            magic.try_into().expect("4 bytes"),
        ));
    }
    r.u16()
}

/// Reads the checkpoint at `path` and restores it into `model`
/// (architecture-checked). Returns the checkpoint metadata.
///
/// # Errors
///
/// Returns a typed [`CheckpointError`] on I/O failure, corruption, or a
/// model/checkpoint mismatch.
pub fn load_model(
    path: impl AsRef<Path>,
    model: &mut Sequential,
) -> Result<CheckpointMeta, CheckpointError> {
    let ckpt = read_checkpoint(path)?;
    ckpt.apply_to(model)?;
    Ok(ckpt.meta)
}

/// FNV-1a 64-bit hash (the trailing integrity checksum).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn len_u32(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("{what} {n} exceeds the u32 wire field"))
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    push_u32(out, len_u32(bytes.len(), "string length"));
    out.extend_from_slice(bytes);
}

pub(crate) fn push_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    out.reserve(4 * vals.len());
    for v in vals {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Bounds-checked little-endian cursor. Every length read from the stream
/// is validated against the bytes actually remaining before any
/// allocation, so hostile length fields cannot trigger huge allocations
/// or out-of-bounds reads.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn malformed(&self, what: &'static str) -> CheckpointError {
        CheckpointError::Malformed {
            offset: self.pos,
            what,
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated {
                offset: self.pos,
                needed: n,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        let bytes = self.take(2)?;
        #[expect(clippy::expect_used, reason = "take(2) returned exactly 2 bytes")]
        let bytes = bytes.try_into().expect("2 bytes");
        Ok(u16::from_le_bytes(bytes))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        let bytes = self.take(4)?;
        #[expect(clippy::expect_used, reason = "take(4) returned exactly 4 bytes")]
        let bytes = bytes.try_into().expect("4 bytes");
        Ok(u32::from_le_bytes(bytes))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        let bytes = self.take(8)?;
        #[expect(clippy::expect_used, reason = "take(8) returned exactly 8 bytes")]
        let bytes = bytes.try_into().expect("8 bytes");
        Ok(u64::from_le_bytes(bytes))
    }

    /// A record count: each record needs at least one more byte, so a
    /// count beyond the remaining length is structurally impossible.
    pub(crate) fn count(&mut self) -> Result<usize, CheckpointError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self.malformed("record count exceeds remaining bytes"));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.malformed("string is not UTF-8"))
    }

    pub(crate) fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let need = n
            .checked_mul(4)
            .ok_or_else(|| self.malformed("f32 payload length overflows"))?;
        let raw = self.take(need)?;
        #[expect(clippy::expect_used, reason = "chunks_exact(4) yields 4-byte chunks")]
        let floats = raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
            .collect();
        Ok(floats)
    }
}
