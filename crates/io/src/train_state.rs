//! The version-3 trainer-state record: everything a resumed run needs to
//! continue **bitwise identically** to an uninterrupted one — the
//! epoch/step cursor, the shuffle-RNG position, the loss-scaler
//! trajectory, the mid-epoch loss partials, the full training
//! configuration (gradient shards *resolved*, since they define the
//! step's numerics), the accumulated history, and the optimizer's
//! momentum buffers.
//!
//! The wire layout (appended to the checkpoint body behind a presence
//! tag; see the [`crate::checkpoint`] module docs for the framing) is a
//! pure function of the state: fixed-width little-endian integers, `f32`/
//! `f64` as raw bit patterns, and length-prefixed vectors whose lengths
//! the decoder validates against the bytes actually present before
//! allocating — hostile length fields surface as typed
//! [`CheckpointError`]s, never panics or huge allocations (property-
//! tested in `tests/proptests.rs`).

use crate::checkpoint::{push_f32s, push_u32, Reader};
use crate::error::CheckpointError;

/// The persisted snapshot of a [`Trainer`] mid-run (new in format
/// version 3).
///
/// [`Trainer`]: https://docs.rs/srmac-models (srmac_models::trainer::Trainer)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainState {
    /// Epoch the run is inside (0-based). `epoch == config.epochs` marks
    /// a completed run.
    pub epoch: u32,
    /// Optimizer steps completed inside the current epoch. May equal the
    /// epoch's step count (checkpoint taken after the last step, before
    /// the evaluation pass).
    pub step: u32,
    /// The shuffle RNG's state after the current epoch's shuffle — a
    /// resume replays the shuffles from the seed and verifies it lands on
    /// exactly this state (a mismatch means the dataset or seed changed).
    pub rng_state: u64,
    /// Loss-scaler scale at the snapshot.
    pub scaler_scale: f32,
    /// Loss-scaler consecutive-good-step counter.
    pub scaler_good_steps: u32,
    /// Loss-scaler growth interval.
    pub scaler_growth_interval: u32,
    /// Mid-epoch running loss sum (`f64`, finite batches only).
    pub epoch_loss: f64,
    /// Mid-epoch finite-batch count.
    pub finite_batches: u32,
    /// The training configuration of the interrupted run.
    pub config: TrainConfigRecord,
    /// The history accumulated so far (completed epochs).
    pub history: HistoryRecord,
    /// SGD momentum buffers, flat, in parameter visit order; may be
    /// shorter than the parameter count (slots are created lazily by the
    /// first optimizer step).
    pub velocities: Vec<Vec<f32>>,
}

/// The persisted training configuration. Field meanings mirror
/// `srmac_models::trainer::TrainConfig`, with two deliberate deltas: the
/// gradient-shard count is stored **resolved** (the `0 = follow replicas`
/// default must not re-resolve differently on resume — it defines the
/// numerics), and the cosmetic `verbose` flag is not persisted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainConfigRecord {
    /// Total epochs of the run.
    pub epochs: u32,
    /// Minibatch size.
    pub batch_size: u32,
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
    /// Replica count (pure scheduling; persisted for fidelity).
    pub replicas: u32,
    /// Gradient-shard count, **resolved** (always >= 1).
    pub grad_shards: u32,
    /// Training-set length — resume checks it against the dataset it is
    /// handed, since the shuffle permutation depends on it.
    pub train_len: u64,
}

/// The persisted `History`: per-epoch records plus run counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoryRecord {
    /// Mean training loss per completed epoch.
    pub train_loss: Vec<f32>,
    /// Test accuracy (percent) per completed epoch.
    pub test_acc: Vec<f32>,
    /// Steps skipped by the loss scaler so far.
    pub skipped_steps: u64,
    /// Batches with non-finite loss so far.
    pub nonfinite_batches: u64,
    /// Final loss scale (0.0 until the run completes).
    pub final_scale: f32,
    /// Checkpoint saves that exhausted their retries so far (the
    /// graceful-degradation counter).
    pub ckpt_save_failures: u64,
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f32_bits(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

impl TrainState {
    /// Appends the wire encoding (without the presence tag) to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        push_u32(out, self.epoch);
        push_u32(out, self.step);
        push_u64(out, self.rng_state);
        push_f32_bits(out, self.scaler_scale);
        push_u32(out, self.scaler_good_steps);
        push_u32(out, self.scaler_growth_interval);
        push_u64(out, self.epoch_loss.to_bits());
        push_u32(out, self.finite_batches);
        let c = &self.config;
        push_u32(out, c.epochs);
        push_u32(out, c.batch_size);
        push_f32_bits(out, c.lr);
        push_f32_bits(out, c.momentum);
        push_f32_bits(out, c.weight_decay);
        push_f32_bits(out, c.init_loss_scale);
        push_u64(out, c.seed);
        push_u32(out, c.replicas);
        assert!(
            c.grad_shards >= 1,
            "grad_shards must be stored resolved (>= 1)"
        );
        push_u32(out, c.grad_shards);
        push_u64(out, c.train_len);
        let h = &self.history;
        #[expect(
            clippy::expect_used,
            reason = "history lengths are epoch counts, far below u32::MAX"
        )]
        push_u32(out, h.train_loss.len().try_into().expect("loss count"));
        push_f32s(out, &h.train_loss);
        #[expect(
            clippy::expect_used,
            reason = "history lengths are epoch counts, far below u32::MAX"
        )]
        push_u32(out, h.test_acc.len().try_into().expect("acc count"));
        push_f32s(out, &h.test_acc);
        push_u64(out, h.skipped_steps);
        push_u64(out, h.nonfinite_batches);
        push_f32_bits(out, h.final_scale);
        push_u64(out, h.ckpt_save_failures);
        #[expect(
            clippy::expect_used,
            reason = "one velocity buffer per parameter tensor — far below u32::MAX"
        )]
        push_u32(
            out,
            self.velocities.len().try_into().expect("velocity count"),
        );
        for v in &self.velocities {
            #[expect(
                clippy::expect_used,
                reason = "velocity lengths are tensor element counts, validated at u32 scale on save"
            )]
            push_u32(out, v.len().try_into().expect("velocity len"));
            push_f32s(out, v);
        }
    }

    /// Decodes the record (after the presence tag) from `r`, validating
    /// every structural invariant the trainer relies on.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let epoch = r.u32()?;
        let step = r.u32()?;
        let rng_state = r.u64()?;
        let scaler_scale = f32::from_bits(r.u32()?);
        let scaler_good_steps = r.u32()?;
        let scaler_growth_interval = r.u32()?;
        let epoch_loss = f64::from_bits(r.u64()?);
        let finite_batches = r.u32()?;
        let config = TrainConfigRecord {
            epochs: r.u32()?,
            batch_size: r.u32()?,
            lr: f32::from_bits(r.u32()?),
            momentum: f32::from_bits(r.u32()?),
            weight_decay: f32::from_bits(r.u32()?),
            init_loss_scale: f32::from_bits(r.u32()?),
            seed: r.u64()?,
            replicas: r.u32()?,
            grad_shards: r.u32()?,
            train_len: r.u64()?,
        };
        if config.batch_size == 0 {
            return Err(r.malformed("train-state batch size must be nonzero"));
        }
        if config.grad_shards == 0 {
            return Err(r.malformed("train-state grad_shards must be stored resolved (>= 1)"));
        }
        if u64::from(epoch) > u64::from(config.epochs) {
            return Err(r.malformed("train-state epoch cursor beyond the configured epochs"));
        }
        let n_loss = r.count()?;
        let train_loss = r.f32s(n_loss)?;
        let n_acc = r.count()?;
        let test_acc = r.f32s(n_acc)?;
        let history = HistoryRecord {
            train_loss,
            test_acc,
            skipped_steps: r.u64()?,
            nonfinite_batches: r.u64()?,
            final_scale: f32::from_bits(r.u32()?),
            ckpt_save_failures: r.u64()?,
        };
        if history.train_loss.len() != history.test_acc.len() {
            return Err(r.malformed("train-state history loss/accuracy counts disagree"));
        }
        if history.train_loss.len() as u64 > u64::from(config.epochs) {
            return Err(r.malformed("train-state history longer than the configured epochs"));
        }
        let n_vel = r.count()?;
        let mut velocities = Vec::with_capacity(n_vel.min(r.remaining()));
        for _ in 0..n_vel {
            let len = r.u32()? as usize;
            velocities.push(r.f32s(len)?);
        }
        Ok(Self {
            epoch,
            step,
            rng_state,
            scaler_scale,
            scaler_good_steps,
            scaler_growth_interval,
            epoch_loss,
            finite_batches,
            config,
            history,
            velocities,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainState {
        TrainState {
            epoch: 3,
            step: 7,
            rng_state: 0xDEAD_BEEF_1234_5678,
            scaler_scale: 512.0,
            scaler_good_steps: 41,
            scaler_growth_interval: 2000,
            epoch_loss: 12.25625,
            finite_batches: 7,
            config: TrainConfigRecord {
                epochs: 5,
                batch_size: 16,
                lr: 0.1,
                momentum: 0.9,
                weight_decay: 1e-4,
                init_loss_scale: 1024.0,
                seed: 0xC0FFEE,
                replicas: 2,
                grad_shards: 4,
                train_len: 300,
            },
            history: HistoryRecord {
                train_loss: vec![2.5, 2.0, -0.0],
                test_acc: vec![10.0, 30.0, f32::NAN],
                skipped_steps: 2,
                nonfinite_batches: 1,
                final_scale: 0.0,
                ckpt_save_failures: 1,
            },
            velocities: vec![vec![0.5, -0.25, 0.0], vec![], vec![1.0e-7]],
        }
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let state = sample();
        let mut bytes = Vec::new();
        state.encode_into(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = TrainState::decode_from(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "decode must consume exactly the record");
        // PartialEq on f32 treats NaN as unequal; compare the bit level.
        assert_eq!(
            back.history.test_acc[2].to_bits(),
            state.history.test_acc[2].to_bits()
        );
        let mut again = Vec::new();
        back.encode_into(&mut again);
        assert_eq!(bytes, again, "re-encode must reproduce identical bytes");
    }

    #[test]
    fn truncation_anywhere_is_typed() {
        let state = sample();
        let mut bytes = Vec::new();
        state.encode_into(&mut bytes);
        for keep in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..keep]);
            assert!(
                TrainState::decode_from(&mut r).is_err(),
                "truncation to {keep} bytes must error"
            );
        }
    }

    #[test]
    fn structural_invariants_are_enforced() {
        let break_and_decode = |f: &dyn Fn(&mut TrainState)| {
            let mut s = sample();
            f(&mut s);
            let mut bytes = Vec::new();
            s.encode_into(&mut bytes);
            TrainState::decode_from(&mut Reader::new(&bytes))
        };
        assert!(matches!(
            break_and_decode(&|s| s.config.batch_size = 0),
            Err(CheckpointError::Malformed { .. })
        ));
        assert!(matches!(
            break_and_decode(&|s| s.epoch = 99),
            Err(CheckpointError::Malformed { .. })
        ));
        assert!(matches!(
            break_and_decode(&|s| s.history.test_acc.push(1.0)),
            Err(CheckpointError::Malformed { .. })
        ));
    }
}
