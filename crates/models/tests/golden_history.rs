//! Golden-vector regression: a fixed-seed 2-epoch ResNet-20 run whose
//! full `History` is pinned, bit for bit, against a checked-in snapshot.
//!
//! Training is bitwise deterministic end to end (counter-seeded SR
//! streams, thread-invariant GEMM and data movement, deterministic
//! synthetic data), so *any* numeric change anywhere in the stack — fp
//! rounding, qgemm kernels, tensor layers, movement kernels, trainer
//! bookkeeping — shifts these bits and fails this test with a diff,
//! instead of silently drifting. Exercised through both the exact f32
//! engine and the paper's SR MAC engine so every crate is on the hook.
//!
//! If a change *intentionally* alters numerics, regenerate the snapshot:
//!
//! ```text
//! SRMAC_BLESS=1 cargo test -p srmac-models --test golden_history -- --nocapture
//! ```
//!
//! and paste the printed block over `GOLDEN` below, saying why in the
//! commit message.
//!
//! The snapshot is tied to this target's `f32` semantics (no FMA
//! contraction; Rust does not auto-contract) — x86-64 and aarch64 agree
//! here; exotic targets would need their own snapshot.

use std::sync::Arc;

use srmac_models::{data, resnet, History, TrainConfig, Trainer};
use srmac_qgemm::numerics_from_spec;
use srmac_tensor::{F32Engine, GemmEngine, Numerics};

/// Bit-level snapshot of one training run.
struct Golden {
    name: &'static str,
    train_loss: &'static [u32],
    test_acc: &'static [u32],
    skipped_steps: usize,
    nonfinite_batches: usize,
    final_scale: u32,
}

/// The pinned expectations. Regenerate with `SRMAC_BLESS=1` (see module
/// docs); review the printed diff before blessing.
const GOLDEN: &[Golden] = &[
    Golden {
        name: "f32",
        train_loss: &[0x401802fc, 0x4004ff8a],
        test_acc: &[0x40c80000, 0x417a0000],
        skipped_steps: 0,
        nonfinite_batches: 0,
        final_scale: 0x44800000,
    },
    Golden {
        name: "mac_sr13_nosub",
        train_loss: &[0x40150046, 0x400d2261],
        test_acc: &[0x40480000, 0x41480000],
        skipped_steps: 0,
        nonfinite_batches: 0,
        final_scale: 0x44800000,
    },
    // The per-role policy path: RN forward, SR r=13 on both backward
    // roles with role-folded stream seeds (numerics::fold_role_seed).
    Golden {
        name: "mixed_rn_fwd_sr13_bwd",
        train_loss: &[0x4016af44, 0x40096d61],
        test_acc: &[0x41160000, 0x41960000],
        skipped_steps: 0,
        nonfinite_batches: 0,
        final_scale: 0x44800000,
    },
];

fn run(name: &str) -> History {
    // Engines resolve through the spec resolver (results are
    // thread-invariant, so its default pool size changes no
    // bits); the mixed case exercises the per-role policy path with its
    // role-folded backward SR seeds.
    let numerics = match name {
        "f32" => Numerics::uniform(Arc::new(F32Engine::new(2)) as Arc<dyn GemmEngine>),
        "mac_sr13_nosub" => numerics_from_spec("fp8_fp12_sr13").expect("uniform SR spec"),
        "mixed_rn_fwd_sr13_bwd" => {
            numerics_from_spec("fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13").expect("mixed spec")
        }
        other => panic!("unknown golden case {other}"),
    };
    let mut net = resnet::resnet20_with(&numerics, 4, 10, 77);
    let train_ds = data::synth_cifar10(64, 8, 1234);
    let test_ds = data::synth_cifar10(32, 8, 4321);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 0.05,
        ..TrainConfig::default()
    };
    Trainer::new(&cfg).run(&mut net, &train_ds, &test_ds)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn print_bless_block(name: &str, h: &History) {
    let hex = |v: &[u32]| {
        v.iter()
            .map(|b| format!("{b:#010x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("    Golden {{");
    println!("        name: \"{name}\",");
    println!("        train_loss: &[{}],", hex(&bits(&h.train_loss)));
    println!("        test_acc: &[{}],", hex(&bits(&h.test_acc)));
    println!("        skipped_steps: {},", h.skipped_steps);
    println!("        nonfinite_batches: {},", h.nonfinite_batches);
    println!("        final_scale: {:#010x},", h.final_scale.to_bits());
    println!("    }},");
}

#[test]
fn resnet20_two_epoch_history_matches_snapshot() {
    let bless = std::env::var("SRMAC_BLESS").is_ok();
    let mut failures = Vec::new();
    for g in GOLDEN {
        let h = run(g.name);
        if bless {
            print_bless_block(g.name, &h);
            continue;
        }
        let mut diff = |what: &str, same: bool, got: String, want: String| {
            if !same {
                failures.push(format!("[{}] {what}:\n  got  {got}\n  want {want}", g.name));
            }
        };
        diff(
            "train_loss bits",
            bits(&h.train_loss) == g.train_loss,
            format!("{:x?} ({:?})", bits(&h.train_loss), h.train_loss),
            format!("{:x?}", g.train_loss),
        );
        diff(
            "test_acc bits",
            bits(&h.test_acc) == g.test_acc,
            format!("{:x?} ({:?})", bits(&h.test_acc), h.test_acc),
            format!("{:x?}", g.test_acc),
        );
        diff(
            "skipped_steps",
            h.skipped_steps == g.skipped_steps,
            h.skipped_steps.to_string(),
            g.skipped_steps.to_string(),
        );
        diff(
            "nonfinite_batches",
            h.nonfinite_batches == g.nonfinite_batches,
            h.nonfinite_batches.to_string(),
            g.nonfinite_batches.to_string(),
        );
        diff(
            "final_scale bits",
            h.final_scale.to_bits() == g.final_scale,
            format!("{:#010x} ({})", h.final_scale.to_bits(), h.final_scale),
            format!("{:#010x}", g.final_scale),
        );
    }
    assert!(
        failures.is_empty(),
        "golden history drifted — if intentional, re-bless (see module docs):\n{}",
        failures.join("\n")
    );
}
