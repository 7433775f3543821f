//! End-to-end checkpoint round trips on the paper's workloads: a trained
//! ResNet-20 (batch-norm running statistics and all) must save → load →
//! evaluate to *bitwise* identical logits and accuracy, under the exact
//! f32 engine and the low-precision MAC engine alike.

use std::sync::Arc;

use srmac_io::{load_model, read_checkpoint, save_model, Checkpoint, CheckpointMeta};
use srmac_models::{data, evaluate, resnet, TrainConfig, Trainer};
use srmac_qgemm::{numerics_from_spec, AccumRounding, MacGemm, MacGemmConfig};
use srmac_tensor::layers::Layer;
use srmac_tensor::{F32Engine, GemmEngine, Numerics, Sequential, Tensor};

fn ckpt_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("srmac_io_roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn logits_bits(model: &mut Sequential, x: &Tensor) -> Vec<u32> {
    model
        .forward(x, false)
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Trains a slim ResNet-20 for a couple of epochs (so batch-norm running
/// statistics and weights are all non-trivial), checkpoints it, restores
/// into a freshly built model, and demands bitwise equality of logits and
/// evaluation accuracy.
fn roundtrip_case(label: &str, engine: Arc<dyn GemmEngine>, cfg: Option<MacGemmConfig>) {
    let train_ds = data::synth_cifar10(60, 8, 5);
    let test_ds = data::synth_cifar10(40, 8, 6);
    let numerics = Numerics::uniform(engine);
    let mut model = resnet::resnet20_with(&numerics, 4, 10, 11);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 12,
        lr: 0.05,
        ..TrainConfig::default()
    };
    Trainer::new(&tc).run(&mut model, &train_ds, &test_ds);

    let path = ckpt_path(&format!("resnet20_{label}.srmc"));
    save_model(
        &path,
        &mut model,
        CheckpointMeta {
            arch: "resnet20-w4-c10".into(),
            engine: cfg,
            numerics: None,
        },
    )
    .expect("save");

    // A fresh differently-seeded model (different weights AND different
    // running stats) restored from the checkpoint.
    let mut restored = resnet::resnet20_with(&numerics, 4, 10, 999);
    let meta = load_model(&path, &mut restored).expect("load");
    assert_eq!(meta.arch, "resnet20-w4-c10");

    let (x, _) = test_ds.batch(&(0..8).collect::<Vec<_>>());
    assert_eq!(
        logits_bits(&mut model, &x),
        logits_bits(&mut restored, &x),
        "{label}: restored logits must match the source bit for bit"
    );
    let acc_src = evaluate(&mut model, &test_ds, 10);
    let acc_restored = evaluate(&mut restored, &test_ds, 10);
    assert_eq!(
        acc_src.to_bits(),
        acc_restored.to_bits(),
        "{label}: restored accuracy must match bitwise"
    );

    // Saving the restored model reproduces the original file byte for
    // byte: the format is a pure function of model state.
    let path2 = ckpt_path(&format!("resnet20_{label}_resaved.srmc"));
    save_model(
        &path2,
        &mut restored,
        CheckpointMeta {
            arch: "resnet20-w4-c10".into(),
            engine: cfg,
            numerics: None,
        },
    )
    .expect("re-save");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&path2).unwrap(),
        "{label}: re-encoding a restored model must be byte-identical"
    );
    std::fs::remove_file(path).ok();
    std::fs::remove_file(path2).ok();
}

#[test]
fn resnet20_f32_roundtrip_is_bitwise() {
    roundtrip_case("f32", Arc::new(F32Engine::new(2)), None);
}

#[test]
fn resnet20_mac_sr_roundtrip_is_bitwise() {
    // The paper's best MAC: the SR streams make training nondeterministic
    // across seeds but perfectly deterministic for a fixed config, and the
    // checkpoint must restore the weights such that eval logits (computed
    // through the same SR engine) are bitwise identical.
    let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_threads(2);
    roundtrip_case("mac_sr13", Arc::new(MacGemm::new(cfg)), Some(cfg));
}

#[test]
fn engine_meta_rebuilds_the_same_engine() {
    // The stored MacGemmConfig is enough to rebuild an engine that
    // produces bitwise-identical products — the "load on a fresh process"
    // story: nothing about the engine lives outside the checkpoint.
    let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_seed(42);
    let mut model =
        resnet::resnet20_with(&Numerics::uniform(Arc::new(MacGemm::new(cfg))), 4, 10, 7);
    let path = ckpt_path("engine_meta.srmc");
    save_model(
        &path,
        &mut model,
        CheckpointMeta {
            arch: "resnet20-w4-c10".into(),
            engine: Some(cfg),
            numerics: None,
        },
    )
    .expect("save");

    let ckpt = read_checkpoint(&path).expect("read");
    let restored_cfg = ckpt.meta.engine.expect("engine meta present");
    let rebuilt = Numerics::uniform(Arc::new(MacGemm::new(restored_cfg)));
    let mut restored = resnet::resnet20_with(&rebuilt, 4, 10, 7);
    ckpt.apply_to(&mut restored).expect("apply");

    let test_ds = data::synth_cifar10(20, 8, 9);
    let (x, _) = test_ds.batch(&[0, 3, 5]);
    assert_eq!(
        logits_bits(&mut model, &x),
        logits_bits(&mut restored, &x),
        "an engine rebuilt from checkpoint metadata must reproduce logits bitwise"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn checkpoint_captures_batchnorm_running_stats() {
    // Zero out a restored model's running stats first and verify the load
    // actually brings the trained statistics back (if visit_state were
    // skipped this test would fail while pure-weight tests still passed).
    let numerics = Numerics::uniform(Arc::new(F32Engine::new(1)));
    let mut model = resnet::resnet20_with(&numerics, 4, 10, 3);
    let train_ds = data::synth_cifar10(30, 8, 1);
    let test_ds = data::synth_cifar10(20, 8, 2);
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 10,
        ..TrainConfig::default()
    };
    Trainer::new(&tc).run(&mut model, &train_ds, &test_ds);

    let meta = CheckpointMeta {
        arch: "resnet20-w4-c10".into(),
        engine: None,
        numerics: None,
    };
    let ckpt = Checkpoint::capture(&mut model, meta);
    let stored_state: Vec<Vec<f32>> = ckpt.layers.iter().flat_map(|l| l.state.clone()).collect();
    assert!(
        stored_state.iter().flatten().any(|&v| v != 0.0 && v != 1.0),
        "trained running stats should have moved off their init values"
    );

    let mut restored = resnet::resnet20_with(&numerics, 4, 10, 3);
    restored.visit_state(&mut |s| s.iter_mut().for_each(|v| *v = 0.0));
    ckpt.apply_to(&mut restored).expect("apply");
    let mut roundtripped: Vec<Vec<f32>> = Vec::new();
    restored.visit_state(&mut |s| roundtripped.push(s.clone()));
    assert_eq!(stored_state, roundtripped);
}

/// A faithful version-1 writer for back-compat testing: the v1 layout is
/// exactly the current layout minus the numerics field (v2) and the
/// train-state field (v3), so we take the current bytes of a policy-free,
/// state-free checkpoint, drop those two tag bytes, stamp version 1, and
/// re-checksum.
fn downgrade_to_v1(cur: &[u8], arch_len: usize, has_engine: bool) -> Vec<u8> {
    let mut body = cur[..cur.len() - 8].to_vec();
    // magic(4) + version(2) + flags(2) + len(4) + arch + engine record.
    let numerics_tag = 12 + arch_len + 1 + if has_engine { 16 } else { 0 };
    assert_eq!(body[numerics_tag], 0, "fixture must carry no numerics");
    assert_eq!(
        body[numerics_tag + 1],
        0,
        "fixture must carry no train state"
    );
    body.remove(numerics_tag + 1);
    body.remove(numerics_tag);
    body[4..6].copy_from_slice(&1u16.to_le_bytes());
    let checksum = srmac_io::fnv1a64(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// The v2 layout is the current one minus the train-state field.
fn downgrade_to_v2(cur: &[u8], arch_len: usize, has_engine: bool) -> Vec<u8> {
    let mut body = cur[..cur.len() - 8].to_vec();
    let numerics_tag = 12 + arch_len + 1 + if has_engine { 16 } else { 0 };
    let numerics_len = match body[numerics_tag] {
        0 => 1,
        _ => {
            let len =
                u32::from_le_bytes(body[numerics_tag + 1..numerics_tag + 5].try_into().unwrap())
                    as usize;
            1 + 4 + len
        }
    };
    let train_tag = numerics_tag + numerics_len;
    assert_eq!(body[train_tag], 0, "fixture must carry no train state");
    body.remove(train_tag);
    body[4..6].copy_from_slice(&2u16.to_le_bytes());
    let checksum = srmac_io::fnv1a64(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

#[test]
fn v2_stores_and_revalidates_the_numerics_policy() {
    let spec = "fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13";
    let numerics = srmac_qgemm::numerics_from_spec(spec).expect("mixed spec");
    let mut model = resnet::resnet20_with(&numerics, 4, 10, 31);
    let path = ckpt_path("policy_v2.srmc");
    save_model(
        &path,
        &mut model,
        CheckpointMeta {
            arch: "resnet20-w4-c10".into(),
            engine: None,
            numerics: Some(spec.into()),
        },
    )
    .expect("save");

    // The policy survives the round trip and rebuilds the exact engines.
    let ckpt = read_checkpoint(&path).expect("read");
    assert_eq!(ckpt.meta.numerics.as_deref(), Some(spec));
    let rebuilt = srmac_qgemm::numerics_from_spec(ckpt.meta.numerics.as_deref().unwrap())
        .expect("stored spec resolves");
    for role in srmac_tensor::GemmRole::ALL {
        assert_eq!(
            rebuilt.engine(role).spec(),
            numerics.engine(role).spec(),
            "{role}: rebuilt engine must match the training engine exactly"
        );
    }
    let mut restored = resnet::resnet20_with(&rebuilt, 4, 10, 999);
    load_model(&path, &mut restored).expect("load");
    let (x, _) = data::synth_cifar10(4, 8, 7).batch(&[0, 1, 2, 3]);
    assert_eq!(logits_bits(&mut model, &x), logits_bits(&mut restored, &x));
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_1_checkpoints_still_decode() {
    let numerics = Numerics::uniform(Arc::new(F32Engine::new(1)));
    let mut model = resnet::resnet20_with(&numerics, 4, 10, 13);
    let arch = "resnet20-w4-c10";
    let cfg = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false).with_seed(9);
    let v2 = Checkpoint::capture(
        &mut model,
        CheckpointMeta {
            arch: arch.into(),
            engine: Some(cfg),
            numerics: None,
        },
    )
    .encode();
    let v1 = downgrade_to_v1(&v2, arch.len(), true);

    let ckpt = Checkpoint::decode(&v1).expect("v1 decodes");
    assert_eq!(ckpt.meta.arch, arch);
    assert_eq!(ckpt.meta.numerics, None, "v1 carries no policy");
    assert!(ckpt.train.is_none(), "v1 carries no train state");
    let eng = ckpt.meta.engine.expect("v1 engine record");
    assert_eq!(eng.seed, 9);
    let mut restored = resnet::resnet20_with(&numerics, 4, 10, 999);
    ckpt.apply_to(&mut restored).expect("apply");
    let (x, _) = data::synth_cifar10(2, 8, 3).batch(&[0, 1]);
    assert_eq!(logits_bits(&mut model, &x), logits_bits(&mut restored, &x));

    // v2 (numerics, no train state) decodes as well.
    let v2_bytes = downgrade_to_v2(&v2, arch.len(), true);
    let ckpt2 = Checkpoint::decode(&v2_bytes).expect("v2 decodes");
    assert_eq!(ckpt2.meta.arch, arch);
    assert!(ckpt2.train.is_none(), "v2 carries no train state");
    assert_eq!(srmac_io::wire_version(&v2_bytes).unwrap(), 2);

    // Versions beyond the writer's remain typed errors.
    let mut future = v2.clone();
    let body_len = future.len() - 8;
    future[4..6].copy_from_slice(&4u16.to_le_bytes());
    let checksum = srmac_io::fnv1a64(&future[..body_len]);
    future[body_len..].copy_from_slice(&checksum.to_le_bytes());
    assert!(matches!(
        Checkpoint::decode(&future),
        Err(srmac_io::CheckpointError::UnsupportedVersion(4))
    ));
}

#[test]
fn hostile_policy_specs_are_typed_errors_never_panics() {
    let numerics = Numerics::uniform(Arc::new(F32Engine::new(1)));
    let mut model = resnet::resnet20_with(&numerics, 4, 10, 17);
    let arch = "a";
    let good_spec = "fwd=f32;bwd=f32";
    let bytes = Checkpoint::capture(
        &mut model,
        CheckpointMeta {
            arch: arch.into(),
            engine: None,
            numerics: Some(good_spec.into()),
        },
    )
    .encode();

    // Corrupt the spec in place (same length, bad role key) and fix the
    // checksum: decoding must reject it as a typed policy error.
    let pos = bytes
        .windows(good_spec.len())
        .position(|w| w == good_spec.as_bytes())
        .expect("spec bytes present");
    let mut bad = bytes.clone();
    bad[pos] = b'q'; // "qwd=f32;bwd=f32"
    let body_len = bad.len() - 8;
    let checksum = srmac_io::fnv1a64(&bad[..body_len]);
    bad[body_len..].copy_from_slice(&checksum.to_le_bytes());
    assert!(matches!(
        Checkpoint::decode(&bad),
        Err(srmac_io::CheckpointError::BadPolicySpec { .. })
    ));

    // Same for a structurally valid policy whose atom is garbage.
    let mut bad_atom = bytes;
    bad_atom[pos + 4] = b'g'; // "fwd=g32;bwd=f32"
    let checksum = srmac_io::fnv1a64(&bad_atom[..body_len]);
    bad_atom[body_len..].copy_from_slice(&checksum.to_le_bytes());
    assert!(matches!(
        Checkpoint::decode(&bad_atom),
        Err(srmac_io::CheckpointError::BadPolicySpec { .. })
    ));
}

#[test]
fn save_model_rejects_bad_policy_specs_as_typed_errors() {
    // The fallible save path validates caller-supplied policy strings
    // up front (the panic inside `encode` is only the backstop for
    // direct misuse of the lower-level API, tested below), and it
    // accepts exactly the specs the engine rebuild accepts.
    let numerics = Numerics::uniform(Arc::new(F32Engine::new(1)));
    let mut model = resnet::resnet20_with(&numerics, 4, 10, 23);
    for (spec, valid) in [
        ("f32", true),
        ("fwd=f32;bwd=fp8_fp12_sr13", true),
        (" fwd = f32 ; bwd = f32 ", true),
        ("fp8_e6m5_sr13_seed7", true),
        ("warp9", false),
        ("fwd=warp9;bwd=f32", false),
        ("fp8_fp12_sr31", false),
        ("fp16_fp12_rn", false),
        ("fwd=f32", false),
        ("fwd=f32;fwd=f32;bwd=f32", false),
    ] {
        assert_eq!(numerics_from_spec(spec).is_ok(), valid, "{spec:?}");
        let path = ckpt_path("policy_table.srmc");
        let _ = std::fs::remove_file(&path);
        let saved = save_model(
            &path,
            &mut model,
            CheckpointMeta {
                arch: "a".into(),
                engine: None,
                numerics: Some(spec.into()),
            },
        );
        if valid {
            saved.unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            let meta = read_checkpoint(&path).expect("read back").meta;
            assert_eq!(meta.numerics.as_deref(), Some(spec), "stored verbatim");
        } else {
            assert!(
                matches!(saved, Err(srmac_io::CheckpointError::BadPolicySpec { .. })),
                "{spec:?}"
            );
            assert!(!path.exists(), "{spec:?}: nothing may be written");
        }
    }
}

#[test]
#[should_panic(expected = "cannot serialize numerics spec")]
fn writer_refuses_unresolvable_policy_specs() {
    let numerics = Numerics::uniform(Arc::new(F32Engine::new(1)));
    let mut model = resnet::resnet20_with(&numerics, 4, 10, 19);
    let _ = Checkpoint::capture(
        &mut model,
        CheckpointMeta {
            arch: "a".into(),
            engine: None,
            numerics: Some("fwd=warp9;bwd=f32".into()),
        },
    )
    .encode();
}
