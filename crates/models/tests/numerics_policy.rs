//! Cross-layer tests of the `Numerics` per-role policy API: sharing one
//! engine across roles must be invisible in the bits (full `History`
//! equality against one engine instance per role), per-role SR streams
//! must be seeded independently per role, and the serving layer must
//! reject position-variant forward engines with a typed error.

use srmac_models::serve::{InferenceServer, ServeConfig, ServeError};
use srmac_models::{data, evaluate, resnet, TrainConfig, Trainer};
use srmac_qgemm::{engine_from_spec, numerics_from_spec};
use srmac_tensor::{GemmRole, Numerics};

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 0.05,
        ..TrainConfig::default()
    }
}

#[test]
fn uniform_policy_reproduces_the_single_engine_history_bitwise() {
    // `Numerics::uniform(engine)` shares one engine object across roles.
    // Training through it must be indistinguishable — the whole History
    // (losses, accuracies, scaler trajectory), bit for bit — from a
    // per-role policy that gives every role its own instance of the same
    // engine, under both the exact engine and the paper's SR MAC (whose
    // streams would expose any state shared between roles through the
    // one object, any re-seeding or extra consumption immediately).
    let train_ds = data::synth_cifar10(64, 8, 1234);
    let test_ds = data::synth_cifar10(32, 8, 4321);
    for label in ["f32", "fp8_fp12_sr13"] {
        let engine = || engine_from_spec(label).expect("spec");
        let shared = Numerics::uniform(engine());
        let separate = GemmRole::ALL
            .iter()
            .fold(Numerics::builder(), |b, &role| b.role(role, engine()))
            .build()
            .expect("all roles assigned");
        let mut shared_net = resnet::resnet20_with(&shared, 4, 10, 77);
        let mut separate_net = resnet::resnet20_with(&separate, 4, 10, 77);
        let a = Trainer::new(&train_cfg()).run(&mut shared_net, &train_ds, &test_ds);
        let b = Trainer::new(&train_cfg()).run(&mut separate_net, &train_ds, &test_ds);
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.train_loss), bits(&b.train_loss), "{label}: loss");
        assert_eq!(bits(&a.test_acc), bits(&b.test_acc), "{label}: accuracy");
        assert_eq!(a.skipped_steps, b.skipped_steps, "{label}: skipped");
        assert_eq!(
            a.nonfinite_batches, b.nonfinite_batches,
            "{label}: nonfinite"
        );
        assert_eq!(
            a.final_scale.to_bits(),
            b.final_scale.to_bits(),
            "{label}: scale"
        );
    }
}

#[test]
fn per_role_sr_streams_are_seeded_independently() {
    // Three SR roles from the same atom must not share stream seeds (the
    // per-role seeding rule): each engine's spec atom carries its exact,
    // role-folded seed, so the three must be pairwise distinct — and all
    // different from the uniform policy's shared default seed.
    let per_role = numerics_from_spec("fwd=fp8_fp12_sr13;dgrad=fp8_fp12_sr13;wgrad=fp8_fp12_sr13")
        .expect("per-role spec");
    let specs: Vec<String> = GemmRole::ALL
        .iter()
        .map(|&r| per_role.engine(r).spec().expect("mac engines have specs"))
        .collect();
    assert_ne!(specs[0], specs[1]);
    assert_ne!(specs[0], specs[2]);
    assert_ne!(specs[1], specs[2]);

    let uniform = numerics_from_spec("fp8_fp12_sr13").expect("uniform spec");
    assert!(uniform.is_uniform(), "single-atom specs share one engine");
    let uniform_spec = uniform.engine(GemmRole::Forward).spec().expect("spec");
    assert!(
        uniform_spec.ends_with("_seed5eed"),
        "uniform engines keep the unfolded default seed, got {uniform_spec}"
    );
    assert!(specs.iter().all(|s| *s != uniform_spec));

    // An explicit seed token is used verbatim — no folding — so both
    // backward roles of `bwd=` pin the same stream seed.
    let pinned = numerics_from_spec("fwd=f32;bwd=fp8_fp12_sr13_seedff").expect("pinned spec");
    let d = pinned.engine(GemmRole::BackwardData).spec().expect("spec");
    let w = pinned
        .engine(GemmRole::BackwardWeight)
        .spec()
        .expect("spec");
    assert_eq!(d, w);
    assert!(d.ends_with("_seedff"), "explicit seeds are verbatim: {d}");
}

#[test]
fn mixed_policy_trains_and_diverges_from_uniform_rn() {
    // A mixed RN-forward / SR-backward policy must actually engage the SR
    // engines: its history cannot coincide with the all-RN run (the
    // backward rounding differs), while its forward-only evaluation of
    // the *same* weights is RN and therefore deterministic.
    let train_ds = data::synth_cifar10(48, 8, 21);
    let test_ds = data::synth_cifar10(32, 8, 22);
    let mixed = numerics_from_spec("fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13").expect("mixed");
    let rn = numerics_from_spec("fp8_fp12_rn").expect("rn");
    let mut mixed_net = resnet::resnet20_with(&mixed, 4, 10, 5);
    let mut rn_net = resnet::resnet20_with(&rn, 4, 10, 5);
    let hm = Trainer::new(&train_cfg()).run(&mut mixed_net, &train_ds, &test_ds);
    let hr = Trainer::new(&train_cfg()).run(&mut rn_net, &train_ds, &test_ds);
    assert_ne!(
        hm.train_loss
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        hr.train_loss
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "SR backward roles must change the training trajectory"
    );
    // Forward evaluation through the mixed policy is RN: repeatable.
    let a = evaluate(&mut mixed_net, &test_ds, 8);
    let b = evaluate(&mut mixed_net, &test_ds, 8);
    assert_eq!(a.to_bits(), b.to_bits());
}

#[test]
fn serving_rejects_stochastic_forward_engines_with_a_typed_error() {
    let size = 8;
    let sr = numerics_from_spec("fp8_fp12_sr13").expect("uniform SR");
    let model = resnet::resnet20_with(&sr, 4, 10, 3);
    let err = InferenceServer::start_with_numerics(model, size, ServeConfig::default(), &sr)
        .expect_err("SR forward engines break batch invariance");
    assert!(
        matches!(&err, ServeError::StochasticForward { engine } if engine.contains("SR")),
        "got {err:?}"
    );

    // A mismatched side-channel policy cannot bypass the guard: the model
    // itself carries SR forward engines, and the server inspects those
    // (Layer::visit_role_engines), not just the declared policy.
    let model = resnet::resnet20_with(&sr, 4, 10, 3);
    let rn = numerics_from_spec("fp8_fp12_rn").expect("rn policy");
    let err = InferenceServer::start_with_numerics(model, size, ServeConfig::default(), &rn)
        .expect_err("the model's own engines are authoritative");
    assert!(matches!(&err, ServeError::StochasticForward { engine } if engine.contains("SR")));

    // The mixed policy's forward role is RN: serving starts and serves.
    let mixed = numerics_from_spec("fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13").expect("mixed");
    let model = resnet::resnet20_with(&mixed, 4, 10, 3);
    let server = InferenceServer::start_with_numerics(model, size, ServeConfig::default(), &mixed)
        .expect("RN forward serves");
    let ds = data::synth_cifar10(3, size, 9);
    let (x, _) = ds.batch(&[0]);
    let p = server.client().predict(x.data().to_vec()).expect("predict");
    assert_eq!(p.logits.len(), 10);
    let (_, stats) = server.shutdown().expect("clean shutdown");
    assert_eq!(stats.requests, 1);
}
