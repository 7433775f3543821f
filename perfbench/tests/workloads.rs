//! The benchmark's own checks: both tracing wrappers are bit-neutral,
//! every workload runs end to end at a tiny size with equal untraced and
//! traced digests, and the metric catalogue is well-formed and matches
//! `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::sync::Arc;

use srmac_models::{resnet, synth_cifar10, NUM_CLASSES};
use srmac_perfbench::metrics::{end_to_end, per_layer, valid_name};
use srmac_perfbench::trace::{traced_model, traced_numerics, TracedEngine};
use srmac_perfbench::{run, Options, Scale, WORKLOADS};
use srmac_qgemm::{engine_from_spec, numerics_from_spec};
use srmac_tensor::layers::Layer;
use srmac_tensor::{softmax_cross_entropy, GemmRole};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn ramp(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761) ^ seed) as f32 / u32::MAX as f32 - 0.5)
        .collect()
}

#[test]
fn traced_engine_is_bit_neutral_including_row_based_engines() {
    let plain = engine_from_spec("fp8_fp12_sr13").expect("valid atom");
    let traced = TracedEngine::wrap(Arc::clone(&plain), GemmRole::BackwardData);
    let (m, k, n) = (37, 70, 29);
    let (a, b) = (ramp(m * k, 1), ramp(k * n, 2));
    let mut want = vec![0.0; m * n];
    let mut got = vec![0.0; m * n];
    plain.gemm(m, k, n, &a, &b, &mut want);
    traced.gemm(m, k, n, &a, &b, &mut got);
    assert_eq!(bits(&want), bits(&got));

    let plain5 = plain.with_row_base(5).expect("SR engines derive");
    let traced5 = traced.with_row_base(5).expect("the wrapper derives too");
    plain5.gemm(m, k, n, &a, &b, &mut want);
    traced5.gemm(m, k, n, &a, &b, &mut got);
    assert_eq!(bits(&want), bits(&got));
    assert_eq!(traced.spec(), plain.spec());
    assert_eq!(traced.position_invariant(), plain.position_invariant());
}

#[test]
fn traced_model_and_its_replicas_are_bit_neutral() {
    let numerics = numerics_from_spec("fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13").expect("valid spec");
    let mut plain = resnet::resnet20_with(&numerics, 4, NUM_CLASSES, 3);
    let mut traced = traced_model(resnet::resnet20_with(
        &traced_numerics(&numerics),
        4,
        NUM_CLASSES,
        3,
    ));
    let (x, labels) = synth_cifar10(6, 8, 9).batch(&[0, 1, 2, 3, 4, 5]);
    for model in [&mut plain, &mut traced] {
        model.set_batch_offset(2);
    }
    let step = |model: &mut srmac_tensor::Sequential| {
        let logits = model.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let dx = model.backward(&grad);
        let mut grads = Vec::new();
        model.visit_params(&mut |p| grads.extend(bits(p.grad.data())));
        (bits(logits.data()), bits(dx.data()), grads)
    };
    assert_eq!(step(&mut plain), step(&mut traced));
    assert_eq!(plain.describe(), traced.describe());

    let mut plain_replica = plain.try_clone().expect("replicable");
    let mut traced_replica = traced.try_clone().expect("the wrapper clones");
    assert_eq!(step(&mut plain_replica), step(&mut traced_replica));
}

#[test]
fn every_workload_runs_tiny_with_equal_traced_and_untraced_digests() {
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Options {
                workload: workload.to_owned(),
                seed: 7,
                seconds: 1.0,
                trace,
                scale: Scale::Tiny,
                work_dir: work.join(format!("test-{workload}-{trace}")),
            };
            let out = run(&opts).expect("known workload");
            assert!(out.correct, "{workload}: {:?}", out.problems);
            assert_eq!(out.failed, 0, "{workload}");
            assert_eq!(out.digests.len(), if trace { 2 } else { 1 });
            let defs = if trace { per_layer() } else { end_to_end() };
            for d in &defs {
                let v = out.metrics.get(&d.name);
                if trace {
                    assert!(v.is_none_or(|v| v.is_finite()), "{workload} {}", d.name);
                } else {
                    assert!(v.is_some_and(|&v| v > 0.0), "{workload} {}: {v:?}", d.name);
                }
            }
            assert!(
                out.metrics
                    .keys()
                    .all(|k| defs.iter().any(|d| &d.name == k)),
                "{workload}: uncatalogued metric in {:?}",
                out.metrics.keys()
            );
        }
    }
    assert!(run(&Options {
        workload: "nope".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        scale: Scale::Tiny,
        work_dir: work.join("test-nope"),
    })
    .is_err());
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let defs: Vec<_> = end_to_end().into_iter().chain(per_layer()).collect();
    for d in &defs {
        assert!(valid_name(&d.name), "{}", d.name);
        assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
    }
    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let mut listed: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    let mut want: Vec<&str> = WORKLOADS.to_vec();
    want.extend(defs.iter().map(|d| d.name.as_str()));
    listed.sort_unstable();
    want.sort_unstable();
    assert_eq!(listed, want);
}
