// The demo reports wall-clock per experiment (clippy.toml bans
// wall-clock only for numerics code).
#![allow(clippy::disallowed_methods)]
//! End-to-end low-precision training demo — the full production loop on
//! the `Numerics` policy API: each experiment is **one spec string**
//! (FP32 baseline, RN, the paper's eager-SR pick, and a mixed per-role
//! policy with RN forward / SR backward), trained on a slim ResNet-20
//! over synthetic CIFAR-10-like data with every GEMM on the bit-exact
//! FP8xFP8->FP12 MAC emulation. The checkpointable policies then **save**
//! to a deterministic binary checkpoint carrying the full per-role
//! policy, **reload** into a fresh model whose engines are rebuilt from
//! the checkpoint metadata alone (verifying the bitwise round trip), and
//! **serve** through the micro-batching inference server — which now
//! *rejects* stochastic-rounding forward engines with a typed error
//! instead of silently breaking batch invariance (demonstrated on the
//! uniform SR policy, then worked around by re-serving those weights
//! through an RN-forward policy).
//!
//! Training is also **crash-tolerant**: a default in-process demo
//! interrupts an SR run mid-epoch, resumes it from the keep-K checkpoint
//! rotation, and verifies the completed history is bit-identical to an
//! uninterrupted run. The same path is drivable across real process
//! boundaries: `SRMAC_CKPT_EVERY=2 SRMAC_HALT_AFTER=4` trains and
//! hard-exits with code 42 (the simulated crash), then `SRMAC_RESUME=1`
//! in a fresh process resumes from the rotation set and re-verifies the
//! bits (the CI `train_resume` leg does exactly this).
//!
//! Run with: `cargo run --release --example train_lowprec`
//! (set SRMAC_TRAIN / SRMAC_EPOCHS / ... to scale; see crates/bench docs)

use srmac::io::{load_model, read_checkpoint, save_model, CheckpointMeta};
use srmac::models::serve::{InferenceServer, ServeConfig};
use srmac::models::{data, resnet, trainer, TrainConfig, Trainer};
use srmac::qgemm::numerics_from_spec;
use srmac::tensor::{Numerics, Sequential};

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Serves `n_serve` test samples through the replicated micro-batching
/// server (`SRMAC_SERVE_WORKERS` replicas, default 2 — CoW clones
/// sharing one set of weights) and prints throughput, latency
/// percentiles and serving accuracy.
fn serve_model(model: Sequential, numerics: &Numerics, size: usize, ds: &data::Dataset) {
    let workers = env_or("SRMAC_SERVE_WORKERS", 2usize);
    let server = InferenceServer::start_with_numerics(
        model,
        size,
        ServeConfig {
            workers,
            max_batch: 8,
            max_wait_items: 8,
            ..ServeConfig::default()
        },
        numerics,
    )
    .expect("forward engine is position-invariant");
    let client = server.client();
    let n_serve = ds.len().min(64);
    let started = std::time::Instant::now();
    let pending: Vec<_> = (0..n_serve)
        .map(|i| {
            let (x, _) = ds.batch(&[i]);
            client.submit(x.data().to_vec()).expect("submit")
        })
        .collect();
    let correct = pending
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let pred = p.wait().expect("prediction");
            usize::from(pred.argmax == ds.labels()[i])
        })
        .sum::<usize>();
    let elapsed = started.elapsed();
    let (_, stats) = server.shutdown().expect("no worker panicked");
    println!(
        "served {} requests in {} dynamic batches (largest {}) across {} worker(s) \
         in {:.0} ms ({:.1} req/s, serving accuracy {:.2}%)",
        stats.requests,
        stats.batches,
        stats.max_batch_seen,
        stats.workers,
        elapsed.as_secs_f64() * 1e3,
        stats.requests as f64 / elapsed.as_secs_f64(),
        100.0 * correct as f32 / n_serve as f32,
    );
    // The observability surface: per-stage latency percentiles from the
    // server's log2-bucketed histograms.
    println!("  {stats}");
}

/// Demonstrates the data-parallel determinism contract on a scaled-down
/// run of the paper's pick: at a pinned gradient-shard count, a
/// single-replica and a four-replica trainer must produce the *same
/// bits* — the replica count is pure scheduling.
fn replica_determinism_demo(width: usize, size: usize) {
    println!("-- data-parallel determinism (fp8_fp12_sr13, grad_shards=4) --");
    let run = |replicas: usize| {
        let numerics = numerics_from_spec("fp8_fp12_sr13").expect("paper's pick");
        let mut net = resnet::resnet20_with(&numerics, width, data::NUM_CLASSES, 42);
        let train_ds = data::synth_cifar10(96, size, 5);
        let test_ds = data::synth_cifar10(48, size, 6);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.1,
            replicas,
            grad_shards: 4,
            ..TrainConfig::default()
        };
        Trainer::new(&cfg).run(&mut net, &train_ds, &test_ds)
    };
    let (h1, h4) = (run(1), run(4));
    let bits = |h: &trainer::History| {
        h.train_loss
            .iter()
            .chain(&h.test_acc)
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&h1),
        bits(&h4),
        "replica count must not change training bits at fixed grad_shards"
    );
    println!(
        "1 replica and 4 replicas agree bit-for-bit: losses {:?}, final acc {:.2}%\n",
        h1.train_loss,
        h4.final_accuracy()
    );
}

/// The fixed scaled-down run the crash-recovery paths share: the paper's
/// SR pick on a slim ResNet-20, small enough to interrupt and resume in
/// seconds, stochastic enough that bit-equality is a real claim.
fn recovery_setup(
    width: usize,
    size: usize,
) -> (Sequential, data::Dataset, data::Dataset, TrainConfig) {
    let numerics = numerics_from_spec("fp8_fp12_sr13").expect("paper's pick");
    let net = resnet::resnet20_with(&numerics, width, data::NUM_CLASSES, 42);
    let train_ds = data::synth_cifar10(60, size, 7);
    let test_ds = data::synth_cifar10(30, size, 8);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 10,
        lr: 0.05,
        ..TrainConfig::default()
    };
    (net, train_ds, test_ds, cfg)
}

fn recovery_meta(width: usize) -> CheckpointMeta {
    CheckpointMeta {
        arch: format!("resnet20-w{width}-c{}", data::NUM_CLASSES),
        engine: None,
        numerics: Some("fp8_fp12_sr13".into()),
    }
}

fn history_bits(h: &trainer::History) -> Vec<u32> {
    h.train_loss
        .iter()
        .chain(&h.test_acc)
        .chain(std::iter::once(&h.final_scale))
        .map(|v| v.to_bits())
        .collect()
}

/// In-process interrupt -> resume -> bit-equal demo (runs by default).
fn crash_recovery_demo(width: usize, size: usize) {
    println!("-- crash-tolerant training (fp8_fp12_sr13, kill at step 4) --");
    let path = std::env::temp_dir().join("srmac_train_lowprec_demo_ckpt.srmc");
    let (mut golden_net, train_ds, test_ds, cfg) = recovery_setup(width, size);
    let golden = Trainer::new(&cfg).run(&mut golden_net, &train_ds, &test_ds);

    let (mut victim, _, _, _) = recovery_setup(width, size);
    Trainer::new(&cfg)
        .checkpoint_every(2, &path, recovery_meta(width))
        .halt_after(4)
        .run(&mut victim, &train_ds, &test_ds);

    let (mut revived, _, _, _) = recovery_setup(width, size);
    let resumed = Trainer::resume(&path, &mut revived)
        .expect("rotation set holds a valid checkpoint")
        .run(&mut revived, &train_ds, &test_ds);
    assert_eq!(
        history_bits(&golden),
        history_bits(&resumed),
        "resumed history must be bitwise identical to the uninterrupted run"
    );
    println!(
        "interrupted at step 4, resumed from the rotation set: {} epochs, final acc {:.2}% — \
         bit-identical to the uninterrupted run\n",
        resumed.epochs(),
        resumed.final_accuracy()
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(std::env::temp_dir().join("srmac_train_lowprec_demo_ckpt.1.srmc")).ok();
    std::fs::remove_file(std::env::temp_dir().join("srmac_train_lowprec_demo_ckpt.2.srmc")).ok();
}

/// The cross-process crash/resume driver behind SRMAC_CKPT_EVERY /
/// SRMAC_HALT_AFTER / SRMAC_RESUME (see the module docs). Returns the
/// process exit code.
fn crash_recovery_cli(
    every: usize,
    keep: usize,
    halt: usize,
    resume: bool,
    width: usize,
    size: usize,
) -> i32 {
    let path = std::env::temp_dir().join("srmac_train_lowprec_ckpt.srmc");
    let (_, train_ds, test_ds, cfg) = recovery_setup(width, size);
    if resume {
        let (mut revived, _, _, _) = recovery_setup(width, size);
        let resumed = match Trainer::resume(&path, &mut revived) {
            Ok(t) => t.run(&mut revived, &train_ds, &test_ds),
            Err(e) => {
                eprintln!("resume failed: {e}");
                return 1;
            }
        };
        // The golden run, recomputed in this process: the resumed history
        // crossed a real process boundary and must still match its bits.
        let (mut golden_net, _, _, _) = recovery_setup(width, size);
        let golden = Trainer::new(&cfg).run(&mut golden_net, &train_ds, &test_ds);
        if history_bits(&golden) != history_bits(&resumed) {
            eprintln!("resumed history diverged from the uninterrupted run");
            return 1;
        }
        println!(
            "resumed across the process boundary: {} epochs, final acc {:.2}% — bit-identical",
            resumed.epochs(),
            resumed.final_accuracy()
        );
        return 0;
    }
    let (mut model, _, _, _) = recovery_setup(width, size);
    let t = Trainer::new(&cfg)
        .checkpoint_every(every.max(1), &path, recovery_meta(width))
        .with_keep(keep.max(1));
    let t = if halt > 0 { t.halt_after(halt) } else { t };
    let h = t.run(&mut model, &train_ds, &test_ds);
    if halt > 0 {
        println!("halted after {halt} steps (simulated crash, exit 42)");
        return 42;
    }
    println!(
        "trained to completion: final acc {:.2}%",
        h.final_accuracy()
    );
    0
}

fn main() {
    // Cross-process crash/resume mode (the CI train_resume leg).
    let ckpt_every: usize = env_or("SRMAC_CKPT_EVERY", 0);
    let ckpt_keep: usize = env_or("SRMAC_CKPT_KEEP", 3);
    let halt_after: usize = env_or("SRMAC_HALT_AFTER", 0);
    let resume: usize = env_or("SRMAC_RESUME", 0);
    if ckpt_every > 0 || resume > 0 {
        let width: usize = env_or("SRMAC_WIDTH", 4);
        let size: usize = env_or("SRMAC_SIZE", 12);
        std::process::exit(crash_recovery_cli(
            ckpt_every,
            ckpt_keep,
            halt_after,
            resume > 0,
            width,
            size,
        ));
    }

    let train_n: usize = env_or("SRMAC_TRAIN", 300);
    let test_n: usize = env_or("SRMAC_TEST", 150);
    let epochs: usize = env_or("SRMAC_EPOCHS", 6);
    let size: usize = env_or("SRMAC_SIZE", 12);
    let width: usize = env_or("SRMAC_WIDTH", 4);
    // Data-parallel knobs: replicas fan the step out; grad_shards pins the
    // numerics (0 = follow replicas; pin it to compare replica counts
    // bit-for-bit).
    let replicas: usize = env_or("SRMAC_REPLICAS", 1);
    let grad_shards: usize = env_or("SRMAC_GRAD_SHARDS", 0);

    let train_ds = data::synth_cifar10(train_n, size, 1);
    let test_ds = data::synth_cifar10(test_n, size, 2);
    let cfg = TrainConfig {
        epochs,
        batch_size: 16,
        lr: 0.1,
        replicas,
        grad_shards,
        ..TrainConfig::default()
    };

    // One spec string per experiment row — the whole mixed-precision
    // setup, resolvable again from checkpoint metadata.
    let experiments: [(&str, &str, bool); 4] = [
        ("FP32 baseline (f32 GEMM)", "f32", false),
        ("FP8 -> FP12 RN W/ Sub", "fp8_fp12_rn_sub", false),
        (
            "FP8 -> FP12 SR r=13 W/O Sub (paper's pick)",
            "fp8_fp12_sr13",
            true,
        ),
        (
            "Mixed policy: RN forward, SR r=13 backward",
            "fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13",
            true,
        ),
    ];

    println!(
        "training ResNet-20(width {width}) on SynthCIFAR10 ({train_n} train / {test_n} test, {size}x{size}, {epochs} epochs, {replicas} replica(s))\n"
    );
    replica_determinism_demo(width, size);
    crash_recovery_demo(width, size);
    let ckpt_path = std::env::temp_dir().join("srmac_train_lowprec.srmc");
    for (label, spec, roundtrip) in experiments {
        let numerics = numerics_from_spec(spec).expect("valid experiment spec");
        let started = std::time::Instant::now();
        let mut net = resnet::resnet20_with(&numerics, width, data::NUM_CLASSES, 42);
        let h = Trainer::new(&cfg).run(&mut net, &train_ds, &test_ds);
        println!(
            "{label:<44} final {:>6.2}%  best {:>6.2}%  ({:.0}s, {} skipped steps)",
            h.final_accuracy(),
            h.best_accuracy(),
            started.elapsed().as_secs_f64(),
            h.skipped_steps
        );
        // Every conv/linear product above ran on the engine its GEMM role
        // resolved to under `spec`. The checkpointable configurations
        // continue into the save -> load -> serve round trip below.
        if !roundtrip {
            continue;
        }

        println!("\n-- checkpoint round trip ({spec}) --");
        let final_acc = h.final_accuracy();
        save_model(
            &ckpt_path,
            &mut net,
            CheckpointMeta {
                arch: format!("resnet20-w{width}-c{}", data::NUM_CLASSES),
                engine: None,
                numerics: Some(numerics.to_spec().expect("spec-built policy")),
            },
        )
        .expect("save checkpoint");
        let bytes = std::fs::metadata(&ckpt_path).map(|m| m.len()).unwrap_or(0);

        // A fresh process would rebuild the whole per-role policy from the
        // checkpoint metadata; we do exactly that, into a differently-seeded
        // model.
        let meta = read_checkpoint(&ckpt_path).expect("read checkpoint").meta;
        let restored_numerics =
            numerics_from_spec(meta.numerics.as_deref().expect("numerics meta"))
                .expect("checkpointed spec resolves");
        let mut restored =
            resnet::resnet20_with(&restored_numerics, width, data::NUM_CLASSES, 7777);
        load_model(&ckpt_path, &mut restored).expect("load checkpoint");
        let restored_acc = trainer::evaluate(&mut restored, &test_ds, cfg.batch_size);
        assert_eq!(
            final_acc.to_bits(),
            restored_acc.to_bits(),
            "restored accuracy must be bitwise identical"
        );
        println!(
            "saved {bytes} bytes -> reloaded -> accuracy {restored_acc:.2}% (bitwise identical)"
        );

        println!("-- micro-batched serving --");
        match restored_numerics.forward_position_invariant() {
            Ok(()) => serve_model(restored, &restored_numerics, size, &test_ds),
            Err(engine) => {
                // The uniform SR policy lands here: serving through an SR
                // forward engine would silently break batch invariance, so
                // the server refuses it as a typed error...
                let err = InferenceServer::start_with_numerics(
                    restored,
                    size,
                    ServeConfig::default(),
                    &restored_numerics,
                )
                .expect_err("SR forward engines must be rejected");
                println!("serving rejected as expected: {err}");
                // ...and the same checkpointed weights serve deterministically
                // through an RN-forward policy instead (inference uses only
                // the forward role).
                let serve_numerics =
                    numerics_from_spec("fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13").expect("serving spec");
                let mut rn_model =
                    resnet::resnet20_with(&serve_numerics, width, data::NUM_CLASSES, 7777);
                load_model(&ckpt_path, &mut rn_model).expect("reload for serving");
                println!("re-serving {engine:?}-trained weights through an RN forward engine:");
                serve_model(rn_model, &serve_numerics, size, &test_ds);
            }
        }
        std::fs::remove_file(&ckpt_path).ok();
        println!();
    }
}
