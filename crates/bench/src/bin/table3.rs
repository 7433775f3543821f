//! Table III: impact of number format (E, M) and random bits r on accuracy
//! when training ResNet-20 on (Synth)CIFAR10.
//!
//! Every GEMM of the forward and backward passes runs on the bit-exact MAC
//! emulation of the row's configuration. The paper's accuracies (full-scale
//! CIFAR-10, 165 epochs, width-16 ResNet-20) are printed alongside; compare
//! the *shape* — which configurations track the FP32 baseline, and where
//! accuracy collapses — not absolute values (the synthetic stand-in data
//! is argued in `srmac_models::data`, the laptop-scale defaults in this
//! crate's docs).

#![forbid(unsafe_code)]

use std::time::Instant;

use srmac_bench::configs::AccumSetup;
use srmac_bench::{run_training, table, Scale};
use srmac_models::{data, resnet};
use srmac_tensor::available_threads;

fn main() {
    let scale = Scale::from_env();
    let threads = srmac_bench::env_or("SRMAC_THREADS", available_threads());
    println!(
        "Table III — ResNet-20(width {}) on SynthCIFAR10 ({} train / {} test, {}x{}, {} epochs)",
        scale.width, scale.train_n, scale.test_n, scale.size, scale.size, scale.epochs
    );
    println!("paper: ResNet-20(16) on CIFAR-10, 165 epochs; compare shape, not absolutes\n");

    let train_ds = data::synth_cifar10(scale.train_n, scale.size, scale.seed);
    let test_ds = data::synth_cifar10(scale.test_n, scale.size, scale.seed + 1);
    let cfg = scale.train_config();

    let mut rows = Vec::new();
    for (setup, paper_acc) in AccumSetup::table3_rows() {
        let started = Instant::now();
        let engine = setup.engine(scale.seed * 7919 + 13, threads);
        let h = run_training(
            |n| resnet::resnet20_with(n, scale.width, data::NUM_CLASSES, scale.seed),
            engine,
            &train_ds,
            &test_ds,
            &cfg,
        );
        let secs = started.elapsed().as_secs_f64();
        eprintln!(
            "  [{:<26}] acc {:>6.2}%  best {:>6.2}%  ({} skipped, {:.1}s)",
            setup.label(),
            h.final_accuracy(),
            h.best_accuracy(),
            h.skipped_steps,
            secs
        );
        rows.push(vec![
            setup.label(),
            format!("{:.2}", h.final_accuracy()),
            format!("{:.2}", h.best_accuracy()),
            format!("{paper_acc:.2}"),
        ]);
    }

    println!(
        "{}",
        table::render(
            &["Configuration", "Accuracy (%)", "Best (%)", "Paper (%)"],
            &rows
        )
    );
    println!("note: SRMAC_TRAIN/SRMAC_EPOCHS/SRMAC_WIDTH/SRMAC_SIZE scale the run up toward the paper's setting.");
}
