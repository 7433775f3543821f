//! Table IV: accuracy for the larger models — VGG16 on (Synth)CIFAR10 and
//! ResNet-50 on (Synth)Imagewoof — for FP32, RN FP16, and the recommended
//! SR E6M5 r=13 W/O Sub configuration.

#![forbid(unsafe_code)]

use std::time::Instant;

use srmac_bench::configs::AccumSetup;
use srmac_bench::{env_or, run_training, table, Scale};
use srmac_models::{data, resnet, vgg};
use srmac_tensor::available_threads;

fn rows() -> Vec<(AccumSetup, f64, f64)> {
    // (setup, paper VGG16 acc, paper ResNet-50 acc)
    vec![
        (AccumSetup::Fp32Baseline, 93.46, 80.94),
        (
            AccumSetup::Rn {
                e: 5,
                m: 10,
                subnormals: true,
            },
            93.06,
            80.3,
        ),
        (
            AccumSetup::Sr {
                e: 6,
                m: 5,
                r: 13,
                subnormals: false,
            },
            93.11,
            80.33,
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    let threads = env_or("SRMAC_THREADS", available_threads());
    let vgg_div: usize = env_or("SRMAC_VGG_DIV", 16);
    let vgg_size: usize = env_or("SRMAC_VGG_SIZE", 32);
    let r50_width: usize = env_or("SRMAC_R50_WIDTH", 4);
    let epochs = env_or("SRMAC_EPOCHS", 8usize);

    println!("Table IV — VGG16(1/{vgg_div} width)/SynthCIFAR10 and ResNet-50(width {r50_width})/SynthImagewoof");
    println!(
        "({} train / {} test, {epochs} epochs; paper: full models, 200/100 epochs on CIFAR-10/Imagewoof)\n",
        scale.train_n, scale.test_n
    );

    let mut cfg = scale.train_config();
    cfg.epochs = epochs;
    // The paper: VGG16 uses lr 0.01 / wd 5e-4; ResNet-50 lr 0.01, batch 16.
    let mut vgg_cfg = cfg;
    vgg_cfg.lr = env_or("SRMAC_VGG_LR", 0.02f32);
    vgg_cfg.weight_decay = 5e-4;
    let mut r50_cfg = cfg;
    r50_cfg.lr = env_or("SRMAC_R50_LR", 0.05f32);
    r50_cfg.batch_size = 16;

    let vgg_train = data::synth_cifar10(scale.train_n, vgg_size, scale.seed + 20);
    let vgg_test = data::synth_cifar10(scale.test_n, vgg_size, scale.seed + 21);
    let woof_train = data::synth_imagewoof(scale.train_n, scale.size.max(16), scale.seed + 30);
    let woof_test = data::synth_imagewoof(scale.test_n, scale.size.max(16), scale.seed + 31);

    let mut out_rows = Vec::new();
    for (setup, paper_vgg, paper_r50) in rows() {
        let t0 = Instant::now();
        let vgg_h = run_training(
            |n| vgg::vgg16_with(n, vgg_div, data::NUM_CLASSES, vgg_size, scale.seed),
            setup.engine(scale.seed * 31 + 1, threads),
            &vgg_train,
            &vgg_test,
            &vgg_cfg,
        );
        let r50_h = run_training(
            |n| resnet::resnet50_with(n, r50_width, data::NUM_CLASSES, scale.seed),
            setup.engine(scale.seed * 31 + 2, threads),
            &woof_train,
            &woof_test,
            &r50_cfg,
        );
        eprintln!(
            "  [{:<26}] VGG16 {:>6.2}%  ResNet-50 {:>6.2}%  ({:.0}s)",
            setup.label(),
            vgg_h.final_accuracy(),
            r50_h.final_accuracy(),
            t0.elapsed().as_secs_f64()
        );
        out_rows.push(vec![
            "VGG16/SynthCIFAR10".to_owned(),
            setup.label(),
            format!("{:.2}", vgg_h.final_accuracy()),
            format!("{:.2}", vgg_h.best_accuracy()),
            format!("{paper_vgg:.2}"),
        ]);
        out_rows.push(vec![
            "ResNet-50/SynthImagewoof".to_owned(),
            setup.label(),
            format!("{:.2}", r50_h.final_accuracy()),
            format!("{:.2}", r50_h.best_accuracy()),
            format!("{paper_r50:.2}"),
        ]);
    }
    out_rows.sort_by(|a, b| a[0].cmp(&b[0]));

    println!(
        "{}",
        table::render(
            &[
                "Model/Dataset",
                "Configuration",
                "Accuracy (%)",
                "Best (%)",
                "Paper (%)"
            ],
            &out_rows
        )
    );
    println!("expected shape: all three configurations track each other closely on both");
    println!("models (SR E6M5 r=13 W/O Sub matches RN FP16 within noise), as in the paper.");
}
