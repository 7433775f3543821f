//! The training workloads: a timed `Trainer::train_step` loop (with
//! `checkpoint_now` at a fixed cadence where the workload saves), then a
//! timed `evaluate()` stream over a held-out set, run on a snapshot of
//! the model taken at the end of the digest prefix.

use std::time::Instant;

use srmac_io::CheckpointMeta;
use srmac_models::{evaluate, resnet, synth_cifar10, Dataset, TrainConfig, Trainer, NUM_CLASSES};
use srmac_qgemm::numerics_from_spec;
use srmac_rng::SplitMix64;
use srmac_tensor::layers::Layer;
use srmac_tensor::{Runtime, Sequential, Tensor};

use crate::stats::{median, Digest};
use crate::{eval_metrics, model_metrics, ms, trace, Pass, PassArgs, Scale, MODEL_SEED};

/// One training workload.
#[derive(Debug)]
pub(crate) struct Workload {
    /// Numerics policy spec.
    spec: &'static str,
    grad_shards: usize,
    replicas: usize,
    /// Whether the loop calls `checkpoint_now` at the shape's cadence.
    saves: bool,
}

/// The paper's design on every role, data-parallel with saves.
pub(crate) const SR13_DP: Workload = Workload {
    spec: "fp8_fp12_sr13",
    grad_shards: 2,
    replicas: 2,
    saves: true,
};

/// RN forward and SR backward on the single-shard inline path.
pub(crate) const MIXED_S1: Workload = Workload {
    spec: "fwd=fp8_fp12_rn;bwd=fp8_fp12_sr13",
    grad_shards: 1,
    replicas: 1,
    saves: false,
};

/// Share of the budget spent in the training loop; evaluation gets the
/// rest.
const TRAIN_SHARE: f64 = 0.8;
/// Constant learning rate of every step.
const LR: f32 = 0.05;

struct Shape {
    width: usize,
    image: usize,
    batch: usize,
    train_n: usize,
    eval_n: usize,
    warmup: usize,
    /// Steps (warm-up included) whose losses enter the digest; the eval
    /// stream runs on the model as it stands after them.
    digest_steps: usize,
    ckpt_every: usize,
}

impl Shape {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                width: 8,
                image: 16,
                batch: 32,
                train_n: 512,
                eval_n: 256,
                warmup: 1,
                digest_steps: 8,
                ckpt_every: 8,
            },
            Scale::Tiny => Self {
                width: 4,
                image: 8,
                batch: 8,
                train_n: 32,
                eval_n: 16,
                warmup: 1,
                digest_steps: 3,
                ckpt_every: 2,
            },
        }
    }
}

/// A set-up training run: data, model, trainer and the batch cursor.
struct Rig {
    model: Sequential,
    trainer: Trainer,
    train: Dataset,
    eval: Dataset,
    order: Vec<usize>,
    next: usize,
    rng: SplitMix64,
    x: Tensor,
    labels: Vec<usize>,
    losses: Vec<f32>,
}

impl Rig {
    fn new(w: &Workload, s: &Shape, a: &PassArgs) -> Self {
        let train = synth_cifar10(s.train_n, s.image, a.seed);
        let eval = synth_cifar10(s.eval_n, s.image, a.seed ^ 0xE7A1);
        let mut numerics = numerics_from_spec(w.spec).expect("workload specs are valid");
        if a.traced {
            numerics = trace::traced_numerics(&numerics);
        }
        let mut model = resnet::resnet20_with(&numerics, s.width, NUM_CLASSES, MODEL_SEED);
        if a.traced {
            model = trace::traced_model(model);
        }
        let cfg = TrainConfig {
            batch_size: s.batch,
            lr: LR,
            seed: a.seed,
            replicas: w.replicas,
            grad_shards: w.grad_shards,
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(&cfg);
        if w.saves {
            let meta = CheckpointMeta {
                arch: format!("resnet20-w{}-c{NUM_CLASSES}", s.width),
                engine: None,
                numerics: Some(w.spec.to_owned()),
            };
            // Cadence 0: the benchmark loop calls `checkpoint_now` itself.
            trainer = trainer.checkpoint_every(0, a.work_dir.join("ckpt.srmc"), meta);
        }
        let mut rig = Self {
            model,
            trainer,
            order: (0..train.len()).collect(),
            next: train.len(),
            rng: SplitMix64::new(a.seed ^ 0x5EED_0DE7),
            x: Tensor::zeros(&[s.batch, 3, s.image, s.image]),
            labels: Vec::with_capacity(s.batch),
            losses: Vec::new(),
            train,
            eval,
        };
        for _ in 0..s.warmup {
            rig.step();
        }
        rig
    }

    /// Assembles the next batch and runs one `train_step`; returns the
    /// nanoseconds of each.
    fn step(&mut self) -> (u64, u64) {
        let batch = self.x.shape()[0];
        if self.next + batch > self.order.len() {
            for i in (1..self.order.len()).rev() {
                let j = self.rng.next_below(i as u64 + 1) as usize;
                self.order.swap(i, j);
            }
            self.next = 0;
        }
        let idx = &self.order[self.next..self.next + batch];
        self.next += batch;
        let t0 = Instant::now();
        self.train
            .batch_into(Runtime::global(), idx, &mut self.x, &mut self.labels);
        let t1 = Instant::now();
        let loss = self
            .trainer
            .train_step(&mut self.model, &self.x, &self.labels, LR);
        let t2 = Instant::now();
        self.losses.push(loss);
        (ns(t1 - t0), ns(t2 - t1))
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one pass of `w`.
pub(crate) fn run(w: &Workload, a: &PassArgs) -> Pass {
    let s = Shape::of(a.scale);
    let mut setup = Vec::new();
    let mut rig = None;
    for _ in 0..a.setups.max(1) {
        drop(rig.take());
        let t0 = Instant::now();
        rig = Some(Rig::new(w, &s, a));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up ran");
    let mut pass = Pass {
        setup_s: median(&setup),
        ..Pass::default()
    };

    // The timed training loop.
    let mut step_ns = Vec::new();
    let (mut batch_ns, mut outside_ns, mut busy_ns) = (0u64, 0u64, 0u64);
    let mut save_ms = Vec::new();
    let mut ckpt_bytes = 0u64;
    let mut snapshot = None;
    let budget = a.budget.mul_f64(TRAIN_SHARE);
    trace::take();
    let t_loop = Instant::now();
    while t_loop.elapsed() < budget || rig.losses.len() < s.digest_steps {
        let before = a.traced.then(trace::thread_model_ns);
        let (b, st) = rig.step();
        if let Some(before) = before {
            // Per thread, the model time this step; the busiest thread
            // bounds the step, the rest of the wall time is the trainer's.
            let after = trace::thread_model_ns();
            let deltas = after.iter().zip(&before).map(|(x, y)| x - y);
            outside_ns += st.saturating_sub(deltas.clone().max().unwrap_or(0));
            busy_ns += deltas.sum::<u64>();
        }
        batch_ns += b;
        step_ns.push(st);
        if rig.losses.len() == s.digest_steps {
            snapshot = rig.model.try_clone();
        }
        if w.saves && step_ns.len().is_multiple_of(s.ckpt_every) {
            let t0 = Instant::now();
            let saved = rig.trainer.checkpoint_now(&mut rig.model);
            save_ms.push(ms(t0.elapsed()));
            pass.attempted += 1;
            match saved {
                Ok(_) => {
                    ckpt_bytes =
                        std::fs::metadata(a.work_dir.join("ckpt.srmc")).map_or(0, |m| m.len());
                }
                Err(e) => {
                    pass.failed += 1;
                    eprintln!("checkpoint save failed: {e}");
                }
            }
        }
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    let train_ledger = trace::take();
    let steps = step_ns.len();

    // The timed evaluation stream, on the model after the digest prefix.
    let mut model = snapshot.expect("the loop runs past the digest prefix");
    let mut acc: Option<f32> = None;
    let mut passes = 0usize;
    let budget = a.budget.mul_f64(1.0 - TRAIN_SHARE);
    let t_eval = Instant::now();
    while passes == 0 || t_eval.elapsed() < budget {
        let this = evaluate(&mut model, &rig.eval, s.batch);
        if let Some(first) = acc.filter(|f| f.to_bits() != this.to_bits()) {
            pass.problems.push(format!(
                "evaluate() gave {this} after {first} on the same model"
            ));
        }
        acc.get_or_insert(this);
        passes += 1;
    }
    let eval_s = t_eval.elapsed().as_secs_f64();
    let eval_ledger = trace::take();

    // The weights carry every gradient bit of the prefix, which the loss
    // and the accuracy can round away.
    let mut digest = Digest::default();
    for &loss in &rig.losses[..s.digest_steps] {
        digest.f32(loss);
    }
    digest.f32(acc.unwrap_or(f32::NAN));
    model.visit_params(&mut |p| p.value.data().iter().for_each(|&v| digest.f32(v)));
    pass.digest = digest.hex();
    pass.attempted += (steps + passes) as u64;
    pass.latency_ms = step_ns.iter().map(|&n| n as f64 / 1e6).collect();
    pass.work_ms = median(&pass.latency_ms);
    pass.throughput = (steps * s.batch) as f64 / loop_s;
    pass.eval_per_s = (passes * rig.eval.len()) as f64 / eval_s;
    if a.traced {
        let l = &mut pass.layers;
        let total_step_ns: u64 = step_ns.iter().sum();
        model_metrics(l, &train_ledger, steps as f64);
        eval_metrics(l, &eval_ledger, (passes * rig.eval.len()) as f64);
        l.insert(
            "trainer.outside_model_ms".into(),
            outside_ns as f64 / 1e6 / steps as f64,
        );
        l.insert(
            "trainer.replica_busy_frac".into(),
            busy_ns as f64 / (w.replicas as f64 * total_step_ns as f64),
        );
        l.insert("data.batch_ms".into(), batch_ns as f64 / 1e6 / steps as f64);
        if w.saves {
            l.insert("io.ckpt_save_ms".into(), median(&save_ms));
            l.insert("io.ckpt_bytes".into(), ckpt_bytes as f64);
        }
    }
    pass
}
