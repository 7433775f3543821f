//! The serving workload: open-loop arrivals at a fixed offered rate
//! against a 2-worker `InferenceServer`, then a burst phase that measures
//! capacity, then an `evaluate()` stream over the request pool.
//!
//! Load comes from two threads. A generator submits request `i` at its
//! scheduled time `t0 + i / rate`, each with the latency limit as its
//! deadline (`submit_within`). A collector redeems the replies in
//! submission order. Latency runs from the *scheduled* send time, so a
//! stall of the generator is charged to the requests behind it, and the
//! generator's lateness is reported on its own. `PendingPrediction` has
//! only a blocking `wait`, so a reply that lands before an earlier one is
//! timed when the collector reaches it: latencies are biased upward by
//! at most the head-of-line wait.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use srmac_models::serve::PendingPrediction;
use srmac_models::{
    evaluate, resnet, synth_cifar10, Dataset, InferenceServer, Prediction, ServeConfig, ServeError,
    NUM_CLASSES,
};
use srmac_qgemm::{MacGemm, MacGemmConfig};
use srmac_tensor::layers::Layer;
use srmac_tensor::{GemmEngine, Numerics, Sequential, Tensor};

use crate::stats::{median, Digest, Tail};
use crate::{eval_metrics, model_metrics, ms, trace, Pass, PassArgs, Scale, MODEL_SEED};

/// The served engine: the paper's FP8 x FP8 -> E6M5 MAC with RN
/// accumulation, on one thread per engine.
const ENGINE: &str = "fp8_fp12_rn";
const WORKERS: usize = 2;
/// Requests kept in flight in the burst phase.
const INFLIGHT: usize = 32;
/// Budget shares of the open-loop and burst phases; evaluation gets the
/// rest.
const OPEN_SHARE: f64 = 0.6;
const BURST_SHARE: f64 = 0.25;

struct Shape {
    width: usize,
    image: usize,
    /// Distinct request samples; request `i` carries sample `i % pool`.
    pool: usize,
    /// Offered rate of the open loop, requests per second.
    rate: f64,
    /// Latency limit and per-request deadline.
    limit: Duration,
    /// Every `check_every`-th pool sample is checked against a batch-1
    /// forward.
    check_every: usize,
}

impl Shape {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                width: 8,
                image: 16,
                pool: 256,
                rate: 50.0,
                limit: Duration::from_millis(500),
                check_every: 8,
            },
            Scale::Tiny => Self {
                width: 4,
                image: 8,
                pool: 16,
                rate: 200.0,
                limit: Duration::from_secs(2),
                check_every: 2,
            },
        }
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

/// Starts a server on `model` and sends two warm requests per worker.
fn start(
    model: Sequential,
    s: &Shape,
    numerics: &Numerics,
    samples: &[Vec<f32>],
) -> InferenceServer {
    let server = InferenceServer::start_with_numerics(model, s.image, config(), numerics)
        .expect("RN forward engines are servable");
    let client = server.client();
    for i in 0..2 * WORKERS {
        client
            .predict(samples[i % samples.len()].clone())
            .expect("warm request");
    }
    server
}

/// A set-up serving run.
struct Rig {
    server: InferenceServer,
    numerics: Numerics,
    /// An untouched replica of the served model, for batch-1 checks and
    /// the evaluation stream.
    reference: Sequential,
    pool: Dataset,
    samples: Vec<Vec<f32>>,
}

impl Rig {
    fn new(s: &Shape, a: &PassArgs) -> Self {
        let pool = synth_cifar10(s.pool, s.image, a.seed ^ 0x5E7E);
        let samples = (0..pool.len())
            .map(|j| pool.batch(&[j]).0.data().to_vec())
            .collect::<Vec<_>>();
        let config: MacGemmConfig = ENGINE.parse().expect("valid engine atom");
        let engine: Arc<dyn GemmEngine> = Arc::new(MacGemm::new(config.with_threads(1)));
        let mut numerics = Numerics::uniform(engine);
        if a.traced {
            numerics = trace::traced_numerics(&numerics);
        }
        let mut model = resnet::resnet20_with(&numerics, s.width, NUM_CLASSES, MODEL_SEED);
        if a.traced {
            model = trace::traced_model(model);
        }
        let reference = model.try_clone().expect("ResNet-20 is replicable");
        let server = start(model, s, &numerics, &samples);
        Self {
            server,
            numerics,
            reference,
            pool,
            samples,
        }
    }
}

/// The first served logits of each pool sample; later serves of the
/// same sample must repeat them bit for bit.
struct Served {
    first: Vec<Option<Prediction>>,
    mismatches: usize,
}

impl Served {
    fn record(&mut self, j: usize, p: Prediction) {
        match &self.first[j] {
            None => self.first[j] = Some(p),
            Some(prev) => {
                if !same_bits(&prev.logits, &p.logits) {
                    self.mismatches += 1;
                }
            }
        }
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

type Submitted = (
    usize,
    Instant,
    Instant,
    Result<PendingPrediction, ServeError>,
);

/// Runs the open loop: `n` requests at `rate`. Returns per-request
/// latency and generator lateness in ms, and the answered and failed
/// counts.
fn open_loop(
    server: &InferenceServer,
    s: &Shape,
    samples: &[Vec<f32>],
    n: usize,
    served: &mut Served,
) -> (Vec<f64>, Vec<f64>, usize, u64) {
    let (mut latency, mut late) = (Vec::new(), Vec::new());
    let (mut answered, mut failed) = (0usize, 0u64);
    let client = server.client();
    let interval = Duration::from_secs_f64(1.0 / s.rate);
    let limit = s.limit;
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Submitted>();
        let t0 = Instant::now();
        scope.spawn(move || {
            for i in 0..n {
                let due = t0 + interval.mul_f64(i as f64);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let r = client.submit_within(samples[i % samples.len()].clone(), limit);
                if tx.send((i, due, sent, r)).is_err() {
                    break;
                }
            }
        });
        for (i, due, sent, submitted) in rx {
            late.push(ms(sent - due));
            match submitted.and_then(PendingPrediction::wait) {
                Ok(p) => {
                    let took = due.elapsed();
                    latency.push(ms(took));
                    answered += 1;
                    if took > limit {
                        failed += 1;
                    }
                    served.record(i % samples.len(), p);
                }
                Err(_) => {
                    // A failed request misses the limit.
                    latency.push(ms(due.elapsed().max(limit)));
                    failed += 1;
                }
            }
        }
    });
    (latency, late, answered, failed)
}

/// Runs the burst phase: `INFLIGHT` requests kept outstanding for
/// `budget`. Returns (answered, seconds, submitted, failed).
fn burst(
    server: &InferenceServer,
    samples: &[Vec<f32>],
    budget: Duration,
    served: &mut Served,
) -> (usize, f64, usize, u64) {
    let client = server.client();
    let mut queue = VecDeque::new();
    let (mut submitted, mut answered, mut failed) = (0usize, 0usize, 0u64);
    let t0 = Instant::now();
    let mut submit = |queue: &mut VecDeque<_>| {
        let j = submitted % samples.len();
        queue.push_back((j, client.submit(samples[j].clone())));
        submitted += 1;
    };
    for _ in 0..INFLIGHT {
        submit(&mut queue);
    }
    while let Some((j, r)) = queue.pop_front() {
        match r.and_then(PendingPrediction::wait) {
            Ok(p) => {
                answered += 1;
                served.record(j, p);
            }
            Err(_) => failed += 1,
        }
        if t0.elapsed() < budget {
            submit(&mut queue);
        }
    }
    (answered, t0.elapsed().as_secs_f64(), submitted, failed)
}

/// Runs one pass of the serving workload.
pub(crate) fn run(a: &PassArgs) -> Pass {
    let s = Shape::of(a.scale);
    let mut setup = Vec::new();
    let mut rig = None;
    for _ in 0..a.setups.max(1) {
        drop(rig.take());
        let t0 = Instant::now();
        rig = Some(Rig::new(&s, a));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let Rig {
        server,
        numerics,
        mut reference,
        pool,
        samples,
    } = rig.expect("at least one set-up ran");
    let mut pass = Pass {
        setup_s: median(&setup),
        ..Pass::default()
    };
    let mut served = Served {
        first: vec![None; samples.len()],
        mismatches: 0,
    };

    // Open loop. Every pool sample is sent at least once.
    let n = ((s.rate * a.budget.as_secs_f64() * OPEN_SHARE).round() as usize).max(s.pool);
    trace::take();
    let t_open = Instant::now();
    let (latency, late, open_answered, open_failed) =
        open_loop(&server, &s, &samples, n, &mut served);
    let open_ns = t_open.elapsed().as_nanos() as f64;
    let (model, stats) = server.shutdown().expect("clean shutdown");
    let open_ledger = trace::take();

    // Served logits must equal a batch-1 forward of the same sample.
    for j in (0..samples.len()).step_by(s.check_every) {
        let x = Tensor::from_vec(samples[j].clone(), &[1, 3, s.image, s.image]);
        let y = reference.forward(&x, false);
        if let Some(p) = &served.first[j] {
            if !same_bits(&p.logits, y.data()) {
                pass.problems.push(format!(
                    "sample {j}: served logits differ from a batch-1 forward"
                ));
            }
        }
    }

    // Burst phase on a fresh server over the same model.
    let server = start(model, &s, &numerics, &samples);
    trace::take();
    let (answered, burst_s, burst_sent, burst_failed) = burst(
        &server,
        &samples,
        a.budget.mul_f64(BURST_SHARE),
        &mut served,
    );
    drop(server.shutdown().expect("clean shutdown"));
    trace::take();

    // Evaluation stream over the pool; its accuracy must equal the
    // accuracy of the served answers.
    let mut acc: Option<f32> = None;
    let mut passes = 0usize;
    let budget = a.budget.mul_f64(1.0 - OPEN_SHARE - BURST_SHARE);
    let t_eval = Instant::now();
    while passes == 0 || t_eval.elapsed() < budget {
        let this = evaluate(&mut reference, &pool, 32);
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
    let acc = acc.unwrap_or(f32::NAN);

    let mut digest = Digest::default();
    let mut correct = 0usize;
    for (j, p) in served.first.iter().enumerate() {
        match p {
            Some(p) => {
                p.logits.iter().for_each(|&v| digest.f32(v));
                correct += usize::from(p.argmax == pool.labels()[j]);
            }
            None => pass.problems.push(format!("sample {j} was never served")),
        }
    }
    digest.f32(acc);
    let served_acc = 100.0 * correct as f32 / samples.len() as f32;
    if served_acc.to_bits() != acc.to_bits() {
        pass.problems.push(format!(
            "served accuracy {served_acc} differs from evaluate() accuracy {acc}"
        ));
    }
    if served.mismatches > 0 {
        pass.problems.push(format!(
            "{} serves of a sample differ from its first serve",
            served.mismatches
        ));
    }

    let capacity = answered as f64 / burst_s;
    pass.digest = digest.hex();
    pass.attempted = (n + burst_sent + passes) as u64;
    pass.failed = open_failed + burst_failed;
    pass.latency_ms = latency;
    pass.throughput = capacity;
    pass.work_ms = 1e3 / capacity;
    pass.eval_per_s = (passes * pool.len()) as f64 / eval_s;
    if a.traced {
        let l = &mut pass.layers;
        let requests = open_answered.max(1) as f64;
        model_metrics(l, &open_ledger, requests);
        eval_metrics(l, &eval_ledger, (passes * pool.len()) as f64);
        let (most, least) = stats
            .worker_requests
            .iter()
            .fold((0, usize::MAX), |(hi, lo), &r| (hi.max(r), lo.min(r)));
        let model_ns: u64 = open_ledger.thread_model_ns.iter().sum();
        let us = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e6);
        l.extend([
            (
                "serve.mean_batch".into(),
                stats.requests as f64 / stats.batches.max(1) as f64,
            ),
            (
                "serve.worker_imbalance".into(),
                most as f64 / least.max(1) as f64,
            ),
            (
                "serve.model_busy_frac".into(),
                model_ns as f64 / (WORKERS as f64 * open_ns),
            ),
            ("serve.queue_wait_us_p50".into(), us(stats.queue_wait.p50())),
            ("serve.shed".into(), stats.shed as f64),
            ("serve.expired".into(), stats.expired as f64),
            ("serve.gen_late_ms_tail".into(), Tail::of(&late).value),
        ]);
    }
    pass
}
