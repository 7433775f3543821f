//! # srmac-perfbench
//!
//! One benchmark for the srmac training, evaluation and serving stack:
//! three workloads on a width-8 ResNet-20 over 16x16 synthetic CIFAR-10,
//! end-to-end metrics from untraced runs, and per-layer metrics from
//! traced runs whose wrappers time calls into each layer's public
//! functions from outside (see [`trace`] and `README.md`).
//!
//! Every run also checks its outputs: a digest of the bits a workload
//! computes must be equal between the untraced and traced passes of a
//! traced run, and equal to the digest in `reference.txt` at the default
//! seed.

// Timing is this crate's purpose: the workspace's wall-clock ban
// (clippy.toml) guards numerics code, not benchmarks.
#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

pub mod host;
pub mod metrics;
mod serve;
pub mod stats;
pub mod trace;
mod train;

use stats::{median, Tail};
use trace::{Snapshot, GROUPS};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["train_sr13_dp", "train_mixed_s1", "serve_rn_open"];

/// The seed whose digests `reference.txt` records.
pub const DEFAULT_SEED: u64 = 1;

/// Initialization seed of every model. Fixed, so that the work a step or
/// request does (which depends on the weights through zero-skipped
/// products) stays the same across workload seeds; the seed varies the
/// data, the data order and the requests.
pub(crate) const MODEL_SEED: u64 = 0x5EED_A11E;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Problem size: the benchmark's own, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is recorded at.
    Full,
    /// A few-second run of the same code paths.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// Scratch directory for checkpoints (created, then removed).
    pub work_dir: PathBuf,
}

/// One measured pass of a workload.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    setup_s: f64,
    /// Per operation: a `train_step`, or a request from its scheduled
    /// send time.
    latency_ms: Vec<f64>,
    /// Training samples per second over the loop, or requests per second
    /// in the burst phase.
    throughput: f64,
    eval_per_s: f64,
    /// Wall time per unit of primary work, for the tracing overhead.
    work_ms: f64,
    digest: String,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Per-layer metrics (traced passes only).
    layers: BTreeMap<String, f64>,
}

/// What a pass is asked to do.
#[derive(Debug)]
pub(crate) struct PassArgs<'a> {
    scale: Scale,
    seed: u64,
    budget: Duration,
    setups: usize,
    traced: bool,
    work_dir: &'a Path,
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed: failed saves, and requests shed, expired,
    /// errored or over the latency limit.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: BTreeMap<String, f64>,
    /// The latency tail of the untraced pass.
    pub tail: Tail,
    /// Evaluation-stream samples per second of the untraced pass.
    pub eval_samples_per_s: f64,
    /// Output digest of each pass, untraced first.
    pub digests: Vec<String>,
    /// What failed a check.
    pub problems: Vec<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer `qgemm` and `tensor` metrics of a traced phase, per unit
/// of work (`per` steps or requests).
pub(crate) fn model_metrics(m: &mut BTreeMap<String, f64>, s: &Snapshot, per: f64) {
    let per_ms = |ns: u64| ns as f64 / 1e6 / per;
    for (role, t) in ["fwd", "dgrad", "wgrad"].iter().zip(&s.roles) {
        let ns_per_mac = if t.macs == 0 {
            0.0
        } else {
            t.accum_ns as f64 / t.macs as f64
        };
        m.extend([
            (format!("qgemm.{role}.pack_ms"), per_ms(t.pack_ns)),
            (format!("qgemm.{role}.accum_ms"), per_ms(t.accum_ns)),
            (format!("qgemm.{role}.calls"), t.calls as f64 / per),
            (format!("qgemm.{role}.mac_steps"), t.macs as f64 / per),
            (format!("qgemm.{role}.ns_per_mac"), ns_per_mac),
        ]);
    }
    let calls: u64 = s.roles.iter().map(|t| t.calls).sum();
    let weight_packs: u64 = s.roles.iter().map(|t| t.pack_b).sum();
    m.insert(
        "qgemm.weight_pack_reuse".into(),
        calls as f64 / weight_packs.max(1) as f64,
    );
    for (group, g) in GROUPS.iter().zip(&s.groups) {
        m.extend([
            (format!("tensor.{group}.fwd_ms"), per_ms(g.fwd_ns)),
            (format!("tensor.{group}.bwd_ms"), per_ms(g.bwd_ns)),
            (format!("tensor.{group}.self_ms"), per_ms(g.self_ns())),
        ]);
    }
    let span: u64 = s.groups.iter().map(|g| g.span_ns()).sum();
    let own: u64 = s.groups.iter().map(|g| g.self_ns()).sum();
    m.insert(
        "tensor.nongemm_share".into(),
        own as f64 / span.max(1) as f64,
    );
}

/// The `eval.*` metrics of a traced evaluation stream, per sample.
pub(crate) fn eval_metrics(m: &mut BTreeMap<String, f64>, s: &Snapshot, samples: f64) {
    let per_ms = |ns: u64| ns as f64 / 1e6 / samples;
    let own: u64 = s.groups.iter().map(|g| g.self_ns()).sum();
    m.extend([
        ("eval.qgemm.fwd.pack_ms".into(), per_ms(s.roles[0].pack_ns)),
        (
            "eval.qgemm.fwd.accum_ms".into(),
            per_ms(s.roles[0].accum_ns),
        ),
        ("eval.tensor.self_ms".into(), per_ms(own)),
    ]);
}

/// Runs one invocation.
///
/// # Errors
///
/// Returns a message for an unknown workload or an unusable work
/// directory.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let workload = match opts.workload.as_str() {
        "train_sr13_dp" => Some(&train::SR13_DP),
        "train_mixed_s1" => Some(&train::MIXED_S1),
        "serve_rn_open" => None,
        other => return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    };
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let pass = |budget: Duration, setups: usize, traced: bool| {
        let a = PassArgs {
            scale: opts.scale,
            seed: opts.seed,
            budget,
            setups,
            traced,
            work_dir: &opts.work_dir,
        };
        match workload {
            Some(w) => train::run(w, &a),
            None => serve::run(&a),
        }
    };
    let budget = Duration::from_secs_f64(opts.seconds);
    let passes = if opts.trace {
        vec![pass(budget / 2, 1, false), pass(budget / 2, 1, true)]
    } else {
        vec![pass(budget, SETUPS, false)]
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);

    let base = &passes[0];
    let mut problems: Vec<String> = passes.iter().flat_map(|p| p.problems.clone()).collect();
    let digests: Vec<String> = passes.iter().map(|p| p.digest.clone()).collect();
    if digests.iter().any(|d| *d != digests[0]) {
        problems.push(format!("traced digest differs from untraced: {digests:?}"));
    }
    if opts.scale == Scale::Full && opts.seed == DEFAULT_SEED {
        if let Some(recorded) = host::Reference::bundled().digest(&opts.workload) {
            if recorded != base.digest {
                problems.push(format!(
                    "digest {} differs from the recorded {recorded}",
                    base.digest
                ));
            }
        }
    }
    let tail = Tail::of(&base.latency_ms);
    let metrics = if opts.trace {
        let traced = &passes[1];
        let mut m = traced.layers.clone();
        m.insert(
            "trace.overhead_frac".into(),
            traced.work_ms / base.work_ms - 1.0,
        );
        m
    } else {
        BTreeMap::from([
            ("setup_s".to_owned(), base.setup_s),
            ("peak_rss_mb".to_owned(), host::peak_rss_mb()),
            ("latency_ms_p50".to_owned(), median(&base.latency_ms)),
            ("throughput_per_s".to_owned(), base.throughput),
        ])
    };
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics,
        tail,
        eval_samples_per_s: base.eval_per_s,
        digests,
        problems,
    })
}
