//! Replicated, micro-batched inference serving with admission control
//! and latency observability.
//!
//! A single [`InferenceServer`] owns `N` worker replicas of one model
//! ([`ServeConfig::workers`]) behind one **bounded** admission queue.
//! Workers pull from that queue directly: an idle worker takes the
//! queue's lock, assembles a dynamic batch (up to
//! [`ServeConfig::max_batch`], dispatching early when the queue runs
//! dry), releases the lock, runs the batch through the model's
//! prepared-operand GEMM path, and answers every request with its
//! logits/argmax. A request therefore never waits behind a busy worker
//! while another one idles. Replicas are copy-on-write clones
//! ([`Sequential::try_clone`]): parameter tensors are `Arc`-shared and
//! the packed-weight caches are warmed on the original before cloning,
//! so `N` workers serve one model with **zero weight duplication** — on
//! a multi-core host, req/s scales with the worker count because the MAC
//! arithmetic is the bottleneck and each replica owns a core's worth of
//! it.
//!
//! # Admission control and deadlines
//!
//! The admission queue is bounded at [`ServeConfig::queue_depth`]:
//! when it is full, [`ServeClient::submit`] fails *immediately* with
//! [`ServeError::Overloaded`] instead of queueing without bound — the
//! shed-load contract that keeps tail latency and memory flat when
//! offered load exceeds capacity. A request may also carry a deadline
//! ([`ServeClient::submit_within`]): a request whose deadline passes
//! while it queues is answered with [`ServeError::DeadlineExceeded`]
//! **without touching a model** — serving an answer the client has
//! already given up on would only steal capacity from requests that can
//! still make theirs.
//!
//! # Observability
//!
//! Every request is timed through three stages — queue wait (submit →
//! joined a batch), batch assembly (joined → dispatch) and inference
//! (dispatch → reply) — aggregated into log2-bucketed
//! [`LatencyHistogram`]s with p50/p95/p99 in [`ServeStats`], which also
//! counts shed and expired requests and per-worker request totals.
//! Operational events (worker panics, shutdown) become
//! structured, code-tagged [`Diagnostic`]s (see [`codes`]) collected in
//! a [`DiagSink`] whose handle survives the server — a crashed worker is
//! *recorded*, never silently swallowed, and additionally flips the
//! server's poisoned flag ([`InferenceServer::poisoned`]).
//!
//! # The serving determinism contract (unchanged)
//!
//! For a **position-invariant** engine, serving any request stream under
//! *any* batching pattern — and now, through *any* replica — produces
//! logits bitwise identical to running that request alone (batch size
//! 1): each output row of every GEMM is a pure function of that row's
//! inputs and the weights, every non-GEMM layer is elementwise or
//! per-sample, evaluation-mode batch norm uses running statistics, and
//! every replica shares the very same weight storage.
//! [`srmac_tensor::F32Engine`] and `srmac_qgemm::MacGemm` with
//! `AccumRounding::Nearest` — the inference configurations — are
//! position-invariant, and the contract is asserted bit-for-bit in this
//! module's tests across batch patterns and replica counts.
//!
//! `MacGemm` with **stochastic** accumulation is deliberately *not*
//! position-invariant: its rounding streams are seeded per output
//! coordinate `(row, column)` so that training runs are reproducible,
//! and a sample's GEMM rows depend on its position in the batch. SR is
//! the paper's *training* mechanism; serve with RN (or f32) for
//! deterministic inference. **Every** construction path enforces this:
//! [`InferenceServer::start`] inspects the engines the model actually
//! carries ([`Sequential::stochastic_forward_engine`]), and
//! [`InferenceServer::start_with_numerics`] additionally checks the
//! declared policy.

// The serving layer is the workspace's sanctioned wall-clock/spawn user
// (deadlines, straggler timers, worker threads): its results never feed
// arithmetic, so clippy.toml's determinism ban is lifted for this module.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use srmac_tensor::layers::Layer;
use srmac_tensor::numerics::Numerics;
use srmac_tensor::{Sequential, Tensor};

use crate::diag::{DiagCode, DiagSink, Diagnostic, Severity};

/// Stable diagnostic codes emitted by the serving subsystem (see
/// [`crate::diag`] for the taxonomy and renderers).
pub mod codes {
    use crate::diag::DiagCode;

    /// A sample of the wrong length was rejected at submission.
    pub const BAD_INPUT: DiagCode = DiagCode::new("serve", 1, "bad-input");
    /// The server is gone (shut down, or every worker died).
    pub const CLOSED: DiagCode = DiagCode::new("serve", 2, "closed");
    /// A stochastic-rounding forward engine was refused at construction.
    pub const STOCHASTIC_FORWARD: DiagCode = DiagCode::new("serve", 3, "stochastic-forward");
    /// The bounded admission queue was full; the request was shed.
    pub const OVERLOADED: DiagCode = DiagCode::new("serve", 4, "overloaded");
    /// A request's deadline passed while it queued; no model was run.
    pub const DEADLINE_EXCEEDED: DiagCode = DiagCode::new("serve", 5, "deadline-exceeded");
    /// The model cannot be CoW-replicated for `workers > 1`.
    pub const NOT_REPLICABLE: DiagCode = DiagCode::new("serve", 6, "not-replicable");
    /// A worker thread panicked; recorded at join.
    pub const WORKER_PANIC: DiagCode = DiagCode::new("serve", 7, "worker-panic");
    /// Clean shutdown: totals for the whole serving session.
    pub const SHUTDOWN: DiagCode = DiagCode::new("serve", 8, "shutdown");

    /// Every serving code, in id order.
    pub const ALL: [DiagCode; 8] = [
        BAD_INPUT,
        CLOSED,
        STOCHASTIC_FORWARD,
        OVERLOADED,
        DEADLINE_EXCEEDED,
        NOT_REPLICABLE,
        WORKER_PANIC,
        SHUTDOWN,
    ];
}

/// Batching, replication and admission policy of an [`InferenceServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of model replicas serving in parallel. Replica 0 is the
    /// original model; replicas beyond it are CoW clones
    /// ([`Sequential::try_clone`]) sharing the same weight storage and
    /// packed-weight caches, so memory stays flat in `workers`.
    pub workers: usize,
    /// Hard cap on assembled batch size (per worker).
    pub max_batch: usize,
    /// When the admission queue runs dry with fewer than this many
    /// requests in the batch a worker is assembling, the worker waits
    /// [`ServeConfig::straggler_wait`] for more before dispatching; at or
    /// above it, it dispatches immediately. `1` dispatches as soon as the
    /// queue empties (latency-first).
    pub max_wait_items: usize,
    /// How long to wait for stragglers below `max_wait_items`.
    pub straggler_wait: Duration,
    /// Capacity of the bounded admission queue. When it is full,
    /// [`ServeClient::submit`] sheds the request with
    /// [`ServeError::Overloaded`] instead of queueing without bound.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            max_batch: 8,
            max_wait_items: 1,
            straggler_wait: Duration::from_micros(200),
            queue_depth: 1024,
        }
    }
}

/// The answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The model's output row for this sample.
    pub logits: Vec<f32>,
    /// Index of the largest logit, by exactly the rule of
    /// `srmac_tensor::count_correct` (ties resolve to the highest index),
    /// so served accuracy can never diverge from `evaluate`.
    pub argmax: usize,
    /// Size of the dynamic batch this request rode in (observability).
    pub batch_size: usize,
}

/// Why a request could not be served (or a server could not start).
#[derive(Debug)]
pub enum ServeError {
    /// The sample length does not match the model input `3 * s * s`.
    BadInput {
        /// Expected element count.
        expected: usize,
        /// Received element count.
        got: usize,
    },
    /// The server has shut down (or every worker died) before replying.
    Closed,
    /// The model carries (or the policy declares) a forward engine that
    /// is not position-invariant (stochastic-rounding accumulation),
    /// which would silently break the batch-invariance contract above —
    /// serve with an RN or f32 forward engine instead (SR is the paper's
    /// *training* mechanism).
    StochasticForward {
        /// `name()` of the offending forward engine.
        engine: String,
    },
    /// The bounded admission queue is full; the request was shed without
    /// queueing (admission control). Retry after a backoff, or raise
    /// [`ServeConfig::queue_depth`] / [`ServeConfig::workers`].
    Overloaded {
        /// The configured [`ServeConfig::queue_depth`].
        depth: usize,
    },
    /// The request's deadline passed while it queued; it was answered
    /// without touching a model.
    DeadlineExceeded {
        /// How far past the deadline the request was when shed.
        missed_by: Duration,
    },
    /// `workers > 1` was requested but the model has a layer without
    /// CoW-replication support ([`srmac_tensor::layers::Layer::clone_layer`]).
    NotReplicable,
    /// A worker thread panicked; the panic was recorded in the server's
    /// diagnostics (code `serve::worker-panic`) rather than swallowed.
    WorkerPanicked {
        /// Thread name (`srmac-serve-3` is worker 3).
        thread: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl ServeError {
    /// The stable diagnostic code classifying this error.
    #[must_use]
    pub fn code(&self) -> DiagCode {
        match self {
            ServeError::BadInput { .. } => codes::BAD_INPUT,
            ServeError::Closed => codes::CLOSED,
            ServeError::StochasticForward { .. } => codes::STOCHASTIC_FORWARD,
            ServeError::Overloaded { .. } => codes::OVERLOADED,
            ServeError::DeadlineExceeded { .. } => codes::DEADLINE_EXCEEDED,
            ServeError::NotReplicable => codes::NOT_REPLICABLE,
            ServeError::WorkerPanicked { .. } => codes::WORKER_PANIC,
        }
    }

    /// Severity of this error as a diagnostic: client-side conditions
    /// the server handled by design (bad input, shed load, a missed
    /// deadline) are warnings; structural failures are errors.
    #[must_use]
    pub fn severity(&self) -> Severity {
        match self {
            ServeError::BadInput { .. }
            | ServeError::Overloaded { .. }
            | ServeError::DeadlineExceeded { .. } => Severity::Warning,
            ServeError::Closed
            | ServeError::StochasticForward { .. }
            | ServeError::NotReplicable
            | ServeError::WorkerPanicked { .. } => Severity::Error,
        }
    }

    /// This error as a structured, code-tagged [`Diagnostic`].
    #[must_use]
    pub fn diagnostic(&self) -> Diagnostic {
        let d = Diagnostic::new(self.severity(), self.code(), self.to_string());
        match self {
            ServeError::BadInput { expected, got } => d
                .field("expected", expected.to_string())
                .field("got", got.to_string()),
            ServeError::StochasticForward { engine } => d.field("engine", engine.clone()),
            ServeError::Overloaded { depth } => d.field("queue_depth", depth.to_string()),
            ServeError::DeadlineExceeded { missed_by } => {
                d.field("missed_by_us", missed_by.as_micros().to_string())
            }
            ServeError::WorkerPanicked { thread, message } => d
                .field("thread", thread.clone())
                .field("payload", message.clone()),
            ServeError::Closed | ServeError::NotReplicable => d,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadInput { expected, got } => {
                write!(f, "sample has {got} elements, model expects {expected}")
            }
            ServeError::Closed => write!(f, "inference server is closed"),
            ServeError::StochasticForward { engine } => write!(
                f,
                "forward engine {engine:?} is not position-invariant: serving \
                 through it would make each prediction depend on its batch \
                 position (serve with an RN or f32 forward engine)"
            ),
            ServeError::Overloaded { depth } => write!(
                f,
                "admission queue is full ({depth} requests deep): request shed \
                 (retry after a backoff, or raise queue_depth/workers)"
            ),
            ServeError::DeadlineExceeded { missed_by } => write!(
                f,
                "deadline passed {missed_by:?} before the request reached a \
                 model; answered without running inference"
            ),
            ServeError::NotReplicable => write!(
                f,
                "workers > 1 needs a CoW-replicable model, but a layer has no \
                 clone_layer support"
            ),
            ServeError::WorkerPanicked { thread, message } => {
                write!(f, "serving thread {thread} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A latency histogram with power-of-two (log2) buckets: bucket `i`
/// covers `[2^i, 2^(i+1))` nanoseconds (bucket 0 also holds 0 ns), so 64
/// buckets span every representable duration with constant memory and a
/// bounded relative error of 2x — the classic shape for serving tail
/// latency, where p99 matters and microsecond exactness does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index of a duration: `floor(log2(ns))`, clamped.
    fn bucket_of(d: Duration) -> usize {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        }
    }

    /// The inclusive upper edge of bucket `i` in nanoseconds
    /// (`2^(i+1) - 1`; the last bucket saturates at `u64::MAX`).
    fn upper_edge_ns(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, d: Duration) {
        self.buckets[Self::bucket_of(d)] += 1;
        self.count += 1;
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
    }

    /// The `p`-th percentile (`0 < p <= 100`) as the **upper edge** of
    /// the log2 bucket containing the `ceil(p/100 * count)`-th smallest
    /// observation — a conservative (never underestimating by more than
    /// the 2x bucket width) tail-latency estimate. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.count == 0 {
            return None;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(Duration::from_nanos(Self::upper_edge_ns(i)));
            }
        }
        // count > 0 guarantees the cumulative walk crosses every rank.
        unreachable!("rank {rank} beyond {} recorded observations", self.count)
    }

    /// Median (see [`LatencyHistogram::percentile`]).
    #[must_use]
    pub fn p50(&self) -> Option<Duration> {
        self.percentile(50.0)
    }

    /// 95th percentile (see [`LatencyHistogram::percentile`]).
    #[must_use]
    pub fn p95(&self) -> Option<Duration> {
        self.percentile(95.0)
    }

    /// 99th percentile (see [`LatencyHistogram::percentile`]).
    #[must_use]
    pub fn p99(&self) -> Option<Duration> {
        self.percentile(99.0)
    }

    /// `{"count":N,"p50_us":x,"p95_us":y,"p99_us":z}` (percentiles in
    /// microseconds; `0` when empty).
    #[must_use]
    pub fn render_json(&self) -> String {
        let us = |p: Option<Duration>| p.map_or(0.0, |d| d.as_secs_f64() * 1e6);
        format!(
            "{{\"count\":{},\"p50_us\":{:.1},\"p95_us\":{:.1},\"p99_us\":{:.1}}}",
            self.count,
            us(self.p50()),
            us(self.p95()),
            us(self.p99())
        )
    }
}

/// Counters and latency histograms for one serving session, merged
/// across every worker at shutdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests answered with a prediction.
    pub requests: usize,
    /// Dynamic batches executed (across all workers).
    pub batches: usize,
    /// Largest batch assembled by any worker.
    pub max_batch_seen: usize,
    /// Number of worker replicas that served.
    pub workers: usize,
    /// Requests shed by admission control ([`ServeError::Overloaded`]).
    pub shed: usize,
    /// Requests whose deadline expired before reaching a model
    /// ([`ServeError::DeadlineExceeded`]).
    pub expired: usize,
    /// Requests answered per worker (index = worker id; sums to
    /// [`ServeStats::requests`]).
    pub worker_requests: Vec<usize>,
    /// Submit → joined a worker's batch.
    pub queue_wait: LatencyHistogram,
    /// Joined a batch → batch dispatched (straggler/assembly time).
    pub batch_assembly: LatencyHistogram,
    /// Batch dispatched → prediction ready (the forward pass).
    pub inference: LatencyHistogram,
}

impl ServeStats {
    /// One JSON object with every counter and per-stage p50/p95/p99 —
    /// the machine-readable stats surface, rendered with the same
    /// conventions as [`Diagnostic::render_json`].
    #[must_use]
    pub fn render_json(&self) -> String {
        let workers: Vec<String> = self
            .worker_requests
            .iter()
            .map(ToString::to_string)
            .collect();
        format!(
            "{{\"requests\":{},\"batches\":{},\"max_batch_seen\":{},\"workers\":{},\
             \"shed\":{},\"expired\":{},\"worker_requests\":[{}],\
             \"latency\":{{\"queue_wait\":{},\"batch_assembly\":{},\"inference\":{}}}}}",
            self.requests,
            self.batches,
            self.max_batch_seen,
            self.workers,
            self.shed,
            self.expired,
            workers.join(","),
            self.queue_wait.render_json(),
            self.batch_assembly.render_json(),
            self.inference.render_json()
        )
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let us = |p: Option<Duration>| p.map_or(0.0, |d| d.as_secs_f64() * 1e6);
        write!(
            f,
            "{} requests in {} batches (largest {}) across {} worker(s); \
             shed {}, expired {}; queue p50/p95/p99 {:.0}/{:.0}/{:.0} us; \
             inference p50/p95/p99 {:.0}/{:.0}/{:.0} us",
            self.requests,
            self.batches,
            self.max_batch_seen,
            self.workers,
            self.shed,
            self.expired,
            us(self.queue_wait.p50()),
            us(self.queue_wait.p95()),
            us(self.queue_wait.p99()),
            us(self.inference.p50()),
            us(self.inference.p95()),
            us(self.inference.p99()),
        )
    }
}

struct Request {
    sample: Vec<f32>,
    reply: mpsc::Sender<Result<Prediction, ServeError>>,
    submitted: Instant,
    deadline: Option<Instant>,
}

/// Admission-queue protocol: requests, or a stop marker. Clients may
/// outlive the server (their sender clones keep the channel open), so
/// workers stop on a marker — shutdown sends one per worker — never by
/// waiting for disconnection. The channel is ordered, so every request
/// admitted before shutdown is served before any marker is seen.
enum Msg {
    Request(Request),
    Shutdown,
}

/// One request staged in a worker's batch, stamped when it joined.
struct Pending {
    req: Request,
    joined: Instant,
}

#[derive(Default)]
struct WorkerStats {
    requests: usize,
    batches: usize,
    max_batch_seen: usize,
    expired: usize,
    queue_wait: LatencyHistogram,
    batch_assembly: LatencyHistogram,
    inference: LatencyHistogram,
}

/// What a worker thread hands back at join: its model (worker 0 owns
/// the original; others own CoW replicas) and its local stats.
struct WorkerExit {
    model: Sequential,
    stats: WorkerStats,
}

/// Flips the server's poisoned flag when its worker thread unwinds, so
/// a crash is visible at once rather than only at join.
struct PoisonOnPanic<'a>(&'a AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// A replicated, micro-batching inference server: owns `workers` model
/// replicas pulling from one bounded admission queue, and serves
/// cloneable [`ServeClient`] handles.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use srmac_models::serve::{InferenceServer, ServeConfig};
/// use srmac_models::{data, resnet};
/// use srmac_tensor::{F32Engine, Numerics};
///
/// let numerics = Numerics::uniform(Arc::new(F32Engine::new(1)));
/// let model = resnet::resnet20_with(&numerics, 4, 10, 0);
/// let server = InferenceServer::start(model, 8, ServeConfig {
///     workers: 2,
///     ..ServeConfig::default()
/// })
/// .expect("f32 forward engines are position-invariant");
/// let client = server.client();
///
/// let ds = data::synth_cifar10(4, 8, 1);
/// let (x, _) = ds.batch(&[0]);
/// let p = client.predict(x.data().to_vec()).unwrap();
/// assert_eq!(p.logits.len(), 10);
/// let (model, stats) = server.shutdown().expect("clean shutdown");
/// assert_eq!(stats.requests, 1);
/// assert_eq!(stats.workers, 2);
/// drop(model);
/// ```
#[derive(Debug)]
pub struct InferenceServer {
    tx: Option<mpsc::SyncSender<Msg>>,
    workers: Vec<std::thread::JoinHandle<WorkerExit>>,
    sample_len: usize,
    worker_count: usize,
    queue_depth: usize,
    sink: DiagSink,
    shed: Arc<AtomicUsize>,
    poisoned: Arc<AtomicBool>,
}

impl InferenceServer {
    /// Takes ownership of `model` (expecting `[B, 3, s, s]` inputs with
    /// `s = image_size`), builds `cfg.workers - 1` CoW replicas, and
    /// starts the worker threads.
    ///
    /// The batch-invariance guard runs on **this** path too: the engines
    /// the model actually carries are inspected via
    /// [`Sequential::stochastic_forward_engine`], so no construction
    /// path can serve a stochastic-rounding forward model.
    ///
    /// # Errors
    ///
    /// [`ServeError::StochasticForward`] when a forward engine is not
    /// position-invariant; [`ServeError::NotReplicable`] when
    /// `cfg.workers > 1` but a layer has no CoW-clone support.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers == 0`, `cfg.max_batch == 0`,
    /// `cfg.queue_depth == 0` or `image_size == 0`.
    pub fn start(
        mut model: Sequential,
        image_size: usize,
        cfg: ServeConfig,
    ) -> Result<Self, ServeError> {
        assert!(cfg.workers > 0, "serving needs at least one worker");
        assert!(cfg.max_batch > 0, "serving needs max_batch >= 1");
        assert!(
            cfg.queue_depth > 0,
            "admission control needs queue_depth >= 1"
        );
        assert!(image_size > 0, "serving needs a nonzero image size");
        if let Some(engine) = model.stochastic_forward_engine() {
            return Err(ServeError::StochasticForward { engine });
        }
        let sample_len = 3 * image_size * image_size;
        let sink = DiagSink::default();
        let shed = Arc::new(AtomicUsize::new(0));
        let poisoned = Arc::new(AtomicBool::new(false));

        // Replicate before moving the original into worker 0. Warming
        // the packed-weight caches first means every replica shares one
        // pack per layer instead of each re-quantizing the same weights.
        let mut models = Vec::with_capacity(cfg.workers);
        if cfg.workers > 1 {
            model.warm_weight_packs();
            for _ in 1..cfg.workers {
                models.push(model.try_clone().ok_or(ServeError::NotReplicable)?);
            }
        }
        models.insert(0, model);

        // Only the workers hold the receiver: when the last one dies it
        // drops, queued requests drop their reply senders, and clients
        // see `Closed` instead of hanging.
        let (tx, rx) = mpsc::sync_channel::<Msg>(cfg.queue_depth);
        let queue = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(cfg.workers);
        for (i, m) in models.into_iter().enumerate() {
            let queue = Arc::clone(&queue);
            let poisoned = Arc::clone(&poisoned);
            #[expect(
                clippy::expect_used,
                reason = "failing to spawn a worker at startup is unrecoverable — abort before serving"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("srmac-serve-{i}"))
                .spawn(move || worker_loop(m, image_size, cfg, &queue, &poisoned))
                .expect("spawn serve worker");
            workers.push(handle);
        }

        Ok(Self {
            tx: Some(tx),
            workers,
            sample_len,
            worker_count: cfg.workers,
            queue_depth: cfg.queue_depth,
            sink,
            shed,
            poisoned,
        })
    }

    /// Like [`InferenceServer::start`], but additionally checks the
    /// declared [`Numerics`] policy up front: every forward engine
    /// (inference uses only the `Forward` role) must be
    /// position-invariant. The model's *actual* engines are checked by
    /// [`InferenceServer::start`] regardless — authoritative, via
    /// [`Sequential::stochastic_forward_engine`] — so passing a policy
    /// that does not match the model cannot smuggle an SR forward engine
    /// past the guard.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::StochasticForward`] naming the offending
    /// engine (plus everything [`InferenceServer::start`] can return).
    ///
    /// # Panics
    ///
    /// See [`InferenceServer::start`].
    pub fn start_with_numerics(
        model: Sequential,
        image_size: usize,
        cfg: ServeConfig,
        numerics: &Numerics,
    ) -> Result<Self, ServeError> {
        numerics
            .forward_position_invariant()
            .map_err(|engine| ServeError::StochasticForward { engine })?;
        Self::start(model, image_size, cfg)
    }

    /// A handle for submitting requests (cloneable, usable from any
    /// thread).
    #[must_use]
    pub fn client(&self) -> ServeClient {
        #[expect(
            clippy::expect_used,
            reason = "tx is Some for the whole life of a running server; client() is only reachable then"
        )]
        let tx = self.tx.clone().expect("server running");
        ServeClient {
            tx,
            sample_len: self.sample_len,
            queue_depth: self.queue_depth,
            shed: Arc::clone(&self.shed),
        }
    }

    /// Number of worker replicas this server runs.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// A handle onto the server's diagnostic sink. The handle shares the
    /// underlying buffer and **outlives the server**, so diagnostics
    /// recorded during `Drop` (a worker panic, for instance) stay
    /// observable.
    #[must_use]
    pub fn diag_sink(&self) -> DiagSink {
        self.sink.clone()
    }

    /// A snapshot of every diagnostic recorded so far.
    #[must_use]
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.sink.snapshot()
    }

    /// True once any worker thread has panicked: the worker flips it as
    /// it unwinds, before its unanswered requests see
    /// [`ServeError::Closed`]. The `serve::worker-panic` diagnostic,
    /// recorded at join, carries the details.
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Stops every worker after all already-admitted requests have been
    /// served (the admission queue is ordered, and the shutdown markers
    /// trail them), and returns the original model with the merged
    /// serving stats. Clients that submit afterwards get
    /// [`ServeError::Closed`].
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerPanicked`] when any serving thread panicked;
    /// the panic is also recorded as a `serve::worker-panic` diagnostic
    /// (grab [`InferenceServer::diag_sink`] first to inspect it).
    pub fn shutdown(mut self) -> Result<(Sequential, ServeStats), ServeError> {
        let (model, stats, failure) = self.reap();
        if let Some(err) = failure {
            return Err(err);
        }
        #[expect(
            clippy::expect_used,
            reason = "reap() reported no failure, so worker 0 returned the model"
        )]
        let model = model.expect("worker 0 returns the model");
        Ok((model, stats))
    }

    /// Records a panic payload from a joined thread: flips the poisoned
    /// flag, emits a `serve::worker-panic` diagnostic, mirrors it to
    /// stderr (a crashed worker must be visible even when nobody reads
    /// the sink), and returns the typed error.
    fn record_panic(&self, thread: &str, payload: &(dyn std::any::Any + Send)) -> ServeError {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        self.poisoned.store(true, Ordering::SeqCst);
        let err = ServeError::WorkerPanicked {
            thread: thread.to_owned(),
            message,
        };
        let diag = err.diagnostic();
        eprintln!("{}", diag.render_short());
        self.sink.emit(diag);
        err
    }

    /// Sends one shutdown marker per worker, joins every worker, merges
    /// their stats, and records (never swallows) any panic. Idempotent:
    /// both [`InferenceServer::shutdown`] and `Drop` call it; the second
    /// call finds nothing left to do.
    fn reap(&mut self) -> (Option<Sequential>, ServeStats, Option<ServeError>) {
        if let Some(tx) = self.tx.take() {
            // A send fails only once every worker is gone.
            for _ in 0..self.worker_count {
                let _ = tx.send(Msg::Shutdown);
            }
        }
        let mut stats = ServeStats {
            workers: self.worker_count,
            worker_requests: vec![0; self.worker_count],
            ..ServeStats::default()
        };
        let mut failure: Option<ServeError> = None;
        let mut model = None;
        let handles: Vec<_> = self.workers.drain(..).collect();
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(exit) => {
                    stats.requests += exit.stats.requests;
                    stats.batches += exit.stats.batches;
                    stats.max_batch_seen = stats.max_batch_seen.max(exit.stats.max_batch_seen);
                    stats.expired += exit.stats.expired;
                    stats.worker_requests[i] = exit.stats.requests;
                    stats.queue_wait.merge(&exit.stats.queue_wait);
                    stats.batch_assembly.merge(&exit.stats.batch_assembly);
                    stats.inference.merge(&exit.stats.inference);
                    if i == 0 {
                        model = Some(exit.model);
                    }
                }
                Err(payload) => {
                    let err = self.record_panic(&format!("srmac-serve-{i}"), payload.as_ref());
                    failure.get_or_insert(err);
                }
            }
        }
        stats.shed = self.shed.load(Ordering::SeqCst);
        if stats.requests > 0 || stats.shed > 0 || stats.expired > 0 {
            self.sink.emit(
                Diagnostic::new(
                    Severity::Info,
                    codes::SHUTDOWN,
                    format!(
                        "served {} requests across {} worker(s)",
                        stats.requests, stats.workers
                    ),
                )
                .field("requests", stats.requests.to_string())
                .field("shed", stats.shed.to_string())
                .field("expired", stats.expired.to_string()),
            );
        }
        (model, stats, failure)
    }
}

impl Drop for InferenceServer {
    /// Joins every serving thread. A worker panic discovered here is
    /// **recorded** — poisoned flag set, `serve::worker-panic`
    /// diagnostic emitted (observable through a previously taken
    /// [`InferenceServer::diag_sink`] handle), short rendering mirrored
    /// to stderr — never silently discarded.
    fn drop(&mut self) {
        let _ = self.reap();
    }
}

/// A request handle onto a running [`InferenceServer`].
#[derive(Debug, Clone)]
pub struct ServeClient {
    tx: mpsc::SyncSender<Msg>,
    sample_len: usize,
    queue_depth: usize,
    shed: Arc<AtomicUsize>,
}

/// An in-flight request: redeem with [`PendingPrediction::wait`].
#[derive(Debug)]
pub struct PendingPrediction {
    rx: mpsc::Receiver<Result<Prediction, ServeError>>,
}

impl PendingPrediction {
    /// Blocks until the prediction (or its typed failure) arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] if the request's deadline passed
    /// in queue, and [`ServeError::Closed`] if no answer can come: the
    /// worker that took the request died, or the server shut down (or
    /// every worker died) before any worker took it.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        match self.rx.recv() {
            Ok(reply) => reply,
            Err(_) => Err(ServeError::Closed),
        }
    }
}

impl ServeClient {
    fn submit_request(
        &self,
        sample: Vec<f32>,
        deadline: Option<Instant>,
    ) -> Result<PendingPrediction, ServeError> {
        if sample.len() != self.sample_len {
            return Err(ServeError::BadInput {
                expected: self.sample_len,
                got: sample.len(),
            });
        }
        let (reply, rx) = mpsc::channel();
        let req = Request {
            sample,
            reply,
            submitted: Instant::now(),
            deadline,
        };
        match self.tx.try_send(Msg::Request(req)) {
            Ok(()) => Ok(PendingPrediction { rx }),
            Err(mpsc::TrySendError::Full(_)) => {
                self.shed.fetch_add(1, Ordering::SeqCst);
                Err(ServeError::Overloaded {
                    depth: self.queue_depth,
                })
            }
            Err(mpsc::TrySendError::Disconnected(_)) => Err(ServeError::Closed),
        }
    }

    /// Enqueues one sample (row-major `[3, s, s]` pixels) without
    /// blocking; submitting several before waiting lets the server batch
    /// them together and spread them across replicas.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] on a wrong-sized sample,
    /// [`ServeError::Overloaded`] when the bounded admission queue is
    /// full (the request was shed, not queued), and
    /// [`ServeError::Closed`] if the server is gone.
    pub fn submit(&self, sample: Vec<f32>) -> Result<PendingPrediction, ServeError> {
        self.submit_request(sample, None)
    }

    /// Like [`ServeClient::submit`], with a deadline: if `budget`
    /// elapses before the request reaches a model, it is answered with
    /// [`ServeError::DeadlineExceeded`] instead of running inference the
    /// client no longer wants.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::submit`]; the returned
    /// [`PendingPrediction::wait`] may additionally yield
    /// [`ServeError::DeadlineExceeded`].
    pub fn submit_within(
        &self,
        sample: Vec<f32>,
        budget: Duration,
    ) -> Result<PendingPrediction, ServeError> {
        self.submit_request(sample, Some(Instant::now() + budget))
    }

    /// Submits one sample and blocks for its prediction.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::submit`] and [`PendingPrediction::wait`].
    pub fn predict(&self, sample: Vec<f32>) -> Result<Prediction, ServeError> {
        self.submit(sample)?.wait()
    }

    /// Submits one sample with a deadline and blocks for its prediction
    /// (or typed expiry).
    ///
    /// # Errors
    ///
    /// See [`ServeClient::submit_within`].
    pub fn predict_within(
        &self,
        sample: Vec<f32>,
        budget: Duration,
    ) -> Result<Prediction, ServeError> {
        self.submit_within(sample, budget)?.wait()
    }
}

/// One worker: take the admission queue's lock, block for a first
/// message, greedily drain up to `max_batch` (briefly waiting for
/// stragglers below `max_wait_items`), release the lock, then run the
/// batch through its replica and reply per request. A shutdown marker or
/// a disconnected queue stops it once its batch is served; a
/// straggler-wait timeout only dispatches the partial batch.
fn worker_loop(
    mut model: Sequential,
    image_size: usize,
    cfg: ServeConfig,
    queue: &Mutex<mpsc::Receiver<Msg>>,
    poisoned: &AtomicBool,
) -> WorkerExit {
    let mut stats = WorkerStats::default();
    let mut batch: Vec<Pending> = Vec::with_capacity(cfg.max_batch);
    // One reused input tensor, exactly like the trainer's evaluate loop:
    // only a batch-size change reshapes it.
    let mut x = Tensor::zeros(&[1, 3, image_size, image_size]);
    // Declared after `batch` so it drops first on a panic: the flag is
    // set before the staged requests' reply senders drop.
    let _poison = PoisonOnPanic(poisoned);
    let mut open = true;
    while open {
        // A panic never leaves the receiver half-updated, so a poisoned
        // lock is safe to keep using.
        let rx = queue.lock().unwrap_or_else(PoisonError::into_inner);
        open = admit(rx.recv().ok(), &mut batch, &mut stats);
        while open && batch.len() < cfg.max_batch {
            let msg = match rx.try_recv() {
                Err(mpsc::TryRecvError::Empty) if batch.len() >= cfg.max_wait_items => break,
                Err(mpsc::TryRecvError::Empty) => match rx.recv_timeout(cfg.straggler_wait) {
                    Err(mpsc::RecvTimeoutError::Timeout) => break,
                    got => got.ok(),
                },
                got => got.ok(),
            };
            open = admit(msg, &mut batch, &mut stats);
        }
        // Another worker may assemble while this one runs the model.
        drop(rx);
        if !batch.is_empty() {
            run_batch(&mut model, &mut x, image_size, &mut batch, &mut stats);
        }
    }
    WorkerExit { model, stats }
}

/// Stages one pulled request into the batch — unless its deadline has
/// already passed, in which case it is answered right here, without
/// touching the model. Returns `false` on a shutdown marker or a
/// disconnected queue (`None`): the worker stops after this batch.
fn admit(msg: Option<Msg>, batch: &mut Vec<Pending>, stats: &mut WorkerStats) -> bool {
    let Some(Msg::Request(req)) = msg else {
        return false;
    };
    let now = Instant::now();
    match req.deadline {
        Some(deadline) if now > deadline => {
            stats.expired += 1;
            let _ = req.reply.send(Err(ServeError::DeadlineExceeded {
                missed_by: now - deadline,
            }));
        }
        _ => batch.push(Pending { req, joined: now }),
    }
    true
}

fn run_batch(
    model: &mut Sequential,
    x: &mut Tensor,
    image_size: usize,
    batch: &mut Vec<Pending>,
    stats: &mut WorkerStats,
) {
    let b = batch.len();
    let plane = 3 * image_size * image_size;
    if x.shape()[0] != b {
        *x = Tensor::zeros(&[b, 3, image_size, image_size]);
    }
    {
        let xd = x.data_mut();
        for (i, p) in batch.iter().enumerate() {
            xd[i * plane..(i + 1) * plane].copy_from_slice(&p.req.sample);
        }
    }
    let dispatched = Instant::now();
    let logits = model.forward(x, false);
    let inference = dispatched.elapsed();
    let classes = logits.numel() / b;
    for (row, p) in logits.data().chunks(classes).zip(batch.drain(..)) {
        // The exact expression of `count_correct`: with the coarse
        // quantized logits the MAC engines produce, ties are real, and
        // any other tie rule would let served accuracy diverge from
        // `evaluate`.
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i);
        stats
            .queue_wait
            .record(p.joined.saturating_duration_since(p.req.submitted));
        stats
            .batch_assembly
            .record(dispatched.saturating_duration_since(p.joined));
        stats.inference.record(inference);
        // A dropped client is not an error; the work is already done.
        let _ = p.req.reply.send(Ok(Prediction {
            logits: row.to_vec(),
            argmax,
            batch_size: b,
        }));
    }
    stats.requests += b;
    stats.batches += 1;
    stats.max_batch_seen = stats.max_batch_seen.max(b);
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use srmac_qgemm::{engine_from_spec, numerics_from_spec};
    use srmac_tensor::{F32Engine, GemmEngine};

    use super::*;
    use crate::data::synth_cifar10;
    use crate::resnet::resnet20_with;
    use crate::{evaluate, Dataset};

    const SIZE: usize = 8;

    fn sample(ds: &Dataset, i: usize) -> Vec<f32> {
        let (x, _) = ds.batch(&[i]);
        x.data().to_vec()
    }

    /// Reference: logits of each sample computed one at a time (batch
    /// size 1) through a plain forward pass.
    fn batch1_logits(model: &mut Sequential, ds: &Dataset, n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| {
                let (x, _) = ds.batch(&[i]);
                model
                    .forward(&x, false)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    }

    /// Serves all `n` samples with the given submission pattern and
    /// returns per-request logit bits plus the stats.
    fn serve_all(
        model: Sequential,
        ds: &Dataset,
        n: usize,
        cfg: ServeConfig,
        pipelined: bool,
    ) -> (Vec<Vec<u32>>, ServeStats, Sequential) {
        let server = InferenceServer::start(model, SIZE, cfg).expect("position-invariant");
        let client = server.client();
        let logits: Vec<Vec<u32>> = if pipelined {
            // Submit everything up front: the workers are free to
            // assemble any batch pattern up to max_batch.
            let pending: Vec<_> = (0..n)
                .map(|i| client.submit(sample(ds, i)).expect("submit"))
                .collect();
            pending
                .into_iter()
                .map(|p| p.wait().expect("prediction"))
                .map(|p| p.logits.iter().map(|v| v.to_bits()).collect())
                .collect()
        } else {
            // Strictly sequential: every batch has exactly one request.
            (0..n)
                .map(|i| client.predict(sample(ds, i)).expect("predict"))
                .map(|p| p.logits.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let (model, stats) = server.shutdown().expect("clean shutdown");
        (logits, stats, model)
    }

    fn engines() -> Vec<(&'static str, Arc<dyn GemmEngine>)> {
        vec![
            ("f32", Arc::new(F32Engine::new(2))),
            ("mac_rn", engine_from_spec("fp8_fp12_rn").expect("spec")),
        ]
    }

    #[test]
    fn any_batching_pattern_matches_batch1_bitwise() {
        // The serving determinism contract, asserted bit for bit for the
        // position-invariant inference engines: pipelined submission
        // (dynamic batches up to 5), strictly sequential submission
        // (all-singleton batches), a greedy max_batch=32 drain, and a
        // 3-replica server must all equal the plain batch-1 forward
        // pass.
        let ds = synth_cifar10(12, SIZE, 31);
        let n = ds.len();
        for (label, engine) in engines() {
            let numerics = Numerics::uniform(engine);
            let mut reference_model = resnet20_with(&numerics, 4, 10, 17);
            let want = batch1_logits(&mut reference_model, &ds, n);

            for (pat, cfg, pipelined) in [
                (
                    "pipelined_max5",
                    ServeConfig {
                        max_batch: 5,
                        max_wait_items: 2,
                        straggler_wait: Duration::from_micros(100),
                        ..ServeConfig::default()
                    },
                    true,
                ),
                ("sequential", ServeConfig::default(), false),
                (
                    "greedy_max32",
                    ServeConfig {
                        max_batch: 32,
                        ..ServeConfig::default()
                    },
                    true,
                ),
                (
                    "replicated_w3",
                    ServeConfig {
                        workers: 3,
                        max_batch: 4,
                        max_wait_items: 2,
                        ..ServeConfig::default()
                    },
                    true,
                ),
            ] {
                let model = resnet20_with(&numerics, 4, 10, 17);
                let (got, stats, _) = serve_all(model, &ds, n, cfg, pipelined);
                assert_eq!(stats.requests, n, "{label}/{pat}: request count");
                assert_eq!(
                    stats.worker_requests.iter().sum::<usize>(),
                    n,
                    "{label}/{pat}: per-worker totals must sum to the request count"
                );
                assert_eq!(
                    got, want,
                    "{label}/{pat}: served logits must be bitwise identical to batch-1"
                );
            }
        }
    }

    #[test]
    fn start_rejects_stochastic_forward_on_every_path() {
        // The doc-example path (`start`) used to skip the batch-
        // invariance guard entirely — only `start_with_numerics` checked
        // the layer engines, so a plain `start` happily served an SR
        // forward model with silently position-dependent logits. Both
        // construction paths must refuse.
        let sr = numerics_from_spec("fp8_fp12_sr13").expect("uniform SR policy");
        let model = resnet20_with(&sr, 4, 10, 3);
        let err = InferenceServer::start(model, SIZE, ServeConfig::default())
            .expect_err("start must enforce the layer-engine guard");
        assert!(
            matches!(&err, ServeError::StochasticForward { engine } if engine.contains("SR")),
            "got {err:?}"
        );
        assert_eq!(err.code(), codes::STOCHASTIC_FORWARD);

        let model = resnet20_with(&sr, 4, 10, 3);
        let err = InferenceServer::start_with_numerics(model, SIZE, ServeConfig::default(), &sr)
            .expect_err("the policy path must also refuse");
        assert!(matches!(err, ServeError::StochasticForward { .. }));
    }

    #[test]
    fn served_argmax_reproduces_evaluate_accuracy() {
        let ds = synth_cifar10(30, SIZE, 41);
        let numerics = Numerics::uniform(Arc::new(F32Engine::new(2)));
        let mut model = resnet20_with(&numerics, 4, 10, 5);
        let want_acc = evaluate(&mut model, &ds, 7);

        let server = InferenceServer::start(model, SIZE, ServeConfig::default())
            .expect("position-invariant");
        let client = server.client();
        let pending: Vec<_> = (0..ds.len())
            .map(|i| client.submit(sample(&ds, i)).unwrap())
            .collect();
        let correct = pending
            .into_iter()
            .enumerate()
            .filter(|(i, p)| {
                let p = p.rx.recv().expect("reply").expect("prediction");
                p.argmax == ds.labels()[*i]
            })
            .count();
        let got_acc = 100.0 * correct as f32 / ds.len() as f32;
        assert_eq!(
            want_acc.to_bits(),
            got_acc.to_bits(),
            "served accuracy must equal evaluate()"
        );
        let (_, stats) = server.shutdown().expect("clean shutdown");
        assert_eq!(stats.requests, ds.len());
    }

    #[test]
    fn pipelined_submission_actually_batches() {
        // With everything queued before the worker starts draining, at
        // least one multi-request batch must form (the whole point of the
        // queue). `max_wait_items = max_batch` makes assembly greedy.
        let ds = synth_cifar10(16, SIZE, 51);
        let numerics = Numerics::uniform(Arc::new(F32Engine::new(1)));
        let model = resnet20_with(&numerics, 4, 10, 3);
        let cfg = ServeConfig {
            max_batch: 8,
            max_wait_items: 8,
            straggler_wait: Duration::from_millis(20),
            ..ServeConfig::default()
        };
        let (_, stats, _) = serve_all(model, &ds, ds.len(), cfg, true);
        assert_eq!(stats.requests, 16);
        assert!(
            stats.max_batch_seen > 1,
            "expected at least one multi-request batch, saw max {}",
            stats.max_batch_seen
        );
        assert!(stats.max_batch_seen <= 8, "max_batch must cap assembly");
        assert!(stats.batches < 16, "batching must reduce dispatch count");
        // The observability contract: every served request is timed
        // through all three stages.
        assert_eq!(stats.queue_wait.count(), 16);
        assert_eq!(stats.batch_assembly.count(), 16);
        assert_eq!(stats.inference.count(), 16);
        assert!(stats.inference.p50().expect("recorded") > Duration::ZERO);
    }

    #[test]
    fn bad_input_and_shutdown_are_typed_errors() {
        let numerics = Numerics::uniform(Arc::new(F32Engine::new(1)));
        let model = resnet20_with(&numerics, 4, 10, 1);
        let server = InferenceServer::start(model, SIZE, ServeConfig::default())
            .expect("position-invariant");
        let client = server.client();
        assert!(matches!(
            client.predict(vec![0.0; 5]),
            Err(ServeError::BadInput {
                expected,
                got: 5
            }) if expected == 3 * SIZE * SIZE
        ));
        let (_, stats) = server.shutdown().expect("clean shutdown");
        assert_eq!(stats.requests, 0, "rejected requests never reach the model");
        assert!(matches!(
            client.predict(vec![0.0; 3 * SIZE * SIZE]),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_nanos(0)), 0);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_nanos(1)), 0);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_nanos(2)), 1);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_nanos(3)), 1);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_nanos(4)), 2);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_nanos(1023)), 9);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_nanos(1024)), 10);
        assert_eq!(LatencyHistogram::bucket_of(Duration::from_secs(10_000)), 43);
        // Durations beyond u64 nanoseconds clamp into the last bucket.
        assert_eq!(
            LatencyHistogram::bucket_of(Duration::from_secs(u64::MAX)),
            63
        );
        assert_eq!(LatencyHistogram::upper_edge_ns(0), 1);
        assert_eq!(LatencyHistogram::upper_edge_ns(9), 1023);
        assert_eq!(LatencyHistogram::upper_edge_ns(63), u64::MAX);
    }

    #[test]
    fn histogram_percentiles_report_bucket_upper_edges() {
        let mut h = LatencyHistogram::new();
        assert_eq!(
            h.percentile(50.0),
            None,
            "empty histogram has no percentiles"
        );

        // One observation: every percentile is its bucket's upper edge.
        h.record(Duration::from_nanos(100)); // bucket 6: [64, 128)
        for p in [1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(Duration::from_nanos(127)));
        }

        // 98 fast + 2 slow: the median stays in the fast bucket, the
        // p99 lands in the slow one.
        let mut h = LatencyHistogram::new();
        for _ in 0..98 {
            h.record(Duration::from_micros(1)); // bucket 9: [512, 1024)
        }
        for _ in 0..2 {
            h.record(Duration::from_millis(1)); // bucket 19
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), Some(Duration::from_nanos(1023)));
        assert_eq!(h.p95(), Some(Duration::from_nanos(1023)));
        // rank = ceil(0.99 * 100) = 99 > 98 -> the slow bucket.
        assert_eq!(h.p99(), Some(Duration::from_nanos((1 << 20) - 1)));
        assert_eq!(
            h.percentile(100.0),
            Some(Duration::from_nanos((1 << 20) - 1))
        );

        // Monotone in p.
        let p = [h.p50().unwrap(), h.p95().unwrap(), h.p99().unwrap()];
        assert!(p[0] <= p[1] && p[1] <= p[2]);
    }

    #[test]
    fn histogram_merge_is_additive() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 1..=8u64 {
            a.record(Duration::from_nanos(i * 100));
            b.record(Duration::from_micros(i * 100));
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), 16);
        let mut direct = LatencyHistogram::new();
        for i in 1..=8u64 {
            direct.record(Duration::from_nanos(i * 100));
            direct.record(Duration::from_micros(i * 100));
        }
        assert_eq!(merged, direct, "merge must equal recording everything once");
        assert_eq!(merged.p50(), direct.p50());
    }

    #[test]
    fn stats_render_json_is_balanced_and_complete() {
        let mut stats = ServeStats {
            requests: 3,
            batches: 2,
            max_batch_seen: 2,
            workers: 2,
            shed: 1,
            expired: 1,
            worker_requests: vec![2, 1],
            ..ServeStats::default()
        };
        stats.queue_wait.record(Duration::from_micros(5));
        stats.inference.record(Duration::from_millis(2));
        let json = stats.render_json();
        for key in [
            "\"requests\":3",
            "\"workers\":2",
            "\"shed\":1",
            "\"expired\":1",
            "\"worker_requests\":[2,1]",
            "\"queue_wait\":",
            "\"batch_assembly\":",
            "\"inference\":",
            "\"p99_us\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let human = stats.to_string();
        assert!(human.contains("3 requests"));
        assert!(human.contains("shed 1"));
    }
}
