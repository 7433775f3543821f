//! Scale-out serving integration tests: replicated workers vs batch-1
//! bitwise, admission control (shed load + deadlines), shutdown with
//! in-flight requests, work pulling around a wedged or dead replica, and
//! worker-panic surfacing.
//!
//! The gated/panicking layers here stand in for a slow or crashing
//! model so the tests control *when* a forward pass runs (or whether it
//! ever does) — the determinism assertions use the real ResNet-20.

// Serving tests time out against real deadlines (clippy.toml bans
// wall-clock only for numerics code).
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use srmac_models::serve::codes;
use srmac_models::{data, resnet, Dataset, InferenceServer, ServeConfig, ServeError, Severity};
use srmac_qgemm::engine_from_spec;
use srmac_tensor::layers::Layer;
use srmac_tensor::{F32Engine, GemmEngine, Numerics, Sequential, Tensor};

const SIZE: usize = 8;

fn sample(ds: &Dataset, i: usize) -> Vec<f32> {
    let (x, _) = ds.batch(&[i]);
    x.data().to_vec()
}

/// An identity layer whose first `blocking` forward passes (counted
/// across its CoW replicas) block until the shared gate opens,
/// signalling entry and counting invocations — the test's handle on "a
/// model is busy right now" and "the model ran N times".
struct GateLayer {
    gate: Arc<(Mutex<bool>, Condvar)>,
    entered: mpsc::Sender<()>,
    forwards: Arc<AtomicUsize>,
    blocking: usize,
}

impl Layer for GateLayer {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let n = self.forwards.fetch_add(1, Ordering::SeqCst);
        let _ = self.entered.send(());
        if n < self.blocking {
            let (lock, cvar) = &*self.gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
        }
        x.clone()
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        grad.clone()
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(GateLayer {
            gate: Arc::clone(&self.gate),
            entered: self.entered.clone(),
            forwards: Arc::clone(&self.forwards),
            blocking: self.blocking,
        }))
    }
}

/// The test's side of a [`GateLayer`]. Dropping it opens the gate: tests
/// re-bind it after starting the server (`let gate = gate;`) so it drops
/// first, and a failing assertion cannot leave the server's join hanging
/// on a wedged worker.
struct Gate {
    gate: Arc<(Mutex<bool>, Condvar)>,
    entered: mpsc::Receiver<()>,
    forwards: Arc<AtomicUsize>,
}

impl Gate {
    /// A one-layer model whose first `blocking` forward passes wait for
    /// the gate; later ones pass straight through.
    fn model(blocking: usize) -> (Sequential, Gate) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let forwards = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let mut model = Sequential::new();
        model.push(GateLayer {
            gate: Arc::clone(&gate),
            entered: tx,
            forwards: Arc::clone(&forwards),
            blocking,
        });
        (
            model,
            Gate {
                gate,
                entered: rx,
                forwards,
            },
        )
    }

    fn open(&self) {
        let (lock, cvar) = &*self.gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        self.open();
    }
}

/// A layer whose first forward pass (counted across its CoW replicas)
/// panics — a stand-in for a worker crashing mid-inference.
struct PanicLayer {
    forwards: Arc<AtomicUsize>,
}

impl PanicLayer {
    fn model() -> Sequential {
        let mut model = Sequential::new();
        model.push(PanicLayer {
            forwards: Arc::new(AtomicUsize::new(0)),
        });
        model
    }
}

impl Layer for PanicLayer {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        if self.forwards.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("boom");
        }
        x.clone()
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        grad.clone()
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(PanicLayer {
            forwards: Arc::clone(&self.forwards),
        }))
    }
}

/// Gated models use `image_size = 1`: one sample is `3 * 1 * 1 = 3`
/// floats and the identity forward yields 3 "logits".
const GATED_SIZE: usize = 1;

fn gated_sample(v: f32) -> Vec<f32> {
    vec![v; 3]
}

#[test]
fn multithreaded_clients_on_replicas_match_batch1_bitwise() {
    // The scaled-out determinism contract: four concurrent client
    // threads hammering a 3-replica server get logits bitwise identical
    // to the single-threaded batch-1 forward pass, for both inference
    // engines — whichever replica served, whatever batches formed.
    let ds = data::synth_cifar10(12, SIZE, 71);
    let n = ds.len();
    let engines: Vec<(&str, Arc<dyn GemmEngine>)> = vec![
        ("f32", Arc::new(F32Engine::new(2))),
        ("mac_rn", engine_from_spec("fp8_fp12_rn").expect("spec")),
    ];
    for (label, engine) in engines {
        let numerics = Numerics::uniform(engine);
        let mut reference = resnet::resnet20_with(&numerics, 4, 10, 23);
        let want: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let (x, _) = ds.batch(&[i]);
                reference
                    .forward(&x, false)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();

        let model = resnet::resnet20_with(&numerics, 4, 10, 23);
        let server = InferenceServer::start(
            model,
            SIZE,
            ServeConfig {
                workers: 3,
                max_batch: 4,
                max_wait_items: 2,
                ..ServeConfig::default()
            },
        )
        .expect("RN/f32 forward engines are position-invariant");
        assert_eq!(server.workers(), 3);

        let got: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let client = server.client();
                    let ds = &ds;
                    s.spawn(move || {
                        // Each thread serves a strided quarter of the set.
                        (t..n)
                            .step_by(4)
                            .map(|i| {
                                let p = client.predict(sample(ds, i)).expect("prediction");
                                (
                                    i,
                                    p.logits.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut got = vec![Vec::new(); n];
            for h in handles {
                for (i, bits) in h.join().expect("client thread") {
                    got[i] = bits;
                }
            }
            got
        });
        assert_eq!(
            got, want,
            "{label}: replica-served logits must equal batch-1"
        );

        let (_, stats) = server.shutdown().expect("clean shutdown");
        assert_eq!(stats.requests, n, "{label}");
        assert_eq!(stats.workers, 3, "{label}");
        assert_eq!(
            stats.worker_requests.iter().sum::<usize>(),
            n,
            "{label}: per-worker totals must sum to the request count"
        );
        assert_eq!(stats.queue_wait.count(), n as u64, "{label}");
        assert_eq!(stats.inference.count(), n as u64, "{label}");
    }
}

#[test]
fn full_admission_queue_sheds_with_typed_overloaded() {
    // With the single worker wedged inside a gated forward pass and a
    // 2-deep admission queue, a 32-request burst must shed all but 2 of
    // its requests as `Overloaded` *immediately* (no blocking), and every
    // accepted request must still be answered once the gate opens.
    let (model, gate) = Gate::model(usize::MAX);
    let server = InferenceServer::start(
        model,
        GATED_SIZE,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        },
    )
    .expect("gate layer has no GEMM engines");
    let gate = gate;
    let client = server.client();

    // Wedge the worker: the first request enters the (closed) gate.
    let wedge = client
        .submit(gated_sample(0.0))
        .expect("first request admitted");
    gate.entered.recv().expect("worker entered forward");

    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for i in 0..32 {
        match client.submit(gated_sample(i as f32)) {
            Ok(p) => accepted.push(p),
            Err(ServeError::Overloaded { depth }) => {
                assert_eq!(depth, 2, "error reports the configured depth");
                shed += 1;
            }
            Err(e) => panic!("expected Overloaded, got {e:?}"),
        }
    }
    // With the only worker wedged, the 2-deep admission queue is the
    // only buffer: exactly 2 are admitted and the other 30 are shed.
    assert_eq!(shed, 30, "expected 30 shed of 32, got {shed}");
    assert_eq!(accepted.len() + shed, 32);

    gate.open();
    assert_eq!(wedge.wait().expect("wedged request served").logits.len(), 3);
    let n_accepted = accepted.len();
    for p in accepted {
        p.wait().expect("accepted request eventually served");
    }
    let (_, stats) = server.shutdown().expect("clean shutdown");
    assert_eq!(stats.shed, shed, "stats must count every shed request");
    assert_eq!(stats.requests, 1 + n_accepted);
    assert_eq!(
        stats.requests + stats.shed + stats.expired,
        33,
        "32 submitted plus the wedge, each served, shed or expired once"
    );
}

#[test]
fn expired_deadline_is_answered_without_touching_a_model() {
    // Request A wedges the worker inside the gate; request B carries a
    // 1 ms deadline and must be answered `DeadlineExceeded` — and the
    // forward counter proves no model ever ran for it.
    let (model, gate) = Gate::model(usize::MAX);
    let server = InferenceServer::start(
        model,
        GATED_SIZE,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            ..ServeConfig::default()
        },
    )
    .expect("gate layer has no GEMM engines");
    let gate = gate;
    let client = server.client();

    let a = client.submit(gated_sample(1.0)).expect("submit A");
    gate.entered.recv().expect("worker entered forward");
    let b = client
        .submit_within(gated_sample(2.0), Duration::from_millis(1))
        .expect("B admitted (queue is not full)");
    std::thread::sleep(Duration::from_millis(50)); // let B's deadline lapse
    gate.open();

    assert_eq!(a.wait().expect("A served").logits.len(), 3);
    match b.wait() {
        Err(ServeError::DeadlineExceeded { missed_by }) => {
            assert!(
                missed_by >= Duration::from_millis(1),
                "missed_by = {missed_by:?}"
            );
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let (_, stats) = server.shutdown().expect("clean shutdown");
    assert_eq!(stats.expired, 1, "one deadline expiry counted");
    assert_eq!(stats.requests, 1, "only A reached a model");
    assert_eq!(
        gate.forwards.load(Ordering::SeqCst),
        1,
        "the expired request must never touch the model"
    );
}

#[test]
fn shutdown_serves_in_flight_requests_across_replicas() {
    // 16 requests submitted and then an immediate shutdown: the marker
    // trails the requests through the ordered queues, so every admitted
    // request is served (by either replica) before the workers stop.
    let numerics = Numerics::uniform(Arc::new(F32Engine::new(1)));
    let model = resnet::resnet20_with(&numerics, 4, 10, 9);
    let server = InferenceServer::start(
        model,
        SIZE,
        ServeConfig {
            workers: 2,
            max_batch: 4,
            max_wait_items: 4,
            ..ServeConfig::default()
        },
    )
    .expect("position-invariant");
    let client = server.client();
    let ds = data::synth_cifar10(16, SIZE, 81);
    let pending: Vec<_> = (0..16)
        .map(|i| client.submit(sample(&ds, i)).expect("submit"))
        .collect();
    let (_, stats) = server.shutdown().expect("clean shutdown");
    assert_eq!(stats.requests, 16, "every in-flight request was served");
    assert_eq!(stats.workers, 2);
    for p in pending {
        assert_eq!(p.wait().expect("served before shutdown").logits.len(), 10);
    }
}

#[test]
fn wedged_replica_strands_nothing() {
    // Two replicas; the first forward pass wedges one of them. Workers
    // pull from the shared admission queue, so the idle replica must
    // answer all 8 later requests while the gate is still closed — none
    // may wait behind the wedged one.
    let (model, gate) = Gate::model(1);
    let server = InferenceServer::start(
        model,
        GATED_SIZE,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("gate layer has no GEMM engines");
    let gate = gate;
    let client = server.client();
    let wedge = client.submit(gated_sample(0.0)).expect("submit wedge");
    gate.entered.recv().expect("worker entered forward");

    let pending: Vec<_> = (0..8)
        .map(|i| client.submit(gated_sample(i as f32)).expect("submit"))
        .collect();
    let (tx, rx) = mpsc::channel();
    let redeemer = std::thread::spawn(move || {
        for p in pending {
            let _ = tx.send(p.wait());
        }
    });
    for i in 0..8 {
        let reply = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("request {i} stranded behind the wedged replica: {e:?}"));
        assert_eq!(reply.expect("served").logits.len(), 3);
    }

    gate.open();
    assert_eq!(wedge.wait().expect("wedge served").logits.len(), 3);
    redeemer.join().expect("redeemer thread");
    let (_, stats) = server.shutdown().expect("clean shutdown");
    let mut per_worker = stats.worker_requests;
    per_worker.sort_unstable();
    assert_eq!(per_worker, [1, 8], "the free replica served all 8");
}

#[test]
fn worker_panic_is_recorded_not_swallowed() {
    let server = InferenceServer::start(PanicLayer::model(), GATED_SIZE, ServeConfig::default())
        .expect("panic layer has no GEMM engines");
    let sink = server.diag_sink();
    let client = server.client();

    // The request that kills the worker: its reply channel drops with
    // the worker's stack, so the client sees a typed `Closed`.
    match client.predict(gated_sample(0.0)) {
        Err(ServeError::Closed) => {}
        other => panic!("expected Closed from a dead worker, got {other:?}"),
    }

    // The dying worker flips the poisoned flag itself; nothing more
    // needs to be submitted for the server to notice (bounded wait).
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.poisoned() {
        assert!(
            Instant::now() < deadline,
            "server never noticed the dead worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Shutdown surfaces the panic as a typed error...
    match server.shutdown() {
        Err(ServeError::WorkerPanicked { thread, message }) => {
            assert_eq!(thread, "srmac-serve-0");
            assert_eq!(message, "boom");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // ...and as a diagnostic that outlives the server through the sink
    // handle taken earlier.
    let diags = sink.snapshot();
    let panic_diag = diags
        .iter()
        .find(|d| d.code == codes::WORKER_PANIC)
        .expect("worker panic recorded in diagnostics");
    assert_eq!(panic_diag.severity, Severity::Error);
    assert!(panic_diag.render_human().contains("boom"));
}

#[test]
fn surviving_replica_serves_after_a_worker_panic() {
    // Two replicas; the first forward pass kills whichever worker ran
    // it. The survivor keeps pulling from the shared queue, so every
    // later request is served, and shutdown still names the dead one.
    let server = InferenceServer::start(
        PanicLayer::model(),
        GATED_SIZE,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("panic layer has no GEMM engines");
    let client = server.client();
    assert!(matches!(
        client.predict(gated_sample(0.0)),
        Err(ServeError::Closed)
    ));
    for i in 1..=8 {
        let p = client
            .predict(gated_sample(i as f32))
            .expect("the surviving replica serves");
        assert_eq!(p.logits, gated_sample(i as f32));
    }
    assert!(server.poisoned());
    match server.shutdown() {
        Err(ServeError::WorkerPanicked { thread, message }) => {
            assert!(
                thread == "srmac-serve-0" || thread == "srmac-serve-1",
                "thread = {thread}"
            );
            assert_eq!(message, "boom");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn dropped_server_still_records_worker_panics() {
    // The Drop path must record the panic too — the old Drop impl
    // did `let _ = w.join();`, making a crashed worker indistinguishable
    // from a clean shutdown.
    let server = InferenceServer::start(PanicLayer::model(), GATED_SIZE, ServeConfig::default())
        .expect("panic layer has no GEMM engines");
    let sink = server.diag_sink();
    let client = server.client();
    let _ = client.predict(gated_sample(0.0)); // kills the worker
    drop(server); // joins + records, never swallows

    let diags = sink.snapshot();
    assert!(
        diags.iter().any(|d| d.code == codes::WORKER_PANIC
            && d.severity == Severity::Error
            && d.render_short().contains("boom")),
        "Drop must record the worker panic in the surviving sink, got {diags:?}"
    );
}
