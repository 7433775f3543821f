//! Tracing from outside the program.
//!
//! Two delegating wrappers time the calls they forward and add the times
//! to one process-wide ledger; no code of the traced crates changes:
//!
//! - [`TracedEngine`] wraps the `GemmEngine` of one GEMM role. It is
//!   installed through `Numerics::builder()` ([`traced_numerics`]) and
//!   re-wraps the engines `with_row_base` derives, so data-parallel
//!   sub-batches stay traced.
//! - [`TracedLayer`] wraps one top-level child of the ResNet-20
//!   `Sequential` ([`traced_model`]) and forwards every `Layer` method,
//!   `clone_layer` included, so trainer replicas and server workers stay
//!   traced.
//!
//! A layer span's *self* time is its duration minus the `qgemm` time
//! spent inside it on the same thread (kernel tiles dispatched to the
//! pool run inside the caller's `gemm_packed` call). Counters are relaxed
//! atomics: they publish no other data, and the benchmark reads them only
//! between phases, when no model work runs.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use srmac_tensor::layers::{Layer, Param};
use srmac_tensor::{GemmEngine, GemmRole, Numerics, PackedOperand, Sequential, Tensor};

/// The layer groups of ResNet-20, in model order.
pub const GROUPS: [&str; 5] = ["stem", "stage1", "stage2", "stage3", "head"];

/// Thread slots for per-thread model time; threads beyond this share.
const SLOTS: usize = 64;

const fn z() -> AtomicU64 {
    AtomicU64::new(0)
}

struct RoleCounters {
    pack_ns: AtomicU64,
    pack_a: AtomicU64,
    pack_b: AtomicU64,
    accum_ns: AtomicU64,
    calls: AtomicU64,
    macs: AtomicU64,
}

struct GroupCounters {
    fwd_ns: AtomicU64,
    bwd_ns: AtomicU64,
    warm_ns: AtomicU64,
    gemm_ns: AtomicU64,
}

static ROLES: [RoleCounters; 3] = [const {
    RoleCounters {
        pack_ns: z(),
        pack_a: z(),
        pack_b: z(),
        accum_ns: z(),
        calls: z(),
        macs: z(),
    }
}; 3];
static GROUP_COUNTERS: [GroupCounters; 5] = [const {
    GroupCounters {
        fwd_ns: z(),
        bwd_ns: z(),
        warm_ns: z(),
        gemm_ns: z(),
    }
}; 5];
static THREAD_MODEL_NS: [AtomicU64; SLOTS] = [const { z() }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS;
    /// `qgemm` nanoseconds spent on this thread so far.
    static GEMM_NS: Cell<u64> = const { Cell::new(0) };
}

/// Totals of one GEMM role since the last [`take`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleTotals {
    /// `pack_a` + `pack_b` time.
    pub pack_ns: u64,
    /// `pack_a` calls.
    pub pack_a: u64,
    /// `pack_b` calls.
    pub pack_b: u64,
    /// `gemm_packed` (accumulate kernel) time.
    pub accum_ns: u64,
    /// `gemm_packed` calls.
    pub calls: u64,
    /// MAC steps (`m * k * n`) of those calls.
    pub macs: u64,
}

/// Totals of one layer group since the last [`take`] (summed over
/// threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupTotals {
    /// Forward spans.
    pub fwd_ns: u64,
    /// Backward spans.
    pub bwd_ns: u64,
    /// `warm_weight_packs` spans.
    pub warm_ns: u64,
    /// `qgemm` time inside those spans.
    pub gemm_ns: u64,
}

impl GroupTotals {
    /// All span time of the group.
    #[must_use]
    pub fn span_ns(&self) -> u64 {
        self.fwd_ns + self.bwd_ns + self.warm_ns
    }

    /// Span time not spent in `qgemm`: movement, norm, activation,
    /// pooling and residual adds.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.span_ns().saturating_sub(self.gemm_ns)
    }
}

/// Everything the wrappers recorded between two [`take`] calls.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Per role, in `fwd, dgrad, wgrad` order.
    pub roles: [RoleTotals; 3],
    /// Per group, in [`GROUPS`] order.
    pub groups: [GroupTotals; 5],
    /// Model span time per thread slot.
    pub thread_model_ns: Vec<u64>,
}

/// Returns everything recorded since the previous call and resets the
/// ledger.
pub fn take() -> Snapshot {
    let t = |a: &AtomicU64| a.swap(0, Relaxed);
    let mut s = Snapshot::default();
    for (r, c) in s.roles.iter_mut().zip(&ROLES) {
        *r = RoleTotals {
            pack_ns: t(&c.pack_ns),
            pack_a: t(&c.pack_a),
            pack_b: t(&c.pack_b),
            accum_ns: t(&c.accum_ns),
            calls: t(&c.calls),
            macs: t(&c.macs),
        };
    }
    for (g, c) in s.groups.iter_mut().zip(&GROUP_COUNTERS) {
        *g = GroupTotals {
            fwd_ns: t(&c.fwd_ns),
            bwd_ns: t(&c.bwd_ns),
            warm_ns: t(&c.warm_ns),
            gemm_ns: t(&c.gemm_ns),
        };
    }
    s.thread_model_ns = THREAD_MODEL_NS.iter().map(t).collect();
    s
}

/// Model span time per thread slot so far (not reset): the trainer loop
/// differences two reads around one step.
#[must_use]
pub fn thread_model_ns() -> Vec<u64> {
    THREAD_MODEL_NS.iter().map(|a| a.load(Relaxed)).collect()
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn add_gemm_time(ns: u64) {
    GEMM_NS.with(|g| g.set(g.get() + ns));
}

/// A `GemmEngine` that times `pack_a`, `pack_b` and `gemm_packed` of the
/// engine it wraps. The one-shot `gemm` is left to the trait's default,
/// which composes the three timed calls, exactly as `MacGemm` does.
pub struct TracedEngine {
    inner: Arc<dyn GemmEngine>,
    role: usize,
}

impl TracedEngine {
    /// Wraps `inner` as the engine of `role`.
    #[must_use]
    pub fn wrap(inner: Arc<dyn GemmEngine>, role: GemmRole) -> Arc<dyn GemmEngine> {
        let role = usize::try_from(role.id()).expect("role ids are 0..3");
        Arc::new(Self { inner, role })
    }
}

impl GemmEngine for TracedEngine {
    fn pack_a(&self, rows: usize, cols: usize, a: &[f32]) -> PackedOperand {
        let t0 = Instant::now();
        let p = self.inner.pack_a(rows, cols, a);
        let ns = elapsed_ns(t0);
        ROLES[self.role].pack_ns.fetch_add(ns, Relaxed);
        ROLES[self.role].pack_a.fetch_add(1, Relaxed);
        add_gemm_time(ns);
        p
    }

    fn pack_b(&self, rows: usize, cols: usize, b: &[f32]) -> PackedOperand {
        let t0 = Instant::now();
        let p = self.inner.pack_b(rows, cols, b);
        let ns = elapsed_ns(t0);
        ROLES[self.role].pack_ns.fetch_add(ns, Relaxed);
        ROLES[self.role].pack_b.fetch_add(1, Relaxed);
        add_gemm_time(ns);
        p
    }

    fn gemm_packed(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &PackedOperand,
        b: &PackedOperand,
        out: &mut [f32],
    ) {
        let t0 = Instant::now();
        self.inner.gemm_packed(m, k, n, a, b, out);
        let ns = elapsed_ns(t0);
        let c = &ROLES[self.role];
        c.accum_ns.fetch_add(ns, Relaxed);
        c.calls.fetch_add(1, Relaxed);
        c.macs.fetch_add((m * k * n) as u64, Relaxed);
        add_gemm_time(ns);
    }

    fn benefits_from_packing(&self) -> bool {
        self.inner.benefits_from_packing()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn spec(&self) -> Option<String> {
        self.inner.spec()
    }

    fn position_invariant(&self) -> bool {
        self.inner.position_invariant()
    }

    fn with_row_base(&self, first_row: usize) -> Option<Arc<dyn GemmEngine>> {
        let derived = self.inner.with_row_base(first_row)?;
        Some(Arc::new(Self {
            inner: derived,
            role: self.role,
        }))
    }
}

/// `numerics` with every role's engine wrapped in a [`TracedEngine`].
/// Roles that shared one engine object keep sharing it underneath, so
/// the arithmetic is unchanged.
///
/// # Panics
///
/// Never: every role is assigned.
#[must_use]
pub fn traced_numerics(numerics: &Numerics) -> Numerics {
    GemmRole::ALL
        .iter()
        .fold(Numerics::builder(), |b, &role| {
            let engine = Arc::clone(numerics.engine(role));
            b.role(role, TracedEngine::wrap(engine, role))
        })
        .build()
        .expect("every role is assigned")
}

/// A `Layer` that times `forward`, `backward` and `warm_weight_packs` of
/// the layer it wraps, and forwards every other method unchanged.
pub struct TracedLayer {
    inner: Box<dyn Layer>,
    group: usize,
}

enum Span {
    Fwd,
    Bwd,
    Warm,
}

impl TracedLayer {
    fn span<T>(&mut self, kind: &Span, f: impl FnOnce(&mut dyn Layer) -> T) -> T {
        let gemm0 = GEMM_NS.with(Cell::get);
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        let ns = elapsed_ns(t0);
        let gemm = GEMM_NS.with(Cell::get) - gemm0;
        let c = &GROUP_COUNTERS[self.group];
        match kind {
            Span::Fwd => c.fwd_ns.fetch_add(ns, Relaxed),
            Span::Bwd => c.bwd_ns.fetch_add(ns, Relaxed),
            Span::Warm => c.warm_ns.fetch_add(ns, Relaxed),
        };
        c.gemm_ns.fetch_add(gemm, Relaxed);
        SLOT.with(|&s| THREAD_MODEL_NS[s].fetch_add(ns, Relaxed));
        out
    }
}

impl Layer for TracedLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.span(&Span::Fwd, |l| l.forward(x, train))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.span(&Span::Bwd, |l| l.backward(grad))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.inner.visit_state(f);
    }

    fn visit_role_engines(&mut self, f: &mut dyn FnMut(GemmRole, &Arc<dyn GemmEngine>)) {
        self.inner.visit_role_engines(f);
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        let inner = self.inner.clone_layer()?;
        Some(Box::new(Self {
            inner,
            group: self.group,
        }))
    }

    fn set_batch_offset(&mut self, offset: usize) {
        self.inner.set_batch_offset(offset);
    }

    fn warm_weight_packs(&mut self) {
        self.span(&Span::Warm, |l| l.warm_weight_packs());
    }
}

/// The ResNet-20 group of top-level child `i`: the stem is conv, norm
/// and ReLU; each stage is three residual blocks; the head is pooling
/// and the classifier.
fn group_of(i: usize) -> usize {
    match i {
        0..=2 => 0,
        3..=5 => 1,
        6..=8 => 2,
        9..=11 => 3,
        _ => 4,
    }
}

/// Rebuilds a fresh ResNet-20 with each top-level child wrapped in a
/// [`TracedLayer`]. The children are copy-on-write clones
/// (`clone_layer`): weights, running statistics and engines carry over.
///
/// # Panics
///
/// Panics if the model is not a 14-child ResNet-20 or a child cannot be
/// cloned.
#[must_use]
pub fn traced_model(mut model: Sequential) -> Sequential {
    let mut children = Vec::new();
    model.for_each_layer(&mut |l| {
        children.push(l.clone_layer().expect("ResNet-20 layers are replicable"));
    });
    assert_eq!(children.len(), 14, "expected the 14 children of ResNet-20");
    let mut traced = Sequential::new();
    for (i, inner) in children.into_iter().enumerate() {
        traced.push_boxed(Box::new(TracedLayer {
            inner,
            group: group_of(i),
        }));
    }
    traced
}
