//! Neural-network layers with explicit forward/backward passes.
//!
//! Layers own their parameters and gradients and cache whatever activations
//! their backward pass needs. Convolutions and linear layers route every
//! matrix product through the session’s [`GemmEngine`] —
//! that is the hook the low-precision MAC emulation plugs into.

mod act;
mod conv;
mod linear;
mod norm;

pub use act::{Flatten, GlobalAvgPool, MaxPool2, Relu};
pub use conv::Conv2d;
pub use linear::Linear;
pub use norm::BatchNorm2d;

use std::borrow::Cow;
use std::sync::Arc;

use crate::movement::{transpose, Im2Row};
use crate::numerics::{GemmRole, RoleEngines};
use crate::{GemmEngine, NeededRows, PackedOperand, Tensor};

/// A learnable parameter with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient of the loss with respect to the value.
    pub grad: Tensor,
    /// Whether weight decay applies (disabled for biases and norm affines,
    /// following common practice).
    pub decay: bool,
}

impl Param {
    /// Creates a parameter with a zeroed gradient.
    #[must_use]
    pub fn new(value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { value, grad, decay }
    }

    /// The value's mutation generation (see [`Tensor::generation`]):
    /// layers key their cached packed operands (see
    /// [`crate::PackedOperand`]) on it, so an optimizer step — or any other
    /// write to `value` — invalidates the caches automatically.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.value.generation()
    }
}

/// The weight side of a GEMM layer ([`Conv2d`], [`Linear`]) whose weight
/// `W` is `[out, K]`: its role engines, the packed-weight caches and the
/// row-offset engines of a data-parallel replica.
///
/// Each product dispatches on the engine its [`GemmRole`] resolves to. The
/// forward (`A · Wᵀ`) and data-gradient (`A · W`) products run on cached
/// [`PackedOperand`]s keyed on the weight's version whenever the role's
/// engine does real work in packing; each cache belongs to one role's
/// engine, so mixed policies may pack the same weight differently per
/// role without the caches interfering.
struct WeightProducts {
    out: usize,
    k: usize,
    engines: RoleEngines,
    /// `pack_b` of `Wᵀ` (`[K, out]`) by the `Forward` engine, at a weight
    /// version. `Arc`-shared so data-parallel replicas (see
    /// [`Layer::clone_layer`]) reuse one pack instead of re-quantizing.
    fwd_pack: Option<(u64, Arc<PackedOperand>)>,
    /// `pack_b` of `W` (`[out, K]`) by the `BackwardData` engine, at a
    /// weight version. `Arc`-shared like `fwd_pack`.
    bwd_pack: Option<(u64, Arc<PackedOperand>)>,
    /// Row-offset engines derived via [`GemmEngine::with_row_base`],
    /// keyed `(role, row base)`. Tiny: one entry per (role, offset) this
    /// replica ever runs at.
    derived: Vec<(GemmRole, usize, Arc<dyn GemmEngine>)>,
}

impl WeightProducts {
    fn new(out: usize, k: usize, engines: RoleEngines) -> Self {
        Self {
            out,
            k,
            engines,
            fwd_pack: None,
            bwd_pack: None,
            derived: Vec::new(),
        }
    }

    /// A replica's copy: same engines and shared packs, no derived
    /// engines (the replica's row base is set afresh).
    fn replica(&self) -> Self {
        Self {
            fwd_pack: self.fwd_pack.clone(),
            bwd_pack: self.bwd_pack.clone(),
            ..Self::new(self.out, self.k, self.engines.clone())
        }
    }

    fn engine(&self, role: GemmRole) -> &Arc<dyn GemmEngine> {
        self.engines.get(role)
    }

    fn visit(&self, f: &mut dyn FnMut(GemmRole, &Arc<dyn GemmEngine>)) {
        for role in GemmRole::ALL {
            f(role, self.engine(role));
        }
    }

    /// Whether `role`'s products go through its cached packed weight:
    /// only when the role's engine does real work in packing.
    fn use_packed(&self, role: GemmRole) -> bool {
        self.engine(role).benefits_from_packing()
    }

    /// The `k x n` shape of `role`'s right operand.
    fn shape(&self, role: GemmRole) -> (usize, usize) {
        if role == GemmRole::Forward {
            (self.k, self.out)
        } else {
            (self.out, self.k)
        }
    }

    /// `role`'s right operand: `Wᵀ` for `Forward`, `W` for `BackwardData`.
    fn operand<'w>(&self, role: GemmRole, w: &'w Param) -> Cow<'w, [f32]> {
        if role == GemmRole::Forward {
            Cow::Owned(transpose(w.value.data(), self.out, self.k))
        } else {
            Cow::Borrowed(w.value.data())
        }
    }

    fn slot(&mut self, role: GemmRole) -> &mut Option<(u64, Arc<PackedOperand>)> {
        if role == GemmRole::Forward {
            &mut self.fwd_pack
        } else {
            &mut self.bwd_pack
        }
    }

    /// `role`'s packed right operand at `w`'s current version, rebuilt if
    /// stale.
    fn pack(&mut self, role: GemmRole, w: &Param) -> Arc<PackedOperand> {
        let v = w.version();
        if let Some((ver, pack)) = self.slot(role) {
            if *ver == v {
                return Arc::clone(pack);
            }
        }
        let (k, n) = self.shape(role);
        let pack = Arc::new(self.engine(role).pack_b(k, n, &self.operand(role, w)));
        *self.slot(role) = Some((v, Arc::clone(&pack)));
        pack
    }

    /// Rebuilds stale packs ahead of [`Layer::clone_layer`], so every
    /// replica gets a ready pack instead of re-packing the same weight.
    fn warm(&mut self, w: &Param) {
        for role in [GemmRole::Forward, GemmRole::BackwardData] {
            if self.use_packed(role) {
                self.pack(role, w);
            }
        }
    }

    /// The engine for `role`, row-offset by `row_base` output rows (see
    /// [`GemmEngine::with_row_base`]) so a replica's products draw the
    /// same per-position randomness those rows would in the full batch.
    /// Position-invariant engines (and `row_base == 0`) resolve to the
    /// base engine itself.
    fn role_engine(&mut self, role: GemmRole, row_base: usize) -> Arc<dyn GemmEngine> {
        let base = Arc::clone(self.engine(role));
        if row_base == 0 {
            return base;
        }
        if let Some((_, _, engine)) = self
            .derived
            .iter()
            .find(|(r, b, _)| *r == role && *b == row_base)
        {
            return Arc::clone(engine);
        }
        let engine = base.with_row_base(row_base).unwrap_or(base);
        self.derived.push((role, row_base, Arc::clone(&engine)));
        engine
    }

    /// One weight-sided product on `role`'s engine, row-offset by
    /// `row_base`: `out (m x out) = a (m x K) · Wᵀ` for `Forward`,
    /// `out (m x K) = a (m x out) · W` for `BackwardData`. With `need`,
    /// only the entries it lists are specified (see
    /// [`GemmEngine::gemm_packed_masked`]).
    fn product(
        &mut self,
        role: GemmRole,
        w: &Param,
        row_base: usize,
        a: Lhs<'_>,
        need: Option<&Arc<NeededRows>>,
        out: &mut [f32],
    ) {
        let (k, n) = self.shape(role);
        let m = a.rows();
        if self.use_packed(role) {
            let b = self.pack(role, w);
            let engine = self.role_engine(role, row_base);
            let pa = match a {
                Lhs::Rows(_, a) => engine.pack_a(m, k, a),
                Lhs::Im2Row(x, geom) => engine.pack_a_im2row(x, geom),
            };
            match need {
                Some(need) => engine.gemm_packed_masked(m, k, n, &pa, &b, need, out),
                None => engine.gemm_packed(m, k, n, &pa, &b, out),
            }
        } else {
            let a = match a {
                Lhs::Rows(_, a) => Cow::Borrowed(a),
                Lhs::Im2Row(x, geom) => Cow::Owned(geom.unfold(x)),
            };
            let b = self.operand(role, w);
            self.role_engine(role, row_base).gemm(m, k, n, &a, &b, out);
        }
    }
}

/// The left operand of a [`WeightProducts`] product.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// A row-major `m x K` matrix, as `(m, a)`.
    Rows(usize, &'a [f32]),
    /// The im2row matrix of an NCHW input (see [`Im2Row`]).
    Im2Row(&'a [f32], &'a Im2Row),
}

impl Lhs<'_> {
    /// The operand's row count `m`.
    fn rows(&self) -> usize {
        match self {
            Lhs::Rows(m, _) => *m,
            Lhs::Im2Row(_, geom) => geom.rows(),
        }
    }
}

/// A differentiable module: single input, single output, stateful backward.
///
/// `forward(.., train=true)` must cache what `backward` needs; `backward`
/// consumes that cache, accumulates parameter gradients, and returns the
/// input gradient.
///
/// # The demand contract
///
/// A layer's backward may read only some entries of its output gradient
/// (a ReLU reads none where its input was not positive), and it says
/// which through [`Layer::grad_mask`]. A container hands each child the
/// mask of the layer before it as `need` in [`Layer::backward_masked`],
/// so the child may skip the input-gradient entries nobody reads. Every
/// entry `need` marks has the bits `backward` gives it; every other entry
/// is unspecified, and callers must not read it.
pub trait Layer: Send {
    /// Computes the output for `x`.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Propagates `grad` (d loss / d output) to the input, accumulating
    /// parameter gradients along the way.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// Which entries of the output gradient `backward` reads, after a
    /// `forward(.., train=true)`: `true` where an entry is read, `None`
    /// (the default) for all of them.
    fn grad_mask(&self) -> Option<&[bool]> {
        None
    }

    /// [`Layer::backward`] for a caller that reads only the input-gradient
    /// entries `need` marks (`None`: all of them). Parameter gradients are
    /// exactly those of `backward`; input-gradient entries outside `need`
    /// are unspecified (see the demand contract above). The default runs
    /// `backward`.
    fn backward_masked(&mut self, grad: &Tensor, need: Option<&[bool]>) -> Tensor {
        let _ = need;
        self.backward(grad)
    }

    /// Visits every parameter (used by optimizers). Default: none.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits every non-parameter state buffer the layer needs to restore a
    /// saved model bit-exactly (e.g. batch-norm running statistics) —
    /// buffers the optimizer never touches but evaluation reads. Containers
    /// must forward to their children in a deterministic order. Default:
    /// none.
    fn visit_state(&mut self, _f: &mut dyn FnMut(&mut Vec<f32>)) {}

    /// Visits every `(role, engine)` pair of a GEMM-backed layer, in
    /// [`GemmRole::ALL`] order per layer; containers forward to their
    /// children in construction order. This is how code holding only a
    /// built model (e.g. the inference server's batch-invariance check)
    /// inspects the engines the model will *actually* run, rather than
    /// trusting a side-channel policy object. Default: none (non-GEMM
    /// layers).
    fn visit_role_engines(&mut self, _f: &mut dyn FnMut(GemmRole, &Arc<dyn GemmEngine>)) {}

    /// Human-readable layer description.
    fn describe(&self) -> String {
        "layer".to_owned()
    }

    /// An O(parameters-count) copy-on-write clone for data-parallel
    /// replicas: parameter *values* share storage with `self` (their
    /// [`Tensor`]s are `Arc`-backed, so no weight data is copied), while
    /// gradients and activation caches start fresh per clone. Engine-
    /// backed layers also share their cached packed weights (call
    /// [`Layer::warm_weight_packs`] on the original first so clones do
    /// not each re-pack).
    ///
    /// `None` (the default) marks a layer that does not support
    /// replication; containers propagate a child's `None`.
    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        None
    }

    /// Sets the sample offset of this replica's sub-batch within the
    /// logical full batch, so position-seeded engines (SR accumulation)
    /// draw the same per-sample streams the full batch would — see
    /// [`GemmEngine::with_row_base`]. Default: no-op (layers without
    /// position-seeded arithmetic).
    fn set_batch_offset(&mut self, _offset: usize) {}

    /// Ensures cached packed weights are current (forward and
    /// backward-data packs rebuilt if stale), so a subsequent
    /// [`Layer::clone_layer`] hands every replica a ready pack instead
    /// of letting each replica re-pack the same weights. Default: no-op.
    fn warm_weight_packs(&mut self) {}
}

/// A sequential container.
///
/// # Examples
///
/// ```
/// use srmac_tensor::{Sequential, Tensor};
/// use srmac_tensor::layers::{Relu, Layer};
///
/// let mut net = Sequential::new();
/// net.push(Relu::new());
/// let y = net.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]), false);
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Sequential {
    /// Creates an empty container.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the container has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total parameter element count.
    pub fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| count += p.value.numel());
        count
    }

    /// Visits each direct child layer in order (the checkpoint writer walks
    /// the model per layer; nested containers are reached through each
    /// child's own `visit_params`/`visit_state`).
    pub fn for_each_layer(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for layer in &mut self.layers {
            f(layer.as_mut());
        }
    }

    /// The name of the first `Forward`-role engine this model actually
    /// carries that is **not** position-invariant (stochastic-rounding
    /// accumulation), or `None` when every forward engine is safe to
    /// batch. This is the authoritative serving guard: it inspects the
    /// built model via [`Layer::visit_role_engines`], so no side-channel
    /// policy object can smuggle an SR forward engine past a server's
    /// batch-invariance check.
    #[must_use]
    pub fn stochastic_forward_engine(&mut self) -> Option<String> {
        let mut offender: Option<String> = None;
        self.visit_role_engines(&mut |role, engine| {
            if role == GemmRole::Forward && offender.is_none() && !engine.position_invariant() {
                offender = Some(engine.name());
            }
        });
        offender
    }

    /// The typed counterpart of [`Layer::clone_layer`] for a whole model:
    /// a CoW replica of every child, or `None` if any child does not
    /// support replication.
    #[must_use]
    pub fn try_clone(&self) -> Option<Sequential> {
        let mut layers = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            layers.push(layer.clone_layer()?);
        }
        Some(Sequential { layers })
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_masked(grad, None)
    }

    // The container's output gradient is read by its last layer.
    fn grad_mask(&self) -> Option<&[bool]> {
        self.layers.last().and_then(|l| l.grad_mask())
    }

    // Each layer computes only the input-gradient entries the layer
    // before it reads; the first layer, the ones the caller reads.
    fn backward_masked(&mut self, grad: &Tensor, need: Option<&[bool]>) -> Tensor {
        let mut cur = grad.clone();
        for i in (0..self.layers.len()).rev() {
            let (before, rest) = self.layers.split_at_mut(i);
            let need = match before.last() {
                Some(prev) => prev.grad_mask(),
                None => need,
            };
            cur = rest[0].backward_masked(&cur, need);
        }
        cur
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for layer in &mut self.layers {
            layer.visit_state(f);
        }
    }

    fn visit_role_engines(&mut self, f: &mut dyn FnMut(GemmRole, &Arc<dyn GemmEngine>)) {
        for layer in &mut self.layers {
            layer.visit_role_engines(f);
        }
    }

    fn describe(&self) -> String {
        let inner: Vec<String> = self.layers.iter().map(|l| l.describe()).collect();
        format!("Sequential[{}]", inner.join(", "))
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        self.try_clone().map(|s| Box::new(s) as Box<dyn Layer>)
    }

    fn set_batch_offset(&mut self, offset: usize) {
        for layer in &mut self.layers {
            layer.set_batch_offset(offset);
        }
    }

    fn warm_weight_packs(&mut self) {
        for layer in &mut self.layers {
            layer.warm_weight_packs();
        }
    }
}
