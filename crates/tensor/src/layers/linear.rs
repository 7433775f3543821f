//! A fully connected layer (the classifier head of the paper's models).

use std::sync::Arc;

use srmac_runtime::Runtime;

use crate::engine::{GemmEngine, PackedOperand};
use crate::layers::{Layer, Param};
use crate::movement::transpose_into;
use crate::numerics::{GemmRole, RoleEngines};
use crate::{transpose, Tensor};

/// `y = x W^T + b` with `W: [out, in]`, `x: [N, in]`.
///
/// Each of the layer's three products dispatches on the engine its
/// [`GemmRole`] resolves to: forward `x W^T` on the `Forward` engine,
/// `dX = dY W` on `BackwardData`, `dW = dY^T X` on `BackwardWeight`; a
/// uniform policy ([`RoleEngines::uniform`]) runs all three on one shared
/// engine. The two weight-sided products (forward, data
/// gradient) run on cached [`PackedOperand`]s keyed on the weight's
/// version; each cache belongs to exactly one role's engine, so mixed
/// policies may pack the same weights differently per role without the
/// caches interfering. Transposes run on the shared parallel [`Runtime`]
/// into reused scratch buffers.
pub struct Linear {
    in_f: usize,
    out_f: usize,
    weight: Param,
    bias: Param,
    engines: RoleEngines,
    runtime: Arc<Runtime>,
    cache: Option<Tensor>,
    /// `pack_b` of `W^T` (`[in, out]`) by the `Forward` engine, at a
    /// weight version. `Arc`-shared so data-parallel replicas (see
    /// [`Layer::clone_layer`]) reuse one pack instead of re-quantizing.
    fwd_pack: Option<(u64, Arc<PackedOperand>)>,
    /// `pack_b` of `W` (`[out, in]`) by the `BackwardData` engine, at a
    /// weight version. `Arc`-shared like `fwd_pack`.
    bwd_pack: Option<(u64, Arc<PackedOperand>)>,
    /// Sample offset of this replica's sub-batch within the logical full
    /// batch (see [`Layer::set_batch_offset`]); 0 outside data-parallel
    /// replicas. For a linear layer one output row is one sample, so this
    /// is the row base directly.
    batch_offset: usize,
    /// Cache of row-offset engines derived via [`GemmEngine::with_row_base`],
    /// keyed `(role id, row base)`.
    derived: Vec<(u64, usize, Arc<dyn GemmEngine>)>,
    /// Reusable `dY^T` scratch for the weight-gradient product.
    dyt_scratch: Vec<f32>,
    /// Reusable `dW` scratch for the gradient accumulation.
    dw_scratch: Vec<f32>,
}

impl std::fmt::Debug for Linear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.describe())
    }
}

impl Linear {
    /// Creates the layer with per-role engines (see the type docs);
    /// `weight` must be `[out, in]`.
    ///
    /// # Panics
    ///
    /// Panics on a weight shape mismatch.
    #[must_use]
    pub fn per_role(in_f: usize, out_f: usize, weight: Tensor, engines: RoleEngines) -> Self {
        assert_eq!(
            weight.shape(),
            &[out_f, in_f],
            "linear weight must be [out, in]"
        );
        Self {
            in_f,
            out_f,
            weight: Param::new(weight, true),
            bias: Param::new(Tensor::zeros(&[out_f]), false),
            engines,
            runtime: Arc::clone(Runtime::global()),
            cache: None,
            fwd_pack: None,
            bwd_pack: None,
            batch_offset: 0,
            derived: Vec::new(),
            dyt_scratch: Vec::new(),
            dw_scratch: Vec::new(),
        }
    }

    /// Replaces the parallel runtime used for the layer's data movement
    /// (default: the process-wide [`Runtime::global`]). Results are
    /// bitwise identical for every runtime size.
    #[must_use]
    pub fn with_runtime(mut self, runtime: Arc<Runtime>) -> Self {
        self.runtime = runtime;
        self
    }

    /// Whether to route a role's products through its cached packed
    /// weights: only when the role's engine does real work in packing
    /// (decided per role, since engines may differ).
    fn use_packed(&self, role: GemmRole) -> bool {
        self.engines.get(role).benefits_from_packing()
    }

    fn ensure_forward_pack(&mut self) {
        let v = self.weight.version();
        if self.fwd_pack.as_ref().is_none_or(|(ver, _)| *ver != v) {
            let wt = transpose(self.weight.value.data(), self.out_f, self.in_f);
            let engine = self.engines.get(GemmRole::Forward);
            self.fwd_pack = Some((v, Arc::new(engine.pack_b(self.in_f, self.out_f, &wt))));
        }
    }

    fn ensure_backward_pack(&mut self) {
        let v = self.weight.version();
        if self.bwd_pack.as_ref().is_none_or(|(ver, _)| *ver != v) {
            let pack = self.engines.get(GemmRole::BackwardData).pack_b(
                self.out_f,
                self.in_f,
                self.weight.value.data(),
            );
            self.bwd_pack = Some((v, Arc::new(pack)));
        }
    }

    /// The engine for `role`, row-offset by `row_base` output rows (see
    /// [`GemmEngine::with_row_base`]); cached per `(role, row base)`.
    /// Position-invariant engines (and `row_base == 0`) resolve to the
    /// base engine itself.
    fn role_engine(&mut self, role: GemmRole, row_base: usize) -> Arc<dyn GemmEngine> {
        let base = Arc::clone(self.engines.get(role));
        if row_base == 0 {
            return base;
        }
        if let Some((_, _, engine)) = self
            .derived
            .iter()
            .find(|(r, b, _)| *r == role.id() && *b == row_base)
        {
            return Arc::clone(engine);
        }
        let engine = base.with_row_base(row_base).unwrap_or(base);
        self.derived
            .push((role.id(), row_base, Arc::clone(&engine)));
        engine
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 2, "linear expects [N, in]");
        assert_eq!(x.shape()[1], self.in_f, "feature mismatch");
        let n = x.shape()[0];
        // Output row r is sample batch_offset + r of the logical full
        // batch, so the product runs on the row-offset engine.
        let row_base = self.batch_offset;
        let mut y = Tensor::zeros(&[n, self.out_f]);
        if self.use_packed(GemmRole::Forward) {
            self.ensure_forward_pack();
            let engine = self.role_engine(GemmRole::Forward, row_base);
            #[expect(
                clippy::expect_used,
                reason = "ensure_forward_pack() just populated it"
            )]
            let (_, wt_pack) = self.fwd_pack.as_ref().expect("just ensured");
            let xa = engine.pack_a(n, self.in_f, x.data());
            engine.gemm_packed(n, self.in_f, self.out_f, &xa, wt_pack, y.data_mut());
        } else {
            let wt = transpose(self.weight.value.data(), self.out_f, self.in_f);
            self.role_engine(GemmRole::Forward, row_base).gemm(
                n,
                self.in_f,
                self.out_f,
                x.data(),
                &wt,
                y.data_mut(),
            );
        }
        let bd = self.bias.value.data().to_vec();
        for row in y.data_mut().chunks_mut(self.out_f) {
            for (v, b) in row.iter_mut().zip(&bd) {
                *v += b;
            }
        }
        if train {
            self.cache = Some(x.clone());
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "documented contract — backward requires a prior forward(train=true)"
        )]
        let x = self
            .cache
            .take()
            .expect("backward before forward(train=true)");
        let n = x.shape()[0];

        // dW (out x in) = dY^T (out x N) * X (N x in) — both operands are
        // fresh per step, so this product packs on the fly.
        let mut dyt = std::mem::take(&mut self.dyt_scratch);
        dyt.resize(n * self.out_f, 0.0);
        transpose_into(&self.runtime, &grad.shared_data(), n, self.out_f, &mut dyt);
        let mut dw = std::mem::take(&mut self.dw_scratch);
        dw.resize(self.out_f * self.in_f, 0.0);
        self.engines.get(GemmRole::BackwardWeight).gemm(
            self.out_f,
            n,
            self.in_f,
            &dyt,
            x.data(),
            &mut dw,
        );
        for (g, d) in self.weight.grad.data_mut().iter_mut().zip(&dw) {
            *g += d;
        }
        self.dyt_scratch = dyt;
        self.dw_scratch = dw;

        // db = column sums of dY.
        for row in grad.data().chunks(self.out_f) {
            for (g, d) in self.bias.grad.data_mut().iter_mut().zip(row) {
                *g += d;
            }
        }

        // dX (N x in) = dY (N x out) * W (out x in); row-offset like the
        // forward product (wgrad and bias above are not: their output
        // positions are weight coordinates, identical for every sub-batch).
        let row_base = self.batch_offset;
        let mut dx = Tensor::zeros(&[n, self.in_f]);
        if self.use_packed(GemmRole::BackwardData) {
            self.ensure_backward_pack();
            let engine = self.role_engine(GemmRole::BackwardData, row_base);
            #[expect(
                clippy::expect_used,
                reason = "ensure_backward_pack() just populated it"
            )]
            let (_, w_pack) = self.bwd_pack.as_ref().expect("just ensured");
            let ga = engine.pack_a(n, self.out_f, grad.data());
            engine.gemm_packed(n, self.out_f, self.in_f, &ga, w_pack, dx.data_mut());
        } else {
            self.role_engine(GemmRole::BackwardData, row_base).gemm(
                n,
                self.out_f,
                self.in_f,
                grad.data(),
                self.weight.value.data(),
                dx.data_mut(),
            );
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_role_engines(&mut self, f: &mut dyn FnMut(GemmRole, &Arc<dyn GemmEngine>)) {
        for role in GemmRole::ALL {
            f(role, self.engines.get(role));
        }
    }

    fn describe(&self) -> String {
        format!("Linear({}->{})", self.in_f, self.out_f)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            in_f: self.in_f,
            out_f: self.out_f,
            // CoW value shares (no data copied), fresh zero gradients.
            weight: Param::new(self.weight.value.clone(), self.weight.decay),
            bias: Param::new(self.bias.value.clone(), self.bias.decay),
            engines: self.engines.clone(),
            runtime: Arc::clone(&self.runtime),
            cache: None,
            fwd_pack: self.fwd_pack.clone(),
            bwd_pack: self.bwd_pack.clone(),
            batch_offset: 0,
            derived: Vec::new(),
            dyt_scratch: Vec::new(),
            dw_scratch: Vec::new(),
        }))
    }

    fn set_batch_offset(&mut self, offset: usize) {
        self.batch_offset = offset;
    }

    fn warm_weight_packs(&mut self) {
        if self.use_packed(GemmRole::Forward) {
            self.ensure_forward_pack();
        }
        if self.use_packed(GemmRole::BackwardData) {
            self.ensure_backward_pack();
        }
    }
}
