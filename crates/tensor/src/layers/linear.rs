//! A fully connected layer (the classifier head of the paper's models).

use std::sync::Arc;

use crate::engine::GemmEngine;
use crate::layers::{Layer, Param, WeightProducts};
use crate::movement::transpose;
use crate::numerics::{GemmRole, RoleEngines};
use crate::Tensor;

/// `y = x W^T + b` with `W: [out, in]`, `x: [N, in]`.
///
/// Each of the layer's three products dispatches on the engine its
/// [`GemmRole`] resolves to: forward `x W^T` on the `Forward` engine,
/// `dX = dY W` on `BackwardData`, `dW = dY^T X` on `BackwardWeight`; a
/// uniform policy ([`RoleEngines::uniform`]) runs all three on one shared
/// engine. The two weight-sided products (forward, data
/// gradient) run on cached [`PackedOperand`](crate::PackedOperand)s
/// keyed on the weight's version; each cache belongs to exactly one
/// role's engine, so mixed policies may pack the same weights
/// differently per role without the caches interfering.
pub struct Linear {
    in_f: usize,
    out_f: usize,
    weight: Param,
    bias: Param,
    products: WeightProducts,
    cache: Option<Tensor>,
    /// Sample offset of this replica's sub-batch within the logical full
    /// batch (see [`Layer::set_batch_offset`]); 0 outside data-parallel
    /// replicas. For a linear layer one output row is one sample, so this
    /// is the row base directly.
    batch_offset: usize,
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
            products: WeightProducts::new(out_f, in_f, engines),
            cache: None,
            batch_offset: 0,
            dw_scratch: Vec::new(),
        }
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
        self.products.product(
            GemmRole::Forward,
            &self.weight,
            n,
            row_base,
            x.data(),
            None,
            y.data_mut(),
        );
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
        // fresh per step, so this is a one-shot product (whose engine may
        // zero-skip X rather than dY^T).
        let dyt = transpose(grad.data(), n, self.out_f);
        let mut dw = std::mem::take(&mut self.dw_scratch);
        dw.resize(self.out_f * self.in_f, 0.0);
        self.products.engine(GemmRole::BackwardWeight).gemm(
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
        self.products.product(
            GemmRole::BackwardData,
            &self.weight,
            n,
            row_base,
            grad.data(),
            None,
            dx.data_mut(),
        );
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_role_engines(&mut self, f: &mut dyn FnMut(GemmRole, &Arc<dyn GemmEngine>)) {
        self.products.visit(f);
    }

    fn describe(&self) -> String {
        format!("Linear({}->{})", self.in_f, self.out_f)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        // CoW value shares (no data copied), fresh zero gradients.
        let mut replica = Self::per_role(
            self.in_f,
            self.out_f,
            self.weight.value.clone(),
            self.products.engines.clone(),
        );
        replica.bias = Param::new(self.bias.value.clone(), self.bias.decay);
        replica.products = self.products.replica();
        Some(Box::new(replica))
    }

    fn set_batch_offset(&mut self, offset: usize) {
        self.batch_offset = offset;
    }

    fn warm_weight_packs(&mut self) {
        self.products.warm(&self.weight);
    }
}
