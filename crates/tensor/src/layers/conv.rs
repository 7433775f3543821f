//! 2-D convolution via im2row + GEMM, the paper's "FWD and BWD passes ...
//! implemented as General Matrix Multiplications" (Sec. II-B). All three
//! products — forward, weight gradient and data gradient — run on the
//! session's GEMM engine and therefore on the emulated low-precision MAC
//! when the experiment configures one. The data movement around them
//! (im2row, col2im, the NCHW scatter/gathers) runs serially on the
//! calling thread into per-layer scratch buffers, so a warmed-up training
//! step performs no transient layout allocations in this layer.
//!
//! The data gradient honours the demand contract of [`Layer`]: given the
//! input-gradient entries its caller reads (a ReLU's mask, say), it lists
//! the `dRows` entries that fold into them ([`im2row_need`]) and runs a
//! masked product ([`GemmEngine::gemm_packed_masked`]), so the entries
//! nobody reads cost no MAC steps.

use std::sync::Arc;

use crate::engine::GemmEngine;
use crate::layers::{Layer, Param, WeightProducts};
use crate::movement::{
    col2im, conv_out_size, im2row, im2row_need, nchw_to_channel_rows, nchw_to_rows, rows_to_nchw,
};
use crate::numerics::{GemmRole, RoleEngines};
use crate::Tensor;

/// A 2-D convolution (square kernel, no bias — a norm layer follows in all
/// the paper's models).
///
/// Each product dispatches on the engine its [`GemmRole`] resolves to:
/// forward `rows · W^T` on `Forward`, `dRows = dY · W` on `BackwardData`,
/// `dW = dY^T · rows` on `BackwardWeight`; a uniform policy
/// ([`RoleEngines::uniform`]) runs all three on one shared engine. The
/// forward and data-gradient products run on cached
/// [`PackedOperand`](crate::PackedOperand)s keyed on the weight's
/// version; each cache belongs to one role's engine, so mixed policies
/// may pack the same kernel differently per role without the caches
/// interfering.
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    weight: Param, // [out_c, in_c * k * k]
    products: WeightProducts,
    cache: Option<Cache>,
    /// Sample offset of this replica's sub-batch within the logical full
    /// batch (see [`Layer::set_batch_offset`]); 0 outside data-parallel
    /// replicas.
    batch_offset: usize,
    /// Reusable layout buffers (see the module docs). `rows` migrates
    /// into the training cache and returns after `backward`.
    rows_scratch: Vec<f32>,
    yt_scratch: Vec<f32>,
    drows_scratch: Vec<f32>,
    dy_ocns_scratch: Vec<f32>,
    dy_nsoc_scratch: Vec<f32>,
    dw_scratch: Vec<f32>,
}

struct Cache {
    rows: Vec<f32>, // im2row matrix, [ns, K]
    in_shape: [usize; 4],
    out_hw: (usize, usize),
}

impl std::fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.describe())
    }
}

impl Conv2d {
    /// Creates a convolution with per-role engines (see the type docs);
    /// `weight` must have shape `[out_c, in_c * k * k]`.
    ///
    /// # Panics
    ///
    /// Panics on a weight shape mismatch, a zero kernel size, or a zero
    /// stride. (Input-size-dependent geometry — padded input at least as
    /// large as the kernel — is validated per call in `forward`.)
    #[must_use]
    pub fn per_role(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        weight: Tensor,
        engines: RoleEngines,
    ) -> Self {
        assert!(k > 0, "conv kernel size must be nonzero");
        assert!(stride > 0, "conv stride must be nonzero");
        assert_eq!(
            weight.shape(),
            &[out_c, in_c * k * k],
            "conv weight must be [out_c, in_c*k*k]"
        );
        Self {
            in_c,
            out_c,
            k,
            stride,
            pad,
            weight: Param::new(weight, true),
            products: WeightProducts::new(out_c, in_c * k * k, engines),
            cache: None,
            batch_offset: 0,
            rows_scratch: Vec::new(),
            yt_scratch: Vec::new(),
            drows_scratch: Vec::new(),
            dy_ocns_scratch: Vec::new(),
            dy_nsoc_scratch: Vec::new(),
            dw_scratch: Vec::new(),
        }
    }

    /// Output spatial size for an input of height/width `s`, with the
    /// geometry validated (see [`conv_out_size`]).
    ///
    /// # Panics
    ///
    /// Panics if `s + 2*pad` is smaller than the kernel.
    #[must_use]
    pub fn out_size(&self, s: usize) -> usize {
        conv_out_size(s, self.k, self.stride, self.pad)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 4, "conv expects NCHW input");
        assert_eq!(x.shape()[1], self.in_c, "channel mismatch");
        let [n, _, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let ns = n * oh * ow;
        let kdim = self.in_c * self.k * self.k;

        let mut rows = std::mem::take(&mut self.rows_scratch);
        rows.resize(ns * kdim, 0.0);
        im2row(
            x.data(),
            [n, self.in_c, h, w],
            self.k,
            self.stride,
            self.pad,
            &mut rows,
        );

        // Yt (ns x out_c) = rows (ns x K) * W^T (K x out_c). Output row
        // r belongs to sample batch_offset + r/(oh*ow) of the logical full
        // batch, so the product runs on the row-offset engine.
        let mut yt = std::mem::take(&mut self.yt_scratch);
        yt.resize(ns * self.out_c, 0.0);
        let row_base = self.batch_offset * oh * ow;
        self.products.product(
            GemmRole::Forward,
            &self.weight,
            ns,
            row_base,
            &rows,
            None,
            &mut yt,
        );

        // Scatter [n*oh*ow, out_c] -> [n, out_c, oh, ow].
        let mut y = Tensor::zeros(&[n, self.out_c, oh, ow]);
        rows_to_nchw(&yt, n, self.out_c, oh * ow, y.data_mut());
        self.yt_scratch = yt;

        if train {
            self.cache = Some(Cache {
                rows,
                in_shape: [n, self.in_c, h, w],
                out_hw: (oh, ow),
            });
        } else {
            self.rows_scratch = rows;
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_masked(grad, None)
    }

    fn backward_masked(&mut self, grad: &Tensor, need: Option<&[bool]>) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "documented contract — backward requires a prior forward(train=true)"
        )]
        let cache = self
            .cache
            .take()
            .expect("backward before forward(train=true)");
        let [n, _, _, _] = cache.in_shape;
        let (oh, ow) = cache.out_hw;
        let spatial = oh * ow;
        let ns = n * spatial;
        let kdim = self.in_c * self.k * self.k;

        // Gather grad into both layouts used by the two products.
        let mut dy_ocns = std::mem::take(&mut self.dy_ocns_scratch); // [oc, n*s]
        dy_ocns.resize(self.out_c * ns, 0.0);
        nchw_to_channel_rows(grad.data(), n, self.out_c, spatial, &mut dy_ocns);
        let mut dy_nsoc = std::mem::take(&mut self.dy_nsoc_scratch); // [n*s, oc]
        dy_nsoc.resize(ns * self.out_c, 0.0);
        nchw_to_rows(grad.data(), n, self.out_c, spatial, &mut dy_nsoc);

        // dW (out_c x K) = dY (out_c x ns) * rows (ns x K) — both operands
        // are fresh per step, so this is a one-shot product (whose engine
        // may zero-skip the post-ReLU `rows` rather than `dY`).
        let mut dw = std::mem::take(&mut self.dw_scratch);
        dw.resize(self.out_c * kdim, 0.0);
        self.products.engine(GemmRole::BackwardWeight).gemm(
            self.out_c,
            ns,
            kdim,
            &dy_ocns,
            &cache.rows,
            &mut dw,
        );
        for (g, d) in self.weight.grad.data_mut().iter_mut().zip(&dw) {
            *g += d;
        }

        // dRows (ns x K) = dY (ns x out_c) * W (out_c x K); row-offset like
        // the forward product (wgrad above is not: its output positions are
        // weight coordinates, identical for every sub-batch). Only the
        // entries that fold into a needed input position are computed; a
        // caller that needs none gets no product and no fold at all.
        let mut dx = Tensor::zeros(&cache.in_shape);
        let mut drows = std::mem::take(&mut self.drows_scratch);
        if need.is_none_or(|need| need.contains(&true)) {
            let needed = need
                .map(|need| im2row_need(need, cache.in_shape, self.k, self.stride, self.pad))
                .map(Arc::new);
            drows.resize(ns * kdim, 0.0);
            let row_base = self.batch_offset * spatial;
            self.products.product(
                GemmRole::BackwardData,
                &self.weight,
                ns,
                row_base,
                &dy_nsoc,
                needed.as_ref(),
                &mut drows,
            );
            col2im(
                &drows,
                cache.in_shape,
                self.k,
                self.stride,
                self.pad,
                dx.data_mut(),
            );
        }

        // Return every buffer for the next step.
        self.drows_scratch = drows;
        self.dy_ocns_scratch = dy_ocns;
        self.dy_nsoc_scratch = dy_nsoc;
        self.dw_scratch = dw;
        self.rows_scratch = cache.rows;
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }

    fn visit_role_engines(&mut self, f: &mut dyn FnMut(GemmRole, &Arc<dyn GemmEngine>)) {
        self.products.visit(f);
    }

    fn describe(&self) -> String {
        format!(
            "Conv2d({}->{}, k{}, s{}, p{})",
            self.in_c, self.out_c, self.k, self.stride, self.pad
        )
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        // CoW value share (no weight data copied), fresh zero gradient.
        let mut replica = Self::per_role(
            self.in_c,
            self.out_c,
            self.k,
            self.stride,
            self.pad,
            self.weight.value.clone(),
            self.products.engines.clone(),
        );
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
