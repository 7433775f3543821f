//! 2-D convolution via im2row + GEMM, the paper's "FWD and BWD passes ...
//! implemented as General Matrix Multiplications" (Sec. II-B). All three
//! products — forward, weight gradient and data gradient — run on the
//! session's GEMM engine and therefore on the emulated low-precision MAC
//! when the experiment configures one; all the data movement around them
//! (im2row, col2im, the NCHW scatter/gathers) runs on the shared parallel
//! [`Runtime`] into reusable per-layer workspaces, so a warmed-up training
//! step performs no transient layout allocations in this layer.

use std::sync::Arc;

use srmac_runtime::{Runtime, Workspace};

use crate::engine::{GemmEngine, PackedOperand};
use crate::layers::{Layer, Param};
use crate::movement::{
    col2im, conv_out_size, im2row, nchw_to_channel_rows, nchw_to_rows, rows_to_nchw,
};
use crate::numerics::{GemmRole, RoleEngines};
use crate::{transpose, Tensor};

/// A 2-D convolution (square kernel, no bias — a norm layer follows in all
/// the paper's models).
///
/// Each product dispatches on the engine its [`GemmRole`] resolves to:
/// forward `rows · W^T` on `Forward`, `dRows = dY · W` on `BackwardData`,
/// `dW = dY^T · rows` on `BackwardWeight`; a uniform policy
/// ([`RoleEngines::uniform`]) runs all three on one shared engine. The
/// forward and data-gradient products run on cached [`PackedOperand`]s
/// keyed on the weight's version; each cache belongs to one role's
/// engine, so mixed policies may pack the same kernel differently per
/// role without the caches interfering.
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    weight: Param, // [out_c, in_c * k * k]
    engines: RoleEngines,
    runtime: Arc<Runtime>,
    cache: Option<Cache>,
    /// `pack_b` of `W^T` (`[K, out_c]`) by the `Forward` engine, at a
    /// weight version. `Arc`-shared so data-parallel replicas (see
    /// [`Layer::clone_layer`]) reuse one pack instead of re-quantizing.
    fwd_pack: Option<(u64, Arc<PackedOperand>)>,
    /// `pack_b` of `W` (`[out_c, K]`) by the `BackwardData` engine, at a
    /// weight version. `Arc`-shared like `fwd_pack`.
    bwd_pack: Option<(u64, Arc<PackedOperand>)>,
    /// Sample offset of this replica's sub-batch within the logical full
    /// batch (see [`Layer::set_batch_offset`]); 0 outside data-parallel
    /// replicas.
    batch_offset: usize,
    /// Cache of row-offset engines derived via [`GemmEngine::with_row_base`],
    /// keyed `(role id, row base)`. Tiny: one entry per (role, offset) this
    /// replica ever runs at.
    derived: Vec<(u64, usize, Arc<dyn GemmEngine>)>,
    /// Reusable layout workspaces (see the module docs). `rows` migrates
    /// into the training cache and returns after `backward`; the
    /// [`Workspace`] buffers are additionally shared with runtime jobs.
    rows_scratch: Vec<f32>,
    yt_ws: Workspace,
    drows_ws: Workspace,
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
            engines,
            runtime: Arc::clone(Runtime::global()),
            cache: None,
            fwd_pack: None,
            bwd_pack: None,
            batch_offset: 0,
            derived: Vec::new(),
            rows_scratch: Vec::new(),
            yt_ws: Workspace::new(),
            drows_ws: Workspace::new(),
            dy_ocns_scratch: Vec::new(),
            dy_nsoc_scratch: Vec::new(),
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
        let kdim = self.in_c * self.k * self.k;
        let v = self.weight.version();
        if self.fwd_pack.as_ref().is_none_or(|(ver, _)| *ver != v) {
            let wt = transpose(self.weight.value.data(), self.out_c, kdim);
            let engine = self.engines.get(GemmRole::Forward);
            self.fwd_pack = Some((v, Arc::new(engine.pack_b(kdim, self.out_c, &wt))));
        }
    }

    fn ensure_backward_pack(&mut self) {
        let kdim = self.in_c * self.k * self.k;
        let v = self.weight.version();
        if self.bwd_pack.as_ref().is_none_or(|(ver, _)| *ver != v) {
            let pack = self.engines.get(GemmRole::BackwardData).pack_b(
                self.out_c,
                kdim,
                self.weight.value.data(),
            );
            self.bwd_pack = Some((v, Arc::new(pack)));
        }
    }

    /// The engine for `role`, row-offset by `row_base` output rows (see
    /// [`GemmEngine::with_row_base`]) so a replica's products draw the same
    /// per-position randomness those rows would in the full batch. Derived
    /// engines are cached per `(role, row base)`; position-invariant
    /// engines (and `row_base == 0`) resolve to the base engine itself.
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
            &self.runtime,
            &x.shared_data(),
            [n, self.in_c, h, w],
            self.k,
            self.stride,
            self.pad,
            &mut rows,
        );

        // Yt (ns x out_c) = rows (ns x K) * W^T (K x out_c). Output row
        // r belongs to sample batch_offset + r/(oh*ow) of the logical full
        // batch, so the product runs on the row-offset engine.
        let row_base = self.batch_offset * oh * ow;
        let mut yt_ws = std::mem::take(&mut self.yt_ws);
        let yt = yt_ws.reset(ns * self.out_c);
        if self.use_packed(GemmRole::Forward) {
            self.ensure_forward_pack();
            let engine = self.role_engine(GemmRole::Forward, row_base);
            #[expect(
                clippy::expect_used,
                reason = "ensure_forward_pack() just populated it"
            )]
            let (_, wt_pack) = self.fwd_pack.as_ref().expect("just ensured");
            let ra = engine.pack_a(ns, kdim, &rows);
            engine.gemm_packed(ns, kdim, self.out_c, &ra, wt_pack, yt);
        } else {
            let wt = transpose(self.weight.value.data(), self.out_c, kdim);
            self.role_engine(GemmRole::Forward, row_base)
                .gemm(ns, kdim, self.out_c, &rows, &wt, yt);
        }

        // Scatter [n*oh*ow, out_c] -> [n, out_c, oh, ow].
        let mut y = Tensor::zeros(&[n, self.out_c, oh, ow]);
        rows_to_nchw(
            &self.runtime,
            &yt_ws.share(),
            n,
            self.out_c,
            oh * ow,
            y.data_mut(),
        );
        self.yt_ws = yt_ws;

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
        let gd = grad.shared_data();

        // Gather grad into both layouts used by the two products.
        let mut dy_ocns = std::mem::take(&mut self.dy_ocns_scratch); // [oc, n*s]
        dy_ocns.resize(self.out_c * ns, 0.0);
        nchw_to_channel_rows(&self.runtime, &gd, n, self.out_c, spatial, &mut dy_ocns);
        let mut dy_nsoc = std::mem::take(&mut self.dy_nsoc_scratch); // [n*s, oc]
        dy_nsoc.resize(ns * self.out_c, 0.0);
        nchw_to_rows(&self.runtime, &gd, n, self.out_c, spatial, &mut dy_nsoc);

        // dW (out_c x K) = dY (out_c x ns) * rows (ns x K) — both operands
        // are fresh per step, so this product packs on the fly.
        let mut dw = std::mem::take(&mut self.dw_scratch);
        dw.resize(self.out_c * kdim, 0.0);
        self.engines.get(GemmRole::BackwardWeight).gemm(
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
        // weight coordinates, identical for every sub-batch).
        let row_base = self.batch_offset * spatial;
        let mut drows_ws = std::mem::take(&mut self.drows_ws);
        let drows = drows_ws.reset(ns * kdim);
        if self.use_packed(GemmRole::BackwardData) {
            self.ensure_backward_pack();
            let engine = self.role_engine(GemmRole::BackwardData, row_base);
            #[expect(
                clippy::expect_used,
                reason = "ensure_backward_pack() just populated it"
            )]
            let (_, w_pack) = self.bwd_pack.as_ref().expect("just ensured");
            let ga = engine.pack_a(ns, self.out_c, &dy_nsoc);
            engine.gemm_packed(ns, self.out_c, kdim, &ga, w_pack, drows);
        } else {
            self.role_engine(GemmRole::BackwardData, row_base).gemm(
                ns,
                self.out_c,
                kdim,
                &dy_nsoc,
                self.weight.value.data(),
                drows,
            );
        }

        let mut dx = Tensor::zeros(&cache.in_shape);
        col2im(
            &self.runtime,
            &drows_ws.share(),
            cache.in_shape,
            self.k,
            self.stride,
            self.pad,
            dx.data_mut(),
        );

        // Return every workspace for the next step.
        self.drows_ws = drows_ws;
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
        for role in GemmRole::ALL {
            f(role, self.engines.get(role));
        }
    }

    fn describe(&self) -> String {
        format!(
            "Conv2d({}->{}, k{}, s{}, p{})",
            self.in_c, self.out_c, self.k, self.stride, self.pad
        )
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            in_c: self.in_c,
            out_c: self.out_c,
            k: self.k,
            stride: self.stride,
            pad: self.pad,
            // CoW value share (no weight data copied), fresh zero gradient.
            weight: Param::new(self.weight.value.clone(), self.weight.decay),
            engines: self.engines.clone(),
            runtime: Arc::clone(&self.runtime),
            cache: None,
            fwd_pack: self.fwd_pack.clone(),
            bwd_pack: self.bwd_pack.clone(),
            batch_offset: 0,
            derived: Vec::new(),
            rows_scratch: Vec::new(),
            yt_ws: Workspace::new(),
            drows_ws: Workspace::new(),
            dy_ocns_scratch: Vec::new(),
            dy_nsoc_scratch: Vec::new(),
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
