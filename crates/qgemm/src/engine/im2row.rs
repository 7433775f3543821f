//! The convolution operands of [`MacGemm`](super::MacGemm), built from
//! one quantization of the NCHW input instead of an `f32` im2row matrix.
//!
//! Quantization is elementwise, so the code of an im2row entry is the
//! code of the input it copies, and a padding tap's is the code of
//! `0.0`, `+0`. [`ConvCodes`] quantizes the input once into a zero-bordered
//! code tensor; both compactions of the im2row matrix, and the matrix
//! itself when a plan needs it, are gathered from those codes, in the
//! row and column order `im2row` gives them. So every operand holds the
//! bytes that quantizing the `f32` matrix would, and no bit moves.

use srmac_tensor::Im2Row;

use super::{CompactA, SimdTier};

/// The codes of a convolution input, quantized once and bordered: an
/// `[n, c, h + 2 pad, w + 2 pad]` tensor whose `pad`-wide border holds
/// the code of `+0`. Tap `(ch, ky, kx)` of output position
/// `(img, oy, ox)` reads the code at `(img, ch, oy * stride + ky,
/// ox * stride + kx)`.
pub(super) struct ConvCodes {
    codes: Vec<u8>,
    geom: Im2Row,
    /// Bordered height and width.
    hp: usize,
    wp: usize,
    /// Output height and width.
    oh: usize,
    ow: usize,
}

impl ConvCodes {
    /// Quantizes `x` once with `quantize` (which fills a code slice from
    /// an equally long value slice) and lays its lines inside a border of
    /// `zero` codes.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match `geom.shape`.
    pub(super) fn new(
        x: &[f32],
        geom: &Im2Row,
        zero: u8,
        quantize: impl FnOnce(&[f32], &mut [u8]),
    ) -> Self {
        let [n, c, h, w] = geom.shape;
        assert_eq!(x.len(), n * c * h * w, "input must match its NCHW shape");
        let (oh, ow) = geom.out_hw();
        let (hp, wp) = (h + 2 * geom.pad, w + 2 * geom.pad);
        let mut flat = vec![0u8; x.len()];
        quantize(x, &mut flat);
        let codes = if geom.pad == 0 {
            flat
        } else {
            let mut codes = vec![zero; n * c * hp * wp];
            for (l, line) in flat.chunks_exact(w.max(1)).enumerate() {
                let (plane, y) = (l / h, l % h);
                let at = (plane * hp + y + geom.pad) * wp + geom.pad;
                codes[at..at + w].copy_from_slice(line);
            }
            codes
        };
        Self {
            codes,
            geom: *geom,
            hp,
            wp,
            oh,
            ow,
        }
    }

    /// The bordered code line `py` of channel `ch` of image `img`.
    fn line(&self, img: usize, ch: usize, py: usize) -> &[u8] {
        let plane = img * self.geom.shape[1] + ch;
        &self.codes[(plane * self.hp + py) * self.wp..][..self.wp]
    }

    /// How many taps read each bordered coordinate along an axis of
    /// `len` bordered positions and `outs` output positions: `(o, kt)`
    /// with `o * stride + kt` at it.
    fn tap_counts(&self, len: usize, outs: usize) -> Vec<u32> {
        let mut counts = vec![0; len];
        for o in 0..outs {
            for kt in 0..self.geom.k {
                counts[o * self.geom.stride + kt] += 1;
            }
        }
        counts
    }

    /// The zero-skip statistics of the im2row matrix, taken over the
    /// taps rather than the input: how many entries have a non-zero
    /// magnitude, and whether any is a NaN. An input no tap reads (a
    /// strided 1x1 kernel skips some) counts for neither.
    pub(super) fn tap_stats(&self, mag: u8, inf_mag: u8) -> (usize, bool) {
        // Per bordered plane position: its tap count, and a mask that
        // keeps its magnitude only when some tap reads it. Each plane
        // then reduces in one pass that vectorizes.
        let (ty, tx) = (
            self.tap_counts(self.hp, self.oh),
            self.tap_counts(self.wp, self.ow),
        );
        let taps: Vec<u32> = ty
            .iter()
            .flat_map(|&y| tx.iter().map(move |&x| y * x))
            .collect();
        let read: Vec<u8> = taps.iter().map(|&t| if t == 0 { 0 } else { mag }).collect();
        let (mut nnz, mut top) = (0usize, 0u8);
        for plane in self.codes.chunks_exact(taps.len().max(1)) {
            let mut kept = 0u32;
            for ((&cd, &t), &keep) in plane.iter().zip(&taps).zip(&read) {
                kept += u32::from(cd & mag != 0) * t;
                top = top.max(cd & keep);
            }
            nnz += kept as usize;
        }
        (nnz, top > inf_mag)
    }

    /// Writes the im2row rows of output line `(img, oy)` into `strip`
    /// (`ow` rows of `c * k * k` codes). Inlined into each call site of
    /// [`ConvCodes::fill_line`] so the common kernel sizes copy
    /// fixed-length runs.
    #[inline(always)]
    fn fill_line_k(&self, k: usize, img: usize, oy: usize, strip: &mut [u8]) {
        let (c, s) = (self.geom.shape[1], self.geom.stride);
        let kdim = c * k * k;
        for ch in 0..c {
            for ky in 0..k {
                let line = self.line(img, ch, oy * s + ky);
                let col = (ch * k + ky) * k;
                for (ox, row) in strip.chunks_exact_mut(kdim).enumerate() {
                    row[col..col + k].copy_from_slice(&line[ox * s..ox * s + k]);
                }
            }
        }
    }

    /// [`ConvCodes::fill_line_k`] at this geometry's kernel size.
    fn fill_line(&self, img: usize, oy: usize, strip: &mut [u8]) {
        match self.geom.k {
            1 => self.fill_line_k(1, img, oy, strip),
            3 => self.fill_line_k(3, img, oy, strip),
            k => self.fill_line_k(k, img, oy, strip),
        }
    }

    /// The compaction of the im2row matrix (`[n*oh*ow, c*k*k]`), one
    /// output line of rows at a time; `nnz` is [`ConvCodes::tap_stats`]'s.
    pub(super) fn compact_rows(&self, nnz: usize, mag: u8, tier: SimdTier) -> CompactA {
        let (rows, kdim) = (self.geom.rows(), self.geom.cols());
        let mut compact = CompactA::with_capacity(rows, kdim, nnz);
        let mut strip = vec![0u8; self.ow * kdim];
        for img in 0..self.geom.shape[0] {
            for oy in 0..self.oh {
                self.fill_line(img, oy, &mut strip);
                for row in strip.chunks_exact(kdim.max(1)).take(self.ow) {
                    compact.push_row(row, mag, tier);
                }
            }
        }
        compact.finish(rows, nnz)
    }

    /// The compaction of the im2row matrix's transpose
    /// (`[c*k*k, n*oh*ow]`): row `(ch, ky, kx)` holds its tap over every
    /// output position in `(img, oy, ox)` order, each output line one
    /// run of the code line the tap reads, shifted by `kx`. `nnz` is
    /// [`ConvCodes::tap_stats`]'s.
    pub(super) fn compact_columns(&self, nnz: usize, mag: u8, tier: SimdTier) -> CompactA {
        let [n, c, _, _] = self.geom.shape;
        let (k, s, ow) = (self.geom.k, self.geom.stride, self.ow);
        let (rows, kdim) = (self.geom.rows(), self.geom.cols());
        let mut compact = CompactA::with_capacity(kdim, rows, nnz);
        let mut taps = vec![0u8; rows];
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    for (r, run) in taps
                        .chunks_exact_mut(ow.max(1))
                        .enumerate()
                        .take(n * self.oh)
                    {
                        let line = self.line(r / self.oh, ch, r % self.oh * s + ky);
                        if s == 1 {
                            run.copy_from_slice(&line[kx..kx + ow]);
                        } else {
                            for (ox, cd) in run.iter_mut().enumerate() {
                                *cd = line[ox * s + kx];
                            }
                        }
                    }
                    compact.push_row(&taps, mag, tier);
                }
            }
        }
        compact.finish(kdim, nnz)
    }

    /// The row-major im2row code matrix (`[n*oh*ow, c*k*k]`).
    pub(super) fn unfold(&self) -> Vec<u8> {
        let line_len = self.ow * self.geom.cols();
        let mut rows = vec![0u8; self.geom.rows() * self.geom.cols()];
        for (l, strip) in rows.chunks_exact_mut(line_len.max(1)).enumerate() {
            self.fill_line(l / self.oh, l % self.oh, strip);
        }
        rows
    }
}
