//! Data-movement kernels: `im2row`, `col2im`, the NCHW scatter/gathers
//! around the convolution GEMMs, and the transpose.
//!
//! These only copy `f32`s into the layouts the GEMM engines read, so they
//! are plain serial loops over slices, run on the calling thread. The
//! parallel work of a layer is its engines' products. Every kernel writes
//! its whole output in one fixed loop order; `col2im`, the only one that
//! *accumulates*, sums each element's overlapping taps in that order, so
//! results are a pure function of the inputs.

/// Output spatial size of a convolution-style sliding window, with the
/// geometry validated instead of silently wrapping: `s + 2*pad` must reach
/// `k`, otherwise release builds would compute an absurd size from a
/// wrapped subtraction (and debug builds would panic cryptically).
///
/// # Panics
///
/// Panics if `k == 0`, `stride == 0`, or the padded input is smaller than
/// the kernel.
#[must_use]
pub fn conv_out_size(s: usize, k: usize, stride: usize, pad: usize) -> usize {
    assert!(k > 0, "conv kernel size must be nonzero");
    assert!(stride > 0, "conv stride must be nonzero");
    assert!(
        s + 2 * pad >= k,
        "conv geometry invalid: padded input {s}+2*{pad} is smaller than kernel {k}"
    );
    (s + 2 * pad - k) / stride + 1
}

/// Unfolds NCHW input `x` into the im2row matrix `rows`
/// (`[n*oh*ow, c*k*k]`), one GEMM row per output position. Out-of-bounds
/// (padding) taps are written as `0.0`.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn im2row(x: &[f32], shape: [usize; 4], k: usize, stride: usize, pad: usize, rows: &mut [f32]) {
    let [n, c, h, w] = shape;
    assert_eq!(x.len(), n * c * h * w, "input must match its NCHW shape");
    let (oh, ow) = (
        conv_out_size(h, k, stride, pad),
        conv_out_size(w, k, stride, pad),
    );
    let kdim = c * k * k;
    assert_eq!(
        rows.len(),
        n * oh * ow * kdim,
        "rows must be [n*oh*ow, c*k*k]"
    );
    rows.fill(0.0);
    for ri in 0..n * oh * ow {
        let row = &mut rows[ri * kdim..(ri + 1) * kdim];
        let (img, rest) = (ri / (oh * ow), ri % (oh * ow));
        let (oy, ox) = (rest / ow, rest % ow);
        let iy0 = (oy * stride) as isize - pad as isize;
        let ix0 = (ox * stride) as isize - pad as isize;
        for ch in 0..c {
            for ky in 0..k {
                let iy = iy0 + ky as isize;
                if iy < 0 || iy >= h as isize {
                    continue; // padding tap: stays at the zero fill
                }
                for kx in 0..k {
                    let ix = ix0 + kx as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    row[(ch * k + ky) * k + kx] =
                        x[((img * c + ch) * h + iy as usize) * w + ix as usize];
                }
            }
        }
    }
}

/// Folds the im2row-layout gradient `drows` (`[n*oh*ow, c*k*k]`) back into
/// an NCHW gradient `dx`, accumulating overlapping taps in row order — the
/// adjoint of [`im2row`].
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn col2im(
    drows: &[f32],
    shape: [usize; 4],
    k: usize,
    stride: usize,
    pad: usize,
    dx: &mut [f32],
) {
    let [n, c, h, w] = shape;
    let (oh, ow) = (
        conv_out_size(h, k, stride, pad),
        conv_out_size(w, k, stride, pad),
    );
    let kdim = c * k * k;
    assert_eq!(
        drows.len(),
        n * oh * ow * kdim,
        "drows must be [n*oh*ow, c*k*k]"
    );
    assert_eq!(dx.len(), n * c * h * w, "dx must match its NCHW shape");
    dx.fill(0.0);
    for ri in 0..n * oh * ow {
        let row = &drows[ri * kdim..(ri + 1) * kdim];
        let (img, rest) = (ri / (oh * ow), ri % (oh * ow));
        let (oy, ox) = (rest / ow, rest % ow);
        let iy0 = (oy * stride) as isize - pad as isize;
        let ix0 = (ox * stride) as isize - pad as isize;
        for ch in 0..c {
            for ky in 0..k {
                let iy = iy0 + ky as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for kx in 0..k {
                    let ix = ix0 + kx as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    dx[((img * c + ch) * h + iy as usize) * w + ix as usize] +=
                        row[(ch * k + ky) * k + kx];
                }
            }
        }
    }
}

/// The im2row-layout entries (`[n*oh*ow, c*k*k]`) whose [`col2im`]
/// target is marked in `need`, an NCHW mask of the input: the gradient
/// entries a convolution's data-gradient product must compute when its
/// caller reads only the `need` entries of the input gradient. `col2im`
/// folds each entry into exactly one input position, and a padding tap
/// into none, so padding taps are never needed. Column `(ch, ky, kx)`
/// of the result is the taps `(ch, ky, kx)` whose input is needed.
///
/// # Panics
///
/// Panics if `need` does not match the NCHW shape.
#[must_use]
pub fn im2row_need(
    need: &[bool],
    shape: [usize; 4],
    k: usize,
    stride: usize,
    pad: usize,
) -> crate::NeededRows {
    let [n, c, h, w] = shape;
    assert_eq!(need.len(), n * c * h * w, "need must match its NCHW shape");
    let (oh, ow) = (
        conv_out_size(h, k, stride, pad),
        conv_out_size(w, k, stride, pad),
    );
    let mut out = crate::NeededRows::new(n * oh * ow, c * k * k);
    // The output rows `oy` (columns `ox`) whose tap `ky` (`kx`) lands
    // inside the input: `0 <= oy * stride + ky - pad < h`.
    let inside = |kt: usize, o: usize, s: usize| {
        let lo = pad.saturating_sub(kt).div_ceil(stride);
        let hi = (s + pad).saturating_sub(kt).div_ceil(stride).min(o);
        lo..hi.max(lo)
    };
    // One bit word per input line, when lines fit a word.
    let lines: Vec<u64> = if w <= 64 {
        need.chunks_exact(w)
            .map(|line| {
                (line.iter().enumerate()).fold(0, |bits, (ix, &b)| bits | u64::from(b) << ix)
            })
            .collect()
    } else {
        Vec::new()
    };
    for col in 0..c * k * k {
        let (ch, ky, kx) = (col / (k * k), col / k % k, col % k);
        let (oys, oxs) = (inside(ky, oh, h), inside(kx, ow, w));
        let bits = out.column_mut(col);
        for img in 0..n {
            for oy in oys.clone() {
                let line = (img * c + ch) * h + oy * stride + ky - pad;
                let r0 = (img * oh + oy) * ow;
                if stride == 1 && ow <= 64 && !lines.is_empty() {
                    // Tap `kx` of output column `ox` reads `ix = ox + kx -
                    // pad`: the output line's bits are the input line's
                    // shifted by `kx - pad`, laid in at row `r0`.
                    let ox = if kx >= pad {
                        lines[line].checked_shr((kx - pad) as u32)
                    } else {
                        lines[line].checked_shl((pad - kx) as u32)
                    };
                    let ox = ox.unwrap_or(0) & (u64::MAX >> (64 - ow));
                    let (word, bit) = (r0 / 64, (r0 % 64) as u32);
                    bits[word] |= ox << bit;
                    if let Some(next) = bits.get_mut(word + 1) {
                        *next |= ox.checked_shr(64 - bit).unwrap_or(0);
                    }
                } else {
                    let line = &need[line * w..][..w];
                    for ox in oxs.clone() {
                        let r = r0 + ox;
                        bits[r / 64] |= u64::from(line[ox * stride + kx - pad]) << (r % 64);
                    }
                }
            }
        }
    }
    out
}

/// Scatters a row-major `[n*spatial, channels]` GEMM output into NCHW
/// order `[n, channels, spatial]`.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn rows_to_nchw(src: &[f32], n: usize, channels: usize, spatial: usize, out: &mut [f32]) {
    assert_eq!(
        src.len(),
        n * spatial * channels,
        "src must be [n*spatial, channels]"
    );
    assert_eq!(out.len(), src.len(), "out must be [n, channels, spatial]");
    for img in 0..n {
        for ch in 0..channels {
            let plane = &mut out[(img * channels + ch) * spatial..][..spatial];
            for (s, v) in plane.iter_mut().enumerate() {
                *v = src[(img * spatial + s) * channels + ch];
            }
        }
    }
}

/// Gathers an NCHW tensor `[n, channels, spatial]` into row-major
/// `[n*spatial, channels]` GEMM rows (the inverse of [`rows_to_nchw`]).
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn nchw_to_rows(src: &[f32], n: usize, channels: usize, spatial: usize, out: &mut [f32]) {
    assert_eq!(
        src.len(),
        n * channels * spatial,
        "src must be [n, channels, spatial]"
    );
    assert_eq!(out.len(), src.len(), "out must be [n*spatial, channels]");
    for img in 0..n {
        for s in 0..spatial {
            let row = &mut out[(img * spatial + s) * channels..][..channels];
            for (ch, v) in row.iter_mut().enumerate() {
                *v = src[(img * channels + ch) * spatial + s];
            }
        }
    }
}

/// Gathers an NCHW tensor `[n, channels, spatial]` into channel-major
/// `[channels, n*spatial]` rows (the weight-gradient operand layout); each
/// channel row is assembled from `n` contiguous per-image runs.
///
/// # Panics
///
/// Panics on slice-length mismatches.
pub fn nchw_to_channel_rows(
    src: &[f32],
    n: usize,
    channels: usize,
    spatial: usize,
    out: &mut [f32],
) {
    assert_eq!(
        src.len(),
        n * channels * spatial,
        "src must be [n, channels, spatial]"
    );
    assert_eq!(out.len(), src.len(), "out must be [channels, n*spatial]");
    let ns = n * spatial;
    for ch in 0..channels {
        for img in 0..n {
            let from = (img * channels + ch) * spatial;
            out[ch * ns + img * spatial..][..spatial].copy_from_slice(&src[from..from + spatial]);
        }
    }
}

/// Materializes the transpose (`cols x rows`) of a row-major `rows x cols`
/// slice.
///
/// # Panics
///
/// Panics if `src.len() != rows * cols`.
#[must_use]
pub fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(src.len(), rows * cols, "src must be rows x cols");
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = src[r * cols + c];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use srmac_rng::SplitMix64;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
    }

    /// Integers in `-4..=4`: every product and partial sum of the small
    /// adjoint test below is exact in `f32`, in any order.
    fn small_ints(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..len)
            .map(|_| (rng.next_u64() % 9) as f32 - 4.0)
            .collect()
    }

    /// `(shape, k, stride, pad)` geometries with padding taps on every
    /// border, strided and unstrided.
    const GEOMETRIES: [([usize; 4], usize, usize, usize); 3] = [
        ([3, 2, 7, 5], 3, 2, 1),
        ([2, 3, 4, 4], 3, 1, 2),
        ([1, 1, 5, 6], 1, 1, 0),
    ];

    fn rows_len(shape: [usize; 4], k: usize, stride: usize, pad: usize) -> usize {
        let [n, c, h, w] = shape;
        n * conv_out_size(h, k, stride, pad) * conv_out_size(w, k, stride, pad) * c * k * k
    }

    #[test]
    fn im2row_matches_a_direct_per_tap_gather() {
        for (seed, (shape, k, stride, pad)) in GEOMETRIES.into_iter().enumerate() {
            let [n, c, h, w] = shape;
            let x = rand_vec(n * c * h * w, seed as u64);
            let mut got = vec![f32::NAN; rows_len(shape, k, stride, pad)];
            im2row(&x, shape, k, stride, pad, &mut got);

            let (oh, ow) = (
                conv_out_size(h, k, stride, pad),
                conv_out_size(w, k, stride, pad),
            );
            let mut want = Vec::with_capacity(got.len());
            for img in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        for ch in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    // Padded coordinates: the tap reads x
                                    // only inside [pad, pad + h) x [pad, pad + w).
                                    let (py, px) = (oy * stride + ky, ox * stride + kx);
                                    let inside = (pad..pad + h).contains(&py)
                                        && (pad..pad + w).contains(&px);
                                    want.push(if inside {
                                        x[((img * c + ch) * h + py - pad) * w + px - pad]
                                    } else {
                                        0.0
                                    });
                                }
                            }
                        }
                    }
                }
            }
            let same = want
                .iter()
                .zip(&got)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{shape:?} k{k} s{stride} p{pad}: im2row diverged");
        }
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2row() {
        // <im2row(x), r> == <x, col2im(r)>, exactly: integer inputs keep
        // both sums exact in f32.
        for (seed, (shape, k, stride, pad)) in GEOMETRIES.into_iter().enumerate() {
            let [n, c, h, w] = shape;
            let x = small_ints(n * c * h * w, 2 * seed as u64);
            let r = small_ints(rows_len(shape, k, stride, pad), 2 * seed as u64 + 1);
            let mut rows = vec![f32::NAN; r.len()];
            im2row(&x, shape, k, stride, pad, &mut rows);
            let mut dx = vec![f32::NAN; x.len()];
            col2im(&r, shape, k, stride, pad, &mut dx);
            let lhs: f32 = rows.iter().zip(&r).map(|(a, b)| a * b).sum();
            let rhs: f32 = x.iter().zip(&dx).map(|(a, b)| a * b).sum();
            assert_eq!(lhs, rhs, "{shape:?} k{k} s{stride} p{pad}: not adjoint");
            assert_ne!(lhs, 0.0, "{shape:?}: a zero inner product proves nothing");
        }
    }

    #[test]
    fn im2row_need_lists_the_in_bounds_taps_of_needed_inputs() {
        // Plus a line wider than one bit word.
        let wide = ([1, 2, 3, 70], 3, 1, 1);
        for (seed, (shape, k, stride, pad)) in GEOMETRIES.into_iter().chain([wide]).enumerate() {
            let [n, c, h, w] = shape;
            let mut rng = SplitMix64::new(seed as u64 + 10);
            let need: Vec<bool> = (0..n * c * h * w).map(|_| rng.next_f64() < 0.5).collect();
            let got = im2row_need(&need, shape, k, stride, pad);

            let (oh, ow) = (
                conv_out_size(h, k, stride, pad),
                conv_out_size(w, k, stride, pad),
            );
            let want = crate::NeededRows::from_fn(n * oh * ow, c * k * k, |r, col| {
                let (img, oy, ox) = (r / (oh * ow), r / ow % oh, r % ow);
                let (ch, ky, kx) = (col / (k * k), col / k % k, col % k);
                let (py, px) = (oy * stride + ky, ox * stride + kx);
                (pad..pad + h).contains(&py)
                    && (pad..pad + w).contains(&px)
                    && need[((img * c + ch) * h + py - pad) * w + px - pad]
            });
            assert_eq!(got, want, "{shape:?} k{k} s{stride} p{pad}");
            assert!(want.count() > 0, "{shape:?}: an empty need proves nothing");
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let (n, channels, spatial) = (4, 5, 9);
        let rows = rand_vec(n * spatial * channels, 3);

        // Roundtrip: rows -> NCHW -> rows reproduces the input exactly.
        let mut nchw = vec![f32::NAN; n * channels * spatial];
        rows_to_nchw(&rows, n, channels, spatial, &mut nchw);
        let mut back = vec![f32::NAN; n * spatial * channels];
        nchw_to_rows(&nchw, n, channels, spatial, &mut back);
        assert_eq!(back, rows);

        // Channel rows are the transpose of the [n*spatial, channels] rows.
        let mut channel_rows = vec![f32::NAN; channels * n * spatial];
        nchw_to_channel_rows(&nchw, n, channels, spatial, &mut channel_rows);
        assert_eq!(channel_rows, transpose(&rows, n * spatial, channels));
    }

    #[test]
    fn transpose_matches_the_serial_definition() {
        let (rows, cols) = (23, 17);
        let src = rand_vec(rows * cols, 4);
        let t = transpose(&src, rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(t[c * rows + r].to_bits(), src[r * cols + c].to_bits());
            }
        }
        assert_eq!(transpose(&t, cols, rows), src);
    }

    #[test]
    fn conv_out_size_matches_the_formula_on_valid_geometry() {
        assert_eq!(conv_out_size(16, 3, 1, 1), 16);
        assert_eq!(conv_out_size(16, 3, 2, 1), 8);
        assert_eq!(conv_out_size(1, 1, 1, 0), 1);
        assert_eq!(conv_out_size(2, 3, 1, 1), 2);
    }

    #[test]
    #[should_panic(expected = "conv geometry invalid")]
    fn conv_out_size_rejects_kernel_larger_than_padded_input() {
        let _ = conv_out_size(2, 5, 1, 1);
    }

    #[test]
    #[should_panic(expected = "stride must be nonzero")]
    fn conv_out_size_rejects_zero_stride() {
        let _ = conv_out_size(8, 3, 0, 1);
    }
}
