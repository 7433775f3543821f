//! Tiny dense linear-algebra helpers for model calibration: weighted least
//! squares via normal equations, with a non-negativity active-set loop
//! (physical cost coefficients cannot be negative).

/// Solves `min_x ||W(Ax - y)||_2` for `x`, constraining every coefficient to
/// be non-negative. `a` is row-major (`rows x cols`), `w` are per-row
/// weights.
///
/// # Panics
///
/// Panics if dimensions disagree or the system is degenerate.
#[must_use]
pub fn nnls(a: &[Vec<f64>], y: &[f64], w: &[f64]) -> Vec<f64> {
    let rows = a.len();
    let cols = a[0].len();
    assert_eq!(y.len(), rows);
    assert_eq!(w.len(), rows);
    let mut active: Vec<bool> = vec![true; cols]; // coefficient is free
    loop {
        let idx: Vec<usize> = (0..cols).filter(|&j| active[j]).collect();
        assert!(!idx.is_empty(), "all coefficients clamped to zero");
        let x_sub = solve_wls(a, y, w, &idx);
        if let Some(&neg) = idx.iter().find(|&&j| x_sub[pos(&idx, j)] < 0.0) {
            active[neg] = false;
            continue;
        }
        let mut x = vec![0.0; cols];
        for &j in &idx {
            x[j] = x_sub[pos(&idx, j)];
        }
        return x;
    }
}

fn pos(idx: &[usize], j: usize) -> usize {
    #[expect(clippy::expect_used, reason = "callers only pass j drawn from idx")]
    let p = idx.iter().position(|&k| k == j).expect("index present");
    p
}

/// Weighted least squares restricted to the columns in `idx`.
fn solve_wls(a: &[Vec<f64>], y: &[f64], w: &[f64], idx: &[usize]) -> Vec<f64> {
    let n = idx.len();
    // Normal equations: (A^T W^2 A) x = A^T W^2 y, with a tiny ridge term.
    let mut m = vec![vec![0.0; n]; n];
    let mut b = vec![0.0; n];
    for (i_row, row) in a.iter().enumerate() {
        let wi2 = w[i_row] * w[i_row];
        for (ii, &ji) in idx.iter().enumerate() {
            b[ii] += wi2 * row[ji] * y[i_row];
            for (jj, &jk) in idx.iter().enumerate() {
                m[ii][jj] += wi2 * row[ji] * row[jk];
            }
        }
    }
    for (i, mi) in m.iter_mut().enumerate() {
        mi[i] += 1e-9;
    }
    gauss_solve(m, b)
}

/// Gaussian elimination with partial pivoting.
fn gauss_solve(mut m: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        #[expect(
            clippy::unwrap_used,
            reason = "cost-model matrices are finite, so partial_cmp is total here; col..n is non-empty for col < n"
        )]
        let piv = (col..n)
            .max_by(|&i, &j| m[i][col].abs().partial_cmp(&m[j][col].abs()).unwrap())
            .unwrap();
        m.swap(col, piv);
        b.swap(col, piv);
        assert!(m[col][col].abs() > 1e-14, "degenerate calibration system");
        for row in (col + 1)..n {
            let f = m[row][col] / m[col][col];
            let (above, below) = m.split_at_mut(row);
            for (cell, &src) in below[0][col..n].iter_mut().zip(&above[col][col..n]) {
                *cell -= f * src;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut s = b[row];
        for k in (row + 1)..n {
            s -= m[row][k] * x[k];
        }
        x[row] = s / m[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_model() {
        // y = 2*x0 + 3*x1 + 5
        let a: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![f64::from(i), f64::from(i * i), 1.0])
            .collect();
        let y: Vec<f64> = a.iter().map(|r| 2.0 * r[0] + 3.0 * r[1] + 5.0).collect();
        let w = vec![1.0; 10];
        let x = nnls(&a, &y, &w);
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] - 3.0).abs() < 1e-6);
        assert!((x[2] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn clamps_negative_coefficients() {
        // Best unconstrained fit would use a negative coefficient; nnls
        // must return only non-negative ones.
        let a = vec![vec![1.0, 1.0], vec![2.0, 1.0], vec![3.0, 1.0]];
        let y = vec![3.0, 2.0, 1.0]; // decreasing: slope would be negative
        let w = vec![1.0; 3];
        let x = nnls(&a, &y, &w);
        assert!(x.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn weights_prioritize_rows() {
        let a = vec![vec![1.0], vec![1.0]];
        let y = vec![1.0, 3.0];
        // Heavily weight the second row: solution approaches 3.
        let x = nnls(&a, &y, &[0.001, 100.0]);
        assert!((x[0] - 3.0).abs() < 0.01, "{x:?}");
    }
}
