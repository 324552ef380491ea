//! Minimal dense linear algebra: just enough to solve the normal equations
//! of ordinary least squares with partial pivoting and a ridge fallback.

/// `Σ x[r]·y[r]`, summed in order.
fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).fold(0.0, |sum, (a, b)| sum + a * b)
}

/// Solves `A x = b` for square `A` (row-major, `n × n`) by Gaussian
/// elimination with partial pivoting.
///
/// Returns `None` when a pivot is (numerically) zero, i.e. the system is
/// singular.
pub(crate) fn solve(a: &[f64], b: &[f64], n: usize) -> Option<Vec<f64>> {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    let mut m = a.to_vec();
    let mut rhs = b.to_vec();

    for col in 0..n {
        // Partial pivot: largest |value| in this column at or below the diagonal.
        let mut pivot_row = col;
        let mut pivot_val = m[col * n + col].abs();
        for row in (col + 1)..n {
            let v = m[row * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-12 {
            return None;
        }
        if pivot_row != col {
            for k in 0..n {
                m.swap(col * n + k, pivot_row * n + k);
            }
            rhs.swap(col, pivot_row);
        }
        let pivot = m[col * n + col];
        for row in (col + 1)..n {
            let factor = m[row * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                m[row * n + k] -= factor * m[col * n + k];
            }
            rhs[row] -= factor * rhs[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for k in (row + 1)..n {
            acc -= m[row * n + k] * x[k];
        }
        x[row] = acc / m[row * n + row];
    }
    if x.iter().all(|v| v.is_finite()) {
        Some(x)
    } else {
        None
    }
}

/// Solves the ridge-regularised normal equations `(AᵀA + λI) x = Aᵀb` where
/// `A` is the `rows × cols` design matrix (row-major).
///
/// `lambda = 0` gives plain OLS. Returns `None` if even the regularised
/// system is singular.
pub(crate) fn least_squares(
    design: &[f64],
    targets: &[f64],
    rows: usize,
    cols: usize,
    lambda: f64,
) -> Option<Vec<f64>> {
    debug_assert_eq!(design.len(), rows * cols);
    debug_assert_eq!(targets.len(), rows);
    let mut columns = Vec::with_capacity(rows * cols);
    for k in 0..cols {
        columns.extend(design.chunks_exact(cols).map(|row| row[k]));
    }
    let normal = NormalEquations::from_columns(&columns, cols, targets);
    let all: Vec<usize> = (0..cols).collect();
    normal.solve(&all, lambda)
}

/// [`least_squares`] before it accumulated through [`NormalEquations`], kept
/// as an independent oracle for the least-squares fits that now do.
#[cfg(test)]
pub(crate) fn least_squares_reference(
    design: &[f64],
    targets: &[f64],
    rows: usize,
    cols: usize,
    lambda: f64,
) -> Option<Vec<f64>> {
    // Gram matrix AᵀA (cols × cols) and Aᵀb.
    let mut gram = vec![0.0; cols * cols];
    let mut atb = vec![0.0; cols];
    for r in 0..rows {
        let row = &design[r * cols..(r + 1) * cols];
        for i in 0..cols {
            atb[i] += row[i] * targets[r];
            for j in i..cols {
                gram[i * cols + j] += row[i] * row[j];
            }
        }
    }
    // Mirror the upper triangle and add the ridge.
    for i in 0..cols {
        for j in 0..i {
            gram[i * cols + j] = gram[j * cols + i];
        }
        gram[i * cols + i] += lambda;
    }
    solve(&gram, &atb, cols)
}

/// The Gram matrix `AᵀA` and `Aᵀb` of a design matrix, from which the
/// least-squares system of any subset of the design's columns can be
/// solved without another pass over the rows.
///
/// Every entry is a sum over the rows in row order, so the principal
/// sub-matrix over a column subset equals, bit for bit, the Gram matrix of
/// the design restricted to those columns.
pub(crate) struct NormalEquations {
    cols: usize,
    /// Upper triangle of `AᵀA`, row-major `cols × cols`.
    gram: Vec<f64>,
    atb: Vec<f64>,
}

impl NormalEquations {
    /// The normal equations of the design whose `cols` columns lie
    /// column-major in `columns`, each as long as `targets`. Four entries
    /// of a Gram row are summed side by side, each over the rows in order.
    pub(crate) fn from_columns(columns: &[f64], cols: usize, targets: &[f64]) -> Self {
        let n = targets.len();
        debug_assert_eq!(columns.len(), cols * n);
        let column = |k: usize| &columns[k * n..(k + 1) * n];
        let mut gram = vec![0.0; cols * cols];
        let mut atb = vec![0.0; cols];
        for i in 0..cols {
            let x = column(i);
            atb[i] = dot(x, targets);
            let mut j = i;
            while j + 4 <= cols {
                let (a, b, c, d) = (column(j), column(j + 1), column(j + 2), column(j + 3));
                let mut sums = [0.0; 4];
                for r in 0..n {
                    sums[0] += x[r] * a[r];
                    sums[1] += x[r] * b[r];
                    sums[2] += x[r] * c[r];
                    sums[3] += x[r] * d[r];
                }
                gram[i * cols + j..i * cols + j + 4].copy_from_slice(&sums);
                j += 4;
            }
            for k in j..cols {
                gram[i * cols + k] = dot(x, column(k));
            }
        }
        NormalEquations { cols, gram, atb }
    }

    /// Solves `(A_SᵀA_S + λI) x = A_Sᵀb` for the design columns `subset`
    /// (ascending), i.e. on the principal sub-matrix. Returns `None` if
    /// the regularised system is singular.
    pub(crate) fn solve(&self, subset: &[usize], lambda: f64) -> Option<Vec<f64>> {
        let n = subset.len();
        let mut gram = vec![0.0; n * n];
        let mut atb = vec![0.0; n];
        for (i, &p) in subset.iter().enumerate() {
            atb[i] = self.atb[p];
            for (j, &q) in subset.iter().enumerate().skip(i) {
                gram[i * n + j] = self.gram[p * self.cols + q];
            }
        }
        // Mirror the upper triangle and add the ridge.
        for i in 0..n {
            for j in 0..i {
                gram[i * n + j] = gram[j * n + i];
            }
            gram[i * n + i] += lambda;
        }
        solve(&gram, &atb, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [3.0, 4.0];
        assert_eq!(solve(&a, &b, 2).unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn solve_requires_pivoting() {
        // First pivot is zero; only row swapping makes this solvable.
        let a = [0.0, 1.0, 1.0, 0.0];
        let b = [2.0, 5.0];
        let x = solve(&a, &b, 2).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_general_3x3() {
        let a = [2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0];
        let b = [8.0, -11.0, -3.0];
        let x = solve(&a, &b, 3).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((x[2] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = [1.0, 2.0, 2.0, 4.0];
        let b = [1.0, 2.0];
        assert!(solve(&a, &b, 2).is_none());
    }

    #[test]
    fn least_squares_exact_line() {
        // y = 3 + 2x, design has intercept column.
        let design = [1.0, 0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let x = least_squares(&design, &y, 4, 2, 0.0).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-9);
        assert!((x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn least_squares_overdetermined_noisy() {
        // Noisy y = 1 + x: solution should land near (1, 1).
        let mut design = Vec::new();
        let mut y = Vec::new();
        for i in 0..50 {
            let xv = i as f64 / 10.0;
            design.extend_from_slice(&[1.0, xv]);
            y.push(1.0 + xv + if i % 2 == 0 { 0.05 } else { -0.05 });
        }
        let x = least_squares(&design, &y, 50, 2, 0.0).unwrap();
        assert!((x[0] - 1.0).abs() < 0.1);
        assert!((x[1] - 1.0).abs() < 0.05);
    }

    #[test]
    fn ridge_rescues_collinear_design() {
        // Two identical columns: OLS is singular, ridge is not.
        let design = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        let y = [2.0, 4.0, 6.0];
        assert!(least_squares(&design, &y, 3, 2, 0.0).is_none());
        let x = least_squares(&design, &y, 3, 2, 1e-6).unwrap();
        // The two columns share the weight; their sum must be ~2.
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3);
    }
}
