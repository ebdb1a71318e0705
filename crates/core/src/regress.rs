//! Regression primitives for the smart-sampling optimizers (paper §III-F:
//! "We are currently exploring regression techniques and obtaining positive
//! results for some workloads").
//!
//! * [`linear_fit`] — ordinary least squares `y = a + b·x`.
//! * [`amdahl_fit`] — `T(p) = T₁·(s + (1−s)/p)`, linear in the basis
//!   `(1, 1/p)`; the natural model for "execution time vs. ranks" and what
//!   the fixed-performance-factor extrapolation uses.
//! * [`multilinear_fit_ridge`] — `y = β₀ + β₁x₁ + … + βₖxₖ`, the
//!   history predictor's model.

/// A fitted model with its coefficient of determination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Fit {
    /// Intercept-like coefficient (model-specific; see each fitter).
    pub(crate) a: f64,
    /// Slope-like coefficient (model-specific).
    pub(crate) b: f64,
    /// Coefficient of determination on the fitted (possibly transformed)
    /// data.
    pub(crate) r2: f64,
}

/// Ordinary least squares for `y = a + b·x`. Returns `None` with fewer than
/// two distinct x values.
pub(crate) fn linear_fit(points: &[(f64, f64)]) -> Option<Fit> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return None;
    }
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = pts.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = pts.iter().map(|(x, y)| (y - (a + b * x)).powi(2)).sum();
    let r2 = if ss_tot < 1e-12 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(Fit { a, b, r2 })
}

/// Fits Amdahl's law `T(p) = T₁·(s + (1−s)/p)` over `(p, T)` samples.
/// Returns `Fit { a: T₁·s, b: T₁·(1−s), r2 }`, i.e. `T(p) = a + b/p`.
/// Use [`amdahl_eval`] for interpretation.
pub(crate) fn amdahl_fit(points: &[(f64, f64)]) -> Option<Fit> {
    let transformed: Vec<(f64, f64)> = points
        .iter()
        .filter(|(p, t)| *p > 0.0 && t.is_finite())
        .map(|(p, t)| (1.0 / p, *t))
        .collect();
    linear_fit(&transformed)
}

/// Evaluates an Amdahl fit at `p` ranks/nodes.
pub(crate) fn amdahl_eval(fit: &Fit, p: f64) -> f64 {
    fit.a + fit.b / p
}

/// Ordinary least squares for a multi-feature linear model
/// `y = β₀ + β₁x₁ + … + βₖxₖ`, solved via the normal equations with
/// Gaussian elimination (feature counts here are tiny — a handful of
/// log-scaled workload descriptors).
///
/// `rows` are `(features, y)` pairs; every row must have the same feature
/// count. Returns the coefficient vector `[β₀, β₁, …, βₖ]`, or `None` when
/// the system is under-determined or singular.
///
/// `lambda` adds Tikhonov (ridge) regularization to the diagonal of XᵀX
/// (intercept excluded); `0.0` is plain least squares. A tiny `lambda`
/// keeps the system solvable when features are collinear — e.g. when a
/// history covers only two SKUs, making the hardware descriptors linearly
/// dependent.
pub(crate) fn multilinear_fit_ridge(rows: &[(Vec<f64>, f64)], lambda: f64) -> Option<Vec<f64>> {
    let k = rows.first()?.0.len();
    if rows.len() < k + 1 || rows.iter().any(|(f, y)| f.len() != k || !y.is_finite()) {
        return None;
    }
    let dim = k + 1;
    // Build XᵀX (dim×dim) and Xᵀy (dim) with the implicit intercept column.
    let mut xtx = vec![vec![0.0f64; dim]; dim];
    let mut xty = vec![0.0f64; dim];
    for (features, y) in rows {
        let mut x = Vec::with_capacity(dim);
        x.push(1.0);
        x.extend_from_slice(features);
        for i in 0..dim {
            xty[i] += x[i] * y;
            for j in 0..dim {
                xtx[i][j] += x[i] * x[j];
            }
        }
    }
    // Gaussian elimination with partial pivoting.
    let mut a = xtx;
    let mut b = xty;
    for (i, row) in a.iter_mut().enumerate().skip(1) {
        row[i] += lambda;
    }
    for col in 0..dim {
        let pivot = (col..dim).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..dim {
            let (head, tail) = a.split_at_mut(row);
            let (src, dst) = (&head[col], &mut tail[0]);
            let factor = dst[col] / src[col];
            for (d, s) in dst[col..].iter_mut().zip(&src[col..]) {
                *d -= factor * s;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut beta = vec![0.0f64; dim];
    for row in (0..dim).rev() {
        let mut sum = b[row];
        for j in row + 1..dim {
            sum -= a[row][j] * beta[j];
        }
        beta[row] = sum / a[row][row];
    }
    if beta.iter().any(|c| !c.is_finite()) {
        return None;
    }
    Some(beta)
}

/// Evaluates a multilinear fit at a feature vector.
pub(crate) fn multilinear_eval(beta: &[f64], features: &[f64]) -> f64 {
    beta[0]
        + beta[1..]
            .iter()
            .zip(features)
            .map(|(b, x)| b * x)
            .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let f = linear_fit(&pts).unwrap();
        assert!((f.a - 3.0).abs() < 1e-9);
        assert!((f.b - 2.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_needs_two_distinct_x() {
        assert!(linear_fit(&[(1.0, 2.0)]).is_none());
        assert!(linear_fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
        assert!(linear_fit(&[]).is_none());
    }

    #[test]
    fn amdahl_recovers_serial_fraction() {
        // T₁ = 100, s = 0.1: T(p) = 100·(0.1 + 0.9/p).
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0, 16.0]
            .iter()
            .map(|&p| (p, 100.0 * (0.1 + 0.9 / p)))
            .collect();
        let f = amdahl_fit(&pts).unwrap();
        assert!((amdahl_eval(&f, 1.0) - 100.0).abs() < 1e-9);
        assert!((f.a / amdahl_eval(&f, 1.0) - 0.1).abs() < 1e-9);
        assert!((amdahl_eval(&f, 32.0) - 100.0 * (0.1 + 0.9 / 32.0)).abs() < 1e-9);
    }

    #[test]
    fn amdahl_fit_on_noisy_data_still_close() {
        let noise = [1.01, 0.99, 1.02, 0.98, 1.0];
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0, 16.0]
            .iter()
            .zip(noise.iter())
            .map(|(&p, &k)| (p, 100.0 * (0.05 + 0.95 / p) * k))
            .collect();
        let f = amdahl_fit(&pts).unwrap();
        let s = f.a / amdahl_eval(&f, 1.0);
        assert!((s - 0.05).abs() < 0.02, "s = {s}");
        assert!(f.r2 > 0.99);
    }
}

#[cfg(test)]
mod multilinear_tests {
    use super::*;

    #[test]
    fn recovers_exact_plane() {
        // y = 2 + 3x₁ − 0.5x₂ over a grid.
        let mut rows = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                let (x1, x2) = (i as f64, j as f64);
                rows.push((vec![x1, x2], 2.0 + 3.0 * x1 - 0.5 * x2));
            }
        }
        let beta = multilinear_fit_ridge(&rows, 0.0).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-9);
        assert!((beta[1] - 3.0).abs() < 1e-9);
        assert!((beta[2] + 0.5).abs() < 1e-9);
        assert!((multilinear_eval(&beta, &[10.0, 4.0]) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn underdetermined_and_singular_rejected() {
        // Two rows for a 2-feature model: under-determined.
        assert!(
            multilinear_fit_ridge(&[(vec![1.0, 2.0], 3.0), (vec![2.0, 3.0], 4.0)], 0.0).is_none()
        );
        // Collinear feature (x₂ = 2·x₁): singular normal matrix.
        let rows: Vec<(Vec<f64>, f64)> = (0..10)
            .map(|i| {
                let x = i as f64;
                (vec![x, 2.0 * x], x)
            })
            .collect();
        assert!(multilinear_fit_ridge(&rows, 0.0).is_none());
        assert!(multilinear_fit_ridge(&[], 0.0).is_none());
    }

    #[test]
    fn mismatched_feature_lengths_rejected() {
        let rows = vec![(vec![1.0], 1.0), (vec![1.0, 2.0], 2.0), (vec![2.0], 3.0)];
        assert!(multilinear_fit_ridge(&rows, 0.0).is_none());
    }

    #[test]
    fn ridge_handles_collinear_features() {
        // x₂ = 2·x₁ is singular for plain OLS but solvable with ridge, and
        // predictions on the training manifold stay accurate.
        let rows: Vec<(Vec<f64>, f64)> = (0..10)
            .map(|i| {
                let x = i as f64;
                (vec![x, 2.0 * x], 5.0 + 3.0 * x)
            })
            .collect();
        assert!(multilinear_fit_ridge(&rows, 0.0).is_none());
        let beta = multilinear_fit_ridge(&rows, 1e-6).unwrap();
        let pred = multilinear_eval(&beta, &[4.0, 8.0]);
        assert!((pred - 17.0).abs() < 1e-3, "pred {pred}");
    }

    #[test]
    fn noisy_plane_fit_is_close() {
        let mut rows = Vec::new();
        let mut lcg = 12345u64;
        for i in 0..40 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let noise = ((lcg >> 33) as f64 / 2.0f64.powi(31) - 0.5) * 0.1;
            let x1 = (i % 8) as f64;
            let x2 = (i / 8) as f64;
            rows.push((vec![x1, x2], 1.0 + 0.7 * x1 + 0.2 * x2 + noise));
        }
        let beta = multilinear_fit_ridge(&rows, 0.0).unwrap();
        assert!((beta[1] - 0.7).abs() < 0.05, "{beta:?}");
        assert!((beta[2] - 0.2).abs() < 0.05, "{beta:?}");
    }
}
