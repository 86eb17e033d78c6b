//! Ridge regression (closed form) and the paper's evaluation metrics:
//! correlation coefficient `R`, MAPE and RRSE.

/// A fitted ridge regressor with feature standardization.
#[derive(Clone, Debug)]
pub struct Ridge {
    weights: Vec<f64>,
    intercept: f64,
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Ridge {
    /// Fits `y ≈ Xw + b` with L2 penalty `lambda` (on standardized
    /// features).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or rows have inconsistent lengths.
    #[allow(clippy::needless_range_loop)] // symmetric-matrix index loops
    pub fn fit(x: &[Vec<f64>], y: &[f64], lambda: f64) -> Self {
        assert!(!x.is_empty(), "ridge needs at least one sample");
        assert_eq!(x.len(), y.len(), "sample/label count mismatch");
        let d = x[0].len();
        let n = x.len();
        // standardize
        let mut mean = vec![0.0; d];
        for row in x {
            assert_eq!(row.len(), d, "ragged feature rows");
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= n as f64;
        }
        let mut std = vec![0.0; d];
        for row in x {
            for k in 0..d {
                let c = row[k] - mean[k];
                std[k] += c * c;
            }
        }
        for s in std.iter_mut() {
            *s = (*s / n as f64).sqrt().max(1e-9);
        }
        let z = |row: &[f64]| -> Vec<f64> {
            row.iter()
                .enumerate()
                .map(|(k, &v)| (v - mean[k]) / std[k])
                .collect()
        };
        let y_mean = y.iter().sum::<f64>() / n as f64;

        // normal equations on standardized, centered data
        let mut xtx = vec![vec![0.0f64; d]; d];
        let mut xty = vec![0.0f64; d];
        for (row, &yy) in x.iter().zip(y) {
            let zr = z(row);
            let yc = yy - y_mean;
            for a in 0..d {
                xty[a] += zr[a] * yc;
                for b in a..d {
                    xtx[a][b] += zr[a] * zr[b];
                }
            }
        }
        for a in 0..d {
            for b in 0..a {
                xtx[a][b] = xtx[b][a];
            }
            xtx[a][a] += lambda;
        }
        let weights = solve(xtx, xty);
        Ridge {
            weights,
            intercept: y_mean,
            mean,
            std,
        }
    }

    /// Predicts one sample.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut acc = self.intercept;
        for (k, &v) in row.iter().enumerate() {
            acc += self.weights[k] * (v - self.mean[k]) / self.std[k];
        }
        acc
    }

    /// Predicts a batch.
    pub fn predict_all(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict(r)).collect()
    }
}

/// Gaussian elimination with partial pivoting; singular systems fall back
/// to the least-norm-ish solution by zeroing dead pivots.
#[allow(clippy::needless_range_loop)] // Gaussian elimination reads clearest with indices
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // pivot
        let mut best = col;
        for r in (col + 1)..n {
            if a[r][col].abs() > a[best][col].abs() {
                best = r;
            }
        }
        a.swap(col, best);
        b.swap(col, best);
        let pivot = a[col][col];
        if pivot.abs() < 1e-12 {
            continue;
        }
        for r in (col + 1)..n {
            let f = a[r][col] / pivot;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r][c] -= f * a[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in (col + 1)..n {
            acc -= a[col][c] * x[c];
        }
        let pivot = a[col][col];
        x[col] = if pivot.abs() < 1e-12 {
            0.0
        } else {
            acc / pivot
        };
    }
    x
}

/// Pearson correlation coefficient `R` between predictions and truth.
///
/// Returns `NaN` when either side is constant (the paper prints "NA").
pub fn pearson_r(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    let n = pred.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let mp = pred.iter().sum::<f64>() / n;
    let mt = truth.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vp = 0.0;
    let mut vt = 0.0;
    for (&p, &t) in pred.iter().zip(truth) {
        cov += (p - mp) * (t - mt);
        vp += (p - mp) * (p - mp);
        vt += (t - mt) * (t - mt);
    }
    if vp <= 1e-18 || vt <= 1e-18 {
        return f64::NAN;
    }
    cov / (vp.sqrt() * vt.sqrt())
}

/// Mean absolute percentage error, skipping near-zero ground truths.
pub fn mape(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    let mut acc = 0.0;
    let mut count = 0usize;
    let scale = truth.iter().map(|t| t.abs()).fold(0.0f64, f64::max);
    let floor = (scale * 1e-6).max(1e-12);
    for (&p, &t) in pred.iter().zip(truth) {
        if t.abs() > floor {
            acc += ((p - t) / t).abs();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        acc / count as f64
    }
}

/// Root relative squared error: `sqrt(Σ(p−t)² / Σ(t−mean(t))²)`.
pub fn rrse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    let n = truth.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let mt = truth.iter().sum::<f64>() / n;
    let num: f64 = pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| (p - t) * (p - t))
        .sum();
    let den: f64 = truth.iter().map(|&t| (t - mt) * (t - mt)).sum();
    if den <= 1e-18 {
        return if num <= 1e-18 { 0.0 } else { f64::INFINITY };
    }
    (num / den).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn ridge_recovers_linear_function() {
        let mut rng = StdRng::seed_from_u64(1);
        let true_w = [2.0, -1.0, 0.5];
        let data: Vec<(Vec<f64>, f64)> = (0..200)
            .map(|_| {
                let x: Vec<f64> = (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let y = 3.0 + x.iter().zip(&true_w).map(|(a, b)| a * b).sum::<f64>();
                (x, y)
            })
            .collect();
        let xs: Vec<Vec<f64>> = data.iter().map(|d| d.0.clone()).collect();
        let ys: Vec<f64> = data.iter().map(|d| d.1).collect();
        let model = Ridge::fit(&xs, &ys, 1e-6);
        for (x, y) in data.iter().take(20) {
            assert!((model.predict(x) - y).abs() < 1e-6);
        }
    }

    #[test]
    fn ridge_handles_collinear_features() {
        // duplicate feature columns would make plain OLS singular
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let v = i as f64 / 10.0;
                vec![v, v, 1.0]
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|r| 3.0 * r[0] + 1.0).collect();
        let model = Ridge::fit(&xs, &ys, 1e-3);
        let preds = model.predict_all(&xs);
        assert!(rrse(&preds, &ys) < 0.05);
    }

    #[test]
    fn pearson_extremes() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b: Vec<f64> = a.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((pearson_r(&b, &a) - 1.0).abs() < 1e-12);
        let c: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((pearson_r(&c, &a) + 1.0).abs() < 1e-12);
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert!(pearson_r(&flat, &a).is_nan(), "constant prediction → NA");
    }

    #[test]
    fn mape_and_rrse_basics() {
        let truth = [10.0, 20.0, 40.0];
        let exact = truth;
        assert_eq!(mape(&exact, &truth), 0.0);
        assert_eq!(rrse(&exact, &truth), 0.0);
        let off = [11.0, 22.0, 44.0]; // +10% each
        assert!((mape(&off, &truth) - 0.1).abs() < 1e-12);
        assert!(rrse(&off, &truth) > 0.0);
        // predicting the mean gives RRSE exactly 1
        let mean = [70.0 / 3.0; 3];
        assert!((rrse(&mean, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_truth() {
        let truth = [0.0, 10.0];
        let pred = [5.0, 11.0];
        assert!((mape(&pred, &truth) - 0.1).abs() < 1e-12);
    }
}
