//! The continuous piece-wise linear model, parametrised in *segment-slope*
//! space.
//!
//! Given ordered interior breakpoints `ψ_1 < … < ψ_k` inside a domain
//! `[lo, hi]`, the model is
//!
//! ```text
//! y(x) = c + Σ_j  s_j · overlap_j(x),     overlap_j(x) = clamp(x − e_j, 0, e_{j+1} − e_j)
//! ```
//!
//! with segment edges `e = [lo, ψ_1, …, ψ_k, hi]`. This is algebraically the
//! classic hinge form `c' + β₁x + Σ γ_j (x − ψ_j)₊`, but the slope-space
//! parametrisation makes the monotonicity constraint of accumulating
//! counters (`s_j ≥ 0`) a plain non-negativity bound — solvable exactly by
//! NNLS — and reads directly as "per-phase counter rate".
//!
//! # Cost: per-segment sums, not a design matrix
//!
//! A point in segment `s` (edges `e_s ≤ x < e_{s+1}`, the edge segments
//! extended to ±∞) has the design row `[1, W_0, …, W_{s−1}, d, 0, …, 0]`,
//! with widths `W_j = e_{j+1} − e_j` and local offset `d = x − e_s`. So the
//! Gram matrix and right-hand side of the fit depend on the data only
//! through five sums per segment: `Σw`, `Σw·d`, `Σw·d²`, `Σw·y`, `Σw·d·y`.
//! One bucketing pass (a binary search over the k breakpoints per point,
//! O(n log k), any input order) collects them; the `(k+2)²` system follows
//! in O(k²) and is solved by Cholesky, or by Lawson–Hanson NNLS on the Gram
//! ([`crate::linalg::nnls_gram_into`]) for the monotone fit. No entry is a
//! difference of large sums (the offsets are local to each segment), so
//! plain summation is as accurate as the row-wise Gram it replaces (kept as
//! the oracle in `phasefold-verify`, `hinge-rowwise`).
//!
//! The SSE and r² of a fit are not derived from those sums: one exact
//! residual pass per fit evaluates the model at every point, so model
//! selection scores carry no sum-cancellation error. Negative weights count
//! as zero in the fit.

use crate::linalg::{nnls_gram_into, solve_spd_into, LinalgError, Mat, NnlsScratch, SpdScratch};
use crate::stats::r_squared;

/// A fitted continuous piece-wise linear model.
#[derive(Debug, Clone, PartialEq)]
pub struct HingeFit {
    /// Domain lower edge.
    pub lo: f64,
    /// Domain upper edge.
    pub hi: f64,
    /// Interior breakpoints, ascending, strictly inside `(lo, hi)`.
    pub breakpoints: Vec<f64>,
    /// Value of the model at `x = lo`.
    pub intercept: f64,
    /// Per-segment slopes, one per segment (`breakpoints.len() + 1`).
    pub slopes: Vec<f64>,
    /// Residual sum of squares (weighted if weights were used).
    pub sse: f64,
    /// Coefficient of determination on the fitted data.
    pub r2: f64,
    /// Number of fitted points.
    pub n: usize,
}

impl HingeFit {
    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.slopes.len()
    }

    /// Segment spans `[(e_0, e_1), (e_1, e_2), …]`.
    pub fn segment_spans(&self) -> Vec<(f64, f64)> {
        let mut edges = Vec::with_capacity(self.breakpoints.len() + 2);
        edges.push(self.lo);
        edges.extend_from_slice(&self.breakpoints);
        edges.push(self.hi);
        edges.windows(2).map(|w| (w[0], w[1])).collect()
    }

    /// Model prediction at `x` (extrapolates with the edge slopes).
    pub fn predict(&self, x: f64) -> f64 {
        let k = self.breakpoints.len();
        let mut y = self.intercept;
        for (j, &s) in self.slopes.iter().enumerate() {
            let e0 = if j == 0 { self.lo } else { self.breakpoints[j - 1] };
            let e1 = if j == k { self.hi } else { self.breakpoints[j] };
            // Edge segments absorb extrapolation beyond the domain.
            let upper = if j == k { f64::INFINITY } else { e1 - e0 };
            let lower = if j == 0 { f64::NEG_INFINITY } else { 0.0 };
            y += s * (x - e0).clamp(lower, upper);
        }
        y
    }

    /// Slope (instantaneous rate) of the segment containing `x`.
    pub fn slope_at(&self, x: f64) -> f64 {
        let seg = self
            .breakpoints
            .partition_point(|&b| b <= x)
            .min(self.slopes.len().saturating_sub(1));
        self.slopes[seg]
    }
}

/// Errors from PWL fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer points than parameters.
    TooFewPoints {
        /// Points supplied.
        n: usize,
        /// Parameters required.
        p: usize,
    },
    /// The linear solve failed even with regularisation.
    Numerical(LinalgError),
    /// Breakpoints were not strictly ascending inside the domain.
    BadBreakpoints,
    /// The input data contained NaN or infinite values.
    NonFinite,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewPoints { n, p } => {
                write!(f, "too few points: {n} for {p} parameters")
            }
            FitError::Numerical(e) => write!(f, "numerical failure: {e}"),
            FitError::BadBreakpoints => write!(f, "breakpoints not strictly ascending in domain"),
            FitError::NonFinite => write!(f, "input data contains non-finite values"),
        }
    }
}

impl std::error::Error for FitError {}

impl From<LinalgError> for FitError {
    fn from(e: LinalgError) -> FitError {
        FitError::Numerical(e)
    }
}

fn validate_breakpoints(breakpoints: &[f64], lo: f64, hi: f64) -> Result<(), FitError> {
    let mut prev = lo;
    for &b in breakpoints {
        if !(b > prev && b < hi) {
            return Err(FitError::BadBreakpoints);
        }
        prev = b;
    }
    Ok(())
}

/// Reusable buffers for the hinge fits: one instance (per thread) makes
/// repeated fitting allocation-free apart from the returned [`HingeFit`].
#[derive(Default)]
pub struct HingeScratch {
    edges: Vec<f64>,
    sums: Vec<[f64; 5]>,
    gram: Mat,
    rhs: Vec<f64>,
    spd: SpdScratch,
    nnls: NnlsScratch,
    pred: Vec<f64>,
}

impl HingeScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> HingeScratch {
        HingeScratch::default()
    }

    /// Sets the segment edges `[lo, ψ_1, …, ψ_k, hi]` and collects the
    /// per-segment sums `[Σw, Σw·d, Σw·d², Σw·y, Σw·d·y]` in one pass.
    fn bucket(
        &mut self,
        xs: &[f64],
        ys: &[f64],
        weights: Option<&[f64]>,
        breakpoints: &[f64],
        lo: f64,
        hi: f64,
    ) {
        self.edges.clear();
        self.edges.push(lo);
        self.edges.extend_from_slice(breakpoints);
        self.edges.push(hi);
        self.sums.clear();
        self.sums.resize(breakpoints.len() + 1, [0.0; 5]);
        for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
            let s = breakpoints.partition_point(|&b| b <= x);
            let d = x - self.edges[s];
            let w = weights.map_or(1.0, |w| w[i].max(0.0));
            let wd = w * d;
            let acc = &mut self.sums[s];
            acc[0] += w;
            acc[1] += wd;
            acc[2] += wd * d;
            acc[3] += w * y;
            acc[4] += wd * y;
        }
    }

    /// Assembles the normal equations of the slope-space design from the
    /// bucketed sums. The leading intercept column is `[1]`, or `[+1, −1]`
    /// when `split_intercept` (NNLS keeps an unconstrained intercept as the
    /// difference of two non-negative ones); slope columns follow.
    fn normal_equations(&mut self, split_intercept: bool) {
        let k = self.sums.len() - 1;
        let signs: &[f64] = if split_intercept { &[1.0, -1.0] } else { &[1.0] };
        let c = signs.len();
        let p = c + k + 1;
        let (gram, rhs) = (&mut self.gram, &mut self.rhs);
        gram.reshape_zeroed(p, p);
        rhs.clear();
        rhs.resize(p, 0.0);
        // Walk the slope columns right to left, carrying the weight and
        // Σw·y of the segments beyond column j, where its value is W_j.
        let (mut n_beyond, mut y_beyond) = (0.0, 0.0);
        for j in (0..=k).rev() {
            let [n, a, b, y, dy] = self.sums[j];
            let width = if j < k { self.edges[j + 1] - self.edges[j] } else { 0.0 };
            // ⟨1, col_j⟩: W_j on the segments beyond j, d on segment j.
            let with_one = width * n_beyond + a;
            gram[(c + j, c + j)] = width * width * n_beyond + b;
            rhs[c + j] = width * y_beyond + dy;
            for (r, &sign) in signs.iter().enumerate() {
                gram[(r, c + j)] = sign * with_one;
            }
            // Columns i < j are W_i wherever column j is non-zero.
            for i in 0..j {
                gram[(c + i, c + j)] = (self.edges[i + 1] - self.edges[i]) * with_one;
            }
            n_beyond += n;
            y_beyond += y;
        }
        for (r, &sr) in signs.iter().enumerate() {
            rhs[r] = sr * y_beyond;
            for (q, &sq) in signs.iter().enumerate().skip(r) {
                gram[(r, q)] = sr * sq * n_beyond;
            }
        }
        for r in 0..p {
            for q in 0..r {
                gram[(r, q)] = gram[(q, r)];
            }
        }
    }
}

/// Fits the continuous PWL model by (weighted) least squares with **no**
/// sign constraint on the slopes.
pub fn fit_hinge(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    breakpoints: &[f64],
    lo: f64,
    hi: f64,
) -> Result<HingeFit, FitError> {
    fit_hinge_with(xs, ys, weights, breakpoints, lo, hi, &mut HingeScratch::new())
}

/// [`fit_hinge`] using caller-provided scratch buffers. The points may be
/// in any order.
pub fn fit_hinge_with(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    breakpoints: &[f64],
    lo: f64,
    hi: f64,
    scratch: &mut HingeScratch,
) -> Result<HingeFit, FitError> {
    assert_eq!(xs.len(), ys.len());
    validate_breakpoints(breakpoints, lo, hi)?;
    let p = breakpoints.len() + 2;
    if xs.len() < p {
        return Err(FitError::TooFewPoints { n: xs.len(), p });
    }
    scratch.bucket(xs, ys, weights, breakpoints, lo, hi);
    scratch.normal_equations(false);
    let beta = solve_spd_into(&scratch.gram, &scratch.rhs, &mut scratch.spd)?;
    let (intercept, slopes) = (beta[0], beta[1..].to_vec());
    finish(xs, ys, weights, breakpoints, lo, hi, intercept, slopes, scratch)
}

/// Fits the continuous PWL model with all slopes constrained to be
/// non-negative (monotone non-decreasing `y`), via NNLS.
///
/// The intercept stays unconstrained: it is encoded as the difference of two
/// non-negative columns inside the NNLS problem.
pub fn fit_hinge_monotone(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    breakpoints: &[f64],
    lo: f64,
    hi: f64,
) -> Result<HingeFit, FitError> {
    fit_hinge_monotone_with(xs, ys, weights, breakpoints, lo, hi, &mut HingeScratch::new())
}

/// [`fit_hinge_monotone`] using caller-provided scratch buffers. The
/// points may be in any order.
pub fn fit_hinge_monotone_with(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    breakpoints: &[f64],
    lo: f64,
    hi: f64,
    scratch: &mut HingeScratch,
) -> Result<HingeFit, FitError> {
    assert_eq!(xs.len(), ys.len());
    validate_breakpoints(breakpoints, lo, hi)?;
    let p = breakpoints.len() + 2;
    if xs.len() < p {
        return Err(FitError::TooFewPoints { n: xs.len(), p });
    }
    scratch.bucket(xs, ys, weights, breakpoints, lo, hi);
    scratch.normal_equations(true);
    let sol = nnls_gram_into(&scratch.gram, &scratch.rhs, 50 * (p + 1), &mut scratch.nnls)?;
    let intercept = sol[0] - sol[1];
    let slopes = sol[2..].to_vec();
    finish(xs, ys, weights, breakpoints, lo, hi, intercept, slopes, scratch)
}

/// The exact residual pass: evaluates the fitted model at every point and
/// sums the weighted squared residuals. The value at x is the knot value
/// `intercept + Σ_{j<s} s_j·W_j` of its segment plus `s_s·(x − e_s)`, summed
/// in the same order as [`HingeFit::predict`], so it matches `predict`
/// bit for bit.
#[allow(clippy::too_many_arguments)]
fn finish(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    breakpoints: &[f64],
    lo: f64,
    hi: f64,
    intercept: f64,
    slopes: Vec<f64>,
    scratch: &mut HingeScratch,
) -> Result<HingeFit, FitError> {
    let edges = &scratch.edges;
    let mut knots = Vec::with_capacity(slopes.len());
    let mut y0 = intercept;
    for (j, &s) in slopes.iter().enumerate() {
        knots.push(y0);
        if j + 1 < slopes.len() {
            y0 += s * (edges[j + 1] - edges[j]);
        }
    }
    let pred = &mut scratch.pred;
    pred.clear();
    pred.extend(xs.iter().map(|&x| {
        let s = breakpoints.partition_point(|&b| b <= x);
        knots[s] + slopes[s] * (x - edges[s])
    }));
    let sse = pred
        .iter()
        .zip(ys)
        .enumerate()
        .map(|(i, (p, y))| {
            let w = weights.map_or(1.0, |w| w[i]);
            w * (p - y) * (p - y)
        })
        .sum();
    let r2 = r_squared(pred, ys);
    Ok(HingeFit {
        lo,
        hi,
        breakpoints: breakpoints.to_vec(),
        intercept,
        slopes,
        sse,
        r2,
        n: xs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground-truth two-phase profile: slope 2 then slope 0.5, break at 0.4.
    fn two_phase(x: f64) -> f64 {
        if x < 0.4 {
            2.0 * x
        } else {
            0.8 + 0.5 * (x - 0.4)
        }
    }

    fn dense_xs(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / (n - 1) as f64).collect()
    }

    #[test]
    fn exact_recovery_with_true_breakpoint() {
        let xs = dense_xs(51);
        let ys: Vec<f64> = xs.iter().map(|&x| two_phase(x)).collect();
        let fit = fit_hinge(&xs, &ys, None, &[0.4], 0.0, 1.0).unwrap();
        assert!((fit.intercept).abs() < 1e-9);
        assert!((fit.slopes[0] - 2.0).abs() < 1e-9);
        assert!((fit.slopes[1] - 0.5).abs() < 1e-9);
        assert!(fit.sse < 1e-16);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn predict_matches_model_everywhere() {
        let xs = dense_xs(51);
        let ys: Vec<f64> = xs.iter().map(|&x| two_phase(x)).collect();
        let fit = fit_hinge(&xs, &ys, None, &[0.4], 0.0, 1.0).unwrap();
        for &x in &xs {
            assert!((fit.predict(x) - two_phase(x)).abs() < 1e-9, "x={x}");
        }
        // Extrapolation uses edge slopes.
        assert!((fit.predict(1.2) - (two_phase(1.0) + 0.5 * 0.2)).abs() < 1e-9);
        assert!((fit.predict(-0.1) - (-0.2)).abs() < 1e-9);
    }

    #[test]
    fn slope_at_selects_correct_segment() {
        let fit = HingeFit {
            lo: 0.0,
            hi: 1.0,
            breakpoints: vec![0.3, 0.7],
            intercept: 0.0,
            slopes: vec![1.0, 2.0, 3.0],
            sse: 0.0,
            r2: 1.0,
            n: 0,
        };
        assert_eq!(fit.slope_at(0.1), 1.0);
        assert_eq!(fit.slope_at(0.3), 2.0); // boundary belongs to the right
        assert_eq!(fit.slope_at(0.69), 2.0);
        assert_eq!(fit.slope_at(0.9), 3.0);
        assert_eq!(fit.slope_at(2.0), 3.0);
        assert_eq!(fit.num_segments(), 3);
        assert_eq!(fit.segment_spans(), vec![(0.0, 0.3), (0.3, 0.7), (0.7, 1.0)]);
    }

    #[test]
    fn monotone_fit_never_returns_negative_slopes() {
        // Noisy flat-ish data that tempts a negative slope in segment 2.
        let xs = dense_xs(41);
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| if x < 0.5 { x } else { 0.5 - 0.2 * (x - 0.5) })
            .collect();
        let fit = fit_hinge_monotone(&xs, &ys, None, &[0.5], 0.0, 1.0).unwrap();
        assert!(fit.slopes.iter().all(|&s| s >= 0.0), "{:?}", fit.slopes);
        // Unconstrained fit would go negative.
        let un = fit_hinge(&xs, &ys, None, &[0.5], 0.0, 1.0).unwrap();
        assert!(un.slopes[1] < 0.0);
        // Constrained SSE is necessarily >= unconstrained.
        assert!(fit.sse >= un.sse - 1e-12);
    }

    #[test]
    fn monotone_matches_unconstrained_on_monotone_data() {
        let xs = dense_xs(41);
        let ys: Vec<f64> = xs.iter().map(|&x| two_phase(x)).collect();
        let a = fit_hinge(&xs, &ys, None, &[0.4], 0.0, 1.0).unwrap();
        let b = fit_hinge_monotone(&xs, &ys, None, &[0.4], 0.0, 1.0).unwrap();
        assert!((a.slopes[0] - b.slopes[0]).abs() < 1e-6);
        assert!((a.slopes[1] - b.slopes[1]).abs() < 1e-6);
        assert!((a.intercept - b.intercept).abs() < 1e-6);
    }

    #[test]
    fn zero_breakpoints_is_plain_line() {
        let xs = dense_xs(11);
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + 3.0 * x).collect();
        let fit = fit_hinge(&xs, &ys, None, &[], 0.0, 1.0).unwrap();
        assert_eq!(fit.num_segments(), 1);
        assert!((fit.intercept - 1.0).abs() < 1e-9);
        assert!((fit.slopes[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_breakpoints() {
        let xs = dense_xs(11);
        let ys = xs.clone();
        assert_eq!(
            fit_hinge(&xs, &ys, None, &[0.5, 0.4], 0.0, 1.0),
            Err(FitError::BadBreakpoints)
        );
        assert_eq!(
            fit_hinge(&xs, &ys, None, &[0.0], 0.0, 1.0),
            Err(FitError::BadBreakpoints)
        );
        assert_eq!(
            fit_hinge(&xs, &ys, None, &[1.0], 0.0, 1.0),
            Err(FitError::BadBreakpoints)
        );
    }

    #[test]
    fn rejects_too_few_points() {
        assert!(matches!(
            fit_hinge(&[0.1, 0.9], &[0.1, 0.9], None, &[0.5], 0.0, 1.0),
            Err(FitError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn weighted_fit_prefers_heavy_points() {
        let xs = vec![0.0, 0.25, 0.5, 0.75, 1.0];
        let ys = vec![0.0, 0.25, 0.5, 0.75, 5.0]; // last point is an outlier
        let w = vec![1.0, 1.0, 1.0, 1.0, 1e-9];
        let fit = fit_hinge(&xs, &ys, Some(&w), &[], 0.0, 1.0).unwrap();
        assert!((fit.slopes[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn three_segment_recovery() {
        let xs = dense_xs(200);
        let truth = |x: f64| {
            if x < 0.2 {
                5.0 * x
            } else if x < 0.8 {
                1.0 + 0.1 * (x - 0.2)
            } else {
                1.06 + 3.0 * (x - 0.8)
            }
        };
        let ys: Vec<f64> = xs.iter().map(|&x| truth(x)).collect();
        let fit = fit_hinge_monotone(&xs, &ys, None, &[0.2, 0.8], 0.0, 1.0).unwrap();
        assert!((fit.slopes[0] - 5.0).abs() < 1e-6);
        assert!((fit.slopes[1] - 0.1).abs() < 1e-6);
        assert!((fit.slopes[2] - 3.0).abs() < 1e-6);
    }
}
