//! Small dense linear algebra: just enough to solve the normal equations of
//! the piece-wise linear models (p ≤ a few dozen), written from scratch.
//!
//! Row-major [`Mat`] with Cholesky and partially-pivoted LU solvers, plus a
//! Lawson–Hanson non-negative least squares used by the monotone PWLR fit.
//!
//! The PWLR fit path never hands these solvers a design matrix. The Muggeo
//! refinement ([`crate::breakpoints`]) and the hinge fits ([`crate::hinge`])
//! assemble their `p × p` Gram matrix and right-hand side from sums over
//! the data and call [`solve_spd_into`] or [`nnls_gram_into`] directly, so
//! a solve costs O(p³) whatever the number of points. The row-level entry
//! points ([`wls`], [`nnls`]) form `XᵀWX` row by row for callers that do
//! hold a design matrix: OLS, tests and the row-wise reference fits.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Reshapes in place to `rows × cols`, zero-filled, reusing the existing
    /// allocation when it is large enough.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Mat {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from rows; every row must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Mat {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut m = Mat::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "ragged rows");
            m.data[i * c..(i + 1) * c].copy_from_slice(row);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `self · v` for a vector `v` of length `cols`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols);
        (0..self.rows)
            .map(|i| dot(self.row(i), v))
            .collect()
    }

    /// [`Mat::mul_vec`] writing into a reusable buffer.
    pub fn mul_vec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.cols);
        out.clear();
        out.extend((0..self.rows).map(|i| dot(self.row(i), v)));
    }

    /// `selfᵀ · v` for a vector `v` of length `rows`.
    pub fn tmul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            for (o, &r) in out.iter_mut().zip(self.row(i)) {
                *o += r * vi;
            }
        }
        out
    }

    /// Gram matrix `selfᵀ · diag(w) · self` (`w = None` means unit weights),
    /// formed row by row.
    pub fn gram(&self, w: Option<&[f64]>) -> Mat {
        let p = self.cols;
        let mut g = Mat::zeros(p, p);
        for i in 0..self.rows {
            let row = self.row(i);
            let wi = w.map_or(1.0, |w| w[i]);
            for a in 0..p {
                let ra = row[a] * wi;
                if ra == 0.0 {
                    continue;
                }
                for b in a..p {
                    g[(a, b)] += ra * row[b];
                }
            }
        }
        // Mirror the upper triangle.
        for a in 0..p {
            for b in 0..a {
                g[(a, b)] = g[(b, a)];
            }
        }
        g
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Errors from the dense solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is singular (or not positive definite) beyond repair.
    Singular,
    /// Dimension mismatch between operands.
    DimensionMismatch,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular / not positive definite"),
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Reusable buffers for the Cholesky solve ([`solve_spd_into`]).
#[derive(Default)]
pub struct SpdScratch {
    chol: Mat,
    fwd: Vec<f64>,
    sol: Vec<f64>,
}

impl SpdScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> SpdScratch {
        SpdScratch::default()
    }
}

impl Default for Mat {
    fn default() -> Mat {
        Mat::zeros(0, 0)
    }
}

/// Solves the symmetric positive-definite system `A x = b` by Cholesky.
///
/// If the factorisation breaks down (near-singular `A`, which happens when
/// two breakpoints nearly coincide), retries with progressively larger ridge
/// regularisation `A + λI` before giving up.
pub fn solve_spd(a: &Mat, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let mut s = SpdScratch::new();
    solve_spd_into(a, b, &mut s).map(|x| x.to_vec())
}

/// [`solve_spd`] using caller-provided scratch; the solution borrows from
/// the scratch and stays valid until its next use.
pub fn solve_spd_into<'s>(
    a: &Mat,
    b: &[f64],
    s: &'s mut SpdScratch,
) -> Result<&'s [f64], LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::DimensionMismatch);
    }
    let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
    let base = (trace / n.max(1) as f64).abs().max(1e-300);
    for (attempt, &ridge) in [0.0, 1e-12, 1e-9, 1e-6].iter().enumerate() {
        if attempt > 0 {
            phasefold_obs::counter!("regress.cholesky_retries", 1);
        }
        if try_cholesky_solve(a, b, ridge * base, s) {
            return Ok(&s.sol);
        }
    }
    phasefold_obs::counter!("regress.cholesky_singular", 1);
    Err(LinalgError::Singular)
}

/// Column-panel width of the blocked Cholesky factorisation.
///
/// The production fits build tiny Gram matrices (p ≤ max_segments + 1 ≈ 9
/// columns), which take the element-wise path — it is exactly the historical
/// algorithm, bit-for-bit. Matrices wider than one panel switch to the
/// blocked left-looking factorisation, whose bulk O(n³) work becomes
/// unit-stride dot products over already-factored panels (cache-friendly
/// and auto-vectorizable) at the cost of a documented re-association: the
/// four-lane dot sums in a different order, so the blocked factor agrees
/// with the element-wise one only to ~1e-12 relative, not bitwise.
const CHOL_BLOCK: usize = 32;

fn try_cholesky_solve(a: &Mat, b: &[f64], ridge: f64, s: &mut SpdScratch) -> bool {
    let n = a.rows();
    // Factor A + ridge·I = L·Lᵀ.
    let l = &mut s.chol;
    l.reshape_zeroed(n, n);
    let mut blocks = 0u64;
    let ok = if n <= CHOL_BLOCK {
        factor_elementwise(a, ridge, l, &mut blocks)
    } else {
        factor_blocked(a, ridge, l, &mut blocks)
    };
    phasefold_obs::counter!("cholesky.blocks", blocks);
    if !ok {
        return false;
    }
    // Forward substitution L y = b.
    let y = &mut s.fwd;
    y.clear();
    y.resize(n, 0.0);
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    // Back substitution Lᵀ x = y.
    let x = &mut s.sol;
    x.clear();
    x.resize(n, 0.0);
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    x.iter().all(|v| v.is_finite())
}

/// The historical element-wise left-looking Cholesky, kept verbatim for
/// matrices up to one panel wide so small solves stay bit-identical to
/// every release before the blocked path existed.
fn factor_elementwise(a: &Mat, ridge: f64, l: &mut Mat, blocks: &mut u64) -> bool {
    let n = a.rows();
    if n > 0 {
        *blocks += 1;
    }
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)] + if i == j { ridge } else { 0.0 };
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return false;
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    true
}

/// Blocked left-looking Cholesky: the trailing matrix is updated one
/// [`CHOL_BLOCK`]-wide column panel at a time, so the O(n³) bulk runs as
/// contiguous row-slice dot products against the already-factored columns
/// instead of strided element gathers. `blocks` counts processed panels
/// (the `cholesky.blocks` roofline counter).
fn factor_blocked(a: &Mat, ridge: f64, l: &mut Mat, blocks: &mut u64) -> bool {
    let n = a.rows();
    // Seed the lower triangle with A (+ ridge on the diagonal); the panel
    // sweeps then subtract the L·Lᵀ contributions in place.
    for i in 0..n {
        let row = a.row(i);
        let dst = l.row_mut(i);
        dst[..=i].copy_from_slice(&row[..=i]);
        dst[i] += ridge;
    }
    let mut kb = 0;
    while kb < n {
        let ke = (kb + CHOL_BLOCK).min(n);
        *blocks += 1;
        // GEMM-style panel update: subtract the contributions of all
        // previously factored columns (k < kb) from the panel's columns.
        // Both operands are contiguous row prefixes — this is where the
        // cubic work lives, and it streams.
        if kb > 0 {
            for i in kb..n {
                for j in kb..ke.min(i + 1) {
                    let s = dot4(&l.row(i)[..kb], &l.row(j)[..kb]);
                    l[(i, j)] -= s;
                }
            }
        }
        // Factor the panel itself (columns kb..ke) element-wise; only
        // intra-panel contributions remain, so the inner k-loops are short.
        for j in kb..ke {
            let mut d = l[(j, j)];
            for k in kb..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return false;
            }
            let ljj = d.sqrt();
            l[(j, j)] = ljj;
            for i in j + 1..n {
                let mut v = l[(i, j)];
                for k in kb..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        kb = ke;
    }
    true
}

/// Dot product with four independent accumulators. Re-associates the sum
/// (lane partials combine pairwise at the end), which breaks the serial
/// float dependency chain so the backend can vectorise; only the blocked
/// Cholesky path uses it, under its documented ~1e-12 tolerance.
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let mut s = [0.0f64; 4];
    let mut i = 0;
    while i + 4 <= n {
        s[0] += a[i] * b[i];
        s[1] += a[i + 1] * b[i + 1];
        s[2] += a[i + 2] * b[i + 2];
        s[3] += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut t = (s[0] + s[1]) + (s[2] + s[3]);
    while i < n {
        t += a[i] * b[i];
        i += 1;
    }
    t
}

/// Solves the general square system `A x = b` by LU with partial pivoting.
pub fn solve_lu(a: &Mat, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::DimensionMismatch);
    }
    let mut m = a.clone();
    let mut x: Vec<f64> = b.to_vec();
    for col in 0..n {
        // Pivot.
        let mut pivot_row = col;
        let mut pivot_val = m[(col, col)].abs();
        for r in col + 1..n {
            let v = m[(r, col)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-300 {
            return Err(LinalgError::Singular);
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m[(col, j)];
                m[(col, j)] = m[(pivot_row, j)];
                m[(pivot_row, j)] = tmp;
            }
            x.swap(col, pivot_row);
        }
        // Eliminate.
        for r in col + 1..n {
            let f = m[(r, col)] / m[(col, col)];
            if f == 0.0 {
                continue;
            }
            m[(r, col)] = 0.0;
            for j in col + 1..n {
                m[(r, j)] -= f * m[(col, j)];
            }
            x[r] -= f * x[col];
        }
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut sum = x[i];
        for j in i + 1..n {
            sum -= m[(i, j)] * x[j];
        }
        x[i] = sum / m[(i, i)];
    }
    if x.iter().all(|v| v.is_finite()) {
        Ok(x)
    } else {
        Err(LinalgError::Singular)
    }
}

/// Weighted least squares `min ||W^{1/2}(X β − y)||²` via the normal
/// equations; `w = None` means unit weights.
pub fn wls(x: &Mat, y: &[f64], w: Option<&[f64]>) -> Result<Vec<f64>, LinalgError> {
    if y.len() != x.rows() || w.is_some_and(|w| w.len() != x.rows()) {
        return Err(LinalgError::DimensionMismatch);
    }
    let rhs = match w {
        Some(w) => {
            let wy: Vec<f64> = y.iter().zip(w).map(|(a, b)| a * b).collect();
            x.tmul_vec(&wy)
        }
        None => x.tmul_vec(y),
    };
    solve_spd(&x.gram(w), &rhs)
}

/// Reusable buffers for [`nnls_gram_into`].
#[derive(Default)]
pub struct NnlsScratch {
    x: Vec<f64>,
    passive: Vec<bool>,
    idx: Vec<usize>,
    sub_gram: Mat,
    sub_rhs: Vec<f64>,
    full: Vec<f64>,
    gx: Vec<f64>,
    grad: Vec<f64>,
    spd: SpdScratch,
}

impl NnlsScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> NnlsScratch {
        NnlsScratch::default()
    }
}

/// Solves the restricted normal equations over the passive set, scattering
/// the solution into `full` (zeros elsewhere).
#[allow(clippy::too_many_arguments)]
fn nnls_solve_passive(
    gram: &Mat,
    atb: &[f64],
    passive: &[bool],
    idx: &mut Vec<usize>,
    sub_gram: &mut Mat,
    sub_rhs: &mut Vec<f64>,
    full: &mut Vec<f64>,
    spd: &mut SpdScratch,
) -> Result<(), LinalgError> {
    let n = passive.len();
    idx.clear();
    idx.extend((0..n).filter(|&j| passive[j]));
    let p = idx.len();
    sub_gram.reshape_zeroed(p, p);
    sub_rhs.clear();
    sub_rhs.resize(p, 0.0);
    for (ii, &gi) in idx.iter().enumerate() {
        sub_rhs[ii] = atb[gi];
        for (jj, &gj) in idx.iter().enumerate() {
            sub_gram[(ii, jj)] = gram[(gi, gj)];
        }
    }
    let z = solve_spd_into(sub_gram, sub_rhs, spd)?;
    full.clear();
    full.resize(n, 0.0);
    for (ii, &gi) in idx.iter().enumerate() {
        full[gi] = z[ii];
    }
    Ok(())
}

/// Non-negative least squares `min ||A x − b||² s.t. x ≥ 0` by the
/// Lawson–Hanson active-set algorithm.
///
/// A thin wrapper that forms `AᵀA` and `Aᵀb` row by row and hands them to
/// [`nnls_gram_into`], the one NNLS solver.
pub fn nnls(a: &Mat, b: &[f64], max_iter: usize) -> Result<Vec<f64>, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch);
    }
    let mut s = NnlsScratch::new();
    nnls_gram_into(&a.gram(None), &a.tmul_vec(b), max_iter, &mut s).map(|x| x.to_vec())
}

/// Lawson–Hanson NNLS on the normal equations: minimises
/// `½xᵀGx − cᵀx` over `x ≥ 0`, which is `||A x − b||²` up to a constant
/// when `G = AᵀA` and `c = Aᵀb`. Only `G` and `c` are read, so a caller
/// that can form them from sums never builds `A`.
///
/// Used by the monotone PWLR fit: slopes of an accumulating counter profile
/// cannot be negative. The solution borrows from the scratch and stays
/// valid until its next use.
pub fn nnls_gram_into<'s>(
    gram: &Mat,
    atb: &[f64],
    max_iter: usize,
    s: &'s mut NnlsScratch,
) -> Result<&'s [f64], LinalgError> {
    let n = atb.len();
    if gram.rows() != n || gram.cols() != n {
        return Err(LinalgError::DimensionMismatch);
    }
    s.x.clear();
    s.x.resize(n, 0.0);
    s.passive.clear();
    s.passive.resize(n, false);
    let tol = 1e-10 * atb.iter().map(|v| v.abs()).fold(1.0f64, f64::max);

    for _outer in 0..max_iter {
        // Gradient of ½||Ax−b||² is Aᵀ(Ax−b); w = −gradient.
        gram.mul_vec_into(&s.x, &mut s.gx);
        s.grad.clear();
        s.grad.extend(atb.iter().zip(&s.gx).map(|(t, g)| t - g));
        // Most-violating inactive variable. `total_cmp` keeps the selection
        // total even when a non-finite design matrix poisons the gradient
        // (`partial_cmp(..).unwrap()` would panic on NaN); a NaN "winner"
        // then flows into the passive solve, whose Cholesky rejects it as
        // not positive definite instead of crashing.
        let cand = (0..n)
            .filter(|&j| !s.passive[j])
            .max_by(|&i, &j| s.grad[i].total_cmp(&s.grad[j]));
        let Some(j_star) = cand else { break };
        if s.grad[j_star] <= tol {
            break; // KKT satisfied.
        }
        s.passive[j_star] = true;

        loop {
            nnls_solve_passive(
                gram,
                atb,
                &s.passive,
                &mut s.idx,
                &mut s.sub_gram,
                &mut s.sub_rhs,
                &mut s.full,
                &mut s.spd,
            )?;
            let z = &s.full;
            // A non-finite sub-solution (NaN right-hand side through a
            // finite Gram) can neither satisfy `z > 0` nor trip the
            // `z <= 0` step logic, so it would spin here forever.
            if (0..n).filter(|&j| s.passive[j]).any(|j| !z[j].is_finite()) {
                return Err(LinalgError::Singular);
            }
            let all_pos = (0..n).filter(|&j| s.passive[j]).all(|j| z[j] > 0.0);
            if all_pos {
                std::mem::swap(&mut s.x, &mut s.full);
                break;
            }
            // Step toward z, stopping at the first variable hitting zero.
            let mut alpha = f64::INFINITY;
            for j in (0..n).filter(|&j| s.passive[j]) {
                if z[j] <= 0.0 {
                    let denom = s.x[j] - z[j];
                    if denom > 0.0 {
                        alpha = alpha.min(s.x[j] / denom);
                    } else {
                        alpha = 0.0;
                    }
                }
            }
            let alpha = alpha.clamp(0.0, 1.0);
            for j in 0..n {
                if s.passive[j] {
                    s.x[j] += alpha * (s.full[j] - s.x[j]);
                }
            }
            for j in 0..n {
                if s.passive[j] && s.x[j] <= 1e-14 {
                    s.x[j] = 0.0;
                    s.passive[j] = false;
                }
            }
            if !s.passive.iter().any(|&p| p) {
                break;
            }
        }
    }
    Ok(&s.x)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn identity_solves_trivially() {
        let a = Mat::identity(3);
        let b = vec![1.0, 2.0, 3.0];
        assert_close(&solve_spd(&a, &b).unwrap(), &b, 1e-12);
        assert_close(&solve_lu(&a, &b).unwrap(), &b, 1e-12);
    }

    #[test]
    fn spd_solve_known_system() {
        // A = [[4,2],[2,3]], x = [1,2] -> b = [8,8]
        let a = Mat::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let x = solve_spd(&a, &[8.0, 8.0]).unwrap();
        assert_close(&x, &[1.0, 2.0], 1e-10);
    }

    #[test]
    fn lu_handles_pivoting() {
        // Leading zero forces a row swap.
        let a = Mat::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve_lu(&a, &[3.0, 5.0]).unwrap();
        assert_close(&x, &[5.0, 3.0], 1e-12);
    }

    #[test]
    fn singular_is_reported() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(solve_lu(&a, &[1.0, 2.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn near_singular_spd_recovers_via_ridge() {
        // Nearly collinear columns; ridge keeps it solvable.
        let x = Mat::from_rows(&[
            vec![1.0, 1.0 + 1e-14],
            vec![2.0, 2.0 + 2e-14],
            vec![3.0, 3.0 - 1e-14],
        ]);
        let beta = wls(&x, &[1.0, 2.0, 3.0], None).unwrap();
        // Predictions must be right even if the split between the two
        // collinear coefficients is arbitrary.
        let pred = x.mul_vec(&beta);
        assert_close(&pred, &[1.0, 2.0, 3.0], 1e-6);
    }

    #[test]
    fn wls_recovers_line() {
        // y = 3 + 2x, exact.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let design = Mat::from_rows(&xs.iter().map(|&x| vec![1.0, x]).collect::<Vec<_>>());
        let y: Vec<f64> = xs.iter().map(|&x| 3.0 + 2.0 * x).collect();
        let beta = wls(&design, &y, None).unwrap();
        assert_close(&beta, &[3.0, 2.0], 1e-10);
    }

    #[test]
    fn wls_weights_downweight_outlier() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let design = Mat::from_rows(&xs.iter().map(|&x| vec![1.0, x]).collect::<Vec<_>>());
        let mut y: Vec<f64> = xs.iter().map(|&x| 1.0 + x).collect();
        y[3] = 100.0; // outlier
        let w = [1.0, 1.0, 1.0, 1e-12];
        let beta = wls(&design, &y, Some(&w)).unwrap();
        assert_close(&beta, &[1.0, 1.0], 1e-4);
    }

    #[test]
    fn nnls_matches_unconstrained_when_positive() {
        // Solution of unconstrained LS is positive -> NNLS equals it.
        let a = Mat::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let b = [1.0, 2.0, 3.0];
        let x = nnls(&a, &b, 100).unwrap();
        assert_close(&x, &[1.0, 2.0], 1e-8);
    }

    #[test]
    fn nnls_clamps_negative_component() {
        // Unconstrained solution would want x[1] < 0.
        let a = Mat::from_rows(&[vec![1.0, 1.0], vec![1.0, 0.0]]);
        let b = [1.0, 2.0];
        let x = nnls(&a, &b, 100).unwrap();
        assert!(x[1].abs() < 1e-10, "x = {x:?}");
        assert!(x[0] > 0.0);
        // Residual must not be worse than the best x with x[1]=0: x0 = 1.5.
        assert_close(&x, &[1.5, 0.0], 1e-8);
    }

    #[test]
    fn nnls_zero_rhs_gives_zero() {
        let a = Mat::identity(3);
        let x = nnls(&a, &[0.0, 0.0, 0.0], 50).unwrap();
        assert_close(&x, &[0.0, 0.0, 0.0], 1e-12);
    }

    #[test]
    fn nnls_nan_poisoned_design_does_not_panic() {
        // A NaN in the design matrix makes AᵀA and the gradient NaN; the
        // most-violating-variable scan must stay total (NaN sorts above
        // every finite value under `total_cmp`) and the poisoned column's
        // passive solve must be rejected as not-SPD rather than crashing.
        let a = Mat::from_rows(&[
            vec![1.0, f64::NAN],
            vec![2.0, 1.0],
            vec![3.0, 0.5],
        ]);
        let b = [1.0, 2.0, 3.0];
        assert_eq!(nnls(&a, &b, 100), Err(LinalgError::Singular));
        // All-NaN right-hand side through a sane matrix must not panic
        // either (every gradient entry is NaN).
        let ok = Mat::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let _ = nnls(&ok, &[f64::NAN, f64::NAN], 100);
    }

    #[test]
    fn gram_matches_manual() {
        let x = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let g = x.gram(None);
        assert_close(&[g[(0, 0)], g[(0, 1)], g[(1, 0)], g[(1, 1)]], &[10.0, 14.0, 14.0, 20.0], 1e-12);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = Mat::identity(2);
        assert_eq!(solve_spd(&a, &[1.0]), Err(LinalgError::DimensionMismatch));
        assert_eq!(solve_lu(&a, &[1.0, 2.0, 3.0]), Err(LinalgError::DimensionMismatch));
    }

    /// Deterministic SPD test matrix: A = GᵀG + n·I for an LCG-filled G.
    fn random_spd(n: usize, seed: u64) -> Mat {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut g = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                g[(i, j)] = next();
            }
        }
        let mut a = g.gram(None);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    /// The blocked factorisation must agree with the element-wise one well
    /// inside its documented tolerance, across sizes that exercise a single
    /// partial panel, an exact panel multiple, and several full panels.
    #[test]
    fn blocked_cholesky_matches_elementwise() {
        for &n in &[CHOL_BLOCK + 1, 2 * CHOL_BLOCK, 3 * CHOL_BLOCK + 7] {
            let a = random_spd(n, n as u64);
            let mut le = Mat::zeros(n, n);
            let mut lb = Mat::zeros(n, n);
            let (mut be, mut bb) = (0u64, 0u64);
            assert!(factor_elementwise(&a, 0.0, &mut le, &mut be));
            assert!(factor_blocked(&a, 0.0, &mut lb, &mut bb));
            assert_eq!(bb as usize, n.div_ceil(CHOL_BLOCK), "panel count at n = {n}");
            let mut worst = 0.0f64;
            for i in 0..n {
                for j in 0..=i {
                    let denom = le[(i, j)].abs().max(1.0);
                    worst = worst.max((le[(i, j)] - lb[(i, j)]).abs() / denom);
                }
            }
            assert!(worst < 1e-12, "blocked vs element-wise factor drift {worst} at n = {n}");
        }
    }

    /// End-to-end: a large SPD solve through the public entry point (which
    /// now dispatches to the blocked factor) still solves the system.
    #[test]
    fn blocked_cholesky_solves_large_system() {
        let n = 3 * CHOL_BLOCK;
        let a = random_spd(n, 7);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.mul_vec(&x_true);
        let x = solve_spd(&a, &b).expect("spd solve");
        let mut worst = 0.0f64;
        for (xi, ti) in x.iter().zip(&x_true) {
            worst = worst.max((xi - ti).abs());
        }
        assert!(worst < 1e-8, "solution error {worst}");
    }

    /// A singular matrix must still be rejected on the blocked path (the
    /// ridge retry ladder then handles it at the solve_spd level).
    #[test]
    fn blocked_cholesky_rejects_singular() {
        let n = 2 * CHOL_BLOCK;
        // Indefinite: a strongly negative trailing diagonal entry makes the
        // last pivot (second panel) fail outright.
        let mut a = random_spd(n, 11);
        a[(n - 1, n - 1)] = -1000.0;
        let mut l = Mat::zeros(n, n);
        let mut blocks = 0u64;
        assert!(!factor_blocked(&a, 0.0, &mut l, &mut blocks));
    }

    /// dot4's re-associated sum must match the serial dot to fp tolerance
    /// on awkward lengths (remainder handling).
    #[test]
    fn dot4_matches_serial_dot() {
        for n in [0usize, 1, 3, 4, 5, 8, 13, 64, 101] {
            let a: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 97) as f64 * 0.017 - 0.8).collect();
            let b: Vec<f64> = (0..n).map(|i| ((i * 53 + 29) % 89) as f64 * 0.023 - 1.1).collect();
            let serial = dot(&a, &b);
            let lanes = dot4(&a, &b);
            assert!((serial - lanes).abs() <= 1e-12 * (1.0 + serial.abs()), "n = {n}");
        }
    }
}
