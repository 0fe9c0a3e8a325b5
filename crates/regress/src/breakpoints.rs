//! Muggeo-style iterative breakpoint refinement for the continuous model.
//!
//! The DP proposal ([`crate::segdp`]) optimises a *discontinuous* model on
//! *binned* data, so its breakpoints are only approximately right for the
//! continuous hinge model on the raw scatter. Muggeo's classic linearisation
//! (Muggeo 2003, "Estimating regression models with unknown break-points")
//! fixes that: alongside each hinge column `(x − ψ_j)₊` add its derivative
//! column `−I(x > ψ_j)`; after a joint linear fit, `δ_j/γ_j` estimates how
//! far the true breakpoint is from `ψ_j`, and the update
//! `ψ_j ← ψ_j + δ_j/γ_j` converges in a handful of iterations.
//!
//! # Cost: sufficient statistics, not a design matrix
//!
//! Every column of the basis `[1, x, (x−ψ_j)₊, −I(x>ψ_j)]` is zero or
//! polynomial in x on a *suffix* of the points sorted by x: the points with
//! `x > ψ_j`. So every entry of its Gram matrix and right-hand side is a
//! closed form in the suffix sums `S_m(t) = Σ_{i≥t} w_i x_iᵐ` (m = 0, 1, 2)
//! and `Σ_{i≥t} w_i y_i`, `Σ_{i≥t} w_i x_i y_i`, for example
//! `⟨h_a, h_b⟩ = S₂ − (ψ_a+ψ_b)·S₁ + ψ_a·ψ_b·S₀` at suffix `max(t_a, t_b)`.
//! [`ProfileSums`] builds those suffix sums once per profile in O(n); an
//! iteration then locates each ψ by binary search (`partition_point(x ≤ ψ)`,
//! which keeps the strict `x > ψ` convention, so a point exactly at ψ lies
//! left of it) and assembles the `(2+2k)²` system in O(k² + k log n),
//! independent of n.
//!
//! Numerics: the closed forms subtract, which cancels when ψ sits far from
//! the origin of x. The sums therefore use x centred on the domain midpoint
//! (`u = x − (lo+hi)/2`, so |u| ≤ (hi−lo)/2 on the domain, and ψ is shifted
//! alike), and they are accumulated with Neumaier-compensated summation, so
//! each suffix sum is exact to a few ulps whatever n is. Centring changes
//! only the intercept's parametrisation, not the `γ_j`, `δ_j` the update
//! reads. The row-wise form this replaces is kept as the oracle in
//! `phasefold-verify` (`muggeo-rowwise`).

use crate::linalg::{solve_spd_into, Mat, SpdScratch};

/// Controls for [`refine_breakpoints`].
#[derive(Debug, Clone, Copy)]
pub struct RefineConfig {
    /// Maximum Muggeo iterations.
    pub max_iters: usize,
    /// Convergence threshold on the largest breakpoint move (x units).
    pub tol: f64,
    /// Minimum separation enforced between breakpoints and from the domain
    /// edges (x units).
    pub min_separation: f64,
    /// Per-iteration cap on how far a breakpoint may move (x units);
    /// stabilises the linearisation on noisy data.
    pub max_step: f64,
}

impl Default for RefineConfig {
    fn default() -> RefineConfig {
        RefineConfig {
            max_iters: 12,
            tol: 1e-5,
            min_separation: 1e-3,
            max_step: 0.15,
        }
    }
}

/// Neumaier-compensated running sum: the rounding error of each addition
/// is carried in `comp` and folded back in by [`Compensated::value`].
#[derive(Clone, Copy, Default)]
struct Compensated {
    sum: f64,
    comp: f64,
}

impl Compensated {
    fn add(&mut self, v: f64) {
        let t = self.sum + v;
        self.comp += if self.sum.abs() >= v.abs() {
            (self.sum - t) + v
        } else {
            (v - t) + self.sum
        };
        self.sum = t;
    }

    fn value(self) -> f64 {
        self.sum + self.comp
    }
}

/// Weighted suffix sums of a profile sorted by x: the sufficient statistics
/// of every Muggeo system on that profile (see the module docs).
///
/// Built once per profile in O(n); each refinement iteration then reads
/// O(k) entries of it.
pub struct ProfileSums<'a> {
    xs: &'a [f64],
    centre: f64,
    /// `suffix[t] = Σ_{i≥t} w_i·[1, u_i, u_i², y_i, u_i·y_i]` with
    /// `u = x − centre`, compensated; `suffix[n]` is all zeros.
    suffix: Vec<[f64; 5]>,
}

impl<'a> ProfileSums<'a> {
    /// Builds the suffix sums of `(xs, ys, weights)` for the domain
    /// `[lo, hi]`; `weights = None` means unit weights.
    ///
    /// # Panics
    ///
    /// If `xs` is not sorted ascending (in `f64::total_cmp` order) or the
    /// slices differ in length: the binary searches would silently read
    /// the wrong suffix.
    pub fn from_sorted(
        xs: &'a [f64],
        ys: &[f64],
        weights: Option<&[f64]>,
        lo: f64,
        hi: f64,
    ) -> ProfileSums<'a> {
        assert_eq!(xs.len(), ys.len(), "x and y lengths differ");
        assert!(weights.is_none_or(|w| w.len() == xs.len()), "weight length differs");
        assert!(xs.is_sorted_by(|a, b| a.total_cmp(b).is_le()), "xs must be sorted ascending");
        let centre = 0.5 * (lo + hi);
        let n = xs.len();
        let mut suffix = vec![[0.0; 5]; n + 1];
        let mut acc = [Compensated::default(); 5];
        for i in (0..n).rev() {
            let w = weights.map_or(1.0, |w| w[i]);
            let u = xs[i] - centre;
            let wu = w * u;
            let terms = [w, wu, wu * u, w * ys[i], wu * ys[i]];
            for (a, t) in acc.iter_mut().zip(terms) {
                a.add(t);
            }
            suffix[i] = acc.map(Compensated::value);
        }
        ProfileSums { xs, centre, suffix }
    }

    fn len(&self) -> usize {
        self.xs.len()
    }

    /// Index of the first point with `x > psi`.
    fn cut(&self, psi: f64) -> usize {
        self.xs.partition_point(|&x| x <= psi)
    }

    /// Assembles the normal equations of the basis
    /// `[1, u, (u−φ_j)₊ …, −I(u>φ_j) …]` (`φ = ψ − centre`) into `gram`
    /// and `rhs`, using `cuts` as scratch.
    fn muggeo_system(
        &self,
        psi: &[f64],
        cuts: &mut Vec<usize>,
        gram: &mut Mat,
        rhs: &mut Vec<f64>,
    ) {
        let k = psi.len();
        let p = 2 + 2 * k;
        cuts.clear();
        cuts.extend(psi.iter().map(|&b| self.cut(b)));
        gram.reshape_zeroed(p, p);
        rhs.clear();
        rhs.resize(p, 0.0);
        let [t0, t1, t2, ty, tuy] = self.suffix[0];
        gram[(0, 0)] = t0;
        gram[(0, 1)] = t1;
        gram[(1, 1)] = t2;
        rhs[0] = ty;
        rhs[1] = tuy;
        let (h, g) = (2, 2 + k);
        for a in 0..k {
            let pa = psi[a] - self.centre;
            let [s0, s1, s2, sy, suy] = self.suffix[cuts[a]];
            gram[(0, h + a)] = s1 - pa * s0;
            gram[(1, h + a)] = s2 - pa * s1;
            gram[(0, g + a)] = -s0;
            gram[(1, g + a)] = -s1;
            rhs[h + a] = suy - pa * sy;
            rhs[g + a] = -sy;
            for b in a..k {
                let pb = psi[b] - self.centre;
                // Both columns are non-zero only on the later suffix.
                let [s0, s1, s2, _, _] = self.suffix[cuts[a].max(cuts[b])];
                gram[(h + a, h + b)] = s2 - (pa + pb) * s1 + pa * pb * s0;
                gram[(h + a, g + b)] = -(s1 - pa * s0);
                gram[(h + b, g + a)] = -(s1 - pb * s0);
                gram[(g + a, g + b)] = s0;
            }
        }
        // Mirror the upper triangle.
        for r in 0..p {
            for c in 0..r {
                gram[(r, c)] = gram[(c, r)];
            }
        }
    }
}

/// Sorts a scatter by x (`f64::total_cmp`), carrying y and the weights
/// along: the precondition of [`ProfileSums::from_sorted`].
pub(crate) fn sort_by_x(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
) -> (Vec<f64>, Vec<f64>, Option<Vec<f64>>) {
    assert_eq!(xs.len(), ys.len());
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let sx = order.iter().map(|&i| xs[i]).collect();
    let sy = order.iter().map(|&i| ys[i]).collect();
    let sw = weights.map(|w| order.iter().map(|&i| w[i]).collect());
    (sx, sy, sw)
}

/// Reusable buffers for [`refine_breakpoints_with`]: the `(2+2k)²` normal
/// equations and the Cholesky workspace survive across Muggeo iterations
/// *and* across calls, so refining many candidates allocates nothing on the
/// hot path.
#[derive(Default)]
pub struct RefineScratch {
    gram: Mat,
    rhs: Vec<f64>,
    spd: SpdScratch,
    cuts: Vec<usize>,
    next: Vec<f64>,
}

impl RefineScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> RefineScratch {
        RefineScratch::default()
    }
}

/// Iteratively refines `breakpoints` on `(xs, ys)` within `[lo, hi]`.
///
/// Returns the refined, sorted breakpoints. Breakpoints that collapse onto a
/// neighbour or an edge (their segment vanished — the DP over-proposed) are
/// dropped, so the output may be shorter than the input. The inputs need not
/// be sorted by x: this sorts a copy and builds its [`ProfileSums`]. Callers
/// refining several proposals on one profile should build the sums once and
/// call [`refine_breakpoints_with`].
pub fn refine_breakpoints(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    breakpoints: &[f64],
    lo: f64,
    hi: f64,
    config: &RefineConfig,
) -> Vec<f64> {
    let (sx, sy, sw) = sort_by_x(xs, ys, weights);
    let sums = ProfileSums::from_sorted(&sx, &sy, sw.as_deref(), lo, hi);
    refine_breakpoints_with(&sums, breakpoints, lo, hi, config, &mut RefineScratch::new())
}

/// [`refine_breakpoints`] on a profile's prebuilt suffix sums, using
/// caller-provided scratch buffers. Each iteration costs O(k² + k log n)
/// plus one `(2+2k)`-wide Cholesky solve.
pub fn refine_breakpoints_with(
    sums: &ProfileSums<'_>,
    breakpoints: &[f64],
    lo: f64,
    hi: f64,
    config: &RefineConfig,
    scratch: &mut RefineScratch,
) -> Vec<f64> {
    let mut psi: Vec<f64> = breakpoints.to_vec();
    psi.sort_by(|a, b| a.total_cmp(b));
    psi = enforce_separation(psi, lo, hi, config.min_separation);
    if psi.is_empty() || sums.len() < 2 * psi.len() + 2 {
        return psi;
    }

    for _ in 0..config.max_iters {
        phasefold_obs::counter!("regress.muggeo_iters", 1);
        // `k` can shrink between iterations when a breakpoint collapses and
        // is dropped by `enforce_separation`; the system is resized per
        // iteration.
        let k = psi.len();
        sums.muggeo_system(&psi, &mut scratch.cuts, &mut scratch.gram, &mut scratch.rhs);
        let Ok(beta) = solve_spd_into(&scratch.gram, &scratch.rhs, &mut scratch.spd) else {
            break;
        };
        let mut max_move: f64 = 0.0;
        let next = &mut scratch.next;
        next.clear();
        next.extend_from_slice(&psi);
        for j in 0..k {
            let gamma = beta[2 + j];
            let delta = beta[2 + k + j];
            if gamma.abs() < 1e-12 {
                continue; // no kink here; leave ψ_j, it will be pruned by BIC
            }
            let step = (delta / gamma).clamp(-config.max_step, config.max_step);
            next[j] = (psi[j] + step).clamp(lo, hi);
            max_move = max_move.max(step.abs());
        }
        next.sort_by(|a, b| a.total_cmp(b));
        psi.clear();
        psi.extend_from_slice(next);
        psi = enforce_separation(psi, lo, hi, config.min_separation);
        if psi.is_empty() || max_move < config.tol {
            break;
        }
    }
    psi
}

/// Sorts and de-duplicates breakpoints, dropping any that violate the
/// minimum separation from a neighbour or the domain edges.
pub fn enforce_separation(mut psi: Vec<f64>, lo: f64, hi: f64, min_sep: f64) -> Vec<f64> {
    psi.sort_by(|a, b| a.total_cmp(b));
    let mut out: Vec<f64> = Vec::with_capacity(psi.len());
    for p in psi {
        let ok_lo = p >= lo + min_sep;
        let ok_hi = p <= hi - min_sep;
        let ok_prev = out.last().is_none_or(|&q| p - q >= min_sep);
        if ok_lo && ok_hi && ok_prev {
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase(x: f64, brk: f64) -> f64 {
        if x < brk {
            3.0 * x
        } else {
            3.0 * brk + 0.5 * (x - brk)
        }
    }

    fn grid(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / (n - 1) as f64).collect()
    }

    #[test]
    fn refines_offset_breakpoint_to_truth() {
        let xs = grid(200);
        let ys: Vec<f64> = xs.iter().map(|&x| two_phase(x, 0.43)).collect();
        let refined =
            refine_breakpoints(&xs, &ys, None, &[0.55], 0.0, 1.0, &RefineConfig::default());
        assert_eq!(refined.len(), 1);
        assert!(
            (refined[0] - 0.43).abs() < 5e-3,
            "refined to {}",
            refined[0]
        );
    }

    #[test]
    fn exact_start_stays_put() {
        let xs = grid(100);
        let ys: Vec<f64> = xs.iter().map(|&x| two_phase(x, 0.5)).collect();
        let refined =
            refine_breakpoints(&xs, &ys, None, &[0.5], 0.0, 1.0, &RefineConfig::default());
        assert!((refined[0] - 0.5).abs() < 5e-3);
    }

    #[test]
    fn two_breakpoints_both_refine() {
        let xs = grid(300);
        let truth = |x: f64| {
            if x < 0.3 {
                2.0 * x
            } else if x < 0.7 {
                0.6 + 0.1 * (x - 0.3)
            } else {
                0.64 + 4.0 * (x - 0.7)
            }
        };
        let ys: Vec<f64> = xs.iter().map(|&x| truth(x)).collect();
        let refined = refine_breakpoints(
            &xs,
            &ys,
            None,
            &[0.25, 0.78],
            0.0,
            1.0,
            &RefineConfig::default(),
        );
        assert_eq!(refined.len(), 2);
        assert!((refined[0] - 0.3).abs() < 0.01, "{refined:?}");
        assert!((refined[1] - 0.7).abs() < 0.01, "{refined:?}");
    }

    #[test]
    fn noisy_data_still_converges_nearby() {
        let xs = grid(400);
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| two_phase(x, 0.6) + 0.01 * ((i * 2654435761) % 97) as f64 / 97.0)
            .collect();
        let refined =
            refine_breakpoints(&xs, &ys, None, &[0.5], 0.0, 1.0, &RefineConfig::default());
        assert_eq!(refined.len(), 1);
        assert!((refined[0] - 0.6).abs() < 0.03, "{refined:?}");
    }

    #[test]
    fn collapsing_breakpoints_are_dropped() {
        // Pure line: any breakpoint is spurious; separation pruning plus the
        // clamped steps may leave it, but two coincident ones must merge.
        let psi = enforce_separation(vec![0.5, 0.5005, 0.9999], 0.0, 1.0, 1e-2);
        assert_eq!(psi.len(), 1);
        assert!((psi[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn enforce_separation_respects_edges() {
        let psi = enforce_separation(vec![0.0005, 0.5, 0.9999], 0.0, 1.0, 1e-3);
        assert_eq!(psi, vec![0.5]);
    }

    #[test]
    fn too_few_points_returns_input() {
        let refined = refine_breakpoints(
            &[0.1, 0.9],
            &[0.1, 0.9],
            None,
            &[0.5],
            0.0,
            1.0,
            &RefineConfig::default(),
        );
        assert_eq!(refined, vec![0.5]);
    }

    #[test]
    fn empty_breakpoints_nop() {
        let refined = refine_breakpoints(
            &grid(10),
            &grid(10),
            None,
            &[],
            0.0,
            1.0,
            &RefineConfig::default(),
        );
        assert!(refined.is_empty());
    }
}
