//! The top-level piece-wise linear regression: the paper's core algorithm.
//!
//! [`fit_pwlr`] combines the building blocks into the full procedure applied
//! to every folded profile:
//!
//! 1. bin the scatter onto a uniform grid ([`crate::grid`]),
//! 2. for each candidate segment count `m = 1..=max_segments`, propose
//!    breakpoints by optimal DP segmentation on the binned series
//!    ([`crate::segdp`]),
//! 3. refine the proposals on the raw scatter with Muggeo iterations
//!    ([`crate::breakpoints`]),
//! 4. fit the continuous hinge model — monotone (NNLS) for accumulating
//!    counters ([`crate::hinge`]),
//! 5. keep the segment count minimising the selection criterion
//!    ([`crate::model_select`]).
//!
//! The points are sorted by x once, and their suffix sums
//! ([`crate::breakpoints::ProfileSums`]) are built once per profile; every
//! Muggeo iteration of every candidate reads those sums, so only the sort,
//! the binning, the sums and one bucketing plus one residual pass per
//! candidate fit touch all n points.

use crate::breakpoints::{
    enforce_separation, refine_breakpoints_with, sort_by_x, ProfileSums, RefineConfig,
    RefineScratch,
};
use crate::grid::bin_series;
use crate::hinge::{fit_hinge_monotone_with, fit_hinge_with, FitError, HingeFit, HingeScratch};
use crate::model_select::{score, SelectionCriterion};
use crate::segdp::segment_dp;

/// Configuration of [`fit_pwlr`].
#[derive(Debug, Clone)]
pub struct PwlrConfig {
    /// Largest number of segments to consider.
    pub max_segments: usize,
    /// Number of grid bins used for the DP proposal stage.
    pub grid_bins: usize,
    /// Minimum points per DP segment (on the binned series).
    pub min_points_per_segment: usize,
    /// Minimum breakpoint separation as a fraction of the x domain.
    pub min_separation_fraction: f64,
    /// Constrain slopes to be non-negative (monotone accumulating counter).
    pub monotone: bool,
    /// Model-order selection criterion.
    pub criterion: SelectionCriterion,
    /// Parsimony margin: a higher-order candidate must beat the incumbent
    /// score by `max(margin_abs, margin_rel·|incumbent|)` to win. Folded
    /// points carry correlated (not iid) noise, which makes raw BIC/AIC
    /// over-segment; the margin restores parsimony (ablated in E10).
    pub margin_rel: f64,
    /// Absolute component of the parsimony margin.
    pub margin_abs: f64,
    /// Muggeo refinement controls.
    pub refine: RefineConfig,
    /// Domain of the profile (`[0, 1]` for folded profiles).
    pub domain: (f64, f64),
}

impl Default for PwlrConfig {
    fn default() -> PwlrConfig {
        PwlrConfig {
            max_segments: 8,
            grid_bins: 100,
            min_points_per_segment: 3,
            min_separation_fraction: 0.02,
            monotone: true,
            criterion: SelectionCriterion::Bic,
            margin_rel: 0.005,
            margin_abs: 10.0,
            refine: RefineConfig::default(),
            domain: (0.0, 1.0),
        }
    }
}

/// One candidate considered during model selection (kept for ablation E10).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Number of segments.
    pub num_segments: usize,
    /// SSE of the refined continuous fit.
    pub sse: f64,
    /// Criterion score (lower is better).
    pub score: f64,
}

/// The selected piece-wise linear fit plus the selection trace.
#[derive(Debug, Clone)]
pub struct PwlrFit {
    /// The winning continuous fit.
    pub fit: HingeFit,
    /// Criterion score of the winner.
    pub score: f64,
    /// All candidates considered, ascending by segment count.
    pub candidates: Vec<Candidate>,
}

impl PwlrFit {
    /// Breakpoints of the winning fit.
    pub fn breakpoints(&self) -> &[f64] {
        &self.fit.breakpoints
    }

    /// Per-segment slopes of the winning fit.
    pub fn slopes(&self) -> &[f64] {
        &self.fit.slopes
    }

    /// Number of segments of the winning fit.
    pub fn num_segments(&self) -> usize {
        self.fit.num_segments()
    }
}

/// Fits a piece-wise linear model to a scatter.
///
/// `xs`/`ys` need not be sorted; `weights` (if given) are per-point.
/// Fails only if even the single-segment model cannot be fitted.
///
/// ```
/// use phasefold_regress::{fit_pwlr, PwlrConfig};
///
/// // A folded-profile-like scatter: slope 1.6 then 0.4, break at x = 0.5,
/// // with a little measurement noise (as folded samples always carry).
/// let xs: Vec<f64> = (0..400).map(|i| i as f64 / 399.0).collect();
/// let ys: Vec<f64> = xs
///     .iter()
///     .enumerate()
///     .map(|(i, &x)| {
///         let truth = if x < 0.5 { 1.6 * x } else { 0.8 + 0.4 * (x - 0.5) };
///         truth + 0.002 * (((i * 2654435761) % 100) as f64 / 50.0 - 1.0)
///     })
///     .collect();
///
/// let fit = fit_pwlr(&xs, &ys, None, &PwlrConfig::default()).unwrap();
/// assert_eq!(fit.num_segments(), 2);
/// assert!((fit.breakpoints()[0] - 0.5).abs() < 0.01);
/// assert!((fit.slopes()[0] - 1.6).abs() < 0.01);
/// assert!((fit.slopes()[1] - 0.4).abs() < 0.01);
/// ```
pub fn fit_pwlr(
    xs: &[f64],
    ys: &[f64],
    weights: Option<&[f64]>,
    config: &PwlrConfig,
) -> Result<PwlrFit, FitError> {
    assert_eq!(xs.len(), ys.len());
    let _sp = phasefold_obs::span!("regress.fit_pwlr");
    // NaN/∞ inputs are a typed error, not a panic: corrupted counters are
    // expected in production traces and must be quarantinable.
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return Err(FitError::NonFinite);
    }
    let (lo, hi) = config.domain;
    assert!(hi > lo, "empty domain");
    let min_sep = config.min_separation_fraction * (hi - lo);

    // Sort a copy by x once; binning and the Muggeo sums want ordered data.
    let (sx, sy, sw) = sort_by_x(xs, ys, weights);
    let sums = ProfileSums::from_sorted(&sx, &sy, sw.as_deref(), lo, hi);

    let binned = bin_series(&sx, &sy, sw.as_deref(), config.grid_bins.max(2), lo, hi);
    let proposals = if binned.len() >= 2 {
        let _sp = phasefold_obs::span!("regress.segment_dp");
        segment_dp(
            &binned.x,
            &binned.y,
            Some(&binned.weight),
            config.max_segments.max(1),
            config.min_points_per_segment.max(1),
        )
    } else {
        Vec::new()
    };

    // Candidate breakpoint *inputs*, ascending by m: the plain line first,
    // then every multi-segment DP proposal.
    let mut inputs: Vec<&[f64]> = vec![&[]];
    inputs.extend(
        proposals
            .iter()
            .filter(|p| !p.breakpoints.is_empty())
            .map(|p| p.breakpoints.as_slice()),
    );

    // Refine + fit every candidate, then select in ascending-m order (the
    // incumbent/margin semantics depend on that order).
    let ctx = CandidateCtx {
        sx: &sx,
        sy: &sy,
        sw: sw.as_deref(),
        sums: &sums,
        lo,
        hi,
        min_sep,
        config,
    };
    let mut scratch = CandidateScratch::default();
    let mut candidates = Vec::new();
    let mut best: Option<(f64, HingeFit)> = None;
    for proposal in &inputs {
        let Some((bps, fit)) = prepare_candidate(&ctx, proposal, &mut scratch) else {
            continue;
        };
        let s = score(config.criterion, fit.n, fit.sse, bps.len());
        candidates.push(Candidate {
            num_segments: bps.len() + 1,
            sse: fit.sse,
            score: s,
        });
        let better = match &best {
            None => true,
            Some((bs, incumbent)) => {
                if bs.is_finite() && bps.len() > incumbent.breakpoints.len() {
                    // Higher order must clear the parsimony margin.
                    let margin = config.margin_abs.max(config.margin_rel * bs.abs());
                    s < *bs - margin
                } else {
                    s < *bs
                }
            }
        };
        if better {
            best = Some((s, fit));
        }
    }

    candidates.sort_by_key(|c| c.num_segments);
    candidates.dedup_by_key(|c| c.num_segments);

    match best {
        Some((s, fit)) => Ok(PwlrFit { fit, score: s, candidates }),
        None => {
            // Even m=1 failed: surface that error.
            do_fit(&ctx, &[], &mut scratch.hinge).map(|fit| {
                let s = score(config.criterion, fit.n, fit.sse, 0);
                PwlrFit {
                    fit,
                    score: s,
                    candidates: Vec::new(),
                }
            })
        }
    }
}

/// Shared read-only inputs for candidate preparation.
struct CandidateCtx<'a> {
    sx: &'a [f64],
    sy: &'a [f64],
    sw: Option<&'a [f64]>,
    sums: &'a ProfileSums<'a>,
    lo: f64,
    hi: f64,
    min_sep: f64,
    config: &'a PwlrConfig,
}

/// Scratch reused across candidates: one hinge-fit buffer set + one Muggeo
/// buffer set.
#[derive(Default)]
struct CandidateScratch {
    hinge: HingeScratch,
    refine: RefineScratch,
}

fn do_fit(
    ctx: &CandidateCtx<'_>,
    bps: &[f64],
    scratch: &mut HingeScratch,
) -> Result<HingeFit, FitError> {
    if ctx.config.monotone {
        fit_hinge_monotone_with(ctx.sx, ctx.sy, ctx.sw, bps, ctx.lo, ctx.hi, scratch)
    } else {
        fit_hinge_with(ctx.sx, ctx.sy, ctx.sw, bps, ctx.lo, ctx.hi, scratch)
    }
}

/// Refines one DP proposal and fits it: the per-`m` unit of work.
///
/// Returns `None` when the candidate collapses away entirely or its fit
/// fails; the selection loop then just skips it.
fn prepare_candidate(
    ctx: &CandidateCtx<'_>,
    proposal: &[f64],
    scratch: &mut CandidateScratch,
) -> Option<(Vec<f64>, HingeFit)> {
    let sep = ctx.min_sep.max(1e-12);
    let bps = if proposal.is_empty() {
        Vec::new()
    } else {
        let mut refine_cfg = ctx.config.refine;
        refine_cfg.min_separation = refine_cfg.min_separation.max(ctx.min_sep);
        let refined = refine_breakpoints_with(
            ctx.sums,
            proposal,
            ctx.lo,
            ctx.hi,
            &refine_cfg,
            &mut scratch.refine,
        );
        let refined = enforce_separation(refined, ctx.lo, ctx.hi, sep);
        if refined.len() != proposal.len() {
            // Refinement collapsed segments: fall back to the raw proposal
            // (when it survives separation at full order) so the candidate
            // list covers every m the DP produced.
            let raw = enforce_separation(proposal.to_vec(), ctx.lo, ctx.hi, sep);
            if raw.len() == proposal.len() {
                raw
            } else if !refined.is_empty() {
                refined
            } else {
                return None;
            }
        } else if refined.is_empty() {
            return None;
        } else {
            refined
        }
    };
    let fit = do_fit(ctx, &bps, &mut scratch.hinge).ok()?;
    Some((bps, fit))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / (n - 1) as f64).collect()
    }

    /// Deterministic pseudo-noise in [-1, 1].
    fn noise(i: usize) -> f64 {
        (((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 500.0) - 1.0
    }

    #[test]
    fn recovers_single_line() {
        let xs = grid(200);
        let ys: Vec<f64> = xs.iter().map(|&x| 0.7 * x).collect();
        let fit = fit_pwlr(&xs, &ys, None, &PwlrConfig::default()).unwrap();
        assert_eq!(fit.num_segments(), 1);
        assert!((fit.slopes()[0] - 0.7).abs() < 1e-6);
    }

    #[test]
    fn recovers_two_phases_with_noise() {
        let xs = grid(800);
        let truth = |x: f64| if x < 0.45 { 1.8 * x } else { 0.81 + 0.3 * (x - 0.45) };
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| truth(x) + 0.01 * noise(i))
            .collect();
        let fit = fit_pwlr(&xs, &ys, None, &PwlrConfig::default()).unwrap();
        assert_eq!(fit.num_segments(), 2, "candidates: {:?}", fit.candidates);
        assert!((fit.breakpoints()[0] - 0.45).abs() < 0.02, "{:?}", fit.breakpoints());
        assert!((fit.slopes()[0] - 1.8).abs() < 0.05);
        assert!((fit.slopes()[1] - 0.3).abs() < 0.05);
    }

    #[test]
    fn recovers_four_phases() {
        let xs = grid(2000);
        let truth = |x: f64| {
            // slopes 3, 0.2, 2, 0.5 with breaks at 0.25, 0.5, 0.75
            if x < 0.25 {
                3.0 * x
            } else if x < 0.5 {
                0.75 + 0.2 * (x - 0.25)
            } else if x < 0.75 {
                0.8 + 2.0 * (x - 0.5)
            } else {
                1.3 + 0.5 * (x - 0.75)
            }
        };
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| truth(x) + 0.005 * noise(i))
            .collect();
        let fit = fit_pwlr(&xs, &ys, None, &PwlrConfig::default()).unwrap();
        assert_eq!(fit.num_segments(), 4, "candidates: {:?}", fit.candidates);
        let bps = fit.breakpoints();
        assert!((bps[0] - 0.25).abs() < 0.03, "{bps:?}");
        assert!((bps[1] - 0.50).abs() < 0.03, "{bps:?}");
        assert!((bps[2] - 0.75).abs() < 0.03, "{bps:?}");
    }

    #[test]
    fn monotone_config_never_yields_negative_slopes() {
        let xs = grid(400);
        // Slightly decreasing tail tempts negative slopes.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (if x < 0.6 { x } else { 0.6 - 0.05 * (x - 0.6) }) + 0.01 * noise(i))
            .collect();
        let fit = fit_pwlr(&xs, &ys, None, &PwlrConfig::default()).unwrap();
        assert!(fit.slopes().iter().all(|&s| s >= 0.0), "{:?}", fit.slopes());
    }

    #[test]
    fn fixed_segments_criterion_obeys_order() {
        let xs = grid(500);
        let truth = |x: f64| if x < 0.45 { 1.8 * x } else { 0.81 + 0.3 * (x - 0.45) };
        let ys: Vec<f64> = xs.iter().map(|&x| truth(x)).collect();
        let cfg = PwlrConfig {
            criterion: SelectionCriterion::FixedSegments(3),
            ..PwlrConfig::default()
        };
        let fit = fit_pwlr(&xs, &ys, None, &cfg).unwrap();
        assert_eq!(fit.num_segments(), 3);
    }

    #[test]
    fn bic_does_not_oversegment_pure_noise_much() {
        let xs = grid(600);
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 0.5 * x + 0.02 * noise(i * 7 + 1))
            .collect();
        let fit = fit_pwlr(&xs, &ys, None, &PwlrConfig::default()).unwrap();
        assert!(fit.num_segments() <= 2, "chose {}", fit.num_segments());
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut xs = grid(100);
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 * x).collect();
        // Shuffle deterministically.
        let mut shuffled: Vec<(f64, f64)> = xs.drain(..).zip(ys).collect();
        shuffled.sort_by_key(|(x, _)| ((x * 1e6) as u64).wrapping_mul(2654435761) % 997);
        let (xs, ys): (Vec<f64>, Vec<f64>) = shuffled.into_iter().unzip();
        let fit = fit_pwlr(&xs, &ys, None, &PwlrConfig::default()).unwrap();
        assert!((fit.slopes()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn too_few_points_fails_gracefully() {
        let r = fit_pwlr(&[0.5], &[0.5], None, &PwlrConfig::default());
        assert!(r.is_err());
    }

    #[test]
    fn candidates_are_recorded_in_order() {
        let xs = grid(400);
        let truth = |x: f64| if x < 0.5 { 2.0 * x } else { 1.0 + 0.1 * (x - 0.5) };
        let ys: Vec<f64> = xs.iter().map(|&x| truth(x)).collect();
        let fit = fit_pwlr(&xs, &ys, None, &PwlrConfig::default()).unwrap();
        assert!(!fit.candidates.is_empty());
        for w in fit.candidates.windows(2) {
            assert!(w[0].num_segments < w[1].num_segments);
        }
        // The winner's score matches its candidate entry.
        let winner = fit
            .candidates
            .iter()
            .find(|c| c.num_segments == fit.num_segments())
            .unwrap();
        assert!((winner.score - fit.score).abs() < 1e-9);
    }
}
