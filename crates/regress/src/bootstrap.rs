//! Bootstrap confidence intervals for PWLR breakpoints and slopes.
//!
//! Folded points are not iid — all samples from one burst instance share
//! that instance's noise — so the resampling unit must be the *instance*,
//! not the point. Callers therefore tag each folded point with its instance
//! id and we run a cluster bootstrap: resample instances with replacement,
//! refit, and read empirical quantiles of the breakpoint/slope estimates.
//!
//! This is a reproduction-quality addition over the original paper (which
//! reports point estimates only): analysts get error bars that honestly
//! reflect how many instances the fold pooled.

use crate::pwlr::{fit_pwlr, PwlrConfig};
use crate::stats::quantile;
use rand_like::SplitMix64;

/// A `(lo, hi)` empirical confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower quantile bound.
    pub lo: f64,
    /// Upper quantile bound.
    pub hi: f64,
}

impl Interval {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// True if `v` lies inside the interval (inclusive).
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }
}

/// Bootstrap result for one reference fit.
#[derive(Debug, Clone)]
pub struct BootstrapResult {
    /// One interval per reference breakpoint.
    pub breakpoints: Vec<Interval>,
    /// One interval per reference segment slope.
    pub slopes: Vec<Interval>,
    /// Fraction of replicates whose selected segment count matched the
    /// reference fit (model-order stability).
    pub order_stability: f64,
    /// Number of successful replicates.
    pub replicates: usize,
}

/// Configuration of [`bootstrap_pwlr`].
#[derive(Debug, Clone, Copy)]
pub struct BootstrapConfig {
    /// Number of bootstrap replicates.
    pub replicates: usize,
    /// Two-sided confidence level (e.g. 0.95).
    pub confidence: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BootstrapConfig {
    fn default() -> BootstrapConfig {
        BootstrapConfig { replicates: 200, confidence: 0.95, seed: 0xB007 }
    }
}

/// Instance-level bootstrap of a PWLR fit.
///
/// * `xs`, `ys` — the folded scatter;
/// * `instance_ids` — parallel slice assigning each point to its burst
///   instance (ids need not be dense);
/// * `reference_k` — segment count of the reference fit; replicates are
///   refit with a fixed order equal to the reference (intervals for
///   breakpoints/slopes are only meaningful at fixed order), while order
///   stability is measured with free selection.
///
/// Returns `None` if fewer than 4 distinct instances exist.
pub fn bootstrap_pwlr(
    xs: &[f64],
    ys: &[f64],
    instance_ids: &[u64],
    pwlr: &PwlrConfig,
    reference_k: usize,
    config: &BootstrapConfig,
) -> Option<BootstrapResult> {
    assert_eq!(xs.len(), ys.len());
    assert_eq!(xs.len(), instance_ids.len());
    assert!(reference_k >= 1);
    // Group point indices per instance.
    let mut instances: Vec<(u64, Vec<usize>)> = Vec::new();
    {
        let mut map = std::collections::HashMap::<u64, Vec<usize>>::new();
        for (i, &id) in instance_ids.iter().enumerate() {
            map.entry(id).or_default().push(i);
        }
        instances.extend(map);
        instances.sort_unstable_by_key(|(id, _)| *id);
    }
    if instances.len() < 4 {
        return None;
    }

    let mut fixed_cfg = pwlr.clone();
    fixed_cfg.criterion = crate::model_select::SelectionCriterion::FixedSegments(reference_k);

    let mut rng = SplitMix64::new(config.seed);
    let mut bp_samples: Vec<Vec<f64>> = vec![Vec::new(); reference_k.saturating_sub(1)];
    let mut slope_samples: Vec<Vec<f64>> = vec![Vec::new(); reference_k];
    let mut order_matches = 0usize;
    let mut ok = 0usize;

    for _ in 0..config.replicates {
        // Resample instances with replacement.
        let mut rx = Vec::with_capacity(xs.len());
        let mut ry = Vec::with_capacity(ys.len());
        for _ in 0..instances.len() {
            let pick = (rng.next() as usize) % instances.len();
            for &pt in &instances[pick].1 {
                rx.push(xs[pt]);
                ry.push(ys[pt]);
            }
        }
        if rx.len() < reference_k * 3 + 2 {
            continue;
        }
        // Fixed-order fit for intervals.
        let Ok(fit) = fit_pwlr(&rx, &ry, None, &fixed_cfg) else { continue };
        if fit.num_segments() != reference_k {
            continue; // separation pruning collapsed the order
        }
        for (store, &bp) in bp_samples.iter_mut().zip(fit.breakpoints()) {
            store.push(bp);
        }
        for (store, &s) in slope_samples.iter_mut().zip(fit.slopes()) {
            store.push(s);
        }
        ok += 1;
        // Free-order fit for stability.
        if let Ok(free) = fit_pwlr(&rx, &ry, None, pwlr) {
            if free.num_segments() == reference_k {
                order_matches += 1;
            }
        }
    }
    if ok == 0 {
        return None;
    }
    let alpha = (1.0 - config.confidence.clamp(0.0, 1.0)) / 2.0;
    let interval = |samples: &[f64]| Interval {
        lo: quantile(samples, alpha).unwrap_or(f64::NAN),
        hi: quantile(samples, 1.0 - alpha).unwrap_or(f64::NAN),
    };
    Some(BootstrapResult {
        breakpoints: bp_samples.iter().map(|s| interval(s)).collect(),
        slopes: slope_samples.iter().map(|s| interval(s)).collect(),
        order_stability: order_matches as f64 / config.replicates as f64,
        replicates: ok,
    })
}

/// Minimal deterministic RNG (SplitMix64) so this crate stays
/// dependency-free; quality is ample for bootstrap index draws.
mod rand_like {
    /// SplitMix64 state.
    pub struct SplitMix64(u64);

    impl SplitMix64 {
        /// Seeds the generator.
        pub fn new(seed: u64) -> SplitMix64 {
            SplitMix64(seed)
        }

        /// Next pseudo-random u64.
        pub fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Folded-like data: 2 phases, slopes 1.6/0.4, break at 0.5, instance
    /// noise shifting each instance's y values jointly.
    fn synthetic(instances: usize, per_instance: usize) -> (Vec<f64>, Vec<f64>, Vec<u64>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut ids = Vec::new();
        let mut rng = rand_like::SplitMix64::new(7);
        for inst in 0..instances {
            let bias = ((rng.next() % 1000) as f64 / 1000.0 - 0.5) * 0.02;
            for _ in 0..per_instance {
                let x = (rng.next() % 10_000) as f64 / 10_000.0;
                let y = if x < 0.5 { 1.6 * x } else { 0.8 + 0.4 * (x - 0.5) };
                xs.push(x);
                ys.push(y + bias);
                ids.push(inst as u64);
            }
        }
        (xs, ys, ids)
    }

    #[test]
    fn intervals_cover_truth() {
        let (xs, ys, ids) = synthetic(60, 4);
        let result = bootstrap_pwlr(
            &xs,
            &ys,
            &ids,
            &PwlrConfig::default(),
            2,
            &BootstrapConfig { replicates: 80, ..BootstrapConfig::default() },
        )
        .expect("bootstrap runs");
        assert_eq!(result.breakpoints.len(), 1);
        assert_eq!(result.slopes.len(), 2);
        assert!(result.breakpoints[0].contains(0.5), "{:?}", result.breakpoints);
        assert!(result.slopes[0].contains(1.6), "{:?}", result.slopes);
        assert!(result.slopes[1].contains(0.4), "{:?}", result.slopes);
        assert!(result.order_stability > 0.8);
        assert!(result.replicates > 40);
    }

    #[test]
    fn more_instances_tighten_intervals() {
        let cfg = BootstrapConfig { replicates: 60, ..BootstrapConfig::default() };
        let (xs, ys, ids) = synthetic(20, 3);
        let small = bootstrap_pwlr(&xs, &ys, &ids, &PwlrConfig::default(), 2, &cfg).unwrap();
        let (xs, ys, ids) = synthetic(200, 3);
        let large = bootstrap_pwlr(&xs, &ys, &ids, &PwlrConfig::default(), 2, &cfg).unwrap();
        assert!(
            large.breakpoints[0].width() < small.breakpoints[0].width(),
            "large {:?} vs small {:?}",
            large.breakpoints[0],
            small.breakpoints[0]
        );
    }

    #[test]
    fn too_few_instances_returns_none() {
        let (xs, ys, ids) = synthetic(3, 5);
        assert!(bootstrap_pwlr(
            &xs,
            &ys,
            &ids,
            &PwlrConfig::default(),
            2,
            &BootstrapConfig::default()
        )
        .is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys, ids) = synthetic(40, 3);
        let cfg = BootstrapConfig { replicates: 40, ..BootstrapConfig::default() };
        let a = bootstrap_pwlr(&xs, &ys, &ids, &PwlrConfig::default(), 2, &cfg).unwrap();
        let b = bootstrap_pwlr(&xs, &ys, &ids, &PwlrConfig::default(), 2, &cfg).unwrap();
        assert_eq!(a.breakpoints, b.breakpoints);
        assert_eq!(a.slopes, b.slopes);
    }

    #[test]
    fn interval_helpers() {
        let i = Interval { lo: 1.0, hi: 3.0 };
        assert_eq!(i.width(), 2.0);
        assert!(i.contains(1.0) && i.contains(3.0) && i.contains(2.0));
        assert!(!i.contains(0.99) && !i.contains(3.01));
    }
}
