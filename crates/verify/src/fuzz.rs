//! The fuzz driver: one seed = one generated case run through every
//! differential and metamorphic check.
//!
//! Kernel-level differential checks (`segdp-exhaustive`, `dbscan-brute`,
//! `suggest-eps`, `muggeo-rowwise`, `hinge-rowwise`)
//! draw their own synthetic inputs per seed; trace-level checks all share
//! the seed's generated [`Case`]. When a trace-level check diverges and
//! shrinking is enabled, the case's spec is minimized under "that same
//! check still diverges" and the result is attached in corpus format,
//! ready to be written into `tests/corpus/`.

use crate::generate::{random_spec, rng_for, Case};
use crate::{corpus, differential, metamorphic, shrink, Divergence};

/// Namespaces for [`rng_for`], one per randomized check.
mod ns {
    pub const SPEC: u64 = 0x01;
    pub const SEGDP: u64 = 0x02;
    pub const DBSCAN: u64 = 0x03;
    pub const MUGGEO: u64 = 0x04;
    pub const HINGE: u64 = 0x05;
    pub const SUGGEST_EPS: u64 = 0x06;
    pub const NAN: u64 = 0x7A7A;
    pub const PERMUTE: u64 = 0xD5CA;
    pub const REORDER: u64 = 0xF01D;
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Total trace-level cases generated (== seeds run).
    pub cases: u64,
    /// Total bursts across all generated cases (a volume indicator).
    pub bursts: u64,
    /// Every divergence found, in seed order.
    pub divergences: Vec<Divergence>,
}

/// Runs every check for one seed. With `shrink_repros`, trace-level
/// divergences carry a minimized corpus-format repro.
pub fn run_seed(seed: u64, shrink_repros: bool) -> Vec<Divergence> {
    let mut divergences = Vec::new();

    // Kernel-level differentials on their own synthetic domains.
    divergences.extend(differential::check_segdp(&mut rng_for(seed, ns::SEGDP), seed));
    divergences.extend(differential::check_dbscan(&mut rng_for(seed, ns::DBSCAN), seed));
    divergences.extend(differential::check_suggest_eps(&mut rng_for(seed, ns::SUGGEST_EPS), seed));
    divergences.extend(differential::check_muggeo(&mut rng_for(seed, ns::MUGGEO), seed));
    divergences.extend(differential::check_hinge(&mut rng_for(seed, ns::HINGE), seed));

    // Trace-level checks on the seed's generated case.
    let (spec, config) = random_spec(&mut rng_for(seed, ns::SPEC));
    let case = Case::from_spec(spec, config);
    for mut divergence in trace_checks(&case, seed) {
        if shrink_repros {
            if let Some(spec) = &case.spec {
                let check = divergence.check;
                let before = spec.num_bursts();
                let minimal = shrink::shrink_spec(spec, &case.config, |candidate, cfg| {
                    let candidate_case = Case::from_spec(candidate.clone(), cfg.clone());
                    trace_checks(&candidate_case, seed).iter().any(|d| d.check == check)
                });
                let minimal_case = Case::from_spec(minimal.clone(), case.config.clone());
                let origin = format!(
                    "seed {seed} check {check} (shrunk {before} -> {} bursts)",
                    minimal.num_bursts()
                );
                divergence.repro = Some(corpus::render_case(&minimal_case, &origin));
            }
        }
        divergences.push(divergence);
    }
    divergences
}

/// All checks that consume a whole case (shared with corpus replay via the
/// same check set; replay lives in [`corpus::replay_case`] and pins its
/// own rng namespaces to these).
fn trace_checks(case: &Case, seed: u64) -> Vec<Divergence> {
    let mut divergences = Vec::new();
    divergences.extend(differential::check_fold(case, seed));
    divergences.extend(metamorphic::check_threads(case, seed));
    divergences.extend(metamorphic::check_time_shift(case, seed));
    divergences.extend(metamorphic::check_time_scale(case, seed));
    divergences.extend(metamorphic::check_dbscan_permutation(
        case,
        &mut rng_for(seed, ns::PERMUTE),
        seed,
    ));
    divergences.extend(metamorphic::check_fold_reorder(
        case,
        &mut rng_for(seed, ns::REORDER),
        seed,
    ));
    divergences.extend(metamorphic::check_batch_online(case, seed));
    divergences.extend(metamorphic::check_checkpoint_roundtrip(case, seed));
    divergences.extend(metamorphic::check_reservoir_stream(case, seed));
    divergences.extend(metamorphic::check_fingerprint_roundtrip(case, seed));
    divergences.extend(metamorphic::check_nan_samples(case, &mut rng_for(seed, ns::NAN), seed));
    divergences
}

/// Runs seeds `start .. start + count`.
pub fn run_seeds(start: u64, count: u64, shrink_repros: bool) -> FuzzSummary {
    let mut summary = FuzzSummary::default();
    for seed in start..start.saturating_add(count) {
        summary.seeds_run += 1;
        summary.cases += 1;
        let (spec, _) = random_spec(&mut rng_for(seed, ns::SPEC));
        summary.bursts += spec.num_bursts() as u64;
        summary.divergences.extend(run_seed(seed, shrink_repros));
    }
    summary
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_runs_clean_and_deterministically() {
        let a = run_seed(1, false);
        let b = run_seed(1, false);
        assert_eq!(a.len(), b.len());
        assert!(a.is_empty(), "seed 1 must be divergence-free: {:?}", a);
    }
}
