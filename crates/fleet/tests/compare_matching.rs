//! Matching-fallback coverage on fingerprint inputs: source attribution
//! must always win over span overlap, conflicting attributions must
//! resolve deterministically, phases of entirely unmatched clusters must
//! surface as new/vanished instead of vanishing from the verdict, and a
//! zero baseline duration is an explicit `None`, not "no change". The
//! stencil case study checks the same matcher end to end: cache-blocking
//! the flux kernel must show up on the flux phase, paired by source.

mod common;

use common::{cluster, fp, fp_clusters, phase};
use phasefold::{run_study, AnalysisConfig};
use phasefold_fleet::{
    compare_fingerprints, render_verdict, verdict_json, Fingerprint, MatchConfig, MatchKind,
};
use phasefold_simapp::workloads::stencil::{build, StencilParams};
use phasefold_simapp::SimConfig;
use phasefold_tracer::TracerConfig;
use proptest::prelude::*;

proptest! {
    /// Whenever a baseline phase and some candidate phase carry the same
    /// source region, the pair must match by `Source` — regardless of how
    /// far the spans drifted, which is exactly when overlap matching would
    /// pick a different (wrong) partner.
    #[test]
    fn source_attribution_beats_overlap(
        shift in 0.0f64..0.35,
        widen in 0.8f64..1.2,
        ipc_a in 0.2f64..1.2,
        ipc_b in 0.2f64..1.2,
    ) {
        // Baseline: region `front` in the front, `back` in the back.
        let base = fp("v1", vec![
            phase(0, 0.0, 0.4, ipc_a, Some("front")),
            phase(1, 0.4, 1.0, ipc_b, Some("back")),
        ]);
        // Candidate: the `front` phase drifted right (shift) and changed
        // width; by raw overlap it may now cover `back`'s old span.
        let split = (0.4 * widen + shift).min(0.95);
        let cand = fp("v2", vec![
            phase(0, shift.min(0.5), split, ipc_a, Some("front")),
            phase(1, split, 1.0, ipc_b, Some("back")),
        ]);
        let v = compare_fingerprints(&base, &cand, &MatchConfig::default());
        for p in &v.phases {
            prop_assert_eq!(p.matched_by, MatchKind::Source);
        }
        // Both attributed pairs matched: nothing new or vanished.
        prop_assert_eq!(v.phases.len(), 2);
        prop_assert!(v.new_phases.is_empty());
        prop_assert!(v.vanished_phases.is_empty());
    }
}

/// Golden: two baseline phases claim the *same* region (conflicting
/// attribution after a merge/dup); the matcher must resolve this
/// deterministically — first baseline phase in order takes the source
/// match — and the outcome must be byte-stable across runs.
#[test]
fn conflicting_attribution_resolves_deterministically() {
    let base = fp(
        "v1",
        vec![
            phase(0, 0.0, 0.3, 0.4, Some("k7")),
            phase(1, 0.3, 0.6, 0.48, Some("k7")), // same region: conflict
            phase(2, 0.6, 1.0, 0.32, Some("k9")),
        ],
    );
    let cand = fp(
        "v2",
        vec![
            phase(0, 0.0, 0.55, 0.44, Some("k7")), // only ONE k7 phase now
            phase(1, 0.55, 1.0, 0.32, Some("k9")),
        ],
    );
    let v = compare_fingerprints(&base, &cand, &MatchConfig::default());

    let by_pair: Vec<(Vec<usize>, Vec<usize>, MatchKind)> = v
        .phases
        .iter()
        .map(|p| (p.baseline_phases.clone(), p.candidate_phases.clone(), p.matched_by))
        .collect();
    // Phase 0 (first in order) wins the source match for k7; phase 2
    // matches k9 by source; phase 1's conflicting claim loses and has no
    // unmatched candidate left to fall back to.
    assert!(by_pair.contains(&(vec![0], vec![0], MatchKind::Source)), "{by_pair:?}");
    assert!(by_pair.contains(&(vec![2], vec![1], MatchKind::Source)), "{by_pair:?}");
    assert_eq!(v.phases.len(), 2, "{by_pair:?}");
    let vanished: Vec<(usize, usize)> =
        v.vanished_phases.iter().map(|n| (n.cluster, n.phase)).collect();
    assert_eq!(vanished, vec![(0, 1)]);
    assert!(v.new_phases.is_empty());

    // Determinism: the exact same verdict bytes twice.
    let again = compare_fingerprints(&base, &cand, &MatchConfig::default());
    assert_eq!(verdict_json(&v), verdict_json(&again));
}

/// A cluster present only in the baseline (or only in the candidate) must
/// contribute its phases to vanished/new — not be silently dropped
/// because only matched cluster pairs were walked.
#[test]
fn unmatched_clusters_surface_their_phases() {
    let base = fp_clusters(
        "v1",
        vec![
            cluster(0, 1e-3, vec![phase(0, 0.0, 1.0, 0.4, Some("k1"))]),
            // Far away in signature space (1000x duration): never matches.
            cluster(1, 1.0, vec![phase(0, 0.0, 1.0, 0.8, Some("k3"))]),
        ],
    );
    let cand = fp_clusters(
        "v2",
        vec![
            cluster(0, 1e-3, vec![phase(0, 0.0, 1.0, 0.4, Some("k1"))]),
            cluster(5, 2e-6, vec![phase(0, 0.0, 0.5, 0.36, None), phase(1, 0.5, 1.0, 0.04, None)]),
        ],
    );
    let v = compare_fingerprints(&base, &cand, &MatchConfig::default());
    assert_eq!(v.phases.len(), 1, "{}", render_verdict(&v));
    let vanished: Vec<(usize, usize)> =
        v.vanished_phases.iter().map(|n| (n.cluster, n.phase)).collect();
    let new: Vec<(usize, usize)> = v.new_phases.iter().map(|n| (n.cluster, n.phase)).collect();
    assert!(vanished.contains(&(1, 0)), "{vanished:?}");
    assert!(new.contains(&(5, 0)) && new.contains(&(5, 1)), "{new:?}");
}

/// A phase whose baseline duration is zero must report an explicit `None`
/// change, never 0.0 ("no change").
#[test]
fn zero_baseline_duration_is_not_a_zero_delta() {
    let base = fp(
        "v1",
        vec![
            phase(0, 0.0, 0.0, 0.4, Some("k1")), // degenerate: zero-width span
            phase(1, 0.0, 1.0, 0.4, Some("k2")),
        ],
    );
    let cand = fp(
        "v2",
        vec![phase(0, 0.0, 0.4, 0.4, Some("k1")), phase(1, 0.4, 1.0, 0.4, Some("k2"))],
    );
    let v = compare_fingerprints(&base, &cand, &MatchConfig::default());
    let grown = v.phases.iter().find(|p| p.baseline_phases == [0]).expect("matched by source");
    assert_eq!(grown.matched_by, MatchKind::Source);
    assert_eq!(grown.duration_change, None);
    let normal = v.phases.iter().find(|p| p.baseline_phases == [1]).expect("matched by source");
    assert!(normal.duration_change.is_some());
}

/// Fingerprint of a two-rank stencil run, naive or cache-blocked.
fn stencil(blocked: bool) -> Fingerprint {
    let program = build(&StencilParams { blocked, ..StencilParams::default() });
    let study = run_study(
        &program,
        &SimConfig { ranks: 2, ..SimConfig::default() },
        &TracerConfig::default(),
        &AnalysisConfig::default(),
    );
    let build_id = if blocked { "blocked" } else { "baseline" };
    Fingerprint::from_analysis(&study.analysis, &study.trace.registry, build_id, "stencil")
}

/// Cache-blocking the flux kernel cuts L3 misses and duration of exactly
/// that phase, which the matcher pairs by source.
#[test]
fn blocked_stencil_improves_flux_phase() {
    let v = compare_fingerprints(&stencil(false), &stencil(true), &MatchConfig::default());
    let flux = v
        .phases
        .iter()
        .find(|p| p.source.as_deref().is_some_and(|s| s.contains("flux")))
        .unwrap_or_else(|| panic!("flux phase not matched:\n{}", render_verdict(&v)));
    assert_eq!(flux.matched_by, MatchKind::Source);
    assert!(flux.l3_mpki_after < flux.l3_mpki_before * 0.7, "{flux:?}");
    let change = flux.duration_change.expect("flux phase has a baseline duration");
    assert!(change < -0.15, "{change}");
    assert!(flux.ipc_after > flux.ipc_before, "{flux:?}");
}

/// A run compared with itself matches every phase by source, with no
/// duration change and no churn.
#[test]
fn self_comparison_is_near_identity() {
    let base = stencil(false);
    let v = compare_fingerprints(&base, &base, &MatchConfig::default());
    assert!(v.vanished_phases.is_empty() && v.new_phases.is_empty(), "{}", render_verdict(&v));
    assert!(!v.phases.is_empty());
    for p in &v.phases {
        assert_eq!(p.matched_by, MatchKind::Source);
        assert!(p.duration_change.expect("self comparison has durations").abs() < 1e-9);
    }
    assert!(!v.regressed);
}
