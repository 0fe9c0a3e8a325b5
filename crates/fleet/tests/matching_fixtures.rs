//! Structural-change fixtures for the fleet matcher: a phase that merely
//! *shifted* must match one-to-one, a phase that *split* must come back as
//! one Split verdict (not one match + one "new" phase), and two phases
//! that *merged* must come back as one Merge verdict — in every case with
//! the duration delta computed over the whole group, so a pure structural
//! change reads as ~0% and never trips the gate.

mod common;

use common::{fp, phase};
use phasefold_fleet::{compare_fingerprints, MatchConfig, MatchKind, MatchShape};
use phasefold_model::{CounterKind, CounterSet};

/// Shift: the boundary between two phases drifted by 20% of the burst.
/// Source identity must pair them regardless; zero churn, zero regression.
#[test]
fn shifted_phases_match_by_source() {
    let base = fp(
        "v1",
        vec![phase(0, 0.0, 0.4, 2.4, Some("pack")), phase(1, 0.4, 1.0, 0.6, Some("sweep"))],
    );
    let cand = fp(
        "v2",
        vec![phase(0, 0.0, 0.6, 2.4, Some("pack")), phase(1, 0.6, 1.0, 0.6, Some("sweep"))],
    );
    let v = compare_fingerprints(&base, &cand, &MatchConfig::default());
    assert_eq!(v.phases.len(), 2);
    for p in &v.phases {
        assert_eq!(p.matched_by, MatchKind::Source);
        assert_eq!(p.shape, MatchShape::OneToOne);
    }
    assert!(v.new_phases.is_empty() && v.vanished_phases.is_empty());
}

/// The same shift without any source attribution: the signature pass must
/// carry it, because the counter mixes (ipc 2.4 vs 0.6) are unmistakable.
#[test]
fn shifted_phases_match_by_signature_without_sources() {
    let base = fp("v1", vec![phase(0, 0.0, 0.4, 2.4, None), phase(1, 0.4, 1.0, 0.6, None)]);
    let cand = fp("v2", vec![phase(0, 0.0, 0.55, 2.4, None), phase(1, 0.55, 1.0, 0.6, None)]);
    let v = compare_fingerprints(&base, &cand, &MatchConfig::default());
    assert_eq!(v.phases.len(), 2, "verdict:\n{}", phasefold_fleet::render_verdict(&v));
    for p in &v.phases {
        assert_eq!(p.matched_by, MatchKind::Signature);
    }
    assert!(v.new_phases.is_empty() && v.vanished_phases.is_empty());
}

/// Split: one baseline phase becomes two candidate phases covering the
/// same span with the same total time. Must be ONE Split verdict with
/// ~0% change — not a match plus a spurious "new phase".
#[test]
fn split_phase_is_one_group_with_zero_delta() {
    let base = fp(
        "v1",
        vec![phase(0, 0.0, 0.6, 1.2, None), phase(1, 0.6, 1.0, 3.0, Some("tail"))],
    );
    // The split halves get slightly different mixes (1.0 / 1.4) so neither
    // is signature-identical to the original blended phase.
    let cand = fp(
        "v2",
        vec![
            phase(0, 0.0, 0.3, 1.0, None),
            phase(1, 0.3, 0.6, 1.4, None),
            phase(2, 0.6, 1.0, 3.0, Some("tail")),
        ],
    );
    let v = compare_fingerprints(&base, &cand, &MatchConfig::default());
    assert!(v.new_phases.is_empty(), "split half misread as new: {:?}", v.new_phases);
    assert!(v.vanished_phases.is_empty());
    let split = v
        .phases
        .iter()
        .find(|p| p.shape == MatchShape::Split)
        .unwrap_or_else(|| panic!("no split verdict:\n{}", phasefold_fleet::render_verdict(&v)));
    assert_eq!(split.baseline_phases, vec![0]);
    assert_eq!(split.candidate_phases, vec![0, 1]);
    assert!(split.duration_change.expect("baseline duration nonzero").abs() < 1e-9);
    assert!(!v.regressed);
}

/// Merge: two baseline phases fuse into one candidate phase. One Merge
/// verdict, durations summed on the baseline side.
#[test]
fn merged_phases_are_one_group() {
    let base = fp(
        "v1",
        vec![
            phase(0, 0.0, 0.25, 1.0, None),
            phase(1, 0.25, 0.6, 1.4, None),
            phase(2, 0.6, 1.0, 3.0, Some("tail")),
        ],
    );
    let cand = fp(
        "v2",
        vec![phase(0, 0.0, 0.6, 1.2, None), phase(1, 0.6, 1.0, 3.0, Some("tail"))],
    );
    let v = compare_fingerprints(&base, &cand, &MatchConfig::default());
    assert!(v.new_phases.is_empty() && v.vanished_phases.is_empty());
    let merge = v
        .phases
        .iter()
        .find(|p| p.shape == MatchShape::Merge)
        .unwrap_or_else(|| panic!("no merge verdict:\n{}", phasefold_fleet::render_verdict(&v)));
    assert_eq!(merge.baseline_phases, vec![0, 1]);
    assert_eq!(merge.candidate_phases, vec![0]);
    assert!(merge.duration_change.expect("baseline duration nonzero").abs() < 1e-9);
    assert!(!v.regressed);
}

/// A split whose pieces also got collectively slower must still gate: the
/// group delta is computed over summed durations.
#[test]
fn regressed_split_still_gates() {
    let base = fp(
        "v1",
        vec![phase(0, 0.0, 0.6, 1.2, None), phase(1, 0.6, 1.0, 3.0, Some("tail"))],
    );
    let mut cand = fp(
        "v2",
        vec![
            phase(0, 0.0, 0.3, 1.0, None),
            phase(1, 0.3, 0.6, 1.4, None),
            phase(2, 0.6, 1.0, 3.0, Some("tail")),
        ],
    );
    // Both halves 25% slower in wall time.
    cand.clusters[0].phases[0].duration_s *= 1.25;
    cand.clusters[0].phases[1].duration_s *= 1.25;
    let v = compare_fingerprints(&base, &cand, &MatchConfig::default());
    let split = v.phases.iter().find(|p| p.shape == MatchShape::Split).expect("split verdict");
    assert!(split.duration_change.expect("nonzero baseline") > 0.2);
    assert!(split.regressed);
    assert!(v.regressed);
}

/// A genuinely new phase (no counterpart span, distinct mix) must surface
/// in `new_phases`, and a vanished one in `vanished_phases` — with the
/// zero-duration explicit-None contract on matched groups untouched.
#[test]
fn genuine_churn_is_reported_as_churn() {
    let base = fp(
        "v1",
        vec![phase(0, 0.0, 0.7, 2.4, Some("pack")), phase(1, 0.7, 1.0, 0.3, Some("gone"))],
    );
    let cand = fp(
        "v2",
        vec![phase(0, 0.0, 0.7, 2.4, Some("pack")), phase(1, 0.7, 1.0, 1.1, Some("fresh"))],
    );
    // Force the leftover pair apart in signature space: the "fresh" phase
    // has a wildly different mix.
    let mut v2 = cand;
    v2.clusters[0].phases[1].rates = {
        let mut r = CounterSet::ZERO;
        r[CounterKind::Instructions] = 0.2 * 2.5e9;
        r[CounterKind::Cycles] = 2.5e9;
        r[CounterKind::L3Misses] = 0.5e9;
        r
    };
    let v = compare_fingerprints(&base, &v2, &MatchConfig::default());
    assert_eq!(v.phases.len(), 1, "{}", phasefold_fleet::render_verdict(&v));
    assert_eq!(v.vanished_phases.len(), 1);
    assert_eq!(v.new_phases.len(), 1);
    assert_eq!(v.vanished_phases[0].source.as_deref(), Some("gone (kernels.c:20)"));
    assert_eq!(v.new_phases[0].source.as_deref(), Some("fresh (kernels.c:20)"));
}
