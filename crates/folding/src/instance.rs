//! Instance collection: attach each trace sample to the computation burst
//! it fell into, grouped by cluster.

use phasefold_cluster::Clustering;
use phasefold_model::{burst::samples_within, Burst, CallStack, PartialCounterSet, Trace};
use std::sync::Arc;

/// One sample inside one burst instance, with times made burst-relative.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSample {
    /// Fraction of the burst at which the sample fired (`x` axis).
    pub x: f64,
    /// Accumulated counters at the sample instant (absolute readings).
    pub counters: PartialCounterSet,
    /// Captured call stack, shared rather than deep-copied: downstream
    /// stages (folding, snapshots) alias the same frames instead of
    /// re-cloning the frame vector per stage.
    pub callstack: Arc<CallStack>,
}

/// One burst instance prepared for folding.
#[derive(Debug, Clone)]
pub struct FoldInstance {
    /// Index of the burst in the input burst slice.
    pub burst_index: usize,
    /// Burst duration in seconds.
    pub dur_s: f64,
    /// Samples that fell inside the burst (possibly none).
    pub samples: Vec<InstanceSample>,
}

/// Collects, for every cluster, its burst instances with their samples.
///
/// Returns `per_cluster[c]` = instances of cluster `c`. Noise bursts are
/// ignored. `bursts` and `clustering.labels` must be parallel slices.
pub fn collect_instances(
    trace: &Trace,
    bursts: &[Burst],
    clustering: &Clustering,
) -> Vec<Vec<FoldInstance>> {
    assert_eq!(bursts.len(), clustering.labels.len());
    let mut per_cluster: Vec<Vec<FoldInstance>> = vec![Vec::new(); clustering.num_clusters];
    for (i, (burst, label)) in bursts.iter().zip(&clustering.labels).enumerate() {
        let Some(cluster) = label else { continue };
        let Some(stream) = trace.rank(burst.id.rank) else { continue };
        let samples = samples_within(stream, burst.start, burst.end)
            .map(|s| InstanceSample {
                x: s.time.normalized_within(burst.start, burst.end),
                counters: s.counters,
                callstack: Arc::clone(&s.callstack),
            })
            .collect();
        per_cluster[*cluster].push(FoldInstance {
            burst_index: i,
            dur_s: burst.duration().as_secs_f64(),
            samples,
        });
    }
    per_cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use phasefold_model::{
        CommKind, CounterKind, CounterSet, RankId, Record, Sample, SourceRegistry, TimeNs,
    };

    fn counters(ins: f64) -> CounterSet {
        let mut c = CounterSet::ZERO;
        c[CounterKind::Instructions] = ins;
        c
    }

    fn build_trace() -> (Trace, Vec<Burst>, Clustering) {
        let mut trace = Trace::with_ranks(SourceRegistry::new(), 1);
        let stream = trace.rank_mut(RankId(0)).unwrap();
        let mut push = |r: Record| stream.push(r).unwrap();
        // Two bursts: [100, 200) and [300, 500), one sample each + one
        // sample inside communication (must not be collected).
        push(Record::CommExit { time: TimeNs(100), kind: CommKind::Collective, counters: counters(0.0) });
        push(Record::Sample(Sample {
            time: TimeNs(150),
            counters: PartialCounterSet::from_full(&counters(55.0)),
            callstack: CallStack::empty().into(),
        }));
        push(Record::CommEnter { time: TimeNs(200), kind: CommKind::Collective, counters: counters(100.0) });
        push(Record::Sample(Sample {
            time: TimeNs(250),
            counters: PartialCounterSet::from_full(&counters(100.0)),
            callstack: CallStack::empty().into(),
        }));
        push(Record::CommExit { time: TimeNs(300), kind: CommKind::Collective, counters: counters(100.0) });
        push(Record::Sample(Sample {
            time: TimeNs(400),
            counters: PartialCounterSet::from_full(&counters(150.0)),
            callstack: CallStack::empty().into(),
        }));
        push(Record::CommEnter { time: TimeNs(500), kind: CommKind::Collective, counters: counters(200.0) });
        let bursts = phasefold_model::extract_bursts(&trace, phasefold_model::DurNs::ZERO);
        let clustering = Clustering {
            labels: vec![Some(0), Some(0)],
            num_clusters: 1,
            eps: 0.1,
            spmd_score: 1.0,
        };
        (trace, bursts, clustering)
    }

    #[test]
    fn samples_attach_to_their_bursts() {
        let (trace, bursts, clustering) = build_trace();
        let per_cluster = collect_instances(&trace, &bursts, &clustering);
        assert_eq!(per_cluster.len(), 1);
        let instances = &per_cluster[0];
        assert_eq!(instances.len(), 2);
        assert_eq!(instances[0].samples.len(), 1);
        assert_eq!(instances[1].samples.len(), 1);
        // Sample at t=150 in burst [100,200) -> x = 0.5.
        assert!((instances[0].samples[0].x - 0.5).abs() < 1e-9);
        // Sample at t=400 in burst [300,500) -> x = 0.5.
        assert!((instances[1].samples[0].x - 0.5).abs() < 1e-9);
        assert!((instances[0].dur_s - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn noise_bursts_are_skipped() {
        let (trace, bursts, mut clustering) = build_trace();
        clustering.labels[1] = None;
        let per_cluster = collect_instances(&trace, &bursts, &clustering);
        assert_eq!(per_cluster[0].len(), 1);
    }

    #[test]
    fn multiple_clusters_are_separated() {
        let (trace, bursts, mut clustering) = build_trace();
        clustering.labels = vec![Some(0), Some(1)];
        clustering.num_clusters = 2;
        let per_cluster = collect_instances(&trace, &bursts, &clustering);
        assert_eq!(per_cluster.len(), 2);
        assert_eq!(per_cluster[0].len(), 1);
        assert_eq!(per_cluster[1].len(), 1);
        assert_eq!(per_cluster[0][0].burst_index, 0);
        assert_eq!(per_cluster[1][0].burst_index, 1);
    }

    #[test]
    fn instance_without_samples_is_kept() {
        // Coarse sampling means many instances carry zero samples; they
        // still count toward duration statistics.
        let mut trace = Trace::with_ranks(SourceRegistry::new(), 1);
        let stream = trace.rank_mut(RankId(0)).unwrap();
        stream
            .push(Record::CommExit { time: TimeNs(0), kind: CommKind::Wait, counters: counters(0.0) })
            .unwrap();
        stream
            .push(Record::CommEnter { time: TimeNs(100), kind: CommKind::Wait, counters: counters(10.0) })
            .unwrap();
        let bursts = phasefold_model::extract_bursts(&trace, phasefold_model::DurNs::ZERO);
        let clustering = Clustering {
            labels: vec![Some(0)],
            num_clusters: 1,
            eps: 0.1,
            spmd_score: 1.0,
        };
        let per_cluster = collect_instances(&trace, &bursts, &clustering);
        assert_eq!(per_cluster[0].len(), 1);
        assert!(per_cluster[0][0].samples.is_empty());
    }
}
