//! Trace statistics: the quick summary an analyst reads before any deeper
//! analysis (record counts, sampling density, burst-granularity
//! distribution).

use crate::burst::extract_bursts_checked;
use crate::fault::{FaultKind, FaultReport};
use crate::time::DurNs;
use crate::trace::Trace;

/// Summary statistics of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Ranks in the trace.
    pub ranks: usize,
    /// Total records.
    pub records: usize,
    /// Sampling records.
    pub samples: usize,
    /// Communication boundary records.
    pub comm_events: usize,
    /// Region enter/exit markers.
    pub markers: usize,
    /// Wall-clock span of the trace (seconds).
    pub wall_s: f64,
    /// Mean samples per second per rank.
    pub sample_rate_hz: f64,
    /// Computation bursts (zero-filtered).
    pub bursts: usize,
    /// Burst duration quartiles (seconds): min, p25, median, p75, max.
    pub burst_duration_quartiles: [f64; 5],
    /// Fraction of wall time spent inside bursts (per rank, averaged).
    pub compute_fraction: f64,
    /// Bursts quarantined because a boundary counter decreased (wrap-around
    /// or saturation); excluded from every other statistic.
    pub quarantined_bursts: usize,
}

/// Computes [`TraceStats`] for a trace.
///
/// Routes through the checked burst extractor so saturated or wrapped
/// counters are quarantined (and counted in
/// [`TraceStats::quarantined_bursts`]) instead of feeding nonsense deltas
/// into the summary. Use [`trace_stats_checked`] to also receive the
/// individual faults.
pub fn trace_stats(trace: &Trace) -> TraceStats {
    let mut faults = FaultReport::new();
    trace_stats_checked(trace, &mut faults)
}

/// [`trace_stats`] that additionally appends every quarantine fault to
/// `faults`, so callers can report *why* bursts were excluded.
pub fn trace_stats_checked(trace: &Trace, faults: &mut FaultReport) -> TraceStats {
    let mut samples = 0usize;
    let mut comm_events = 0usize;
    let mut markers = 0usize;
    for (_, stream) in trace.iter_ranks() {
        for r in stream.records() {
            if r.is_sample() {
                samples += 1;
            } else if r.is_comm() {
                comm_events += 1;
            } else {
                markers += 1;
            }
        }
    }
    let wall_s = trace.end_time().as_secs_f64();
    let faults_before = faults.len();
    let bursts = extract_bursts_checked(trace, DurNs::ZERO, faults);
    let quarantined_bursts = faults.faults[faults_before..]
        .iter()
        .filter(|f| f.kind == FaultKind::CounterOverflow)
        .count();
    let mut durations: Vec<f64> = bursts.iter().map(|b| b.duration().as_secs_f64()).collect();
    durations.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        if durations.is_empty() {
            return 0.0;
        }
        let pos = p * (durations.len() - 1) as f64;
        durations[pos.round() as usize]
    };
    let compute_time: f64 = durations.iter().sum();
    let ranks = trace.num_ranks().max(1);
    TraceStats {
        ranks: trace.num_ranks(),
        records: trace.total_records(),
        samples,
        comm_events,
        markers,
        wall_s,
        sample_rate_hz: if wall_s > 0.0 {
            samples as f64 / wall_s / ranks as f64
        } else {
            0.0
        },
        bursts: bursts.len(),
        burst_duration_quartiles: [q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)],
        compute_fraction: if wall_s > 0.0 {
            (compute_time / ranks as f64 / wall_s).min(1.0)
        } else {
            0.0
        },
        quarantined_bursts,
    }
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ranks: {}   wall: {:.3} s   records: {} ({} samples, {} comm, {} markers)",
            self.ranks, self.wall_s, self.records, self.samples, self.comm_events, self.markers
        )?;
        writeln!(
            f,
            "sampling: {:.1} Hz/rank   bursts: {}   compute fraction: {:.1}%",
            self.sample_rate_hz,
            self.bursts,
            self.compute_fraction * 100.0
        )?;
        if self.quarantined_bursts > 0 {
            writeln!(
                f,
                "quarantined bursts (counter wrap/saturation): {}",
                self.quarantined_bursts
            )?;
        }
        let [min, p25, med, p75, max] = self.burst_duration_quartiles;
        write!(
            f,
            "burst duration: min {:.3} ms, p25 {:.3} ms, median {:.3} ms, p75 {:.3} ms, max {:.3} ms",
            min * 1e3,
            p25 * 1e3,
            med * 1e3,
            p75 * 1e3,
            max * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callstack::{CallStack, SourceRegistry};
    use crate::counter::{CounterKind, CounterSet, PartialCounterSet};
    use crate::event::{CommKind, Record, Sample};
    use crate::time::TimeNs;
    use crate::trace::RankId;

    fn counters(ins: f64) -> CounterSet {
        let mut c = CounterSet::ZERO;
        c[CounterKind::Instructions] = ins;
        c
    }

    fn sample_trace() -> Trace {
        let mut trace = Trace::with_ranks(SourceRegistry::new(), 1);
        let stream = trace.rank_mut(RankId(0)).unwrap();
        stream
            .push(Record::CommExit {
                time: TimeNs(0),
                kind: CommKind::Collective,
                counters: counters(0.0),
            })
            .unwrap();
        stream
            .push(Record::Sample(Sample {
                time: TimeNs(400_000),
                counters: PartialCounterSet::EMPTY,
                callstack: CallStack::empty().into(),
            }))
            .unwrap();
        stream
            .push(Record::CommEnter {
                time: TimeNs(800_000),
                kind: CommKind::Collective,
                counters: counters(100.0),
            })
            .unwrap();
        stream
            .push(Record::CommExit {
                time: TimeNs(1_000_000),
                kind: CommKind::Collective,
                counters: counters(100.0),
            })
            .unwrap();
        stream
            .push(Record::CommEnter {
                time: TimeNs(2_000_000),
                kind: CommKind::Collective,
                counters: counters(300.0),
            })
            .unwrap();
        trace
    }

    #[test]
    fn counts_and_quartiles() {
        let stats = trace_stats(&sample_trace());
        assert_eq!(stats.ranks, 1);
        assert_eq!(stats.records, 5);
        assert_eq!(stats.samples, 1);
        assert_eq!(stats.comm_events, 4);
        assert_eq!(stats.markers, 0);
        assert_eq!(stats.bursts, 2);
        // Bursts: 0.8 ms and 1.0 ms.
        assert!((stats.burst_duration_quartiles[0] - 0.8e-3).abs() < 1e-9);
        assert!((stats.burst_duration_quartiles[4] - 1.0e-3).abs() < 1e-9);
        assert!((stats.wall_s - 2e-3).abs() < 1e-9);
        // Compute fraction = 1.8 ms of 2 ms.
        assert!((stats.compute_fraction - 0.9).abs() < 1e-9);
    }

    #[test]
    fn saturated_counter_is_quarantined_not_wrapped() {
        // A burst whose instruction counter *decreases* across its span
        // (saturation / wrap-around) must be quarantined — counted in
        // `quarantined_bursts`, excluded from `bursts` — and the fault
        // surfaced through the checked variant rather than discarded.
        let mut trace = Trace::with_ranks(SourceRegistry::new(), 1);
        let stream = trace.rank_mut(RankId(0)).unwrap();
        stream
            .push(Record::CommExit {
                time: TimeNs(0),
                kind: CommKind::Collective,
                counters: counters(u64::MAX as f64),
            })
            .unwrap();
        stream
            .push(Record::CommEnter {
                time: TimeNs(1_000_000),
                kind: CommKind::Collective,
                counters: counters(5.0), // saturated counter reset: decrease
            })
            .unwrap();
        // And one clean burst after it.
        stream
            .push(Record::CommExit {
                time: TimeNs(1_100_000),
                kind: CommKind::Collective,
                counters: counters(5.0),
            })
            .unwrap();
        stream
            .push(Record::CommEnter {
                time: TimeNs(2_000_000),
                kind: CommKind::Collective,
                counters: counters(900.0),
            })
            .unwrap();

        let mut faults = crate::fault::FaultReport::new();
        let stats = crate::stats::trace_stats_checked(&trace, &mut faults);
        assert_eq!(stats.bursts, 1, "only the clean burst survives");
        assert_eq!(stats.quarantined_bursts, 1);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults.faults[0].kind, crate::fault::FaultKind::CounterOverflow);
        // The plain variant agrees on the counts (faults just discarded).
        assert_eq!(trace_stats(&trace).quarantined_bursts, 1);
        assert!(trace_stats(&trace).to_string().contains("quarantined bursts"));
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let stats = trace_stats(&Trace::default());
        assert_eq!(stats.records, 0);
        assert_eq!(stats.bursts, 0);
        assert_eq!(stats.wall_s, 0.0);
        assert_eq!(stats.sample_rate_hz, 0.0);
    }

    #[test]
    fn display_renders() {
        let s = trace_stats(&sample_trace()).to_string();
        assert!(s.contains("bursts: 2"));
        assert!(s.contains("median"));
    }
}
