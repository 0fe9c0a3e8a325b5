//! Computation-burst extraction.
//!
//! A *computation burst* is the region between the exit of one communication
//! operation and the entry of the next (González et al., IPDPS'09). Because
//! the tracer reads the full counter set at exactly these two instrumentation
//! points, every burst carries an exact duration and exact counter deltas —
//! the features the clustering step uses — at negligible overhead.

use crate::callstack::RegionId;
use crate::counter::CounterSet;
use crate::event::Record;
use crate::fault::{Fault, FaultKind, FaultReport, Severity};
use crate::time::{DurNs, TimeNs};
use crate::trace::{RankId, RankTrace, Trace};

/// Identifier of a burst within a trace: `(rank, ordinal)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BurstId {
    /// The rank the burst executed on.
    pub rank: RankId,
    /// Zero-based ordinal of the burst within its rank.
    pub ordinal: u32,
}

/// One computation burst with its exactly-measured boundary data.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    /// Identity of this burst.
    pub id: BurstId,
    /// Burst start (exit timestamp of the preceding communication).
    pub start: TimeNs,
    /// Burst end (entry timestamp of the following communication).
    pub end: TimeNs,
    /// Accumulated counters at burst start.
    pub start_counters: CounterSet,
    /// Counter deltas over the burst (`end - start` readings).
    pub counters: CounterSet,
    /// Innermost user region open when the burst started
    /// ([`RegionId::UNKNOWN`] if none).
    pub enclosing: RegionId,
}

impl Burst {
    /// Burst duration.
    pub fn duration(&self) -> DurNs {
        self.end.saturating_since(self.start)
    }
}

/// Extracts the computation bursts of one rank's stream.
///
/// The stream portion before the first `CommEnter` and after the last
/// `CommExit` is treated as a burst too (application prologue/epilogue)
/// provided boundary counter readings exist on both sides; the prologue has
/// no preceding reading, so it is skipped — matching the original tool,
/// which only trusts bursts bounded by two instrumented reads.
///
/// Bursts shorter than `min_duration` are discarded: the paper filters very
/// short bursts, which are dominated by instrumentation noise.
pub fn extract_rank_bursts(rank: RankId, stream: &RankTrace, min_duration: DurNs) -> Vec<Burst> {
    let mut faults = FaultReport::new();
    extract_rank_bursts_checked(rank, stream, min_duration, &mut faults)
}

/// Like [`extract_rank_bursts`], additionally quarantining bursts whose
/// boundary counters *decreased* — wrap-around, saturation, or corruption —
/// as [`FaultKind::CounterOverflow`] faults instead of producing a
/// nonsensical delta. Quarantined bursts are skipped; the surviving burst
/// list is what the unchecked variant would return on clean data.
pub fn extract_rank_bursts_checked(
    rank: RankId,
    stream: &RankTrace,
    min_duration: DurNs,
    faults: &mut FaultReport,
) -> Vec<Burst> {
    let mut extractor = BurstExtractor::new();
    let mut bursts = Vec::new();
    for record in stream.records() {
        bursts.extend(extractor.push(rank, record, min_duration, faults));
    }
    bursts
}

/// Incremental burst extraction: the record-at-a-time engine behind
/// [`extract_rank_bursts_checked`], factored out so the streaming analyzer
/// can feed records as they arrive *and* serialize the mid-burst state into
/// a checkpoint. Batch and streaming extraction agree by construction —
/// both are this one state machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BurstExtractor {
    /// Open user regions, innermost last (`pub(crate)` for the codec).
    pub(crate) region_stack: Vec<RegionId>,
    /// Pending burst start: set on `CommExit`, consumed on next `CommEnter`.
    pub(crate) open: Option<(TimeNs, CounterSet, RegionId)>,
    /// Ordinal the next *emitted* burst will carry.
    pub(crate) ordinal: u32,
}

impl BurstExtractor {
    /// A fresh extractor at stream start.
    pub fn new() -> BurstExtractor {
        BurstExtractor::default()
    }

    /// Start time of the currently open (not yet closed) burst, if any.
    /// Everything strictly before this point is fully consumed: no future
    /// record can change what was already emitted, so callers may discard
    /// earlier records.
    pub fn open_start(&self) -> Option<TimeNs> {
        self.open.map(|(start, _, _)| start)
    }

    /// Feeds one record; returns the burst it completed, if any. A burst
    /// whose boundary counters decreased is quarantined into `faults` as
    /// [`FaultKind::CounterOverflow`] (warning) and `None` is returned.
    pub fn push(
        &mut self,
        rank: RankId,
        record: &Record,
        min_duration: DurNs,
        faults: &mut FaultReport,
    ) -> Option<Burst> {
        match record {
            Record::RegionEnter { region, .. } => {
                self.region_stack.push(*region);
                None
            }
            Record::RegionExit { region, .. } => {
                // Tolerate unbalanced exits: pop only on match.
                if self.region_stack.last() == Some(region) {
                    self.region_stack.pop();
                }
                None
            }
            Record::CommExit { time, counters, .. } => {
                let enclosing = self.region_stack.last().copied().unwrap_or(RegionId::UNKNOWN);
                self.open = Some((*time, *counters, enclosing));
                None
            }
            Record::CommEnter { time, counters, .. } => {
                let (start, start_counters, enclosing) = self.open.take()?;
                if time.saturating_since(start) < min_duration || *time <= start {
                    return None;
                }
                if let Some(kind) = counters.first_decrease_since(&start_counters) {
                    faults.push(
                        Fault::new(
                            FaultKind::CounterOverflow,
                            format!(
                                "counter decreased across burst at t={}..{} ({} -> {}); burst quarantined",
                                start.0,
                                time.0,
                                start_counters.as_array()[kind.index()],
                                counters.as_array()[kind.index()],
                            ),
                        )
                        .on_rank(rank.0)
                        .on_counter(kind)
                        .severity(Severity::Warning),
                    );
                    return None;
                }
                let ordinal = self.ordinal;
                self.ordinal += 1;
                Some(Burst {
                    id: BurstId { rank, ordinal },
                    start,
                    end: *time,
                    start_counters,
                    counters: counters.delta_since(&start_counters),
                    enclosing,
                })
            }
            Record::Sample(_) => None,
        }
    }
}

/// Extracts all computation bursts of a trace, rank by rank.
pub fn extract_bursts(trace: &Trace, min_duration: DurNs) -> Vec<Burst> {
    let mut faults = FaultReport::new();
    extract_bursts_checked(trace, min_duration, &mut faults)
}

/// Fault-aware variant of [`extract_bursts`]; see
/// [`extract_rank_bursts_checked`].
pub fn extract_bursts_checked(
    trace: &Trace,
    min_duration: DurNs,
    faults: &mut FaultReport,
) -> Vec<Burst> {
    let mut out = Vec::new();
    for (rank, stream) in trace.iter_ranks() {
        out.extend(extract_rank_bursts_checked(rank, stream, min_duration, faults));
    }
    out
}

/// Returns the sampling records of `stream` that fall inside `[start, end)`.
///
/// Uses binary search over the time-ordered record vector, so repeated
/// queries over many bursts stay cheap.
pub fn samples_within<'a>(
    stream: &'a RankTrace,
    start: TimeNs,
    end: TimeNs,
) -> impl Iterator<Item = &'a crate::event::Sample> {
    let records = stream.records();
    let lo = records.partition_point(|r| r.time() < start);
    records[lo..]
        .iter()
        .take_while(move |r| r.time() < end)
        .filter_map(|r| match r {
            Record::Sample(s) => Some(s),
            _ => None,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callstack::CallStack;
    use crate::counter::{CounterKind, PartialCounterSet};
    use crate::event::{CommKind, Sample};

    fn counters(ins: f64) -> CounterSet {
        let mut c = CounterSet::ZERO;
        c[CounterKind::Instructions] = ins;
        c
    }

    fn comm_exit(t: u64, ins: f64) -> Record {
        Record::CommExit { time: TimeNs(t), kind: CommKind::Collective, counters: counters(ins) }
    }

    fn comm_enter(t: u64, ins: f64) -> Record {
        Record::CommEnter { time: TimeNs(t), kind: CommKind::Collective, counters: counters(ins) }
    }

    fn sample(t: u64) -> Record {
        Record::Sample(Sample {
            time: TimeNs(t),
            counters: PartialCounterSet::EMPTY,
            callstack: CallStack::empty().into(),
        })
    }

    fn build_stream(records: Vec<Record>) -> RankTrace {
        let mut rt = RankTrace::new();
        for r in records {
            rt.push(r).unwrap();
        }
        rt
    }

    #[test]
    fn extracts_bursts_between_comms() {
        let rt = build_stream(vec![
            comm_exit(100, 10.0),
            sample(150),
            comm_enter(200, 60.0),
            comm_exit(250, 60.0),
            comm_enter(400, 200.0),
        ]);
        let bursts = extract_rank_bursts(RankId(0), &rt, DurNs::ZERO);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].start, TimeNs(100));
        assert_eq!(bursts[0].end, TimeNs(200));
        assert_eq!(bursts[0].counters[CounterKind::Instructions], 50.0);
        assert_eq!(bursts[1].duration(), DurNs(150));
        assert_eq!(bursts[1].counters[CounterKind::Instructions], 140.0);
        assert_eq!(bursts[0].id, BurstId { rank: RankId(0), ordinal: 0 });
        assert_eq!(bursts[1].id.ordinal, 1);
    }

    #[test]
    fn prologue_without_boundary_read_is_skipped() {
        let rt = build_stream(vec![sample(10), comm_enter(100, 5.0), comm_exit(120, 5.0)]);
        let bursts = extract_rank_bursts(RankId(0), &rt, DurNs::ZERO);
        assert!(bursts.is_empty());
    }

    #[test]
    fn decreasing_counters_quarantine_the_burst() {
        // Burst 1 is clean; burst 2's counters go backwards (saturation or
        // wrap-around) and must be quarantined, not produce a bogus delta.
        let rt = build_stream(vec![
            comm_exit(100, 10.0),
            comm_enter(200, 60.0),
            comm_exit(250, 1e19), // saturated boundary read
            comm_enter(400, 200.0),
            comm_exit(450, 200.0),
            comm_enter(600, 320.0),
        ]);
        let mut faults = FaultReport::new();
        let bursts = extract_rank_bursts_checked(RankId(0), &rt, DurNs::ZERO, &mut faults);
        assert_eq!(bursts.len(), 2, "clean bursts must survive");
        assert_eq!(bursts[0].counters[CounterKind::Instructions], 50.0);
        assert_eq!(bursts[1].counters[CounterKind::Instructions], 120.0);
        assert_eq!(faults.len(), 1);
        let fault = &faults.faults[0];
        assert_eq!(fault.kind, FaultKind::CounterOverflow);
        assert_eq!(fault.severity, Severity::Warning);
        // The unchecked wrapper silently skips the same burst.
        assert_eq!(extract_rank_bursts(RankId(0), &rt, DurNs::ZERO).len(), 2);
    }

    #[test]
    fn min_duration_filters_short_bursts() {
        let rt = build_stream(vec![
            comm_exit(0, 0.0),
            comm_enter(10, 1.0), // 10 ns burst
            comm_exit(20, 1.0),
            comm_enter(1020, 9.0), // 1000 ns burst
        ]);
        let bursts = extract_rank_bursts(RankId(0), &rt, DurNs(100));
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].duration(), DurNs(1000));
    }

    #[test]
    fn enclosing_region_is_tracked() {
        let region = RegionId(7);
        let rt = build_stream(vec![
            Record::RegionEnter { time: TimeNs(0), region },
            comm_exit(10, 0.0),
            comm_enter(50, 1.0),
            Record::RegionExit { time: TimeNs(60), region },
            comm_exit(70, 1.0),
            comm_enter(90, 2.0),
        ]);
        let bursts = extract_rank_bursts(RankId(0), &rt, DurNs::ZERO);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].enclosing, region);
        assert_eq!(bursts[1].enclosing, RegionId::UNKNOWN);
    }

    #[test]
    fn samples_within_uses_half_open_interval() {
        let rt = build_stream(vec![
            comm_exit(100, 0.0),
            sample(100),
            sample(150),
            sample(200),
            comm_enter(200, 1.0),
        ]);
        let times: Vec<u64> =
            samples_within(&rt, TimeNs(100), TimeNs(200)).map(|s| s.time.0).collect();
        assert_eq!(times, vec![100, 150]);
    }

    #[test]
    fn extract_bursts_covers_all_ranks() {
        let mut trace = Trace::with_ranks(Default::default(), 2);
        for r in 0..2u32 {
            let stream = trace.rank_mut(RankId(r)).unwrap();
            stream.push(comm_exit(0, 0.0)).unwrap();
            stream.push(comm_enter(100, 1.0)).unwrap();
        }
        let bursts = extract_bursts(&trace, DurNs::ZERO);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].id.rank, RankId(0));
        assert_eq!(bursts[1].id.rank, RankId(1));
    }

    #[test]
    fn zero_length_burst_is_dropped() {
        let rt = build_stream(vec![comm_exit(100, 0.0), comm_enter(100, 0.0)]);
        assert!(extract_rank_bursts(RankId(0), &rt, DurNs::ZERO).is_empty());
    }
}
