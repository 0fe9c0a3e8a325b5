//! Trace records: the event stream a rank's tracer emits.
//!
//! The paper's mechanism deliberately combines **minimal instrumentation**
//! (events only at communication boundaries, where the tracer also reads the
//! full counter set) with **coarse-grain sampling** (periodic interrupts that
//! read a — possibly multiplexed — counter group and capture the call
//! stack). Both kinds of records live in one time-ordered stream per rank.

use crate::callstack::{CallStack, RegionId};
use crate::counter::{CounterSet, PartialCounterSet};
use crate::time::TimeNs;
use std::sync::Arc;

/// Kind of communication operation delimiting computation bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommKind {
    /// Point-to-point send.
    Send,
    /// Point-to-point receive.
    Recv,
    /// Collective over all ranks (allreduce-like, synchronising).
    Collective,
    /// Process-local barrier / wait.
    Wait,
}

impl CommKind {
    /// Stable mnemonic used by the trace format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CommKind::Send => "SEND",
            CommKind::Recv => "RECV",
            CommKind::Collective => "COLL",
            CommKind::Wait => "WAIT",
        }
    }

    /// Parses the mnemonic produced by [`CommKind::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<CommKind> {
        match s {
            "SEND" => Some(CommKind::Send),
            "RECV" => Some(CommKind::Recv),
            "COLL" => Some(CommKind::Collective),
            "WAIT" => Some(CommKind::Wait),
            _ => None,
        }
    }
}

/// A periodic sampling-interrupt record.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// When the sampling interrupt fired.
    pub time: TimeNs,
    /// Accumulated counter readings for the counter group active in this
    /// sampling round (full set when multiplexing is off).
    pub counters: PartialCounterSet,
    /// Captured call stack (may be empty if capture failed). Shared: the
    /// parser hands every sample of one stack the same `Arc`, and folding
    /// keeps it by reference. Equality and `Debug` see the stack's
    /// contents.
    pub callstack: Arc<CallStack>,
}

/// One record in a rank's event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// The instrumented application entered a user region.
    RegionEnter {
        /// Timestamp.
        time: TimeNs,
        /// Region entered.
        region: RegionId,
    },
    /// The instrumented application left a user region.
    RegionExit {
        /// Timestamp.
        time: TimeNs,
        /// Region left.
        region: RegionId,
    },
    /// A communication operation began. The tracer reads the full counter
    /// set here — this is the "minimal instrumentation" the paper relies
    /// on: these reads delimit computation bursts exactly.
    CommEnter {
        /// Timestamp.
        time: TimeNs,
        /// Operation kind.
        kind: CommKind,
        /// Accumulated counters at burst end.
        counters: CounterSet,
    },
    /// A communication operation completed; the next computation burst
    /// starts here, with these accumulated counter readings as its base.
    CommExit {
        /// Timestamp.
        time: TimeNs,
        /// Operation kind.
        kind: CommKind,
        /// Accumulated counters at burst start.
        counters: CounterSet,
    },
    /// A periodic sampling interrupt fired.
    Sample(Sample),
}

impl Record {
    /// Timestamp of the record.
    pub fn time(&self) -> TimeNs {
        match self {
            Record::RegionEnter { time, .. }
            | Record::RegionExit { time, .. }
            | Record::CommEnter { time, .. }
            | Record::CommExit { time, .. } => *time,
            Record::Sample(s) => s.time,
        }
    }

    /// True for sampling records.
    pub fn is_sample(&self) -> bool {
        matches!(self, Record::Sample(_))
    }

    /// True for communication boundary records.
    pub fn is_comm(&self) -> bool {
        matches!(self, Record::CommEnter { .. } | Record::CommExit { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_kind_mnemonics_roundtrip() {
        for k in [CommKind::Send, CommKind::Recv, CommKind::Collective, CommKind::Wait] {
            assert_eq!(CommKind::from_mnemonic(k.mnemonic()), Some(k));
        }
        assert_eq!(CommKind::from_mnemonic("NOPE"), None);
    }

    #[test]
    fn record_time_accessor() {
        let r = Record::RegionEnter { time: TimeNs(42), region: RegionId(0) };
        assert_eq!(r.time(), TimeNs(42));
        assert!(!r.is_sample());
        assert!(!r.is_comm());

        let c = Record::CommEnter {
            time: TimeNs(7),
            kind: CommKind::Collective,
            counters: CounterSet::ZERO,
        };
        assert_eq!(c.time(), TimeNs(7));
        assert!(c.is_comm());

        let s = Record::Sample(Sample {
            time: TimeNs(9),
            counters: PartialCounterSet::EMPTY,
            callstack: Arc::new(CallStack::empty()),
        });
        assert_eq!(s.time(), TimeNs(9));
        assert!(s.is_sample());
    }

    #[test]
    fn record_holds_its_sample_stack_by_pointer() {
        // Ten optional counter values (160 bytes), the time and one
        // pointer: the stack's frames live behind the shared `Arc`.
        assert_eq!(std::mem::size_of::<Record>(), 176);
    }
}
