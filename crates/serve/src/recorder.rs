//! The flight recorder: a bounded in-memory record of completed requests.
//!
//! Two retention policies run side by side:
//!
//! * **Recent ring** — the last `capacity` request summaries in completion
//!   order (oldest evicted first), cheap enough to keep for every request.
//! * **Slowest-N** — full span captures for the `slowest_keep` requests
//!   with the largest total latency seen so far. A sampled request's
//!   captured span tree rides along with its summary, so
//!   `GET /debug/trace/{id}` can replay a slow request as Chrome-trace
//!   JSON long after it finished.
//!
//! Everything is behind one mutex taken once per completed request —
//! nanoseconds against request latencies in the micro- to milli-second
//! range — and all memory is bounded by the two capacities.

use crate::queue::lock_recover;
use phasefold_obs::export::json_escape;
use phasefold_obs::span::SpanEvent;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// What the recorder keeps for every completed request.
#[derive(Debug, Clone)]
pub struct RequestSummary {
    /// Request (trace) id, as answered in `x-request-id`.
    pub id: u64,
    /// Coarse endpoint label (`analyze`, `healthz`, …).
    pub endpoint: &'static str,
    /// Request path as received.
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Time the analysis job spent queued (0 for non-analysis requests).
    pub queue_ns: u64,
    /// Time the analysis job spent executing (0 for non-analysis requests).
    pub analyze_ns: u64,
    /// Wall time from request parse to response ready.
    pub total_ns: u64,
    /// Whether the result cache answered.
    pub cache_hit: bool,
    /// Faults quarantined while handling the request.
    pub faults: u64,
}

impl RequestSummary {
    /// One single-line JSON object (greppable, like the metrics export).
    /// A retained slow request also reports how many spans it kept.
    pub fn to_json(&self, spans_retained: Option<usize>) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{ \"id\": {}, \"endpoint\": \"{}\", \"path\": \"{}\", \"status\": {}, \
             \"queue_ms\": {:.3}, \"analyze_ms\": {:.3}, \"total_ms\": {:.3}, \
             \"cache_hit\": {}, \"faults\": {}",
            self.id,
            self.endpoint,
            json_escape(&self.path),
            self.status,
            self.queue_ns as f64 / 1e6,
            self.analyze_ns as f64 / 1e6,
            self.total_ns as f64 / 1e6,
            self.cache_hit,
            self.faults,
        );
        if let Some(n) = spans_retained {
            let _ = write!(out, ", \"spans_retained\": {n}");
        }
        out.push_str(" }");
        out
    }
}

/// A retained slow request: its summary plus the captured span tree.
#[derive(Debug, Clone)]
pub struct SlowRequest {
    /// The request's summary, as in the recent ring.
    pub summary: RequestSummary,
    /// Spans captured under the request's trace id, completion order.
    pub spans: Vec<SpanEvent>,
}

struct Inner {
    recent: VecDeque<RequestSummary>,
    slowest: Vec<SlowRequest>,
}

/// See the module docs.
pub struct FlightRecorder {
    capacity: usize,
    slowest_keep: usize,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// A recorder retaining `capacity` recent summaries and full span
    /// captures for the `slowest_keep` slowest requests.
    pub fn new(capacity: usize, slowest_keep: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            slowest_keep,
            inner: Mutex::new(Inner {
                recent: VecDeque::with_capacity(capacity.min(1024)),
                slowest: Vec::with_capacity(slowest_keep.min(64)),
            }),
        }
    }

    /// Records a completed request. `spans` is `Some` only when the
    /// request was sampled for capture; an unsampled request can still
    /// appear in the recent ring but never in the slowest set (there is
    /// nothing to replay for it).
    pub fn record(&self, summary: RequestSummary, spans: Option<Vec<SpanEvent>>) {
        let mut inner = lock_recover(&self.inner);
        if self.capacity > 0 {
            if inner.recent.len() == self.capacity {
                inner.recent.pop_front();
            }
            inner.recent.push_back(summary.clone());
        }
        let Some(spans) = spans else { return };
        if self.slowest_keep == 0 {
            return;
        }
        let full = inner.slowest.len() == self.slowest_keep;
        if full && summary.total_ns <= inner.slowest.last().map_or(0, |s| s.summary.total_ns) {
            return;
        }
        // Keep the set sorted by total latency, slowest first; ties keep
        // the earlier request (stable position search).
        let pos = inner
            .slowest
            .partition_point(|s| s.summary.total_ns >= summary.total_ns);
        inner.slowest.insert(pos, SlowRequest { summary, spans });
        inner.slowest.truncate(self.slowest_keep);
    }

    /// Recent summaries, newest first.
    pub fn recent(&self) -> Vec<RequestSummary> {
        lock_recover(&self.inner).recent.iter().rev().cloned().collect()
    }

    /// Retained slow requests (summary + captured span count), slowest
    /// first.
    pub fn slowest(&self) -> Vec<(RequestSummary, usize)> {
        lock_recover(&self.inner)
            .slowest
            .iter()
            .map(|s| (s.summary.clone(), s.spans.len()))
            .collect()
    }

    /// The retained slow request with id `id`, if still retained.
    pub fn trace(&self, id: u64) -> Option<SlowRequest> {
        lock_recover(&self.inner).slowest.iter().find(|s| s.summary.id == id).cloned()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn summary(id: u64, total_ns: u64) -> RequestSummary {
        RequestSummary {
            id,
            endpoint: "analyze",
            path: "/v1/analyze".to_string(),
            status: 200,
            queue_ns: 10,
            analyze_ns: total_ns / 2,
            total_ns,
            cache_hit: false,
            faults: 0,
        }
    }

    #[test]
    fn recent_ring_evicts_oldest_first() {
        let rec = FlightRecorder::new(3, 0);
        for id in 1..=5u64 {
            rec.record(summary(id, 100), None);
        }
        let ids: Vec<u64> = rec.recent().iter().map(|s| s.id).collect();
        // Newest first; ids 1 and 2 were evicted in order.
        assert_eq!(ids, vec![5, 4, 3]);
    }

    #[test]
    fn slowest_set_keeps_the_n_largest_with_spans() {
        let rec = FlightRecorder::new(16, 2);
        rec.record(summary(1, 500), Some(vec![SpanEvent::default()]));
        rec.record(summary(2, 100), Some(vec![SpanEvent::default()]));
        rec.record(summary(3, 900), Some(vec![SpanEvent::default(), SpanEvent::default()]));
        rec.record(summary(4, 300), Some(vec![SpanEvent::default()]));
        let slowest: Vec<u64> = rec.slowest().iter().map(|(s, _)| s.id).collect();
        assert_eq!(slowest, vec![3, 1], "slowest first, smaller ones evicted");
        assert!(rec.trace(3).is_some());
        assert_eq!(rec.trace(3).unwrap().spans.len(), 2);
        assert!(rec.trace(2).is_none(), "evicted from the slowest set");
    }

    #[test]
    fn unsampled_requests_never_enter_the_slowest_set() {
        let rec = FlightRecorder::new(4, 4);
        rec.record(summary(1, u64::MAX), None);
        assert!(rec.slowest().is_empty());
        assert_eq!(rec.recent().len(), 1);
    }

    #[test]
    fn summary_json_is_single_line() {
        let json = summary(7, 2_000_000).to_json(None);
        assert!(!json.contains('\n'));
        assert!(json.contains("\"id\": 7"));
        assert!(json.contains("\"total_ms\": 2.000"));
        assert!(json.ends_with("\"faults\": 0 }"), "{json}");
        let slow = summary(7, 2_000_000).to_json(Some(3));
        assert!(slow.ends_with("\"faults\": 0, \"spans_retained\": 3 }"), "{slow}");
    }
}
