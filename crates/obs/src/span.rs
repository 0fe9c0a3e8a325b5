//! Structured spans with thread-local buffering.
//!
//! A [`SpanGuard`] stamps its start on construction and records one
//! [`SpanEvent`] into the executing thread's local buffer when dropped.
//! The buffer flushes into the global registry in whole chunks — on
//! overflow, on thread exit (thread-local destructor), or when a snapshot
//! drains the calling thread — so workers almost never touch the global
//! lock.
//!
//! When a [`crate::trace::TraceCtx`] is adopted on the thread, each span
//! additionally carries `(trace_id, span_id, parent_id)` so spans from
//! different threads reassemble into one per-request tree, and finished
//! spans are mirrored into any active per-trace capture (see
//! [`crate::trace`]).
//!
//! The global registry retains at most [`MAX_RETAINED_SPANS`] flushed
//! spans: an always-on daemon that is never scraped must not grow without
//! bound, so the oldest spans are discarded (and counted under
//! `obs.spans_dropped`) once the cap is hit.

use crate::now_ns;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One completed span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanEvent {
    /// Human-readable name (Chrome-trace `name`).
    pub name: String,
    /// Lane (thread) the span executed on (Chrome-trace `tid`).
    pub lane: u32,
    /// Start, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Trace (request) this span belongs to; 0 = no trace context.
    pub trace_id: u64,
    /// Process-unique span id; 0 when recorded without a trace context.
    pub span_id: u64,
    /// Enclosing span's id; 0 = root of its trace (or no context).
    pub parent_id: u64,
}

/// Spans buffered per thread before this many trigger a flush.
const FLUSH_AT: usize = 256;

/// Flushed spans retained globally before the oldest are discarded.
pub const MAX_RETAINED_SPANS: usize = 64 * 1024;

/// Globally flushed spans plus registered lane names.
#[derive(Default)]
struct Registry {
    spans: Vec<SpanEvent>,
    lane_names: Vec<(u32, String)>,
    dropped: u64,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock_registry() -> MutexGuard<'static, Registry> {
    // Span data stays valid across a writer panic; recover from poison.
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

/// Thread-local span buffer; its destructor flushes whatever is left when
/// the thread exits, so pool workers never lose spans.
struct ThreadBuf {
    lane: u32,
    buf: Vec<SpanEvent>,
}

impl ThreadBuf {
    fn new() -> ThreadBuf {
        ThreadBuf { lane: NEXT_LANE.fetch_add(1, Ordering::Relaxed), buf: Vec::new() }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            let mut reg = lock_registry();
            reg.spans.append(&mut self.buf);
            if reg.spans.len() > MAX_RETAINED_SPANS {
                let excess = reg.spans.len() - MAX_RETAINED_SPANS;
                reg.spans.drain(..excess);
                reg.dropped += excess as u64;
            }
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// Names the calling thread's lane in exported traces (e.g.
/// `pool-worker-3`). Last registration for a lane wins.
pub fn set_lane_name(name: &str) {
    let lane = TLS.with(|t| t.borrow().lane);
    let mut reg = lock_registry();
    if let Some(entry) = reg.lane_names.iter_mut().find(|(l, _)| *l == lane) {
        entry.1 = name.to_string();
    } else {
        reg.lane_names.push((lane, name.to_string()));
    }
}

/// The lane-name table (lane id → human name) without draining spans.
pub fn lane_names() -> Vec<(u32, String)> {
    lock_registry().lane_names.clone()
}

/// Flushes the calling thread's buffered spans into the global registry.
pub fn flush_thread() {
    TLS.with(|t| t.borrow_mut().flush());
}

/// Drains all flushed spans (after flushing the calling thread) and the
/// lane-name table. Spans buffered on *other live* threads stay there
/// until those threads flush or exit.
pub fn take_spans() -> (Vec<SpanEvent>, Vec<(u32, String)>) {
    flush_thread();
    let mut reg = lock_registry();
    if reg.dropped > 0 {
        crate::metrics::counter_add("obs.spans_dropped", reg.dropped);
        reg.dropped = 0;
    }
    (std::mem::take(&mut reg.spans), reg.lane_names.clone())
}

/// RAII span: stamps the clock on construction, records on drop.
///
/// Construct through [`crate::span!`], which wraps the name in a closure
/// so it is only built when observability is enabled.
#[must_use = "a span measures until the guard drops"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    name: String,
    start_ns: u64,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
}

impl SpanGuard {
    /// Opens a span named by `name()` if observability is enabled;
    /// otherwise returns an inert guard without evaluating `name`.
    pub fn begin(name: impl FnOnce() -> String) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { open: None };
        }
        let (trace_id, span_id, parent_id) = crate::trace::enter_span();
        SpanGuard {
            open: Some(OpenSpan { name: name(), start_ns: now_ns(), trace_id, span_id, parent_id }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(open.start_ns);
        crate::trace::exit_span(open.trace_id, open.parent_id);
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            let ev = SpanEvent {
                name: open.name,
                lane: t.lane,
                start_ns: open.start_ns,
                dur_ns,
                trace_id: open.trace_id,
                span_id: open.span_id,
                parent_id: open.parent_id,
            };
            crate::trace::sink_record(&ev);
            t.buf.push(ev);
            if t.buf.len() >= FLUSH_AT {
                t.flush();
            }
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    // The span registry and the enabled flag are process-global; these
    // tests serialise on the crate's test lock and filter drained spans by
    // their own names so the rest of the suite cannot interfere.

    #[test]
    fn disabled_spans_record_nothing_and_skip_the_name() {
        let _serial = crate::test_lock();
        crate::set_enabled(false);
        let mut evaluated = false;
        {
            let _g = SpanGuard::begin(|| {
                evaluated = true;
                "test.s.disabled".into()
            });
        }
        assert!(!evaluated, "name closure must not run when disabled");
        let (spans, _) = take_spans();
        assert!(spans.iter().all(|s| s.name != "test.s.disabled"));
    }

    #[test]
    fn enabled_spans_are_recorded_with_consistent_times() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        {
            let _outer = crate::span!("test.s.outer");
            let _inner = crate::span!("test.s.inner {}", 42);
        }
        crate::set_enabled(false);
        let (spans, _) = take_spans();
        let outer = spans.iter().find(|s| s.name == "test.s.outer").expect("outer span");
        let inner = spans.iter().find(|s| s.name == "test.s.inner 42").expect("inner span");
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert_eq!(inner.lane, outer.lane);
        // No trace context adopted → untraced spans.
        assert_eq!(outer.trace_id, 0);
        assert_eq!(outer.span_id, 0);
    }

    #[test]
    fn traced_spans_carry_ids_and_parentage() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let ctx = crate::trace::TraceCtx::mint();
        {
            let _g = ctx.adopt();
            let _outer = crate::span!("test.s.t_outer");
            let _inner = crate::span!("test.s.t_inner");
        }
        crate::set_enabled(false);
        let (spans, _) = take_spans();
        let outer = spans.iter().find(|s| s.name == "test.s.t_outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "test.s.t_inner").expect("inner");
        assert_eq!(outer.trace_id, ctx.trace_id());
        assert_eq!(inner.trace_id, ctx.trace_id());
        assert_ne!(outer.span_id, 0);
        assert_eq!(outer.parent_id, 0);
        assert_eq!(inner.parent_id, outer.span_id);
    }

    #[test]
    fn worker_thread_spans_flush_on_exit() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        // An explicit join waits for the thread to exit, TLS destructors
        // included; the implicit join at the end of `thread::scope` only
        // waits for the closure, so it can return before the flush.
        std::thread::spawn(|| {
            set_lane_name("test-worker");
            let _g = crate::span!("test.s.worker");
        })
        .join()
        .unwrap();
        crate::set_enabled(false);
        let (spans, lanes) = take_spans();
        let ev = spans.iter().find(|s| s.name == "test.s.worker").expect("worker span flushed");
        assert!(lanes.iter().any(|(l, n)| *l == ev.lane && n == "test-worker"));
        assert!(lane_names().iter().any(|(_, n)| n == "test-worker"));
    }
}
