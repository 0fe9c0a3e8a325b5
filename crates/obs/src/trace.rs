//! Request-scoped trace contexts and per-request span capture.
//!
//! A [`TraceCtx`] is minted once per request (a monotonic, process-unique
//! trace id) and carried by value across thread boundaries: a server
//! accept loop mints it, queue jobs [`TraceCtx::adopt`]
//! it, and every [`crate::span!`] opened while a context is adopted is
//! stamped with the trace id plus a parent/child span-id pair. Spans
//! recorded on different threads therefore reassemble into one tree per
//! request.
//!
//! Capture is opt-in and sampled: [`begin_capture`] registers interest in
//! one trace id, after which every finished span belonging to that trace
//! is *also* cloned into a side buffer (the normal thread-local buffering
//! is unaffected); [`end_capture`] detaches and returns the buffer. When
//! no capture is active the per-span cost is a single relaxed atomic load,
//! so leaving tracing always-on in production is safe — the serve
//! flight-recorder relies on exactly that.

use crate::span::SpanEvent;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Next trace id to mint; 0 is reserved for "no context".
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Next span id; 0 is reserved for "no span" / "root of trace".
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Number of traces currently being captured. The span-drop hot path
/// checks this before touching the capture lock, so the always-on cost of
/// the capture machinery is one relaxed load per span.
static ACTIVE_CAPTURES: AtomicUsize = AtomicUsize::new(0);

/// Spans captured per trace are bounded so one pathological request
/// cannot grow the sink without limit; overflow is counted, not stored.
const CAPTURE_CAP: usize = 16 * 1024;

thread_local! {
    /// `(trace id, current span id)` for the executing thread;
    /// `(0, 0)` means no context is adopted.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct CaptureBuf {
    spans: Vec<SpanEvent>,
    dropped: u64,
}

fn sink() -> &'static Mutex<HashMap<u64, CaptureBuf>> {
    static SINK: OnceLock<Mutex<HashMap<u64, CaptureBuf>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_sink() -> MutexGuard<'static, HashMap<u64, CaptureBuf>> {
    // A panic while holding the sink lock poisons it; the data (a list of
    // finished spans) is still valid, so recover rather than propagate.
    sink().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A request-scoped trace context: a process-unique trace id plus the span
/// under which new spans on the adopting thread should parent themselves.
///
/// `Copy` on purpose — the context is designed to be captured by `move`
/// closures that hop threads (queue jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    trace_id: u64,
    parent_span: u64,
}

impl TraceCtx {
    /// Mints a fresh context with a new process-unique trace id.
    pub fn mint() -> TraceCtx {
        TraceCtx { trace_id: NEXT_TRACE.fetch_add(1, Ordering::Relaxed), parent_span: 0 }
    }

    /// The trace (request) id. Never 0.
    pub fn trace_id(self) -> u64 {
        self.trace_id
    }

    /// The calling thread's current context, if one is adopted. The
    /// returned context parents new spans under the caller's *currently
    /// open* span, so work handed to another thread nests correctly.
    pub fn current() -> Option<TraceCtx> {
        let (trace_id, parent_span) = CURRENT.with(Cell::get);
        (trace_id != 0).then_some(TraceCtx { trace_id, parent_span })
    }

    /// Installs this context on the calling thread until the returned
    /// guard drops (the previous context, if any, is restored).
    #[must_use = "the context is uninstalled when the guard drops"]
    pub fn adopt(self) -> AdoptGuard {
        let prev = CURRENT.with(|c| c.replace((self.trace_id, self.parent_span)));
        AdoptGuard { prev }
    }
}

/// RAII guard returned by [`TraceCtx::adopt`]; restores the previously
/// installed context on drop.
pub struct AdoptGuard {
    prev: (u64, u64),
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Called by `SpanGuard::begin`: allocates a span id under the current
/// context and makes it the parent for nested spans. Returns
/// `(trace_id, span_id, parent_id)` — all zero when no context is adopted.
pub(crate) fn enter_span() -> (u64, u64, u64) {
    let (trace_id, parent) = CURRENT.with(Cell::get);
    if trace_id == 0 {
        return (0, 0, 0);
    }
    let span_id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    CURRENT.with(|c| c.set((trace_id, span_id)));
    (trace_id, span_id, parent)
}

/// Called by `SpanGuard::drop`: restores the parent span as current.
pub(crate) fn exit_span(trace_id: u64, parent: u64) {
    if trace_id != 0 {
        CURRENT.with(|c| c.set((trace_id, parent)));
    }
}

/// Starts capturing finished spans that belong to `trace_id`. Capture is
/// idempotent per id; pair with [`end_capture`].
pub fn begin_capture(trace_id: u64) {
    if trace_id == 0 {
        return;
    }
    let mut sink = lock_sink();
    if sink
        .insert(trace_id, CaptureBuf { spans: Vec::new(), dropped: 0 })
        .is_none()
    {
        ACTIVE_CAPTURES.fetch_add(1, Ordering::Relaxed);
    }
}

/// Stops capturing `trace_id` and returns the spans collected so far (in
/// completion order). Returns an empty vec if capture was never begun.
pub fn end_capture(trace_id: u64) -> Vec<SpanEvent> {
    let mut sink = lock_sink();
    match sink.remove(&trace_id) {
        Some(buf) => {
            ACTIVE_CAPTURES.fetch_sub(1, Ordering::Relaxed);
            if buf.dropped > 0 {
                crate::metrics::counter_add("obs.capture_spans_dropped", buf.dropped);
            }
            buf.spans
        }
        None => Vec::new(),
    }
}

/// Hot-path hook from `SpanGuard::drop`: clones the finished span into the
/// capture buffer for its trace, if one is active.
pub(crate) fn sink_record(ev: &SpanEvent) {
    if ev.trace_id == 0 || ACTIVE_CAPTURES.load(Ordering::Relaxed) == 0 {
        return;
    }
    let mut sink = lock_sink();
    if let Some(buf) = sink.get_mut(&ev.trace_id) {
        if buf.spans.len() < CAPTURE_CAP {
            buf.spans.push(ev.clone());
        } else {
            buf.dropped += 1;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_unique_and_nonzero() {
        let a = TraceCtx::mint();
        let b = TraceCtx::mint();
        assert_ne!(a.trace_id(), 0);
        assert_ne!(a.trace_id(), b.trace_id());
    }

    #[test]
    fn adopt_installs_and_restores() {
        assert_eq!(TraceCtx::current(), None);
        let ctx = TraceCtx::mint();
        {
            let _g = ctx.adopt();
            assert_eq!(TraceCtx::current().unwrap().trace_id(), ctx.trace_id());
            let inner = TraceCtx::mint();
            {
                let _g2 = inner.adopt();
                assert_eq!(TraceCtx::current().unwrap().trace_id(), inner.trace_id());
            }
            assert_eq!(TraceCtx::current().unwrap().trace_id(), ctx.trace_id());
        }
        assert_eq!(TraceCtx::current(), None);
    }

    #[test]
    fn spans_inherit_trace_and_parentage_across_threads() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let ctx = TraceCtx::mint();
        begin_capture(ctx.trace_id());
        {
            let _g = ctx.adopt();
            let _root = crate::span!("test.t.root");
            // current() inside the open root span parents under it.
            let handed = TraceCtx::current().unwrap();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _g = handed.adopt();
                    let _child = crate::span!("test.t.child");
                });
            });
        }
        crate::set_enabled(false);
        let spans = end_capture(ctx.trace_id());
        let root = spans.iter().find(|s| s.name == "test.t.root").expect("root captured");
        let child = spans.iter().find(|s| s.name == "test.t.child").expect("child captured");
        assert_eq!(root.trace_id, ctx.trace_id());
        assert_eq!(child.trace_id, ctx.trace_id());
        assert_eq!(root.parent_id, 0);
        assert_eq!(child.parent_id, root.span_id);
        assert_ne!(child.lane, root.lane);
    }

    #[test]
    fn capture_is_scoped_to_one_trace() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let watched = TraceCtx::mint();
        let other = TraceCtx::mint();
        begin_capture(watched.trace_id());
        {
            let _g = other.adopt();
            let _sp = crate::span!("test.t.unwatched");
        }
        {
            let _g = watched.adopt();
            let _sp = crate::span!("test.t.watched");
        }
        crate::set_enabled(false);
        let spans = end_capture(watched.trace_id());
        assert!(spans.iter().any(|s| s.name == "test.t.watched"));
        assert!(spans.iter().all(|s| s.name != "test.t.unwatched"));
    }

    #[test]
    fn end_capture_without_begin_is_empty() {
        assert!(end_capture(u64::MAX).is_empty());
    }
}
