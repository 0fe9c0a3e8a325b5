//! # phasefold-obs
//!
//! Dependency-free observability layer for the phasefold workspace:
//! structured spans with request-scoped trace contexts ([`trace`]),
//! counters and gauges with thread-local hot paths, lock-free latency
//! histograms ([`hist`]), and exporters (human-readable summary, JSON
//! metrics dump, Prometheus text exposition, Chrome-trace span export) so
//! the phase-detection tool can profile *itself* — in production, not
//! just on the bench.
//!
//! ## Design
//!
//! The whole layer is gated on one process-global atomic flag
//! ([`set_enabled`]). Every instrumentation site — [`span!`], [`counter!`],
//! [`gauge!`] — first performs a single `Relaxed` load of that flag and
//! does nothing else when observability is off, so instrumentation inside
//! worker threads costs ~a nanosecond per site when disabled. Span names are
//! built through a closure the macro wraps around the format arguments, so
//! even the `format!` allocation is skipped on the disabled path.
//!
//! When enabled:
//!
//! * **Spans** are buffered in a thread-local `Vec` (one cache-friendly
//!   push per span, no synchronisation) and flushed into the global
//!   registry in whole-buffer chunks — when the buffer fills, when the
//!   thread exits (thread-local destructor), or at snapshot time. The
//!   global side only sees one lock acquisition per few hundred spans.
//! * **Counters/gauges** resolve their `&'static str` name to an
//!   `Arc<AtomicU64>` cell once per thread (thread-local cache); every
//!   subsequent update is a single lock-free `fetch_add` / `store` /
//!   `fetch_max` on the shared cell.
//!
//! Instrumentation never feeds back into the analysis: spans and metrics
//! only *read* clocks and *write* side buffers, so an analysis run is
//! bit-identical with observability on or off (asserted by the golden
//! profile test in `phasefold-cli`).
//!
//! ## Exporters
//!
//! [`Snapshot`] captures everything recorded so far; [`export`] renders it
//! as a Chrome-trace/Perfetto JSON array (`chrome_trace_json`, loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>), a machine-readable
//! metrics dump (`metrics_json`), or a human summary table
//! (`summary_table`).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod export;
pub mod hist;
pub mod metrics;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Process-global master switch for spans and metrics.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-global log level (stderr logging), stored as `Level as u8`.
static LOG_LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);

/// Severity of a log line; also the value of the `--log-level` CLI option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Logging disabled.
    Off = 0,
    /// Unrecoverable or data-losing conditions.
    Error = 1,
    /// Suspicious but recoverable conditions.
    Warn = 2,
    /// Pipeline-stage progress lines.
    Info = 3,
    /// Per-cluster / per-fit detail.
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    /// Short lowercase tag used in log-line prefixes.
    pub fn tag(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Level, String> {
        match s {
            "off" => Ok(Level::Off),
            "error" => Ok(Level::Error),
            "warn" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level {other:?} (expected off|error|warn|info|debug|trace)"
            )),
        }
    }
}

/// Turns span/metric recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span/metric recording is currently on. This is the only cost an
/// instrumentation site pays when observability is disabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the stderr log level.
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current stderr log level.
pub fn log_level() -> Level {
    match LOG_LEVEL.load(Ordering::Relaxed) {
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        4 => Level::Debug,
        5 => Level::Trace,
        _ => Level::Off,
    }
}

/// Whether a log line at `level` would currently be emitted.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level != Level::Off && level <= log_level()
}

/// Monotonic process epoch; every span timestamp is relative to this.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process observability epoch (first call wins).
/// Monotonic by construction (`Instant`), so exported span timestamps are
/// always consistent.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Everything recorded so far: spans, lane names, counters, gauges.
///
/// Taking a snapshot flushes the calling thread's span buffer first; other
/// live threads' unflushed buffers are *not* stolen (they flush on exit or
/// overflow), which is fine for the intended use — snapshots are taken
/// after parallel stages have joined.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Completed spans in flush order.
    pub spans: Vec<span::SpanEvent>,
    /// Lane id → human name (threads that registered one).
    pub lanes: Vec<(u32, String)>,
    /// Monotonic counters (includes `*_max` watermark counters).
    pub counters: Vec<(String, u64)>,
    /// Last-write gauges.
    pub gauges: Vec<(String, f64)>,
    /// Latency histograms (values in nanoseconds), name-sorted.
    pub hists: Vec<hist::HistogramSnapshot>,
}

/// Captures a snapshot of all recorded observability data.
pub fn snapshot() -> Snapshot {
    let (spans, lanes) = span::take_spans();
    let (counters, gauges) = metrics::metrics_snapshot();
    Snapshot { spans, lanes, counters, gauges, hists: hist::hist_snapshot() }
}

/// Clears all recorded spans and zeroes all metrics and histograms
/// (registrations and lane names survive). Call before a run whose
/// profile should not include earlier activity.
pub fn reset() {
    let _ = span::take_spans();
    metrics::reset_metrics();
    hist::reset_hists();
}

/// Serialises this crate's unit tests that toggle [`set_enabled`] or drain
/// spans: both are process-global, and the harness runs tests
/// concurrently. Recovers from poisoning so one failure reports as one.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Opens a span that closes when the returned guard drops.
///
/// The format arguments are only evaluated when observability is enabled.
///
/// ```
/// let _guard = phasefold_obs::span!("fit cluster {}", 3);
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        $crate::span::SpanGuard::begin(|| format!($($arg)*))
    };
}

/// Adds `delta` to the named monotonic counter (no-op when disabled).
///
/// The name must be `&'static str`; it is the registry key.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::metrics::counter_add($name, $delta as u64);
        }
    };
}

/// Raises the named watermark counter to at least `value` (no-op when
/// disabled). Used for high-water marks such as queue depth.
#[macro_export]
macro_rules! counter_peak {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::metrics::counter_max($name, $value as u64);
        }
    };
}

/// Sets the named gauge to `value` (last write wins; no-op when disabled).
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::metrics::gauge_set($name, $value as f64);
        }
    };
}

/// Records `value` (nanoseconds by convention) into the named lock-free
/// latency histogram (no-op when disabled).
///
/// The name must be `&'static str`; it is the registry key.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::hist::hist_record($name, $value as u64);
        }
    };
}

/// Writes a log line to stderr when the global log level admits `level`.
///
/// ```
/// use phasefold_obs::Level;
/// phasefold_obs::log!(Level::Info, "analysis: {} bursts", 1234);
/// ```
#[macro_export]
macro_rules! log {
    ($level:expr, $($arg:tt)*) => {
        if $crate::log_enabled($level) {
            eprintln!("[phasefold {}] {}", $level.tag(), format!($($arg)*));
        }
    };
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_and_orders() {
        assert_eq!("info".parse::<Level>().unwrap(), Level::Info);
        assert!("bogus".parse::<Level>().is_err());
        assert!(Level::Error < Level::Trace);
        assert_eq!(Level::Warn.tag(), "warn");
    }

    #[test]
    fn log_enabled_respects_level() {
        set_log_level(Level::Warn);
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        set_log_level(Level::Off);
        assert!(!log_enabled(Level::Error));
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
