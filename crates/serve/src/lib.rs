//! # phasefold-serve
//!
//! A dependency-free analysis daemon over the phasefold pipeline:
//! `std::net` HTTP/1.1, a bounded job queue with backpressure, streaming
//! PRV ingestion into [`phasefold::OnlineAnalyzer`] sessions, and an
//! in-memory LRU of rendered reports keyed by the request body (two
//! independent hashes + length + fault policy).
//!
//! ```no_run
//! use phasefold_serve::{serve, ServeConfig};
//!
//! let handle = serve(ServeConfig::default())?;
//! println!("listening on {}", handle.addr());
//! let stats = handle.join(); // until SIGTERM or POST /admin/shutdown
//! assert!(stats.clean);
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! Network-facing code must degrade, not die: the whole crate denies
//! `unwrap`/`expect` (tests excepted), worker panics are isolated by the
//! queue, and every protocol defect maps onto a 4xx/5xx answer.

#![warn(missing_docs)]
// Overridden only in `shutdown` (signal(2)) and `sys` (epoll/pipe, Linux):
// the raw readiness syscalls behind the event loop.
#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod client;
mod event;
pub mod http;
pub mod queue;
pub mod recorder;
pub mod server;
pub mod shutdown;
pub mod store;
mod sys;
pub mod wal;

pub use cache::{BodyKey, CacheStats, Cached, ResultCache};
pub use client::{one_shot, Client, Response};
pub use queue::{JobQueue, SubmitError};
pub use recorder::{FlightRecorder, RequestSummary, SlowRequest};
pub use server::{serve, DrainStats, ServeConfig, ServerHandle};
pub use store::{Durability, RecoveredSession, SessionStore};
pub use wal::Wal;
