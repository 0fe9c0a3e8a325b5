//! # phasefold-fleet
//!
//! Phase-aware comparison of two runs, and fleet-scale regression
//! detection built on it. The paper's end goal is finding the small code
//! changes that win 10–30%; at production scale the inverse matters more —
//! detecting when a deploy *loses* 10% and naming the phase and
//! `file:line` responsible. This crate is the workspace's one phase
//! matcher: `phasefold compare`, `phasefold regress-check`,
//! `POST /v1/compare` and the E6 case studies all read its verdict. It
//! provides three pieces:
//!
//! 1. **Fingerprints** ([`Fingerprint`]): a compact, versioned per-phase
//!    summary of an [`Analysis`](phasefold::Analysis) — breakpoints,
//!    per-counter rates, cluster burst signatures, *resolved* source
//!    attribution, durations — serialized in the workspace's checksummed
//!    `PFFP v1` frame. A fingerprint is self-contained: comparing two of
//!    them needs neither trace nor source registry resident.
//! 2. **Store** ([`FingerprintStore`]): a content-addressed on-disk store
//!    keyed by build id + trace identity, written with the workspace's
//!    one atomic writer (`phasefold_model::codec::write_atomic`), so a
//!    daemon accumulates a bounded history of builds.
//! 3. **Matching** ([`compare_fingerprints`]): phase-aware matching across
//!    fingerprint pairs that tolerates phases shifting, splitting and
//!    merging between builds — source identity first, then performance
//!    *signature* similarity, then span overlap, with many-to-one span
//!    coverage resolving splits and merges — and a verdict with per-phase
//!    duration, IPC and L3 MPKI deltas against a regression threshold,
//!    rendered as text ([`render_verdict`]) or JSON ([`verdict_json`]).
//!
//! Surfaces live elsewhere: `POST /v1/fingerprints` + `POST /v1/compare`
//! on phasefold-serve, and the `phasefold compare` / CI-gateable
//! `phasefold regress-check` subcommands. Accuracy is measured by E21
//! (`exp_regress`): detection recall and false-positive rate over simapp
//! before/after pairs with injected slowdowns, gated by
//! `scripts/regress.sh`.
//!
//! Grounded in "Tracing Optimization for Performance Modeling and
//! Regression Detection" (arXiv:2411.17548) and the SPMD
//! similarity-analysis work (arXiv:0906.1326).

#![warn(missing_docs)]
#![deny(unsafe_code)]
// A fleet check runs in CI and inside the serve daemon: a panic on a
// corrupt fingerprint file or a degenerate analysis must surface as a
// typed error, never take the gate (or a connection thread) down.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod fingerprint;
pub mod matching;
pub mod store;

pub use fingerprint::{
    ClusterFingerprint, Fingerprint, PhaseFingerprint, SourceRef, FINGERPRINT_MAGIC,
    FINGERPRINT_VERSION,
};
pub use matching::{
    compare_fingerprints, render_verdict, verdict_json, CompareVerdict, MatchConfig, MatchKind,
    MatchShape, PhaseNote, PhaseVerdict,
};
pub use store::{FingerprintStore, StoredFingerprint};
