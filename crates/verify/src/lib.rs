//! # phasefold-verify
//!
//! Differential and metamorphic correctness harness for the `phasefold`
//! pipeline. The paper's headline claim — folding plus piece-wise linear
//! regressions reproduce fine-grain instrumentation within a few percent —
//! only holds if the *optimized* kernels (block-pruned `segment_dp`,
//! sufficient-statistics Muggeo and hinge fits, kd-tree DBSCAN,
//! binary-search folding) compute
//! exactly what their textbook forms compute. This crate provides the
//! oracle for that:
//!
//! * [`reference`] — deliberately slow, obviously-correct re-implementations
//!   of the core kernels: exhaustive segmented least squares, brute-force
//!   O(n²) DBSCAN, the all-pairs k-dist curve and ε heuristic, a naive
//!   linear-scan re-fold, the Muggeo refinement
//!   and hinge fits with their design matrices built row by row, and the
//!   PRV parser on the standard library's string splitters. Each one
//!   is written from the spec with no shared tricks with the production
//!   crates (the row-wise fits share only the linear solvers).
//! * [`differential`] — runs fast kernel and reference on the same input
//!   and compares with exact (bit) or tolerance-documented equality.
//! * [`metamorphic`] — properties derived from the paper's math that need
//!   no reference at all: breakpoint invariance under time shift/scale,
//!   DBSCAN equivalence under permutation, fold equivalence under instance
//!   reordering, bit-identical analyses across thread counts,
//!   batch/online ingestion agreement, and NaN samples ending as faults,
//!   never as panics.
//! * [`generate`] — a seeded structured generator for random PRV traces and
//!   analysis configurations (the fuzzer's input domain).
//! * [`shrink`] — greedy delta-debugging of a failing trace spec down to a
//!   minimal repro.
//! * [`fuzz`] — the driver: one seed = one generated case run through every
//!   check; divergences are shrunk and can be written into the corpus.
//! * [`corpus`] — the checked-in `tests/corpus/` of minimized cases,
//!   replayed as a regression suite by `scripts/verify.sh`.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod corpus;
pub mod differential;
pub mod fuzz;
pub mod generate;
pub mod metamorphic;
pub mod reference;
pub mod shrink;

pub use fuzz::{run_seed, run_seeds, FuzzSummary};
pub use generate::{Case, CaseConfig, TraceSpec};

/// One disagreement between the production pipeline and an oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Name of the check that fired (e.g. `"segdp-exhaustive"`).
    pub check: &'static str,
    /// Seed of the generated case (0 for corpus replays).
    pub seed: u64,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Minimal reproducing case in corpus format, when shrinking ran.
    pub repro: Option<String>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] seed {}: {}", self.check, self.seed, self.detail)
    }
}
