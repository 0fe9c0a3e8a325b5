//! # phasefold
//!
//! Rust reproduction of *"Identifying Code Phases Using Piece-Wise Linear
//! Regressions"* (Servat, Llort, González, Giménez, Labarta — IEEE IPDPS
//! 2014, DOI 10.1109/IPDPS.2014.100).
//!
//! The mechanism combines **piece-wise linear regressions**, **coarse-grain
//! sampling** and **minimal instrumentation** to detect performance phases
//! inside the computation regions of parallel applications — even when
//! phase granularity is far below the sampling period — and maps each
//! phase's node-level performance back onto the application's syntactical
//! structure (function, file, line).
//!
//! ## Pipeline
//!
//! ```text
//! trace (events + coarse samples)
//!   └─ burst extraction      phasefold-model
//!   └─ DBSCAN clustering     phasefold-cluster
//!   └─ folding               phasefold-folding
//!   └─ PWLR fitting          phasefold-regress
//!   └─ phases + metrics + source mapping   (this crate)
//! ```
//!
//! ## Quick start
//!
//! ```
//! use phasefold::{run_study, AnalysisConfig};
//! use phasefold::report::render_report;
//! use phasefold_simapp::workloads::cg::{build, CgParams};
//! use phasefold_simapp::SimConfig;
//! use phasefold_tracer::TracerConfig;
//!
//! let program = build(&CgParams { iterations: 60, ..CgParams::default() });
//! let study = run_study(
//!     &program,
//!     &SimConfig { ranks: 2, ..SimConfig::default() },
//!     &TracerConfig::default(),
//!     &AnalysisConfig::default(),
//! );
//! let report = render_report(&study.analysis, &study.trace.registry);
//! assert!(report.contains("cluster"));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod driver;
pub mod eval;
pub mod export;
pub mod metrics;
pub mod phase;
pub mod pipeline;
pub mod pool;
pub mod online;
pub mod report;
pub mod signal;
pub mod srcmap;
pub mod unfold;

pub use config::AnalysisConfig;
pub use driver::{run_study, StudyOutput};
pub use eval::{match_models_to_templates, rate_profile_error, score_boundaries, BoundaryScore};
pub use metrics::{Bottleneck, PhaseMetrics};
pub use phase::{ClusterPhaseModel, Phase};
pub use pipeline::{analyze_trace, try_analyze_trace, Analysis};
pub use pool::TaskPanic;
pub use online::OnlineAnalyzer;
pub use signal::{activity_signal, detect_trace_period, ActivitySignal, TracePeriod};
pub use srcmap::SourceAttribution;
pub use unfold::{reconstruct, RankReconstruction, ReconSegment};

// The fault taxonomy lives in the dependency-free base crate so every
// stage can speak it; re-exported here as `phasefold::fault` because the
// pipeline is where policies are applied.
pub use phasefold_model::fault;
pub use phasefold_model::{Fault, FaultKind, FaultPolicy, FaultReport, Severity};

// Re-export the substrate crates so downstream users need a single
// dependency.
pub use phasefold_cluster as cluster;
pub use phasefold_folding as folding;
pub use phasefold_model as model;
pub use phasefold_regress as regress;
pub use phasefold_simapp as simapp;
pub use phasefold_tracer as tracer;
