//! Analysis configuration.

use phasefold_cluster::ClusterConfig;
use phasefold_folding::FoldConfig;
use phasefold_model::{DurNs, FaultPolicy};
use phasefold_regress::{BootstrapConfig, PwlrConfig};

/// Configuration of the end-to-end phase analysis.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Bursts shorter than this are discarded before clustering (they are
    /// dominated by instrumentation noise).
    pub min_burst_duration: DurNs,
    /// Structure-detection (clustering) settings.
    pub cluster: ClusterConfig,
    /// Folding settings.
    pub fold: FoldConfig,
    /// Piece-wise linear regression settings. The *instructions* profile
    /// defines the phase structure; every other counter is re-fitted with
    /// the instruction breakpoints held fixed, exactly as the original tool
    /// derives all metrics from one folded structure.
    pub pwlr: PwlrConfig,
    /// Minimum folded points a cluster needs before fitting is attempted.
    pub min_folded_points: usize,
    /// Instance-level bootstrap for breakpoint/slope confidence intervals
    /// (`None` skips it; it multiplies fitting cost by ~2× the replicate
    /// count).
    pub bootstrap: Option<BootstrapConfig>,
    /// Accepted and ignored: the analysis runs on the calling thread, one
    /// fold after another, whatever the value. Callers that want several
    /// traces analysed at once run one analysis per thread (as the
    /// daemon's `--workers` does).
    pub threads: Option<usize>,
    /// How faults recorded during the analysis change control flow:
    /// [`FaultPolicy::Lenient`] (the default) quarantines the offending
    /// counter/fold and completes with a populated fault report;
    /// [`FaultPolicy::Strict`] makes [`crate::try_analyze_trace`] return
    /// the first `Error`-severity fault instead of a result.
    pub fault_policy: FaultPolicy,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            min_burst_duration: DurNs::from_micros(10),
            cluster: ClusterConfig::default(),
            fold: FoldConfig::default(),
            pwlr: PwlrConfig::default(),
            min_folded_points: 30,
            bootstrap: None,
            threads: None,
            fault_policy: FaultPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_consistent() {
        let c = AnalysisConfig::default();
        assert!(!c.min_burst_duration.is_zero());
        assert!(c.min_folded_points > c.pwlr.max_segments);
        assert!(c.pwlr.monotone, "folded counters are monotone by construction");
    }
}
