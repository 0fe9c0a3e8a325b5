//! Fingerprint fixture builders shared by the matcher tests: phases with a
//! chosen span, IPC and source name, and single- or multi-cluster
//! fingerprints around them.

#![allow(dead_code)]

use phasefold_fleet::{ClusterFingerprint, Fingerprint, PhaseFingerprint, SourceRef};
use phasefold_model::{CounterKind, CounterSet};

pub fn rates(ipc: f64) -> CounterSet {
    let clock = 2.5e9;
    let mut r = CounterSet::ZERO;
    r[CounterKind::Instructions] = ipc * clock;
    r[CounterKind::Cycles] = clock;
    r[CounterKind::Loads] = 0.3 * ipc * clock;
    r[CounterKind::FpOps] = 0.2 * ipc * clock;
    r
}

/// A phase over `[x0, x1)` lasting `(x1 - x0)` ms, optionally attributed
/// to region `src` in `kernels.c`.
pub fn phase(index: usize, x0: f64, x1: f64, ipc: f64, src: Option<&str>) -> PhaseFingerprint {
    PhaseFingerprint {
        index,
        x0,
        x1,
        duration_s: (x1 - x0) * 1e-3,
        rates: rates(ipc),
        source: src.map(|name| SourceRef {
            name: name.to_string(),
            file: "kernels.c".to_string(),
            line: 10 + 10 * index as u32,
            confidence: 0.85,
        }),
    }
}

/// One burst cluster with the given mean burst duration.
pub fn cluster(
    cluster: usize,
    mean_duration_s: f64,
    phases: Vec<PhaseFingerprint>,
) -> ClusterFingerprint {
    let total_instructions = phases.iter().map(|p| p.rates.as_array()[0] * p.duration_s).sum();
    ClusterFingerprint {
        cluster,
        instances: 128,
        mean_duration_s,
        total_instructions,
        breakpoints: Vec::new(),
        slopes: Vec::new(),
        phases,
    }
}

/// A fingerprint of several clusters.
pub fn fp_clusters(build: &str, clusters: Vec<ClusterFingerprint>) -> Fingerprint {
    Fingerprint {
        build_id: build.to_string(),
        trace_id: "fixture".to_string(),
        num_bursts: 128,
        clusters,
    }
}

/// A one-cluster fingerprint whose burst is exactly its phases.
pub fn fp(build: &str, phases: Vec<PhaseFingerprint>) -> Fingerprint {
    let mean_duration_s = phases.iter().map(|p| p.duration_s).sum();
    fp_clusters(build, vec![cluster(0, mean_duration_s, phases)])
}
