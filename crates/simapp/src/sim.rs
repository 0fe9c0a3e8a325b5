//! One-call simulation driver: program → per-rank ground-truth timelines +
//! ground truth, with per-rank work fanned out across threads.

use crate::engine::{unroll, unroll_scaled, ScriptItem};
use crate::groundtruth::GroundTruth;
use crate::kernel::CpuConfig;
use crate::noise::NoiseConfig;
use crate::program::Program;
use crate::spmd::{schedule, CommConfig};
use crate::timeline::RankTimeline;

/// Full configuration of a simulated run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Core model.
    pub cpu: CpuConfig,
    /// Network model.
    pub comm: CommConfig,
    /// Noise model (per-rank streams derived from `seed`).
    pub noise: NoiseConfig,
    /// Number of SPMD ranks.
    pub ranks: usize,
    /// Master seed; rank `r` uses `seed ⊕ hash(r)`.
    pub seed: u64,
    /// Systematic load-imbalance spread: rank `r`'s speed factor is
    /// `1 + spread·(r/(P−1) − 0.5)` (0 = perfectly balanced). With
    /// `spread = 0.2`, the slowest rank runs 10 % slower than nominal and
    /// the fastest 10 % faster; collectives absorb the gap as waiting.
    pub rank_speed_spread: f64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            cpu: CpuConfig::default(),
            comm: CommConfig::default(),
            noise: NoiseConfig::quiet(),
            ranks: 8,
            seed: 0xF01D,
            rank_speed_spread: 0.0,
        }
    }
}

/// Result of a simulated run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// One ground-truth timeline per rank.
    pub timelines: Vec<RankTimeline>,
    /// Exact phase structure (from the noiseless script).
    pub ground_truth: GroundTruth,
}

/// Runs `program` under `config`.
///
/// Rank unrolling is embarrassingly parallel and is fanned out with scoped
/// threads; scheduling (inter-rank coupling) is sequential by nature.
pub fn simulate(program: &Program, config: &SimConfig) -> SimOutput {
    assert!(config.ranks > 0, "need at least one rank");
    let mut scripts: Vec<Vec<ScriptItem>> = vec![Vec::new(); config.ranks];
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get()).min(config.ranks);
    let chunk = config.ranks.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slot) in scripts.chunks_mut(chunk).enumerate() {
            let base_rank = t * chunk;
            let ranks_total = config.ranks;
            scope.spawn(move || {
                for (i, out) in slot.iter_mut().enumerate() {
                    let rank = (base_rank + i) as u64;
                    let speed = if ranks_total > 1 {
                        1.0 + config.rank_speed_spread
                            * (rank as f64 / (ranks_total - 1) as f64 - 0.5)
                    } else {
                        1.0
                    };
                    *out = unroll_scaled(
                        program,
                        &config.cpu,
                        config.noise,
                        config.seed ^ rank.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        speed,
                    );
                }
            });
        }
    });

    let scheduled = schedule(&scripts, &config.comm);
    let timelines = scheduled
        .iter()
        .map(|s| RankTimeline::from_scheduled(s, config.cpu.clock_hz))
        .collect();
    let noiseless = unroll(program, &config.cpu, NoiseConfig::NONE, 0);
    SimOutput {
        timelines,
        ground_truth: GroundTruth::from_script(&noiseless),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::synthetic::{build, SyntheticParams};
    use phasefold_model::{CounterKind, TimeNs};

    fn small_config(ranks: usize) -> SimConfig {
        SimConfig { ranks, ..SimConfig::default() }
    }

    fn small_program() -> Program {
        build(&SyntheticParams {
            iterations: 20,
            ..SyntheticParams::default()
        })
    }

    #[test]
    fn produces_one_timeline_per_rank() {
        let out = simulate(&small_program(), &small_config(4));
        assert_eq!(out.timelines.len(), 4);
        for tl in &out.timelines {
            assert!(!tl.segments().is_empty());
        }
    }

    #[test]
    fn deterministic_given_config() {
        let p = small_program();
        let cfg = small_config(3);
        let a = simulate(&p, &cfg);
        let b = simulate(&p, &cfg);
        for (ta, tb) in a.timelines.iter().zip(&b.timelines) {
            assert_eq!(ta.end_time(), tb.end_time());
            assert_eq!(ta.segments().len(), tb.segments().len());
        }
    }

    #[test]
    fn ranks_have_noise_individualised() {
        let out = simulate(&small_program(), &small_config(2));
        let compute_instr = |tl: &crate::timeline::RankTimeline| -> f64 {
            tl.segments()
                .iter()
                .filter(|s| matches!(s.kind, crate::timeline::SegmentKind::Compute { .. }))
                .map(|s| s.delta[CounterKind::Instructions])
                .sum()
        };
        // Same program -> same application instructions on every rank
        // (communication spin instructions differ with waiting time).
        let i0 = compute_instr(&out.timelines[0]);
        let i1 = compute_instr(&out.timelines[1]);
        assert!((i0 - i1).abs() < 1e-6 * i0);
        // ...but noise makes progress differ at some interior point.
        let t_half = TimeNs(out.timelines[0].end_time().0 / 2);
        let c0 = out.timelines[0].counters_at(t_half)[CounterKind::Instructions];
        let c1 = out.timelines[1].counters_at(t_half)[CounterKind::Instructions];
        assert_ne!(c0, c1);
    }

    #[test]
    fn ground_truth_present() {
        let out = simulate(&small_program(), &small_config(2));
        assert!(!out.ground_truth.templates.is_empty());
        assert_eq!(out.ground_truth.dominant_template().unwrap().num_phases(), 3);
    }

    #[test]
    fn single_rank_works() {
        let out = simulate(&small_program(), &small_config(1));
        assert_eq!(out.timelines.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        simulate(&small_program(), &small_config(0));
    }

    #[test]
    fn speed_spread_creates_imbalance_waiting() {
        let p = small_program();
        let balanced = simulate(&p, &small_config(4));
        let imbalanced = simulate(
            &p,
            &SimConfig { ranks: 4, rank_speed_spread: 0.4, ..SimConfig::default() },
        );
        // Fast ranks wait in collectives: their comm time share grows.
        let comm_time = |out: &SimOutput, r: usize| -> f64 {
            out.timelines[r]
                .segments()
                .iter()
                .filter(|s| matches!(s.kind, crate::timeline::SegmentKind::Comm { .. }))
                .map(|s| s.end.saturating_since(s.start).as_secs_f64())
                .sum()
        };
        // Rank 3 is the fastest under positive spread -> most waiting.
        assert!(comm_time(&imbalanced, 3) > 2.0 * comm_time(&balanced, 3));
        // The whole run is paced by the slowest rank (rank 0, 20 % slow).
        assert!(
            imbalanced.timelines[0].end_time() > balanced.timelines[0].end_time(),
            "imbalanced run must be longer"
        );
    }
}
