//! The tracer proper: turns simulated ground-truth timelines into the trace
//! an Extrae-like tool would record — instrumented communication boundaries
//! (with exact counter reads), function enter/exit markers, and coarse
//! periodic samples, all perturbed by the instrumentation overhead model.

use crate::config::{MultiplexMode, TracerConfig};
use phasefold_model::{
    CallStack, PartialCounterSet, RankId, RankTrace, Record, Sample, SourceRegistry, TimeNs,
    Trace,
};
use phasefold_simapp::timeline::{RankTimeline, SegmentKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Traces one simulated run.
///
/// `registry` is the program's region table (cloned into the trace);
/// `timelines` are the per-rank ground truths from
/// [`phasefold_simapp::simulate`].
pub fn trace_run(
    registry: &SourceRegistry,
    timelines: &[RankTimeline],
    config: &TracerConfig,
) -> Trace {
    let _sp = phasefold_obs::span!("tracer.trace_run");
    config.validate();
    let mut trace = Trace::with_ranks(registry.clone(), timelines.len());
    for (r, timeline) in timelines.iter().enumerate() {
        let rank = RankId(r as u32);
        let stream = trace_rank(timeline, config, r as u64);
        // `with_ranks(timelines.len())` guarantees the slot exists; if the
        // invariant ever breaks, drop the rank instead of aborting the run.
        match trace.rank_mut(rank) {
            Some(slot) => *slot = stream,
            None => {
                phasefold_obs::counter!("tracer.ranks_dropped", 1);
            }
        }
    }
    if phasefold_obs::enabled() {
        // Sampling-overhead gauges: how much data the tracer produced and
        // how far its overhead model dilated the run.
        let (mut samples, mut events) = (0usize, 0usize);
        for (_, stream) in trace.iter_ranks() {
            for r in stream.records() {
                if r.is_sample() {
                    samples += 1;
                } else {
                    events += 1;
                }
            }
        }
        let base_wall_s =
            timelines.iter().map(|t| t.end_time().as_secs_f64()).fold(0.0, f64::max);
        let dilated_wall_s = trace.end_time().as_secs_f64();
        phasefold_obs::gauge!("tracer.samples", samples);
        phasefold_obs::gauge!("tracer.events", events);
        phasefold_obs::gauge!(
            "tracer.sampling_period_s",
            config.sampling_period.as_secs_f64()
        );
        phasefold_obs::gauge!(
            "tracer.relative_dilation",
            if base_wall_s > 0.0 { (dilated_wall_s - base_wall_s) / base_wall_s } else { 0.0 }
        );
    }
    trace
}

/// Overhead statistics of a traced run (experiment E5).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverheadReport {
    /// Samples taken across all ranks.
    pub samples: usize,
    /// Instrumented events across all ranks.
    pub events: usize,
    /// Un-dilated wall time of the longest rank (seconds).
    pub base_wall_s: f64,
    /// Dilated wall time of the longest rank (seconds).
    pub dilated_wall_s: f64,
}

impl OverheadReport {
    /// Relative dilation (`0.01` = 1 % slower).
    pub fn relative_dilation(&self) -> f64 {
        if self.base_wall_s <= 0.0 {
            0.0
        } else {
            (self.dilated_wall_s - self.base_wall_s) / self.base_wall_s
        }
    }
}

/// Traces a run and also reports the overhead it would have imposed.
pub fn trace_run_with_overhead(
    registry: &SourceRegistry,
    timelines: &[RankTimeline],
    config: &TracerConfig,
) -> (Trace, OverheadReport) {
    let trace = trace_run(registry, timelines, config);
    let mut report = OverheadReport::default();
    for (_, stream) in trace.iter_ranks() {
        report.samples += stream.records().iter().filter(|r| r.is_sample()).count();
        report.events += stream.records().iter().filter(|r| !r.is_sample()).count();
    }
    report.base_wall_s = timelines
        .iter()
        .map(|t| t.end_time().as_secs_f64())
        .fold(0.0, f64::max);
    report.dilated_wall_s = trace.end_time().as_secs_f64();
    (trace, report)
}

/// Builds one rank's record stream.
fn trace_rank(timeline: &RankTimeline, config: &TracerConfig, rank_salt: u64) -> RankTrace {
    let mut rng = StdRng::seed_from_u64(config.seed ^ rank_salt.wrapping_mul(0x9E37_79B9));
    let end = timeline.end_time();

    // 1. Sampling instants with jitter.
    let mut sample_times: Vec<TimeNs> = Vec::new();
    let period = config.sampling_period.as_secs_f64();
    let mut t = 0.0f64;
    loop {
        let jitter = if config.jitter_fraction > 0.0 {
            period * config.jitter_fraction * (rng.gen::<f64>() * 2.0 - 1.0)
        } else {
            0.0
        };
        t += (period + jitter).max(period * 0.01);
        let tn = TimeNs::from_secs_f64(t);
        if tn >= end {
            break;
        }
        sample_times.push(tn);
    }

    // 2. Merge three record sources in time order: markers, comm
    //    boundaries, samples. All carry *true* times first; overhead
    //    dilation shifts them afterwards.
    #[derive(Debug)]
    enum Raw {
        Marker { at: TimeNs, region: phasefold_model::RegionId, enter: bool },
        CommEnter { at: TimeNs, kind: phasefold_model::CommKind },
        CommExit { at: TimeNs, kind: phasefold_model::CommKind },
        Sample { at: TimeNs },
    }
    let mut raw: Vec<Raw> = Vec::new();
    for &(at, region, enter) in timeline.markers() {
        raw.push(Raw::Marker { at, region, enter });
    }
    for seg in timeline.segments() {
        if let SegmentKind::Comm { kind } = seg.kind {
            raw.push(Raw::CommEnter { at: seg.start, kind });
            raw.push(Raw::CommExit { at: seg.end, kind });
        }
    }
    for &at in &sample_times {
        raw.push(Raw::Sample { at });
    }
    raw.sort_by_key(|r| match r {
        Raw::Marker { at, .. }
        | Raw::CommEnter { at, .. }
        | Raw::CommExit { at, .. }
        | Raw::Sample { at } => *at,
    });

    // 3. Emit records, accumulating overhead dilation.
    let mut stream = RankTrace::new();
    let mut shift_s = 0.0f64;
    let mut mux_round = 0usize;
    for r in raw {
        let result = match r {
            Raw::Marker { at, region, enter } => {
                shift_s += config.overhead.per_event_s;
                let time = dilate(at, shift_s);
                if enter {
                    stream.push(Record::RegionEnter { time, region })
                } else {
                    stream.push(Record::RegionExit { time, region })
                }
            }
            Raw::CommEnter { at, kind } => {
                shift_s += config.overhead.per_event_s;
                let counters = timeline.counters_at(at);
                stream.push(Record::CommEnter { time: dilate(at, shift_s), kind, counters })
            }
            Raw::CommExit { at, kind } => {
                shift_s += config.overhead.per_event_s;
                let counters = timeline.counters_at(at);
                stream.push(Record::CommExit { time: dilate(at, shift_s), kind, counters })
            }
            Raw::Sample { at } => {
                shift_s += config.overhead.per_sample_s;
                let full = timeline.counters_at(at);
                let counters = match &config.multiplex {
                    MultiplexMode::ReadAll => PartialCounterSet::from_full(&full),
                    MultiplexMode::RoundRobin(groups) => {
                        let group = &groups[mux_round % groups.len()];
                        mux_round += 1;
                        PartialCounterSet::project(&full, group)
                    }
                };
                let callstack = if config.capture_callstacks {
                    timeline.callstack_at(at)
                } else {
                    CallStack::empty()
                };
                stream.push(Record::Sample(Sample {
                    time: dilate(at, shift_s),
                    counters,
                    callstack: callstack.into(),
                }))
            }
        };
        // Raw records are time-sorted and dilation is monotone, so pushes
        // cannot go backwards in time on the expected path; a breach (e.g.
        // float rounding at extreme dilations) drops the record rather than
        // aborting the whole tracing run.
        if result.is_err() {
            phasefold_obs::counter!("tracer.records_dropped", 1);
        }
    }
    stream
}

fn dilate(at: TimeNs, shift_s: f64) -> TimeNs {
    TimeNs::from_secs_f64(at.as_secs_f64() + shift_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phasefold_model::{extract_bursts, CounterKind, DurNs};
    use phasefold_simapp::workloads::synthetic::{build, SyntheticParams};
    use phasefold_simapp::{simulate, SimConfig};

    fn sim() -> (phasefold_simapp::Program, phasefold_simapp::SimOutput) {
        let program = build(&SyntheticParams { iterations: 50, ..SyntheticParams::default() });
        let out = simulate(&program, &SimConfig { ranks: 2, ..SimConfig::default() });
        (program, out)
    }

    #[test]
    fn produces_records_for_every_rank() {
        let (program, out) = sim();
        let trace = trace_run(&program.registry, &out.timelines, &TracerConfig::default());
        assert_eq!(trace.num_ranks(), 2);
        for (_, stream) in trace.iter_ranks() {
            assert!(stream.len() > 100, "only {} records", stream.len());
        }
    }

    #[test]
    fn comm_boundaries_enable_burst_extraction() {
        let (program, out) = sim();
        let trace = trace_run(&program.registry, &out.timelines, &TracerConfig::default());
        let bursts = extract_bursts(&trace, DurNs::ZERO);
        // 50 iterations × 2 ranks, minus the prologue burst per rank.
        assert_eq!(bursts.len(), 2 * 49);
        for b in &bursts {
            assert!(b.counters[CounterKind::Instructions] > 0.0);
        }
    }

    #[test]
    fn sample_counts_scale_with_period() {
        let (program, out) = sim();
        let count = |period_ms: u64| {
            let cfg = TracerConfig {
                sampling_period: DurNs::from_millis(period_ms),
                ..TracerConfig::default()
            };
            let trace = trace_run(&program.registry, &out.timelines, &cfg);
            trace
                .rank(RankId(0))
                .unwrap()
                .records()
                .iter()
                .filter(|r| r.is_sample())
                .count()
        };
        let fine = count(2);
        let coarse = count(20);
        assert!(fine > 5 * coarse, "fine={fine} coarse={coarse}");
    }

    #[test]
    fn samples_carry_callstacks_in_compute() {
        let (program, out) = sim();
        let trace = trace_run(&program.registry, &out.timelines, &TracerConfig::default());
        let with_stack = trace
            .rank(RankId(0))
            .unwrap()
            .samples()
            .filter(|s| !s.callstack.is_empty())
            .count();
        assert!(with_stack > 0);
    }

    #[test]
    fn multiplexing_limits_counters_per_sample() {
        let (program, out) = sim();
        let groups = vec![
            vec![CounterKind::Instructions, CounterKind::Cycles],
            vec![CounterKind::L1DMisses, CounterKind::L2Misses],
        ];
        let cfg = TracerConfig {
            multiplex: MultiplexMode::RoundRobin(groups),
            ..TracerConfig::default()
        };
        let trace = trace_run(&program.registry, &out.timelines, &cfg);
        for s in trace.rank(RankId(0)).unwrap().samples() {
            assert_eq!(s.counters.len(), 2);
        }
        // Alternating groups: roughly half the samples carry INS.
        let samples: Vec<_> = trace.rank(RankId(0)).unwrap().samples().collect();
        let with_ins = samples
            .iter()
            .filter(|s| s.counters.get(CounterKind::Instructions).is_some())
            .count();
        assert!(with_ins * 3 > samples.len() && with_ins * 3 < 2 * samples.len() + 3);
    }

    #[test]
    fn overhead_dilates_recorded_times() {
        let (program, out) = sim();
        let free = TracerConfig {
            overhead: crate::config::OverheadConfig::FREE,
            ..TracerConfig::default()
        };
        let costly = TracerConfig {
            sampling_period: DurNs::from_micros(200),
            overhead: crate::config::OverheadConfig { per_sample_s: 50e-6, per_event_s: 1e-6 },
            ..TracerConfig::default()
        };
        let t_free = trace_run(&program.registry, &out.timelines, &free);
        let t_costly = trace_run(&program.registry, &out.timelines, &costly);
        assert!(t_costly.end_time() > t_free.end_time());
    }

    #[test]
    fn overhead_report_reflects_sampling_rate() {
        let (program, out) = sim();
        let report_for = |period_us: u64| {
            let cfg = TracerConfig {
                sampling_period: DurNs::from_micros(period_us),
                overhead: crate::config::OverheadConfig {
                    per_sample_s: 10e-6,
                    per_event_s: 0.2e-6,
                },
                ..TracerConfig::default()
            };
            trace_run_with_overhead(&program.registry, &out.timelines, &cfg).1
        };
        let fine = report_for(100);
        let coarse = report_for(10_000);
        assert!(fine.relative_dilation() > 5.0 * coarse.relative_dilation());
        assert!(coarse.relative_dilation() < 0.01, "{}", coarse.relative_dilation());
        assert!(fine.samples > coarse.samples);
    }

    #[test]
    fn deterministic_given_seed() {
        let (program, out) = sim();
        let cfg = TracerConfig::default();
        let a = trace_run(&program.registry, &out.timelines, &cfg);
        let b = trace_run(&program.registry, &out.timelines, &cfg);
        for (rank, stream) in a.iter_ranks() {
            assert_eq!(stream.records(), b.rank(rank).unwrap().records());
        }
    }

    #[test]
    fn sample_counters_match_ground_truth_when_free() {
        let (program, out) = sim();
        let cfg = TracerConfig {
            overhead: crate::config::OverheadConfig::FREE,
            ..TracerConfig::default()
        };
        let trace = trace_run(&program.registry, &out.timelines, &cfg);
        for s in trace.rank(RankId(0)).unwrap().samples().take(20) {
            let truth = out.timelines[0].counters_at(s.time);
            let got = s.counters.get(CounterKind::Instructions).unwrap();
            assert!((got - truth[CounterKind::Instructions]).abs() < 1.0, "at {}", s.time);
        }
    }
}
