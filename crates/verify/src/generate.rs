//! Seeded structured generation of PRV traces and analysis configurations.
//!
//! The fuzzer does not mutate raw bytes: it generates a [`TraceSpec`] — a
//! structured description of ranks, burst templates, and per-burst sample
//! schedules — and deterministically renders it into a [`Trace`]. Working
//! in spec space keeps every generated trace *valid* (monotone times,
//! accumulating counters unless deliberately saturated), makes shrinking a
//! matter of deleting spec elements, and lets metamorphic checks rebuild
//! the same program under a time shift or scale exactly.

use phasefold::AnalysisConfig;
use phasefold_model::{
    CallStack, CommKind, CounterKind, CounterSet, FaultPolicy, PartialCounterSet, RankId, Record,
    Sample, SourceRegistry, TimeNs, Trace,
};
use rand::{Rng, SeedableRng};
use rand::rngs::StdRng;

/// The slice of [`AnalysisConfig`] the fuzzer varies, in a form that can be
/// round-tripped through a corpus-file header line.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseConfig {
    /// Minimum burst duration in microseconds.
    pub min_burst_us: u64,
    /// DBSCAN core threshold.
    pub min_pts: usize,
    /// Explicit ε (`None` = derive from the k-dist curve).
    pub eps: Option<f64>,
    /// MAD multiplier for outlier-instance pruning.
    pub mad_k: f64,
    /// Minimum surviving instances per folded cluster.
    pub min_instances: usize,
    /// Minimum folded points before fitting is attempted.
    pub min_folded_points: usize,
    /// Maximum PWLR segments.
    pub max_segments: usize,
    /// Strict fault policy (lenient otherwise).
    pub strict: bool,
}

impl Default for CaseConfig {
    fn default() -> CaseConfig {
        CaseConfig {
            min_burst_us: 10,
            min_pts: 4,
            eps: None,
            mad_k: 3.0,
            min_instances: 4,
            min_folded_points: 30,
            max_segments: 4,
            strict: false,
        }
    }
}

impl CaseConfig {
    /// Expands into a full [`AnalysisConfig`] (defaults elsewhere).
    pub fn to_analysis(&self) -> AnalysisConfig {
        let mut config = AnalysisConfig {
            min_burst_duration: phasefold_model::DurNs::from_micros(self.min_burst_us),
            ..AnalysisConfig::default()
        };
        config.cluster.min_pts = self.min_pts;
        config.cluster.eps = self.eps;
        config.fold.mad_k = self.mad_k;
        config.fold.min_instances = self.min_instances;
        config.min_folded_points = self.min_folded_points;
        config.pwlr.max_segments = self.max_segments;
        config.fault_policy = if self.strict { FaultPolicy::Strict } else { FaultPolicy::Lenient };
        config
    }

    /// Renders the corpus header form, e.g.
    /// `min_burst_us=10 min_pts=4 eps=auto mad_k=3 ...`.
    pub fn render(&self) -> String {
        format!(
            "min_burst_us={} min_pts={} eps={} mad_k={} min_instances={} min_folded_points={} max_segments={} policy={}",
            self.min_burst_us,
            self.min_pts,
            self.eps.map_or("auto".to_string(), |e| format!("{e:?}")),
            self.mad_k,
            self.min_instances,
            self.min_folded_points,
            self.max_segments,
            if self.strict { "strict" } else { "lenient" },
        )
    }

    /// Parses the [`CaseConfig::render`] form. Unknown keys are an error so
    /// a corpus file cannot silently lose a constraint to a typo.
    pub fn parse(line: &str) -> Result<CaseConfig, String> {
        let mut config = CaseConfig::default();
        for kv in line.split_whitespace() {
            let (key, value) = kv.split_once('=').ok_or_else(|| format!("bad key=value `{kv}`"))?;
            fn parsed<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
                value.parse().map_err(|_| format!("bad value for {key}: `{value}`"))
            }
            match key {
                "min_burst_us" => config.min_burst_us = parsed(key, value)?,
                "min_pts" => config.min_pts = parsed(key, value)?,
                "eps" => {
                    config.eps =
                        if value == "auto" { None } else { Some(parsed(key, value)?) }
                }
                "mad_k" => config.mad_k = parsed(key, value)?,
                "min_instances" => config.min_instances = parsed(key, value)?,
                "min_folded_points" => config.min_folded_points = parsed(key, value)?,
                "max_segments" => config.max_segments = parsed(key, value)?,
                "policy" => config.strict = value == "strict",
                _ => return Err(format!("unknown config key `{key}`")),
            }
        }
        Ok(config)
    }
}

/// One burst shape: per-segment instruction rates (equal-length segments —
/// the piece-wise linear structure the PWLR fit must recover) plus a
/// constant cycle rate.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstTemplate {
    /// Nominal duration in nanoseconds.
    pub dur_ns: u64,
    /// Instructions per nanosecond, one rate per equal-length segment.
    pub instr_rates: Vec<f64>,
    /// Cycles per nanosecond (constant across the burst).
    pub cycle_rate: f64,
}

/// One burst occurrence in a rank's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstInstance {
    /// Which [`TraceSpec::templates`] entry this instantiates.
    pub template: usize,
    /// Communication gap preceding the burst (ns).
    pub gap_ns: u64,
    /// Actual duration (template duration with jitter applied), ns.
    pub dur_ns: u64,
    /// Number of samples to fire inside the burst.
    pub samples: u32,
    /// Simulate a counter wrap: end-of-burst counters *below* the start.
    pub saturate: bool,
}

/// A structured trace description; rendering it is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Burst shapes shared by all ranks.
    pub templates: Vec<BurstTemplate>,
    /// Per-rank burst sequences.
    pub ranks: Vec<Vec<BurstInstance>>,
}

impl TraceSpec {
    /// Renders the spec into a [`Trace`], with every time first shifted by
    /// `offset_ns` and then multiplied by `scale` (both exact integer
    /// operations, which is what makes the shift/scale metamorphic checks
    /// bit-exact at the folding layer).
    pub fn build(&self, offset_ns: u64, scale: u64) -> Trace {
        let t = |ns: u64| TimeNs((ns + offset_ns) * scale);
        let mut trace = Trace::with_ranks(SourceRegistry::new(), self.ranks.len());
        for (r, instances) in self.ranks.iter().enumerate() {
            let stream = match trace.rank_mut(RankId(r as u32)) {
                Some(s) => s,
                None => continue,
            };
            let mut now: u64 = 1_000; // small lead-in before the first burst
            let mut counters = CounterSet::ZERO;
            for inst in instances {
                let template = &self.templates[inst.template % self.templates.len().max(1)];
                now += inst.gap_ns.max(1);
                // Burst start: communication ends here.
                let start = now;
                let start_counters = counters;
                let _ = stream.push(Record::CommExit {
                    time: t(start),
                    kind: CommKind::Collective,
                    counters: start_counters,
                });
                // Samples at evenly spaced interior offsets, with counter
                // readings integrated from the segment rates.
                for s in 0..inst.samples {
                    let frac = (s as u64 + 1) * inst.dur_ns / (inst.samples as u64 + 1);
                    let abs = integrate(template, inst.dur_ns, frac).add(&start_counters);
                    let mut partial = PartialCounterSet::EMPTY;
                    partial.set(CounterKind::Instructions, abs[CounterKind::Instructions]);
                    partial.set(CounterKind::Cycles, abs[CounterKind::Cycles]);
                    let _ = stream.push(Record::Sample(Sample {
                        time: t(start + frac),
                        counters: partial,
                        callstack: CallStack::empty().into(),
                    }));
                }
                now += inst.dur_ns.max(1);
                counters = if inst.saturate {
                    // Wrapped/saturated hardware counter: the end-of-burst
                    // reading falls *below* the start. The checked burst
                    // extractor must quarantine this instance.
                    start_counters.scale(0.5)
                } else {
                    integrate(template, inst.dur_ns, inst.dur_ns).add(&start_counters)
                };
                let _ = stream.push(Record::CommEnter {
                    time: t(now),
                    kind: CommKind::Collective,
                    counters,
                });
            }
            // Trailing communication exit so the last burst is closed but no
            // burst is left half-open at the end of the stream.
            let _ = stream.push(Record::CommExit {
                time: t(now + 500),
                kind: CommKind::Collective,
                counters,
            });
        }
        trace
    }

    /// Total bursts across all ranks (spec-level, before filtering).
    pub fn num_bursts(&self) -> usize {
        self.ranks.iter().map(Vec::len).sum()
    }
}

/// Counter readings accumulated `at_ns` into a burst of length `dur_ns`
/// under the template's piece-wise constant rates.
fn integrate(template: &BurstTemplate, dur_ns: u64, at_ns: u64) -> CounterSet {
    let segments = template.instr_rates.len().max(1);
    let seg_len = (dur_ns / segments as u64).max(1);
    let mut instr = 0.0f64;
    let mut remaining = at_ns;
    for (i, &rate) in template.instr_rates.iter().enumerate() {
        let span = if i + 1 == segments { remaining } else { remaining.min(seg_len) };
        instr += rate * span as f64;
        remaining -= span;
        if remaining == 0 {
            break;
        }
    }
    let mut out = CounterSet::ZERO;
    out[CounterKind::Instructions] = instr;
    out[CounterKind::Cycles] = template.cycle_rate * at_ns as f64;
    out
}

/// A generated or loaded verification case: the trace plus its exact
/// canonical text and the configuration to analyze it under.
#[derive(Debug, Clone)]
pub struct Case {
    /// The trace under test.
    pub trace: Trace,
    /// Canonical PRV text of `trace` (what goes into a corpus file).
    pub text: String,
    /// Analysis configuration for this case.
    pub config: CaseConfig,
    /// The structured spec, when the case was generated (corpus-loaded
    /// cases have none; shrinking needs it).
    pub spec: Option<TraceSpec>,
}

impl Case {
    /// Builds a case from a spec at unit scale and zero offset.
    pub fn from_spec(spec: TraceSpec, config: CaseConfig) -> Case {
        let trace = spec.build(0, 1);
        let text = phasefold_model::prv::write_trace(&trace);
        Case { trace, text, config, spec: Some(spec) }
    }
}

/// Draws a random spec + config from `rng`. The domain deliberately mixes
/// clean SPMD structure (so clustering/folding/fitting all engage) with
/// edge shapes: zero-sample bursts, sub-threshold durations, saturated
/// counters, single-rank traces, and flat (zero-rate) counter plateaus.
pub fn random_spec(rng: &mut StdRng) -> (TraceSpec, CaseConfig) {
    let num_templates = rng.gen_range(1usize..4);
    let templates: Vec<BurstTemplate> = (0..num_templates)
        .map(|i| {
            let dur_ns = rng.gen_range(30_000u64..500_000) * (i as u64 + 1);
            let segments = rng.gen_range(1usize..4);
            let instr_rates: Vec<f64> = (0..segments)
                .map(|_| {
                    if rng.gen_bool(0.08) {
                        0.0 // plateau: a phase that retires nothing
                    } else {
                        rng.gen_range(0.5f64..8.0)
                    }
                })
                .collect();
            BurstTemplate { dur_ns, instr_rates, cycle_rate: rng.gen_range(1.0f64..4.0) }
        })
        .collect();

    let ranks = rng.gen_range(1usize..5);
    let iterations = rng.gen_range(5usize..28);
    let rank_specs: Vec<Vec<BurstInstance>> = (0..ranks)
        .map(|_| {
            (0..iterations)
                .flat_map(|i| {
                    let template = i % templates.len();
                    let base = templates[template].dur_ns;
                    // ±3% deterministic-jitter so durations cluster but are
                    // not identical (exercises the MAD pruning path).
                    let jitter = rng.gen_range(0u64..(base / 16).max(1));
                    let mut out = vec![BurstInstance {
                        template,
                        gap_ns: rng.gen_range(2_000u64..80_000),
                        dur_ns: base - base / 32 + jitter,
                        samples: rng.gen_range(0u32..18),
                        saturate: rng.gen_bool(0.02),
                    }];
                    if rng.gen_bool(0.05) {
                        // A sub-microsecond blip that the min-duration
                        // filter should drop.
                        out.push(BurstInstance {
                            template,
                            gap_ns: rng.gen_range(1_000u64..5_000),
                            dur_ns: rng.gen_range(1u64..900),
                            samples: 0,
                            saturate: false,
                        });
                    }
                    out
                })
                .collect()
        })
        .collect();

    let config = CaseConfig {
        min_burst_us: if rng.gen_bool(0.3) { 0 } else { 10 },
        min_pts: rng.gen_range(3usize..6),
        eps: if rng.gen_bool(0.3) { Some(rng.gen_range(0.05f64..0.3)) } else { None },
        mad_k: rng.gen_range(2.0f64..4.0),
        min_instances: if rng.gen_bool(0.3) { 2 } else { 4 },
        min_folded_points: if rng.gen_bool(0.3) { 10 } else { 30 },
        max_segments: rng.gen_range(3usize..6),
        strict: rng.gen_bool(0.15),
    };
    (TraceSpec { templates, ranks: rank_specs }, config)
}

/// Deterministic RNG for a seed, namespaced by check so independent draws
/// do not alias across checks that share a seed.
pub fn rng_for(seed: u64, namespace: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ namespace.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic_and_roundtrips() {
        let mut rng = rng_for(7, 0);
        let (spec, config) = random_spec(&mut rng);
        let a = Case::from_spec(spec.clone(), config.clone());
        let b = Case::from_spec(spec, config);
        assert_eq!(a.text, b.text);
        let (parsed, faults) = phasefold_model::prv::parse_trace_lenient(&a.text).unwrap();
        assert!(faults.is_empty(), "generated trace must be clean: {faults:?}");
        assert_eq!(phasefold_model::prv::write_trace(&parsed), a.text);
    }

    #[test]
    fn config_header_roundtrips() {
        let mut rng = rng_for(11, 1);
        for _ in 0..50 {
            let (_, config) = random_spec(&mut rng);
            let parsed = CaseConfig::parse(&config.render()).unwrap();
            assert_eq!(parsed, config);
        }
        assert!(CaseConfig::parse("bogus_key=1").is_err());
    }

    #[test]
    fn saturate_flag_produces_a_counter_decrease() {
        let spec = TraceSpec {
            templates: vec![BurstTemplate {
                dur_ns: 50_000,
                instr_rates: vec![2.0],
                cycle_rate: 2.0,
            }],
            ranks: vec![vec![
                BurstInstance { template: 0, gap_ns: 5_000, dur_ns: 50_000, samples: 2, saturate: false },
                BurstInstance { template: 0, gap_ns: 5_000, dur_ns: 50_000, samples: 2, saturate: true },
            ]],
        };
        let trace = spec.build(0, 1);
        let mut faults = phasefold_model::fault::FaultReport::new();
        let bursts = phasefold_model::burst::extract_bursts_checked(
            &trace,
            phasefold_model::DurNs::ZERO,
            &mut faults,
        );
        assert_eq!(bursts.len(), 1);
        assert_eq!(faults.len(), 1);
    }
}
