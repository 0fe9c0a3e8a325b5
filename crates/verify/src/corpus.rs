//! The checked-in corpus of minimized divergence reproductions.
//!
//! A corpus file is self-describing:
//!
//! ```text
//! #PHASEFOLD_VERIFY_CASE v1
//! #ORIGIN seed 1234 check fold-naive (shrunk 61 -> 2 bursts)
//! #CONFIG min_burst_us=10 min_pts=4 eps=auto mad_k=3 ...
//! #PHASEFOLD_TRACE v1
//! ...canonical PRV text...
//! ```
//!
//! Replay runs every *trace-level* check (differential re-fold, all the
//! metamorphic properties) against the stored trace under the stored
//! configuration, so a reintroduced kernel bug fails the regression suite
//! even on cases originally found by a different check.

use crate::generate::{rng_for, Case, CaseConfig};
use crate::{differential, metamorphic, Divergence};
use std::fmt::Write as _;
use std::path::Path;

/// Magic first line of a corpus case file.
pub const MAGIC: &str = "#PHASEFOLD_VERIFY_CASE v1";

/// Renders `case` into the corpus file format. `origin` is a free-form
/// provenance note (seed, check, shrink stats).
pub fn render_case(case: &Case, origin: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "#ORIGIN {origin}");
    let _ = writeln!(out, "#CONFIG {}", case.config.render());
    out.push_str(&case.text);
    out
}

/// Parses a corpus file back into a [`Case`]. The stored trace must parse
/// *cleanly* — a corpus case with parse faults would silently test less
/// than it claims to.
pub fn parse_case(raw: &str) -> Result<Case, String> {
    let mut lines = raw.lines();
    if lines.next().map(str::trim) != Some(MAGIC) {
        return Err(format!("missing `{MAGIC}` header"));
    }
    let mut config = None;
    let mut body_start = 0usize;
    for line in raw.lines() {
        if let Some(rest) = line.strip_prefix("#CONFIG ") {
            config = Some(CaseConfig::parse(rest.trim())?);
        }
        if line.starts_with("#PHASEFOLD_TRACE") {
            break;
        }
        body_start += line.len() + 1;
    }
    let config = config.ok_or("missing #CONFIG line")?;
    let text = raw.get(body_start..).ok_or("missing trace body")?.to_string();
    let (trace, faults) = phasefold_model::prv::parse_trace_lenient(&text)
        .map_err(|f| format!("trace does not parse: {f}"))?;
    if !faults.is_empty() {
        return Err(format!("corpus trace has {} parse faults; must be clean", faults.len()));
    }
    Ok(Case { trace, text, config, spec: None })
}

/// Runs every trace-level check against `case`. Permutation draws come
/// from a fixed per-case rng so replay is deterministic.
pub fn replay_case(case: &Case, seed: u64) -> Vec<Divergence> {
    let mut divergences = Vec::new();
    divergences.extend(differential::check_fold(case, seed));
    divergences.extend(differential::check_prv_fields(case, &mut rng_for(seed, 0x07), seed));
    divergences.extend(metamorphic::check_threads(case, seed));
    divergences.extend(metamorphic::check_time_shift(case, seed));
    divergences.extend(metamorphic::check_time_scale(case, seed));
    divergences.extend(metamorphic::check_dbscan_permutation(
        case,
        &mut rng_for(seed, 0xD5CA),
        seed,
    ));
    divergences.extend(metamorphic::check_fold_reorder(case, &mut rng_for(seed, 0xF01D), seed));
    divergences.extend(metamorphic::check_batch_online(case, seed));
    divergences.extend(metamorphic::check_checkpoint_roundtrip(case, seed));
    divergences.extend(metamorphic::check_reservoir_stream(case, seed));
    divergences.extend(metamorphic::check_fingerprint_roundtrip(case, seed));
    divergences.extend(metamorphic::check_nan_samples(case, &mut rng_for(seed, 0x7A7A), seed));
    divergences
}

/// Loads and replays every `*.case` file under `dir` (sorted by name for
/// stable output). Returns `(cases_replayed, divergences)`; unreadable or
/// malformed files are reported as divergences of check `corpus-load` so
/// a corrupted corpus cannot pass silently.
pub fn replay_dir(dir: &Path) -> (usize, Vec<Divergence>) {
    let mut divergences = Vec::new();
    let mut paths: Vec<_> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "case"))
            .collect(),
        Err(e) => {
            divergences.push(Divergence {
                check: "corpus-load",
                seed: 0,
                detail: format!("cannot read corpus dir {}: {e}", dir.display()),
                repro: None,
            });
            return (0, divergences);
        }
    };
    paths.sort();
    let mut replayed = 0usize;
    for (i, path) in paths.iter().enumerate() {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("<non-utf8>");
        let raw = match std::fs::read_to_string(path) {
            Ok(raw) => raw,
            Err(e) => {
                divergences.push(Divergence {
                    check: "corpus-load",
                    seed: 0,
                    detail: format!("cannot read {name}: {e}"),
                    repro: None,
                });
                continue;
            }
        };
        let case = match parse_case(&raw) {
            Ok(case) => case,
            Err(e) => {
                divergences.push(Divergence {
                    check: "corpus-load",
                    seed: 0,
                    detail: format!("{name}: {e}"),
                    repro: None,
                });
                continue;
            }
        };
        replayed += 1;
        for mut d in replay_case(&case, i as u64) {
            d.detail = format!("{name}: {}", d.detail);
            divergences.push(d);
        }
    }
    (replayed, divergences)
}

/// The curated minimized edge cases checked into `tests/corpus/`. Each is
/// the smallest spec that pins one hazard the fuzzer's domain covers:
/// counter saturation, sub-threshold blips, zero-rate plateaus, boundary-
/// only folds, strict-policy aborts, explicit-ε noise, and so on. Replay
/// runs the full check set over each, so any reintroduced kernel bug that
/// touches these shapes fails the regression suite.
pub fn curated_cases() -> Vec<(String, Case, String)> {
    use crate::generate::{BurstInstance, BurstTemplate, TraceSpec};

    fn burst(template: usize, dur_ns: u64, samples: u32) -> BurstInstance {
        BurstInstance { template, gap_ns: 20_000, dur_ns, samples, saturate: false }
    }
    fn template(dur_ns: u64, instr_rates: &[f64]) -> BurstTemplate {
        BurstTemplate { dur_ns, instr_rates: instr_rates.to_vec(), cycle_rate: 2.0 }
    }
    // Five near-identical instances (jittered 1%) + samples: the smallest
    // spec that survives min_pts=4 clustering and min_instances=4 folding.
    fn steady(template_id: usize, base: u64, n: u64, samples: u32) -> Vec<BurstInstance> {
        (0..n).map(|i| burst(template_id, base + i * (base / 100).max(1), samples)).collect()
    }

    let mut cases = Vec::new();
    let mut push = |name: &str, spec: TraceSpec, config: CaseConfig, origin: &str| {
        cases.push((format!("{name}.case"), Case::from_spec(spec, config), origin.to_string()));
    };

    // 1. A saturated (wrapped) counter inside an otherwise clean run: the
    // checked extractor must quarantine exactly that burst everywhere
    // (batch, online, stats) without corrupting its neighbours.
    let mut ranks = vec![steady(0, 80_000, 5, 4)];
    ranks[0].push(BurstInstance {
        template: 0,
        gap_ns: 20_000,
        dur_ns: 80_000,
        samples: 2,
        saturate: true,
    });
    push(
        "saturated-counter",
        TraceSpec { templates: vec![template(80_000, &[2.0])], ranks },
        CaseConfig::default(),
        "curated: one wrapped hardware counter among clean bursts",
    );

    // 2. Sub-microsecond blips under a 10µs floor: the duration filter must
    // drop them identically in batch and online ingestion.
    let mut ranks = vec![steady(0, 60_000, 5, 3)];
    ranks[0].insert(2, burst(0, 700, 0));
    ranks[0].insert(4, burst(0, 120, 0));
    push(
        "sub-threshold-blips",
        TraceSpec { templates: vec![template(60_000, &[3.0])], ranks },
        CaseConfig::default(),
        "curated: sub-µs bursts that the min-duration filter must drop",
    );

    // 3. Zero-rate plateau: a phase that retires nothing. Exercises the
    // zero-slope PWLR segment and division-safe rate computation.
    push(
        "zero-rate-plateau",
        TraceSpec {
            templates: vec![template(120_000, &[4.0, 0.0, 4.0])],
            ranks: vec![steady(0, 120_000, 6, 9)],
        },
        CaseConfig { max_segments: 5, ..CaseConfig::default() },
        "curated: interior zero-rate segment (counter plateau)",
    );

    // 4. Two templates at well-separated durations: the minimal two-cluster
    // case; label/permutation equivalence must hold for both.
    let mut ranks = vec![Vec::new()];
    for i in 0..5u64 {
        ranks[0].push(burst(0, 50_000 + i * 500, 3));
        ranks[0].push(burst(1, 400_000 + i * 4_000, 3));
    }
    push(
        "two-clusters",
        TraceSpec {
            templates: vec![template(50_000, &[2.0]), template(400_000, &[1.0, 6.0])],
            ranks,
        },
        CaseConfig::default(),
        "curated: minimal two-cluster trace",
    );

    // 5. Fewer instances than min_instances: folding must reject the
    // cluster, not fit garbage through three points.
    push(
        "too-few-instances",
        TraceSpec {
            templates: vec![template(90_000, &[2.5])],
            ranks: vec![steady(0, 90_000, 3, 4)],
        },
        CaseConfig { min_instances: 4, min_pts: 3, ..CaseConfig::default() },
        "curated: cluster below the min-instances floor",
    );

    // 6. Strict fault policy + a saturated counter: the whole analysis must
    // abort with a fault, identically at every thread count.
    let mut ranks = vec![steady(0, 70_000, 5, 3)];
    ranks[0][2].saturate = true;
    push(
        "strict-policy-abort",
        TraceSpec { templates: vec![template(70_000, &[2.0])], ranks },
        CaseConfig { strict: true, ..CaseConfig::default() },
        "curated: strict policy must abort deterministically on a wrap",
    );

    // 7. Four-rank SPMD: same program on every rank; per-rank online
    // cursors and the SPMD score both engage.
    push(
        "spmd-four-ranks",
        TraceSpec {
            templates: vec![template(100_000, &[1.0, 5.0])],
            ranks: (0..4).map(|_| steady(0, 100_000, 5, 5)).collect(),
        },
        CaseConfig::default(),
        "curated: four identical ranks (SPMD consistency path)",
    );

    // 8. Boundary-only folding: bursts with zero interior samples still
    // fold their enter/exit counter readings.
    push(
        "boundary-only-samples",
        TraceSpec {
            templates: vec![template(110_000, &[3.0])],
            ranks: vec![steady(0, 110_000, 6, 0)],
        },
        CaseConfig { min_folded_points: 10, ..CaseConfig::default() },
        "curated: folds built from burst boundaries alone",
    );

    // 9. Explicit ε far below the point spacing: everything is noise; no
    // model may be produced and no check may crash on the empty fold set.
    push(
        "all-noise-tiny-eps",
        TraceSpec {
            templates: vec![template(60_000, &[2.0])],
            ranks: vec![(0..6).map(|i| burst(0, 40_000 + i * 9_000, 2)).collect()],
        },
        CaseConfig { eps: Some(1e-6), ..CaseConfig::default() },
        "curated: explicit ε so small every burst is noise",
    );

    // 10. Duration outlier: one instance 3× the others; MAD pruning must
    // drop it and the fold must agree with the naive reference on exactly
    // which instances survived.
    let mut ranks = vec![steady(0, 75_000, 6, 4)];
    ranks[0].insert(3, burst(0, 225_000, 4));
    push(
        "duration-outlier",
        TraceSpec { templates: vec![template(75_000, &[2.0])], ranks },
        CaseConfig { mad_k: 2.0, ..CaseConfig::default() },
        "curated: one 3× duration outlier for the MAD pruner",
    );

    // 11. Heavy sampling on a three-segment ramp: the richest PWLR shape in
    // the corpus; threads/shift/scale bit-identity over a real fit.
    push(
        "three-segment-ramp",
        TraceSpec {
            templates: vec![template(200_000, &[0.5, 4.0, 1.5])],
            ranks: vec![steady(0, 200_000, 8, 15), steady(0, 200_000, 8, 15)],
        },
        CaseConfig { max_segments: 5, ..CaseConfig::default() },
        "curated: three-segment instruction ramp, densely sampled",
    );

    // 12. Zero-length-ish gaps and a zero min-duration floor: adjacent
    // bursts separated by the 1ns minimum gap with filtering disabled.
    push(
        "no-duration-floor",
        TraceSpec {
            templates: vec![template(40_000, &[2.0])],
            ranks: vec![(0..6)
                .map(|i| BurstInstance {
                    template: 0,
                    gap_ns: 1,
                    dur_ns: 40_000 + i * 400,
                    samples: 2,
                    saturate: false,
                })
                .collect()],
        },
        CaseConfig { min_burst_us: 0, ..CaseConfig::default() },
        "curated: back-to-back bursts with the duration filter disabled",
    );

    cases
}

/// Writes [`curated_cases`] into `dir` (created if absent). Returns the
/// file names written.
pub fn write_corpus(dir: &Path) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (name, case, origin) in curated_cases() {
        std::fs::write(dir.join(&name), render_case(&case, &origin))?;
        written.push(name);
    }
    Ok(written)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::generate::random_spec;

    #[test]
    fn case_file_roundtrips() {
        let mut rng = rng_for(5, 2);
        let (spec, config) = random_spec(&mut rng);
        let case = Case::from_spec(spec, config);
        let raw = render_case(&case, "seed 5 check unit-test");
        let parsed = parse_case(&raw).unwrap();
        assert_eq!(parsed.text, case.text);
        assert_eq!(parsed.config, case.config);
        assert!(parsed.spec.is_none());
    }

    #[test]
    fn curated_cases_replay_clean() {
        for (i, (name, case, _)) in curated_cases().into_iter().enumerate() {
            let divergences = replay_case(&case, i as u64);
            assert!(
                divergences.is_empty(),
                "curated case {name} diverges: {:?}",
                divergences.iter().map(ToString::to_string).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(parse_case("").is_err());
        assert!(parse_case("#PHASEFOLD_VERIFY_CASE v1\n#PHASEFOLD_TRACE v1\n#RANKS 0\n").is_err());
        let missing_magic = "#CONFIG min_pts=4\n#PHASEFOLD_TRACE v1\n#RANKS 0\n";
        assert!(parse_case(missing_magic).is_err());
    }
}
