//! A self-contained, line-oriented text trace format in the spirit of
//! Paraver's `.prv`.
//!
//! The original tool-chain persists Extrae traces to Paraver files and the
//! analysis stages re-read them. We mirror that decoupling so the analyzer
//! can run on traces produced elsewhere (or earlier). The format is
//! deliberately simple and diff-friendly:
//!
//! ```text
//! #PHASEFOLD_TRACE v1
//! #RANKS 2
//! #REGION 0 F main main.c 1
//! #REGION 1 K solve/spmv solve.c 42
//! R 0 E 1000 0                 // rank 0 enters region 0 at t=1000 ns
//! C 0 E 5000 COLL v0 v1 ... v9 // comm enter, full counter read
//! C 0 X 6000 COLL v0 v1 ... v9 // comm exit
//! S 0 5500 INS:123,CYC:456 0;1@44   // sample: counters + call stack
//! R 0 X 9000 0
//! ```
//!
//! Floats use Rust's shortest round-trip representation, so
//! write → parse → write is byte-stable. Tokens (region names, files) are
//! percent-escaped so they may contain spaces.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::callstack::{CallStack, RegionId, RegionKind, SourceRegistry};
use crate::counter::{CounterKind, CounterSet, PartialCounterSet, NUM_COUNTERS};
use crate::error::ModelError;
use crate::event::{CommKind, Record, Sample};
use crate::fault::{Fault, FaultPolicy, FaultReport, Severity};
use crate::time::TimeNs;
use crate::trace::{RankId, Trace};
use std::fmt::Write as _;

/// Upper bound on the rank count a `#RANKS` header may declare. Each
/// declared rank pre-allocates a `RankTrace`, so an unvalidated header is
/// an allocation amplifier: untrusted input (the serve daemon feeds this
/// parser straight from request bodies) could otherwise request tens of
/// GiB with a dozen bytes. Real deployments are orders of magnitude below
/// this.
pub const MAX_DECLARED_RANKS: usize = 1 << 20;

/// Percent-escapes spaces, `%` and control characters in a token.
fn escape(token: &str) -> String {
    let mut out = String::with_capacity(token.len());
    for c in token.chars() {
        match c {
            ' ' => out.push_str("%20"),
            '%' => out.push_str("%25"),
            '\n' => out.push_str("%0A"),
            '\t' => out.push_str("%09"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`].
fn unescape(token: &str) -> Result<String, String> {
    let mut out = String::with_capacity(token.len());
    let bytes = token.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = token.get(i + 1..i + 3).ok_or("truncated escape")?;
            let v = u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape %{hex}"))?;
            out.push(v as char);
            i += 3;
        } else {
            // Safe: iterating UTF-8 boundaries via chars would be cleaner but
            // all multi-byte chars pass through unchanged byte-wise.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&token[i..i + ch_len]);
            i += ch_len;
        }
    }
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// Serialises a trace to the `.prv`-like text format.
///
/// ```
/// use phasefold_model::{prv, RankId, Record, RegionId, SourceRegistry, TimeNs, Trace};
/// use phasefold_model::RegionKind;
///
/// let mut registry = SourceRegistry::new();
/// let main = registry.intern("main", RegionKind::Function, "main.c", 1);
/// let mut trace = Trace::with_ranks(registry, 1);
/// trace
///     .rank_mut(RankId(0))
///     .unwrap()
///     .push(Record::RegionEnter { time: TimeNs(100), region: main })
///     .unwrap();
///
/// let text = prv::write_trace(&trace);
/// let parsed = prv::parse_trace(&text).unwrap();
/// assert_eq!(parsed.total_records(), 1);
/// assert_eq!(prv::write_trace(&parsed), text); // byte-stable round trip
/// ```
pub fn write_trace(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("#PHASEFOLD_TRACE v1\n");
    let _ = writeln!(out, "#RANKS {}", trace.num_ranks());
    for (id, info) in trace.registry.iter() {
        let _ = writeln!(
            out,
            "#REGION {} {} {} {} {}",
            id.0,
            info.kind.tag(),
            escape(&info.name),
            escape(&info.location.file),
            info.location.line
        );
    }
    for (rank, stream) in trace.iter_ranks() {
        for record in stream.records() {
            write_record(&mut out, rank, record);
        }
    }
    out
}

fn write_counter_set(out: &mut String, c: &CounterSet) {
    for v in c.as_array() {
        let _ = write!(out, " {v}");
    }
}

fn write_record(out: &mut String, rank: RankId, record: &Record) {
    match record {
        Record::RegionEnter { time, region } => {
            let _ = writeln!(out, "R {} E {} {}", rank.0, time.0, region.0);
        }
        Record::RegionExit { time, region } => {
            let _ = writeln!(out, "R {} X {} {}", rank.0, time.0, region.0);
        }
        Record::CommEnter { time, kind, counters } => {
            let _ = write!(out, "C {} E {} {}", rank.0, time.0, kind.mnemonic());
            write_counter_set(out, counters);
            out.push('\n');
        }
        Record::CommExit { time, kind, counters } => {
            let _ = write!(out, "C {} X {} {}", rank.0, time.0, kind.mnemonic());
            write_counter_set(out, counters);
            out.push('\n');
        }
        Record::Sample(s) => {
            let _ = write!(out, "S {} {} ", rank.0, s.time.0);
            if s.counters.is_empty() {
                out.push('-');
            } else {
                let mut first = true;
                for (k, v) in s.counters.iter() {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "{}:{v}", k.mnemonic());
                }
            }
            out.push(' ');
            if s.callstack.is_empty() {
                out.push('-');
            } else {
                let mut first = true;
                for f in &s.callstack.frames {
                    if !first {
                        out.push(';');
                    }
                    first = false;
                    let _ = write!(out, "{}", f.0);
                }
                if s.callstack.leaf_line != 0 {
                    let _ = write!(out, "@{}", s.callstack.leaf_line);
                }
            }
            out.push('\n');
        }
    }
}

struct LineParser<'a> {
    line_no: usize,
    fields: std::str::SplitWhitespace<'a>,
}

impl<'a> LineParser<'a> {
    fn err(&self, message: impl Into<String>) -> ModelError {
        ModelError::Parse { line: self.line_no, message: message.into() }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, ModelError> {
        self.fields
            .next()
            .ok_or_else(|| self.err(format!("missing field: {what}")))
    }

    fn next_u32(&mut self, what: &str) -> Result<u32, ModelError> {
        let f = self.next(what)?;
        f.parse().map_err(|_| self.err(format!("bad {what}: {f:?}")))
    }

    fn next_u64(&mut self, what: &str) -> Result<u64, ModelError> {
        let f = self.next(what)?;
        f.parse().map_err(|_| self.err(format!("bad {what}: {f:?}")))
    }

    /// The ten values of a `C` line, with the errors worded as
    /// [`Self::next_u64`] words them. The field name `counter[i]` is only
    /// formatted on the error path: this runs for every value of every `C`
    /// line.
    fn counter_set(&mut self) -> Result<CounterSet, ModelError> {
        let mut values = [0.0; NUM_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            let f = self
                .fields
                .next()
                .ok_or_else(|| self.err(format!("missing field: counter[{i}]")))?;
            *v = f.parse().map_err(|_| self.err(format!("bad counter[{i}]: {f:?}")))?;
        }
        Ok(CounterSet::from_array(values))
    }
}

/// Parses the `.prv`-like text format back into a [`Trace`].
///
/// Strict: the first defective line aborts with a typed [`ModelError`].
pub fn parse_trace(input: &str) -> Result<Trace, ModelError> {
    parse_impl(input, None)
}

/// Lenient variant of [`parse_trace`]: defective *body records* (truncated
/// fields, bad values, undeclared ranks, non-monotonic timestamps) are
/// quarantined — recorded in the returned [`FaultReport`] with their line
/// number — and parsing continues with the next line.
///
/// Structural defects that make the whole trace unreadable (bad magic
/// header, missing `#RANKS`, non-dense region table) are still fatal and
/// returned as an `Err` with [`Severity::Fatal`].
pub fn parse_trace_lenient(input: &str) -> Result<(Trace, FaultReport), Fault> {
    parse_trace_with(input, FaultPolicy::Lenient).map_err(|e| e.fault())
}

/// Parses under `policy`: [`parse_trace`] when strict (the report comes
/// back empty), [`parse_trace_lenient`] when lenient. This is the one
/// place a fault policy picks the parser, so every surface that accepts a
/// trace — CLI commands and daemon endpoints alike — reads the same bytes
/// into the same trace.
pub fn parse_trace_with(
    input: &str,
    policy: FaultPolicy,
) -> Result<(Trace, FaultReport), ParseFailure> {
    let mut report = FaultReport::new();
    let faults = (policy == FaultPolicy::Lenient).then_some(&mut report);
    match parse_impl(input, faults) {
        Ok(trace) => Ok((trace, report)),
        Err(error) => Err(ParseFailure { policy, error }),
    }
}

/// Why [`parse_trace_with`] gave up: the first defect (strict) or the
/// structural one (lenient). It renders the way the policy's own parser
/// reports it — the [`ModelError`] under strict, the fatal [`Fault`]
/// under lenient.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseFailure {
    /// The policy the parse ran under.
    pub policy: FaultPolicy,
    /// The defect that stopped it.
    pub error: ModelError,
}

impl ParseFailure {
    /// The failure as the fatal fault [`parse_trace_lenient`] returns.
    pub fn fault(&self) -> Fault {
        Fault::from(self.error.clone()).severity(Severity::Fatal)
    }
}

impl std::fmt::Display for ParseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.policy {
            FaultPolicy::Strict => self.error.fmt(f),
            FaultPolicy::Lenient => self.fault().fmt(f),
        }
    }
}

impl std::error::Error for ParseFailure {}

/// Shared parser core. With `faults: None` every error propagates (strict
/// mode); with `Some(report)` body-record errors are recorded and the line
/// skipped, while header/structure errors still propagate.
fn parse_impl(input: &str, mut faults: Option<&mut FaultReport>) -> Result<Trace, ModelError> {
    let mut lines = input.lines().enumerate();
    let (_, header) = lines.next().ok_or(ModelError::Parse {
        line: 1,
        message: "empty input".into(),
    })?;
    if header.trim() != "#PHASEFOLD_TRACE v1" {
        return Err(ModelError::Parse {
            line: 1,
            message: format!("bad header: {header:?}"),
        });
    }
    let mut registry = SourceRegistry::new();
    let mut trace: Option<Trace> = None;
    let mut pending_regions: Vec<(u32, RegionKind, String, String, u32)> = Vec::new();
    let mut n_ranks: Option<usize> = None;

    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let mut p = LineParser { line_no, fields: line.split_whitespace() };
        let tag = match p.next("record tag") {
            Ok(t) => t,
            Err(_) => continue, // whitespace-only line
        };
        match tag {
            "#RANKS" => {
                let n = p.next_u32("rank count")? as usize;
                // The header is structural, so this is fatal in both
                // modes. A trace cannot meaningfully declare more ranks
                // than it has bytes: every real rank costs at least one
                // record line, and the byte bound keeps a tiny hostile
                // body from forcing a huge per-rank allocation.
                if n > MAX_DECLARED_RANKS || n > input.len() {
                    return Err(p.err(format!(
                        "declared rank count {n} exceeds the allowed maximum \
                         (min of {MAX_DECLARED_RANKS} and the input size {})",
                        input.len()
                    )));
                }
                n_ranks = Some(n);
            }
            "#REGION" => {
                let id = p.next_u32("region id")?;
                let kind_tok = p.next("region kind")?;
                let kind_char = kind_tok.chars().next().unwrap_or('?');
                let kind = RegionKind::from_tag(kind_char)
                    .ok_or_else(|| p.err(format!("bad region kind {kind_tok:?}")))?;
                let name = unescape(p.next("region name")?).map_err(|e| p.err(e))?;
                let file = unescape(p.next("region file")?).map_err(|e| p.err(e))?;
                let line_nr = p.next_u32("region line")?;
                pending_regions.push((id, kind, name, file, line_nr));
            }
            "R" | "C" | "S" => {
                // First body record: freeze the header. Structural errors
                // here are fatal in both modes.
                if trace.is_none() {
                    let ranks = n_ranks.ok_or_else(|| p.err("missing #RANKS header"))?;
                    pending_regions.sort_by_key(|(id, ..)| *id);
                    for (expect, (id, kind, name, file, line_nr)) in
                        pending_regions.iter().enumerate()
                    {
                        if *id as usize != expect {
                            return Err(p.err(format!(
                                "region ids must be dense, found {id} at position {expect}"
                            )));
                        }
                        registry.intern(name, *kind, file, *line_nr);
                    }
                    trace = Some(Trace::with_ranks(std::mem::take(&mut registry), ranks));
                }
                let Some(trace) = trace.as_mut() else {
                    unreachable!("trace initialised above");
                };
                match parse_body_record(&mut p, tag, trace) {
                    Ok(()) => {}
                    Err(e) => match faults.as_deref_mut() {
                        Some(report) => report.push(Fault::from(e).at_line(line_no)),
                        None => return Err(e),
                    },
                }
            }
            other => {
                let e = ModelError::Parse {
                    line: line_no,
                    message: format!("unknown record tag {other:?}"),
                };
                match faults.as_deref_mut() {
                    Some(report) => report.push(Fault::from(e)),
                    None => return Err(e),
                }
            }
        }
    }

    // Header-only trace (no body records): still valid.
    match trace {
        Some(t) => Ok(t),
        None => {
            let ranks = n_ranks.ok_or(ModelError::Parse {
                line: 1,
                message: "missing #RANKS header".into(),
            })?;
            pending_regions.sort_by_key(|(id, ..)| *id);
            for (id, kind, name, file, line_nr) in &pending_regions {
                let _ = id;
                registry.intern(name, *kind, file, *line_nr);
            }
            Ok(Trace::with_ranks(registry, ranks))
        }
    }
}

/// Parses one standalone `R`/`C`/`S` body line into its rank and record,
/// without a surrounding trace. This is the streaming-ingestion entry
/// point: a served session receives raw record lines one chunk at a time
/// and feeds them to an `OnlineAnalyzer`, so there is no header block and
/// no rank stream to push onto. Header lines (`#…`) and unknown tags are
/// rejected with a [`ModelError::Parse`] carrying `line_no`.
pub fn parse_record_line(line: &str, line_no: usize) -> Result<(RankId, Record), ModelError> {
    let mut p = LineParser { line_no, fields: line.split_whitespace() };
    let tag = p.next("record tag")?;
    match tag {
        "R" | "C" | "S" => {
            let (rank, record) = parse_record_fields(&mut p, tag)?;
            Ok((RankId(rank), record))
        }
        other => Err(p.err(format!("unknown record tag {other:?}"))),
    }
}

/// Parses the fields of one `R`/`C`/`S` body line (after the tag).
fn parse_record_fields(
    p: &mut LineParser<'_>,
    tag: &str,
) -> Result<(u32, Record), ModelError> {
    let rank = p.next_u32("rank")?;
    let record = match tag {
        "R" => {
            let dir = p.next("direction")?;
            let time = TimeNs(p.next_u64("time")?);
            let region = RegionId(p.next_u32("region")?);
            match dir {
                "E" => Record::RegionEnter { time, region },
                "X" => Record::RegionExit { time, region },
                other => return Err(p.err(format!("bad direction {other:?}"))),
            }
        }
        "C" => {
            let dir = p.next("direction")?;
            let time = TimeNs(p.next_u64("time")?);
            let kind_tok = p.next("comm kind")?;
            let kind = CommKind::from_mnemonic(kind_tok)
                .ok_or_else(|| p.err(format!("bad comm kind {kind_tok:?}")))?;
            let counters = p.counter_set()?;
            match dir {
                "E" => Record::CommEnter { time, kind, counters },
                "X" => Record::CommExit { time, kind, counters },
                other => return Err(p.err(format!("bad direction {other:?}"))),
            }
        }
        "S" => {
            let time = TimeNs(p.next_u64("time")?);
            let counters_tok = p.next("sample counters")?;
            let stack_tok = p.next("sample callstack")?;
            let counters = parse_sample_counters(p, counters_tok)?;
            let callstack = parse_callstack(p, stack_tok)?;
            Record::Sample(Sample { time, counters, callstack })
        }
        other => return Err(p.err(format!("unknown record tag {other:?}"))),
    };
    Ok((rank, record))
}

/// Parses one `R`/`C`/`S` body line and pushes it onto its rank's stream.
fn parse_body_record(
    p: &mut LineParser<'_>,
    tag: &str,
    trace: &mut Trace,
) -> Result<(), ModelError> {
    let (rank, record) = parse_record_fields(p, tag)?;
    let stream = trace
        .rank_mut(RankId(rank))
        .ok_or(ModelError::UnknownRank(rank))?;
    stream.push(record)
}

fn parse_sample_counters(
    p: &LineParser<'_>,
    tok: &str,
) -> Result<PartialCounterSet, ModelError> {
    if tok == "-" {
        return Ok(PartialCounterSet::EMPTY);
    }
    let mut out = PartialCounterSet::EMPTY;
    for pair in tok.split(',') {
        let (k, v) = pair
            .split_once(':')
            .ok_or_else(|| p.err(format!("bad counter pair {pair:?}")))?;
        let kind = CounterKind::from_mnemonic(k)
            .ok_or_else(|| p.err(format!("unknown counter {k:?}")))?;
        let value: f64 = v
            .parse()
            .map_err(|_| p.err(format!("bad counter value {v:?}")))?;
        out.set(kind, value);
    }
    Ok(out)
}

fn parse_callstack(p: &LineParser<'_>, tok: &str) -> Result<CallStack, ModelError> {
    if tok == "-" {
        return Ok(CallStack::empty());
    }
    let (frames_tok, leaf_line) = match tok.rsplit_once('@') {
        Some((f, l)) => {
            let line: u32 = l
                .parse()
                .map_err(|_| p.err(format!("bad leaf line {l:?}")))?;
            (f, line)
        }
        None => (tok, 0),
    };
    let mut frames = Vec::new();
    for f in frames_tok.split(';') {
        let id: u32 = f
            .parse()
            .map_err(|_| p.err(format!("bad frame id {f:?}")))?;
        frames.push(RegionId(id));
    }
    Ok(CallStack::new(frames, leaf_line))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::callstack::RegionKind;
    use crate::fault::FaultKind;

    fn sample_trace() -> Trace {
        let mut registry = SourceRegistry::new();
        let main = registry.intern("main", RegionKind::Function, "main.c", 1);
        let spmv = registry.intern("solve spmv", RegionKind::Kernel, "dir with space/solve.c", 42);
        let mut trace = Trace::with_ranks(registry, 2);
        let mut c0 = CounterSet::ZERO;
        c0[CounterKind::Instructions] = 1234.5;
        c0[CounterKind::Cycles] = 5e9;
        let stream = trace.rank_mut(RankId(0)).unwrap();
        stream
            .push(Record::RegionEnter { time: TimeNs(10), region: main })
            .unwrap();
        stream
            .push(Record::CommExit { time: TimeNs(100), kind: CommKind::Collective, counters: c0 })
            .unwrap();
        let mut pc = PartialCounterSet::EMPTY;
        pc.set(CounterKind::Instructions, 0.125);
        stream
            .push(Record::Sample(Sample {
                time: TimeNs(150),
                counters: pc,
                callstack: CallStack::new(vec![main, spmv], 44),
            }))
            .unwrap();
        stream
            .push(Record::CommEnter {
                time: TimeNs(300),
                kind: CommKind::Send,
                counters: c0.scale(2.0),
            })
            .unwrap();
        let stream1 = trace.rank_mut(RankId(1)).unwrap();
        stream1
            .push(Record::Sample(Sample {
                time: TimeNs(5),
                counters: PartialCounterSet::EMPTY,
                callstack: CallStack::empty(),
            }))
            .unwrap();
        trace
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample_trace();
        let text = write_trace(&trace);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.num_ranks(), trace.num_ranks());
        assert_eq!(parsed.registry.len(), trace.registry.len());
        for (id, info) in trace.registry.iter() {
            assert_eq!(parsed.registry.get(id), Some(info));
        }
        for (rank, stream) in trace.iter_ranks() {
            assert_eq!(parsed.rank(rank).unwrap().records(), stream.records());
        }
    }

    #[test]
    fn write_is_stable_under_reparse() {
        let trace = sample_trace();
        let text1 = write_trace(&trace);
        let text2 = write_trace(&parse_trace(&text1).unwrap());
        assert_eq!(text1, text2);
    }

    #[test]
    fn escaping_roundtrip() {
        for s in ["plain", "with space", "100%", "tab\there", "uni¢ode", ""] {
            assert_eq!(unescape(&escape(s)).unwrap(), s);
        }
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse_trace("#SOMETHING_ELSE\n").is_err());
        assert!(parse_trace("").is_err());
    }

    #[test]
    fn rejects_unknown_rank() {
        let input = "#PHASEFOLD_TRACE v1\n#RANKS 1\nR 5 E 0 0\n";
        assert_eq!(parse_trace(input).unwrap_err(), ModelError::UnknownRank(5));
    }

    #[test]
    fn rejects_sparse_region_ids() {
        let input = "#PHASEFOLD_TRACE v1\n#RANKS 1\n#REGION 3 F main main.c 1\nR 0 E 0 0\n";
        assert!(matches!(parse_trace(input), Err(ModelError::Parse { .. })));
    }

    #[test]
    fn rejects_hostile_rank_counts() {
        // A few bytes must not be able to demand a multi-GiB allocation:
        // the declared rank count is bounded by the input size…
        let tiny = "#PHASEFOLD_TRACE v1\n#RANKS 4000000000\n";
        assert!(matches!(parse_trace(tiny), Err(ModelError::Parse { .. })));
        // …and lenient mode treats it as fatal too (structural defect).
        assert!(parse_trace_lenient(tiny).is_err());
        // Even a body padded past the absolute cap is rejected.
        let padded = format!(
            "#PHASEFOLD_TRACE v1\n#RANKS {}\n{}",
            MAX_DECLARED_RANKS + 1,
            " ".repeat(MAX_DECLARED_RANKS + 64)
        );
        assert!(matches!(parse_trace(&padded), Err(ModelError::Parse { .. })));
    }

    #[test]
    fn header_only_trace_parses() {
        let input = "#PHASEFOLD_TRACE v1\n#RANKS 3\n#REGION 0 F main main.c 1\n";
        let t = parse_trace(input).unwrap();
        assert_eq!(t.num_ranks(), 3);
        assert_eq!(t.registry.len(), 1);
        assert_eq!(t.total_records(), 0);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let input = "#PHASEFOLD_TRACE v1\n#RANKS 1\nR 0 E notatime 0\n";
        match parse_trace(input) {
            Err(ModelError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn lenient_skips_truncated_line_and_reports_it() {
        let input = "#PHASEFOLD_TRACE v1\n#RANKS 1\nR 0 E 100 0\nR 0 X\nS 0 500 - -\n";
        let (t, report) = parse_trace_lenient(input).unwrap();
        assert_eq!(t.total_records(), 2, "good lines around the bad one survive");
        assert_eq!(report.len(), 1);
        let f = &report.faults[0];
        assert_eq!(f.kind, FaultKind::MalformedTrace);
        assert_eq!(f.provenance.line, Some(4));
        // Strict mode rejects the same input.
        assert!(parse_trace(input).is_err());
    }

    #[test]
    fn parse_with_policy_matches_each_parser_and_its_wording() {
        let dirty = "#PHASEFOLD_TRACE v1\n#RANKS 1\nR 0 E 100 0\nR 0 bogus line\nS 0 500 - -\n";
        let strict = parse_trace_with(dirty, FaultPolicy::Strict).unwrap_err();
        assert_eq!(strict.to_string(), parse_trace(dirty).unwrap_err().to_string());
        let (t, report) = parse_trace_with(dirty, FaultPolicy::Lenient).unwrap();
        let (t_len, report_len) = parse_trace_lenient(dirty).unwrap();
        assert_eq!(write_trace(&t), write_trace(&t_len));
        assert_eq!(report, report_len);
        let (_, clean_report) = parse_trace_with(&write_trace(&t), FaultPolicy::Strict).unwrap();
        assert!(clean_report.is_empty());
        let fatal = parse_trace_with("#NOT_A_TRACE\n", FaultPolicy::Lenient).unwrap_err();
        let lenient_fatal = parse_trace_lenient("#NOT_A_TRACE\n").unwrap_err();
        assert_eq!(fatal.to_string(), lenient_fatal.to_string());
    }

    #[test]
    fn counter_errors_name_the_field() {
        let cases = [
            ("C 0 X 100 COLL 1 2 3", "missing field: counter[3]"),
            ("C 0 E 100 COLL 0 1 2 3 4 5 6 x 8 9", "bad counter[7]: \"x\""),
        ];
        for (line, message) in cases {
            let input = format!("#PHASEFOLD_TRACE v1\n#RANKS 1\n{line}\nS 0 500 - -\n");
            assert_eq!(
                parse_trace(&input).unwrap_err().to_string(),
                format!("trace parse error at line 3: {message}")
            );
            let (t, report) = parse_trace_lenient(&input).unwrap();
            assert_eq!(t.total_records(), 1);
            assert_eq!(report.len(), 1);
            assert_eq!(report.faults[0].kind, FaultKind::MalformedTrace);
            assert_eq!(report.faults[0].provenance.line, Some(3));
            assert_eq!(report.faults[0].detail, message);
            assert_eq!(
                parse_record_line(line, 9).unwrap_err().to_string(),
                format!("trace parse error at line 9: {message}")
            );
        }
    }

    #[test]
    fn lenient_skips_non_monotonic_records() {
        let input = "#PHASEFOLD_TRACE v1\n#RANKS 1\nS 0 500 - -\nS 0 100 - -\nS 0 600 - -\n";
        let (t, report) = parse_trace_lenient(input).unwrap();
        assert_eq!(t.total_records(), 2);
        assert_eq!(report.len(), 1);
        assert_eq!(report.faults[0].kind, FaultKind::NonMonotonicTime);
        assert_eq!(report.faults[0].provenance.line, Some(4));
        assert!(matches!(parse_trace(input), Err(ModelError::OutOfOrder { .. })));
    }

    #[test]
    fn lenient_skips_unknown_rank_and_tag() {
        let input = "#PHASEFOLD_TRACE v1\n#RANKS 1\nR 5 E 0 0\nQ what is this\nS 0 1 - -\n";
        let (t, report) = parse_trace_lenient(input).unwrap();
        assert_eq!(t.total_records(), 1);
        assert_eq!(report.len(), 2);
        assert_eq!(report.faults[0].kind, FaultKind::MalformedTrace);
        assert_eq!(report.faults[0].provenance.rank, Some(5));
        assert_eq!(report.faults[1].kind, FaultKind::MalformedTrace);
    }

    #[test]
    fn lenient_still_rejects_structural_defects() {
        let fatal = parse_trace_lenient("#NOT_A_TRACE\n").unwrap_err();
        assert_eq!(fatal.severity, Severity::Fatal);
        assert!(parse_trace_lenient("#PHASEFOLD_TRACE v1\nS 0 1 - -\n").is_err());
    }

    #[test]
    fn lenient_matches_strict_on_clean_input() {
        let text = write_trace(&sample_trace());
        let strict = parse_trace(&text).unwrap();
        let (lenient, report) = parse_trace_lenient(&text).unwrap();
        assert!(report.is_empty());
        assert_eq!(write_trace(&lenient), write_trace(&strict));
    }

    #[test]
    fn record_line_parses_standalone() {
        let (rank, rec) = parse_record_line("R 3 E 1000 7", 12).unwrap();
        assert_eq!(rank, RankId(3));
        assert!(matches!(
            rec,
            Record::RegionEnter { time: TimeNs(1000), region: RegionId(7) }
        ));
        let (rank, rec) = parse_record_line("S 1 500 INS:0.5 -", 1).unwrap();
        assert_eq!(rank, RankId(1));
        assert!(matches!(rec, Record::Sample(_)));
        // Errors carry the caller-supplied line number.
        match parse_record_line("R 0 E notatime 0", 42) {
            Err(ModelError::Parse { line, .. }) => assert_eq!(line, 42),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse_record_line("#RANKS 2", 1).is_err());
        assert!(parse_record_line("Q nonsense", 1).is_err());
        // Round trip: every record a trace writer emits parses back.
        let trace = sample_trace();
        let text = write_trace(&trace);
        for (no, line) in text.lines().enumerate() {
            if line.starts_with('#') {
                continue;
            }
            let (rank, rec) = parse_record_line(line, no + 1).unwrap();
            assert!(trace.rank(rank).unwrap().records().contains(&rec));
        }
    }

    #[test]
    fn sample_without_counters_or_stack() {
        let input = "#PHASEFOLD_TRACE v1\n#RANKS 1\nS 0 500 - -\n";
        let t = parse_trace(input).unwrap();
        let recs = t.rank(RankId(0)).unwrap().records();
        match &recs[0] {
            Record::Sample(s) => {
                assert!(s.counters.is_empty());
                assert!(s.callstack.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
