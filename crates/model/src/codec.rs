//! Serde-free binary codec for checkpoint and log files.
//!
//! Durable state (streaming-session checkpoints, write-ahead logs) must
//! survive `kill -9` and partial writes, so every on-disk artifact built
//! from this module is **versioned, length-prefixed, and checksummed**:
//!
//! ```text
//! [magic u32][version u32][payload_len u64][payload ...][fnv1a64 u64]
//! ```
//!
//! The trailing checksum covers everything before it (magic, version,
//! length, payload), so a torn tail, a flipped bit, or a file of the wrong
//! kind all surface as a typed [`CodecError`] instead of garbage state.
//! All integers are little-endian; `f64` travels as its IEEE-754 bit
//! pattern, which makes round-trips *bit-exact* — the property the
//! checkpoint/resume equivalence tests assert.
//!
//! The module is deliberately serde-free (this workspace vendors no
//! serialization framework): [`Writer`]/[`Reader`] are a few hundred lines
//! of explicit field order, which doubles as the format documentation.

use crate::burst::{Burst, BurstExtractor, BurstId};
use crate::callstack::{CallStack, RegionId};
use crate::counter::{CounterKind, CounterSet, PartialCounterSet, NUM_COUNTERS};
use crate::event::{CommKind, Record, Sample};
use crate::fault::{Fault, FaultKind, Provenance, Severity};
use crate::time::TimeNs;
use crate::trace::RankId;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Offset-based FNV-1a 64-bit hash (the same function the serve cache
/// keys with); dependency-free and stable across platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What went wrong decoding a framed artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the declared content did (torn write).
    Truncated,
    /// The magic number does not match the expected artifact kind.
    BadMagic {
        /// Magic found in the buffer.
        found: u32,
        /// Magic the caller expected.
        want: u32,
    },
    /// The format version is newer than this build understands.
    BadVersion {
        /// Version found in the buffer.
        found: u32,
        /// Highest version this build can decode.
        max: u32,
    },
    /// The trailing checksum does not match the content (corruption).
    BadChecksum,
    /// The payload decoded to an impossible value (bad tag, bad length).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("truncated (torn write?)"),
            CodecError::BadMagic { found, want } => {
                write!(f, "bad magic {found:#010x} (want {want:#010x})")
            }
            CodecError::BadVersion { found, max } => {
                write!(f, "unsupported version {found} (this build reads <= {max})")
            }
            CodecError::BadChecksum => f.write_str("checksum mismatch (corrupt content)"),
            CodecError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the format is 64-bit everywhere).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes length-prefixed raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }
}

/// Cursor over an encoded byte slice; every getter fails with
/// [`CodecError::Truncated`] instead of panicking on short input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` written by [`Writer::put_usize`]. Rejects values
    /// that exceed the bytes remaining — a length can never legitimately
    /// promise more content than the buffer holds, so an absurd length
    /// (corruption) fails fast instead of attempting a huge allocation.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        if v > self.remaining() as u64 {
            return Err(CodecError::Malformed(format!(
                "length {v} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(v as usize)
    }

    /// Reads a `usize` used as an *element count* (elements occupy at
    /// least `min_elem_bytes` each, which bounds the believable count).
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        let cap = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if v > cap {
            return Err(CodecError::Malformed(format!(
                "count {v} exceeds plausible maximum {cap}"
            )));
        }
        Ok(v as usize)
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool byte (anything non-zero is `true`).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_len()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| CodecError::Malformed("string is not UTF-8".to_string()))
    }

    /// Reads length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.get_len()?;
        Ok(self.take(n)?.to_vec())
    }
}

/// Wraps `payload` in the standard frame: magic, version, length, payload,
/// trailing FNV-1a 64 checksum over everything before the trailer.
pub fn frame(magic: u32, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates a frame produced by [`frame`], returning `(version, payload)`.
/// The checksum is verified *before* the payload is interpreted, and the
/// version is only accepted up to `max_version`.
pub fn unframe(magic: u32, max_version: u32, bytes: &[u8]) -> Result<(u32, &[u8]), CodecError> {
    if bytes.len() < 24 {
        return Err(CodecError::Truncated);
    }
    let found_magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if found_magic != magic {
        return Err(CodecError::BadMagic { found: found_magic, want: magic });
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let len = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]);
    let body_end = 16u64
        .checked_add(len)
        .ok_or(CodecError::Truncated)?;
    if body_end + 8 != bytes.len() as u64 {
        return Err(CodecError::Truncated);
    }
    let body_end = body_end as usize;
    let declared = u64::from_le_bytes(
        bytes[body_end..body_end + 8]
            .try_into()
            .map_err(|_| CodecError::Truncated)?,
    );
    if fnv1a64(&bytes[..body_end]) != declared {
        return Err(CodecError::BadChecksum);
    }
    // Version only matters once the bytes are known-good: a corrupt
    // version field should read as corruption, not as "from the future".
    if version > max_version {
        return Err(CodecError::BadVersion { found: version, max: max_version });
    }
    Ok((version, &bytes[16..body_end]))
}

/// Atomically replaces `path` with `bytes`: write `<path>.tmp`, fsync it,
/// rename it over `path`, then fsync the directory (best effort) so the
/// rename itself is durable. A crash at any point leaves either the old
/// file or the new one, never a torn mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(Ok(dir)) = path.parent().map(std::fs::File::open) {
        let _ = dir.sync_data();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Model-type field codecs. Field order here IS the format; change it only
// together with a version bump in whatever frame embeds these.
// ---------------------------------------------------------------------------

/// Writes a [`CounterSet`] as ten `f64` bit patterns.
pub fn put_counter_set(w: &mut Writer, c: &CounterSet) {
    for v in c.as_array() {
        w.put_f64(*v);
    }
}

/// Reads a [`CounterSet`] written by [`put_counter_set`].
pub fn get_counter_set(r: &mut Reader<'_>) -> Result<CounterSet, CodecError> {
    let mut values = [0.0f64; NUM_COUNTERS];
    for v in &mut values {
        *v = r.get_f64()?;
    }
    Ok(CounterSet::from_array(values))
}

/// Writes a [`PartialCounterSet`] as a populated-slot bitmask followed by
/// the populated values in index order.
pub fn put_partial_counter_set(w: &mut Writer, c: &PartialCounterSet) {
    let mut mask = 0u16;
    for (kind, _) in c.iter() {
        mask |= 1 << kind.index();
    }
    w.put_u16(mask);
    for (_, v) in c.iter() {
        w.put_f64(v);
    }
}

/// Reads a [`PartialCounterSet`] written by [`put_partial_counter_set`].
pub fn get_partial_counter_set(r: &mut Reader<'_>) -> Result<PartialCounterSet, CodecError> {
    let mask = r.get_u16()?;
    if mask >> NUM_COUNTERS != 0 {
        return Err(CodecError::Malformed(format!("counter bitmask {mask:#x} has unknown bits")));
    }
    let mut out = PartialCounterSet::EMPTY;
    for i in 0..NUM_COUNTERS {
        if mask & (1 << i) != 0 {
            let kind = CounterKind::from_index(i)
                .ok_or_else(|| CodecError::Malformed("counter index out of range".to_string()))?;
            out.set(kind, r.get_f64()?);
        }
    }
    Ok(out)
}

/// Writes a [`CallStack`] (frame count, frame region ids, leaf line).
pub fn put_callstack(w: &mut Writer, cs: &CallStack) {
    w.put_usize(cs.frames.len());
    for f in &cs.frames {
        w.put_u32(f.0);
    }
    w.put_u32(cs.leaf_line);
}

/// Reads a [`CallStack`] written by [`put_callstack`].
pub fn get_callstack(r: &mut Reader<'_>) -> Result<CallStack, CodecError> {
    let n = r.get_count(4)?;
    let mut frames = Vec::with_capacity(n);
    for _ in 0..n {
        frames.push(RegionId(r.get_u32()?));
    }
    let leaf_line = r.get_u32()?;
    Ok(CallStack::new(frames, leaf_line))
}

fn comm_kind_tag(k: CommKind) -> u8 {
    match k {
        CommKind::Send => 0,
        CommKind::Recv => 1,
        CommKind::Collective => 2,
        CommKind::Wait => 3,
    }
}

fn comm_kind_from_tag(t: u8) -> Result<CommKind, CodecError> {
    match t {
        0 => Ok(CommKind::Send),
        1 => Ok(CommKind::Recv),
        2 => Ok(CommKind::Collective),
        3 => Ok(CommKind::Wait),
        other => Err(CodecError::Malformed(format!("unknown comm kind tag {other}"))),
    }
}

/// Writes one [`Record`] (tag byte + variant fields).
pub fn put_record(w: &mut Writer, record: &Record) {
    match record {
        Record::RegionEnter { time, region } => {
            w.put_u8(0);
            w.put_u64(time.0);
            w.put_u32(region.0);
        }
        Record::RegionExit { time, region } => {
            w.put_u8(1);
            w.put_u64(time.0);
            w.put_u32(region.0);
        }
        Record::CommEnter { time, kind, counters } => {
            w.put_u8(2);
            w.put_u64(time.0);
            w.put_u8(comm_kind_tag(*kind));
            put_counter_set(w, counters);
        }
        Record::CommExit { time, kind, counters } => {
            w.put_u8(3);
            w.put_u64(time.0);
            w.put_u8(comm_kind_tag(*kind));
            put_counter_set(w, counters);
        }
        Record::Sample(s) => {
            w.put_u8(4);
            w.put_u64(s.time.0);
            put_partial_counter_set(w, &s.counters);
            put_callstack(w, &s.callstack);
        }
    }
}

/// Reads one [`Record`] written by [`put_record`].
pub fn get_record(r: &mut Reader<'_>) -> Result<Record, CodecError> {
    let tag = r.get_u8()?;
    let time = TimeNs(r.get_u64()?);
    match tag {
        0 => Ok(Record::RegionEnter { time, region: RegionId(r.get_u32()?) }),
        1 => Ok(Record::RegionExit { time, region: RegionId(r.get_u32()?) }),
        2 => {
            let kind = comm_kind_from_tag(r.get_u8()?)?;
            Ok(Record::CommEnter { time, kind, counters: get_counter_set(r)? })
        }
        3 => {
            let kind = comm_kind_from_tag(r.get_u8()?)?;
            Ok(Record::CommExit { time, kind, counters: get_counter_set(r)? })
        }
        4 => {
            let counters = get_partial_counter_set(r)?;
            let callstack = Arc::new(get_callstack(r)?);
            Ok(Record::Sample(Sample { time, counters, callstack }))
        }
        other => Err(CodecError::Malformed(format!("unknown record tag {other}"))),
    }
}

/// Writes one [`Burst`] (identity, boundaries, counters, enclosing region).
pub fn put_burst(w: &mut Writer, b: &Burst) {
    w.put_u32(b.id.rank.0);
    w.put_u32(b.id.ordinal);
    w.put_u64(b.start.0);
    w.put_u64(b.end.0);
    put_counter_set(w, &b.start_counters);
    put_counter_set(w, &b.counters);
    w.put_u32(b.enclosing.0);
}

/// Reads one [`Burst`] written by [`put_burst`].
pub fn get_burst(r: &mut Reader<'_>) -> Result<Burst, CodecError> {
    Ok(Burst {
        id: BurstId { rank: RankId(r.get_u32()?), ordinal: r.get_u32()? },
        start: TimeNs(r.get_u64()?),
        end: TimeNs(r.get_u64()?),
        start_counters: get_counter_set(r)?,
        counters: get_counter_set(r)?,
        enclosing: RegionId(r.get_u32()?),
    })
}

/// Writes a [`BurstExtractor`]'s resume state (region stack, open burst,
/// next ordinal) so mid-burst extraction continues exactly after restore.
pub fn put_extractor(w: &mut Writer, ex: &BurstExtractor) {
    w.put_usize(ex.region_stack.len());
    for rg in &ex.region_stack {
        w.put_u32(rg.0);
    }
    match &ex.open {
        None => w.put_bool(false),
        Some((start, counters, enclosing)) => {
            w.put_bool(true);
            w.put_u64(start.0);
            put_counter_set(w, counters);
            w.put_u32(enclosing.0);
        }
    }
    w.put_u32(ex.ordinal);
}

/// Reads a [`BurstExtractor`] written by [`put_extractor`].
pub fn get_extractor(r: &mut Reader<'_>) -> Result<BurstExtractor, CodecError> {
    let n = r.get_count(4)?;
    let mut region_stack = Vec::with_capacity(n);
    for _ in 0..n {
        region_stack.push(RegionId(r.get_u32()?));
    }
    let open = if r.get_bool()? {
        let start = TimeNs(r.get_u64()?);
        let counters = get_counter_set(r)?;
        let enclosing = RegionId(r.get_u32()?);
        Some((start, counters, enclosing))
    } else {
        None
    };
    let ordinal = r.get_u32()?;
    Ok(BurstExtractor { region_stack, open, ordinal })
}

fn fault_kind_tag(k: FaultKind) -> u8 {
    match k {
        FaultKind::MalformedTrace => 0,
        FaultKind::NonMonotonicTime => 1,
        FaultKind::CounterOverflow => 2,
        FaultKind::NanSamples => 3,
        FaultKind::DegenerateFold => 4,
        FaultKind::FitDiverged => 5,
        FaultKind::TaskPanicked => 6,
        FaultKind::Io => 7,
    }
}

fn fault_kind_from_tag(t: u8) -> Result<FaultKind, CodecError> {
    Ok(match t {
        0 => FaultKind::MalformedTrace,
        1 => FaultKind::NonMonotonicTime,
        2 => FaultKind::CounterOverflow,
        3 => FaultKind::NanSamples,
        4 => FaultKind::DegenerateFold,
        5 => FaultKind::FitDiverged,
        6 => FaultKind::TaskPanicked,
        7 => FaultKind::Io,
        other => return Err(CodecError::Malformed(format!("unknown fault kind tag {other}"))),
    })
}

fn severity_tag(s: Severity) -> u8 {
    match s {
        Severity::Warning => 0,
        Severity::Error => 1,
        Severity::Fatal => 2,
    }
}

fn severity_from_tag(t: u8) -> Result<Severity, CodecError> {
    Ok(match t {
        0 => Severity::Warning,
        1 => Severity::Error,
        2 => Severity::Fatal,
        other => return Err(CodecError::Malformed(format!("unknown severity tag {other}"))),
    })
}

fn put_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        None => w.put_bool(false),
        Some(v) => {
            w.put_bool(true);
            w.put_u64(v);
        }
    }
}

fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, CodecError> {
    Ok(if r.get_bool()? { Some(r.get_u64()?) } else { None })
}

/// Writes one [`Fault`] (kind, severity, provenance, detail, cause chain)
/// so quarantine reports survive a checkpoint/restore round trip.
pub fn put_fault(w: &mut Writer, f: &Fault) {
    w.put_u8(fault_kind_tag(f.kind));
    w.put_u8(severity_tag(f.severity));
    match &f.provenance.trace {
        None => w.put_bool(false),
        Some(t) => {
            w.put_bool(true);
            w.put_str(t);
        }
    }
    put_opt_u64(w, f.provenance.rank.map(u64::from));
    put_opt_u64(w, f.provenance.counter.map(|c| c.index() as u64));
    put_opt_u64(w, f.provenance.cluster.map(|c| c as u64));
    put_opt_u64(w, f.provenance.line.map(|l| l as u64));
    w.put_str(&f.detail);
    w.put_usize(f.chain.len());
    for cause in &f.chain {
        w.put_str(cause);
    }
}

/// Reads one [`Fault`] written by [`put_fault`].
pub fn get_fault(r: &mut Reader<'_>) -> Result<Fault, CodecError> {
    let kind = fault_kind_from_tag(r.get_u8()?)?;
    let severity = severity_from_tag(r.get_u8()?)?;
    let trace = if r.get_bool()? { Some(r.get_str()?) } else { None };
    let rank = get_opt_u64(r)?.map(|v| v as u32);
    let counter = match get_opt_u64(r)? {
        None => None,
        Some(i) => Some(CounterKind::from_index(i as usize).ok_or_else(|| {
            CodecError::Malformed(format!("counter index {i} out of range"))
        })?),
    };
    let cluster = get_opt_u64(r)?.map(|v| v as usize);
    let line = get_opt_u64(r)?.map(|v| v as usize);
    let detail = r.get_str()?;
    let n = r.get_count(8)?;
    let mut chain = Vec::with_capacity(n);
    for _ in 0..n {
        chain.push(r.get_str()?);
    }
    Ok(Fault {
        kind,
        severity,
        provenance: Provenance { trace, rank, counter, cluster, line },
        detail,
        chain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CommKind;

    fn sample_records() -> Vec<Record> {
        let mut counters = CounterSet::ZERO;
        counters[CounterKind::Instructions] = 1234.5;
        counters[CounterKind::BranchMisses] = -0.0; // sign bit must survive
        let mut partial = PartialCounterSet::EMPTY;
        partial.set(CounterKind::Cycles, f64::NAN);
        partial.set(CounterKind::L3Misses, 7.25);
        vec![
            Record::RegionEnter { time: TimeNs(1), region: RegionId(9) },
            Record::RegionExit { time: TimeNs(2), region: RegionId(u32::MAX) },
            Record::CommEnter { time: TimeNs(3), kind: CommKind::Send, counters },
            Record::CommExit { time: TimeNs(4), kind: CommKind::Wait, counters },
            Record::Sample(Sample {
                time: TimeNs(5),
                counters: partial,
                callstack: Arc::new(CallStack::new(vec![RegionId(1), RegionId(2)], 42)),
            }),
        ]
    }

    #[test]
    fn records_roundtrip_bit_exact() {
        let records = sample_records();
        let mut w = Writer::new();
        for r in &records {
            put_record(&mut w, r);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for original in &records {
            let decoded = get_record(&mut r).unwrap();
            // PartialEq on f64 would reject NaN == NaN; compare the encoded
            // bytes instead, which is the bit-exactness we actually claim.
            let mut a = Writer::new();
            let mut b = Writer::new();
            put_record(&mut a, original);
            put_record(&mut b, &decoded);
            assert_eq!(a.into_bytes(), b.into_bytes());
        }
        assert!(r.is_done());
    }

    #[test]
    fn frame_detects_each_defect_class() {
        const MAGIC: u32 = 0x5046_4b31;
        let framed = frame(MAGIC, 1, b"hello payload");
        assert_eq!(unframe(MAGIC, 1, &framed).unwrap(), (1, b"hello payload".as_slice()));

        // Torn tail.
        assert_eq!(unframe(MAGIC, 1, &framed[..framed.len() - 3]), Err(CodecError::Truncated));
        // Wrong artifact kind.
        assert!(matches!(
            unframe(0xDEAD_BEEF, 1, &framed),
            Err(CodecError::BadMagic { .. })
        ));
        // Flipped payload bit.
        let mut corrupt = framed.clone();
        corrupt[18] ^= 0x40;
        assert_eq!(unframe(MAGIC, 1, &corrupt), Err(CodecError::BadChecksum));
        // Future version (intact checksum).
        let future = frame(MAGIC, 2, b"hello payload");
        assert!(matches!(
            unframe(MAGIC, 1, &future),
            Err(CodecError::BadVersion { found: 2, max: 1 })
        ));
        // Empty file.
        assert_eq!(unframe(MAGIC, 1, b""), Err(CodecError::Truncated));
    }

    #[test]
    fn absurd_lengths_fail_instead_of_allocating() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // a "length" promising 16 EiB
        let bytes = w.into_bytes();
        assert!(matches!(Reader::new(&bytes).get_len(), Err(CodecError::Malformed(_))));
        assert!(matches!(Reader::new(&bytes).get_count(4), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn fault_roundtrip_preserves_provenance() {
        let f = Fault::new(FaultKind::CounterOverflow, "counter decreased")
            .severity(Severity::Warning)
            .on_rank(3)
            .on_counter(CounterKind::Cycles)
            .at_line(17)
            .caused_by("wrapped PMU");
        let mut w = Writer::new();
        put_fault(&mut w, &f);
        let bytes = w.into_bytes();
        let decoded = get_fault(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn extractor_roundtrip() {
        let mut ex = BurstExtractor::new();
        let mut faults = crate::fault::FaultReport::new();
        let mut c = CounterSet::ZERO;
        c[CounterKind::Instructions] = 5.0;
        ex.push(
            RankId(0),
            &Record::RegionEnter { time: TimeNs(1), region: RegionId(4) },
            crate::time::DurNs::ZERO,
            &mut faults,
        );
        ex.push(
            RankId(0),
            &Record::CommExit { time: TimeNs(10), kind: CommKind::Collective, counters: c },
            crate::time::DurNs::ZERO,
            &mut faults,
        );
        let mut w = Writer::new();
        put_extractor(&mut w, &ex);
        let bytes = w.into_bytes();
        let restored = get_extractor(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.open_start(), Some(TimeNs(10)));
        // The restored extractor closes the open burst exactly as the
        // original would.
        let mut orig = ex;
        let mut a = restored;
        let mut c2 = CounterSet::ZERO;
        c2[CounterKind::Instructions] = 9.0;
        let close = Record::CommEnter { time: TimeNs(30), kind: CommKind::Collective, counters: c2 };
        let b1 = orig.push(RankId(0), &close, crate::time::DurNs::ZERO, &mut faults);
        let b2 = a.push(RankId(0), &close, crate::time::DurNs::ZERO, &mut faults);
        assert_eq!(b1, b2);
        assert!(b1.is_some());
    }
}
