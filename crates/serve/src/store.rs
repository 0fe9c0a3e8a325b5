//! Durable session store: checkpoint files plus per-session WAL recovery.
//!
//! Lives under `--state-dir`. Each session `{id}` owns at most two files:
//!
//! * `{id}.ckpt` — the latest checkpoint: a framed, checksummed blob
//!   carrying the session's fault policy, the WAL sequence number the
//!   checkpoint covers (`applied_seq`), and the full
//!   [`OnlineAnalyzer`](phasefold::OnlineAnalyzer) state.
//! * `{id}.wal` — under `--durability wal`, every acknowledged record
//!   batch since that checkpoint (see [`crate::wal`]).
//!
//! Checkpoints are written atomically with [`codec::write_atomic`] (tmp +
//! fsync + rename + directory fsync), so a crash mid-checkpoint leaves the
//! previous checkpoint intact. Recovery
//! ([`SessionStore::recover`]) scans `*.ckpt`, restores each analyzer, and
//! replays WAL entries with `seq > applied_seq` through
//! [`apply_record_lines`] — the *same* function the live request handler
//! uses, which is what makes replay reproduce the pre-crash state exactly.
//! Corrupt checkpoints and torn WAL tails are quarantined (renamed to
//! `*.corrupt`, surfaced as [`FaultKind::Io`] faults on the recovered
//! session), never panicked on.

use crate::wal::{read_log, Wal};
use phasefold::{AnalysisConfig, FaultPolicy, OnlineAnalyzer};
use phasefold_model::codec::{self, Reader, Writer};
use phasefold_model::{prv, Fault, FaultKind, RankId, Record, Severity};
use std::path::{Path, PathBuf};

/// Magic number of the session-store checkpoint frame ("PFSS").
pub const STORE_MAGIC: u32 = 0x5046_5353;

/// Current store frame version.
pub const STORE_VERSION: u32 = 1;

/// What the daemon promises about acknowledged records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No persistence: a restart loses every open stream (fastest).
    #[default]
    None,
    /// Periodic checkpoints: a restart rewinds each stream to its last
    /// checkpoint (bounded loss, no per-request fsync).
    Checkpoint,
    /// Write-ahead log: every acknowledged batch is fsync'd before the
    /// ack; a restart loses nothing acknowledged (one fsync per batch).
    Wal,
}

impl Durability {
    /// Parses a `--durability` flag value.
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "none" => Some(Durability::None),
            "checkpoint" => Some(Durability::Checkpoint),
            "wal" => Some(Durability::Wal),
            _ => None,
        }
    }

    /// The flag spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            Durability::None => "none",
            Durability::Checkpoint => "checkpoint",
            Durability::Wal => "wal",
        }
    }

    /// True when sessions keep a write-ahead log.
    pub fn wal(self) -> bool {
        matches!(self, Durability::Wal)
    }

    /// True when the daemon checkpoints sessions periodically on its own.
    pub fn auto_checkpoint(self) -> bool {
        !matches!(self, Durability::None)
    }
}

/// The on-disk side of streaming sessions.
#[derive(Debug)]
pub struct SessionStore {
    dir: PathBuf,
    /// The durability contract sessions run under.
    pub durability: Durability,
    /// Accepted records between automatic checkpoints.
    pub checkpoint_every: u64,
}

/// One session brought back from disk by [`SessionStore::recover`].
#[derive(Debug)]
pub struct RecoveredSession {
    /// The session id (checkpoint file stem).
    pub id: String,
    /// Fault policy the session was created under.
    pub policy: FaultPolicy,
    /// The restored analyzer, WAL entries already replayed into it (any
    /// recovery defects are quarantined in its fault report).
    pub analyzer: OnlineAnalyzer,
    /// The reopened log (`--durability wal` only), positioned after the
    /// last good entry.
    pub wal: Option<Wal>,
    /// Highest WAL sequence number reflected in `analyzer`.
    pub applied_seq: u64,
}

/// Deterministic per-session reservoir seed: sessions are reproducible
/// from their id + record stream alone, and a recovered fresh session
/// (corrupt checkpoint, intact WAL) re-derives the same seed.
pub fn session_seed(id: &str) -> u64 {
    codec::fnv1a64(id.as_bytes())
}

impl SessionStore {
    /// Opens (creating) the state directory.
    pub fn open(
        dir: PathBuf,
        durability: Durability,
        checkpoint_every: u64,
    ) -> std::io::Result<SessionStore> {
        std::fs::create_dir_all(&dir)?;
        Ok(SessionStore { dir, durability, checkpoint_every: checkpoint_every.max(1) })
    }

    /// The state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoint path for `id`.
    pub fn ckpt_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.ckpt"))
    }

    /// WAL path for `id`.
    pub fn wal_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.wal"))
    }

    /// Atomically replaces `id`'s checkpoint ([`codec::write_atomic`]). A
    /// crash at any point leaves either the old or the new checkpoint
    /// intact.
    pub fn write_checkpoint(
        &self,
        id: &str,
        policy: FaultPolicy,
        applied_seq: u64,
        analyzer: &OnlineAnalyzer,
    ) -> std::io::Result<()> {
        let mut w = Writer::new();
        w.put_u8(match policy {
            FaultPolicy::Lenient => 0,
            FaultPolicy::Strict => 1,
        });
        w.put_u64(applied_seq);
        w.put_bytes(&analyzer.encode_checkpoint());
        let framed = codec::frame(STORE_MAGIC, STORE_VERSION, &w.into_bytes());
        codec::write_atomic(&self.ckpt_path(id), &framed)
    }

    /// Deletes every on-disk artifact of `id` (checkpoint, WAL, quarantined
    /// corpses). Used by `DELETE /v1/streams/{id}`.
    pub fn remove(&self, id: &str) {
        for suffix in ["ckpt", "wal", "ckpt.corrupt", "wal.corrupt"] {
            let _ = std::fs::remove_file(self.dir.join(format!("{id}.{suffix}")));
        }
    }

    /// Restores every session checkpointed in the state dir, replaying WAL
    /// tails under `--durability wal`. Infallible by design: a session
    /// whose checkpoint is corrupt comes back *fresh* with the defect
    /// quarantined in its fault report (and its WAL — which starts at the
    /// beginning of the stream until the first checkpoint — replayed), so
    /// one bad file cannot take down recovery of the rest.
    pub fn recover(
        &self,
        analysis: &AnalysisConfig,
        warmup_bursts: usize,
        max_ranks: usize,
    ) -> Vec<RecoveredSession> {
        let mut out = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return out;
        };
        let mut ids: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                name.strip_suffix(".ckpt").map(str::to_string)
            })
            .collect();
        ids.sort(); // deterministic recovery order
        for id in ids {
            out.push(self.recover_one(&id, analysis, warmup_bursts, max_ranks));
        }
        out
    }

    /// Restores a single session if the store holds a checkpoint for it.
    /// Used to transparently resume a session that was evicted to disk by
    /// the idle-TTL sweep and is now being addressed again.
    pub fn recover_session(
        &self,
        id: &str,
        analysis: &AnalysisConfig,
        warmup_bursts: usize,
        max_ranks: usize,
    ) -> Option<RecoveredSession> {
        if !self.ckpt_path(id).exists() {
            return None;
        }
        Some(self.recover_one(id, analysis, warmup_bursts, max_ranks))
    }

    fn recover_one(
        &self,
        id: &str,
        analysis: &AnalysisConfig,
        warmup_bursts: usize,
        max_ranks: usize,
    ) -> RecoveredSession {
        let ckpt_path = self.ckpt_path(id);
        let (mut analyzer, policy, mut applied_seq) =
            match std::fs::read(&ckpt_path).map_err(|e| format!("read failed: {e}")).and_then(
                |bytes| decode_store_frame(analysis, &bytes).map_err(|e| e.to_string()),
            ) {
                Ok(ok) => ok,
                Err(why) => {
                    // Quarantine the corpse for post-mortems, start fresh,
                    // and let the WAL (which covers the stream since the
                    // last successful checkpoint — possibly its start)
                    // rebuild what it can.
                    let corrupt = self.dir.join(format!("{id}.ckpt.corrupt"));
                    let _ = std::fs::rename(&ckpt_path, &corrupt);
                    phasefold_obs::counter!("serve.checkpoints_corrupt", 1);
                    let mut fresh = OnlineAnalyzer::new(analysis.clone(), warmup_bursts)
                        .with_max_ranks(max_ranks)
                        .with_seed(session_seed(id));
                    fresh.quarantine(
                        Fault::new(
                            FaultKind::Io,
                            format!(
                                "checkpoint {} unusable ({why}); preserved as {} and session \
                                 rebuilt from its write-ahead log",
                                ckpt_path.display(),
                                corrupt.display(),
                            ),
                        )
                        .severity(Severity::Error),
                    );
                    (fresh, analysis.fault_policy, 0)
                }
            };

        let mut wal = None;
        if self.durability.wal() {
            let wal_path = self.wal_path(id);
            let mut last_seq = applied_seq;
            match read_log(&wal_path) {
                Ok(contents) => {
                    if let Some(why) = contents.torn {
                        // Preserve the whole pre-truncation file (good
                        // prefix + bad tail) for post-mortems, then cut the
                        // log back to the last good entry.
                        let corrupt = self.dir.join(format!("{id}.wal.corrupt"));
                        let _ = std::fs::copy(&wal_path, &corrupt);
                        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&wal_path) {
                            let _ = f.set_len(contents.good_len);
                            let _ = f.sync_data();
                        }
                        phasefold_obs::counter!("serve.wal_torn_tails", 1);
                        analyzer.quarantine(
                            Fault::new(
                                FaultKind::Io,
                                format!(
                                    "write-ahead log {} had an unusable tail ({why}); \
                                     preserved as {} and truncated to {} bytes",
                                    wal_path.display(),
                                    corrupt.display(),
                                    contents.good_len,
                                ),
                            )
                            .severity(Severity::Error),
                        );
                    }
                    let strict = policy == FaultPolicy::Strict;
                    for entry in contents.entries {
                        last_seq = last_seq.max(entry.seq);
                        if entry.seq <= applied_seq {
                            continue; // already inside the checkpoint
                        }
                        match std::str::from_utf8(&entry.body) {
                            // Replay through the exact handler path; a
                            // strict rejection replays the same kept
                            // prefix it kept live, so the outcome is
                            // ignored on purpose.
                            Ok(text) => {
                                let _ = apply_record_lines(&mut analyzer, strict, max_ranks, text);
                                applied_seq = entry.seq;
                            }
                            Err(_) => analyzer.quarantine(
                                Fault::new(
                                    FaultKind::Io,
                                    format!(
                                        "WAL entry {} is not UTF-8 despite a valid checksum; \
                                         entry skipped",
                                        entry.seq
                                    ),
                                )
                                .severity(Severity::Error),
                            ),
                        }
                    }
                }
                Err(e) => analyzer.quarantine(
                    Fault::new(
                        FaultKind::Io,
                        format!("write-ahead log {} unreadable: {e}", wal_path.display()),
                    )
                    .severity(Severity::Error),
                ),
            }
            match Wal::open(&wal_path, last_seq + 1) {
                Ok(w) => wal = Some(w),
                Err(e) => analyzer.quarantine(
                    Fault::new(
                        FaultKind::Io,
                        format!("could not reopen write-ahead log {}: {e}", wal_path.display()),
                    )
                    .severity(Severity::Error),
                ),
            }
        }
        RecoveredSession { id: id.to_string(), policy, analyzer, wal, applied_seq }
    }
}

/// Decodes a store frame into `(analyzer, policy, applied_seq)`.
fn decode_store_frame(
    analysis: &AnalysisConfig,
    bytes: &[u8],
) -> Result<(OnlineAnalyzer, FaultPolicy, u64), Fault> {
    let (_, payload) = codec::unframe(STORE_MAGIC, STORE_VERSION, bytes).map_err(|e| {
        Fault::new(FaultKind::Io, format!("store frame rejected: {e}")).severity(Severity::Error)
    })?;
    let r = &mut Reader::new(payload);
    let malformed = |e: codec::CodecError| {
        Fault::new(FaultKind::Io, format!("store payload rejected: {e}")).severity(Severity::Error)
    };
    let policy = match r.get_u8().map_err(malformed)? {
        0 => FaultPolicy::Lenient,
        1 => FaultPolicy::Strict,
        other => {
            return Err(Fault::new(
                FaultKind::Io,
                format!("store payload rejected: unknown fault-policy tag {other}"),
            )
            .severity(Severity::Error))
        }
    };
    let applied_seq = r.get_u64().map_err(malformed)?;
    let analyzer_bytes = r.get_bytes().map_err(malformed)?;
    // The session keeps the policy it was created with, whatever the
    // daemon's current default is.
    let mut config = analysis.clone();
    config.fault_policy = policy;
    let analyzer = OnlineAnalyzer::restore_checkpoint(config, &analyzer_bytes)?;
    Ok((analyzer, policy, applied_seq))
}

/// Outcome of applying one record-batch body to a session.
#[derive(Debug, Default)]
pub(crate) struct ApplyOutcome {
    /// Records accepted into the analyzer.
    pub accepted: usize,
    /// Records the analyzer quarantined (lenient defects).
    pub quarantined: usize,
    /// Lines that did not parse (lenient mode counts them; strict rejects).
    pub malformed: usize,
    /// Total stream faults on the session after this batch.
    pub stream_faults_total: usize,
    /// Strict-mode rejection message (HTTP 422 body). Records accepted
    /// before the defect are kept — exactly what a live strict session
    /// does — so replaying a rejected body reproduces the kept prefix.
    pub rejected: Option<String>,
}

/// Parses one `POST /v1/streams/{id}/records` body and pushes it into the
/// analyzer: the single code path shared by the live handler and WAL
/// replay. Determinism of this function is the durability argument — a
/// replayed body must land the analyzer in the same state it reached when
/// the body was first acknowledged.
pub(crate) fn apply_record_lines(
    analyzer: &mut OnlineAnalyzer,
    strict: bool,
    max_ranks: usize,
    text: &str,
) -> ApplyOutcome {
    let mut outcome = ApplyOutcome::default();
    // Parse the batch, grouping consecutive same-rank records so
    // `try_push_records` sees few large batches instead of many singletons.
    let mut batches: Vec<(RankId, Vec<Record>)> = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue; // headers/comments are legal but carry no records
        }
        match prv::parse_record_line(line, line_no + 1) {
            // An out-of-range rank id would make the session allocate
            // per-rank state up to it: reject before it reaches the
            // analyzer (which enforces the same cap as a backstop).
            Ok((rank, _)) if rank.0 as usize >= max_ranks => {
                if strict {
                    outcome.rejected = Some(format!(
                        "line {}: rank {} exceeds the per-session rank cap {max_ranks}\n",
                        line_no + 1,
                        rank.0
                    ));
                    outcome.stream_faults_total = analyzer.stream_faults().faults.len();
                    return outcome;
                }
                outcome.malformed += 1;
            }
            Ok((rank, record)) => match batches.last_mut() {
                Some((last_rank, batch)) if *last_rank == rank => batch.push(record),
                _ => batches.push((rank, vec![record])),
            },
            Err(e) if strict => {
                outcome.rejected = Some(format!("{e}\n"));
                outcome.stream_faults_total = analyzer.stream_faults().faults.len();
                return outcome;
            }
            Err(_) => outcome.malformed += 1,
        }
    }
    let before = analyzer.records_quarantined();
    for (rank, batch) in &batches {
        match analyzer.try_push_records(*rank, batch) {
            Ok(n) => outcome.accepted += n,
            Err(fault) => {
                // Strict session: the batch aborted on this fault; records
                // accepted before it are kept.
                outcome.rejected = Some(format!("{fault}\n"));
                break;
            }
        }
    }
    outcome.quarantined = analyzer.records_quarantined() - before;
    outcome.stream_faults_total = analyzer.stream_faults().faults.len();
    outcome
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmp_store(name: &str, durability: Durability) -> SessionStore {
        let dir =
            std::env::temp_dir().join(format!("phasefold-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SessionStore::open(dir, durability, 1000).unwrap()
    }

    fn trace_text() -> String {
        use phasefold_simapp::workloads::synthetic::{build, SyntheticParams};
        use phasefold_simapp::{simulate, SimConfig};
        use phasefold_tracer::{trace_run, TracerConfig};
        let program = build(&SyntheticParams { iterations: 120, ..SyntheticParams::default() });
        let out = simulate(&program, &SimConfig { ranks: 1, ..SimConfig::default() });
        prv::write_trace(&trace_run(&program.registry, &out.timelines, &TracerConfig::default()))
    }

    fn fresh_analyzer() -> OnlineAnalyzer {
        OnlineAnalyzer::new(AnalysisConfig::default(), 30).with_seed(session_seed("s1"))
    }

    #[test]
    fn checkpoint_write_recover_roundtrip() {
        let store = tmp_store("roundtrip", Durability::Checkpoint);
        let mut analyzer = fresh_analyzer();
        let text = trace_text();
        let outcome = apply_record_lines(&mut analyzer, false, 1 << 16, &text);
        assert!(outcome.accepted > 0);
        assert!(analyzer.is_warm());
        let bursts = analyzer.bursts_seen();
        store.write_checkpoint("s1", FaultPolicy::Lenient, 7, &analyzer).unwrap();

        let recovered = store.recover(&AnalysisConfig::default(), 30, 1 << 16);
        assert_eq!(recovered.len(), 1);
        let r = &recovered[0];
        assert_eq!(r.id, "s1");
        assert_eq!(r.policy, FaultPolicy::Lenient);
        assert_eq!(r.applied_seq, 7);
        assert_eq!(r.analyzer.bursts_seen(), bursts);
        assert!(r.analyzer.is_warm());
        assert!(r.wal.is_none(), "checkpoint mode reopens no wal");
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_not_fatal() {
        let store = tmp_store("corrupt", Durability::Checkpoint);
        let analyzer = fresh_analyzer();
        store.write_checkpoint("s1", FaultPolicy::Strict, 0, &analyzer).unwrap();
        let path = store.ckpt_path("s1");
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();

        let recovered = store.recover(&AnalysisConfig::default(), 30, 1 << 16);
        assert_eq!(recovered.len(), 1);
        let r = &recovered[0];
        assert_eq!(r.analyzer.bursts_seen(), 0, "session restarts fresh");
        let faults = r.analyzer.stream_faults();
        assert_eq!(faults.faults[0].kind, FaultKind::Io);
        assert!(faults.faults[0].detail.contains("unusable"));
        assert!(!path.exists(), "corpse must be moved aside");
        assert!(store.dir().join("s1.ckpt.corrupt").exists());
    }

    #[test]
    fn wal_replay_resumes_past_checkpoint() {
        let store = tmp_store("replay", Durability::Wal);
        let mut live = fresh_analyzer();
        let text = trace_text();
        let lines: Vec<&str> = text.lines().collect();
        let mid = lines.len() / 2;
        let first_half = lines[..mid].join("\n");
        let second_half = lines[mid..].join("\n");

        // Checkpoint after the first half; WAL the second half only.
        apply_record_lines(&mut live, false, 1 << 16, &first_half);
        store.write_checkpoint("s1", FaultPolicy::Lenient, 2, &live).unwrap();
        let mut wal = Wal::open(&store.wal_path("s1"), 1).unwrap();
        wal.append(first_half.as_bytes()).unwrap(); // seqs 1..=2 are inside
        wal.append(b"# covered by checkpoint").unwrap(); // the checkpoint
        wal.append(second_half.as_bytes()).unwrap(); // seq 3: must replay
        drop(wal);
        apply_record_lines(&mut live, false, 1 << 16, &second_half);

        let recovered = store.recover(&AnalysisConfig::default(), 30, 1 << 16);
        assert_eq!(recovered.len(), 1);
        let r = &recovered[0];
        assert_eq!(r.applied_seq, 3);
        assert_eq!(r.analyzer.bursts_seen(), live.bursts_seen());
        assert_eq!(
            r.analyzer.stream_faults().faults.len(),
            live.stream_faults().faults.len()
        );
        assert_eq!(r.wal.as_ref().unwrap().next_seq(), 4);
    }

    #[test]
    fn torn_wal_tail_truncated_and_quarantined() {
        use std::io::Write as _;
        let store = tmp_store("torn", Durability::Wal);
        let analyzer = fresh_analyzer();
        store.write_checkpoint("s1", FaultPolicy::Lenient, 0, &analyzer).unwrap();
        let wal_path = store.wal_path("s1");
        let mut wal = Wal::open(&wal_path, 1).unwrap();
        wal.append(b"# fine entry").unwrap();
        drop(wal);
        let good_len = std::fs::metadata(&wal_path).unwrap().len();
        let mut raw = std::fs::OpenOptions::new().append(true).open(&wal_path).unwrap();
        raw.write_all(b"garbage from a torn write").unwrap();
        drop(raw);

        let recovered = store.recover(&AnalysisConfig::default(), 30, 1 << 16);
        let r = &recovered[0];
        let faults = r.analyzer.stream_faults();
        assert!(faults.faults.iter().any(|f| f.kind == FaultKind::Io
            && f.detail.contains("unusable tail")));
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), good_len);
        assert!(store.dir().join("s1.wal.corrupt").exists(), "tail preserved");
        assert_eq!(r.applied_seq, 1, "good prefix still replays");
    }
}
