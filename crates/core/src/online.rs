//! On-line (streaming) phase analysis.
//!
//! The companion work (Llort et al., IPDPS'10/ICPADS'11) runs the analysis
//! *while the application executes*: structure is detected once enough
//! bursts have been seen, then incoming data is classified on the fly and
//! the models keep sharpening. This module reproduces that architecture:
//!
//! * **warm-up**: buffer bursts until `warmup_bursts` have arrived, then
//!   run DBSCAN once and freeze the clustering as centroids;
//! * **streaming**: every later burst is assigned to the nearest frozen
//!   centroid (within the clustering ε, else noise) in O(k), and its
//!   samples fold straight into the per-cluster profiles;
//! * **snapshot**: at any moment, [`OnlineAnalyzer::snapshot`] fits the
//!   current folded profiles and returns a regular [`Analysis`].
//!
//! # Memory behavior
//!
//! *Before* the structure freezes, per-rank record buffers grow with the
//! stream: `freeze()` must re-fold the warm-up bursts' samples, so the
//! warm-up prefix is held whole (O(records until warm-up completes)).
//! *After* the freeze, two mechanisms bound the session:
//!
//! * **buffer compaction** — once a batch's completed bursts are folded,
//!   each rank's buffer is truncated to the records the extractor can
//!   still need: from the open burst's start (or the last timestamp when
//!   no burst is open) onward. Extraction is a single-pass state machine
//!   ([`phasefold_model::BurstExtractor`]), so nothing behind that point
//!   can influence future output; compaction is lossless by construction.
//! * **stratified reservoir sampling** — folded points are capped per
//!   stratum (stratum = frozen cluster × counter, plus one stack stratum
//!   per cluster) at [`OnlineAnalyzer::reservoir_cap`] points using
//!   Algorithm R driven by a splitmix64 stream keyed by the session seed,
//!   so sampling is deterministic given the seed and the record sequence.
//!
//! Steady-state memory is therefore O(open-burst records + reservoir caps
//! + quarantined faults), independent of stream length.
//!
//! # Batch ↔ sampled-stream equivalence bound
//!
//! Reservoir sampling never touches the *accounting*: bursts seen, per-rank
//! burst counts, cluster instance counts, counter totals, mean durations,
//! and fault reports are exact for any cap. What the cap thins is the
//! folded point cloud each per-cluster model is fitted from; the fitted
//! curves of a capped stream track the uncapped stream's within the RMS
//! tolerance enforced by phasefold-verify's `check_reservoir_stream`
//! property (curves evaluated on an even grid; RMS difference ≤ 0.08 in
//! normalized-progress units over the fuzzer spec space, cap ≥ 256; the
//! residual is dominated by breakpoint placement sensitivity in the
//! piece-wise fit, not by sample count).
//!
//! # Checkpoint / resume
//!
//! [`OnlineAnalyzer::encode_checkpoint`] serializes the complete session —
//! frozen centroids, per-cluster folds and reservoir state, per-rank resume
//! cursors (buffer tail, extractor state, monotonicity watermark), and the
//! fault report — into a versioned, length-prefixed, checksummed frame
//! ([`phasefold_model::codec`]). [`OnlineAnalyzer::restore_checkpoint`]
//! rebuilds a byte-for-byte equivalent analyzer: feeding both the original
//! and the restored analyzer the same subsequent records yields identical
//! snapshots, which is what makes crash/resume in `phasefold serve` exact.

use crate::config::AnalysisConfig;
use crate::pipeline::Analysis;
use phasefold_cluster::{cluster_bursts, Clustering};
use phasefold_folding::fold::{ClusterFold, FoldedPoint, FoldedProfile};
use phasefold_model::codec::{self, CodecError, Reader, Writer};
use phasefold_model::{
    Burst, BurstExtractor, CounterKind, Fault, FaultKind, FaultPolicy, FaultReport, ModelError,
    RankId, RankTrace, Record, Severity, TimeNs, NUM_COUNTERS,
};

/// Default cap on rank ids a session accepts. The per-rank buffers grow to
/// the largest rank id seen, so an unbounded id is an allocation
/// amplifier: one record claiming rank `u32::MAX` would otherwise demand
/// billions of `RankTrace` slots. Streamed rank ids at or above the cap
/// are faults, not allocations; see [`OnlineAnalyzer::with_max_ranks`].
pub const DEFAULT_MAX_RANKS: usize = 1 << 16;

/// Default per-stratum cap on folded points (stratum = cluster × counter).
/// Generous relative to what the segmented fit needs, small enough that a
/// week-long stream cannot grow a session past a few MiB per cluster.
pub const DEFAULT_RESERVOIR_CAP: usize = 8192;

/// Magic number of the checkpoint frame ("PFCK").
pub const CHECKPOINT_MAGIC: u32 = 0x5046_434B;

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Streaming analyzer state.
#[derive(Debug)]
pub struct OnlineAnalyzer {
    config: AnalysisConfig,
    warmup_bursts: usize,
    /// Highest accepted rank id is `max_ranks - 1`; higher ids fault
    /// instead of growing the per-rank buffers.
    max_ranks: usize,
    /// Per-stratum folded-point cap (0 = unbounded).
    reservoir_cap: usize,
    /// Session seed the reservoir RNG was keyed with.
    seed: u64,
    /// splitmix64 state; serialized so resume continues the same stream.
    rng: u64,
    /// Per-rank streaming state (record buffer + extraction cursor).
    streams: Vec<RankStream>,
    /// Bursts buffered during warm-up.
    warmup: Vec<Burst>,
    /// Frozen structure after warm-up.
    frozen: Option<FrozenClustering>,
    /// Per-cluster accumulated folds (same shape as the batch path).
    folds: Vec<OnlineFold>,
    bursts_seen: usize,
    noise_bursts: usize,
    /// Defective streamed records quarantined so far (lenient path), in
    /// arrival order; carried into every [`OnlineAnalyzer::snapshot`].
    stream_faults: FaultReport,
    records_quarantined: usize,
}

/// One rank's streaming state: the compacted record buffer, the incremental
/// burst extractor, and the monotonicity watermark (which must outlive
/// compaction — the buffer's own tail is not a stable reference point once
/// old records are dropped).
#[derive(Debug, Default)]
struct RankStream {
    buf: RankTrace,
    /// Timestamp of the last accepted record; `buf`'s tail time once any
    /// record has been accepted, but stable across compaction.
    last_time: Option<TimeNs>,
    extractor: BurstExtractor,
    /// Bursts emitted for this rank so far.
    bursts_seen: usize,
}

#[derive(Debug)]
struct FrozenClustering {
    /// Cluster centroids in feature space.
    centroids: Vec<[f64; 2]>,
    /// Feature normalisation ranges captured at freeze time.
    ranges: [(f64, f64); 2],
    /// Assignment radius (the clustering ε).
    eps: f64,
}

/// Incrementally-built fold of one cluster. `points_seen`/`stacks_seen`
/// count every candidate ever offered to the stratum — the denominators
/// Algorithm R needs to keep each retained sample uniformly likely.
#[derive(Debug, Default)]
struct OnlineFold {
    points: [Vec<FoldedPoint>; NUM_COUNTERS],
    points_seen: [u64; NUM_COUNTERS],
    stacks: Vec<(f64, std::sync::Arc<phasefold_model::CallStack>)>,
    stacks_seen: u64,
    totals: [f64; NUM_COUNTERS],
    total_dur_s: f64,
    instances: u32,
    samples: usize,
}

/// One splitmix64 step (Steele et al.); the full 2^64-period generator in
/// three multiplies, with state small enough to live in a checkpoint.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Algorithm R: keeps `vec` a uniform sample of everything ever offered.
/// `cap == 0` means unbounded (always keep).
fn reservoir_push<T>(vec: &mut Vec<T>, seen: &mut u64, cap: usize, rng: &mut u64, item: T) {
    *seen += 1;
    if cap == 0 || vec.len() < cap {
        vec.push(item);
        return;
    }
    let j = splitmix64(rng) % *seen;
    if (j as usize) < cap {
        vec[j as usize] = item;
    }
}

impl OnlineAnalyzer {
    /// Creates a streaming analyzer. `warmup_bursts` controls when the
    /// structure freezes (a few hundred is typical).
    pub fn new(config: AnalysisConfig, warmup_bursts: usize) -> OnlineAnalyzer {
        OnlineAnalyzer {
            config,
            warmup_bursts: warmup_bursts.max(8),
            max_ranks: DEFAULT_MAX_RANKS,
            reservoir_cap: DEFAULT_RESERVOIR_CAP,
            seed: 0,
            rng: 0,
            streams: Vec::new(),
            warmup: Vec::new(),
            frozen: None,
            folds: Vec::new(),
            bursts_seen: 0,
            noise_bursts: 0,
            stream_faults: FaultReport::new(),
            records_quarantined: 0,
        }
    }

    /// Overrides [`DEFAULT_MAX_RANKS`]. Records for rank ids at or above
    /// the cap are rejected as faults (strict) or quarantined (lenient)
    /// rather than allocating per-rank state, so a hostile rank id cannot
    /// balloon the session's memory.
    #[must_use]
    pub fn with_max_ranks(mut self, max_ranks: usize) -> OnlineAnalyzer {
        self.max_ranks = max_ranks.max(1);
        self
    }

    /// Keys the reservoir-sampling RNG. Two sessions fed identical records
    /// with identical seeds retain identical samples (and therefore produce
    /// identical snapshots); the seed travels in the checkpoint.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> OnlineAnalyzer {
        self.seed = seed;
        self.rng = seed;
        self
    }

    /// Overrides [`DEFAULT_RESERVOIR_CAP`] (0 disables sampling — points
    /// then grow without bound, the pre-reservoir behavior).
    #[must_use]
    pub fn with_reservoir_cap(mut self, cap: usize) -> OnlineAnalyzer {
        self.reservoir_cap = cap;
        self
    }

    /// The rank-id cap this session enforces.
    pub fn max_ranks(&self) -> usize {
        self.max_ranks
    }

    /// The session's reservoir seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-stratum folded-point cap (0 = unbounded).
    pub fn reservoir_cap(&self) -> usize {
        self.reservoir_cap
    }

    /// True once the structure has been frozen.
    pub fn is_warm(&self) -> bool {
        self.frozen.is_some()
    }

    /// Bursts processed so far (including noise).
    pub fn bursts_seen(&self) -> usize {
        self.bursts_seen
    }

    /// Bursts that did not match any frozen cluster.
    pub fn noise_bursts(&self) -> usize {
        self.noise_bursts
    }

    /// Bursts processed so far for `rank` (the per-rank resume cursor).
    /// Lets batch/online equivalence checks compare burst sequences rank
    /// by rank instead of only in aggregate.
    pub fn rank_bursts_seen(&self, rank: RankId) -> usize {
        self.streams.get(rank.0 as usize).map_or(0, |s| s.bursts_seen)
    }

    /// Defective records quarantined from the stream so far.
    pub fn records_quarantined(&self) -> usize {
        self.records_quarantined
    }

    /// The faults quarantined from the stream so far (lenient path). They
    /// are also carried into every [`OnlineAnalyzer::snapshot`].
    pub fn stream_faults(&self) -> &FaultReport {
        &self.stream_faults
    }

    /// Records an externally-detected fault against this session (e.g. a
    /// torn write-ahead-log tail discovered during recovery), so it rides
    /// along in [`OnlineAnalyzer::stream_faults`] and every snapshot.
    pub fn quarantine(&mut self, fault: Fault) {
        self.stream_faults.push(fault);
    }

    /// Estimated resident bytes of this session's retained state: record
    /// buffers, warm-up bursts, folded reservoirs, and the fault report.
    /// An estimate (capacity slack and small allocations are not tracked),
    /// intended for gauges and eviction heuristics, not accounting.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = size_of::<OnlineAnalyzer>();
        for s in &self.streams {
            total += size_of::<RankStream>() + s.buf.len() * size_of::<Record>();
        }
        total += self.warmup.len() * size_of::<Burst>();
        for fold in &self.folds {
            total += size_of::<OnlineFold>();
            for pts in &fold.points {
                total += pts.len() * size_of::<FoldedPoint>();
            }
            for (_, stack) in &fold.stacks {
                total += size_of::<(f64, std::sync::Arc<phasefold_model::CallStack>)>()
                    + size_of::<phasefold_model::CallStack>()
                    + stack.frames.len() * size_of::<phasefold_model::RegionId>();
            }
        }
        for fault in &self.stream_faults.faults {
            total += size_of::<Fault>() + fault.detail.len();
        }
        total
    }

    /// Feeds a batch of records for `rank` (expected in time order per
    /// rank). Bursts complete as their closing communication record
    /// arrives.
    ///
    /// This is the always-lenient entry point: a defective record (e.g. a
    /// non-monotonic timestamp from a glitching collector clock) is
    /// quarantined into [`OnlineAnalyzer::stream_faults`] and skipped —
    /// it never poisons the session. Callers that want the configured
    /// [`FaultPolicy`] to govern streaming use
    /// [`OnlineAnalyzer::try_push_records`].
    pub fn push_records(&mut self, rank: RankId, records: &[Record]) {
        // Forced-lenient: the Err arm is unreachable by construction.
        let _ = self.push_inner(rank, records, FaultPolicy::Lenient);
    }

    /// Feeds a batch of records for `rank`, honouring the analyzer's
    /// configured [`FaultPolicy`] — the streaming mirror of
    /// [`crate::try_analyze_trace`].
    ///
    /// Under [`FaultPolicy::Lenient`] defective records are quarantined
    /// (recorded in [`OnlineAnalyzer::stream_faults`] with rank
    /// provenance) and the healthy remainder is processed; returns the
    /// number of records accepted. Under [`FaultPolicy::Strict`] the first
    /// defective record aborts the batch with its fault; records before it
    /// are kept and bursts they complete are still processed.
    pub fn try_push_records(
        &mut self,
        rank: RankId,
        records: &[Record],
    ) -> Result<usize, Fault> {
        self.push_inner(rank, records, self.config.fault_policy)
    }

    fn push_inner(
        &mut self,
        rank: RankId,
        records: &[Record],
        policy: FaultPolicy,
    ) -> Result<usize, Fault> {
        let idx = rank.0 as usize;
        if idx >= self.max_ranks {
            let fault = Fault::new(
                FaultKind::MalformedTrace,
                format!("rank {} exceeds the session rank cap {}", rank.0, self.max_ranks),
            )
            .on_rank(rank.0);
            return match policy {
                FaultPolicy::Strict => Err(fault),
                FaultPolicy::Lenient => {
                    phasefold_obs::counter!("online.records_quarantined", records.len());
                    self.records_quarantined += records.len();
                    self.stream_faults.push(fault);
                    Ok(0)
                }
            };
        }
        while self.streams.len() <= idx {
            self.streams.push(RankStream::default());
        }
        let was_warm = self.frozen.is_some();
        let min_duration = self.config.min_burst_duration;
        let mut accepted = 0usize;
        let mut aborted: Option<Fault> = None;
        let mut completed: Vec<Burst> = Vec::new();
        let mut extraction_faults = FaultReport::new();
        for r in records {
            let stream = &mut self.streams[idx];
            if let Some(previous) = stream.last_time.filter(|last| r.time() < *last) {
                let fault = Fault::from(ModelError::OutOfOrder { at: r.time(), previous })
                    .on_rank(rank.0);
                match policy {
                    FaultPolicy::Strict => {
                        aborted = Some(fault);
                        break;
                    }
                    FaultPolicy::Lenient => {
                        phasefold_obs::counter!("online.records_quarantined", 1);
                        self.records_quarantined += 1;
                        self.stream_faults.push(fault);
                        continue;
                    }
                }
            }
            stream.last_time = Some(r.time());
            // Cannot fail: `last_time` tracks the buffer tail across
            // compaction, and the check above rejected anything earlier.
            let _ = stream.buf.push(r.clone());
            accepted += 1;
            completed.extend(stream.extractor.push(rank, r, min_duration, &mut extraction_faults));
        }
        for fault in extraction_faults.faults {
            phasefold_obs::counter!("online.bursts_quarantined", 1);
            self.stream_faults.push(fault);
        }
        // Records accepted before an abort are real: complete their bursts
        // either way so the session state stays consistent.
        for burst in completed {
            self.process_burst(burst, idx);
        }
        // Compact only once warm: `freeze()` re-folds the warm-up bursts'
        // samples, so pre-freeze buffers must stay whole. The freeze can
        // happen mid-batch, in which case every rank's buffer compacts now.
        if self.frozen.is_some() {
            if was_warm {
                self.compact(idx);
            } else {
                for i in 0..self.streams.len() {
                    self.compact(i);
                }
            }
        }
        match aborted {
            Some(fault) => Err(fault),
            None => Ok(accepted),
        }
    }

    /// Drops buffered records the extractor can no longer need: everything
    /// strictly before the open burst's start, or — when no burst is open —
    /// before the last accepted timestamp (a future burst can still open
    /// *at* that timestamp and claim equal-time samples). Lossless because
    /// extraction is single-pass and `samples_within` only ever queries
    /// `[start, end)` of bursts at or after the open point.
    fn compact(&mut self, idx: usize) {
        let stream = &mut self.streams[idx];
        let horizon = match stream.extractor.open_start() {
            Some(start) => start,
            None => match stream.last_time {
                Some(last) => last,
                None => return,
            },
        };
        let drop = stream.buf.records().partition_point(|r| r.time() < horizon);
        stream.buf.drop_first(drop);
    }

    fn process_burst(&mut self, burst: Burst, rank_idx: usize) {
        phasefold_obs::counter!("online.bursts_streamed", 1);
        self.bursts_seen += 1;
        self.streams[rank_idx].bursts_seen += 1;
        if self.frozen.is_none() {
            self.warmup.push(burst);
            if self.warmup.len() >= self.warmup_bursts {
                self.freeze();
            }
            return;
        }
        let assigned = self.assign(&burst);
        match assigned {
            Some(cluster) => self.fold_burst(&burst, rank_idx, cluster),
            None => self.noise_bursts += 1,
        }
    }

    /// Runs the batch clustering on the warm-up bursts and freezes it.
    fn freeze(&mut self) {
        let _sp = phasefold_obs::span!("online.freeze");
        let clustering: Clustering = cluster_bursts(&self.warmup, &self.config.cluster);
        let features = phasefold_cluster::extract_features(&self.warmup);
        let mut centroids = vec![[0.0f64; 2]; clustering.num_clusters];
        let mut counts = vec![0usize; clustering.num_clusters];
        for (point, label) in features.points.iter().zip(&clustering.labels) {
            if let Some(c) = label {
                centroids[*c][0] += point[0];
                centroids[*c][1] += point[1];
                counts[*c] += 1;
            }
        }
        for (c, n) in centroids.iter_mut().zip(&counts) {
            if *n > 0 {
                c[0] /= *n as f64;
                c[1] /= *n as f64;
            }
        }
        self.folds = (0..clustering.num_clusters).map(|_| OnlineFold::default()).collect();
        self.frozen = Some(FrozenClustering {
            centroids,
            ranges: features.ranges,
            eps: clustering.eps,
        });
        // Re-process the warm-up bursts through the frozen path so their
        // samples are folded too.
        let warmup = std::mem::take(&mut self.warmup);
        for burst in &warmup {
            let rank_idx = burst.id.rank.0 as usize;
            match self.assign(burst) {
                Some(cluster) => self.fold_burst(burst, rank_idx, cluster),
                None => self.noise_bursts += 1,
            }
        }
    }

    /// Nearest-centroid assignment within ε.
    fn assign(&self, burst: &Burst) -> Option<usize> {
        let frozen = self.frozen.as_ref()?;
        let dur = burst.duration().as_secs_f64().max(1e-12).log10();
        let ins = burst.counters[CounterKind::Instructions].max(1.0).log10();
        let raw = [dur, ins];
        let mut point = [0.0f64; 2];
        for d in 0..2 {
            let (lo, hi) = frozen.ranges[d];
            let span = (hi - lo).max(1.0);
            point[d] = (raw[d] - lo) / span;
        }
        let mut best: Option<(usize, f64)> = None;
        for (c, centroid) in frozen.centroids.iter().enumerate() {
            let dx = point[0] - centroid[0];
            let dy = point[1] - centroid[1];
            let dist = (dx * dx + dy * dy).sqrt();
            if best.is_none_or(|(_, bd)| dist < bd) {
                best = Some((c, dist));
            }
        }
        // Assignment radius: ε plus slack for centroid-vs-border geometry.
        best.filter(|(_, d)| *d <= frozen.eps * 2.0).map(|(c, _)| c)
    }

    /// Folds one burst's samples into its cluster's profiles, thinning each
    /// stratum through its reservoir once it reaches the cap.
    fn fold_burst(&mut self, burst: &Burst, rank_idx: usize, cluster: usize) {
        let fold = &mut self.folds[cluster];
        let instance = fold.instances;
        fold.instances += 1;
        fold.total_dur_s += burst.duration().as_secs_f64();
        for (i, t) in fold.totals.iter_mut().enumerate() {
            *t += burst.counters.as_array()[i];
        }
        let cap = self.reservoir_cap;
        let stream = &self.streams[rank_idx].buf;
        for sample in phasefold_model::burst::samples_within(stream, burst.start, burst.end) {
            fold.samples += 1;
            let x = sample.time.normalized_within(burst.start, burst.end);
            if !sample.callstack.is_empty() {
                // Shares the record's stack; snapshot clones of the fold
                // only bump the refcount.
                reservoir_push(
                    &mut fold.stacks,
                    &mut fold.stacks_seen,
                    cap,
                    &mut self.rng,
                    (x, std::sync::Arc::clone(&sample.callstack)),
                );
            }
            for (kind, absolute) in sample.counters.iter() {
                let total = burst.counters[kind];
                if total <= 0.0 {
                    continue;
                }
                let delta = absolute - burst.start_counters[kind];
                let y = (delta / total).clamp(0.0, 1.0);
                reservoir_push(
                    &mut fold.points[kind.index()],
                    &mut fold.points_seen[kind.index()],
                    cap,
                    &mut self.rng,
                    FoldedPoint { x, y, instance },
                );
            }
        }
    }

    /// Fits the current state into a regular [`Analysis`]. Cheap enough to
    /// call periodically; the folds are not consumed.
    pub fn snapshot(&self) -> Analysis {
        let _sp = phasefold_obs::span!("online.snapshot");
        let mut models = Vec::new();
        // Stream-level quarantines come first: they happened first.
        let mut faults = self.stream_faults.clone();
        let mut labels_placeholder = Vec::new();
        for (cluster, fold) in self.folds.iter().enumerate() {
            let cluster_fold = ClusterFold {
                cluster,
                profiles: std::array::from_fn(|i| {
                    FoldedProfile::from_points(
                        &fold.points[i],
                        fold.totals[i] / fold.instances.max(1) as f64,
                    )
                }),
                stacks: fold.stacks.clone(),
                mean_duration_s: fold.total_dur_s / fold.instances.max(1) as f64,
                instances_used: fold.instances as usize,
                instances_pruned: 0,
                samples: fold.samples,
            };
            if let Some(model) =
                crate::pipeline::build_model_checked(&cluster_fold, &self.config, &mut faults.faults)
            {
                models.push(model);
            }
            labels_placeholder.push(Some(cluster));
        }
        crate::pipeline::sort_models_by_total_time(&mut models);
        Analysis {
            clustering: Clustering {
                labels: labels_placeholder,
                num_clusters: self.folds.len(),
                eps: self.frozen.as_ref().map_or(0.0, |f| f.eps),
                spmd_score: 1.0,
            },
            num_bursts: self.bursts_seen,
            models,
            faults,
        }
    }

    /// Serializes the complete session into a versioned, length-prefixed,
    /// checksummed frame (see the module docs). The analysis *config* is
    /// deliberately not serialized — the daemon owns it and re-supplies it
    /// on [`OnlineAnalyzer::restore_checkpoint`], so a config upgrade does
    /// not invalidate old checkpoints.
    pub fn encode_checkpoint(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_usize(self.warmup_bursts);
        w.put_usize(self.max_ranks);
        w.put_usize(self.reservoir_cap);
        w.put_u64(self.seed);
        w.put_u64(self.rng);
        w.put_usize(self.bursts_seen);
        w.put_usize(self.noise_bursts);
        w.put_usize(self.records_quarantined);
        w.put_usize(self.stream_faults.faults.len());
        for fault in &self.stream_faults.faults {
            codec::put_fault(&mut w, fault);
        }
        w.put_usize(self.streams.len());
        for s in &self.streams {
            match s.last_time {
                None => w.put_bool(false),
                Some(t) => {
                    w.put_bool(true);
                    w.put_u64(t.0);
                }
            }
            w.put_usize(s.bursts_seen);
            codec::put_extractor(&mut w, &s.extractor);
            w.put_usize(s.buf.len());
            for r in s.buf.records() {
                codec::put_record(&mut w, r);
            }
        }
        w.put_usize(self.warmup.len());
        for b in &self.warmup {
            codec::put_burst(&mut w, b);
        }
        match &self.frozen {
            None => w.put_bool(false),
            Some(f) => {
                w.put_bool(true);
                w.put_usize(f.centroids.len());
                for c in &f.centroids {
                    w.put_f64(c[0]);
                    w.put_f64(c[1]);
                }
                for (lo, hi) in &f.ranges {
                    w.put_f64(*lo);
                    w.put_f64(*hi);
                }
                w.put_f64(f.eps);
            }
        }
        w.put_usize(self.folds.len());
        for fold in &self.folds {
            for i in 0..NUM_COUNTERS {
                w.put_usize(fold.points[i].len());
                for p in &fold.points[i] {
                    w.put_f64(p.x);
                    w.put_f64(p.y);
                    w.put_u32(p.instance);
                }
                w.put_u64(fold.points_seen[i]);
            }
            w.put_usize(fold.stacks.len());
            for (x, stack) in &fold.stacks {
                w.put_f64(*x);
                codec::put_callstack(&mut w, stack);
            }
            w.put_u64(fold.stacks_seen);
            for t in &fold.totals {
                w.put_f64(*t);
            }
            w.put_f64(fold.total_dur_s);
            w.put_u32(fold.instances);
            w.put_usize(fold.samples);
        }
        codec::frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &w.into_bytes())
    }

    /// Rebuilds a session from [`OnlineAnalyzer::encode_checkpoint`] bytes.
    /// The restored analyzer is behaviorally identical to the one that was
    /// encoded: identical subsequent input yields identical snapshots.
    /// Torn, corrupt, or foreign bytes come back as a single
    /// [`FaultKind::Io`] fault (severity [`Severity::Error`]) for the
    /// caller to quarantine — never a panic.
    pub fn restore_checkpoint(
        config: AnalysisConfig,
        bytes: &[u8],
    ) -> Result<OnlineAnalyzer, Fault> {
        Self::decode_checkpoint(config, bytes).map_err(|e| {
            Fault::new(FaultKind::Io, format!("checkpoint rejected: {e}"))
                .severity(Severity::Error)
        })
    }

    fn decode_checkpoint(
        config: AnalysisConfig,
        bytes: &[u8],
    ) -> Result<OnlineAnalyzer, CodecError> {
        let (_version, payload) = codec::unframe(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes)?;
        let r = &mut Reader::new(payload);
        let mut a = OnlineAnalyzer::new(config, 8);
        a.warmup_bursts = r.get_u64()? as usize;
        a.max_ranks = (r.get_u64()? as usize).max(1);
        a.reservoir_cap = r.get_u64()? as usize;
        a.seed = r.get_u64()?;
        a.rng = r.get_u64()?;
        a.bursts_seen = r.get_u64()? as usize;
        a.noise_bursts = r.get_u64()? as usize;
        a.records_quarantined = r.get_u64()? as usize;
        let n_faults = r.get_count(2)?;
        for _ in 0..n_faults {
            a.stream_faults.push(codec::get_fault(r)?);
        }
        let n_streams = r.get_count(1)?;
        for _ in 0..n_streams {
            let last_time = if r.get_bool()? { Some(TimeNs(r.get_u64()?)) } else { None };
            let bursts_seen = r.get_u64()? as usize;
            let extractor = codec::get_extractor(r)?;
            let n_records = r.get_count(9)?;
            let mut buf = RankTrace::new();
            for _ in 0..n_records {
                let record = codec::get_record(r)?;
                buf.push(record).map_err(|e| {
                    CodecError::Malformed(format!("buffered records out of order: {e}"))
                })?;
            }
            a.streams.push(RankStream { buf, last_time, extractor, bursts_seen });
        }
        let n_warmup = r.get_count(8)?;
        for _ in 0..n_warmup {
            a.warmup.push(codec::get_burst(r)?);
        }
        if r.get_bool()? {
            let n_centroids = r.get_count(16)?;
            let mut centroids = Vec::with_capacity(n_centroids);
            for _ in 0..n_centroids {
                centroids.push([r.get_f64()?, r.get_f64()?]);
            }
            let mut ranges = [(0.0f64, 0.0f64); 2];
            for range in &mut ranges {
                *range = (r.get_f64()?, r.get_f64()?);
            }
            let eps = r.get_f64()?;
            a.frozen = Some(FrozenClustering { centroids, ranges, eps });
        }
        let n_folds = r.get_count(8)?;
        for _ in 0..n_folds {
            let mut fold = OnlineFold::default();
            for i in 0..NUM_COUNTERS {
                let n_points = r.get_count(20)?;
                fold.points[i].reserve(n_points);
                for _ in 0..n_points {
                    fold.points[i].push(FoldedPoint {
                        x: r.get_f64()?,
                        y: r.get_f64()?,
                        instance: r.get_u32()?,
                    });
                }
                fold.points_seen[i] = r.get_u64()?;
            }
            let n_stacks = r.get_count(8)?;
            for _ in 0..n_stacks {
                let x = r.get_f64()?;
                let stack = codec::get_callstack(r)?;
                fold.stacks.push((x, std::sync::Arc::new(stack)));
            }
            fold.stacks_seen = r.get_u64()?;
            for t in &mut fold.totals {
                *t = r.get_f64()?;
            }
            fold.total_dur_s = r.get_f64()?;
            fold.instances = r.get_u32()?;
            fold.samples = r.get_u64()? as usize;
            a.folds.push(fold);
        }
        if !r.is_done() {
            return Err(CodecError::Malformed(format!(
                "{} trailing bytes after checkpoint payload",
                r.remaining()
            )));
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phasefold_simapp::workloads::synthetic::{build, SyntheticParams};
    use phasefold_simapp::{simulate, SimConfig};
    use phasefold_tracer::{trace_run, TracerConfig};

    fn traced() -> phasefold_model::Trace {
        let program = build(&SyntheticParams { iterations: 300, ..SyntheticParams::default() });
        let out = simulate(&program, &SimConfig { ranks: 2, ..SimConfig::default() });
        trace_run(&program.registry, &out.timelines, &TracerConfig::default())
    }

    #[test]
    fn streaming_matches_batch_structure() {
        let trace = traced();
        let config = AnalysisConfig::default();
        let batch = crate::pipeline::analyze_trace(&trace, &config);

        let mut online = OnlineAnalyzer::new(config, 100);
        // Feed records in chunks of 50 per rank, interleaved.
        let streams: Vec<_> = trace.iter_ranks().collect();
        let max_len = streams.iter().map(|(_, s)| s.len()).max().unwrap();
        let mut offset = 0;
        while offset < max_len {
            for (rank, stream) in &streams {
                let records = stream.records();
                let end = (offset + 50).min(records.len());
                if offset < end {
                    online.push_records(*rank, &records[offset..end]);
                }
            }
            offset += 50;
        }
        assert!(online.is_warm());
        let snap = online.snapshot();
        assert_eq!(snap.models.len(), batch.models.len());
        let bm = batch.dominant_model().unwrap();
        let om = snap.dominant_model().unwrap();
        assert_eq!(om.phases.len(), bm.phases.len());
        for (a, b) in om.breakpoints().iter().zip(bm.breakpoints()) {
            assert!((a - b).abs() < 0.02, "online {a} vs batch {b}");
        }
    }

    #[test]
    fn snapshot_before_warmup_is_empty() {
        let trace = traced();
        let mut online = OnlineAnalyzer::new(AnalysisConfig::default(), 1_000_000);
        let (rank, stream) = trace.iter_ranks().next().unwrap();
        online.push_records(rank, &stream.records()[..200]);
        assert!(!online.is_warm());
        let snap = online.snapshot();
        assert!(snap.models.is_empty());
        assert!(online.bursts_seen() > 0);
    }

    #[test]
    fn snapshots_sharpen_with_more_data() {
        let trace = traced();
        let mut online = OnlineAnalyzer::new(AnalysisConfig::default(), 80);
        let (rank, stream) = trace.iter_ranks().next().unwrap();
        let records = stream.records();
        online.push_records(rank, &records[..records.len() / 2]);
        let early = online.snapshot();
        online.push_records(rank, &records[records.len() / 2..]);
        let late = online.snapshot();
        let early_samples = early.models.first().map_or(0, |m| m.folded_samples);
        let late_samples = late.models.first().map_or(0, |m| m.folded_samples);
        assert!(late_samples > early_samples);
    }

    #[test]
    fn lenient_stream_quarantines_out_of_order_records() {
        let trace = traced();
        let (rank, stream) = trace.iter_ranks().next().unwrap();
        let records = stream.records();
        let mut online = OnlineAnalyzer::new(AnalysisConfig::default(), 80);
        // Interleave a corrupt batch: records [100..200] replayed after
        // [0..300] all carry stale timestamps.
        online.push_records(rank, &records[..300]);
        online.push_records(rank, &records[100..200]);
        assert_eq!(online.records_quarantined(), 100);
        assert_eq!(online.stream_faults().len(), 100);
        assert_eq!(
            online.stream_faults().faults[0].kind,
            phasefold_model::FaultKind::NonMonotonicTime
        );
        assert_eq!(online.stream_faults().faults[0].provenance.rank, Some(rank.0));
        // The session is not poisoned: the rest of the stream still folds
        // and the snapshot carries the quarantine report.
        online.push_records(rank, &records[300..]);
        assert!(online.is_warm());
        let snap = online.snapshot();
        assert!(!snap.models.is_empty());
        assert!(snap.faults.len() >= 100);
        assert_eq!(
            snap.faults.faults[0].kind,
            phasefold_model::FaultKind::NonMonotonicTime
        );
    }

    #[test]
    fn strict_stream_aborts_on_first_bad_record() {
        use phasefold_model::FaultPolicy;
        let trace = traced();
        let (rank, stream) = trace.iter_ranks().next().unwrap();
        let records = stream.records();
        let config =
            AnalysisConfig { fault_policy: FaultPolicy::Strict, ..AnalysisConfig::default() };
        let mut online = OnlineAnalyzer::new(config, 80);
        assert_eq!(online.try_push_records(rank, &records[..200]).unwrap(), 200);
        let err = online.try_push_records(rank, &records[..50]).unwrap_err();
        assert_eq!(err.kind, phasefold_model::FaultKind::NonMonotonicTime);
        assert_eq!(err.provenance.rank, Some(rank.0));
        // Nothing was quarantined silently under strict.
        assert_eq!(online.records_quarantined(), 0);
        // The session keeps working with well-formed batches.
        assert_eq!(
            online.try_push_records(rank, &records[200..]).unwrap(),
            records.len() - 200
        );
    }

    #[test]
    fn hostile_rank_id_faults_instead_of_allocating() {
        use phasefold_model::FaultPolicy;
        let trace = traced();
        let (rank, stream) = trace.iter_ranks().next().unwrap();
        let records = stream.records();

        // Lenient (default): the batch is quarantined wholesale, nothing
        // is allocated for the bogus rank, and the session stays usable.
        let mut online = OnlineAnalyzer::new(AnalysisConfig::default(), 80);
        online.push_records(RankId(u32::MAX), &records[..50]);
        assert_eq!(online.records_quarantined(), 50);
        assert_eq!(
            online.stream_faults().faults[0].kind,
            phasefold_model::FaultKind::MalformedTrace
        );
        assert_eq!(online.stream_faults().faults[0].provenance.rank, Some(u32::MAX));
        online.push_records(rank, records);
        assert!(online.is_warm());

        // Strict: the batch aborts with the fault; later batches work.
        let config =
            AnalysisConfig { fault_policy: FaultPolicy::Strict, ..AnalysisConfig::default() };
        let mut strict = OnlineAnalyzer::new(config, 80).with_max_ranks(4);
        let err = strict.try_push_records(RankId(4), &records[..10]).unwrap_err();
        assert_eq!(err.kind, phasefold_model::FaultKind::MalformedTrace);
        assert_eq!(strict.try_push_records(RankId(3), &records[..10]).unwrap(), 10);
    }

    #[test]
    fn noise_bursts_counted_not_crashed() {
        let trace = traced();
        let mut online = OnlineAnalyzer::new(AnalysisConfig::default(), 50);
        for (rank, stream) in trace.iter_ranks() {
            online.push_records(rank, stream.records());
        }
        // Outlier bursts exist under quiet noise; they become noise or get
        // absorbed — either way, accounting must close.
        let snap = online.snapshot();
        let folded: usize = snap.models.iter().map(|m| m.instances).sum();
        assert!(folded + online.noise_bursts() <= online.bursts_seen());
    }

    #[test]
    fn buffers_compact_after_freeze() {
        let trace = traced();
        let mut online = OnlineAnalyzer::new(AnalysisConfig::default(), 50);
        let mut total_streamed = 0usize;
        for (rank, stream) in trace.iter_ranks() {
            total_streamed += stream.len();
            online.push_records(rank, stream.records());
        }
        assert!(online.is_warm());
        let retained: usize = online.streams.iter().map(|s| s.buf.len()).sum();
        // Only the open-burst tail may remain — a handful of records, not
        // the stream. (The pre-compaction behavior retained everything.)
        assert!(
            retained * 10 < total_streamed,
            "retained {retained} of {total_streamed} records"
        );
        // The estimate must reflect the compacted footprint, not the
        // full stream (~96 bytes/record streamed).
        assert!(online.resident_bytes() < total_streamed * 96);
    }

    /// Digest of everything a snapshot asserts, bit-level for floats, so
    /// checkpoint/resume equivalence can demand exactness.
    fn snapshot_digest(a: &OnlineAnalyzer) -> String {
        use std::fmt::Write as _;
        let snap = a.snapshot();
        let mut out = String::new();
        let _ = write!(
            out,
            "bursts={} noise={} quarantined={} faults={} clusters={}",
            a.bursts_seen(),
            a.noise_bursts(),
            a.records_quarantined(),
            snap.faults.len(),
            snap.clustering.num_clusters,
        );
        for m in &snap.models {
            let _ = write!(out, " model[instances={} samples={}](", m.instances, m.folded_samples);
            for bp in m.breakpoints() {
                let _ = write!(out, "{:016x},", bp.to_bits());
            }
            let _ = write!(out, ")");
        }
        out
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_exact() {
        let trace = traced();
        let config = AnalysisConfig::default();
        let mut original = OnlineAnalyzer::new(config.clone(), 60).with_seed(42);
        let streams: Vec<_> = trace.iter_ranks().collect();
        // Stream the first half, checkpoint mid-stream (warm, open bursts,
        // non-trivial reservoir state), restore, then finish both.
        for (rank, stream) in &streams {
            let records = stream.records();
            original.push_records(*rank, &records[..records.len() / 2]);
        }
        assert!(original.is_warm(), "checkpoint must capture a frozen session");
        let bytes = original.encode_checkpoint();
        let mut restored =
            OnlineAnalyzer::restore_checkpoint(config, &bytes).expect("clean restore");
        assert_eq!(restored.seed(), 42);
        assert_eq!(restored.bursts_seen(), original.bursts_seen());
        for (rank, stream) in &streams {
            let records = stream.records();
            original.push_records(*rank, &records[records.len() / 2..]);
            restored.push_records(*rank, &records[records.len() / 2..]);
        }
        assert_eq!(snapshot_digest(&original), snapshot_digest(&restored));
    }

    #[test]
    fn checkpoint_rejects_corruption_with_fault_not_panic() {
        let trace = traced();
        let config = AnalysisConfig::default();
        let mut online = OnlineAnalyzer::new(config.clone(), 60);
        let (rank, stream) = trace.iter_ranks().next().unwrap();
        online.push_records(rank, stream.records());
        let bytes = online.encode_checkpoint();
        // Flip one payload byte: checksum must catch it.
        let mut corrupt = bytes.clone();
        corrupt[bytes.len() / 2] ^= 0x20;
        let err = OnlineAnalyzer::restore_checkpoint(config.clone(), &corrupt).unwrap_err();
        assert_eq!(err.kind, FaultKind::Io);
        assert!(err.detail.contains("checksum"), "got: {}", err.detail);
        // Truncation (torn write) is equally typed.
        let err =
            OnlineAnalyzer::restore_checkpoint(config.clone(), &bytes[..bytes.len() - 5])
                .unwrap_err();
        assert_eq!(err.kind, FaultKind::Io);
        // And an empty file.
        assert!(OnlineAnalyzer::restore_checkpoint(config, &[]).is_err());
    }

    #[test]
    fn reservoir_caps_points_and_stays_deterministic() {
        let trace = traced();
        let config = AnalysisConfig::default();
        let run = |cap: usize, seed: u64| {
            let mut online =
                OnlineAnalyzer::new(config.clone(), 60).with_reservoir_cap(cap).with_seed(seed);
            for (rank, stream) in trace.iter_ranks() {
                online.push_records(rank, stream.records());
            }
            online
        };
        let capped = run(64, 7);
        for fold in &capped.folds {
            for pts in &fold.points {
                assert!(pts.len() <= 64, "stratum overflowed: {}", pts.len());
            }
            assert!(fold.stacks.len() <= 64);
        }
        // Sampling dropped points without touching the accounting.
        let unbounded = run(0, 7);
        assert_eq!(capped.bursts_seen(), unbounded.bursts_seen());
        assert_eq!(capped.noise_bursts(), unbounded.noise_bursts());
        let sampled_pts: usize =
            capped.folds.iter().flat_map(|f| f.points.iter()).map(Vec::len).sum();
        let full_pts: usize =
            unbounded.folds.iter().flat_map(|f| f.points.iter()).map(Vec::len).sum();
        assert!(sampled_pts < full_pts, "cap 64 must actually thin ({full_pts} points)");
        for (cf, uf) in capped.folds.iter().zip(&unbounded.folds) {
            assert_eq!(cf.instances, uf.instances);
            assert_eq!(cf.samples, uf.samples);
            assert_eq!(cf.points_seen, uf.points_seen);
            assert_eq!(cf.totals, uf.totals);
        }
        // Same seed → identical retained sample; snapshots bit-identical.
        assert_eq!(snapshot_digest(&run(64, 7)), snapshot_digest(&capped));
    }
}
