//! Offline journal replay: crash recovery and what-if re-execution.
//!
//! A checkpoint journal records the learning side's *inputs* (every
//! ingested batch) plus an audit trail of its *outputs* (generation
//! publishes, threshold re-derivations, discovery partitions). Replay
//! restores state by re-executing the inputs through the exact pipeline
//! the live stream fed — deterministic learners make the outputs land
//! bit-identically, which the recovery tests assert via state digests.
//!
//! The same entry point doubles as **what-if mode**: replay the recorded
//! stream under a *different* [`ClassSpec`] — another
//! [`ThresholdPolicy`](crate::ThresholdPolicy), another learner — and
//! compare the counterfactual outcome against what actually happened.
//! Because replay is synchronous and single-threaded, a what-if run is
//! exactly reproducible.

use crate::bus::{CheckpointBatch, LabelledCheckpoint, ServiceClass};
use crate::pipeline::RetrainAction;
use crate::policy::Thresholds;
use crate::router::{ClassSpec, IngestPipelines};
use aging_journal::{Journal, JournalRecord, ReadOutcome};
use std::io;
use std::path::Path;

/// Final adaptation state of one replayed class.
#[derive(Debug, Clone)]
pub struct ClassReplay {
    /// The replayed service class.
    pub class: ServiceClass,
    /// Model generation after the last replayed batch.
    pub generation: u64,
    /// Operating thresholds in force after the last replayed batch.
    pub thresholds: Thresholds,
    /// Rows held in the sliding buffer at the end of the replay.
    pub buffered: u64,
    /// Successful refits during the replay.
    pub retrains: u64,
    /// Drift triggers observed during the replay.
    pub drift_events: u64,
    /// Pipeline state digest — generation, buffered rows and thresholds
    /// folded into one `u64`, comparable against a live run's
    /// [`state digest`](crate::AdaptiveRouter::state_digests).
    pub digest: u64,
    /// Mean `|predicted − observed|` TTF error over the replay, in
    /// seconds, where predictions come from the replayed pipeline's *own*
    /// model generations (not the recorded live predictions). Only
    /// populated by the scored replays ([`replay_scored`],
    /// [`replay_scored_records`]); `None` from [`replay`] and when no row
    /// carried a finite label.
    pub mean_abs_error_secs: Option<f64>,
    /// Rows that contributed to `mean_abs_error_secs`. Always 0 from
    /// [`replay`].
    pub scored_rows: u64,
}

/// The last fleet partition the journal recorded, if any.
#[derive(Debug, Clone)]
pub struct ReplayPartition {
    /// Monotone discovery round counter.
    pub version: u64,
    /// `(instance, class)` assignment pairs, in spec order.
    pub assignment: Vec<(String, String)>,
}

/// What a journal replay reconstructed.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Per-class end states, in the caller's class order.
    pub classes: Vec<ClassReplay>,
    /// Journal records read (including audit records that replay does not
    /// re-execute).
    pub records: u64,
    /// Checkpoint rows re-ingested.
    pub rows: u64,
    /// Checkpoint records skipped because their class was not in the
    /// caller's class set.
    pub skipped_records: u64,
    /// Bytes of torn tail truncated when the journal was opened.
    pub truncated_bytes: u64,
    /// The newest recorded fleet partition, when discovery ran.
    pub partition: Option<ReplayPartition>,
}

/// Replays the journal at `dir` through fresh per-class pipelines.
///
/// The `(class, spec)` pairs form a router without threads: each class
/// gets its own [`AdaptationPipeline`](crate::AdaptationPipeline) with the
/// router's retrain action, fitting inline as the [`AdaptiveService`]
/// does, and recorded checkpoint batches are re-ingested in journal order.
/// Passing the specs of the original run makes this **crash recovery**;
/// passing altered specs makes it a **what-if run** over the same
/// recorded stream.
///
/// Checkpoint records for classes outside the given set are skipped and
/// counted in [`ReplayOutcome::skipped_records`]. Audit records
/// (publishes, threshold re-derivations, registrations) are not
/// re-executed — re-running the inputs regenerates them — but the newest
/// `PartitionAssigned` record is surfaced in
/// [`ReplayOutcome::partition`].
///
/// [`AdaptiveService`]: crate::AdaptiveService
///
/// # Errors
///
/// Propagates journal read failures: I/O errors and mid-log corruption
/// (a torn tail on the final segment is tolerated and reported via
/// [`ReplayOutcome::truncated_bytes`]).
pub fn replay(
    dir: impl AsRef<Path>,
    feature_names: Vec<String>,
    classes: Vec<(ServiceClass, ClassSpec)>,
) -> io::Result<ReplayOutcome> {
    Ok(replay_records(&Journal::read(dir)?, feature_names, classes, false))
}

/// Like [`replay`], but **scores** each class while it replays: every
/// checkpoint row is re-predicted from the replayed pipeline's *current*
/// model generation before ingestion, the recorded live prediction is
/// replaced with that counterfactual one (so the drift monitor and
/// threshold policies react to the candidate spec's own errors, not the
/// incumbent's), and the mean absolute TTF error lands in
/// [`ClassReplay::mean_abs_error_secs`]. Monitor-only observations carry
/// no feature vector, so they cannot be re-predicted: they keep their
/// recorded live prediction and do not contribute to the score.
///
/// This is the evaluation backend for policy search: replaying the same
/// journal under two specs yields directly comparable error/retrain
/// numbers. Single-threaded and deterministic — identical inputs give
/// bit-identical digests.
///
/// # Errors
///
/// Same failure modes as [`replay`].
pub fn replay_scored(
    dir: impl AsRef<Path>,
    feature_names: Vec<String>,
    classes: Vec<(ServiceClass, ClassSpec)>,
) -> io::Result<ReplayOutcome> {
    Ok(replay_scored_records(&Journal::read(dir)?, feature_names, classes))
}

/// [`replay_scored`] over a journal already read: scoring several specs
/// on one [`ReadOutcome`] compares them on the same records, however far a
/// live writer has moved on since the read.
pub fn replay_scored_records(
    read: &ReadOutcome,
    feature_names: Vec<String>,
    classes: Vec<(ServiceClass, ClassSpec)>,
) -> ReplayOutcome {
    replay_records(read, feature_names, classes, true)
}

fn replay_records(
    read: &ReadOutcome,
    feature_names: Vec<String>,
    classes: Vec<(ServiceClass, ClassSpec)>,
    scored: bool,
) -> ReplayOutcome {
    for (_, spec) in &classes {
        spec.config.validate();
    }
    let names: Vec<ServiceClass> = classes.iter().map(|(class, _)| class.clone()).collect();
    let mut router = IngestPipelines::new(feature_names, classes, None, None, None, false);
    // Per class: summed absolute error and the rows behind it.
    let mut scores = vec![(0.0f64, 0u64); names.len()];

    let mut records = 0u64;
    let mut rows = 0u64;
    let mut skipped_records = 0u64;
    let mut partition = None;
    for (_seq, record) in &read.records {
        records += 1;
        match record {
            JournalRecord::Checkpoints { class, rows: batch } => {
                let class = ServiceClass::new(class.clone());
                let Some(class_idx) = router.route(&class) else {
                    skipped_records += 1;
                    continue;
                };
                rows += batch.len() as u64;
                let mut ingested: Vec<LabelledCheckpoint> =
                    batch.iter().cloned().map(LabelledCheckpoint::from).collect();
                if scored {
                    // One snapshot per batch: generations only move at
                    // ingest boundaries, so every row in this batch was
                    // (counterfactually) predicted by the same model.
                    let snapshot = router.model_service(class_idx).snapshot();
                    let (abs_error_sum_secs, scored_rows) = &mut scores[class_idx];
                    for row in &mut ingested {
                        // Monitor-only observations record no feature
                        // vector — nothing to re-predict from. They keep
                        // their live prediction (still feeding the drift
                        // monitor) and stay out of the score.
                        if row.features.is_empty() {
                            continue;
                        }
                        let predicted = snapshot.model.predict(&row.features);
                        if row.ttf_secs.is_finite() && predicted.is_finite() {
                            *abs_error_sum_secs += (predicted - row.ttf_secs).abs();
                            *scored_rows += 1;
                        }
                        row.predicted_ttf_secs = Some(predicted);
                        row.predicted_generation = Some(snapshot.generation);
                    }
                }
                // Batch granularity is load-bearing: the retrain gate
                // fires once per ingested batch, exactly as it did live.
                let batch =
                    CheckpointBatch { source: "journal".to_string(), class, checkpoints: ingested };
                router.process(batch, false);
            }
            JournalRecord::PartitionAssigned { version, assignment } => {
                partition =
                    Some(ReplayPartition { version: *version, assignment: assignment.clone() });
            }
            // Audit records: regenerated by re-execution, not re-applied.
            // Membership records fold into a roster via
            // `aging_journal::MembershipFold` — they carry no checkpoint
            // rows, so the adaptation replay passes over them.
            JournalRecord::GenerationPublished { .. }
            | JournalRecord::ThresholdsRederived { .. }
            | JournalRecord::ClassRegistered { .. }
            | JournalRecord::ClassRetired { .. }
            | JournalRecord::InstanceJoined { .. }
            | JournalRecord::InstanceRetired { .. } => {}
        }
    }

    let classes = names
        .into_iter()
        .zip(scores)
        .enumerate()
        .map(|(class_idx, (class, (abs_error_sum_secs, scored_rows)))| {
            let pipeline = router.pipeline(class_idx).expect("replay retires no class");
            let counters = pipeline.counters();
            ClassReplay {
                class,
                generation: pipeline.action().generation(),
                thresholds: pipeline.thresholds(),
                buffered: counters.buffered(),
                retrains: counters.retrains(),
                drift_events: counters.drift_events(),
                digest: pipeline.state_digest(),
                mean_abs_error_secs: (scored_rows > 0)
                    .then(|| abs_error_sum_secs / scored_rows as f64),
                scored_rows,
            }
        })
        .collect();

    ReplayOutcome {
        classes,
        records,
        rows,
        skipped_records,
        truncated_bytes: read.truncated_bytes,
        partition,
    }
}
