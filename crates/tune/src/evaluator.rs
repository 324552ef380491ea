//! Scores candidate policies by counterfactual journal replay.

use crate::point::PolicyPoint;
use aging_adapt::replay::replay_scored_records;
use aging_adapt::{ClassReplay, ServiceClass};
use aging_journal::{Journal, ReadOutcome};
use aging_ml::Regressor;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// What one replay said about one candidate.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Scalar replay objective, **lower is better**: mean absolute TTF
    /// error plus the configured per-retrain penalty. `f64::INFINITY`
    /// when the candidate was unscoreable — no labelled rows reached the
    /// scorer, or the digest-stability check failed.
    pub objective_secs: f64,
    /// Mean `|predicted − observed|` TTF error over the replay, seconds.
    pub mean_abs_error_secs: Option<f64>,
    /// Rows that contributed to the error mean.
    pub scored_rows: u64,
    /// Successful refits during the replay.
    pub retrains: u64,
    /// Drift triggers during the replay.
    pub drift_events: u64,
    /// Model generation after the last replayed batch.
    pub generation: u64,
    /// Final pipeline state digest.
    pub digest: u64,
    /// `false` when the double-replay digest check was on and disagreed.
    pub digest_stable: bool,
}

/// Replays the recorded journal under a candidate [`PolicyPoint`] and
/// reduces the outcome to one comparable objective.
///
/// The evaluator owns everything a replay needs — journal directory,
/// feature order, the class under search and its generation-0 model — so
/// scoring a candidate is one call. The first evaluation reads the
/// journal, and every evaluation scores on those records: candidates
/// scored by one evaluator are compared on one snapshot, even while a live
/// writer keeps appending. A fresh evaluator reads the journal afresh. The
/// objective is
/// `mean_abs_error_secs + retrain_penalty_secs × retrains`: the penalty
/// term prices the disruption of a refit (and of the model swap it
/// publishes), so a search cannot win by retraining on every batch for a
/// marginal error shave.
///
/// With [`Evaluator::verify_digest_stability`] the journal is replayed
/// twice and the final state digests must agree; a mismatch marks the
/// candidate unscoreable. Replay is single-threaded and deterministic,
/// so this is a pure self-check (it doubles evaluation cost) — it exists
/// for search configurations that must never promote on an unstable
/// measurement.
#[derive(Debug, Clone)]
pub struct Evaluator {
    journal_dir: PathBuf,
    /// The journal as the first successful evaluation read it.
    snapshot: OnceLock<Arc<ReadOutcome>>,
    feature_names: Vec<String>,
    class: ServiceClass,
    initial: Arc<dyn Regressor>,
    retrain_penalty_secs: f64,
    verify_digest_stability: bool,
}

impl Evaluator {
    /// An evaluator for `class`, replaying the journal at `journal_dir`
    /// with `initial` as every candidate's generation-0 model. No retrain
    /// penalty, no digest check.
    #[must_use]
    pub fn new(
        journal_dir: impl Into<PathBuf>,
        feature_names: Vec<String>,
        class: ServiceClass,
        initial: Arc<dyn Regressor>,
    ) -> Self {
        Evaluator {
            journal_dir: journal_dir.into(),
            snapshot: OnceLock::new(),
            feature_names,
            class,
            initial,
            retrain_penalty_secs: 0.0,
            verify_digest_stability: false,
        }
    }

    /// Prices each replayed retrain at `secs` seconds of objective.
    ///
    /// # Panics
    ///
    /// Panics when `secs` is negative or non-finite.
    #[must_use]
    pub fn retrain_penalty_secs(mut self, secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "retrain penalty must be finite and ≥ 0");
        self.retrain_penalty_secs = secs;
        self
    }

    /// Replays every candidate twice and rejects digest mismatches.
    #[must_use]
    pub fn verify_digest_stability(mut self) -> Self {
        self.verify_digest_stability = true;
        self
    }

    /// The class this evaluator scores.
    #[must_use]
    pub fn class(&self) -> &ServiceClass {
        &self.class
    }

    /// Scores one candidate point on the evaluator's snapshot of the
    /// journal, reading it first if no evaluation has yet.
    ///
    /// # Errors
    ///
    /// Propagates journal read failures (missing directory, I/O errors,
    /// mid-log corruption); a failed read leaves the next evaluation to
    /// read again. An *unscoreable but readable* journal is not an error —
    /// it yields an infinite objective.
    pub fn evaluate(&self, point: &PolicyPoint) -> io::Result<Evaluation> {
        let read = match self.snapshot.get() {
            Some(read) => read,
            None => {
                // `Journal::read` takes a missing directory for an empty
                // journal, which would score nothing: refuse it instead.
                std::fs::read_dir(&self.journal_dir)?;
                let read = Arc::new(Journal::read(&self.journal_dir)?);
                self.snapshot.get_or_init(|| read)
            }
        };
        let replayed = self.replay_once(read, point);
        let mut digest_stable = true;
        if self.verify_digest_stability {
            digest_stable = self.replay_once(read, point).digest == replayed.digest;
        }
        let mut objective_secs = match replayed.mean_abs_error_secs {
            Some(mean) => mean + self.retrain_penalty_secs * replayed.retrains as f64,
            None => f64::INFINITY,
        };
        if !digest_stable {
            objective_secs = f64::INFINITY;
        }
        Ok(Evaluation {
            objective_secs,
            mean_abs_error_secs: replayed.mean_abs_error_secs,
            scored_rows: replayed.scored_rows,
            retrains: replayed.retrains,
            drift_events: replayed.drift_events,
            generation: replayed.generation,
            digest: replayed.digest,
            digest_stable,
        })
    }

    fn replay_once(&self, read: &ReadOutcome, point: &PolicyPoint) -> ClassReplay {
        let spec = point.to_spec(Arc::clone(&self.initial));
        let outcome = replay_scored_records(
            read,
            self.feature_names.clone(),
            vec![(self.class.clone(), spec)],
        );
        outcome.classes.into_iter().next().expect("one class in, one class out")
    }
}
