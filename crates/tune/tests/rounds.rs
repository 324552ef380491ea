//! Live search rounds: every candidate of a round is scored on one read of
//! the journal, and the tuner keeps its own books of what a round could
//! not do — rounds that could not read the journal, and promotions the
//! live system refused.

use aging_adapt::ServiceClass;
use aging_dataset::Dataset;
use aging_journal::{Journal, JournalCheckpoint, JournalOptions, JournalRecord};
use aging_ml::linreg::LinRegLearner;
use aging_ml::{Learner, LearnerKind, Regressor};
use aging_tune::{Evaluator, FleetTuner, PolicyPoint, TuneConfig, TunedClass};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fresh directory per test; each test removes its own once it passes.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aging-tune-rounds-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The stale generation-0 model, `y = 2x`.
fn stale_model() -> Arc<dyn Regressor> {
    let mut ds = Dataset::new(vec!["x".into()], "y");
    for i in 0..30 {
        ds.push_row(vec![f64::from(i)], 2.0 * f64::from(i)).unwrap();
    }
    Arc::from(LinRegLearner::default().fit_boxed(&ds).unwrap())
}

const BATCH_ROWS: u64 = 64;

/// Appends batches `from..from + batches` of the `leak` class: the truth
/// is `500 − 2x` while the recorded live prediction is the stale model's
/// `2x`, so a policy that retrains beats one that never does.
fn append_leak_batches(journal: &Journal, from: u64, batches: u64) {
    for batch in from..from + batches {
        let rows = (0..BATCH_ROWS)
            .map(|i| {
                let x = (batch * BATCH_ROWS + i) as f64;
                JournalCheckpoint {
                    features: vec![x],
                    ttf_secs: 500.0 - 2.0 * x,
                    predicted_ttf_secs: Some(2.0 * x),
                    predicted_generation: Some(0),
                    monitor_only: false,
                }
            })
            .collect();
        journal.append(&JournalRecord::Checkpoints { class: "leak".into(), rows }).unwrap();
    }
}

/// Adaptation off: the class never leaves its stale model.
fn detuned_point() -> PolicyPoint {
    PolicyPoint {
        learner: LearnerKind::LinReg,
        drift_enabled: false,
        retrain_every: None,
        ..Default::default()
    }
}

fn leak_tuner(dir: &Path) -> FleetTuner {
    FleetTuner::new(
        dir,
        vec!["x".into()],
        TuneConfig::default(),
        vec![TunedClass {
            class: ServiceClass::new("leak"),
            incumbent: detuned_point(),
            initial: stale_model(),
        }],
    )
}

/// An evaluator reads the journal at its first evaluation and scores every
/// later candidate on those records, while the journal's writer moves on;
/// only a fresh evaluator sees the new rows.
#[test]
fn an_evaluator_scores_every_candidate_on_one_snapshot() {
    let dir = tmp_dir("snapshot");
    let journal = Journal::open(&dir).unwrap();
    append_leak_batches(&journal, 0, 4);
    let evaluator =
        || Evaluator::new(&dir, vec!["x".into()], ServiceClass::new("leak"), stale_model());
    let round = evaluator();
    let first = round.evaluate(&detuned_point()).unwrap();
    assert_eq!(first.scored_rows, 4 * BATCH_ROWS);

    append_leak_batches(&journal, 4, 4);
    let again = round.evaluate(&detuned_point()).unwrap();
    assert_eq!(
        (again.scored_rows, again.digest),
        (first.scored_rows, first.digest),
        "a second evaluation must score the first one's records"
    );
    let other = round.evaluate(&PolicyPoint::default()).unwrap();
    assert_eq!(other.scored_rows, first.scored_rows, "every candidate scores the same records");

    let fresh = evaluator().evaluate(&detuned_point()).unwrap();
    assert_eq!(fresh.scored_rows, 8 * BATCH_ROWS, "a fresh evaluator reads the journal afresh");
    assert_ne!(fresh.digest, first.digest);
    drop(journal);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rounds over a journal with mid-log corruption are failed rounds.
#[test]
fn rounds_over_a_corrupt_journal_are_failed_rounds() {
    let dir = tmp_dir("corrupt");
    let options = JournalOptions { fsync_every: 1, segment_max_bytes: 256 };
    let journal = Journal::open_with(&dir, options).unwrap();
    for i in 0..12 {
        let rows = (0..3)
            .map(|j| JournalCheckpoint {
                features: vec![f64::from(i * 3 + j)],
                ttf_secs: 600.0,
                predicted_ttf_secs: Some(580.0),
                predicted_generation: Some(0),
                monitor_only: false,
            })
            .collect();
        journal.append(&JournalRecord::Checkpoints { class: "leak".into(), rows }).unwrap();
    }
    assert!(journal.rotations() > 0, "the corrupt segment must not be the last");
    drop(journal);
    let first = dir.join("segment-00000000.ajl");
    let mut bytes = std::fs::read(&first).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&first, bytes).unwrap();

    let mut tuner = leak_tuner(&dir);
    tuner.round(|_, _| panic!("a round that cannot read the journal promotes nothing"));
    tuner.round(|_, _| panic!("a round that cannot read the journal promotes nothing"));
    let stats = tuner.stats();
    assert_eq!((stats.rounds, stats.failed_rounds, stats.failed_promotions), (0, 2, 0));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A tuner pointed at a directory that does not exist fails its round: a
/// tuned fleet opens its journal before the first epoch, so a missing
/// directory is the wrong directory.
#[test]
fn a_missing_journal_directory_is_a_failed_round() {
    let mut tuner = leak_tuner(&tmp_dir("missing"));
    tuner.round(|_, _| panic!("a round without a journal promotes nothing"));
    let stats = tuner.stats();
    assert_eq!((stats.rounds, stats.failed_rounds, stats.failed_promotions), (0, 1, 0));
}

/// The gate's winner reaches the closure once per promotion; a closure
/// that refuses it is a failed promotion, one that takes it is not.
#[test]
fn a_refused_promotion_is_a_failed_promotion() {
    let dir = tmp_dir("refused");
    let journal = Journal::open(&dir).unwrap();
    append_leak_batches(&journal, 0, 12);
    drop(journal);
    for accept in [false, true] {
        let mut tuner = leak_tuner(&dir);
        let mut offered = Vec::new();
        tuner.round(|class, _spec| {
            offered.push(class.clone());
            accept
        });
        let stats = tuner.stats();
        assert_eq!(offered, [ServiceClass::new("leak")], "one promotion, offered once");
        assert_eq!((stats.rounds, stats.promotions, stats.failed_rounds), (1, 1, 0), "{stats:?}");
        assert_eq!(stats.failed_promotions, u64::from(!accept), "accepted: {accept}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
