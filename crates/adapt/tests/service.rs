//! The `AdaptiveService` paths that run through its one-class router:
//! journalling, restart with replay, the final state digest, and routing
//! a batch whatever class it names.

use aging_adapt::replay::replay;
use aging_adapt::{
    AdaptConfig, AdaptiveService, CheckpointBatch, ClassSpec, DriftConfig, LabelledCheckpoint,
    ServiceClass,
};
use aging_dataset::Dataset;
use aging_journal::Journal;
use aging_ml::linreg::LinRegLearner;
use aging_ml::{DynLearner, Learner, Regressor};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Batches of the recorded stream: well under the 256 batches after which
/// the journal is compacted, so every batch stays replayable.
const BATCHES: usize = 8;
const ROWS_PER_BATCH: usize = 32;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("aging-adapt-service-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The stale model: y = 2x.
fn initial_model() -> Arc<dyn Regressor> {
    let mut ds = Dataset::new(vec!["x".into()], "y");
    for i in 0..40 {
        ds.push_row(vec![i as f64], 2.0 * i as f64).unwrap();
    }
    Arc::from(LinRegLearner::default().fit_boxed(&ds).unwrap())
}

fn learner() -> Arc<dyn DynLearner> {
    Arc::new(LinRegLearner::default())
}

fn config() -> AdaptConfig {
    AdaptConfig::builder()
        .drift(DriftConfig {
            enabled: true,
            ewma_alpha: 0.3,
            error_threshold_secs: 100.0,
            min_observations: 10,
            trend_window: 32,
            trend_tolerance_secs: 100.0,
            trend_slope_threshold: 5.0,
            cooldown_observations: 30,
        })
        .buffer_capacity(128)
        .min_buffer_to_retrain(50)
        .build()
}

/// Batch `seq` of a stream labelled `y = 600 − 3x` and predicted by the
/// stale model, so drift fires and the service retrains.
fn batch(class: &ServiceClass, seq: usize) -> CheckpointBatch {
    CheckpointBatch {
        source: "shifted".into(),
        class: class.clone(),
        checkpoints: (0..ROWS_PER_BATCH)
            .map(|i| {
                let x = (seq * ROWS_PER_BATCH + i) as f64 * 0.5;
                LabelledCheckpoint::new(vec![x], 600.0 - 3.0 * x, Some(2.0 * x))
            })
            .collect(),
    }
}

#[test]
fn journalled_service_digest_survives_restart_and_offline_replay() {
    let dir = tmp_dir("digest");
    let journal = Arc::new(Journal::open(&dir).unwrap());
    let service = AdaptiveService::builder(learner(), vec!["x".into()], initial_model())
        .config(config())
        .journal(Arc::clone(&journal))
        .spawn();
    for seq in 0..BATCHES {
        assert!(service.bus().publish(batch(&ServiceClass::default(), seq)));
    }
    assert!(service.quiesce(Duration::from_secs(30)), "the service must settle");
    assert_eq!(service.state_digest(), None, "no digest while the service runs");
    let (live, live_digest) = service.shutdown_with_digest();
    journal.sync().unwrap();
    drop(journal);
    let live_digest = live_digest.expect("the digest exists once the service has stopped");
    assert!(live.drift_events >= 1, "drift must fire: {live:?}");
    assert!(live.generations_published >= 1, "drift must publish: {live:?}");
    assert_eq!(live.ingested_checkpoints, (BATCHES * ROWS_PER_BATCH) as u64);

    let restarted = AdaptiveService::builder(learner(), vec!["x".into()], initial_model())
        .config(config())
        .journal(Arc::new(Journal::open(&dir).unwrap()))
        .replay()
        .spawn();
    assert_eq!(
        restarted.model_service().generation(),
        live.generations_published,
        "the replay restores the generations before spawn returns"
    );
    let (restored, restored_digest) = restarted.shutdown_with_digest();
    assert_eq!(restored_digest, Some(live_digest), "restart with replay: {restored:?}");

    let offline = replay(
        &dir,
        vec!["x".into()],
        vec![(
            ServiceClass::default(),
            ClassSpec::builder(learner(), initial_model()).config(config()).build(),
        )],
    )
    .unwrap();
    assert_eq!(offline.skipped_records, 0);
    assert_eq!(offline.classes[0].generation, live.generations_published);
    assert_eq!(offline.classes[0].digest, live_digest, "offline replay");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batches_naming_another_class_feed_the_service() {
    let service = AdaptiveService::builder(learner(), vec!["x".into()], initial_model())
        .config(config())
        .spawn();
    let web = ServiceClass::new("web");
    for seq in 0..BATCHES {
        assert!(service.bus().publish(batch(&web, seq)));
    }
    assert!(service.quiesce(Duration::from_secs(30)), "the service must settle");
    let stats = service.shutdown();
    assert_eq!(stats.ingested_checkpoints, (BATCHES * ROWS_PER_BATCH) as u64);
    assert!(stats.retrains >= 1, "a batch of any class can trigger a retrain: {stats:?}");
}
