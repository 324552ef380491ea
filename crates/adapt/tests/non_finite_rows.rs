//! Labelled checkpoints carrying a NaN or infinite feature or label cannot
//! be trained on. Both retrainers reject them the way they reject rows of
//! the wrong arity: counted as ingested, never buffered.
//!
//! Without that, the router buffered such a row and its ingest thread
//! panicked on the next retrain (so `quiesce` never returned `true` again),
//! while the service kept the row and failed every retrain until the
//! sliding buffer evicted it.

use aging_adapt::{
    AdaptConfig, AdaptiveRouter, AdaptiveService, CheckpointBatch, ClassSpec, DriftConfig,
    LabelledCheckpoint, ServiceClass,
};
use aging_dataset::Dataset;
use aging_ml::linreg::LinRegLearner;
use aging_ml::{DynLearner, Learner, Regressor};
use std::sync::Arc;
use std::time::Duration;

const BATCHES: usize = 10;
const ROWS_PER_BATCH: usize = 4;

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
        .drift(DriftConfig::disabled())
        .buffer_capacity(64)
        .min_buffer_to_retrain(ROWS_PER_BATCH)
        .retrain_every(ROWS_PER_BATCH)
        .build()
}

/// Batch `seq` of a stream labelled `y = 3x + 5`; batches 0, 3 and 6 carry
/// a NaN feature, an infinite feature and a NaN label in their second row.
fn batch(class: &ServiceClass, seq: usize) -> CheckpointBatch {
    let checkpoints = (0..ROWS_PER_BATCH)
        .map(|i| {
            let x = (seq * ROWS_PER_BATCH + i) as f64 * 0.5;
            let (x, y) = match (seq, i) {
                (0, 1) => (f64::NAN, 3.0 * x + 5.0),
                (3, 1) => (f64::INFINITY, 3.0 * x + 5.0),
                (6, 1) => (x, f64::NAN),
                _ => (x, 3.0 * x + 5.0),
            };
            LabelledCheckpoint::new(vec![x], y, None)
        })
        .collect();
    CheckpointBatch { source: "non-finite".into(), class: class.clone(), checkpoints }
}

#[test]
fn non_finite_rows_are_rejected_by_both_retrainers() {
    let class = ServiceClass::new("only");
    let service = AdaptiveService::builder(learner(), vec!["x".into()], initial_model())
        .config(config())
        .spawn();
    let router = AdaptiveRouter::builder(vec!["x".into()])
        .class(
            class.clone(),
            ClassSpec::builder(learner(), initial_model()).config(config()).build(),
        )
        .spawn();

    for seq in 0..BATCHES {
        let b = batch(&class, seq);
        assert!(service.bus().publish(b.clone()));
        assert!(router.bus().publish(b));
        assert!(service.quiesce(Duration::from_secs(30)), "batch {seq}: service must settle");
        assert!(router.quiesce(Duration::from_secs(30)), "batch {seq}: router must settle");

        let s = service.stats();
        let r = router.stats();
        let rc = r.class(&class).expect("registered");
        assert_eq!(s.ingested_checkpoints, rc.ingested_checkpoints, "batch {seq}");
        assert_eq!(s.buffered, rc.buffered, "batch {seq}: sliding windows diverged");
        assert_eq!(s.retrains, rc.retrains, "batch {seq}: retrains diverged");
        assert_eq!(s.failed_retrains, 0, "batch {seq}: service retrain failed");
        assert_eq!(rc.failed_retrains, 0, "batch {seq}: router retrain failed");
        assert_eq!(s.generations_published, rc.generations_published, "batch {seq}");

        let sm = service.model_service().snapshot();
        let rm = router.model_service(&class).expect("registered").snapshot();
        assert_eq!(sm.generation, rm.generation, "batch {seq}");
        for probe in [0.0, 7.5, 40.0] {
            assert_eq!(
                sm.model.predict(&[probe]).to_bits(),
                rm.model.predict(&[probe]).to_bits(),
                "batch {seq}: generation {} models diverged at x = {probe}",
                sm.generation
            );
        }
    }

    // The last generation was fitted on finite rows only: it recovers the
    // labelling line.
    let model = router.model_service(&class).expect("registered").snapshot().model;
    assert!((model.predict(&[10.0]) - 35.0).abs() < 1e-6);

    let service = service.shutdown();
    let router = router.shutdown();
    let router = router.class(&class).expect("registered");
    let rows = (BATCHES * ROWS_PER_BATCH) as u64;
    for stats in [&service, router] {
        assert_eq!(stats.ingested_checkpoints, rows, "{stats:?}");
        assert_eq!(stats.buffered, rows - 3, "the three non-finite rows are never buffered");
        assert_eq!(stats.failed_retrains, 0, "{stats:?}");
        // The first batch holds three good rows, one short of the retrain
        // gate; every later batch publishes a generation.
        assert_eq!(stats.generations_published, BATCHES as u64 - 1, "{stats:?}");
    }
}

#[test]
fn rejected_rows_are_counted_by_both_retrainers() {
    let class = ServiceClass::new("only");
    let spawn = || {
        let service = AdaptiveService::builder(learner(), vec!["x".into()], initial_model())
            .config(config())
            .spawn();
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(
                class.clone(),
                ClassSpec::builder(learner(), initial_model()).config(config()).build(),
            )
            .spawn();
        (service, router)
    };
    let rejected = |batches: Vec<CheckpointBatch>| {
        let (service, router) = spawn();
        for b in batches {
            assert!(service.bus().publish(b.clone()));
            assert!(router.bus().publish(b));
        }
        assert!(service.quiesce(Duration::from_secs(30)), "service must settle");
        assert!(router.quiesce(Duration::from_secs(30)), "router must settle");
        let router = router.shutdown();
        (service.shutdown().rejected_rows, router.class(&class).expect("registered").rejected_rows)
    };

    // The NaN feature, the infinite feature and the NaN label.
    let stream = (0..BATCHES).map(|seq| batch(&class, seq)).collect();
    assert_eq!(rejected(stream), (3, 3));

    let wide = CheckpointBatch {
        source: "wide".into(),
        class: class.clone(),
        checkpoints: vec![LabelledCheckpoint::new(vec![1.0, 2.0], 5.0, None)],
    };
    assert_eq!(rejected(vec![wide]), (1, 1), "one row of the wrong arity");
}
