//! Bit-identical equivalence of the two dispatches of the router's one
//! retrain action on the [`aging_adapt::AdaptationPipeline`].
//!
//! `AdaptiveService` is a one-class router whose refits fit inline on the
//! ingest thread; a single-class `AdaptiveRouter` hands the same action's
//! buffer snapshot to its refit pool. This suite pins the claim that the
//! dispatch changes **nothing observable** under the `FixedThresholds`
//! policy: fed the same batch sequence (paced so the pooled path never
//! defers on an in-flight job), both must count the same drift events, run
//! the same retrains at the same points, publish the same generations,
//! and — since both fit the same learner on the same sliding window —
//! serve models with **bit-identical** predictions.

use aging_adapt::{
    AdaptConfig, AdaptiveRouter, AdaptiveService, CheckpointBatch, ClassSpec, DriftConfig,
    LabelledCheckpoint, ServiceClass, DEFAULT_BUS_CAPACITY,
};
use aging_dataset::Dataset;
use aging_ml::linreg::LinRegLearner;
use aging_ml::{DynLearner, Learner, Regressor};
use std::sync::Arc;
use std::time::Duration;

fn initial_model(slope: f64) -> Arc<dyn Regressor> {
    let mut ds = Dataset::new(vec!["x".into()], "y");
    for i in 0..40 {
        ds.push_row(vec![i as f64], slope * i as f64).unwrap();
    }
    Arc::from(LinRegLearner::default().fit_boxed(&ds).unwrap())
}

fn learner() -> Arc<dyn DynLearner> {
    Arc::new(LinRegLearner::default())
}

fn config(drift_enabled: bool, retrain_every: Option<usize>) -> AdaptConfig {
    let mut builder = AdaptConfig::builder()
        .drift(if drift_enabled {
            DriftConfig {
                enabled: true,
                ewma_alpha: 0.3,
                error_threshold_secs: 120.0,
                min_observations: 10,
                trend_window: 48,
                trend_tolerance_secs: 100.0,
                trend_slope_threshold: 5.0,
                cooldown_observations: 60,
            }
        } else {
            DriftConfig::disabled()
        })
        .buffer_capacity(256)
        .min_buffer_to_retrain(30);
    if let Some(every) = retrain_every {
        builder = builder.retrain_every(every);
    }
    builder.build()
}

fn batch(class: &ServiceClass, seq: usize, n: usize, truth: fn(f64) -> f64) -> CheckpointBatch {
    // The stale initial model is y = 2x; predictions are labelled with it
    // so both consumers see identical error streams.
    CheckpointBatch {
        source: "equiv".into(),
        class: class.clone(),
        checkpoints: (0..n)
            .map(|i| {
                let x = (seq * n + i) as f64 * 0.4;
                LabelledCheckpoint::new(vec![x], truth(x), Some(2.0 * x))
            })
            .collect(),
    }
}

/// Drives the same batch sequence through a service and a single-class
/// router, quiescing after every publish so the pooled path is never
/// mid-refit at a trigger (the one legitimate timing difference), then
/// asserts counter and model equivalence.
fn assert_equivalent(drift_enabled: bool, retrain_every: Option<usize>, truth: fn(f64) -> f64) {
    let class = ServiceClass::new("only");
    let service = AdaptiveService::builder(learner(), vec!["x".into()], initial_model(2.0))
        .config(config(drift_enabled, retrain_every))
        .spawn();
    let router = AdaptiveRouter::builder(vec!["x".into()])
        .class(
            class.clone(),
            ClassSpec::builder(learner(), initial_model(2.0))
                .config(config(drift_enabled, retrain_every))
                .build(),
        )
        .spawn();

    let (service_bus, router_bus) = (service.bus(), router.bus());
    for seq in 0..12 {
        let b = batch(&class, seq, 24, truth);
        assert!(service_bus.publish(b.clone()));
        assert!(router_bus.publish(b));
        // Lock-step pacing: both sides settle before the next batch, so
        // the async pool can never skip a trigger the sync path takes.
        assert!(service.quiesce(Duration::from_secs(30)), "service must settle");
        assert!(router.quiesce(Duration::from_secs(30)), "router must settle");

        let s = service.stats();
        let r = router.stats();
        let rc = r.class(&class).expect("registered");
        assert_eq!(s.drift_events, rc.drift_events, "batch {seq}: drift events diverged");
        assert_eq!(s.retrains, rc.retrains, "batch {seq}: retrains diverged");
        assert_eq!(
            s.generations_published, rc.generations_published,
            "batch {seq}: generations diverged"
        );
        assert_eq!(s.ingested_checkpoints, rc.ingested_checkpoints, "batch {seq}");
        assert_eq!(s.buffered, rc.buffered, "batch {seq}: sliding windows diverged");
        assert_eq!(s.failed_retrains, rc.failed_retrains, "batch {seq}");

        // Same learner, same sliding window ⇒ bit-identical models.
        let sm = service.model_service().snapshot();
        let rm = router.model_service(&class).expect("registered").snapshot();
        assert_eq!(sm.generation, rm.generation, "batch {seq}");
        for probe in [0.0, 7.5, 40.0, 123.0] {
            assert_eq!(
                sm.model.predict(&[probe]).to_bits(),
                rm.model.predict(&[probe]).to_bits(),
                "batch {seq}: generation {} models diverged at x = {probe}",
                sm.generation
            );
        }
    }

    let final_service = service.shutdown();
    let final_router = router.shutdown();
    let final_class = final_router.class(&class).expect("registered");
    assert_eq!(final_service.retrains, final_class.retrains);
    assert_eq!(final_service.generations_published, final_class.generations_published);
    assert!(
        (!drift_enabled && retrain_every.is_none()) || final_service.generations_published >= 1,
        "the scenario must actually exercise retraining: {final_service:?}"
    );
}

/// Drift-triggered retraining: a shifted regime (stale y = 2x serving
/// y = 600 − 3x) drives drift events and drift-gated retrains through
/// both actions identically.
#[test]
fn drift_triggered_paths_are_bit_identical() {
    assert_equivalent(true, None, |x| 600.0 - 3.0 * x);
}

/// Periodic retraining with drift disabled: the schedule alone drives both
/// actions through the same retrain points.
#[test]
fn scheduled_paths_are_bit_identical() {
    assert_equivalent(false, Some(48), |x| 5.0 * x + 50.0);
}

/// Drift and schedule together, on a stream whose errors stay quiet: only
/// the schedule fires, identically.
#[test]
fn combined_quiet_paths_are_bit_identical() {
    assert_equivalent(true, Some(72), |x| 2.0 * x);
}

/// Fully frozen (drift disabled, no schedule): both stay on generation 0
/// with identical counters.
#[test]
fn frozen_paths_are_bit_identical() {
    assert_equivalent(false, None, |x| 600.0 - 3.0 * x);
}

/// The service path still honours the default bus capacity constant the
/// old API exposed (a config knob the builder must not have silently
/// changed).
#[test]
fn default_bus_capacity_is_preserved() {
    let service = AdaptiveService::builder(learner(), vec!["x".into()], initial_model(1.0)).spawn();
    assert_eq!(service.bus().capacity(), DEFAULT_BUS_CAPACITY);
    service.shutdown();
}
