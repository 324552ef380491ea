//! Drift-triggered online retraining for fleet-scale aging prediction.
//!
//! The source paper's core claim is that *adaptive* on-line aging
//! prediction — periodically retraining the model on a sliding window of
//! recent checkpoints — beats a static model under dynamic workloads. It
//! motivates M5P partly by its "low training and prediction costs \[since\]
//! we will eventually want on-line processing". The fleet engine scales the
//! paper's single-instance loop to hundreds of deployments, but against one
//! frozen model; this crate supplies the adaptation side as a standalone
//! service:
//!
//! ```text
//!  monitor streams / fleet shards
//!        │  CheckpointBatch (labelled, retrospective, class-tagged)
//!        ▼
//!  [CheckpointBus]  — bounded ring, drop-oldest, per-source fair,
//!        │            sheds attributed per class
//!        ▼
//!  [AdaptationPipeline]  — ONE state machine per service class:
//!        │   DriftMonitor (error EWMA ⊕ segment::diagnose) → sticky
//!        │   trigger → buffer gate → RetrainAction → ThresholdPolicy
//!        │                                                │ new model
//!        ▼                                                ▼
//!  [ModelService] — Arc<dyn Regressor> + generation counter
//!        ▲ snapshot()/generation()/rejuvenation_threshold_secs()
//!        │                                  hot swap, wait-free readers
//!  prediction consumers (fleet shards pin one snapshot per epoch)
//! ```
//!
//! - [`CheckpointBus`] decouples checkpoint arrival from epoch processing:
//!   producers publish [`CheckpointBatch`]es and move on. The ring is
//!   *bounded*: a stalled retrainer sheds the heaviest source's oldest
//!   batches (counted — fleet-wide and per [`ServiceClass`] — never
//!   silent) instead of growing without bound.
//! - [`AdaptationPipeline`] is the paper's observe → detect → retrain →
//!   republish loop as one reusable state machine, parameterised over
//!   exactly the retrain *action* ([`RetrainAction`]): the
//!   [`DriftMonitor`] fuses an absolute error-level test with the
//!   error-*trend* test built on [`aging_ml::segment::diagnose`]; a drift
//!   event (or periodic schedule) sets a sticky trigger that releases
//!   once the sliding buffer passes the retrain gate.
//! - [`ThresholdPolicy`] makes the operating thresholds self-tuning:
//!   [`FixedThresholds`] reproduces the configured constants bit for bit,
//!   [`QuantileAdaptive`] re-derives the drift level *and* the predictive
//!   rejuvenation threshold from each class's observed error quantiles on
//!   every publish.
//! - [`ModelService`] owns successive model generations behind
//!   `Arc<dyn Regressor>` plus the effective rejuvenation threshold;
//!   consumers poll one atomic and re-pin on change.
//! - [`AdaptiveRouter`] is the one adaptation runtime: one pipeline per
//!   [`ServiceClass`] for **heterogeneous fleets**, fed from the shared
//!   bounded bus on an ingest thread, with one retrain action that refits
//!   any [`aging_ml::DynLearner`] (M5P, linear regression, GBRT, …) on a
//!   **pooled** fixed worker pool (≤ 1 in-flight refit per class; N
//!   classes ≠ N threads) — a memory-leak class and a swap-thrash class
//!   adapt independently without polluting each other's training buffers.
//!   [`AdaptiveRouter::ingest_inline`] routes batches on the caller's
//!   thread instead, fitting every refit **inline** before the next batch:
//!   what a fleet's adapt step does at every cut, so fleet runs learn the
//!   same way whatever the thread timing.
//! - [`AdaptiveService`] is a one-class router for a fleet that shares
//!   one model: every batch routes to its one class, and the same action
//!   fits **inline**, so a retrain has published before the next batch is
//!   routed — and still never pauses the threads that serve predictions.
//!   Offline [`replay`] fits inline too.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bus;
pub mod discovery;
mod drift;
pub mod pipeline;
pub mod policy;
pub mod replay;
mod router;
mod service;

pub use bus::{
    BusDisconnected, BusReceiver, CheckpointBatch, CheckpointBus, LabelledCheckpoint, ServiceClass,
    DEFAULT_BUS_CAPACITY,
};
pub use drift::{DriftConfig, DriftEvent, DriftMonitor};
pub use pipeline::{AdaptationPipeline, PipelineCounters, RetrainAction, RetrainDisposition};
pub use policy::{FixedThresholds, QuantileAdaptive, ThresholdPolicy, Thresholds};
pub use replay::{ClassReplay, ReplayOutcome, ReplayPartition};
pub use router::{
    AdaptiveRouter, AdaptiveRouterBuilder, ClassAdaptation, ClassSpec, ClassSpecBuilder,
    RouterConfig, RouterConfigBuilder, RouterError, RouterStats,
};
pub use service::{
    AdaptConfig, AdaptConfigBuilder, AdaptationStats, AdaptiveService, AdaptiveServiceBuilder,
    ModelService, ModelSnapshot,
};

#[cfg(test)]
mod tests {
    use super::*;
    use aging_dataset::Dataset;
    use aging_ml::gbrt::GbrtLearner;
    use aging_ml::linreg::LinRegLearner;
    use aging_ml::m5p::M5pLearner;
    use aging_ml::{DynLearner, Learner, Regressor};
    use std::sync::Arc;
    use std::time::Duration;

    /// y = 2x over [0, n): the "old regime".
    fn line_dataset(n: usize, slope: f64) -> Dataset {
        let mut ds = Dataset::new(vec!["x".into()], "y");
        for i in 0..n {
            ds.push_row(vec![i as f64], slope * i as f64).unwrap();
        }
        ds
    }

    fn initial_model() -> Arc<dyn Regressor> {
        Arc::from(LinRegLearner::default().fit_boxed(&line_dataset(50, 2.0)).unwrap())
    }

    fn batch(xs: impl IntoIterator<Item = (f64, f64, Option<f64>)>) -> CheckpointBatch {
        CheckpointBatch {
            source: "test".into(),
            class: ServiceClass::default(),
            checkpoints: xs
                .into_iter()
                .map(|(x, y, pred)| LabelledCheckpoint::new(vec![x], y, pred))
                .collect(),
        }
    }

    #[test]
    fn model_service_generations_are_monotone_and_pinned() {
        let service = ModelService::new(initial_model());
        assert_eq!(service.generation(), 0);
        let pinned = service.snapshot();
        assert_eq!(pinned.generation, 0);
        let g1 = service.publish(initial_model());
        assert_eq!(g1, 1);
        assert_eq!(service.generation(), 1);
        // The old pin keeps working — publish never invalidates readers.
        assert!(pinned.model.predict(&[10.0]).is_finite());
        let fresh = service.snapshot();
        assert_eq!(fresh.generation, 1);
    }

    /// A constant model whose prediction encodes which generation it was
    /// published as — the probe for snapshot-pairing races.
    #[derive(Debug)]
    struct Tagged(f64);

    impl Regressor for Tagged {
        fn predict(&self, _x: &[f64]) -> f64 {
            self.0
        }

        fn name(&self) -> &'static str {
            "Tagged"
        }
    }

    /// Loom-style pairing stress: one publisher races many snapshotters.
    /// Publishing generation `g` installs a model that predicts `g`, so
    /// any torn read — a generation number paired with another
    /// generation's `Arc` — shows up as a prediction mismatch.
    #[test]
    fn snapshot_is_atomic_under_publish_storm() {
        let service = Arc::new(ModelService::new(Arc::new(Tagged(0.0))));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut pin = service.snapshot();
                    let mut last = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let snap = service.snapshot();
                        assert_eq!(
                            snap.model.predict(&[]),
                            snap.generation as f64,
                            "snapshot paired generation {} with another generation's model",
                            snap.generation
                        );
                        assert!(snap.generation >= last, "generations ran backwards");
                        last = snap.generation;
                        // The refresh path must uphold the same pairing.
                        service.refresh(&mut pin);
                        assert_eq!(pin.model.predict(&[]), pin.generation as f64);
                    }
                });
            }
            // The publisher tags each model with the generation number the
            // next publish will assign (single publisher ⇒ predictable).
            for g in 1..=2000u64 {
                service.publish(Arc::new(Tagged(g as f64)));
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
        assert_eq!(service.generation(), 2000);
        assert_eq!(service.snapshot().model.predict(&[]), 2000.0);
    }

    #[test]
    fn refresh_is_a_noop_until_a_publish_lands() {
        let service = ModelService::new(initial_model());
        let mut pin = service.snapshot();
        assert!(!service.refresh(&mut pin), "no publish yet: the pin must not move");
        assert_eq!(pin.generation, 0);
        service.publish(initial_model());
        assert!(service.refresh(&mut pin));
        assert_eq!(pin.generation, 1);
        assert!(!service.refresh(&mut pin), "already current");
    }

    #[test]
    fn model_service_swaps_under_concurrent_readers() {
        let service = Arc::new(ModelService::new(initial_model()));
        let publisher = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    service.publish(initial_model());
                }
            })
        };
        let mut last = 0;
        for _ in 0..1000 {
            let snap = service.snapshot();
            assert!(snap.generation >= last, "generations must be monotone to one reader");
            last = snap.generation;
            assert!(snap.model.predict(&[3.0]).is_finite());
        }
        publisher.join().unwrap();
        assert_eq!(service.generation(), 100);
    }

    /// Drift on the error stream triggers a retrain on the buffered regime
    /// and publishes a new generation whose predictions track it.
    fn drifts_and_retrains_with(learner: Arc<dyn DynLearner>) {
        let config = AdaptConfig {
            drift: DriftConfig {
                enabled: true,
                ewma_alpha: 0.3,
                error_threshold_secs: 100.0,
                min_observations: 10,
                trend_window: 32,
                trend_tolerance_secs: 100.0,
                trend_slope_threshold: 5.0,
                cooldown_observations: 30,
            },
            buffer_capacity: 512,
            min_buffer_to_retrain: 50,
            retrain_every: None,
            bus_capacity: DEFAULT_BUS_CAPACITY,
        };
        let service = AdaptiveService::builder(learner, vec!["x".into()], initial_model())
            .config(config)
            .spawn();
        let bus = service.bus();
        // New regime: y = -3x + 600. The initial model (y = 2x) is off by
        // hundreds of seconds, so the EWMA breaches quickly.
        let truth = |x: f64| 600.0 - 3.0 * x;
        let stale = |x: f64| 2.0 * x;
        for chunk in 0..8 {
            let xs = (0..32).map(|i| {
                let x = (chunk * 32 + i) as f64 * 0.5;
                (x, truth(x), Some(stale(x)))
            });
            assert!(bus.publish(batch(xs)));
        }
        assert!(service.quiesce(Duration::from_secs(30)), "bus must drain");
        let stats = service.stats();
        assert!(stats.drift_events >= 1, "drift must fire: {stats:?}");
        assert!(stats.retrains >= 1, "drift must cause a retrain: {stats:?}");
        assert!(stats.generations_published >= 1);
        let snap = service.model_service().snapshot();
        assert!(snap.generation >= 1);
        let pred = snap.model.predict(&[40.0]);
        let want = truth(40.0);
        assert!(
            (pred - want).abs() < (stale(40.0) - want).abs(),
            "generation {} must beat the stale model: pred {pred}, truth {want}",
            snap.generation
        );
        let final_stats = service.shutdown();
        assert_eq!(final_stats.ingested_checkpoints, 256);
    }

    #[test]
    fn drifts_and_retrains_with_linreg() {
        drifts_and_retrains_with(Arc::new(LinRegLearner::default()));
    }

    #[test]
    fn drifts_and_retrains_with_m5p() {
        drifts_and_retrains_with(Arc::new(M5pLearner::default()));
    }

    #[test]
    fn drifts_and_retrains_with_gbrt() {
        drifts_and_retrains_with(Arc::new(GbrtLearner::default()));
    }

    #[test]
    fn disabled_drift_stays_on_generation_zero() {
        let config = AdaptConfig {
            drift: DriftConfig::disabled(),
            min_buffer_to_retrain: 10,
            ..Default::default()
        };
        let service = AdaptiveService::builder(
            Arc::new(LinRegLearner::default()),
            vec!["x".into()],
            initial_model(),
        )
        .config(config)
        .spawn();
        let bus = service.bus();
        for _ in 0..5 {
            bus.publish(batch((0..50).map(|i| (i as f64, 9999.0, Some(0.0)))));
        }
        assert!(service.quiesce(Duration::from_secs(30)));
        let stats = service.shutdown();
        assert_eq!(stats.generations_published, 0, "disabled drift must never publish");
        assert_eq!(stats.retrains, 0);
        assert!(stats.ingested_checkpoints == 250);
        assert!(stats.error_ewma_secs.unwrap() > 0.0, "statistics still flow");
    }

    #[test]
    fn scheduled_retraining_works_without_drift() {
        let config = AdaptConfig {
            drift: DriftConfig::disabled(),
            buffer_capacity: 256,
            min_buffer_to_retrain: 20,
            retrain_every: Some(40),
            bus_capacity: DEFAULT_BUS_CAPACITY,
        };
        let service = AdaptiveService::builder(
            Arc::new(LinRegLearner::default()),
            vec!["x".into()],
            initial_model(),
        )
        .config(config)
        .spawn();
        let bus = service.bus();
        for chunk in 0..4 {
            bus.publish(batch((0..40).map(|i| {
                let x = (chunk * 40 + i) as f64;
                (x, 5.0 * x, None)
            })));
        }
        assert!(service.quiesce(Duration::from_secs(30)));
        let stats = service.shutdown();
        assert!(stats.retrains >= 3, "periodic schedule must retrain: {stats:?}");
        assert_eq!(stats.drift_events, 0);
    }

    #[test]
    #[should_panic(expected = "min_buffer_to_retrain")]
    fn min_buffer_above_capacity_rejected() {
        let _ = AdaptiveService::builder(
            Arc::new(LinRegLearner::default()),
            vec!["x".into()],
            initial_model(),
        )
        .config(AdaptConfig {
            buffer_capacity: 100,
            min_buffer_to_retrain: 200,
            ..Default::default()
        })
        .spawn();
    }

    /// A degenerate self-tuning policy must be rejected on the caller's
    /// thread at spawn time — not panic silently inside the retrainer.
    #[test]
    #[should_panic(expected = "drift margin")]
    fn degenerate_policy_rejected_at_spawn() {
        let _ = AdaptiveService::builder(
            Arc::new(LinRegLearner::default()),
            vec!["x".into()],
            initial_model(),
        )
        .policy(Arc::new(QuantileAdaptive { drift_margin: 0.5, ..Default::default() }))
        .spawn();
    }

    #[test]
    fn early_drift_trigger_stays_pending_until_buffer_fills() {
        // The drift event fires while the buffer is far below the retrain
        // gate; once enough labelled data has accumulated the retrain must
        // still happen — the trigger is sticky, not batch-local.
        let config = AdaptConfig {
            drift: DriftConfig {
                enabled: true,
                ewma_alpha: 0.5,
                error_threshold_secs: 100.0,
                min_observations: 5,
                trend_window: 64,
                trend_tolerance_secs: 100.0,
                trend_slope_threshold: 5.0,
                // One shot: the cooldown outlasts the whole test, so the
                // only trigger is the early one.
                cooldown_observations: 10_000,
            },
            buffer_capacity: 512,
            min_buffer_to_retrain: 100,
            retrain_every: None,
            bus_capacity: DEFAULT_BUS_CAPACITY,
        };
        let service = AdaptiveService::builder(
            Arc::new(LinRegLearner::default()),
            vec!["x".into()],
            initial_model(),
        )
        .config(config)
        .spawn();
        let bus = service.bus();
        // 10 huge-error checkpoints: drift fires, buffer is only 10 deep.
        bus.publish(batch((0..10).map(|i| (i as f64, 5000.0, Some(0.0)))));
        assert!(service.quiesce(Duration::from_secs(30)));
        assert_eq!(service.stats().retrains, 0, "gate must hold the retrain back");
        assert!(service.stats().drift_events >= 1, "the trigger itself must have fired");
        // Quiet labelled data (no predictions → no new drift): crossing
        // the gate must release the pending retrain.
        for chunk in 0..3 {
            bus.publish(batch((0..40).map(|i| {
                let x = (10 + chunk * 40 + i) as f64;
                (x, 2.0 * x, None)
            })));
        }
        assert!(service.quiesce(Duration::from_secs(30)));
        let stats = service.shutdown();
        assert!(
            stats.retrains >= 1,
            "pending drift trigger must fire once the buffer fills: {stats:?}"
        );
    }

    #[test]
    fn mismatched_arity_checkpoints_are_dropped_not_fatal() {
        let service = AdaptiveService::builder(
            Arc::new(LinRegLearner::default()),
            vec!["x".into()],
            initial_model(),
        )
        .spawn();
        let bus = service.bus();
        bus.publish(CheckpointBatch {
            source: "bad".into(),
            class: ServiceClass::default(),
            checkpoints: vec![LabelledCheckpoint::new(vec![1.0, 2.0, 3.0], 10.0, None)],
        });
        assert!(service.quiesce(Duration::from_secs(10)));
        let stats = service.shutdown();
        assert_eq!(stats.ingested_checkpoints, 1);
        assert_eq!(stats.buffered, 0, "bad-arity rows never enter the buffer");
    }
}
