//! Concurrent fleet-scale aging prediction and rejuvenation.
//!
//! The paper picked M5P because "it has low training and prediction costs
//! and we will eventually want on-line processing" — and the seed's
//! on-line loop (`aging_core::OnlineTtfPredictor` +
//! `aging_core::rejuvenation::evaluate_policy`) operates exactly **one**
//! server at a time. This crate scales that loop to production shape:
//! a [`Fleet`] operates hundreds of independently-seeded simulated
//! deployments ([`InstanceSpec`]) under one shared trained model.
//!
//! # Architecture
//!
//! - Instances are round-robined across `shards` shards, driven by an
//!   epoch scheduler with one worker thread per shard: each shard epoch is
//!   a task on a ready queue, and every live instance consumes one
//!   15-second monitoring checkpoint per epoch.
//! - A fixed population advances **epoch by epoch**: no shard starts an
//!   epoch more than one ahead of the slowest live shard. Leader windows
//!   run with every shard parked at a boundary, a consistent global cut,
//!   and step through one list of leader steps (discovery, autoscaling).
//! - Within a shard, every checkpoint that needs a time-to-failure
//!   estimate is projected straight into a flat row-major
//!   [`aging_ml::FeatureMatrix`] (reused across epochs — no per-row
//!   allocations) and resolved through one
//!   [`aging_ml::Regressor::predict_matrix`] call — the shared model is
//!   `Sync`, so all shards read it concurrently without cloning it.
//! - Each instance applies its own `RejuvenationPolicy` with the exact
//!   accounting of the single-instance study: a 1-instance fleet
//!   reproduces `evaluate_policy`'s `RejuvenationReport` field for field.
//! - Per-instance outcomes fold into a [`FleetReport`]: availability,
//!   crashes suffered/avoided (the latter via the paper's frozen-rate
//!   fork as counterfactual), lost work, restart counts, retrospective
//!   TTF-prediction error, and the engine's wall-clock
//!   checkpoints/second throughput.
//!
//! # Counterfactual forks
//!
//! A proactive restart is labelled against the paper's frozen-rate fork,
//! and the fork does not run inside the restart. The restart drops its
//! live simulator anyway, so it moves it into a fork job; what the restart
//! decides by itself (restart count, downtime, elapsed time, the next
//! service epoch) happens at once, and the epoch's labelling and
//! `crashes_avoided` wait for a **fold**.
//!
//! - **The fold rule.** An instance folds its pending fork first thing in
//!   its next epoch end, batch hand-off, signature and report. A shard
//!   folds every fork that has finished after its counterfactual phase, so
//!   a restarted epoch's history does not outlive its fork, and every
//!   instance once none of its instances is live. A fold whose job has not
//!   started runs it; a fold whose job is running waits for it
//!   (`fleet_counterfactual_wait_seconds{shard}`).
//! - **Where jobs run.** When a run forks, publishes no labels (no bus)
//!   and `available_parallelism` exceeds its shard count, one **audit
//!   lane** thread per run, scoped to the run and joined before the report
//!   is built, runs queued jobs in order while the shards go on. Otherwise
//!   each shard runs its queued jobs in a counterfactual phase right after
//!   predict, and runs that publish fold before their publish, so what
//!   they publish does not move. Each job is timed once, wherever it ran
//!   (`fleet_counterfactual_seconds{shard}`), and the predict phase times
//!   inference alone. A job that panics on the lane is resumed at its fold
//!   on the shard's thread, and reaches the caller through the scheduler
//!   like any other shard panic.
//! - **Why reports cannot change.** Nothing else reads what a fold writes,
//!   every fold comes before the instance's next epoch end, and the fold
//!   applies the same arithmetic in the same per-instance order as
//!   labelling inside the restart did. The crate's tests hold lane and
//!   phase runs to runs that fold each fork at its restart, byte for byte,
//!   and golden digests recorded while forks ran inside the restart pin
//!   fork-heavy fleets.
//!
//! # Adaptation
//!
//! [`Fleet::run_adaptive`] connects the same epoch loop to an
//! [`aging_adapt::AdaptiveService`]: completed crash epochs are labelled
//! retrospectively and streamed onto the service's checkpoint bus, the
//! service retrains on drift and publishes new model generations, and
//! every worker re-pins its model snapshot at the next epoch boundary —
//! retraining never pauses the pool. A fleet-level [`WorkloadShift`] can
//! move instances to a different scenario mid-run to exercise exactly the
//! dynamic-workload regime the paper's adaptive claim is about.
//!
//! Heterogeneous fleets go through [`Fleet::run_routed`] instead: specs
//! carry a [`ServiceClass`], shards tag outgoing checkpoints with it, and an
//! [`aging_adapt::AdaptiveRouter`] serves/retrains one model per class
//! over a shared retrainer pool — a workload shift in one class adapts
//! that class alone.
//!
//! Every run serves from one model table: an append-only list of slots,
//! each a class label plus either a frozen model or a model service, and a
//! map from each instance to its slot. Frozen and [`Fleet::run_adaptive`]
//! runs have one slot that every instance maps to, routed runs one slot per
//! class, and [`Fleet::run_discovered`] only appends slots and re-points
//! instances at its leader windows. Shards keep one batch matrix per slot,
//! so an epoch makes one `predict_matrix` call per slot with rows.
//!
//! # Elasticity
//!
//! A [`Fleet::with_churn`] plan makes membership dynamic — scripted joins
//! and retires plus an optional [`AutoscaleRule`] floor — with every
//! change journalled, traced, and folded into the report's
//! [`ChurnStats`]. Under a plan, shards run ahead of each other freely
//! between leader boundaries, and dead shards fast-forward to their next
//! join. Joins and retires land at the top of their epoch through one
//! membership path; a force-retired instance leaves discovery, whose step
//! reads signatures off the parked shards. Every run goes through this
//! scheduler; the crate's tests hold it bit for bit, churn plans included,
//! to a sequential reference driver that runs the same shard epochs,
//! membership path and leader steps with no concurrency at all.
//!
//! # Example
//!
//! ```no_run
//! use aging_core::{AgingPredictor, RejuvenationPolicy};
//! use aging_fleet::{Fleet, FleetConfig};
//! use aging_monitor::FeatureSet;
//! use aging_testbed::{MemLeakSpec, Scenario};
//!
//! let scenario = Scenario::builder("leaky")
//!     .emulated_browsers(100)
//!     .memory_leak(MemLeakSpec::new(15))
//!     .run_to_crash()
//!     .build();
//! let predictor = AgingPredictor::train(&[scenario.clone()], FeatureSet::exp42(), 7)?;
//! let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
//! let fleet = Fleet::uniform(&scenario, policy, 100, 1000, FleetConfig::default())?;
//! let report = fleet.run_with_predictor(&predictor);
//! println!("{report}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod audit;
mod churn;
mod config;
mod engine;
mod instance;
mod membership;
#[cfg(test)]
mod reference;
mod report;
mod scheduler;
mod shard;

pub use churn::{AutoscaleRule, ChurnPlan, ScheduledJoin, ScheduledRetire};
pub use config::{DiscoverySetup, FleetConfig, FleetError, InstanceSpec, WorkloadShift};
pub use engine::Fleet;
pub use report::{
    ChurnStats, DiscoveredClass, DiscoveryReport, FleetReport, FleetTiming, InstanceReport,
    JournalStats, SchedulerStats,
};

// The class vocabulary of heterogeneous fleets lives in `aging_adapt`
// (checkpoint batches carry it); re-exported so fleet callers need not
// name that crate.
pub use aging_adapt::ServiceClass;

// The policy-search surface a tuned fleet needs: the tuner handed to
// `Fleet::with_tuner` and the stats type `FleetReport::tuning` carries.
pub use aging_tune::{FleetTuner, TuneConfig, TuneStats, TunedClass};

#[cfg(test)]
mod tests {
    use super::*;
    use aging_core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
    use aging_monitor::FeatureSet;
    use aging_testbed::{MemLeakSpec, Scenario};

    fn crashing_scenario() -> Scenario {
        Scenario::builder("leaky")
            .emulated_browsers(100)
            .memory_leak(MemLeakSpec::new(15))
            .run_to_crash()
            .build()
    }

    fn short_config(shards: usize) -> FleetConfig {
        FleetConfig {
            shards,
            rejuvenation: RejuvenationConfig { horizon_secs: 2.0 * 3600.0, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert!(matches!(
            Fleet::new(Vec::new(), FleetConfig::default()),
            Err(FleetError::NoInstances)
        ));
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        let spec = |policy| InstanceSpec::new("x", crashing_scenario(), policy, 1);
        assert!(Fleet::new(
            vec![spec(RejuvenationPolicy::TimeBased { interval_secs: 0.0 })],
            FleetConfig::default(),
        )
        .is_err());
        assert!(Fleet::new(
            vec![spec(RejuvenationPolicy::Predictive { threshold_secs: 300.0, consecutive: 0 })],
            FleetConfig::default(),
        )
        .is_err());
        assert!(Fleet::new(
            vec![spec(RejuvenationPolicy::Reactive)],
            FleetConfig { shards: 0, ..Default::default() },
        )
        .is_err());
        let bad_horizon = FleetConfig {
            rejuvenation: RejuvenationConfig { horizon_secs: 0.0, ..Default::default() },
            ..Default::default()
        };
        assert!(Fleet::new(vec![spec(RejuvenationPolicy::Reactive)], bad_horizon).is_err());
    }

    #[test]
    fn reactive_fleet_suffers_crashes_on_every_instance() {
        let fleet = Fleet::uniform(
            &crashing_scenario(),
            RejuvenationPolicy::Reactive,
            6,
            10,
            short_config(3),
        )
        .unwrap();
        let predictor =
            AgingPredictor::train(&[crashing_scenario()], FeatureSet::exp42(), 99).unwrap();
        let report = fleet.run_with_predictor(&predictor);
        assert_eq!(report.instances.len(), 6);
        assert_eq!(report.shards, 3);
        assert_eq!(report.rejuvenations, 0);
        for inst in &report.instances {
            assert!(inst.crashes >= 1, "leaky instance must crash: {inst:?}");
            assert!(inst.availability < 1.0);
            assert!(inst.service_epochs >= inst.crashes, "{inst:?}");
        }
        assert!(report.epochs > 0);
        assert_eq!(report.checkpoints, report.instances.iter().map(|i| i.checkpoints).sum::<u64>());
    }

    #[test]
    fn predictive_fleet_avoids_crashes_and_counts_counterfactuals() {
        let predictor =
            AgingPredictor::train(&[crashing_scenario()], FeatureSet::exp42(), 77).unwrap();
        let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
        let predictive = Fleet::uniform(&crashing_scenario(), policy, 4, 500, short_config(2))
            .unwrap()
            .run_with_predictor(&predictor);
        let reactive = Fleet::uniform(
            &crashing_scenario(),
            RejuvenationPolicy::Reactive,
            4,
            500,
            short_config(2),
        )
        .unwrap()
        .run_with_predictor(&predictor);
        assert!(
            predictive.crashes < reactive.crashes,
            "prediction must pre-empt crashes: {} vs {}",
            predictive.crashes,
            reactive.crashes
        );
        assert!(predictive.availability > reactive.availability);
        assert!(predictive.rejuvenations > 0);
        assert!(
            predictive.crashes_avoided > 0,
            "proactive restarts of a leaky server should pre-empt real crashes: {predictive}"
        );
        assert!(predictive.crashes_avoided <= predictive.rejuvenations);
    }

    #[test]
    fn disabled_counterfactual_reports_zero_avoided() {
        let predictor =
            AgingPredictor::train(&[crashing_scenario()], FeatureSet::exp42(), 77).unwrap();
        let mut config = short_config(2);
        config.counterfactual_horizon_secs = 0.0;
        let report = Fleet::uniform(
            &crashing_scenario(),
            RejuvenationPolicy::TimeBased { interval_secs: 900.0 },
            3,
            42,
            config,
        )
        .unwrap()
        .run_with_predictor(&predictor);
        assert!(report.rejuvenations > 0);
        assert_eq!(report.crashes_avoided, 0);
    }

    #[test]
    fn report_orders_instances_by_spec_regardless_of_sharding() {
        let predictor =
            AgingPredictor::train(&[crashing_scenario()], FeatureSet::exp42(), 5).unwrap();
        for shards in [1, 2, 5] {
            let fleet = Fleet::uniform(
                &crashing_scenario(),
                RejuvenationPolicy::Reactive,
                5,
                0,
                short_config(shards),
            )
            .unwrap();
            let report = fleet.run_with_predictor(&predictor);
            let names: Vec<&str> = report.instances.iter().map(|i| i.name.as_str()).collect();
            assert_eq!(
                names,
                vec!["leaky-0000", "leaky-0001", "leaky-0002", "leaky-0003", "leaky-0004"],
                "shards={shards}"
            );
        }
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // A model assertion (e.g. feature-arity mismatch) fires inside one
        // worker thread; the scheduler must let every worker drain out and
        // the payload reach the caller, not strand the siblings.
        #[derive(Debug)]
        struct PanicModel;

        impl aging_ml::Regressor for PanicModel {
            fn predict(&self, _x: &[f64]) -> f64 {
                panic!("model rejected the feature row");
            }

            fn name(&self) -> &'static str {
                "Panic"
            }
        }

        let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
        let fleet = Fleet::uniform(&crashing_scenario(), policy, 4, 1, short_config(2)).unwrap();
        let features = FeatureSet::exp42();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fleet.run(&PanicModel, &features)
        }));
        let payload = outcome.expect_err("the worker panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("model rejected"), "unexpected payload: {message}");
    }

    #[test]
    fn telemetry_snapshot_lands_in_the_report() {
        let predictor =
            AgingPredictor::train(&[crashing_scenario()], FeatureSet::exp42(), 5).unwrap();
        let registry = aging_obs::Registry::shared();
        let report = Fleet::uniform(
            &crashing_scenario(),
            RejuvenationPolicy::Reactive,
            4,
            9,
            short_config(2),
        )
        .unwrap()
        .with_telemetry(std::sync::Arc::clone(&registry))
        .run_with_predictor(&predictor);
        let telemetry = report.telemetry.as_ref().expect("registry attached");
        assert_eq!(telemetry.counter("fleet_epochs_total", None), Some(report.epochs));
        for phase in ["fleet_epoch_advance_seconds", "fleet_epoch_predict_seconds"] {
            let series = telemetry.histogram_series(phase);
            assert_eq!(series.len(), 2, "one {phase} series per shard");
            assert!(series.iter().all(|h| h.count > 0), "every shard times its {phase}");
        }
        let idle = telemetry.histogram_series("fleet_scheduler_idle_seconds");
        assert_eq!(idle.len(), 2, "one idle series per scheduler worker");
        let timing = report.shard_timing_summary().expect("telemetry attached");
        assert!(timing.contains("busiest shard"), "{timing}");
        assert!(timing.contains("the mean shard"), "{timing}");
        assert!(timing.contains("worker idle"), "{timing}");
        assert!(report.to_string().contains("shard timing"), "{report}");

        // Untelemetered runs carry no snapshot (and pay no clock reads).
        let bare = Fleet::uniform(
            &crashing_scenario(),
            RejuvenationPolicy::Reactive,
            4,
            9,
            short_config(2),
        )
        .unwrap()
        .run_with_predictor(&predictor);
        assert!(bare.telemetry.is_none());
    }

    #[test]
    fn display_summarises_the_fleet() {
        let predictor =
            AgingPredictor::train(&[crashing_scenario()], FeatureSet::exp42(), 5).unwrap();
        let report = Fleet::uniform(
            &crashing_scenario(),
            RejuvenationPolicy::Reactive,
            2,
            3,
            short_config(2),
        )
        .unwrap()
        .run_with_predictor(&predictor);
        let text = report.to_string();
        assert!(text.contains("2 instances"), "{text}");
        assert!(text.contains("checkpoints/s"), "{text}");
    }

    /// A panic inside the leader's discovery window must dump the flight
    /// recorder exactly once (shared gate with the worker panic path) and
    /// still rethrow the payload to the caller.
    #[test]
    fn discovery_step_panic_dumps_flight_recorder_once() {
        use aging_adapt::ClassSpec;
        use aging_ml::LearnerKind;
        use aging_obs::FlightRecorder;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        let features = FeatureSet::exp42();
        let initial = Arc::new(
            AgingPredictor::train(&[crashing_scenario()], features.clone(), 11)
                .unwrap()
                .model()
                .clone(),
        );
        let template = ClassSpec::builder(LearnerKind::LinReg.learner(), initial).build();
        let setup = DiscoverySetup { reassess_every_epochs: 1, ..DiscoverySetup::new(template) };
        let recorder = Arc::new(FlightRecorder::with_capacity(128));
        let fleet = Fleet::uniform(
            &crashing_scenario(),
            RejuvenationPolicy::Reactive,
            4,
            3,
            short_config(2),
        )
        .unwrap()
        .with_trace(Arc::clone(&recorder));
        // Arm the seam for the first reassessment boundary; disarm before
        // asserting so a failure cannot leak the panic into later tests.
        crate::engine::DISCOVERY_PANIC_AT.store(1, Ordering::SeqCst);
        let result = catch_unwind(AssertUnwindSafe(|| fleet.run_discovered(&setup, &features)));
        crate::engine::DISCOVERY_PANIC_AT.store(u64::MAX, Ordering::SeqCst);
        assert!(result.is_err(), "the leader's panic must reach the caller");
        assert_eq!(recorder.dumped(), 1, "one dump per recorder, not per panicking thread");
    }

    /// A panic inside a scheduler worker's shard task must go through the
    /// same dump-exactly-once flight-recorder gate as the leader's panic
    /// path, and the payload must still reach the caller.
    #[test]
    fn scheduler_worker_panic_dumps_flight_recorder_once() {
        use aging_obs::FlightRecorder;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        let predictor =
            AgingPredictor::train(&[crashing_scenario()], FeatureSet::exp42(), 11).unwrap();
        let recorder = Arc::new(FlightRecorder::with_capacity(128));
        let fleet = Fleet::uniform(
            &crashing_scenario(),
            RejuvenationPolicy::Reactive,
            4,
            3,
            short_config(2),
        )
        .unwrap()
        .with_trace(Arc::clone(&recorder));
        // Arm the seam for shard 0's second epoch; disarm before asserting
        // so a failure cannot leak the panic into later tests.
        crate::scheduler::SCHEDULER_PANIC_AT.store(1, Ordering::SeqCst);
        let result = catch_unwind(AssertUnwindSafe(|| fleet.run_with_predictor(&predictor)));
        crate::scheduler::SCHEDULER_PANIC_AT.store(u64::MAX, Ordering::SeqCst);
        assert!(result.is_err(), "the worker panic must reach the caller");
        assert_eq!(recorder.dumped(), 1, "one dump per recorder, not per panicking thread");
    }

    /// A fork that panics on the audit lane is caught there and resumed at
    /// its fold on the shard's thread, so it reaches the caller through the
    /// scheduler's catch-unwind after one flight-recorder dump. The lane
    /// claims the fork before its shard goes on, so the fold cannot run it
    /// inline instead.
    #[test]
    fn a_fork_panicking_on_the_audit_lane_dumps_the_flight_recorder_once() {
        use crate::engine::ForkPath;
        use aging_obs::FlightRecorder;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Arc;

        let predictor =
            AgingPredictor::train(&[crashing_scenario()], FeatureSet::exp42(), 11).unwrap();
        let recorder = Arc::new(FlightRecorder::with_capacity(128));
        let policy = RejuvenationPolicy::TimeBased { interval_secs: 900.0 };
        let fleet = Fleet::uniform(&crashing_scenario(), policy, 2, 3, short_config(1))
            .unwrap()
            .with_trace(Arc::clone(&recorder))
            .with_fork_path(ForkPath::PanickingLane);
        let result = catch_unwind(AssertUnwindSafe(|| fleet.run_with_predictor(&predictor)));
        let payload = result.expect_err("the fork's panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("synthetic fork panic"), "unexpected payload: {message}");
        assert_eq!(recorder.dumped(), 1, "one dump per recorder, not per panicking thread");
    }
}
