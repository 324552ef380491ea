//! # software-aging
//!
//! Facade crate for the reproduction of *"Adaptive on-line software aging
//! prediction based on Machine Learning"* (Alonso, Torres, Berral, Gavaldà —
//! DSN 2010).
//!
//! The workspace is organised bottom-up; this crate re-exports every layer
//! so applications can depend on a single crate:
//!
//! - [`dataset`] — tabular data, statistics, sliding windows, CSV/ARFF I/O,
//! - [`ml`] — M5P model trees, linear regression, regression trees, ARMA,
//!   the naive Eq. (1) predictor, evaluation metrics, prediction boards
//!   and on-line wrappers,
//! - [`testbed`] — the simulated three-tier TPC-W deployment (JVM heap with
//!   GC and resizing, threads, OS memory view, Tomcat, MySQL, emulated
//!   browsers, fault injectors),
//! - [`monitor`] — 15-second checkpoints, the paper's Table-2 variable
//!   catalogue, per-experiment feature sets and TTF labelling,
//! - [`core`] — the end-to-end prediction framework: training on
//!   run-to-crash executions, on-line adaptive prediction, root-cause
//!   analysis and rejuvenation policies,
//! - [`fleet`] — the concurrent fleet engine: hundreds of independently
//!   seeded deployments sharded across a worker-thread pool, driven epoch
//!   by epoch (15-second checkpoints) by a work-queue scheduler,
//!   batch-predicted through one shared model
//!   ([`ml::Regressor::predict_matrix`] over flat reusable feature
//!   matrices) and proactively rejuvenated, with fleet-wide availability /
//!   crashes-avoided / TTF-error / throughput reporting,
//! - [`adapt`] — the drift-triggered online retraining service: bounded
//!   checkpoint ingestion (drop-oldest ring with per-source fairness),
//!   prediction-error drift detection (EWMA ⊕ segmentation trend),
//!   sliding-buffer retraining on any learner, hot model-generation swap
//!   into the running fleet, and class-routed adaptation for
//!   heterogeneous fleets (one model service per `ServiceClass` over a
//!   shared retrainer pool),
//! - [`tune`] — self-optimising policy search: ALNS-style destroy/repair
//!   search over the rejuvenation policy space (learner choice, drift
//!   debounce, threshold-policy quantiles, buffer/refit cadence), scored
//!   by counterfactual journal replay and promoted into the live router
//!   through a margin-guarded gate,
//! - [`obs`] — the zero-overhead telemetry layer: a lock-free metrics
//!   registry (atomic counters/gauges, log2-bucket histograms, labelled
//!   families keyed by class or shard), RAII phase timers, and Prometheus /
//!   JSON exporters threaded through the fleet engine, the adaptation
//!   service and class discovery.
//!
//! # Quickstart
//!
//! ```no_run
//! use software_aging::core::AgingPredictor;
//! use software_aging::monitor::FeatureSet;
//! use software_aging::testbed::{Scenario, MemLeakSpec};
//!
//! // Train on four run-to-crash executions at different workloads …
//! let training: Vec<Scenario> = [25, 50, 100, 200]
//!     .into_iter()
//!     .map(|ebs| {
//!         Scenario::builder(format!("train-{ebs}eb"))
//!             .emulated_browsers(ebs)
//!             .memory_leak(MemLeakSpec::new(30))
//!             .run_to_crash()
//!             .build()
//!     })
//!     .collect();
//! let predictor = AgingPredictor::train(&training, FeatureSet::exp41(), 42).unwrap();
//!
//! // … then predict time-to-failure for a fresh execution.
//! let test = Scenario::builder("test-75eb")
//!     .emulated_browsers(75)
//!     .memory_leak(MemLeakSpec::new(30))
//!     .run_to_crash()
//!     .build();
//! let report = predictor.evaluate_scenario(&test, 7).unwrap();
//! println!("{}", report.evaluation.summary());
//! ```

pub use aging_adapt as adapt;
pub use aging_core as core;
pub use aging_dataset as dataset;
pub use aging_fleet as fleet;
pub use aging_journal as journal;
pub use aging_ml as ml;
pub use aging_monitor as monitor;
pub use aging_obs as obs;
pub use aging_testbed as testbed;
pub use aging_tune as tune;
