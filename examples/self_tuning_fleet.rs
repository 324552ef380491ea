//! Self-tuning thresholds: a heterogeneous fleet with **no hand-picked
//! per-class constants**.
//!
//! The hetero_fleet example needs an operator who knows that the "leak"
//! class wants a 600 s drift level and the "steady" class a 3600 s one.
//! This example deletes that knowledge: both classes share **one**
//! `AdaptConfig` (the default 900 s drift level) and **one**
//! [`QuantileAdaptive`] policy `Arc`. After every model publish, each
//! class's [`aging_adapt::AdaptationPipeline`] re-derives its own drift
//! level and predictive-rejuvenation trigger from the error quantiles
//! *that class* observed under the new generation — heterogeneous tuning
//! becomes self-service.
//!
//! ```text
//! cargo run --release --example self_tuning_fleet [-- --instances 24 \
//!     --shards 4 --hours 6 --json [PATH] --metrics [PATH] --trace [PATH]]
//! ```
//!
//! Two thirds of `--instances` form the shifting class, one third the
//! steady class. `--json` writes both reports (default path
//! `BENCH_self_tuning.json`); `--metrics` attaches one telemetry registry
//! to the self-tuned run and writes its snapshot (default path
//! `METRICS_self_tuning.json`); `--trace` attaches one flight recorder to
//! the self-tuned run — the resulting Chrome trace (default path
//! `TRACE_self_tuning.json`) shows each class's threshold re-derivations
//! parented on the publish that triggered them.

use serde::Serialize;
use software_aging::adapt::{
    AdaptConfig, AdaptiveRouter, ClassSpec, DriftConfig, QuantileAdaptive, RouterConfig,
    ServiceClass, ThresholdPolicy,
};
use software_aging::core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use software_aging::fleet::{Fleet, FleetConfig, FleetReport, InstanceSpec, WorkloadShift};
use software_aging::ml::{LearnerKind, Regressor};
use software_aging::monitor::FeatureSet;
use software_aging::obs::{FlightRecorder, Registry};
use software_aging::testbed::Scenario;
use std::sync::Arc;

mod common;
use common::{leaky, parse_args, write_metrics, write_trace, FleetArgs};

/// Both runs of the comparison, as written by `--json`.
#[derive(Debug, Serialize)]
struct SelfTuningBench {
    frozen: FleetReport,
    self_tuned: FleetReport,
}

fn specs(n_leak: usize, n_steady: usize, horizon_secs: f64) -> Vec<InstanceSpec> {
    let before = leaky("slow-leak", 100, 75);
    let after = leaky("fast-leak", 150, 15);
    let steady = leaky("steady-leak", 100, 30);
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let leak_class = (0..n_leak).map(move |i| InstanceSpec {
        name: format!("leak-{i:03}"),
        scenario: before.clone(),
        policy,
        seed: 5_000 + i as u64,
        shift: Some(WorkloadShift { after_secs: horizon_secs * 0.25, scenario: after.clone() }),
        class: ServiceClass::new("leak"),
    });
    let steady_class = (0..n_steady).map(move |i| {
        InstanceSpec::new(format!("steady-{i:03}"), steady.clone(), policy, 9_000 + i as u64)
            .with_class("steady")
    });
    leak_class.chain(steady_class).collect()
}

/// Both classes get the SAME config — the whole point. `drift_enabled:
/// false` is the frozen baseline.
fn class_configs(
    features: &FeatureSet,
    drift_enabled: bool,
) -> Result<Vec<(ServiceClass, ClassSpec)>, Box<dyn std::error::Error>> {
    let leak_training: Vec<Scenario> =
        [75u64, 100, 125].into_iter().map(|ebs| leaky(format!("train-{ebs}eb"), ebs, 75)).collect();
    let leak_model: Arc<dyn Regressor> =
        Arc::new(AgingPredictor::train(&leak_training, features.clone(), 42)?.model().clone());
    let steady_model: Arc<dyn Regressor> = Arc::new(
        AgingPredictor::train(&[leaky("steady-train", 100, 45)], features.clone(), 42)?
            .model()
            .clone(),
    );
    // ONE shared adaptation config: default drift level (900 s), nothing
    // tuned per class.
    let shared = AdaptConfig::builder()
        .drift(if drift_enabled {
            DriftConfig { min_observations: 40, cooldown_observations: 120, ..Default::default() }
        } else {
            DriftConfig::disabled()
        })
        .buffer_capacity(2048)
        .min_buffer_to_retrain(120)
        .build();
    // ONE shared policy instance: each class's pipeline consults it with
    // its own error window, so it still tunes every class independently.
    let policy: Arc<dyn ThresholdPolicy> = Arc::new(QuantileAdaptive::default());
    Ok(vec![
        (
            ServiceClass::new("leak"),
            ClassSpec::builder(LearnerKind::M5p.learner(), leak_model)
                .config(shared)
                .policy(Arc::clone(&policy))
                .build(),
        ),
        (
            ServiceClass::new("steady"),
            ClassSpec::builder(LearnerKind::M5p.learner(), steady_model)
                .config(shared)
                .policy(policy)
                .build(),
        ),
    ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let defaults = FleetArgs {
        instances: 24,
        shards: 4,
        hours: 6.0,
        json: None,
        metrics: None,
        trace: None,
        journal: None,
        replay: false,
    };
    let args = parse_args(
        defaults,
        "BENCH_self_tuning.json",
        "METRICS_self_tuning.json",
        "TRACE_self_tuning.json",
        "JOURNAL_self_tuning",
    )
    .inspect_err(|_| {
        eprintln!(
            "usage: self_tuning_fleet [--instances N] [--shards N] [--hours H] \
                 [--json [PATH]] [--metrics [PATH]] [--trace [PATH]]"
        );
    })?;
    if args.journal.is_some() {
        return Err("--journal: this example does not wire a journal; \
             see hetero_fleet for the durable-journal demonstration"
            .into());
    }
    let n_leak = (args.instances * 2 / 3).max(1);
    let n_steady = (args.instances - n_leak).max(1);
    let horizon = args.hours * 3600.0;
    let features = FeatureSet::exp42();
    let config = FleetConfig {
        shards: args.shards,
        rejuvenation: RejuvenationConfig { horizon_secs: horizon, ..Default::default() },
        counterfactual_horizon_secs: 3600.0,
    };
    println!(
        "training per-class models … ({n_leak} shifting + {n_steady} steady deployments, \
         {:.0} h horizon, zero hand-picked thresholds)\n",
        args.hours
    );

    // Run 1: per-class frozen baseline (drift disabled — every class
    // rides out the shift on its generation-0 model).
    println!("── frozen per-class models ──");
    let frozen_router = AdaptiveRouter::builder(features.variables().to_vec())
        .classes(class_configs(&features, false)?)
        .config(RouterConfig::builder().retrainer_threads(2).build())
        .spawn();
    let frozen = Fleet::new(specs(n_leak, n_steady, horizon), config)?
        .run_routed(&frozen_router, &features)?;
    frozen_router.shutdown();
    println!("{frozen}\n");

    // Run 2: same fleet and seeds, one shared config + one shared
    // QuantileAdaptive policy — every class derives its own thresholds.
    println!("── self-tuning thresholds (shared config, shared policy) ──");
    let registry = args.metrics.as_ref().map(|_| Registry::shared());
    let recorder = args.trace.as_ref().map(|_| FlightRecorder::shared());
    let mut router_builder = AdaptiveRouter::builder(features.variables().to_vec())
        .classes(class_configs(&features, true)?)
        .config(RouterConfig::builder().retrainer_threads(2).build());
    if let Some(registry) = &registry {
        router_builder = router_builder.telemetry(Arc::clone(registry));
    }
    if let Some(recorder) = &recorder {
        router_builder = router_builder.trace(Arc::clone(recorder));
    }
    let router = router_builder.spawn();
    let mut tuned_fleet = Fleet::new(specs(n_leak, n_steady, horizon), config)?;
    if let Some(registry) = &registry {
        tuned_fleet = tuned_fleet.with_telemetry(Arc::clone(registry));
    }
    if let Some(recorder) = &recorder {
        tuned_fleet = tuned_fleet.with_trace(Arc::clone(recorder));
    }
    let self_tuned = tuned_fleet.run_routed(&router, &features)?;
    let stats = router.shutdown();
    println!("{self_tuned}\n");
    assert_eq!(self_tuned.rejected_rows(), 0, "every labelled row must pass the ingest checks");

    println!("── frozen vs self-tuned, per class ──");
    for class in ["leak", "steady"] {
        let frozen_err = frozen.class_mean_ttf_error_secs(class);
        let tuned_err = self_tuned.class_mean_ttf_error_secs(class);
        let s = stats.class(&ServiceClass::new(class)).expect("registered class");
        let rejuvenate = s
            .effective_rejuvenation_threshold_secs
            .map_or("spec (420 s)".to_string(), |t| format!("{t:.0} s"));
        println!(
            "  {class:<8} TTF error {frozen_err:>7.0} s → {tuned_err:>7.0} s  \
             ({:.1}× lower)   gen {}  drift level {:.0} s  rejuvenate {}",
            frozen_err / tuned_err.max(1.0),
            s.generation,
            s.effective_error_threshold_secs,
            rejuvenate,
        );
    }
    println!(
        "  router: {} checkpoints ingested, {} dropped, {} unrouted",
        stats.ingested_checkpoints, stats.dropped_checkpoints, stats.unrouted_checkpoints
    );

    if let Some(path) = &args.metrics {
        write_metrics(path, self_tuned.telemetry.as_ref().expect("registry attached"))?;
    }
    if let (Some(path), Some(recorder)) = (&args.trace, &recorder) {
        write_trace(path, recorder)?;
    }
    if let Some(path) = &args.json {
        let bench = SelfTuningBench { frozen, self_tuned };
        std::fs::write(path, serde_json::to_string_pretty(&bench)?)?;
        println!("\nwrote {path}");
    }
    Ok(())
}
