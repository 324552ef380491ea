//! Adaptive vs frozen prediction under a mid-run workload shift.
//!
//! The paper's thesis in one experiment: a fleet is trained for a
//! slow-aging regime, then the workload shifts mid-run to an aggressive
//! leak the model has never seen. The frozen model keeps mispredicting for
//! the rest of the horizon; the adaptive service notices the drift in its
//! prediction errors, retrains on the labelled crash epochs streaming in
//! over the checkpoint bus, and hot-swaps new model generations into the
//! running fleet — without ever pausing the worker pool.
//!
//! ```text
//! cargo run --release --example adaptive_fleet [-- --instances 36 \
//!     --shards 4 --hours 8 --json [PATH] --metrics [PATH] --trace [PATH]]
//! ```
//!
//! `--json` writes both reports (default path `BENCH_adaptive_fleet.json`);
//! `--metrics` attaches one telemetry registry to the adaptive run (fleet
//! *and* service side) and writes its snapshot (default path
//! `METRICS_adaptive_fleet.json`); `--trace` attaches one flight recorder
//! to the adaptive run and writes its Chrome trace-event JSON (default
//! path `TRACE_adaptive_fleet.json`) — the drift→trigger→refit→publish→swap
//! causal chains, loadable in Perfetto.

use serde::Serialize;
use software_aging::adapt::{AdaptConfig, AdaptiveService, DriftConfig};
use software_aging::core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use software_aging::fleet::{Fleet, FleetConfig, FleetReport, InstanceSpec, WorkloadShift};
use software_aging::ml::m5p::M5pLearner;
use software_aging::ml::{DynLearner, Regressor};
use software_aging::monitor::FeatureSet;
use software_aging::obs::{FlightRecorder, Registry};
use software_aging::testbed::Scenario;
use std::sync::Arc;

mod common;
use common::{leaky, parse_args, write_metrics, write_trace, FleetArgs};

/// Both runs of the comparison, as written by `--json`.
#[derive(Debug, Serialize)]
struct AdaptiveBench {
    frozen: FleetReport,
    adaptive: FleetReport,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let defaults = FleetArgs {
        instances: 36,
        shards: 4,
        hours: 8.0,
        json: None,
        metrics: None,
        trace: None,
        journal: None,
        replay: false,
    };
    let args = parse_args(
        defaults,
        "BENCH_adaptive_fleet.json",
        "METRICS_adaptive_fleet.json",
        "TRACE_adaptive_fleet.json",
        "JOURNAL_adaptive_fleet",
    )
    .inspect_err(|_| {
        eprintln!(
            "usage: adaptive_fleet [--instances N] [--shards N] [--hours H] [--json [PATH]] \
                 [--metrics [PATH]] [--trace [PATH]]"
        );
    })?;
    if args.journal.is_some() {
        return Err("--journal: this example does not wire a journal; \
             see hetero_fleet for the durable-journal demonstration"
            .into());
    }

    // The training regime: slow leaks (N = 75) across a workload range.
    println!("training the shared M5P model on the slow-leak regime …");
    let training: Vec<Scenario> =
        [75u64, 100, 125].into_iter().map(|ebs| leaky(format!("train-{ebs}eb"), ebs, 75)).collect();
    let features = FeatureSet::exp42();
    let predictor = AgingPredictor::train(&training, features.clone(), 42)?;

    // The shift: a quarter into the horizon, every restart lands on an
    // aggressive leak (N = 15 at 150 EBs) the model has never seen.
    let before = leaky("slow-leak", 100, 75);
    let after = leaky("fast-leak", 150, 15);
    let shift_secs = args.hours * 3600.0 * 0.25;
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let specs: Vec<InstanceSpec> = (0..args.instances)
        .map(|i| InstanceSpec {
            name: format!("svc-{i:03}"),
            scenario: before.clone(),
            policy,
            seed: 5_000 + i as u64,
            shift: Some(WorkloadShift { after_secs: shift_secs, scenario: after.clone() }),
            class: Default::default(),
        })
        .collect();
    let config = FleetConfig {
        shards: args.shards,
        rejuvenation: RejuvenationConfig {
            horizon_secs: args.hours * 3600.0,
            ..Default::default()
        },
        counterfactual_horizon_secs: 3600.0,
    };
    println!(
        "{} deployments, {:.0} h horizon, workload shifts {:.0} h in\n",
        args.instances,
        args.hours,
        shift_secs / 3600.0
    );

    // Run 1: the frozen model rides out the shift.
    println!("── frozen model ──");
    let frozen_report = Fleet::new(specs.clone(), config)?.run_with_predictor(&predictor);
    println!("{frozen_report}\n");

    // Run 2: same fleet, same seeds, but the model is served by the
    // adaptation service: drift in the prediction errors triggers
    // retraining on the labelled crash epochs, and new generations are
    // hot-swapped into the epoch loop.
    println!("── adaptive service ──");
    let registry = args.metrics.as_ref().map(|_| Registry::shared());
    let recorder = args.trace.as_ref().map(|_| FlightRecorder::shared());
    let learner: Arc<dyn DynLearner> = Arc::new(M5pLearner::paper_default());
    let initial: Arc<dyn Regressor> = Arc::new(predictor.model().clone());
    let mut service_builder =
        AdaptiveService::builder(learner, features.variables().to_vec(), initial).config(
            AdaptConfig::builder()
                .drift(DriftConfig {
                    error_threshold_secs: 600.0,
                    min_observations: 40,
                    cooldown_observations: 120,
                    ..Default::default()
                })
                .buffer_capacity(2048)
                .min_buffer_to_retrain(120)
                .build(),
        );
    if let Some(registry) = &registry {
        service_builder = service_builder.telemetry(Arc::clone(registry));
    }
    if let Some(recorder) = &recorder {
        service_builder = service_builder.trace(Arc::clone(recorder));
    }
    let service = service_builder.spawn();
    let mut adaptive_fleet = Fleet::new(specs, config)?;
    if let Some(registry) = &registry {
        adaptive_fleet = adaptive_fleet.with_telemetry(Arc::clone(registry));
    }
    if let Some(recorder) = &recorder {
        adaptive_fleet = adaptive_fleet.with_trace(Arc::clone(recorder));
    }
    let mut adaptive_report = adaptive_fleet.run_adaptive(&service, &features);
    println!("{adaptive_report}\n");
    assert_eq!(
        adaptive_report.unpublished_checkpoints, 0,
        "every labelled batch must reach the adaptation side"
    );
    let stats = service.shutdown();
    assert_eq!(stats.rejected_rows, 0, "every labelled row must pass the ingest checks");
    // Re-snapshot after the shutdown drain so late refits are counted.
    if let Some(registry) = &registry {
        adaptive_report.telemetry = Some(registry.snapshot());
    }

    println!("── static vs adaptive ──");
    println!(
        "  mean TTF error     {:>8.0} s   →   {:>8.0} s  ({:.1}× lower)",
        frozen_report.mean_ttf_error_secs,
        adaptive_report.mean_ttf_error_secs,
        frozen_report.mean_ttf_error_secs / adaptive_report.mean_ttf_error_secs.max(1.0)
    );
    println!(
        "  crashes suffered   {:>8}     →   {:>8}",
        frozen_report.crashes, adaptive_report.crashes
    );
    println!(
        "  crashes avoided    {:>8}     →   {:>8}",
        frozen_report.crashes_avoided, adaptive_report.crashes_avoided
    );
    println!(
        "  availability       {:>8.4}     →   {:>8.4}",
        frozen_report.availability, adaptive_report.availability
    );
    println!(
        "  model generations  {} published over {} retrains ({} drift events, {} checkpoints ingested)",
        stats.generations_published,
        stats.retrains,
        stats.drift_events,
        stats.ingested_checkpoints
    );

    if let Some(path) = &args.metrics {
        write_metrics(path, adaptive_report.telemetry.as_ref().expect("registry attached"))?;
    }
    if let (Some(path), Some(recorder)) = (&args.trace, &recorder) {
        write_trace(path, recorder)?;
    }
    if let Some(path) = &args.json {
        let bench = AdaptiveBench { frozen: frozen_report, adaptive: adaptive_report };
        std::fs::write(path, serde_json::to_string_pretty(&bench)?)?;
        println!("\nwrote {path}");
    }
    Ok(())
}
