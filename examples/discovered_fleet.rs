//! Automatic class discovery: a fleet with **zero operator-assigned
//! classes** recovers the partition a human would have labelled — and
//! matches the hand-labelled run's per-class accuracy.
//!
//! Two regimes share one fleet: `shift-*` deployments move to an
//! aggressive leak a quarter into the horizon, `steady-*` deployments
//! never change. The baseline run is the `hetero_fleet` configuration —
//! an operator assigned every instance to `leak` or `steady`, trained a
//! model per class and hand-picked per-class drift thresholds. The
//! discovered run gets none of that: one seed class, one blended model,
//! one shared template config. [`Fleet::run_discovered`] summarises every
//! instance's labelled-checkpoint stream into an aging signature, splits
//! the fleet when the silhouette and separation gates clear, spawns a
//! fresh adaptation pipeline for the new class, and re-routes instances
//! at epoch boundaries.
//!
//! ```text
//! cargo run --release --example discovered_fleet [-- --instances 15 \
//!     --shards 4 --hours 6 --json [PATH] --metrics [PATH] --trace [PATH]]
//! ```
//!
//! Two thirds of `--instances` form the shifting group, one third the
//! steady group. `--json` writes both reports (default path
//! `BENCH_discovered.json`); `--metrics` attaches a telemetry registry to
//! the discovered run — [`Fleet::run_discovered`] wires its internal
//! router and discovery engine automatically — and writes its snapshot
//! (default path `METRICS_discovered.json`); `--trace` attaches a flight
//! recorder the same way and writes its Chrome trace-event JSON (default
//! path `TRACE_discovered.json`) — discovery evaluations, class splits and
//! instance reassignments appear as causally linked instants.
//!
//! The run **asserts** the ISSUE 5 acceptance criteria: the discovered
//! partition is pure, its per-class mean TTF error is within 1.25× the
//! hand-labelled baseline, and the steady class's adaptation is never
//! retriggered once discovery has separated it from the shifted class.

use serde::Serialize;
use software_aging::adapt::discovery::{DiscoveryConfig, SignatureConfig};
use software_aging::adapt::{
    AdaptConfig, AdaptiveRouter, ClassSpec, DriftConfig, RouterConfig, ServiceClass,
};
use software_aging::core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use software_aging::fleet::{
    DiscoverySetup, Fleet, FleetConfig, FleetReport, InstanceSpec, WorkloadShift,
};
use software_aging::journal::Journal;
use software_aging::ml::{LearnerKind, Regressor};
use software_aging::monitor::FeatureSet;
use software_aging::obs::{FlightRecorder, Registry};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{leaky, parse_args, write_metrics, write_trace, FleetArgs};

/// Both runs of the comparison, as written by `--json`.
#[derive(Debug, Serialize)]
struct DiscoveredBench {
    hand_labelled: FleetReport,
    discovered: FleetReport,
}

const POLICY: RejuvenationPolicy =
    RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };

/// The fleet, optionally hand-labelled: both runs operate byte-identical
/// specs except for the `class` field — the discovered run must earn the
/// partition the operator writes down for free.
fn specs(n_shift: usize, n_steady: usize, horizon_secs: f64, labelled: bool) -> Vec<InstanceSpec> {
    let before = leaky("steady-leak", 100, 30);
    let after = leaky("fast-leak", 300, 5);
    let steady = leaky("steady-leak", 100, 30);
    let class = |name: &str| {
        if labelled {
            ServiceClass::new(name)
        } else {
            ServiceClass::default()
        }
    };
    let shifting = (0..n_shift).map({
        let class = class("leak");
        move |i| InstanceSpec {
            name: format!("shift-{i:03}"),
            scenario: before.clone(),
            policy: POLICY,
            seed: 5_000 + i as u64,
            shift: Some(WorkloadShift { after_secs: horizon_secs * 0.25, scenario: after.clone() }),
            class: class.clone(),
        }
    });
    let steady_class = class("steady");
    let steady = (0..n_steady).map(move |i| {
        let mut spec =
            InstanceSpec::new(format!("steady-{i:03}"), steady.clone(), POLICY, 9_000 + i as u64);
        spec.class = steady_class.clone();
        spec
    });
    shifting.chain(steady).collect()
}

fn train(
    features: &FeatureSet,
    scenarios: &[software_aging::testbed::Scenario],
) -> Arc<dyn Regressor> {
    Arc::new(
        AgingPredictor::train(scenarios, features.clone(), 42)
            .expect("training scenarios crash")
            .model()
            .clone(),
    )
}

/// Mean TTF error over the instances of one *true* regime (by name
/// prefix) — the comparison axis that exists in both runs regardless of
/// how classes were assigned.
fn regime_error(report: &FleetReport, prefix: &str) -> f64 {
    let (sum, count) = report
        .instances
        .iter()
        .filter(|i| i.name.starts_with(prefix))
        .fold((0.0, 0u64), |(s, c), i| (s + i.ttf_error_sum_secs, c + i.ttf_error_count));
    if count > 0 {
        sum / count as f64
    } else {
        0.0
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let defaults = FleetArgs {
        instances: 15,
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
        "BENCH_discovered.json",
        "METRICS_discovered.json",
        "TRACE_discovered.json",
        "JOURNAL_discovered",
    )
    .inspect_err(|_| {
        eprintln!(
            "usage: discovered_fleet [--instances N] [--shards N] [--hours H] \
                 [--json [PATH]] [--metrics [PATH]] [--trace [PATH]] [--journal [DIR]]"
        );
    })?;
    if args.replay {
        return Err("--replay: a discovered run registers its classes dynamically; \
             replay its journal offline with `aging_adapt::replay` instead"
            .into());
    }
    let n_shift = (args.instances * 2 / 3).max(1);
    let n_steady = (args.instances - n_shift).max(1);
    let horizon = args.hours * 3600.0;
    let features = FeatureSet::exp42();
    let config = FleetConfig {
        shards: args.shards,
        rejuvenation: RejuvenationConfig { horizon_secs: horizon, ..Default::default() },
        counterfactual_horizon_secs: 3600.0,
    };
    println!(
        "training models … ({n_shift} shifting + {n_steady} steady deployments, \
         {:.0} h horizon)\n",
        args.hours
    );

    // ── Run 1: the hand-labelled baseline — operator classes, per-class
    // models, per-class hand-picked thresholds (the hetero_fleet recipe).
    // Both classes pre-shift run the same N = 30 regime, so the operator
    // trains both class models on that regime's history; the leak class's
    // post-shift recovery comes from its adaptation pipeline, not a
    // prescient training set.
    let leak_model = train(&features, &[leaky("train-30", 100, 30), leaky("train-125", 125, 30)]);
    let steady_model = train(&features, &[leaky("train-30", 100, 30), leaky("train-125", 125, 30)]);
    let hand_adapt = |threshold: f64| {
        AdaptConfig::builder()
            .drift(DriftConfig {
                error_threshold_secs: threshold,
                min_observations: 40,
                cooldown_observations: 120,
                ..Default::default()
            })
            .buffer_capacity(2048)
            .min_buffer_to_retrain(120)
            .build()
    };
    println!("── hand-labelled classes, per-class adaptation ──");
    let router = AdaptiveRouter::builder(features.variables().to_vec())
        .class(
            ServiceClass::new("leak"),
            ClassSpec::builder(LearnerKind::M5p.learner(), leak_model)
                .config(hand_adapt(600.0))
                .build(),
        )
        .class(
            ServiceClass::new("steady"),
            ClassSpec::builder(LearnerKind::M5p.learner(), steady_model)
                .config(hand_adapt(3600.0))
                .build(),
        )
        .config(RouterConfig::builder().retrainer_threads(2).build())
        .spawn();
    let mut hand_labelled = Fleet::new(specs(n_shift, n_steady, horizon, true), config)?
        .run_routed(&router, &features)?;
    if !router.quiesce(Duration::from_secs(30)) {
        return Err("the router did not settle within 30 s; its counters are not final".into());
    }
    hand_labelled.routing = Some(router.shutdown());
    println!("{hand_labelled}\n");

    // ── Run 2: zero operator classes — one blended model, one shared
    // template, the partition discovered from the aging signatures.
    println!("── automatic class discovery (no operator classes) ──");
    let blended_model =
        train(&features, &[leaky("train-30", 100, 30), leaky("train-125", 125, 30)]);
    let template = ClassSpec::builder(LearnerKind::M5p.learner(), blended_model)
        .config(hand_adapt(900.0)) // the shared default — not tuned per class
        .build();
    let setup = DiscoverySetup {
        router: RouterConfig::builder().retrainer_threads(2).build(),
        discovery: DiscoveryConfig { seed: 7, ..Default::default() },
        signature: SignatureConfig::default(),
        reassess_every_epochs: 60,
        ..DiscoverySetup::new(template)
    };
    let registry = args.metrics.as_ref().map(|_| Registry::shared());
    let recorder = args.trace.as_ref().map(|_| FlightRecorder::shared());
    let journal = match &args.journal {
        Some(dir) => Some(Arc::new(Journal::open(dir)?)),
        None => None,
    };
    let mut discovered_fleet = Fleet::new(specs(n_shift, n_steady, horizon, false), config)?;
    if let Some(registry) = &registry {
        discovered_fleet = discovered_fleet.with_telemetry(Arc::clone(registry));
    }
    if let Some(recorder) = &recorder {
        discovered_fleet = discovered_fleet.with_trace(Arc::clone(recorder));
    }
    if let Some(journal) = &journal {
        discovered_fleet = discovered_fleet.with_journal(Arc::clone(journal));
    }
    let discovered = discovered_fleet.run_discovered(&setup, &features)?;
    println!("{discovered}\n");
    assert_eq!(
        discovered.unpublished_checkpoints, 0,
        "every labelled batch must reach the adaptation side"
    );
    if discovered.quiesced == Some(false) {
        return Err("the discovered run's router did not settle; its counters are not final".into());
    }
    assert_eq!(discovered.rejected_rows(), 0, "every labelled row must pass the ingest checks");
    if let (Some(dir), Some(journal)) = (&args.journal, &journal) {
        journal.sync()?;
        let stats = discovered.journal.as_ref().expect("journal attached");
        assert_eq!(stats.append_errors, 0, "every discovery partition must journal cleanly");
        println!(
            "journal: {} records ({} fsyncs, {} rotations) in {dir}\n",
            stats.appended_records, stats.fsyncs, stats.segment_rotations
        );
    }

    // ── Comparison + ISSUE 5 acceptance ──
    println!("── hand-labelled vs discovered, per regime ──");
    let mut worst_ratio: f64 = 0.0;
    for (regime, prefix) in [("shifting", "shift-"), ("steady", "steady-")] {
        let hand = regime_error(&hand_labelled, prefix);
        let disc = regime_error(&discovered, prefix);
        let ratio = disc / hand.max(1.0);
        worst_ratio = worst_ratio.max(ratio);
        println!(
            "  {regime:<9} TTF error {hand:>7.0} s (hand-labelled) vs {disc:>7.0} s \
             (discovered)  = {ratio:.2}×"
        );
    }
    let discovery = discovered.discovery.as_ref().expect("discovered runs carry a partition");
    println!(
        "  partition: {} evaluations, {} splits, {} merges, {} reassignments",
        discovery.evaluations, discovery.splits, discovery.merges, discovery.reassignments
    );
    println!("── discovery timeline ──");
    for e in &discovery.evaluations_log {
        println!(
            "  epoch {:>5}  ready {:>3}  classes {}  silhouette {:>5.2}  reassigned {:>3}{}{}",
            e.epoch,
            e.ready_instances,
            e.active_classes,
            e.silhouette,
            e.reassignments,
            if e.new_classes.is_empty() {
                String::new()
            } else {
                format!("  +{:?}", e.new_classes)
            },
            if e.retired_classes.is_empty() {
                String::new()
            } else {
                format!("  -{:?}", e.retired_classes)
            },
        );
    }

    // 1. The partition is pure: no discovered class mixes the regimes.
    let steady_class = discovered
        .instances
        .iter()
        .find(|i| i.name.starts_with("steady-"))
        .map(|i| i.class.clone())
        .expect("steady instances exist");
    for instance in &discovered.instances {
        let expected_steady = instance.name.starts_with("steady-");
        let in_steady_class = instance.class == steady_class;
        assert_eq!(
            expected_steady, in_steady_class,
            "impure partition: {} landed in {}",
            instance.name, instance.class
        );
    }
    println!("  partition is pure: steady class = {steady_class}");

    // 2. Accuracy within 1.25× of the hand-labelled baseline, per class.
    assert!(
        worst_ratio <= 1.25,
        "discovered per-class error must stay within 1.25× of the hand-labelled \
         baseline, worst ratio {worst_ratio:.2}×"
    );

    // 3. Once discovery separated the classes, the shifted class's
    // continued drifting never retriggers the steady class: its drift
    // count is flat from the first post-split evaluation to the end of
    // the run. (The first post-split entry is the anchor — the split
    // evaluation itself can still race bus stragglers published before
    // the re-routing.)
    let split_idx = discovery
        .evaluations_log
        .iter()
        .position(|e| !e.new_classes.is_empty())
        .expect("the two regimes must have split");
    let drift_of = |entry: &software_aging::fleet::DiscoveryReport, idx: usize| -> Option<u64> {
        entry.evaluations_log[idx]
            .class_drift_events
            .iter()
            .find(|(class, _)| *class == steady_class)
            .map(|(_, events)| *events)
    };
    if let Some(anchor_idx) =
        (split_idx + 1 < discovery.evaluations_log.len()).then_some(split_idx + 1)
    {
        let anchor = drift_of(discovery, anchor_idx).unwrap_or(0);
        let last = drift_of(discovery, discovery.evaluations_log.len() - 1).unwrap_or(0);
        assert_eq!(
            anchor, last,
            "the steady class drifted after the split — the shifted class must not \
             retrigger it (log: {:?})",
            discovery.evaluations_log
        );
        println!(
            "  steady class quiet after the split: drift events {last} at evaluation \
             {anchor_idx} and at the end alike"
        );
    }

    if let Some(path) = &args.metrics {
        write_metrics(path, discovered.telemetry.as_ref().expect("registry attached"))?;
    }
    if let (Some(path), Some(recorder)) = (&args.trace, &recorder) {
        write_trace(path, recorder)?;
    }
    if let Some(path) = &args.json {
        let bench = DiscoveredBench { hand_labelled, discovered };
        std::fs::write(path, serde_json::to_string_pretty(&bench)?)?;
        println!("\nwrote {path}");
    }
    Ok(())
}
