//! Self-optimising policy search: the fleet tunes its own rejuvenation
//! policies by counterfactual replay of its checkpoint journal.
//!
//! Three phases:
//!
//! 1. **Record** — a journalled two-class routed run operates under a
//!    deliberately *detuned* policy: drift detection off, no retrain
//!    schedule, so the shifting "leak" class rides out its workload shift
//!    on a stale generation-0 model while every batch lands in the
//!    journal.
//! 2. **Search** — an offline [`Tuner::search`] replays that journal
//!    under ALNS-generated candidate policies
//!    ([`replay_scored`](software_aging::adapt::replay::replay_scored)
//!    re-predicts every row from the candidate's own evolving model), and
//!    the promotion gate checks the winner beats the detuned incumbent by
//!    the configured margin. The example **asserts** the winner cuts the
//!    leak class's replayed mean TTF error by ≥ 20 % and that the search
//!    is bit-reproducible for a fixed seed, then writes the full search
//!    trajectory as `TUNE_tuned.json` — CI validates it with
//!    `check_tune` (monotone best-objective trajectory, every promotion
//!    beats the margin).
//! 3. **Go live** — the same fleet runs again with a
//!    [`FleetTuner`] attached ([`Fleet::with_tuner`]): a background
//!    thread searches off the live journal while the fleet runs and
//!    publishes every gate-approved promotion into the router via
//!    `apply_spec`, re-configuring the running system mid-flight. The
//!    report's `tuning` block records what the tuner did.
//!
//! ```text
//! cargo run --release --example tuned_fleet [-- --instances 12 \
//!     --shards 4 --hours 4 --json [PATH] --metrics [PATH] \
//!     --trace [PATH] --journal [DIR]]
//! ```

use serde::Serialize;
use software_aging::adapt::{AdaptiveRouter, RouterConfig, ServiceClass};
use software_aging::core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use software_aging::fleet::{Fleet, FleetConfig, FleetReport, InstanceSpec, WorkloadShift};
use software_aging::journal::Journal;
use software_aging::ml::Regressor;
use software_aging::monitor::FeatureSet;
use software_aging::obs::{FlightRecorder, Registry};
use software_aging::tune::{
    CandidateRecord, Evaluator, FleetTuner, PolicyPoint, SearchOutcome, TuneConfig, TunedClass,
    Tuner,
};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{leaky, parse_args, write_metrics, write_trace, FleetArgs};

/// Path of the machine-readable search-trajectory artifact CI validates
/// with `check_tune`.
const TUNE_ARTIFACT: &str = "TUNE_tuned.json";

/// Both runs of the comparison, as written by `--json`.
#[derive(Debug, Serialize)]
struct TunedBench {
    detuned: FleetReport,
    tuned: FleetReport,
}

/// The `TUNE_*.json` artifact: one search trajectory per class plus the
/// gate margin every promotion must beat.
#[derive(Debug, Serialize)]
struct TuneArtifact {
    min_improvement: f64,
    classes: Vec<ClassArtifact>,
}

#[derive(Debug, Serialize)]
struct ClassArtifact {
    class: String,
    incumbent_objective_secs: Option<f64>,
    best_objective_secs: Option<f64>,
    improvement: Option<f64>,
    promoted: bool,
    candidates: Vec<CandidateRecord>,
    promotions: Vec<PromotionArtifact>,
}

#[derive(Debug, Serialize)]
struct PromotionArtifact {
    incumbent_objective_secs: Option<f64>,
    candidate_objective_secs: Option<f64>,
}

fn specs(n_leak: usize, n_steady: usize, horizon_secs: f64) -> Vec<InstanceSpec> {
    let before = leaky("slow-leak", 100, 75);
    let after = leaky("fast-leak", 150, 15);
    let steady = leaky("steady-leak", 100, 30);
    // Predictive with a deliberately low trigger: every checkpoint is
    // predicted (labelled data only flows from predicted checkpoints),
    // but the threshold sits far below what the models forecast, so
    // epochs end in crashes that label their full checkpoint history —
    // a dense ground-truth stream for the journal and the search.
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 30.0, consecutive: 4 };
    let leak_class = (0..n_leak).map(move |i| InstanceSpec {
        name: format!("leak-{i:03}"),
        scenario: before.clone(),
        policy,
        seed: 5_000 + i as u64,
        // Early shift: most of the journal records the post-shift regime
        // the stale model mispredicts — the signal the search must find.
        shift: Some(WorkloadShift { after_secs: horizon_secs * 0.15, scenario: after.clone() }),
        class: ServiceClass::new("leak"),
    });
    let steady_class = (0..n_steady).map(move |i| {
        InstanceSpec::new(format!("steady-{i:03}"), steady.clone(), policy, 9_000 + i as u64)
            .with_class("steady")
    });
    leak_class.chain(steady_class).collect()
}

/// The (leak, steady) generation-0 model pair.
type InitialModels = (Arc<dyn Regressor>, Arc<dyn Regressor>);

/// Per-class generation-0 models: the leak model is trained on pre-shift
/// regimes only (it goes stale the moment the shift hits), the steady
/// model on its own static regime.
fn initial_models(features: &FeatureSet) -> Result<InitialModels, Box<dyn std::error::Error>> {
    let leak_training: Vec<_> =
        [75u64, 100, 125].into_iter().map(|ebs| leaky(format!("train-{ebs}eb"), ebs, 75)).collect();
    let leak: Arc<dyn Regressor> =
        Arc::new(AgingPredictor::train(&leak_training, features.clone(), 42)?.model().clone());
    let steady: Arc<dyn Regressor> = Arc::new(
        AgingPredictor::train(&[leaky("steady-train", 100, 45)], features.clone(), 42)?
            .model()
            .clone(),
    );
    Ok((leak, steady))
}

/// The deliberately detuned incumbent: no drift detection, no retrain
/// schedule — the class never adapts, whatever the journal shows.
fn detuned_point() -> PolicyPoint {
    PolicyPoint { drift_enabled: false, retrain_every: None, ..PolicyPoint::default() }
}

fn class_artifact(class: &str, outcome: &SearchOutcome) -> ClassArtifact {
    ClassArtifact {
        class: class.to_string(),
        incumbent_objective_secs: outcome.incumbent_objective_secs,
        best_objective_secs: outcome.best_objective_secs,
        improvement: outcome.improvement,
        promoted: outcome.promoted,
        candidates: outcome.candidates.clone(),
        promotions: if outcome.promoted {
            vec![PromotionArtifact {
                incumbent_objective_secs: outcome.incumbent_objective_secs,
                candidate_objective_secs: outcome.best_objective_secs,
            }]
        } else {
            Vec::new()
        },
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let defaults = FleetArgs {
        instances: 12,
        shards: 4,
        hours: 4.0,
        json: None,
        metrics: None,
        trace: None,
        journal: None,
        replay: false,
    };
    let args = parse_args(
        defaults,
        "BENCH_tuned.json",
        "METRICS_tuned.json",
        "TRACE_tuned.json",
        "JOURNAL_tuned",
    )
    .inspect_err(|_| {
        eprintln!(
            "usage: tuned_fleet [--instances N] [--shards N] [--hours H] [--json [PATH]] \
                 [--metrics [PATH]] [--trace [PATH]] [--journal [DIR]]"
        );
    })?;
    let journal_dir = args.journal.clone().unwrap_or_else(|| "JOURNAL_tuned".to_string());
    let n_leak = (args.instances * 2 / 3).max(1);
    let n_steady = (args.instances - n_leak).max(1);
    let horizon = args.hours * 3600.0;
    let features = FeatureSet::exp42();
    let feature_names = features.variables().to_vec();
    let config = FleetConfig {
        shards: args.shards,
        rejuvenation: RejuvenationConfig { horizon_secs: horizon, ..Default::default() },
        counterfactual_horizon_secs: 3600.0,
    };
    let (leak_model, steady_model) = initial_models(&features)?;
    let leak = ServiceClass::new("leak");
    let steady = ServiceClass::new("steady");
    let detuned = detuned_point();

    // ── Phase 1: record a journalled run under the detuned policy ──
    // Fresh journal: the search must score exactly this run's stream.
    let _ = std::fs::remove_dir_all(&journal_dir);
    println!(
        "── phase 1: journalled detuned run ({n_leak} shifting + {n_steady} steady \
         deployments, {:.0} h horizon) ──",
        args.hours
    );
    let journal = Arc::new(Journal::open(&journal_dir)?);
    let recording_router = AdaptiveRouter::builder(feature_names.clone())
        .class(leak.clone(), detuned.to_spec(Arc::clone(&leak_model)))
        .class(steady.clone(), detuned.to_spec(Arc::clone(&steady_model)))
        .config(RouterConfig::builder().retrainer_threads(2).build())
        .journal(Arc::clone(&journal))
        .spawn();
    let detuned_report = Fleet::new(specs(n_leak, n_steady, horizon), config)?
        .with_journal(Arc::clone(&journal))
        .run_routed(&recording_router, &features)?;
    let recording_stats = recording_router.shutdown();
    journal.sync()?;
    assert_eq!(recording_stats.journal_errors, 0, "the recording run must journal cleanly");
    assert_eq!(
        detuned_report.journal.expect("journal attached").append_errors,
        0,
        "the recording fleet's own records must journal cleanly"
    );
    assert_eq!(
        recording_stats.generations_published, 0,
        "the detuned policy must never retrain — that is the point"
    );
    println!("{detuned_report}\n");

    // ── Phase 2: offline search over the recorded journal ──
    println!("── phase 2: ALNS policy search by counterfactual replay ──");
    let tune_config =
        TuneConfig { seed: 42, candidates: 16, retrain_penalty_secs: 5.0, ..TuneConfig::default() };
    let tuner = Tuner::new(tune_config.clone());
    let mut artifact =
        TuneArtifact { min_improvement: tune_config.gate.min_improvement, classes: Vec::new() };
    let mut leak_outcome = None;
    for (class, initial) in
        [(leak.clone(), Arc::clone(&leak_model)), (steady.clone(), Arc::clone(&steady_model))]
    {
        let evaluator = Evaluator::new(&journal_dir, feature_names.clone(), class.clone(), initial)
            .retrain_penalty_secs(tune_config.retrain_penalty_secs);
        let outcome = tuner.search(&evaluator, &detuned)?;
        println!(
            "  {class:<8} incumbent {} s → best {} s  improvement {}  promoted {}  \
             ({} candidates, {} accepted)",
            fmt_opt(outcome.incumbent_objective_secs),
            fmt_opt(outcome.best_objective_secs),
            match outcome.improvement {
                Some(i) => format!("{:.1} %", i * 100.0),
                None => "n/a".into(),
            },
            outcome.promoted,
            outcome.candidates.len(),
            outcome.accepted,
        );
        // Bit-reproducibility: the same seed over the same journal and
        // incumbent must retrace the identical search.
        let again = tuner.search(&evaluator, &detuned)?;
        assert_eq!(outcome, again, "{class}: fixed-seed searches must be bit-identical");
        artifact.classes.push(class_artifact(class.as_str(), &outcome));
        if class == leak {
            leak_outcome = Some(outcome);
        }
    }
    let leak_outcome = leak_outcome.expect("leak class searched");
    // The acceptance gate: the search must find (and the gate promote) a
    // policy whose replayed objective beats the detuned incumbent by
    // ≥ 20 % — retraining beats never-retraining on a shifted stream.
    assert!(leak_outcome.promoted, "the leak winner must clear the promotion gate");
    let improvement = leak_outcome.improvement.expect("both objectives finite");
    assert!(
        improvement >= 0.20,
        "the leak winner must beat the detuned incumbent by ≥ 20 %, got {:.1} %",
        improvement * 100.0
    );
    std::fs::write(TUNE_ARTIFACT, serde_json::to_string_pretty(&artifact)?)?;
    println!("  wrote {TUNE_ARTIFACT}\n");

    // ── Phase 3: the same fleet, tuning itself live ──
    println!("── phase 3: live run with the tuner attached ──");
    let registry = args.metrics.as_ref().map(|_| Registry::shared());
    let recorder = args.trace.as_ref().map(|_| FlightRecorder::shared());
    let live_journal = Arc::new(Journal::open(&journal_dir)?);
    let mut router_builder = AdaptiveRouter::builder(feature_names.clone())
        .class(leak.clone(), detuned.to_spec(Arc::clone(&leak_model)))
        .class(steady.clone(), detuned.to_spec(Arc::clone(&steady_model)))
        .config(RouterConfig::builder().retrainer_threads(2).build())
        .journal(Arc::clone(&live_journal));
    if let Some(registry) = &registry {
        router_builder = router_builder.telemetry(Arc::clone(registry));
    }
    if let Some(recorder) = &recorder {
        router_builder = router_builder.trace(Arc::clone(recorder));
    }
    let router = router_builder.spawn();
    let fleet_tuner = FleetTuner::new(
        &journal_dir,
        feature_names.clone(),
        tune_config.clone(),
        vec![
            TunedClass {
                class: leak.clone(),
                incumbent: detuned.clone(),
                initial: Arc::clone(&leak_model),
            },
            TunedClass {
                class: steady.clone(),
                incumbent: detuned.clone(),
                initial: Arc::clone(&steady_model),
            },
        ],
    );
    let mut tuned_fleet = Fleet::new(specs(n_leak, n_steady, horizon), config)?
        .with_journal(Arc::clone(&live_journal))
        .with_tuner(fleet_tuner);
    if let Some(registry) = &registry {
        tuned_fleet = tuned_fleet.with_telemetry(Arc::clone(registry));
    }
    if let Some(recorder) = &recorder {
        tuned_fleet = tuned_fleet.with_trace(Arc::clone(recorder));
    }
    let mut tuned_report = tuned_fleet.run_routed(&router, &features)?;
    if !router.quiesce(Duration::from_secs(30)) {
        return Err("the router did not settle within 30 s; its counters are not final".into());
    }
    let live_stats = router.shutdown();
    tuned_report.routing = Some(live_stats.clone());
    if let Some(registry) = &registry {
        tuned_report.telemetry = Some(registry.snapshot());
    }
    println!("{tuned_report}\n");
    assert_eq!(
        tuned_report.unpublished_checkpoints, 0,
        "every labelled batch must reach the adaptation side"
    );
    assert_eq!(tuned_report.rejected_rows(), 0, "every labelled row must pass the ingest checks");
    assert_eq!(
        tuned_report.journal.expect("journal attached").append_errors,
        0,
        "the live fleet's own records must journal cleanly"
    );

    let tuning = tuned_report.tuning.as_ref().expect("a tuner was attached");
    println!(
        "policy search: {} rounds, {} candidates, {} promotions, {} spec swaps applied live",
        tuning.rounds, tuning.candidates, tuning.promotions, live_stats.applied_specs
    );
    // Live promotions land as router spec swaps, one per promotion.
    assert_eq!(
        live_stats.applied_specs, tuning.promotions,
        "every promotion must reach the router as a spec swap"
    );
    assert_eq!(tuning.failed_rounds, 0, "every live search round must read the journal");
    assert_eq!(tuning.failed_promotions, 0, "the router must accept every promotion");
    for class in [&leak, &steady] {
        let detuned_err = detuned_report.class_mean_ttf_error_secs(class.as_str());
        let tuned_err = tuned_report.class_mean_ttf_error_secs(class.as_str());
        println!(
            "  {class:<8} TTF error {detuned_err:>7.0} s detuned → {tuned_err:>7.0} s under live \
             tuning"
        );
    }

    if let Some(path) = &args.metrics {
        let telemetry = tuned_report.telemetry.as_ref().expect("registry attached");
        if tuning.rounds > 0 {
            assert!(
                telemetry.counter_total("tune_rounds_total") == tuning.rounds,
                "tune_rounds_total must match the report's round count"
            );
        }
        write_metrics(path, telemetry)?;
    }
    if let (Some(path), Some(recorder)) = (&args.trace, &recorder) {
        write_trace(path, recorder)?;
    }
    if let Some(path) = &args.json {
        let bench = TunedBench { detuned: detuned_report, tuned: tuned_report };
        std::fs::write(path, serde_json::to_string_pretty(&bench)?)?;
        println!("\nwrote {path}");
    }
    Ok(())
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(secs) => format!("{secs:.0}"),
        None => "∞".into(),
    }
}
