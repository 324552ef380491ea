//! Heterogeneous fleet: per-class adaptive model services under a shift
//! injected into one class only.
//!
//! Two service classes share one fleet: a "leak" class whose workload
//! shifts to an aggressive leak a quarter into the horizon, and a
//! "steady" class that never changes. A single global model would let the
//! shifted class drag the steady class's predictions around; the
//! [`AdaptiveRouter`] keeps one model service, drift monitor and sliding
//! buffer per class over a shared retrainer pool, so the shift retrains
//! the leak class alone — the steady class stays on generation 0 and its
//! outcomes are identical to a fleet that never contained the other class.
//!
//! ```text
//! cargo run --release --example hetero_fleet [-- --instances 24 \
//!     --shards 4 --hours 6 --json [PATH] --metrics [PATH] --trace [PATH] \
//!     --journal [DIR] --replay]
//! ```
//!
//! Two thirds of `--instances` form the shifting class, one third the
//! steady class. `--json` writes both reports (default path
//! `BENCH_hetero.json`); `--metrics` attaches one telemetry registry to
//! the routed run (fleet *and* router side), **asserts** the snapshot is
//! live — every shard's epoch-phase histograms non-empty, a shard-timing
//! summary naming the busiest shard and the scheduler's idle time,
//! refit-duration histograms and swap latency once a generation was
//! published, per-class shed counters summing to the router's drop
//! counter — and writes it (default path
//! `METRICS_hetero.json`); `--trace` attaches one flight recorder to the
//! routed run, **asserts** that every published generation resolves a
//! complete drift→trigger→refit→publish→swap causal chain through
//! [`Trace::causal_chain`], writes the Chrome trace-event JSON (default
//! path `TRACE_hetero.json`) and round-trips it through the same format
//! check CI applies (valid JSON, monotone seqs, resolvable parents).
//! `--journal` attaches a durable checkpoint journal to the routed run
//! (default directory `JOURNAL_hetero`): every batch is journalled
//! before it is buffered, so killing the process mid-run loses at most
//! one fsync window. `--replay` restores the adaptation state from that
//! journal before ingesting anything live — the crash-recovery restart;
//! CI SIGKILLs a `--journal` run and restarts it with `--replay` to
//! prove the journal survives a hard kill.
//!
//! [`Trace::causal_chain`]: software_aging::obs::Trace::causal_chain

use serde::Serialize;
use software_aging::adapt::{
    AdaptConfig, AdaptiveRouter, ClassSpec, DriftConfig, RouterConfig, ServiceClass,
};
use software_aging::core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use software_aging::fleet::{Fleet, FleetConfig, FleetReport, InstanceSpec, WorkloadShift};
use software_aging::journal::Journal;
use software_aging::ml::{LearnerKind, Regressor};
use software_aging::monitor::FeatureSet;
use software_aging::obs::{EventKind, FlightRecorder, Registry, Trace};
use software_aging::testbed::Scenario;
use std::sync::Arc;

mod common;
use common::{leaky, parse_args, write_metrics, write_trace, FleetArgs};

/// Both runs of the comparison, as written by `--json`.
#[derive(Debug, Serialize)]
struct HeteroBench {
    frozen: FleetReport,
    routed: FleetReport,
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

fn class_configs(
    features: &FeatureSet,
    drift_enabled: bool,
) -> Result<Vec<(ServiceClass, ClassSpec)>, Box<dyn std::error::Error>> {
    // Per-class initial models, each trained for its own regime.
    let leak_training: Vec<Scenario> =
        [75u64, 100, 125].into_iter().map(|ebs| leaky(format!("train-{ebs}eb"), ebs, 75)).collect();
    let leak_model: Arc<dyn Regressor> =
        Arc::new(AgingPredictor::train(&leak_training, features.clone(), 42)?.model().clone());
    let steady_model: Arc<dyn Regressor> = Arc::new(
        AgingPredictor::train(&[leaky("steady-train", 100, 45)], features.clone(), 42)?
            .model()
            .clone(),
    );
    let drift = |threshold: f64| {
        if drift_enabled {
            DriftConfig {
                error_threshold_secs: threshold,
                min_observations: 40,
                cooldown_observations: 120,
                ..Default::default()
            }
        } else {
            DriftConfig::disabled()
        }
    };
    let adapt = |threshold: f64| {
        AdaptConfig::builder()
            .drift(drift(threshold))
            .buffer_capacity(2048)
            .min_buffer_to_retrain(120)
            .build()
    };
    Ok(vec![
        (
            ServiceClass::new("leak"),
            ClassSpec::builder(LearnerKind::M5p.learner(), leak_model).config(adapt(600.0)).build(),
        ),
        (
            ServiceClass::new("steady"),
            ClassSpec::builder(LearnerKind::M5p.learner(), steady_model)
                .config(adapt(3600.0))
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
        "BENCH_hetero.json",
        "METRICS_hetero.json",
        "TRACE_hetero.json",
        "JOURNAL_hetero",
    )
    .inspect_err(|_| {
        eprintln!(
            "usage: hetero_fleet [--instances N] [--shards N] [--hours H] [--json [PATH]] \
                 [--metrics [PATH]] [--trace [PATH]] [--journal [DIR]] [--replay]"
        );
    })?;
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
         {:.0} h horizon)\n",
        args.hours
    );

    // Run 1: per-class frozen baseline (drift disabled — every class rides
    // out the shift on its generation-0 model).
    println!("── frozen per-class models ──");
    let frozen_router = AdaptiveRouter::builder(features.variables().to_vec())
        .classes(class_configs(&features, false)?)
        .config(RouterConfig::builder().retrainer_threads(2).build())
        .spawn();
    let frozen = Fleet::new(specs(n_leak, n_steady, horizon), config)?
        .run_routed(&frozen_router, &features)?;
    frozen_router.shutdown();
    println!("{frozen}\n");

    // Run 2: same fleet and seeds, class-routed adaptation live.
    println!("── class-routed adaptation ──");
    let registry = args.metrics.as_ref().map(|_| Registry::shared());
    let recorder = args.trace.as_ref().map(|_| FlightRecorder::shared());
    let journal = match &args.journal {
        Some(dir) => Some(Arc::new(Journal::open(dir)?)),
        None => None,
    };
    let mut router_builder = AdaptiveRouter::builder(features.variables().to_vec())
        .classes(class_configs(&features, true)?)
        .config(RouterConfig::builder().retrainer_threads(2).build());
    if let Some(registry) = &registry {
        router_builder = router_builder.telemetry(Arc::clone(registry));
    }
    if let Some(recorder) = &recorder {
        router_builder = router_builder.trace(Arc::clone(recorder));
    }
    if let Some(journal) = &journal {
        router_builder = router_builder.journal(Arc::clone(journal));
        if args.replay {
            router_builder = router_builder.replay();
        }
    }
    let router = router_builder.spawn();
    if args.replay {
        let stats = router.stats();
        let restored: u64 = stats.classes.iter().map(|c| c.stats.ingested_checkpoints).sum();
        println!("replayed journal: {restored} checkpoints restored before any live batch");
    }
    let mut routed_fleet = Fleet::new(specs(n_leak, n_steady, horizon), config)?;
    if let Some(registry) = &registry {
        routed_fleet = routed_fleet.with_telemetry(Arc::clone(registry));
    }
    if let Some(recorder) = &recorder {
        routed_fleet = routed_fleet.with_trace(Arc::clone(recorder));
    }
    if let Some(journal) = &journal {
        routed_fleet = routed_fleet.with_journal(Arc::clone(journal));
    }
    let routed = routed_fleet.run_routed(&router, &features)?;
    let stats = router.shutdown();
    println!("{routed}\n");
    assert_eq!(routed.rejected_rows(), 0, "every labelled row must pass the ingest checks");

    println!("── frozen vs routed, per class ──");
    for class in ["leak", "steady"] {
        let frozen_err = frozen.class_mean_ttf_error_secs(class);
        let routed_err = routed.class_mean_ttf_error_secs(class);
        let s = stats.class(&ServiceClass::new(class)).expect("registered class");
        println!(
            "  {class:<8} TTF error {frozen_err:>7.0} s → {routed_err:>7.0} s  \
             ({:.1}× lower)   gen {}  retrains {}  drift events {}",
            frozen_err / routed_err.max(1.0),
            s.generation,
            s.retrains,
            s.drift_events,
        );
    }
    println!(
        "  router: {} checkpoints ingested, {} dropped, {} unrouted",
        stats.ingested_checkpoints, stats.dropped_checkpoints, stats.unrouted_checkpoints
    );
    if let (Some(dir), Some(journal)) = (&args.journal, &journal) {
        journal.sync()?;
        assert_eq!(stats.journal_errors, 0, "the routed run must journal cleanly");
        let j = routed.journal.as_ref().expect("journal attached to the fleet");
        assert_eq!(j.append_errors, 0, "the fleet's own records must journal cleanly");
        println!(
            "  journal: {} records ({} fsyncs, {} rotations) in {dir}",
            j.appended_records, j.fsyncs, j.segment_rotations
        );
    }

    // The ISSUE 6 acceptance gate: the snapshot must show the run was
    // actually instrumented, not just that a registry existed.
    if let Some(path) = &args.metrics {
        let telemetry = routed.telemetry.as_ref().expect("registry attached");
        for phase in [
            "fleet_epoch_advance_seconds",
            "fleet_epoch_predict_seconds",
            "fleet_epoch_publish_seconds",
        ] {
            let series = telemetry.histogram_series(phase);
            assert!(
                series.len() == routed.shards && series.iter().all(|h| h.count > 0),
                "every shard records its {phase}"
            );
        }
        let timing = routed.shard_timing_summary().expect("telemetry attached");
        assert!(
            timing.contains("busiest shard") && timing.contains("worker idle"),
            "the shard-timing summary must name the busiest shard and the idle time: {timing}"
        );
        let generations: u64 = stats.classes.iter().map(|c| c.stats.generation).sum();
        let refits: u64 = telemetry
            .histogram_series("adapt_refit_duration_seconds")
            .iter()
            .map(|h| h.count)
            .sum();
        let swaps: u64 =
            telemetry.histogram_series("adapt_swap_latency_seconds").iter().map(|h| h.count).sum();
        if generations > 0 {
            assert!(refits > 0, "published generations imply recorded refit durations");
            assert!(swaps > 0, "published generations imply an observed pin swap");
        }
        let shed = telemetry.counter_total("adapt_bus_shed_checkpoints_total");
        assert_eq!(
            shed, stats.dropped_checkpoints,
            "per-class shed counters must sum to the router's drop counter"
        );
        println!(
            "telemetry: {} shards' epoch phases timed, {refits} refits timed, {swaps} swaps \
             observed, {shed} checkpoints shed",
            routed.shards
        );
        write_metrics(path, telemetry)?;
    }

    // The tracing acceptance gate: every generation a class published must
    // resolve a complete causal chain, and the Perfetto artifact must
    // survive the same format check CI applies.
    if let (Some(path), Some(recorder)) = (&args.trace, &recorder) {
        let trace = recorder.trace();
        let chains = assert_causal_chains(&trace);
        write_trace(path, recorder)?;
        check_chrome_format(&std::fs::read_to_string(path)?)
            .map_err(|e| format!("{path} failed the trace format check: {e}"))?;
        println!(
            "trace: {chains} publish chains resolved end to end, format check passed ({} events, \
             {} dropped)",
            trace.len(),
            recorder.dropped()
        );
    }

    if let Some(path) = &args.json {
        let bench = HeteroBench { frozen, routed };
        std::fs::write(path, serde_json::to_string_pretty(&bench)?)?;
        println!("\nwrote {path}");
    }
    Ok(())
}

/// Asserts that every [`EventKind::GenerationPublished`] in the trace
/// resolves a complete drift→trigger→refit→publish(→swap) chain through
/// [`Trace::causal_chain`]; returns the number of chains checked.
fn assert_causal_chains(trace: &Trace) -> usize {
    let mut chains = 0;
    for class in ["leak", "steady"] {
        for publish in trace.publishes(class) {
            let generation = publish.generation.expect("publishes carry a generation");
            let chain = trace.causal_chain(class, generation);
            let has = |pred: fn(&EventKind) -> bool| chain.iter().any(|e| pred(&e.kind));
            assert!(
                has(|k| matches!(
                    k,
                    EventKind::DriftObserved { .. } | EventKind::TriggerArmed { .. }
                )),
                "{class} gen {generation}: chain must root in a drift observation or an armed \
                 trigger: {chain:#?}"
            );
            assert!(
                has(|k| matches!(k, EventKind::TriggerFired { .. })),
                "{class} gen {generation}: chain must record the trigger firing: {chain:#?}"
            );
            assert!(
                has(|k| matches!(k, EventKind::RefitStarted { .. }))
                    && has(|k| matches!(k, EventKind::RefitFinished { ok: true })),
                "{class} gen {generation}: chain must span the refit: {chain:#?}"
            );
            // Swaps ride the epoch loop, so a generation superseded before
            // any shard pinned it (or published after the run) legitimately
            // has none — but when the trace holds a swap for this
            // generation, the chain must surface it.
            let swapped = trace.events.iter().any(|e| {
                matches!(e.kind, EventKind::SwapApplied)
                    && e.class.as_deref() == Some(class)
                    && e.generation == Some(generation)
            });
            assert!(
                !swapped || has(|k| matches!(k, EventKind::SwapApplied)),
                "{class} gen {generation}: the shard swap must parent on the publish: {chain:#?}"
            );
            chains += 1;
        }
    }
    chains
}

/// The CI trace-format check, inline: the artifact is valid Chrome
/// trace-event JSON, seqs are monotone in file order and every non-root
/// parent resolves to an already-seen seq.
fn check_chrome_format(text: &str) -> Result<(), String> {
    let root = serde::parse_value(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let entries = root
        .as_obj()
        .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents"))
        .and_then(|(_, v)| match v {
            serde::Value::Arr(entries) => Some(entries),
            _ => None,
        })
        .ok_or("missing traceEvents array")?;
    let field = |entry: &serde::Value, name: &str| -> Option<serde::Value> {
        entry.as_obj()?.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    };
    let mut seen = std::collections::HashSet::new();
    let mut last_seq = None;
    for entry in entries {
        let Some(serde::Value::Str(ph)) = field(entry, "ph") else {
            return Err("entry without ph".into());
        };
        if ph == "M" {
            continue;
        }
        let args = field(entry, "args").ok_or("event without args")?;
        let Some(serde::Value::U64(seq)) = field(&args, "seq") else {
            return Err("event without args.seq".into());
        };
        if last_seq.is_some_and(|last| seq <= last) {
            return Err(format!("seq {seq} out of order"));
        }
        if let Some(serde::Value::U64(parent)) = field(&args, "parent") {
            if !seen.contains(&parent) {
                return Err(format!("seq {seq} parents on unseen {parent}"));
            }
        }
        seen.insert(seq);
        last_seq = Some(seq);
    }
    Ok(())
}
