//! Elastic fleet: instance churn on the epoch scheduler, adaptive vs
//! frozen under a mid-run workload shift.
//!
//! One "web" service class starts with a founding roster, then the fleet
//! churns while it runs: scripted late joiners enter a third into the
//! horizon, founders are force-retired at the halfway mark, and an
//! autoscale rule tops the live population back up to its floor from a
//! pool of spare clones. With a churn plan attached, the epoch scheduler
//! lets shards advance independently between leader boundaries instead
//! of epoch by epoch — and a workload shift a quarter in gives the
//! adaptive run something to adapt to: the frozen baseline rides out the
//! shift (and every membership change) on its generation-0 model, the
//! adaptive run retrains and must land a lower fleet-wide TTF error.
//!
//! ```text
//! cargo run --release --example elastic_fleet [-- --instances 18 \
//!     --shards 3 --hours 6 --json [PATH] --metrics [PATH] --trace [PATH] \
//!     --journal [DIR] --replay]
//! ```
//!
//! `--json` writes both reports (default `BENCH_elastic.json`).
//! `--metrics` attaches one telemetry registry to the adaptive run and
//! **asserts** the elastic instruments are live — the
//! `fleet_instances_live` gauge settled on the report's final population,
//! a non-empty `fleet_scheduler_queue_depth` histogram, one
//! `fleet_leader_step_seconds` sample per leader step — before writing
//! the snapshot (default `METRICS_elastic.json`). `--trace` attaches a
//! flight recorder and **asserts** the membership events are causally
//! wired: every scripted join surfaces as an `InstanceJoined` parented on
//! its shard's `EpochScheduled` event, every scripted retire as a forced
//! `InstanceRetired` (default `TRACE_elastic.json`). `--journal` journals
//! every membership change *and* checkpoint batch durably
//! (default directory `JOURNAL_elastic`); `--replay` restores both halves
//! before ingesting anything live — the adaptation state through the
//! router's replay, the roster through
//! [`MembershipFold`](software_aging::journal::MembershipFold) — and
//! prints the restored live membership and its digest. CI SIGKILLs a
//! `--journal` run mid-flight and restarts it with `--replay` to prove a
//! hard kill loses neither half.

use serde::Serialize;
use software_aging::adapt::{
    AdaptConfig, AdaptiveRouter, ClassSpec, DriftConfig, RouterConfig, ServiceClass,
};
use software_aging::core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use software_aging::fleet::{
    AutoscaleRule, ChurnPlan, Fleet, FleetConfig, FleetReport, InstanceSpec, WorkloadShift,
};
use software_aging::journal::{Journal, MembershipFold};
use software_aging::ml::{LearnerKind, Regressor};
use software_aging::monitor::FeatureSet;
use software_aging::obs::{EventKind, FlightRecorder, Registry};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{leaky, parse_args, write_metrics, write_trace, FleetArgs};

/// Both runs of the comparison, as written by `--json`.
#[derive(Debug, Serialize)]
struct ElasticBench {
    frozen: FleetReport,
    elastic: FleetReport,
}

const CLASS: &str = "web";

fn spec(name: impl Into<String>, seed: u64, horizon_secs: f64) -> InstanceSpec {
    let before = leaky("slow-leak", 100, 75);
    let after = leaky("fast-leak", 150, 15);
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    InstanceSpec {
        name: name.into(),
        scenario: before,
        policy,
        seed,
        shift: Some(WorkloadShift { after_secs: horizon_secs * 0.25, scenario: after }),
        class: ServiceClass::new(CLASS),
    }
}

fn founders(n: usize, horizon_secs: f64) -> Vec<InstanceSpec> {
    (0..n).map(|i| spec(format!("web-{i:03}"), 5_000 + i as u64, horizon_secs)).collect()
}

/// The scripted churn: late joiners a third in, founders retired at the
/// halfway epoch, and an autoscale floor holding the fleet near its
/// founding size. Epochs are 15 s, so the epoch math runs off the horizon.
fn churn_plan(n_founders: usize, horizon_secs: f64) -> ChurnPlan {
    let total_epochs = (horizon_secs / 15.0) as u64;
    let join_epoch = total_epochs / 3;
    let retire_epoch = total_epochs / 2;
    let mut plan = ChurnPlan::new()
        .join(join_epoch, spec("late-000", 7_000, horizon_secs))
        .join(join_epoch, spec("late-001", 7_001, horizon_secs))
        .retire(retire_epoch, "web-000")
        .retire(retire_epoch, "web-001");
    plan = plan.autoscale(AutoscaleRule {
        evaluate_every_epochs: (total_epochs / 8).max(1),
        min_live: n_founders,
        max_spawns: 4,
        template: spec("spare", 8_000, horizon_secs),
    });
    plan
}

fn class_config(
    features: &FeatureSet,
    drift_enabled: bool,
) -> Result<Vec<(ServiceClass, ClassSpec)>, Box<dyn std::error::Error>> {
    let training: Vec<_> =
        [75u64, 100, 125].into_iter().map(|ebs| leaky(format!("train-{ebs}eb"), ebs, 75)).collect();
    let model: Arc<dyn Regressor> =
        Arc::new(AgingPredictor::train(&training, features.clone(), 42)?.model().clone());
    let drift = if drift_enabled {
        DriftConfig {
            error_threshold_secs: 600.0,
            min_observations: 40,
            cooldown_observations: 120,
            ..Default::default()
        }
    } else {
        DriftConfig::disabled()
    };
    let adapt = AdaptConfig::builder()
        .drift(drift)
        .buffer_capacity(2048)
        .min_buffer_to_retrain(120)
        .build();
    Ok(vec![(
        ServiceClass::new(CLASS),
        ClassSpec::builder(LearnerKind::M5p.learner(), model).config(adapt).build(),
    )])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let defaults = FleetArgs {
        instances: 18,
        shards: 3,
        hours: 6.0,
        json: None,
        metrics: None,
        trace: None,
        journal: None,
        replay: false,
    };
    let args = parse_args(
        defaults,
        "BENCH_elastic.json",
        "METRICS_elastic.json",
        "TRACE_elastic.json",
        "JOURNAL_elastic",
    )
    .inspect_err(|_| {
        eprintln!(
            "usage: elastic_fleet [--instances N] [--shards N] [--hours H] [--json [PATH]] \
                 [--metrics [PATH]] [--trace [PATH]] [--journal [DIR]] [--replay]"
        );
    })?;
    let horizon = args.hours * 3600.0;
    let features = FeatureSet::exp42();
    let config = FleetConfig {
        shards: args.shards,
        rejuvenation: RejuvenationConfig { horizon_secs: horizon, ..Default::default() },
        counterfactual_horizon_secs: 3600.0,
    };
    let plan = churn_plan(args.instances, horizon);
    println!(
        "training the web-class model … ({} founders, {} scripted joins, {} scripted retires, \
         autoscale floor {}, {:.0} h horizon)\n",
        args.instances,
        plan.joins.len(),
        plan.retires.len(),
        args.instances,
        args.hours
    );

    // Run 1: frozen baseline under the *same* churn — membership changes
    // identically, only adaptation is off.
    println!("── frozen model, churning fleet ──");
    let frozen_router = AdaptiveRouter::builder(features.variables().to_vec())
        .classes(class_config(&features, false)?)
        .config(RouterConfig::builder().retrainer_threads(2).build())
        .spawn();
    let frozen = Fleet::new(founders(args.instances, horizon), config)?
        .with_churn(plan.clone())?
        .run_routed(&frozen_router, &features)?;
    frozen_router.shutdown();
    println!("{frozen}\n");

    // Run 2: same fleet, same churn, adaptation live.
    println!("── adaptive model, churning fleet ──");
    let registry = args.metrics.as_ref().map(|_| Registry::shared());
    let recorder = args.trace.as_ref().map(|_| FlightRecorder::shared());
    let journal = match &args.journal {
        Some(dir) => Some(Arc::new(Journal::open(dir)?)),
        None => None,
    };
    let mut router_builder = AdaptiveRouter::builder(features.variables().to_vec())
        .classes(class_config(&features, true)?)
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
        // Crash recovery restores both halves of the journal: the
        // adaptation state (checkpoints re-ingested through the router)
        // and the roster (membership records folded to the live set the
        // dead process last journalled).
        let stats = router.stats();
        let restored: u64 = stats.classes.iter().map(|c| c.stats.ingested_checkpoints).sum();
        let mut fold = MembershipFold::new();
        for (_seq, record) in
            &Journal::read(args.journal.as_ref().expect("--replay needs it"))?.records
        {
            fold.apply(record)?;
        }
        println!(
            "replayed journal: {restored} checkpoints restored, {} instances live \
             ({} joins, {} retires, {} crash orphans superseded, membership digest \
             {:016x})",
            fold.live().len(),
            fold.joins(),
            fold.retires(),
            fold.superseded(),
            fold.digest()
        );
    }
    let mut elastic_fleet =
        Fleet::new(founders(args.instances, horizon), config)?.with_churn(plan.clone())?;
    if let Some(registry) = &registry {
        elastic_fleet = elastic_fleet.with_telemetry(Arc::clone(registry));
    }
    if let Some(recorder) = &recorder {
        elastic_fleet = elastic_fleet.with_trace(Arc::clone(recorder));
    }
    if let Some(journal) = &journal {
        elastic_fleet = elastic_fleet.with_journal(Arc::clone(journal));
    }
    let mut elastic = elastic_fleet.run_routed(&router, &features)?;
    if !router.quiesce(Duration::from_secs(30)) {
        return Err("the router did not settle within 30 s; its counters are not final".into());
    }
    let stats = router.shutdown();
    elastic.routing = Some(stats.clone());
    if let Some(registry) = &registry {
        elastic.telemetry = Some(registry.snapshot());
    }
    println!("{elastic}\n");
    assert_eq!(
        elastic.unpublished_checkpoints, 0,
        "every labelled batch must reach the adaptation side"
    );
    assert_eq!(elastic.rejected_rows(), 0, "every labelled row must pass the ingest checks");

    let churn = elastic.churn.expect("churn plans report churn stats");
    let scheduler = elastic.scheduler.expect("scheduled runs report scheduler stats");
    println!("── frozen vs adaptive under churn ──");
    let frozen_err = frozen.class_mean_ttf_error_secs(CLASS);
    let elastic_err = elastic.class_mean_ttf_error_secs(CLASS);
    println!(
        "  TTF error {frozen_err:>7.0} s → {elastic_err:>7.0} s  ({:.1}× lower)   \
         {} joins  {} retires  {} autoscale spawns  peak live {}  final live {}",
        frozen_err / elastic_err.max(1.0),
        churn.scripted_joins,
        churn.scripted_retires,
        churn.autoscale_spawns,
        churn.peak_live,
        churn.final_live,
    );
    println!(
        "  scheduler: {} workers drove {} shard tasks, {} leader steps, {} epochs fast-forwarded",
        scheduler.workers,
        scheduler.shard_tasks,
        scheduler.leader_steps,
        scheduler.fast_forwarded_epochs,
    );
    assert_eq!(churn.scripted_joins, plan.joins.len() as u64, "every scripted join must land");
    assert!(
        elastic_err < frozen_err,
        "adaptation must beat the frozen baseline under the shift: {elastic_err} vs {frozen_err}"
    );
    if let (Some(dir), Some(journal)) = (&args.journal, &journal) {
        journal.sync()?;
        let j = elastic.journal.as_ref().expect("journal attached to the fleet");
        assert_eq!(j.append_errors, 0, "every membership change must journal cleanly");
        println!(
            "  journal: {} records ({} fsyncs, {} rotations) in {dir}",
            j.appended_records, j.fsyncs, j.segment_rotations
        );
    }

    // The metrics acceptance gate: the elastic instruments must show the
    // run was scheduled and churned, not just that a registry existed.
    if let Some(path) = &args.metrics {
        let telemetry = elastic.telemetry.as_ref().expect("registry attached");
        let depth = telemetry
            .histogram("fleet_scheduler_queue_depth", None)
            .expect("scheduled runs record queue depth");
        assert!(depth.count > 0, "every dequeue records the queue depth");
        let live = telemetry.gauge("fleet_instances_live", None).expect("live-population gauge");
        assert_eq!(live as u64, churn.final_live, "the gauge settles on the final population");
        let leader = telemetry
            .histogram("fleet_leader_step_seconds", None)
            .expect("leader windows are timed");
        assert_eq!(leader.count, scheduler.leader_steps, "one sample per leader step");
        println!(
            "telemetry: {} queue-depth samples, {} leader windows timed, {live:.0} live at exit",
            depth.count, leader.count
        );
        write_metrics(path, telemetry)?;
    }

    // The tracing acceptance gate: membership changes must surface as
    // causally wired events — joins parented on their shard's scheduled
    // epoch, scripted retires flagged as forced.
    if let (Some(path), Some(recorder)) = (&args.trace, &recorder) {
        let trace = recorder.trace();
        let scheduled: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::EpochScheduled { .. }))
            .collect();
        assert!(!scheduled.is_empty(), "scheduled runs emit EpochScheduled events");
        let joins: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::InstanceJoined { .. }))
            .collect();
        assert!(
            joins.len() as u64 >= churn.scripted_joins,
            "every scripted join must be traced: {} events",
            joins.len()
        );
        for join in &joins {
            let parent = join.parent.expect("joins parent on their scheduled epoch");
            assert!(
                scheduled.iter().any(|e| e.seq == parent),
                "join event {} must parent on an EpochScheduled event",
                join.seq
            );
        }
        let forced = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::InstanceRetired { forced: true, .. }))
            .count() as u64;
        assert_eq!(forced, churn.forced_retires, "scripted retires must be traced as forced");
        println!(
            "trace: {} scheduled epochs, {} joins and {forced} forced retires causally wired \
             ({} events, {} dropped)",
            scheduled.len(),
            joins.len(),
            trace.len(),
            recorder.dropped()
        );
        write_trace(path, recorder)?;
    }

    if let Some(path) = &args.json {
        let bench = ElasticBench { frozen, elastic };
        std::fs::write(path, serde_json::to_string_pretty(&bench)?)?;
        println!("\nwrote {path}");
    }
    Ok(())
}
