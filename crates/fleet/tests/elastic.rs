//! Elastic-engine guarantees: churn runs are bit-reproducible for a fixed
//! seed and shard-count-invariant, the elastic report fields stay
//! backward-compatible with pre-elastic artifacts, and a force-retired
//! instance leaves discovery. (The scheduler's oracle, a sequential
//! reference driver that runs churn plans too, lives in the crate's unit
//! tests.)

use aging_adapt::{AdaptConfig, ClassSpec, DriftConfig};
use aging_core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use aging_fleet::{
    AutoscaleRule, ChurnPlan, DiscoverySetup, Fleet, FleetConfig, FleetReport, InstanceSpec,
};
use aging_ml::LearnerKind;
use aging_monitor::FeatureSet;
use aging_testbed::{MemLeakSpec, Scenario};
use std::sync::Arc;

fn crashing_scenario() -> Scenario {
    Scenario::builder("leaky")
        .emulated_browsers(100)
        .memory_leak(MemLeakSpec::new(15))
        .run_to_crash()
        .build()
}

fn trained_predictor() -> AgingPredictor {
    AgingPredictor::train(&[crashing_scenario()], FeatureSet::exp42(), 77).unwrap()
}

fn config(shards: usize, horizon_hours: f64) -> FleetConfig {
    FleetConfig {
        shards,
        rejuvenation: RejuvenationConfig {
            horizon_secs: horizon_hours * 3600.0,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn churn_fleet(scenario: &Scenario, shards: usize) -> Fleet {
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let spec = |name: &str, seed| InstanceSpec::new(name, scenario.clone(), policy, seed);
    let specs: Vec<InstanceSpec> = (0..6).map(|i| spec(&format!("web-{i}"), 100 + i)).collect();
    let plan = ChurnPlan::new()
        .join(40, spec("late-0", 900))
        .join(40, spec("late-1", 901))
        .join(120, spec("late-2", 902))
        .retire(80, "web-1")
        .retire(80, "late-0")
        .retire(200, "web-4")
        .autoscale(AutoscaleRule {
            evaluate_every_epochs: 60,
            min_live: 6,
            max_spawns: 4,
            template: spec("spare", 1000),
        });
    Fleet::new(specs, config(shards, 3.0)).unwrap().with_churn(plan).unwrap()
}

/// A churn run — scripted joins and retires plus autoscaling — must be
/// bit-reproducible for a fixed seed, including the churn accounting
/// (which *is* part of report equality).
#[test]
fn churn_run_is_bit_reproducible_for_a_fixed_seed() {
    let predictor = trained_predictor();
    let scenario = crashing_scenario();
    let a = churn_fleet(&scenario, 3).run_with_predictor(&predictor);
    let b = churn_fleet(&scenario, 3).run_with_predictor(&predictor);
    assert_eq!(a, b, "fixed seeds must make churn runs bit-reproducible");
    let churn = a.churn.expect("churn plans report churn stats");
    assert_eq!(churn, b.churn.unwrap());
    assert_eq!(churn.scripted_joins, 3, "{churn:?}");
    assert_eq!(churn.scripted_retires, 3, "{churn:?}");
    assert!(churn.peak_live >= 6, "{churn:?}");
    // Membership lands in the per-instance accounting too.
    let by_name = |name: &str| {
        a.instances.iter().find(|i| i.name == name).unwrap_or_else(|| panic!("{name} reported"))
    };
    assert_eq!(a.instances.len() as u64, 6 + 3 + churn.autoscale_spawns);
    assert_eq!(by_name("web-0").joined_epoch, 0);
    assert_eq!(by_name("late-0").joined_epoch, 40);
    assert_eq!(by_name("late-0").retired_epoch, Some(80), "scripted retire at 80");
    assert_eq!(by_name("web-1").retired_epoch, Some(80), "scripted retire at 80");
    // The forced retires pull the live population under the autoscale
    // floor, so spares must have spawned at a later boundary.
    assert!(churn.autoscale_spawns > 0, "{churn:?}");
    let spawn = a.instances.iter().find(|i| i.name.starts_with("spare-as")).unwrap();
    assert!(spawn.joined_epoch > 0 && spawn.joined_epoch % 60 == 0, "{spawn:?}");
}

/// Shard count is still pure parallelism under churn: membership changes
/// land at fixed epochs on deterministic shards, so the simulated outcome
/// is shard-count-invariant.
#[test]
fn churn_outcome_is_shard_count_invariant() {
    let predictor = trained_predictor();
    let scenario = crashing_scenario();
    let one = churn_fleet(&scenario, 1).run_with_predictor(&predictor);
    let three = churn_fleet(&scenario, 3).run_with_predictor(&predictor);
    assert_eq!(one.instances, three.instances);
    assert_eq!(one.churn, three.churn);
    assert_eq!(one.epochs, three.epochs);
}

/// Serde back-compat (the fixture half of the oracle): a pre-elastic
/// `BENCH_*.json` report — no `churn`/`scheduler` report fields, no
/// `joined_epoch`/`retired_epoch` instance fields — must still
/// deserialise via `#[serde(default)]`.
#[test]
fn pre_elastic_reports_still_deserialise() {
    let predictor = trained_predictor();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let report = Fleet::uniform(&crashing_scenario(), policy, 2, 7, config(2, 2.0))
        .unwrap()
        .run_with_predictor(&predictor);
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("\"churn\":null"), "plain runs serialise null churn");
    assert!(json.contains("\"scheduler\":null"));
    assert!(json.contains("\"joined_epoch\":0"));
    // A pre-elastic artifact is this JSON with the elastic fields absent
    // altogether. Strip them the way the old serialiser never wrote them.
    let mut legacy = json.replace(",\"churn\":null", "").replace(",\"scheduler\":null", "");
    legacy = legacy.replace(",\"joined_epoch\":0", "");
    while let Some(at) = legacy.find(",\"retired_epoch\":") {
        let rest = &legacy[at + 1..];
        let end = rest.find([',', '}']).expect("value terminated");
        legacy.replace_range(at..at + 1 + end, "");
    }
    for field in ["churn", "scheduler", "joined_epoch", "retired_epoch"] {
        assert!(!legacy.contains(field), "field {field} must really be gone");
    }
    let parsed: FleetReport = serde_json::from_str(&legacy).unwrap();
    assert!(parsed.churn.is_none() && parsed.scheduler.is_none());
    // Everything the old report carried parses to the same values; the
    // defaulted membership fields read as epoch-0 joins, never retired.
    assert_eq!(parsed.epochs, report.epochs);
    assert_eq!(parsed.crashes, report.crashes);
    assert_eq!(parsed.instances.len(), report.instances.len());
    for (p, r) in parsed.instances.iter().zip(&report.instances) {
        assert_eq!(p.name, r.name);
        assert_eq!(p.availability.to_bits(), r.availability.to_bits());
        assert_eq!(p.joined_epoch, 0);
        assert_eq!(p.retired_epoch, None);
    }
    // And the modern round trip is lossless.
    let roundtrip: FleetReport = serde_json::from_str(&json).unwrap();
    assert_eq!(roundtrip, report);
}

/// The elastic engine's observability: live-population gauge, scheduler
/// queue-depth histogram and the leader-window histogram land in the
/// report's telemetry snapshot.
#[test]
fn elastic_telemetry_lands_in_the_report() {
    let predictor = trained_predictor();
    let registry = aging_obs::Registry::shared();
    let report = churn_fleet(&crashing_scenario(), 2)
        .with_telemetry(std::sync::Arc::clone(&registry))
        .run_with_predictor(&predictor);
    let telemetry = report.telemetry.as_ref().expect("registry attached");
    assert_eq!(telemetry.counter("fleet_epochs_total", None), Some(report.epochs));
    let depth = telemetry.histogram("fleet_scheduler_queue_depth", None).expect("queue depth");
    assert!(depth.count > 0, "every dequeue records the queue depth");
    let gauge = telemetry.gauge("fleet_instances_live", None).expect("live gauge");
    assert_eq!(gauge as u64, report.churn.unwrap().final_live, "gauge holds the final population");
    let leader = telemetry.histogram("fleet_leader_step_seconds", None).expect("leader window");
    assert_eq!(leader.count, report.scheduler.unwrap().leader_steps, "one sample per leader step");
}

/// A force-retired instance leaves discovery: no evaluation after its
/// retire counts it, so the ready instances never outnumber the live
/// population (instances joined minus instances force-retired).
#[test]
fn force_retired_instances_leave_discovery() {
    let features = FeatureSet::exp42();
    let initial = Arc::new(trained_predictor().model().clone());
    let template = ClassSpec::builder(LearnerKind::LinReg.learner(), initial)
        .config(AdaptConfig::builder().drift(DriftConfig::disabled()).build())
        .build();
    let setup = DiscoverySetup { reassess_every_epochs: 120, ..DiscoverySetup::new(template) };
    let scenario = Scenario::builder("steady-leak")
        .emulated_browsers(100)
        .memory_leak(MemLeakSpec::new(30))
        .run_to_crash()
        .build();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    for shards in [1, 3] {
        let specs: Vec<InstanceSpec> = (0..10)
            .map(|i| InstanceSpec::new(format!("svc-{i:02}"), scenario.clone(), policy, 40 + i))
            .collect();
        let plan =
            ChurnPlan::new().retire(300, "svc-01").retire(300, "svc-02").retire(300, "svc-03");
        let report = Fleet::new(specs, config(shards, 4.0))
            .unwrap()
            .with_churn(plan)
            .unwrap()
            .run_discovered(&setup, &features)
            .unwrap();
        assert_eq!(report.churn.unwrap().forced_retires, 3, "{shards} shards");
        let log = &report.discovery.as_ref().unwrap().evaluations_log;
        let population = |epoch: u64| if epoch > 300 { 7 } else { 10 };
        assert!(log.iter().any(|e| e.epoch > 300), "{shards} shards: {log:?}");
        for entry in log {
            assert!(
                entry.ready_instances <= population(entry.epoch),
                "{shards} shards, epoch {}: {} ready of {} live",
                entry.epoch,
                entry.ready_instances,
                population(entry.epoch)
            );
        }
    }
}
