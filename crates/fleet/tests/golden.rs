//! Golden fleet-report digests: every simulated outcome of fork-heavy
//! frozen fleets, hashed bit-exactly.
//!
//! The fleets cycle perfbench's four fleet-mixed classes (50, 100, 150 and
//! 200 emulated browsers; leak N = 15 or 30) under time-based and
//! predictive policies with the counterfactual fork on, so most service
//! epochs end in a proactive restart whose labels and `crashes_avoided`
//! come from a frozen-rate fork. They run at 1, 2 and 4 shards, and once
//! more under a churn plan (joins, retires and an autoscale floor).
//!
//! The expected values were recorded while every fork still ran inline in
//! the restart that queued it, before forks were deferred to folds and
//! moved onto an audit lane. They must never change unless the simulated
//! model or the policy accounting does.
//!
//! Drift-disabled discovered runs are pinned the same way, partition
//! included: at 1, 2 and 4 shards and under a plan with joins and an
//! autoscale floor. They were recorded while shards still copied every
//! signature into per-instance slots of the discovery runtime, before the
//! leader read signatures from the parked shards. And the churn plan's
//! frozen run is the run of a drift-disabled service and of a
//! drift-disabled router, bit for bit.

use aging_adapt::{AdaptConfig, AdaptiveRouter, AdaptiveService, ClassSpec, DriftConfig};
use aging_core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use aging_fleet::{
    AutoscaleRule, ChurnPlan, ChurnStats, DiscoveredClass, DiscoveryReport, DiscoverySetup, Fleet,
    FleetConfig, FleetReport, InstanceReport, InstanceSpec, ServiceClass, WorkloadShift,
};
use aging_ml::{LearnerKind, Regressor};
use aging_monitor::FeatureSet;
use aging_testbed::{MemLeakSpec, Scenario};
use std::sync::Arc;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for &b in s {
            self.word(u64::from(b));
        }
    }

    fn instance(&mut self, r: &InstanceReport) {
        // Exhaustive destructuring: a new field must be added to the digest.
        let InstanceReport {
            name,
            class,
            policy,
            horizon_secs,
            crashes,
            rejuvenations,
            crashes_avoided,
            downtime_secs,
            availability,
            lost_requests,
            checkpoints,
            service_epochs,
            ttf_error_sum_secs,
            ttf_error_count,
            joined_epoch,
            retired_epoch,
        } = r;
        self.bytes(name.as_bytes());
        self.bytes(class.as_bytes());
        self.bytes(policy.as_bytes());
        for x in [horizon_secs, downtime_secs, availability, lost_requests, ttf_error_sum_secs] {
            self.f64(*x);
        }
        for n in [crashes, rejuvenations, crashes_avoided, checkpoints, service_epochs] {
            self.word(*n);
        }
        self.word(*ttf_error_count);
        self.word(*joined_epoch);
        self.word(retired_epoch.unwrap_or(u64::MAX));
    }

    fn churn(&mut self, c: &ChurnStats) {
        let ChurnStats {
            scripted_joins,
            scripted_retires,
            autoscale_spawns,
            forced_retires,
            natural_retires,
            peak_live,
            final_live,
        } = *c;
        for n in [
            scripted_joins,
            scripted_retires,
            autoscale_spawns,
            forced_retires,
            natural_retires,
            peak_live,
            final_live,
        ] {
            self.word(n);
        }
    }
}

/// The report's simulated outcome: everything but `timing`, `telemetry`
/// and the scheduler's interleaving counters, which vary from run to run.
/// A frozen run carries no adaptation, routing, discovery, journal, tuning
/// or settling fields.
fn report_digest(report: &FleetReport) -> u64 {
    let FleetReport {
        instances,
        shards,
        epochs,
        horizon_secs,
        crashes,
        rejuvenations,
        crashes_avoided,
        downtime_secs,
        availability,
        lost_requests,
        checkpoints,
        mean_ttf_error_secs,
        ttf_error_count,
        adaptation,
        unpublished_checkpoints,
        routing,
        discovery,
        timing: _,
        telemetry: _,
        journal,
        tuning,
        churn,
        scheduler: _,
        quiesced,
    } = report;
    assert!(adaptation.is_none() && routing.is_none() && discovery.is_none());
    assert!(journal.is_none() && tuning.is_none() && quiesced.is_none());
    assert_eq!(*unpublished_checkpoints, 0);
    let mut h = Fnv::new();
    h.word(instances.len() as u64);
    for instance in instances {
        h.instance(instance);
    }
    h.word(*shards as u64);
    for n in [epochs, crashes, rejuvenations, crashes_avoided, checkpoints, ttf_error_count] {
        h.word(*n);
    }
    for x in [horizon_secs, downtime_secs, availability, lost_requests, mean_ttf_error_secs] {
        h.f64(*x);
    }
    match churn {
        Some(stats) => h.churn(stats),
        None => h.word(u64::MAX),
    }
    h.0
}

fn leaky(ebs: u64, n: u32) -> Scenario {
    Scenario::builder(format!("leaky-{ebs}eb-n{n}"))
        .emulated_browsers(ebs)
        .memory_leak(MemLeakSpec::new(n))
        .run_to_crash()
        .build()
}

/// perfbench's fleet-mixed classes: (emulated browsers, leak N).
const CLASSES: [(u64, u32); 4] = [(50, 15), (100, 15), (150, 30), (200, 30)];

fn predictor() -> AgingPredictor {
    AgingPredictor::train(&[leaky(100, 15)], FeatureSet::exp42(), 77).unwrap()
}

/// Instance `i` runs class `i % 4`; even instances restart every 20
/// minutes, odd ones on two consecutive predictions under 420 s.
fn spec(i: usize) -> InstanceSpec {
    let (ebs, n) = CLASSES[i % CLASSES.len()];
    let policy = if i % 2 == 0 {
        RejuvenationPolicy::TimeBased { interval_secs: 1200.0 }
    } else {
        RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 }
    };
    InstanceSpec::new(format!("mixed-{i}"), leaky(ebs, n), policy, 2_000 + i as u64)
}

fn config(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        rejuvenation: RejuvenationConfig { horizon_secs: 3.0 * 3600.0, ..Default::default() },
        ..Default::default()
    }
}

fn mixed_fleet(shards: usize) -> Fleet {
    Fleet::new((0..8).map(spec).collect(), config(shards)).unwrap()
}

fn churn_fleet() -> Fleet {
    churn_fleet_on(2)
}

fn churn_fleet_on(shards: usize) -> Fleet {
    let plan = ChurnPlan::new()
        .join(60, spec(8))
        .join(60, spec(9))
        .join(150, spec(10))
        .retire(100, "mixed-2")
        .retire(200, "mixed-8")
        .retire(300, "mixed-5")
        .autoscale(AutoscaleRule {
            evaluate_every_epochs: 90,
            min_live: 8,
            max_spawns: 3,
            template: spec(11),
        });
    Fleet::new((0..8).map(spec).collect(), config(shards)).unwrap().with_churn(plan).unwrap()
}

#[test]
fn fork_heavy_fleets_match_their_golden_digests() {
    let predictor = predictor();
    let mut got = Vec::new();
    for shards in [1, 2, 4] {
        let report = mixed_fleet(shards).run_with_predictor(&predictor);
        assert!(report.rejuvenations > report.crashes, "{report}");
        assert!(report.crashes_avoided > 0, "{report}");
        got.push((format!("{shards} shards"), report_digest(&report)));
    }
    let churned = churn_fleet().run_with_predictor(&predictor);
    let churn = churned.churn.expect("a churn plan reports churn");
    assert!(churn.scripted_joins > 0 && churn.forced_retires > 0, "{churn:?}");
    got.push(("churn plan".to_string(), report_digest(&churned)));

    let expected: [u64; 4] = [
        0x2219_417b_16e7_31de,
        0x5b9a_7bb4_2ca9_6ebd,
        0x4c72_e116_f5cf_543f,
        0xc8b3_c101_6076_0127,
    ];
    let failures: Vec<String> = got
        .iter()
        .zip(expected)
        .filter(|((_, digest), want)| digest != want)
        .map(|((what, digest), _)| format!("{what}: got {digest:#018x}"))
        .collect();
    assert!(failures.is_empty(), "digests changed:\n{}", failures.join("\n"));
}

/// The simulated outcome of a run bound to an adaptation side: its report
/// with the adaptation-side counters taken out, which depend on timing
/// (shed batches, refits in flight).
fn bound_digest(report: &FleetReport) -> u64 {
    let mut outcome = report.clone();
    outcome.adaptation = None;
    outcome.routing = None;
    outcome.quiesced = None;
    outcome.discovery = None;
    report_digest(&outcome)
}

/// A drift-disabled template: every model stays at generation 0.
fn frozen_template(predictor: &AgingPredictor) -> ClassSpec {
    let initial: Arc<dyn Regressor> = Arc::new(predictor.model().clone());
    ClassSpec::builder(LearnerKind::LinReg.learner(), initial)
        .config(AdaptConfig::builder().drift(DriftConfig::disabled()).build())
        .build()
}

/// The churn plan's frozen run at 1, 2 and 4 shards is the run of a
/// drift-disabled service and of a drift-disabled router, bit for bit.
#[test]
fn churn_runs_agree_across_bindings() {
    let predictor = predictor();
    let features = FeatureSet::exp42();
    for shards in [1, 2, 4] {
        let frozen = bound_digest(&churn_fleet_on(shards).run_with_predictor(&predictor));
        let service = AdaptiveService::builder(
            LearnerKind::LinReg.learner(),
            features.variables().to_vec(),
            Arc::new(predictor.model().clone()),
        )
        .config(AdaptConfig::builder().drift(DriftConfig::disabled()).build())
        .spawn();
        let adaptive = churn_fleet_on(shards).run_adaptive(&service, &features);
        assert!(service.shutdown().ingested_checkpoints > 0, "labelled batches reach the bus");
        assert_eq!(bound_digest(&adaptive), frozen, "adaptive, {shards} shards");

        let router = AdaptiveRouter::builder(features.variables().to_vec())
            .class(ServiceClass::default(), frozen_template(&predictor))
            .spawn();
        let routed = churn_fleet_on(shards).run_routed(&router, &features).unwrap();
        router.shutdown();
        assert_eq!(bound_digest(&routed), frozen, "routed, {shards} shards");
    }
}

/// Six unlabelled instances; the even ones move to a faster leak a
/// quarter into the horizon, so discovery splits them off.
fn discovered_spec(i: usize) -> InstanceSpec {
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    InstanceSpec {
        shift: (i % 2 == 0)
            .then(|| WorkloadShift { after_secs: 3.0 * 3600.0 * 0.25, scenario: leaky(150, 15) }),
        ..InstanceSpec::new(format!("svc-{i}"), leaky(100, 30), policy, 700 + i as u64)
    }
}

fn discovered_fleet(shards: usize, plan: Option<ChurnPlan>) -> Fleet {
    let fleet = Fleet::new((0..6).map(discovered_spec).collect(), config(shards)).unwrap();
    match plan {
        Some(plan) => fleet.with_churn(plan).unwrap(),
        None => fleet,
    }
}

/// The digest of a drift-disabled discovered run: its simulated outcome
/// and the whole partition, every evaluation of the timeline included.
fn discovered_digest(report: &FleetReport) -> u64 {
    let DiscoveryReport {
        classes,
        evaluations_log,
        assignment,
        reassignments,
        evaluations,
        splits,
        merges,
    } = report.discovery.as_ref().expect("discovered runs report their partition");
    let mut h = Fnv(bound_digest(report));
    h.word(classes.len() as u64);
    for DiscoveredClass { class, members, retired } in classes {
        h.bytes(class.as_bytes());
        h.word(*members as u64);
        h.word(u64::from(*retired));
    }
    h.word(evaluations_log.len() as u64);
    for entry in evaluations_log {
        h.word(entry.epoch);
        h.word(entry.ready_instances as u64);
        h.word(entry.active_classes as u64);
        h.f64(entry.silhouette);
        for names in [&entry.new_classes, &entry.retired_classes] {
            h.word(names.len() as u64);
            for name in names {
                h.bytes(name.as_bytes());
            }
        }
        h.word(entry.reassignments);
        for counts in [&entry.class_drift_events, &entry.class_generations] {
            h.word(counts.len() as u64);
            for (class, n) in counts {
                h.bytes(class.as_bytes());
                h.word(*n);
            }
        }
    }
    h.word(assignment.len() as u64);
    for class in assignment {
        h.bytes(class.as_bytes());
    }
    for n in [reassignments, evaluations, splits, merges] {
        h.word(*n);
    }
    h.0
}

#[test]
fn drift_disabled_discovered_runs_match_their_golden_digests() {
    let predictor = predictor();
    let features = FeatureSet::exp42();
    let setup = DiscoverySetup {
        reassess_every_epochs: 60,
        ..DiscoverySetup::new(frozen_template(&predictor))
    };
    let mut got = Vec::new();
    for shards in [1, 2, 4] {
        let report = discovered_fleet(shards, None).run_discovered(&setup, &features).unwrap();
        let discovery = report.discovery.as_ref().unwrap();
        assert!(discovery.splits > 0, "the shifted half must split off: {discovery:?}");
        got.push((format!("{shards} shards"), discovered_digest(&report)));
    }
    // Joins and an autoscale floor, but no forced retire.
    let plan = ChurnPlan::new()
        .join(40, discovered_spec(6))
        .join(100, discovered_spec(7))
        .autoscale(AutoscaleRule {
            evaluate_every_epochs: 90,
            min_live: 9,
            max_spawns: 2,
            template: discovered_spec(8),
        });
    let churned = discovered_fleet(3, Some(plan)).run_discovered(&setup, &features).unwrap();
    let churn = churned.churn.expect("a churn plan reports churn");
    assert!(churn.scripted_joins == 2 && churn.autoscale_spawns > 0, "{churn:?}");
    assert_eq!(churn.forced_retires, 0, "{churn:?}");
    got.push(("churn plan".to_string(), discovered_digest(&churned)));

    let expected: [u64; 4] = [
        0x3880_3a4e_a7ba_8c85,
        0xfa5d_3122_a66c_a346,
        0x52b1_9411_ee0b_a554,
        0x87a2_faf0_8d55_d051,
    ];
    let failures: Vec<String> = got
        .iter()
        .zip(expected)
        .filter(|((_, digest), want)| digest != want)
        .map(|((what, digest), _)| format!("{what}: got {digest:#018x}"))
        .collect();
    assert!(failures.is_empty(), "digests changed:\n{}", failures.join("\n"));
}
