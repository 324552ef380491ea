//! The sequential reference driver: the oracle the scheduler is held to.
//!
//! Every shard's [`EpochStep`] runs in index order on the calling thread,
//! every shard every epoch (dead ones too), until no instance is live; the
//! discovery leader runs at each reassessment boundary, between the two
//! epochs it separates. Nothing runs concurrently, so a scheduled report
//! that differs from this driver's is a scheduling bug.
//! `Fleet::with_reference_driver` selects it, so `run`, `run_adaptive`,
//! `run_routed` and `run_discovered` reach it through their normal
//! wrapping.

use crate::report::{ChurnStats, SchedulerStats};
use crate::scheduler::{ElasticArgs, ElasticOutcome};
use crate::step::EpochStep;
use aging_obs::TraceHandle;

/// Drives a fixed-population fleet to the end of its horizon.
pub(crate) fn drive(args: ElasticArgs<'_, '_>) -> ElasticOutcome {
    assert!(args.churn.is_none(), "the reference driver runs fixed populations only");
    let mut steps: Vec<EpochStep> = (0..args.shards.len())
        .map(|idx| EpochStep::new(args.table, idx, TraceHandle::disabled()))
        .collect();
    let mut epoch = 0;
    loop {
        let reassess = args.discovery.filter(|runtime| runtime.reassess_after(epoch));
        let mut live = 0;
        for (shard, step) in args.shards.iter_mut().zip(&mut steps) {
            live += step.run(shard, args.table, args.config, epoch);
            if let Some(runtime) = reassess {
                runtime.publish_signatures(shard);
            }
        }
        epoch += 1;
        if live == 0 {
            break;
        }
        if let Some(runtime) = reassess {
            runtime.step(epoch);
        }
    }
    ElasticOutcome {
        epochs: epoch,
        churn: ChurnStats::default(),
        scheduler: SchedulerStats::default(),
        journal_errors: 0,
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::ForkPath;
    use crate::{
        DiscoverySetup, Fleet, FleetConfig, FleetReport, FleetTiming, InstanceSpec, ServiceClass,
        WorkloadShift,
    };
    use aging_adapt::{AdaptConfig, AdaptiveRouter, AdaptiveService, ClassSpec, DriftConfig};
    use aging_core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
    use aging_ml::{LearnerKind, Regressor};
    use aging_monitor::FeatureSet;
    use aging_obs::Registry;
    use aging_testbed::{MemLeakSpec, Scenario};
    use proptest::prelude::*;
    use std::sync::{Arc, OnceLock};

    fn leaky(ebs: u64, n: u32) -> Scenario {
        Scenario::builder(format!("leaky-{ebs}eb-n{n}"))
            .emulated_browsers(ebs)
            .memory_leak(MemLeakSpec::new(n))
            .run_to_crash()
            .build()
    }

    /// One model for every test here, trained once per test binary.
    fn predictor() -> &'static AgingPredictor {
        static PREDICTOR: OnceLock<AgingPredictor> = OnceLock::new();
        PREDICTOR.get_or_init(|| {
            AgingPredictor::train(&[leaky(100, 15)], FeatureSet::exp42(), 77).unwrap()
        })
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

    /// Whole-report equality plus bit checks on the floating-point
    /// outcomes, so a difference below `PartialEq`'s radar still fails.
    fn assert_same(engine: &FleetReport, reference: &FleetReport, what: &str) {
        assert_eq!(engine, reference, "{what}: the engine must equal the reference");
        for (e, r) in engine.instances.iter().zip(&reference.instances) {
            assert_eq!(e.downtime_secs.to_bits(), r.downtime_secs.to_bits(), "{what}: {}", e.name);
            assert_eq!(e.availability.to_bits(), r.availability.to_bits(), "{what}: {}", e.name);
        }
        assert_eq!(engine.downtime_secs.to_bits(), reference.downtime_secs.to_bits(), "{what}");
        assert_eq!(engine.availability.to_bits(), reference.availability.to_bits(), "{what}");
    }

    #[test]
    fn engine_matches_reference_on_frozen_runs() {
        let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
        for shards in [1usize, 2, 4] {
            let fleet = || Fleet::uniform(&leaky(100, 15), policy, 8, 100, config(shards, 3.0));
            let engine = fleet().unwrap().run_with_predictor(predictor());
            let reference =
                fleet().unwrap().with_reference_driver().run_with_predictor(predictor());
            assert_same(&engine, &reference, &format!("frozen, {shards} shards"));
            assert!(engine.scheduler.is_none() && engine.churn.is_none(), "no plan, no stats");
        }
    }

    /// A template whose drift detection never fires: every generation
    /// stays 0, so adaptive runs are as deterministic as frozen ones.
    fn frozen_template(model: &AgingPredictor) -> ClassSpec {
        let initial: Arc<dyn Regressor> = Arc::new(model.model().clone());
        ClassSpec::builder(LearnerKind::LinReg.learner(), initial)
            .config(AdaptConfig::builder().drift(DriftConfig::disabled()).build())
            .build()
    }

    #[test]
    fn engine_matches_reference_on_a_drift_disabled_routed_run() {
        let features = FeatureSet::exp42();
        let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
        let specs = || -> Vec<InstanceSpec> {
            (0..6)
                .map(|i| {
                    let (class, scenario) = if i % 2 == 0 {
                        ("heavy", leaky(150, 15))
                    } else {
                        ("light", leaky(50, 30))
                    };
                    InstanceSpec::new(format!("{class}-{i}"), scenario, policy, 300 + i)
                        .with_class(ServiceClass::new(class))
                })
                .collect()
        };
        let run = |reference: bool| {
            let router = AdaptiveRouter::builder(features.variables().to_vec())
                .class(ServiceClass::new("heavy"), frozen_template(predictor()))
                .class(ServiceClass::new("light"), frozen_template(predictor()))
                .spawn();
            let mut fleet = Fleet::new(specs(), config(2, 2.0)).unwrap();
            if reference {
                fleet = fleet.with_reference_driver();
            }
            let report = fleet.run_routed(&router, &features).unwrap();
            router.shutdown();
            report
        };
        assert_same(&run(false), &run(true), "routed, two classes");
    }

    /// One three-class fleet, run frozen, through one drift-disabled
    /// service and through one drift-disabled service per class, each on
    /// the scheduler and on the reference driver: every model stays at
    /// generation 0, so all six reports equal the frozen scheduled run at
    /// every shard count — batching every class into one matrix or one per
    /// class changes nothing, and every instance keeps its spec class.
    #[test]
    fn frozen_adaptive_and_routed_runs_agree_on_a_multi_class_fleet() {
        let features = FeatureSet::exp42();
        let classes =
            [("heavy", leaky(150, 15)), ("mid", leaky(100, 15)), ("light", leaky(50, 30))];
        let policies = [
            RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 },
            RejuvenationPolicy::Reactive,
            // A late trigger: some epochs restart, others crash with labels.
            RejuvenationPolicy::Predictive { threshold_secs: 60.0, consecutive: 3 },
        ];
        let specs: Vec<InstanceSpec> = (0..9)
            .map(|i| {
                let (class, scenario) = &classes[i % 3];
                let seed = 500 + i as u64;
                InstanceSpec::new(format!("{class}-{i}"), scenario.clone(), policies[i / 3], seed)
                    .with_class(ServiceClass::new(*class))
            })
            .collect();
        let model = predictor().model();
        let initial: Arc<dyn Regressor> = Arc::new(model.clone());
        for shards in [1usize, 2, 4] {
            let fleet = |reference: bool| {
                let fleet = Fleet::new(specs.clone(), config(shards, 2.0)).unwrap();
                if reference {
                    fleet.with_reference_driver()
                } else {
                    fleet
                }
            };
            let frozen = fleet(false).run(model, &features);
            // Restarts, and crashes of predicting instances, so crash
            // epochs publish labelled rows.
            assert!(frozen.rejuvenations > 0, "{frozen}");
            assert!(frozen.instances.iter().any(|i| i.crashes > 0 && i.ttf_error_count > 0));
            let what = format!("{shards} shards");
            assert_same(&fleet(true).run(model, &features), &frozen, &format!("frozen, {what}"));
            for reference in [false, true] {
                let what = format!("{what}, reference driver {reference}");
                let service = AdaptiveService::builder(
                    LearnerKind::LinReg.learner(),
                    features.variables().to_vec(),
                    Arc::clone(&initial),
                )
                .config(AdaptConfig::builder().drift(DriftConfig::disabled()).build())
                .spawn();
                let adaptive = fleet(reference).run_adaptive(&service, &features);
                let stats = service.shutdown();
                assert!(stats.ingested_checkpoints > 0, "labelled batches reach the bus");
                assert_eq!(adaptive.unpublished_checkpoints, 0);
                assert_same(&adaptive, &frozen, &format!("adaptive, {what}"));

                let mut router = AdaptiveRouter::builder(features.variables().to_vec());
                for (class, _) in &classes {
                    router = router.class(ServiceClass::new(*class), frozen_template(predictor()));
                }
                let router = router.spawn();
                let routed = fleet(reference).run_routed(&router, &features).unwrap();
                router.shutdown();
                assert_same(&routed, &frozen, &format!("routed, {what}"));
            }
        }
    }

    #[test]
    fn engine_matches_reference_on_a_drift_disabled_discovered_run() {
        let features = FeatureSet::exp42();
        let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
        let horizon_secs = 3.0 * 3600.0;
        let specs = || -> Vec<InstanceSpec> {
            (0..6)
                .map(|i| InstanceSpec {
                    shift: (i % 2 == 0).then(|| WorkloadShift {
                        after_secs: horizon_secs * 0.25,
                        scenario: leaky(150, 15),
                    }),
                    ..InstanceSpec::new(format!("svc-{i}"), leaky(100, 30), policy, 700 + i)
                })
                .collect()
        };
        let setup = DiscoverySetup {
            reassess_every_epochs: 60,
            ..DiscoverySetup::new(frozen_template(predictor()))
        };
        let run = |reference: bool| {
            let mut fleet = Fleet::new(specs(), config(3, 3.0)).unwrap();
            if reference {
                fleet = fleet.with_reference_driver();
            }
            fleet.run_discovered(&setup, &features).unwrap()
        };
        let (engine, reference) = (run(false), run(true));
        assert_same(&engine, &reference, "discovered");
        let (e, r) = (engine.discovery.unwrap(), reference.discovery.unwrap());
        assert!(e.evaluations > 0, "the run must reach a reassessment boundary");
        assert_eq!(e.assignment, r.assignment);
        assert_eq!(e.classes, r.classes);
        assert_eq!(e.reassignments, r.reassignments);
    }

    /// A service's threshold override replaces every predictive spec's
    /// threshold from the next epoch boundary: a drift-disabled adaptive
    /// run under a 900 s override plays out exactly like a frozen run whose
    /// specs say 900 s.
    #[test]
    fn threshold_overrides_reach_the_instances_of_their_slot() {
        let features = FeatureSet::exp42();
        let predictive =
            |threshold_secs| RejuvenationPolicy::Predictive { threshold_secs, consecutive: 2 };
        let fleet = |threshold_secs| {
            Fleet::uniform(&leaky(100, 15), predictive(threshold_secs), 4, 40, config(2, 2.0))
                .unwrap()
        };
        let service = AdaptiveService::builder(
            LearnerKind::LinReg.learner(),
            features.variables().to_vec(),
            Arc::new(predictor().model().clone()),
        )
        .config(AdaptConfig::builder().drift(DriftConfig::disabled()).build())
        .spawn();
        service.model_service().set_rejuvenation_threshold_secs(900.0);
        let overridden = fleet(420.0).run_adaptive(&service, &features);
        service.shutdown();
        let spec_900 = fleet(900.0).run(predictor().model(), &features);
        let spec_420 = fleet(420.0).run(predictor().model(), &features);
        assert_ne!(spec_900.rejuvenations, spec_420.rejuvenations, "the override must matter");
        for (o, s) in overridden.instances.iter().zip(&spec_900.instances) {
            assert_eq!(
                (o.crashes, o.rejuvenations, o.checkpoints),
                (s.crashes, s.rejuvenations, s.checkpoints)
            );
            assert_eq!(o.downtime_secs.to_bits(), s.downtime_secs.to_bits(), "{}", o.name);
            assert_eq!(
                o.ttf_error_sum_secs.to_bits(),
                s.ttf_error_sum_secs.to_bits(),
                "{}",
                o.name
            );
        }
    }

    /// Discovery re-points instances at the top of the epoch after each
    /// leader window: once a split has moved instances into a new class,
    /// their labelled batches name it, so every class that ends with
    /// members has ingested checkpoints of its own.
    #[test]
    fn discovered_classes_ingest_their_members_batches() {
        let features = FeatureSet::exp42();
        let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
        let specs: Vec<InstanceSpec> = (0..6)
            .map(|i| InstanceSpec {
                shift: (i % 2 == 0).then(|| WorkloadShift {
                    after_secs: 3.0 * 3600.0 * 0.25,
                    scenario: leaky(150, 15),
                }),
                ..InstanceSpec::new(format!("svc-{i}"), leaky(100, 30), policy, 700 + i)
            })
            .collect();
        let setup = DiscoverySetup {
            reassess_every_epochs: 60,
            ..DiscoverySetup::new(frozen_template(predictor()))
        };
        let report =
            Fleet::new(specs, config(3, 3.0)).unwrap().run_discovered(&setup, &features).unwrap();
        let (discovery, routing) = (report.discovery.unwrap(), report.routing.unwrap());
        assert!(discovery.splits > 0, "the shifted half must split off");
        for class in discovery.classes.iter().filter(|c| c.members > 0) {
            let stats = routing.class(&ServiceClass::new(class.class.as_str())).unwrap();
            assert!(stats.ingested_checkpoints > 0, "{} ingested nothing", class.class);
        }
    }

    /// A generated fleet: `(emulated browsers, leak N)` per class, one
    /// policy per instance (instance `i` runs class `i % classes`).
    #[derive(Debug, Clone)]
    struct GeneratedFleet {
        classes: Vec<(u64, u32)>,
        policies: Vec<RejuvenationPolicy>,
        shards: usize,
        forks: bool,
        horizon_hours: f64,
    }

    impl GeneratedFleet {
        fn fleet(&self, shards: usize) -> Fleet {
            let specs = self
                .policies
                .iter()
                .enumerate()
                .map(|(i, &policy)| {
                    let (ebs, n) = self.classes[i % self.classes.len()];
                    InstanceSpec::new(format!("gen-{i}"), leaky(ebs, n), policy, 1_000 + i as u64)
                })
                .collect();
            let mut config = config(shards, self.horizon_hours);
            if !self.forks {
                config.counterfactual_horizon_secs = 0.0;
            }
            Fleet::new(specs, config).unwrap()
        }
    }

    fn policy_strategy() -> impl Strategy<Value = RejuvenationPolicy> {
        prop_oneof![
            Just(RejuvenationPolicy::Reactive),
            (900.0..3600.0f64)
                .prop_map(|interval_secs| RejuvenationPolicy::TimeBased { interval_secs }),
            (300.0..600.0f64, 1usize..=3).prop_map(|(threshold_secs, consecutive)| {
                RejuvenationPolicy::Predictive { threshold_secs, consecutive }
            }),
        ]
    }

    fn fleet_strategy() -> impl Strategy<Value = GeneratedFleet> {
        (
            prop::collection::vec((50u64..=200, 15u32..=45), 1..=3),
            prop::collection::vec(policy_strategy(), 1..=8),
            1usize..=4,
            prop_oneof![Just(true), Just(false)],
            1.0..=2.0f64,
        )
            .prop_map(|(classes, policies, shards, forks, horizon_hours)| GeneratedFleet {
                classes,
                policies,
                shards,
                forks,
                horizon_hours,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Generated fleets: the scheduled report equals the reference's,
        /// the epoch count is shard-independent, and the report conserves
        /// what its instances did.
        #[test]
        fn generated_fleets_match_the_reference_and_conserve(spec in fleet_strategy()) {
            let features = FeatureSet::exp42();
            let model = predictor().model();
            let engine = spec.fleet(spec.shards).run(model, &features);
            let reference = spec.fleet(spec.shards).with_reference_driver().run(model, &features);
            prop_assert_eq!(&engine, &reference, "{:?}", spec);
            prop_assert_eq!(engine.downtime_secs.to_bits(), reference.downtime_secs.to_bits());
            prop_assert_eq!(engine.availability.to_bits(), reference.availability.to_bits());
            for (e, r) in engine.instances.iter().zip(&reference.instances) {
                prop_assert_eq!(e.downtime_secs.to_bits(), r.downtime_secs.to_bits(), "{}", e.name);
                prop_assert_eq!(e.availability.to_bits(), r.availability.to_bits(), "{}", e.name);
            }
            let sequential = if spec.shards == 1 {
                reference
            } else {
                spec.fleet(1).with_reference_driver().run(model, &features)
            };
            prop_assert_eq!(engine.epochs, sequential.epochs, "{:?}", spec);
            prop_assert_eq!(&engine.instances, &sequential.instances, "{:?}", spec);

            prop_assert_eq!(
                engine.checkpoints,
                engine.instances.iter().map(|i| i.checkpoints).sum::<u64>()
            );
            prop_assert!(engine.crashes_avoided <= engine.rejuvenations, "{}", engine);
            prop_assert!((0.0..=1.0).contains(&engine.availability), "{}", engine);
            for instance in &engine.instances {
                prop_assert!(instance.crashes_avoided <= instance.rejuvenations, "{:?}", instance);
                prop_assert!((0.0..=1.0).contains(&instance.availability), "{:?}", instance);
            }
        }

        /// Generated fleets: forks run on an audit lane or in the shards'
        /// counterfactual phase give the report of forks folded at their
        /// restart, byte for byte, on the scheduler and on the reference
        /// driver. Every fork is timed once, wherever it ran.
        #[test]
        fn generated_fleets_fold_forks_alike_on_every_path(spec in fleet_strategy()) {
            let features = FeatureSet::exp42();
            let model = predictor().model();
            let run = |path: ForkPath, reference: bool| {
                let registry = Registry::shared();
                let mut fleet = spec
                    .fleet(spec.shards)
                    .with_fork_path(path)
                    .with_telemetry(Arc::clone(&registry));
                if reference {
                    fleet = fleet.with_reference_driver();
                }
                let report = fleet.run(model, &features);
                let forks: u64 = report
                    .telemetry
                    .as_ref()
                    .expect("registry attached")
                    .histogram_series("fleet_counterfactual_seconds")
                    .iter()
                    .map(|h| h.count)
                    .sum();
                (outcome_json(&report), report.rejuvenations, forks)
            };
            let (inline, rejuvenations, inline_forks) = run(ForkPath::Inline, false);
            prop_assert_eq!(inline_forks, if spec.forks { rejuvenations } else { 0 }, "{:?}", spec);
            for path in [ForkPath::Lane, ForkPath::Phase] {
                for reference in [false, true] {
                    let (outcome, _, forks) = run(path, reference);
                    prop_assert_eq!(&outcome, &inline, "{:?} {:?} {}", spec, path, reference);
                    prop_assert_eq!(forks, inline_forks, "{:?} {:?} {}", spec, path, reference);
                }
            }
        }
    }

    /// A report's JSON with the wall-clock timing and the telemetry
    /// snapshot taken out: the simulated outcome, byte for byte.
    fn outcome_json(report: &FleetReport) -> String {
        let mut outcome = report.clone();
        outcome.timing = FleetTiming { wall_secs: 0.0, checkpoints_per_sec: 0.0 };
        outcome.telemetry = None;
        serde_json::to_string(&outcome).expect("reports serialise")
    }
}
