//! The sequential reference driver: the oracle the scheduler is held to.
//!
//! Every shard runs every epoch, in index order on the calling thread,
//! dead ones too, through the scheduler's membership path: the joins and
//! retires due land at the top of each shard epoch and the retirements
//! that surfaced are swept after it. Between two epochs the run's leader
//! steps run whenever one is due, through the same leader window as the
//! scheduler's. The run stops when nothing is live and nothing can revive
//! an instance: no join is queued and no autoscale spawn is left. Nothing
//! runs concurrently, so a scheduled report that differs from this
//! driver's is a scheduling bug. `Fleet::with_reference_driver` selects
//! it, so `run`, `run_adaptive`, `run_routed` and `run_discovered` reach it
//! through their normal wrapping, churn plans included.

use crate::engine::Run;
use crate::membership::Membership;
use crate::report::SchedulerStats;
use crate::shard::Shard;

/// Drives a fleet to the end of its run, one shard epoch at a time, and
/// returns the epochs it drove.
pub(crate) fn drive<'b>(
    shards: &mut [Shard<'b>],
    membership: &mut Membership,
    run: &Run<'_, 'b>,
) -> (u64, SchedulerStats) {
    let (mut epoch, mut cut) = (0, 0);
    loop {
        for (s, shard) in shards.iter_mut().enumerate() {
            let mut changes = membership.take_due(s, epoch).land(run, shard, epoch);
            shard.epoch(run.table, run.config, epoch);
            changes.sweep(run, shard);
            membership.record(epoch, changes);
        }
        epoch += 1;
        let joins_left = (0..shards.len()).any(|s| membership.next_join(s).is_some());
        if membership.live() == 0 && !joins_left && !membership.may_spawn() {
            return (epoch, SchedulerStats::default());
        }
        if run.next_boundary(cut, membership) == Some(epoch) {
            let mut parked: Vec<&mut Shard> = shards.iter_mut().collect();
            if let Err(payload) = run.leader_window(cut, epoch, &mut parked, membership) {
                std::panic::resume_unwind(payload);
            }
            cut = epoch;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::ForkPath;
    use crate::{
        AutoscaleRule, ChurnPlan, DiscoverySetup, Fleet, FleetConfig, FleetReport, FleetTiming,
        InstanceSpec, ServiceClass, WorkloadShift,
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

    /// perfbench's fleet-mixed classes under time-based and predictive
    /// policies: instance `i` of the fork-heavy golden fleets.
    fn mixed_spec(i: usize) -> InstanceSpec {
        let (ebs, n) = [(50, 15), (100, 15), (150, 30), (200, 30)][i % 4];
        let policy = if i % 2 == 0 {
            RejuvenationPolicy::TimeBased { interval_secs: 1200.0 }
        } else {
            RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 }
        };
        InstanceSpec::new(format!("mixed-{i}"), leaky(ebs, n), policy, 2_000 + i as u64)
    }

    fn web_spec(name: &str, seed: u64) -> InstanceSpec {
        let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
        InstanceSpec::new(name, leaky(100, 15), policy, seed)
    }

    /// The churn plans the crate's integration tests run, and two that
    /// revive a dead fleet: `(what, founders, plan, horizon hours)`.
    fn churn_scenarios() -> Vec<(&'static str, Vec<InstanceSpec>, ChurnPlan, f64)> {
        let golden = ChurnPlan::new()
            .join(60, mixed_spec(8))
            .join(60, mixed_spec(9))
            .join(150, mixed_spec(10))
            .retire(100, "mixed-2")
            .retire(200, "mixed-8")
            .retire(300, "mixed-5")
            .autoscale(AutoscaleRule {
                evaluate_every_epochs: 90,
                min_live: 8,
                max_spawns: 3,
                template: mixed_spec(11),
            });
        let elastic = ChurnPlan::new()
            .join(40, web_spec("late-0", 900))
            .join(40, web_spec("late-1", 901))
            .join(120, web_spec("late-2", 902))
            .retire(80, "web-1")
            .retire(80, "late-0")
            .retire(200, "web-4")
            .autoscale(AutoscaleRule {
                evaluate_every_epochs: 60,
                min_live: 6,
                max_spawns: 4,
                template: web_spec("spare", 1000),
            });
        let webs = |n: u64| (0..n).map(|i| web_spec(&format!("web-{i}"), 100 + i)).collect();
        // Epoch 500 is past the founders' 1.5 h (360-epoch) horizon.
        let late = ChurnPlan::new().join(500, web_spec("late-0", 900));
        let floor = ChurnPlan::new().autoscale(AutoscaleRule {
            evaluate_every_epochs: 100,
            min_live: 4,
            max_spawns: 3,
            template: web_spec("spare", 1000),
        });
        vec![
            ("golden", (0..8).map(mixed_spec).collect(), golden, 3.0),
            ("elastic", webs(6), elastic, 3.0),
            ("lone late join", webs(3), late, 1.5),
            ("autoscale floor", webs(4), floor, 1.5),
        ]
    }

    /// Frozen fleets under churn: joins, forced retires, autoscale spawns,
    /// a fleet that dies before its last join and one that autoscaling
    /// revives. The scheduler lets shards run ahead and fast-forwards dead
    /// ones; the reference runs every shard every epoch.
    #[test]
    fn engine_matches_reference_on_churn_plans() {
        for (what, specs, plan, hours) in churn_scenarios() {
            for shards in 1..=4 {
                let fleet = || {
                    Fleet::new(specs.clone(), config(shards, hours))
                        .unwrap()
                        .with_churn(plan.clone())
                        .unwrap()
                };
                let engine = fleet().run_with_predictor(predictor());
                let reference = fleet().with_reference_driver().run_with_predictor(predictor());
                let what = format!("{what}, {shards} shards");
                assert_same(&engine, &reference, &what);
                let churn = engine.churn.expect("a churn plan reports churn");
                assert_eq!(Some(churn), reference.churn, "{what}");
                assert!(churn.scripted_joins + churn.autoscale_spawns > 0, "{what}: {churn:?}");
            }
        }
    }

    /// A plan with a join, a forced retire and an autoscale floor.
    fn churn_plan(join: InstanceSpec, retire: &str, template: InstanceSpec) -> ChurnPlan {
        ChurnPlan::new().join(40, join).retire(150, retire).autoscale(AutoscaleRule {
            evaluate_every_epochs: 90,
            min_live: 7,
            max_spawns: 2,
            template,
        })
    }

    #[test]
    fn engine_matches_reference_on_churned_routed_and_discovered_runs() {
        let features = FeatureSet::exp42();
        let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
        let routed_spec = |i: u64| {
            let (class, scenario) =
                if i % 2 == 0 { ("heavy", leaky(150, 15)) } else { ("light", leaky(50, 30)) };
            InstanceSpec::new(format!("{class}-{i}"), scenario, policy, 300 + i)
                .with_class(ServiceClass::new(class))
        };
        let routed_plan = churn_plan(routed_spec(6), "light-1", routed_spec(7));
        let discovered_spec = |i: u64| InstanceSpec {
            shift: (i % 2 == 0).then(|| WorkloadShift {
                after_secs: 3.0 * 3600.0 * 0.25,
                scenario: leaky(150, 15),
            }),
            ..InstanceSpec::new(format!("svc-{i}"), leaky(100, 30), policy, 700 + i)
        };
        let discovered_plan = churn_plan(discovered_spec(6), "svc-2", discovered_spec(7));
        let setup = DiscoverySetup {
            reassess_every_epochs: 60,
            ..DiscoverySetup::new(frozen_template(predictor()))
        };
        for shards in 1..=3 {
            let fleet = |spec: &dyn Fn(u64) -> InstanceSpec, plan: &ChurnPlan, reference| {
                let fleet = Fleet::new((0..6).map(spec).collect(), config(shards, 3.0))
                    .unwrap()
                    .with_churn(plan.clone())
                    .unwrap();
                if reference {
                    fleet.with_reference_driver()
                } else {
                    fleet
                }
            };
            let routed = |reference| {
                let router = AdaptiveRouter::builder(features.variables().to_vec())
                    .class(ServiceClass::new("heavy"), frozen_template(predictor()))
                    .class(ServiceClass::new("light"), frozen_template(predictor()))
                    .spawn();
                let report =
                    fleet(&routed_spec, &routed_plan, reference).run_routed(&router, &features);
                router.shutdown();
                report.unwrap()
            };
            let (engine, reference) = (routed(false), routed(true));
            assert_same(&engine, &reference, &format!("routed, {shards} shards"));
            assert!(engine.churn.unwrap().forced_retires > 0, "{:?}", engine.churn);

            let discovered = |reference| {
                fleet(&discovered_spec, &discovered_plan, reference)
                    .run_discovered(&setup, &features)
                    .unwrap()
            };
            let (engine, reference) = (discovered(false), discovered(true));
            assert_same(&engine, &reference, &format!("discovered, {shards} shards"));
            assert!(engine.churn.unwrap().forced_retires > 0, "{:?}", engine.churn);
            let (e, r) = (engine.discovery.unwrap(), reference.discovery.unwrap());
            assert!(e.splits > 0, "the shifted half must split off: {e:?}");
            assert_eq!(e, r, "discovered, {shards} shards");
        }
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
    /// policy per instance (instance `i` runs class `i % classes`), and an
    /// optional churn plan.
    #[derive(Debug, Clone)]
    struct GeneratedFleet {
        classes: Vec<(u64, u32)>,
        policies: Vec<RejuvenationPolicy>,
        shards: usize,
        forks: bool,
        horizon_hours: f64,
        plan: Option<GeneratedPlan>,
    }

    /// A scripted membership change: `(instance, epoch)`.
    type Scripted = (String, u64);

    /// A generated churn plan, drawn as raw numbers that
    /// [`GeneratedFleet::fleet`] turns into a valid plan.
    #[derive(Debug, Clone)]
    struct GeneratedPlan {
        /// Scripted joins: `(epoch, class, policy)`.
        joins: Vec<(u64, usize, RejuvenationPolicy)>,
        /// Scripted retires: `(roster position, epochs after its join)`,
        /// the position taken modulo the founders and scripted joiners.
        retires: Vec<(usize, u64)>,
        /// An autoscale floor: `(interval, floor, spawn cap, class,
        /// policy)`.
        autoscale: Option<(u64, usize, usize, usize, RejuvenationPolicy)>,
    }

    impl GeneratedFleet {
        fn spec(
            &self,
            name: String,
            class: usize,
            policy: RejuvenationPolicy,
            seed: u64,
        ) -> InstanceSpec {
            let (ebs, n) = self.classes[class % self.classes.len()];
            InstanceSpec::new(name, leaky(ebs, n), policy, seed)
        }

        /// The plan's scripted joins and retires: `(instance, epoch)`.
        fn churn(&self) -> (Vec<Scripted>, Vec<Scripted>) {
            let Some(plan) = &self.plan else { return (Vec::new(), Vec::new()) };
            let mut roster: Vec<Scripted> =
                (0..self.policies.len()).map(|i| (format!("gen-{i}"), 0)).collect();
            let joins: Vec<Scripted> = plan
                .joins
                .iter()
                .enumerate()
                .map(|(k, j)| (format!("gen-join-{k}"), j.0))
                .collect();
            roster.extend(joins.iter().cloned());
            let retires = plan
                .retires
                .iter()
                .map(|&(position, after)| {
                    let (name, joined) = &roster[position % roster.len()];
                    (name.clone(), joined + after)
                })
                .collect();
            (joins, retires)
        }

        fn fleet(&self, shards: usize) -> Fleet {
            let specs = self
                .policies
                .iter()
                .enumerate()
                .map(|(i, &policy)| self.spec(format!("gen-{i}"), i, policy, 1_000 + i as u64))
                .collect();
            let mut config = config(shards, self.horizon_hours);
            if !self.forks {
                config.counterfactual_horizon_secs = 0.0;
            }
            let fleet = Fleet::new(specs, config).unwrap();
            let Some(generated) = &self.plan else { return fleet };
            let (joins, retires) = self.churn();
            let mut plan = ChurnPlan::new();
            for (k, ((name, at), &(_, class, policy))) in
                joins.into_iter().zip(&generated.joins).enumerate()
            {
                plan = plan.join(at, self.spec(name, class, policy, 2_000 + k as u64));
            }
            for (name, at) in retires {
                plan = plan.retire(at, name);
            }
            if let Some((every, min_live, max_spawns, class, policy)) = generated.autoscale {
                plan = plan.autoscale(AutoscaleRule {
                    evaluate_every_epochs: every,
                    min_live,
                    max_spawns,
                    template: self.spec("gen-spare".into(), class, policy, 3_000),
                });
            }
            fleet.with_churn(plan).unwrap()
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

    /// Two fleets in three carry a churn plan.
    fn plan_strategy() -> impl Strategy<Value = Option<GeneratedPlan>> {
        (
            0u8..3,
            prop::collection::vec((1u64..=400, 0usize..3, policy_strategy()), 0..=3),
            prop::collection::vec((0usize..16, 1u64..=300), 0..=2),
            prop_oneof![
                Just(None),
                (30u64..=120, 1usize..=4, 1usize..=3, 0usize..3, policy_strategy()).prop_map(Some),
            ],
        )
            .prop_map(|(attach, joins, retires, autoscale)| {
                (attach > 0).then_some(GeneratedPlan { joins, retires, autoscale })
            })
    }

    fn fleet_strategy() -> impl Strategy<Value = GeneratedFleet> {
        (
            (
                prop::collection::vec((50u64..=200, 15u32..=45), 1..=3),
                prop::collection::vec(policy_strategy(), 1..=8),
                1usize..=4,
                prop_oneof![Just(true), Just(false)],
                1.0..=2.0f64,
            ),
            plan_strategy(),
        )
            .prop_map(|((classes, policies, shards, forks, horizon_hours), plan)| {
                GeneratedFleet { classes, policies, shards, forks, horizon_hours, plan }
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

            // Membership lands where the plan put it, and the books balance.
            prop_assert_eq!(engine.churn.is_some(), spec.plan.is_some(), "{:?}", spec);
            let Some(churn) = engine.churn else { return Ok(()) };
            let (joins, retires) = spec.churn();
            prop_assert_eq!(churn.scripted_joins, joins.len() as u64, "{:?}", spec);
            prop_assert_eq!(
                churn.final_live + churn.forced_retires + churn.natural_retires,
                spec.policies.len() as u64 + churn.scripted_joins + churn.autoscale_spawns,
                "{:?} {:?}",
                churn,
                spec
            );
            let instance = |name: &str| engine.instances.iter().find(|i| i.name == name);
            for (name, at) in joins {
                prop_assert_eq!(instance(&name).map(|i| i.joined_epoch), Some(at), "{}", name);
            }
            for (name, at) in retires {
                let retired = instance(&name).and_then(|i| i.retired_epoch);
                prop_assert!(retired.is_some_and(|r| r <= at), "{} retired {:?}, plan {}", name, retired, at);
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

    /// A report's JSON with the wall-clock timing, the telemetry snapshot
    /// and the scheduler's interleaving counters taken out: the simulated
    /// outcome, byte for byte.
    fn outcome_json(report: &FleetReport) -> String {
        let mut outcome = report.clone();
        outcome.timing = FleetTiming { wall_secs: 0.0, checkpoints_per_sec: 0.0 };
        outcome.telemetry = None;
        outcome.scheduler = None;
        serde_json::to_string(&outcome).expect("reports serialise")
    }
}
