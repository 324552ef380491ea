//! The fleet engine: sharding, the worker pool and lock-step epochs.

use crate::churn::{potential_roster, ChurnPlan};
use crate::config::{
    validate_config, validate_discovery, validate_spec, DiscoverySetup, FleetConfig, FleetError,
    InstanceSpec,
};
use crate::instance::Instance;
use crate::report::{
    DiscoveredClass, DiscoveryEvaluation, DiscoveryReport, FleetReport, FleetTiming,
    InstanceReport, JournalStats,
};
use crate::scheduler::{run_elastic, ElasticArgs, SchedulerConfig};
use crate::shard::{Shard, ShardInstruments};
use crate::step::EpochStep;
use aging_adapt::discovery::{ClassDiscovery, SignatureAccumulator};
use aging_adapt::{
    AdaptiveRouter, AdaptiveService, CheckpointBus, ClassSpec, ModelService, ServiceClass,
};
use aging_core::{AgingPredictor, RejuvenationPolicy};
use aging_journal::{Journal, JournalRecord};
use aging_ml::Regressor;
use aging_monitor::FeatureSet;
use aging_obs::{
    trace_of, CounterHandle, EventKind, EventScope, FlightRecorder, GaugeHandle, HistogramHandle,
    Recorder, Registry, TraceHandle, Unit,
};
use aging_testbed::Scenario;
use aging_tune::FleetTuner;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Where the worker threads get their models from.
///
/// A frozen binding serves one `&dyn Regressor` for the whole run (the
/// original engine behaviour, bit-exact with `evaluate_policy`). An
/// adaptive binding resolves batched TTF queries through one
/// [`ModelService`] shared by every class; a routed binding holds one
/// service **per class** (`services` is indexed by the fleet's class
/// table). Either way each worker *pins* its model snapshots per epoch —
/// polling a generation counter costs one atomic load per class — and
/// re-pins at the next epoch boundary after a publish, so one epoch's
/// batch is always served by exactly one generation per class.
pub(crate) enum ModelBinding<'a> {
    Frozen(&'a dyn Regressor),
    Adaptive(&'a ModelService),
    Routed(Vec<Arc<ModelService>>),
    /// Class-discovery runs: the class table grows mid-run, so workers
    /// sync their pins from the shared runtime at epoch boundaries.
    Discovered(&'a DiscoveryRuntime<'a>),
}

/// Discovery-side telemetry, resolved once per run. All handles are
/// disabled (one untaken branch per use) when no registry is attached.
#[derive(Debug, Default)]
struct DiscoveryInstruments {
    /// `discovery_evaluation_seconds` — wall time of one leader-side
    /// partition re-evaluation (clustering + router bookkeeping).
    evaluation: HistogramHandle,
    /// `discovery_silhouette` — silhouette score of the latest accepted
    /// partition.
    silhouette: GaugeHandle,
    /// `discovery_splits_total` — classes spawned by silhouette-gated
    /// splits.
    splits: CounterHandle,
    /// `discovery_merges_total` — classes retired by merges.
    merges: CounterHandle,
    /// `discovery_reassignments_total` — instances re-routed to another
    /// class.
    reassignments: CounterHandle,
}

impl DiscoveryInstruments {
    fn resolve(registry: &Registry) -> Self {
        DiscoveryInstruments {
            evaluation: registry.histogram(
                "discovery_evaluation_seconds",
                "Wall time of one class-discovery partition re-evaluation",
                Unit::Seconds,
            ),
            silhouette: registry.gauge(
                "discovery_silhouette",
                "Silhouette score of the latest class-discovery evaluation",
            ),
            splits: registry
                .counter("discovery_splits_total", "Classes spawned by discovery splits"),
            merges: registry
                .counter("discovery_merges_total", "Classes retired by discovery merges"),
            reassignments: registry.counter(
                "discovery_reassignments_total",
                "Instances re-routed to another discovered class",
            ),
        }
    }
}

/// Shared coordination state of a [`Fleet::run_discovered`] run.
///
/// Workers write instance signatures before the epoch barrier; the
/// barrier leader re-evaluates the partition between the two barrier
/// waits (the only single-threaded window of the epoch protocol) and
/// publishes the new assignment through `version`; every worker applies
/// it at the top of the next epoch — so an instance's class, like its
/// model snapshot, is pinned within an epoch.
/// Test seam: makes the barrier leader's discovery step panic once it
/// has completed this many epochs, exercising the catch-unwind +
/// flight-recorder dump path in the single-threaded window. `u64::MAX`
/// disables it.
#[cfg(test)]
pub(crate) static DISCOVERY_PANIC_AT: AtomicU64 = AtomicU64::new(u64::MAX);

pub(crate) struct DiscoveryRuntime<'a> {
    router: &'a AdaptiveRouter,
    pub(crate) setup: &'a DiscoverySetup,
    /// Durable journal: each discovery step appends the partition it
    /// just published, so a replay can restore the assignment alongside
    /// the learned state. `None` without [`Fleet::with_journal`].
    journal: Option<Arc<Journal>>,
    /// Instance names in spec order — the identifiers the journalled
    /// partition pairs with class names.
    instance_names: Vec<String>,
    /// The fleet-side class table, indexed by discovery class id:
    /// `(class name, serving side)`. Append-only — retired classes keep
    /// their slot so worker pins stay aligned.
    pub(crate) classes: RwLock<Vec<(ServiceClass, Arc<ModelService>)>>,
    /// Current class id per instance (roster order).
    pub(crate) assignment: Vec<AtomicUsize>,
    /// Latest signature per instance (roster order), refreshed at
    /// reassessment boundaries. Elastic runs size this for the *potential*
    /// roster; slots of instances that never join stay `None`.
    pub(crate) signatures: Vec<Mutex<Option<Vec<f64>>>>,
    /// Provisioned population: instances that joined minus instances
    /// churn-retired. The min-ready-fraction gate of every discovery
    /// evaluation is computed against this *live* count, not the slot
    /// count — a half-empty roster of potential autoscale spawns must not
    /// starve the gate. Natural horizon ageing does **not** decrement it
    /// (dead instances keep their signatures and kept counting before
    /// elasticity, bit-compatibly).
    pub(crate) population: AtomicUsize,
    discovery: Mutex<ClassDiscovery>,
    reassignments: AtomicU64,
    /// Per-evaluation timeline, folded into the final report.
    log: Mutex<Vec<DiscoveryEvaluation>>,
    /// Bumped after every discovery step; workers re-sync when it moves.
    pub(crate) version: AtomicU64,
    /// A panic raised inside the leader's discovery step — caught so the
    /// barrier protocol can drain, rethrown to the caller after join.
    pub(crate) panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Leader-side discovery telemetry; disabled handles without a
    /// registry.
    instruments: DiscoveryInstruments,
    /// Trace sink for evaluation/split/merge/reassignment events;
    /// disabled when tracing is off.
    trace: TraceHandle,
}

impl DiscoveryRuntime<'_> {
    /// One partition re-evaluation, run in the single-threaded leader
    /// window — by the barrier leader between the epoch's two waits
    /// (lock-step), or by the scheduled leader task with every shard
    /// parked at the boundary (event-driven). `epochs_done` is the number
    /// of completed fleet epochs.
    pub(crate) fn step(&self, epochs_done: u64) {
        #[cfg(test)]
        if epochs_done == DISCOVERY_PANIC_AT.load(Ordering::Relaxed) {
            panic!("synthetic discovery panic at epoch {epochs_done}");
        }
        let evaluation_span = self.instruments.evaluation.span();
        let signatures: Vec<Option<Vec<f64>>> = self
            .signatures
            .iter()
            .map(|m| m.lock().expect("signature slot poisoned").clone())
            .collect();
        let ready = signatures.iter().filter(|s| s.is_some()).count();
        let outcome = self
            .discovery
            .lock()
            .expect("discovery engine poisoned")
            .evaluate_with_population(&signatures, self.population.load(Ordering::Relaxed));
        self.instruments.silhouette.set(outcome.silhouette);
        self.instruments.splits.add(outcome.new_classes.len() as u64);
        self.instruments.merges.add(outcome.retired.len() as u64);
        let evaluated = self.trace.emit(
            EventScope::root(),
            EventKind::DiscoveryEvaluated {
                silhouette: outcome.silhouette,
                active_classes: outcome.active_classes as u64,
                ready_instances: ready as u64,
            },
        );

        // New classes first, so every id the assignment references exists
        // before any worker can observe the new version.
        if !outcome.new_classes.is_empty() {
            let mut classes = self.classes.write().expect("class table poisoned");
            for nc in &outcome.new_classes {
                // Inherit the nearest centroid's currently *published*
                // model as generation 0 — the best prior the fleet has
                // for a regime that just split off.
                let (initial, seeded_from) = match nc.seeded_from {
                    Some(src) => (classes[src].1.snapshot().model, classes[src].0.to_string()),
                    None => (Arc::clone(&self.setup.template.initial), "template".to_string()),
                };
                let name = ServiceClass::new(format!("discovered-{}", nc.id));
                let spec = ClassSpec::builder(Arc::clone(&self.setup.template.learner), initial)
                    .config(self.setup.template.config)
                    .policy(Arc::clone(&self.setup.template.policy))
                    .build();
                let service = self
                    .router
                    .register_class(name.clone(), spec)
                    .expect("discovery ids are unique for the router's lifetime");
                assert_eq!(classes.len(), nc.id, "class table must align with discovery ids");
                let _ = self.trace.emit(
                    EventScope::root().class(name.as_str()).parent(evaluated),
                    EventKind::ClassSplit { seeded_from },
                );
                classes.push((name, service));
            }
        }

        // Re-point instances. Not-ready instances keep their class unless
        // it was just retired, in which case they follow the merge.
        let retired_into: HashMap<usize, usize> =
            outcome.retired.iter().map(|r| (r.id, r.into)).collect();
        for (i, slot) in outcome.assignment.iter().enumerate() {
            let current = self.assignment[i].load(Ordering::Relaxed);
            let next = match slot {
                Some(id) => *id,
                None => retired_into.get(&current).copied().unwrap_or(current),
            };
            if next != current {
                self.assignment[i].store(next, Ordering::Relaxed);
                self.reassignments.fetch_add(1, Ordering::Relaxed);
                self.instruments.reassignments.inc();
                if self.trace.enabled() {
                    let classes = self.classes.read().expect("class table poisoned");
                    let _ = self.trace.emit(
                        EventScope::root().class(classes[next].0.as_str()).parent(evaluated),
                        EventKind::ClassReassigned {
                            instance: i as u64,
                            from: classes[current].0.to_string(),
                        },
                    );
                }
            }
        }

        // Retire on the router last: assignments already point away, so
        // the drained buffer lands in the target before its next batch.
        if !outcome.retired.is_empty() {
            let classes = self.classes.read().expect("class table poisoned");
            for r in &outcome.retired {
                let (from, _) = &classes[r.id];
                let (into, _) = &classes[r.into];
                self.router.retire_class(from, into).expect("both classes are registered");
                let _ = self.trace.emit(
                    EventScope::root().class(from.as_str()).parent(evaluated),
                    EventKind::ClassMerged { into: into.to_string() },
                );
            }
        }
        self.version.fetch_add(1, Ordering::Release);

        // Journal the partition the fleet runs under from the next epoch:
        // `(instance, class)` pairs in spec order. An append failure is
        // reported but not fatal — the partition regenerates on replay by
        // re-running discovery, the record just short-circuits that.
        if let Some(journal) = &self.journal {
            let classes = self.classes.read().expect("class table poisoned");
            let assignment = self
                .instance_names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let id = self.assignment[i].load(Ordering::Relaxed);
                    (name.clone(), classes[id].0.to_string())
                })
                .collect();
            drop(classes);
            let record = JournalRecord::PartitionAssigned {
                version: self.version.load(Ordering::Relaxed),
                assignment,
            };
            if let Err(err) = journal.append(&record) {
                eprintln!("aging-fleet: journalling discovery partition failed: {err}");
            }
        }

        // Timeline entry: what this evaluation decided, plus a live
        // snapshot of each class's adaptation counters.
        let stats = self.router.stats();
        let classes = self.classes.read().expect("class table poisoned");
        let entry = DiscoveryEvaluation {
            epoch: epochs_done,
            ready_instances: ready,
            active_classes: outcome.active_classes,
            silhouette: outcome.silhouette,
            new_classes: outcome
                .new_classes
                .iter()
                .map(|nc| classes[nc.id].0.to_string())
                .collect(),
            retired_classes: outcome.retired.iter().map(|r| classes[r.id].0.to_string()).collect(),
            reassignments: self.reassignments.load(Ordering::Relaxed),
            class_drift_events: stats
                .classes
                .iter()
                .map(|c| (c.class.to_string(), c.stats.drift_events))
                .collect(),
            class_generations: stats
                .classes
                .iter()
                .map(|c| (c.class.to_string(), c.stats.generation))
                .collect(),
        };
        drop(classes);
        self.log.lock().expect("log poisoned").push(entry);
        evaluation_span.finish();
    }

    /// The final discovery report (after the run has joined).
    fn report(&self, n_instances: usize) -> DiscoveryReport {
        let classes = self.classes.read().expect("class table poisoned");
        let discovery = self.discovery.lock().expect("discovery engine poisoned");
        let assignment: Vec<usize> =
            (0..n_instances).map(|i| self.assignment[i].load(Ordering::Relaxed)).collect();
        let mut members = vec![0usize; classes.len()];
        for &id in &assignment {
            members[id] += 1;
        }
        DiscoveryReport {
            classes: classes
                .iter()
                .enumerate()
                .map(|(id, (name, _))| DiscoveredClass {
                    class: name.to_string(),
                    members: members[id],
                    retired: discovery.is_retired(id),
                })
                .collect(),
            evaluations_log: self.log.lock().expect("log poisoned").clone(),
            assignment: assignment.iter().map(|&id| classes[id].0.to_string()).collect(),
            reassignments: self.reassignments.load(Ordering::Relaxed),
            evaluations: discovery.evaluations(),
            splits: discovery.splits(),
            merges: discovery.merges(),
        }
    }
}

/// Emits one `SwapApplied` event per generation this shard's pin just
/// skipped over — `(from, to]` — each parented on its generation's
/// publish event, so the causal chain closes the loop from drift back to
/// the worker actually serving the new model. Called only when a refresh
/// moved the pin, which is rare; the enabled check keeps even that path
/// free when tracing is off.
pub(crate) fn emit_swaps(
    trace: &TraceHandle,
    class: &str,
    shard: u32,
    from: u64,
    to: u64,
    service: &ModelService,
) {
    if !trace.enabled() {
        return;
    }
    for generation in (from + 1)..=to {
        let _ = trace.emit(
            EventScope::root()
                .class(class)
                .shard(shard)
                .generation(generation)
                .parent(service.publish_event_for(generation)),
            EventKind::SwapApplied,
        );
    }
}

/// Builds one [`Instance`] for the given binding — used for the initial
/// roster and for every elastic join, so a joiner is wired exactly like a
/// founding member. `global_idx` is the instance's slot in the (potential)
/// roster; discovered runs read their current class assignment from it.
pub(crate) fn make_instance(
    spec: InstanceSpec,
    features: &FeatureSet,
    binding: &ModelBinding<'_>,
    classes: &[ServiceClass],
    joined_epoch: u64,
    global_idx: usize,
) -> Instance {
    match binding {
        ModelBinding::Discovered(runtime) => {
            let table = runtime.classes.read().expect("class table poisoned");
            let id = runtime.assignment[global_idx].load(Ordering::Relaxed);
            let mut instance = Instance::new(spec, features, id, joined_epoch);
            instance.enable_discovery(
                SignatureAccumulator::new(runtime.setup.signature, features.variables()),
                table[id].0.clone(),
            );
            instance
        }
        _ => {
            let class_idx = classes
                .iter()
                .position(|c| c == &spec.class)
                .expect("class table covers every spec, churn joiners included");
            Instance::new(spec, features, class_idx, joined_epoch)
        }
    }
}

/// A set of simulated deployments operated concurrently under shared
/// trained models.
///
/// Construction validates every spec; [`Fleet::run`] shards the instances
/// across a fixed pool of worker threads and drives them in lock-step
/// epochs of 15-second checkpoints, batching each shard's TTF inferences
/// through [`Regressor::predict_matrix`] over flat reusable
/// [`aging_ml::FeatureMatrix`]es (one per service class).
/// [`Fleet::run_adaptive`] runs the same loop against an
/// [`AdaptiveService`]; [`Fleet::run_routed`] runs it against an
/// [`AdaptiveRouter`], giving every [`ServiceClass`] its own adapting
/// model.
#[derive(Debug)]
pub struct Fleet {
    specs: Vec<InstanceSpec>,
    config: FleetConfig,
    telemetry: Option<Arc<Registry>>,
    trace: Option<Arc<FlightRecorder>>,
    journal: Option<Arc<Journal>>,
    tuner: Option<FleetTuner>,
    churn: Option<ChurnPlan>,
    scheduler: Option<SchedulerConfig>,
}

impl Fleet {
    /// Assembles a fleet from explicit per-instance specs.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::NoInstances`] for an empty spec list and
    /// [`FleetError::InvalidParameter`] for degenerate policy or
    /// configuration values (same rules as the single-instance
    /// `evaluate_policy`).
    pub fn new(specs: Vec<InstanceSpec>, config: FleetConfig) -> Result<Self, FleetError> {
        if specs.is_empty() {
            return Err(FleetError::NoInstances);
        }
        validate_config(&config)?;
        for spec in &specs {
            validate_spec(spec)?;
        }
        Ok(Fleet {
            specs,
            config,
            telemetry: None,
            trace: None,
            journal: None,
            tuner: None,
            churn: None,
            scheduler: None,
        })
    }

    /// Attaches a telemetry registry: epoch-phase and barrier-wait timings
    /// land in it per shard, discovery instrumentation per evaluation, and
    /// the final [`FleetReport::telemetry`] carries its snapshot. Pass the
    /// *same* registry to the adaptation side's builders
    /// ([`aging_adapt::AdaptiveServiceBuilder::telemetry`],
    /// [`aging_adapt::AdaptiveRouterBuilder::telemetry`]) to get one
    /// unified snapshot; discovered runs wire their internal router
    /// automatically. Without this call the fleet pays one untaken branch
    /// per phase — never a clock read per checkpoint.
    #[must_use]
    pub fn with_telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Attaches a causal trace sink: per-shard model-swap events and the
    /// leader's epoch marks land in `recorder`, and a worker panic dumps
    /// the recorder's ring to stderr as JSONL before the payload is
    /// rethrown. Pass the *same* recorder to the adaptation side's
    /// builders ([`aging_adapt::AdaptiveServiceBuilder::trace`],
    /// [`aging_adapt::AdaptiveRouterBuilder::trace`]) to get one unified
    /// causal stream — drift → trigger → refit → publish → swap all in
    /// one [`aging_obs::Trace`]; discovered runs wire their internal
    /// router automatically. Without this call no event is built and no
    /// clock is read on any trace site.
    #[must_use]
    pub fn with_trace(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Attaches a durable checkpoint journal. Discovered runs
    /// ([`Fleet::run_discovered`]) wire it through their internal router
    /// — every routed batch is journalled *before* it is buffered — and
    /// additionally record a [`JournalRecord::PartitionAssigned`] entry
    /// at each discovery boundary, so a replay can restore both the
    /// learned state and the discovered partition. For
    /// [`Fleet::run_adaptive`]/[`Fleet::run_routed`], attach the journal
    /// to the externally built service/router instead
    /// ([`aging_adapt::AdaptiveServiceBuilder::journal`],
    /// [`aging_adapt::AdaptiveRouterBuilder::journal`]) and pass the same
    /// handle here so [`FleetReport::journal`] carries its counters.
    #[must_use]
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Attaches a background policy tuner to the next
    /// [`Fleet::run_routed`] call: while the fleet runs, a dedicated
    /// thread repeatedly searches the rejuvenation-policy space off the
    /// live checkpoint journal ([`FleetTuner::step`]) and publishes every
    /// gate-approved promotion into the router via
    /// [`AdaptiveRouter::apply_spec`] — the fleet literally re-configures
    /// its own adaptation policies mid-run. The final report carries the
    /// tuner's counters in [`FleetReport::tuning`].
    ///
    /// The tuner inherits the fleet's telemetry registry and trace
    /// recorder (when attached), so `tune_*` metrics and
    /// `CandidateEvaluated`/`TuneRoundCompleted`/`PolicyPromoted` events
    /// land in the same sinks as everything else. Search rounds read the
    /// journal the run is writing; rounds that race the journal's
    /// creation are skipped and retried. A run whose promotion gate never
    /// fires is report-identical to the same run without a tuner (the
    /// `tuning` field aside, which equality ignores).
    #[must_use]
    pub fn with_tuner(mut self, tuner: FleetTuner) -> Self {
        self.tuner = Some(tuner);
        self
    }

    /// Attaches a [`ChurnPlan`]: scripted joins/retires and optional
    /// load-driven autoscaling make the population elastic. A fleet with
    /// a (non-empty) plan always executes on the event-driven scheduler
    /// (`with_scheduler`'s defaults unless one was attached explicitly) —
    /// the lock-step barrier engine assumes a fixed population.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidParameter`] when the plan is
    /// inconsistent with the fleet's roster: a join at epoch 0, a
    /// duplicated or invalid joining spec, a retire of an unknown
    /// instance or one scheduled at/before its own join, or a degenerate
    /// autoscale rule.
    pub fn with_churn(mut self, plan: ChurnPlan) -> Result<Self, FleetError> {
        plan.validate(&self.specs)?;
        self.churn = Some(plan);
        Ok(self)
    }

    /// Runs the fleet on the event-driven epoch scheduler instead of the
    /// lock-step barrier loop: shards advance through a ready queue, a
    /// slow shard never stalls the fleet, and the single-threaded leader
    /// window (discovery re-partition, autoscaling) becomes a scheduled
    /// task at epoch boundaries. On a churn-free fleet the scheduled
    /// report is bit-identical to the lock-step one (asserted by the
    /// determinism-oracle tests).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Convenience constructor: `n` deployments of the same scenario and
    /// policy, with seeds `base_seed, base_seed + 1, …` so every instance
    /// ages along its own sample path.
    ///
    /// # Errors
    ///
    /// See [`Fleet::new`].
    pub fn uniform(
        scenario: &Scenario,
        policy: RejuvenationPolicy,
        n: usize,
        base_seed: u64,
        config: FleetConfig,
    ) -> Result<Self, FleetError> {
        let specs = (0..n)
            .map(|i| {
                InstanceSpec::new(
                    format!("{}-{i:04}", scenario.name),
                    scenario.clone(),
                    policy,
                    base_seed.wrapping_add(i as u64),
                )
            })
            .collect();
        Fleet::new(specs, config)
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the fleet is empty (never true for a constructed fleet).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The distinct service classes of this fleet, in first-appearance
    /// order over the specs — the class table every routed run indexes.
    /// Elastic fleets include the classes of every *potential* member
    /// (scripted joiners and the autoscale template), so a joiner's model
    /// service exists before it ever joins.
    pub fn classes(&self) -> Vec<ServiceClass> {
        let mut classes: Vec<ServiceClass> = Vec::new();
        for (_, spec, _) in potential_roster(&self.specs, self.churn.as_ref()) {
            if !classes.contains(&spec.class) {
                classes.push(spec.class);
            }
        }
        classes
    }

    /// Operates the fleet to its horizon with a trained predictor, sharing
    /// its model and feature pipeline across all worker threads.
    pub fn run_with_predictor(self, predictor: &AgingPredictor) -> FleetReport {
        self.run(predictor.model(), predictor.features())
    }

    /// Operates the fleet to its horizon with one frozen model.
    ///
    /// `model` is shared by reference across the worker pool (it is `Sync`
    /// by the `Regressor` contract); `features` must be the set the model
    /// was trained on. The outcome is deterministic in the specs, seeds and
    /// config — wall-clock [`FleetTiming`] is the only non-reproducible
    /// part, and it is excluded from report equality.
    pub fn run(self, model: &dyn Regressor, features: &FeatureSet) -> FleetReport {
        self.run_bound(ModelBinding::Frozen(model), features, None)
    }

    /// Operates the fleet against a live [`AdaptiveService`]: shards
    /// resolve their batched TTF queries through the service's current
    /// model generation (pinned per epoch) and stream labelled crash
    /// epochs onto its [`CheckpointBus`], so the service retrains and
    /// publishes new generations *while the fleet keeps running* — worker
    /// threads never pause for training. Every class of the fleet is
    /// served by the one service (use [`Fleet::run_routed`] for per-class
    /// models).
    ///
    /// With drift triggering disabled ([`aging_adapt::DriftConfig`]
    /// `enabled: false` and no periodic schedule) the service never leaves
    /// generation 0 and this is outcome-identical to [`Fleet::run`] on the
    /// initial model.
    ///
    /// The returned report carries [`aging_adapt::AdaptationStats`]
    /// snapshotted at the end of the run. Because retraining proceeds
    /// concurrently with epoch processing, adaptive outcomes are *not*
    /// bit-deterministic across runs — which epoch first sees a new
    /// generation depends on thread scheduling. (For the same reason,
    /// drift-*enabled* runs are not comparable checkpoint-for-checkpoint
    /// across versions either: the labelled stream now also carries one
    /// monitor-only counterfactual observation per proactive restart,
    /// which feeds drift detection — deliberately, so an adapted fleet
    /// whose crashes have become rare keeps its detection and
    /// self-tuning alive. The bit-exact guarantees are the drift-DISABLED
    /// identities asserted by the integration tests, which are
    /// unaffected.)
    pub fn run_adaptive(self, service: &AdaptiveService, features: &FeatureSet) -> FleetReport {
        let mut report = self.run_bound(
            ModelBinding::Adaptive(service.model_service()),
            features,
            Some(service.bus()),
        );
        report.adaptation = Some(service.stats());
        report
    }

    /// Operates a heterogeneous fleet against an [`AdaptiveRouter`]: every
    /// instance's TTF queries resolve through **its class's** model
    /// service (pinned per worker epoch, re-pinned on generation change),
    /// and labelled crash epochs stream onto the router's bounded bus
    /// tagged with their class — so a workload shift in one class retrains
    /// that class's model while every other class keeps its own.
    ///
    /// The report carries the router's per-class
    /// [`aging_adapt::RouterStats`] (and the aggregate in
    /// `report.adaptation` is left `None` — classes don't share counters).
    /// The stats are snapshotted the moment the run returns, while the
    /// router may still be draining the last epochs' batches and fitting
    /// their refits; callers that need settled numbers should
    /// [`AdaptiveRouter::quiesce`] and re-read `router.stats()` (and may
    /// overwrite `report.routing` with the result).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidParameter`] when some instance's class
    /// has no registered model service on the router.
    pub fn run_routed(
        mut self,
        router: &AdaptiveRouter,
        features: &FeatureSet,
    ) -> Result<FleetReport, FleetError> {
        let services: Vec<Arc<ModelService>> = self
            .classes()
            .iter()
            .map(|class| {
                router.model_service(class).ok_or_else(|| {
                    FleetError::InvalidParameter(format!(
                        "no model service registered for service class `{class}`"
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        let tuner = self.tuner.take();
        let telemetry = self.telemetry.clone();
        let trace = self.trace.clone();
        // Policy search runs beside the epoch loop: one background thread
        // steps the tuner off the live journal and publishes every
        // gate-approved promotion into the router as a spec swap. The
        // thread is scoped, so it can borrow the router and is always
        // joined before the report leaves.
        let stop_tuning = AtomicBool::new(false);
        let (mut report, tuning) = std::thread::scope(|scope| {
            let tuner_handle = tuner.map(|mut tuner| {
                if let Some(registry) = &telemetry {
                    tuner.attach_telemetry(registry);
                }
                tuner.attach_trace(trace_of(&trace));
                let stop_tuning = &stop_tuning;
                let trace = trace.clone();
                scope.spawn(move || {
                    while !stop_tuning.load(Ordering::Acquire) {
                        let stepped = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            // Journal read errors are expected while the
                            // run has not created the directory yet — skip
                            // the round and retry.
                            if let Ok(promotions) = tuner.step() {
                                for promotion in promotions {
                                    if let Some(initial) = tuner.initial_for(&promotion.class) {
                                        let _ = router.apply_spec(
                                            &promotion.class,
                                            promotion.point.to_spec(initial),
                                        );
                                    }
                                }
                            }
                        }));
                        if stepped.is_err() {
                            // A panicking search (a learner blowing up on
                            // replayed data, say) must not strand the run:
                            // dump the flight recorder once and stop
                            // tuning; the fleet finishes under whatever
                            // incumbents are already live.
                            if let Some(recorder) = &trace {
                                recorder.dump_once("fleet tuner thread panicked");
                            }
                            break;
                        }
                        // Breathe between rounds in stop-checking slices so
                        // shutdown never waits on a sleeping tuner.
                        for _ in 0..5 {
                            if stop_tuning.load(Ordering::Acquire) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                    tuner.stats()
                })
            });
            let report =
                self.run_bound(ModelBinding::Routed(services), features, Some(router.bus()));
            stop_tuning.store(true, Ordering::Release);
            let tuning = tuner_handle.and_then(|handle| handle.join().ok());
            (report, tuning)
        });
        report.routing = Some(router.stats());
        report.tuning = tuning;
        Ok(report)
    }

    /// Operates the fleet with **no operator-assigned classes**: every
    /// instance starts in the seed class `discovered-0` (spec classes are
    /// ignored), served by `setup.template.initial`. Each instance's
    /// labelled-checkpoint stream is summarised into an aging-signature
    /// vector, and at every `setup.reassess_every_epochs` boundary the
    /// discovery engine re-clusters the fleet: a silhouette- and
    /// separation-gated split spawns a new class (with its own
    /// [`aging_adapt::AdaptationPipeline`] seeded from the nearest
    /// centroid's published model), converged classes merge back, and
    /// instances are re-routed — all at epoch boundaries, with the same
    /// pin discipline as the models.
    ///
    /// The returned report carries the discovered partition in
    /// [`FleetReport::discovery`] and the per-class router counters in
    /// [`FleetReport::routing`], read after waiting up to 60 s for the
    /// router to settle; [`FleetReport::quiesced`] says whether it did.
    /// With drift disabled in the template, outcomes and partitions are
    /// deterministic in the specs, seeds and config — shard count
    /// included.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidParameter`] for a zero reassessment
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate template config, threshold policy, router
    /// config or discovery config — the same panics the router builder
    /// and discovery constructors raise.
    pub fn run_discovered(
        self,
        setup: &DiscoverySetup,
        features: &FeatureSet,
    ) -> Result<FleetReport, FleetError> {
        validate_discovery(setup)?;
        let telemetry = self.telemetry.clone();
        let trace = self.trace.clone();
        let journal = self.journal.clone();
        let seed_class = ServiceClass::new("discovered-0");
        let mut router_builder = AdaptiveRouter::builder(features.variables().to_vec())
            .class(seed_class.clone(), setup.template.clone())
            .config(setup.router);
        if let Some(registry) = &telemetry {
            router_builder = router_builder.telemetry(Arc::clone(registry));
        }
        if let Some(recorder) = &trace {
            router_builder = router_builder.trace(Arc::clone(recorder));
        }
        if let Some(journal) = &journal {
            router_builder = router_builder.journal(Arc::clone(journal));
        }
        let router = router_builder.spawn();
        let mut discovery_engine = ClassDiscovery::new(setup.discovery);
        if let Some(registry) = &telemetry {
            discovery_engine.set_recorder(Arc::clone(registry) as Arc<dyn Recorder>);
        }
        // Elastic runs size the runtime's slots for the *potential*
        // roster — initial specs, scripted joiners, the autoscale pool —
        // so membership changes never reallocate shared state. Joined
        // instances always occupy a contiguous prefix of the roster.
        let roster = potential_roster(&self.specs, self.churn.as_ref());
        let n_slots = roster.len();
        let instance_names: Vec<String> =
            roster.iter().map(|(_, spec, _)| spec.name.clone()).collect();
        let (mut report, discovery_report) = {
            let runtime = DiscoveryRuntime {
                router: &router,
                setup,
                journal,
                instance_names,
                classes: RwLock::new(vec![(
                    seed_class.clone(),
                    router.model_service(&seed_class).expect("seed class registered above"),
                )]),
                assignment: (0..n_slots).map(|_| AtomicUsize::new(0)).collect(),
                signatures: (0..n_slots).map(|_| Mutex::new(None)).collect(),
                population: AtomicUsize::new(self.specs.len()),
                discovery: Mutex::new(discovery_engine),
                reassignments: AtomicU64::new(0),
                log: Mutex::new(Vec::new()),
                version: AtomicU64::new(0),
                panic_payload: Mutex::new(None),
                instruments: match &telemetry {
                    Some(registry) => DiscoveryInstruments::resolve(registry),
                    None => DiscoveryInstruments::default(),
                },
                trace: trace_of(&trace),
            };
            let report =
                self.run_bound(ModelBinding::Discovered(&runtime), features, Some(router.bus()));
            // Rethrow a caught leader panic BEFORE touching the runtime's
            // mutexes: the panic may have poisoned them mid-step, and a
            // poison panic out of `report()` would mask the real payload.
            if let Some(payload) = runtime.panic_payload.lock().expect("payload slot").take() {
                std::panic::resume_unwind(payload);
            }
            // Joined instances are a roster prefix, so the per-instance
            // report count is exactly the slice the partition covers.
            let joined = report.instances.len();
            (report, runtime.report(joined))
        };
        report.discovery = Some(discovery_report);
        // Settle the learning side so the reported counters are final, and
        // say so in the report when they are not.
        report.quiesced = Some(router.quiesce(Duration::from_secs(60)));
        report.routing = Some(router.stats());
        router.shutdown();
        // Re-snapshot after the quiesce so late refit/swap observations —
        // batches still draining when the epoch loop returned — are in.
        if let Some(registry) = &telemetry {
            report.telemetry = Some(registry.snapshot());
        }
        Ok(report)
    }

    fn run_bound(
        self,
        binding: ModelBinding<'_>,
        features: &FeatureSet,
        bus: Option<CheckpointBus>,
    ) -> FleetReport {
        // Discovered runs ignore the specs' operator classes: everything
        // starts in the seed class and the table grows as regimes appear.
        let classes = match &binding {
            ModelBinding::Discovered(runtime) => {
                vec![runtime.classes.read().expect("class table poisoned")[0].0.clone()]
            }
            _ => self.classes(),
        };
        let n_classes = classes.len();
        let Fleet { specs, config, telemetry, trace, journal, tuner: _, churn, scheduler } = self;
        let trace_handle = trace_of(&trace);
        let n_instances = specs.len();
        let n_shards = config.shards.min(n_instances).max(1);

        // Round-robin instances over shards; the original index rides along
        // so reports return in spec order regardless of sharding.
        let mut shards: Vec<Shard> = {
            let mut buckets: Vec<Vec<(usize, Instance)>> =
                (0..n_shards).map(|_| Vec::new()).collect();
            for (i, spec) in specs.into_iter().enumerate() {
                let instance = make_instance(spec, features, &binding, &classes, 0, i);
                buckets[i % n_shards].push((i, instance));
            }
            buckets
                .into_iter()
                .map(|bucket| Shard::new(bucket, features.len(), n_classes, bus.clone()))
                .collect()
        };
        if let Some(registry) = &telemetry {
            for (idx, shard) in shards.iter_mut().enumerate() {
                shard.set_instruments(ShardInstruments::resolve(registry, idx));
            }
        }
        // The fleet epoch counter, resolved once before any pool starts;
        // a disabled handle keeps the untelemetered loop free of clock
        // reads. Both engines advance it so `fleet_epochs_total` always
        // equals the report's epoch count.
        let epochs_counter = match &telemetry {
            Some(registry) => {
                registry.counter("fleet_epochs_total", "Completed lock-step fleet epochs")
            }
            None => CounterHandle::disabled(),
        };
        let default_class = ServiceClass::default();
        let started = Instant::now();
        let binding = &binding;
        let classes = &classes[..];

        // Elastic runs — a churn plan or an explicit scheduler config —
        // execute on the event-driven epoch scheduler; everything else
        // keeps the lock-step barrier loop (the determinism oracle).
        let elastic = churn.is_some() || scheduler.is_some();
        let (epochs, churn_stats, scheduler_stats) = if elastic {
            let outcome = run_elastic(ElasticArgs {
                shards: &mut shards,
                binding,
                classes,
                default_class: &default_class,
                config: &config,
                features,
                churn: churn.as_ref(),
                scheduler: scheduler.unwrap_or_default(),
                telemetry: telemetry.as_deref(),
                trace_recorder: trace.as_deref(),
                trace: trace_handle.clone(),
                journal: journal.as_deref(),
                epochs_counter: epochs_counter.clone(),
            });
            // Churn accounting only reports when a plan was attached: a
            // plain scheduled run must compare equal to its lock-step
            // oracle, and `FleetReport::churn` participates in equality.
            (outcome.epochs, churn.as_ref().map(|_| outcome.churn), Some(outcome.scheduler))
        } else {
            // Barrier-wait histograms (one per shard) and the leader-phase
            // histogram, resolved once before the pool starts.
            let barrier_waits: Vec<HistogramHandle> = (0..n_shards)
                .map(|idx| match &telemetry {
                    Some(registry) => registry.histogram_with(
                        "fleet_barrier_wait_seconds",
                        "Wall time one shard spends parked per epoch-barrier wait (two waits per epoch)",
                        Unit::Seconds,
                        "shard",
                        &idx.to_string(),
                    ),
                    None => HistogramHandle::disabled(),
                })
                .collect();
            // The leader's inter-barrier work gets its own series — before
            // this existed, leader time was silently blamed on every other
            // worker's barrier-wait histogram.
            let leader_hist = match &telemetry {
                Some(registry) => registry.histogram(
                    "fleet_leader_step_seconds",
                    "Wall time of the leader's single-threaded inter-barrier window per epoch",
                    Unit::Seconds,
                ),
                None => HistogramHandle::disabled(),
            };

            // Lock-step epoch loop. Every worker advances its shard by one
            // checkpoint ([`EpochStep::run`], shared with the event-driven
            // scheduler), then the fleet synchronises on a barrier.
            // Liveness is accumulated into a parity-indexed counter pair:
            // epoch `e` adds to `live[e % 2]`, and between the two barrier
            // waits — when no thread can be writing either counter — the
            // leader zeroes the counter the *next* epoch will use. Workers
            // therefore agree on "anyone still live?" at every epoch and
            // exit together.
            //
            // A panicking epoch (a model or simulator assertion) must not
            // strand the sibling workers at the barrier, so each epoch runs
            // under `catch_unwind`: the panicking worker still completes
            // the epoch's two waits while raising the shared `panicked`
            // flag, every worker exits at the epoch boundary, and the
            // payload is rethrown on join.
            let barrier = Barrier::new(n_shards);
            let live = [AtomicU64::new(0), AtomicU64::new(0)];
            let panicked = AtomicBool::new(false);

            let epochs = std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter_mut()
                    .enumerate()
                    .map(|(shard_idx, shard)| {
                        let barrier = &barrier;
                        let live = &live;
                        let panicked = &panicked;
                        let trace_recorder = trace.as_deref();
                        let default_class = &default_class;
                        let config = &config;
                        let barrier_wait = barrier_waits[shard_idx].clone();
                        let leader_hist = leader_hist.clone();
                        let epochs_counter = epochs_counter.clone();
                        let trace_handle = trace_handle.clone();
                        scope.spawn(move || {
                            let mut step =
                                EpochStep::new(binding, n_classes, shard_idx, trace_handle.clone());
                            let mut epoch = 0u64;
                            loop {
                                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                    step.run(shard, binding, classes, default_class, config, epoch)
                                        as u64
                                }));
                                let shard_live = match &outcome {
                                    Ok(n) => *n,
                                    Err(_) => {
                                        panicked.store(true, Ordering::SeqCst);
                                        // Flight-recorder dump: the newest
                                        // events leading up to the panic,
                                        // once per recorder across every
                                        // panic site, before the payload is
                                        // rethrown.
                                        if let Some(recorder) = trace_recorder {
                                            recorder.dump_once(&format!(
                                                "fleet worker panicked on shard {shard_idx} \
                                                 (epoch {epoch})"
                                            ));
                                        }
                                        0
                                    }
                                };
                                // Reassessment boundary: publish this
                                // shard's signatures before the barrier so
                                // the leader sees every instance's latest
                                // stream.
                                let reassess = EpochStep::reassess_after(binding, epoch);
                                if reassess {
                                    if let ModelBinding::Discovered(runtime) = binding {
                                        EpochStep::publish_signatures(shard, runtime);
                                    }
                                }
                                let parity = (epoch % 2) as usize;
                                live[parity].fetch_add(shard_live, Ordering::SeqCst);
                                let wait_span = barrier_wait.span();
                                let wait = barrier.wait();
                                wait_span.finish();
                                let keep_going = live[parity].load(Ordering::SeqCst) > 0
                                    && !panicked.load(Ordering::SeqCst);
                                if wait.is_leader() {
                                    let leader_span = leader_hist.span();
                                    epochs_counter.inc();
                                    let _ = trace_handle.emit(
                                        EventScope::root(),
                                        EventKind::EpochCompleted { epoch },
                                    );
                                    live[1 - parity].store(0, Ordering::SeqCst);
                                    // The inter-barrier window is the epoch
                                    // protocol's only single-threaded
                                    // section: the leader re-evaluates the
                                    // partition here, every other worker
                                    // parked at the second wait. A panicking
                                    // step must not strand them — catch,
                                    // flag, rethrow after join.
                                    if reassess && keep_going {
                                        if let ModelBinding::Discovered(runtime) = binding {
                                            if let Err(payload) =
                                                std::panic::catch_unwind(AssertUnwindSafe(|| {
                                                    runtime.step(epoch + 1)
                                                }))
                                            {
                                                panicked.store(true, Ordering::SeqCst);
                                                // Same once-per-recorder
                                                // dump as the worker path —
                                                // whoever panics first wins
                                                // the gate.
                                                if let Some(recorder) = trace_recorder {
                                                    recorder.dump_once(&format!(
                                                        "discovery step panicked at epoch {}",
                                                        epoch + 1
                                                    ));
                                                }
                                                *runtime
                                                    .panic_payload
                                                    .lock()
                                                    .expect("payload slot") = Some(payload);
                                            }
                                        }
                                    }
                                    leader_span.finish();
                                }
                                let wait_span = barrier_wait.span();
                                barrier.wait();
                                wait_span.finish();
                                epoch += 1;
                                if let Err(payload) = outcome {
                                    std::panic::resume_unwind(payload);
                                }
                                if !keep_going {
                                    return epoch;
                                }
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(epochs) => epochs,
                        // Rethrow the worker's original payload to the
                        // caller.
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .max()
                    .unwrap_or(0)
            });
            (epochs, None, None)
        };

        let wall_secs = started.elapsed().as_secs_f64();
        let mut reports: Vec<(usize, InstanceReport)> = shards
            .iter()
            .flat_map(|s| s.instances.iter().map(|(i, inst)| (*i, inst.report())))
            .collect();
        reports.sort_by_key(|(i, _)| *i);
        let instances: Vec<InstanceReport> = reports.into_iter().map(|(_, r)| r).collect();
        let checkpoints: u64 = instances.iter().map(|i| i.checkpoints).sum();
        let timing = FleetTiming {
            wall_secs,
            checkpoints_per_sec: if wall_secs > 0.0 { checkpoints as f64 / wall_secs } else { 0.0 },
        };
        let mut report = FleetReport::aggregate(
            instances,
            n_shards,
            epochs,
            config.rejuvenation.horizon_secs,
            timing,
        );
        report.churn = churn_stats;
        report.scheduler = scheduler_stats;
        report.telemetry = telemetry.as_ref().map(|registry| registry.snapshot());
        report.journal = journal.as_ref().map(|journal| JournalStats {
            appended_records: journal.appended(),
            fsyncs: journal.fsyncs(),
            segment_rotations: journal.rotations(),
        });
        report
    }
}
