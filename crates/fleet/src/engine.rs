//! The fleet front end: the [`Fleet`] builder, the model table, the
//! discovery runtime, the leader steps, sharding and report assembly.
//! `Fleet::run_bound` builds one [`Run`] — the table, the list of leader
//! steps (discovery, then autoscale) and the sinks — and hands it, the
//! shards and the run's membership (`crate::membership`) to a driver: the
//! scheduler (`crate::scheduler`), or the sequential reference driver in
//! the crate's tests. The four `run_*` entry points differ only in the
//! table and the steps they bring.
//!
//! Every run serves from one [`ModelTable`]: an append-only list of slots,
//! each a class label plus the model behind it, and one instance → slot
//! map over the potential roster. [`Fleet::run`] puts its borrowed frozen
//! model in slot 0 and [`Fleet::run_adaptive`] the service's model, and
//! both map every instance there, so a shard's epoch is one batch served
//! by one generation; [`Fleet::run_routed`] gives class *i* slot *i*; and
//! [`Fleet::run_discovered`] starts from the seed class, its leader
//! windows only appending slots and re-pointing instances.

use crate::audit::{AuditLane, CloseOnDrop};
use crate::churn::{potential_roster, AutoscaleRule, ChurnPlan};
use crate::config::{
    validate_config, validate_discovery, validate_spec, DiscoverySetup, FleetConfig, FleetError,
    InstanceSpec,
};
use crate::instance::Instance;
use crate::membership::Membership;
use crate::report::{
    DiscoveredClass, DiscoveryEvaluation, DiscoveryReport, FleetReport, FleetTiming,
    InstanceReport, JournalStats, SchedulerStats,
};
use crate::scheduler::run_elastic;
use crate::shard::{ForkRunner, Shard, ShardInstruments};
use aging_adapt::discovery::{ClassDiscovery, SignatureAccumulator, SignatureConfig};
use aging_adapt::{
    AdaptiveRouter, AdaptiveService, CheckpointBus, ClassSpec, ModelService, ModelSnapshot,
    ServiceClass,
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
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// What serves one slot of a [`ModelTable`].
pub(crate) enum SlotModel<'a> {
    /// A frozen run's borrowed model: generation 0, no threshold
    /// override, never swaps.
    Frozen(&'a dyn Regressor),
    /// A live model service, pinned per epoch by every shard.
    Service(Arc<ModelService>),
}

/// One table entry: a class label plus its model. The label tags the
/// slot's swap events and, under discovery, its instances' batches and
/// reports.
struct Slot<'a> {
    class: ServiceClass,
    model: SlotModel<'a>,
}

impl<'a> Slot<'a> {
    /// A fresh pin of this slot's current generation.
    fn pin(&self) -> Pin<'a> {
        match &self.model {
            SlotModel::Frozen(model) => Pin::Frozen(*model),
            SlotModel::Service(service) => Pin::Live {
                class: self.class.clone(),
                snapshot: service.snapshot(),
                service: Arc::clone(service),
                threshold: None,
            },
        }
    }
}

/// The models one fleet run serves from (see the module docs).
pub(crate) struct ModelTable<'a> {
    /// Append-only: a retired class keeps its slot, so shard pins stay
    /// aligned with slot indices.
    slots: RwLock<Vec<Slot<'a>>>,
    /// Current slot per instance, indexed over the potential roster
    /// (scripted joiners and the autoscale pool included).
    assignment: Vec<AtomicUsize>,
    /// Whether the table changes mid-run, which only discovery does.
    /// Shards of a fixed table never read `version`, so a frozen run's
    /// refresh takes no lock and no atomic load.
    grows: bool,
    /// Bumped after every discovery step; shards re-sync when it moves.
    version: AtomicU64,
}

impl<'a> ModelTable<'a> {
    fn new(slots: Vec<Slot<'a>>, assignment: impl IntoIterator<Item = usize>, grows: bool) -> Self {
        ModelTable {
            slots: RwLock::new(slots),
            assignment: assignment.into_iter().map(AtomicUsize::new).collect(),
            grows,
            version: AtomicU64::new(0),
        }
    }

    /// The table of a run whose every instance serves from `model`: one
    /// slot, labelled with the default class for its swap events, over a
    /// potential roster of `roster` instances.
    pub(crate) fn one_slot(model: SlotModel<'a>, roster: usize) -> Self {
        ModelTable::new(
            vec![Slot { class: ServiceClass::default(), model }],
            vec![0; roster],
            false,
        )
    }

    /// One fresh pin per slot.
    pub(crate) fn pins(&self) -> Vec<Pin<'a>> {
        self.slots.read().expect("model table poisoned").iter().map(Slot::pin).collect()
    }

    /// Epoch-boundary sync of one shard with a growing table: once the
    /// version has moved past `seen`, pins the slots appended since and
    /// re-points `instances` at their current slots.
    pub(crate) fn sync(
        &self,
        seen: &mut u64,
        pins: &mut Vec<Pin<'a>>,
        instances: &mut [(usize, Instance)],
    ) {
        if !self.grows {
            return;
        }
        let version = self.version.load(Ordering::Acquire);
        if version == *seen {
            return;
        }
        *seen = version;
        pins.extend(
            self.slots.read().expect("model table poisoned")[pins.len()..].iter().map(Slot::pin),
        );
        self.repoint(instances);
    }

    /// Points every instance at its assigned slot and takes that slot's
    /// label. Growing tables only: a fixed table's instances keep their
    /// spec class.
    fn repoint<'i>(&self, instances: impl IntoIterator<Item = &'i mut (usize, Instance)>) {
        let slots = self.slots.read().expect("model table poisoned");
        for (global, instance) in instances {
            let slot = self.assignment[*global].load(Ordering::Relaxed);
            instance.set_class(slot, slots[slot].class.clone());
        }
    }
}

/// A shard's view of one slot for one epoch: the model it serves from,
/// that model's generation and the slot's threshold override. Pins move
/// only at epoch boundaries ([`Pin::refresh`]), so a publish mid-epoch
/// never splits a batch across two generations.
pub(crate) enum Pin<'a> {
    /// A frozen slot's model.
    Frozen(&'a dyn Regressor),
    /// A service slot.
    Live {
        /// The slot's label, carried by this shard's swap events.
        class: ServiceClass,
        service: Arc<ModelService>,
        snapshot: ModelSnapshot,
        /// The service's rejuvenation-threshold override as of the last
        /// boundary; `None` leaves the spec thresholds in force.
        threshold: Option<f64>,
    },
}

impl Pin<'_> {
    /// The model this epoch serves from, its generation — labelled
    /// training data carries it, so the adaptation side can attribute
    /// every prediction error to the generation that made it — and the
    /// slot's threshold override.
    pub(crate) fn serving(&self) -> (&dyn Regressor, u64, Option<f64>) {
        match self {
            Pin::Frozen(model) => (*model, 0, None),
            Pin::Live { snapshot, threshold, .. } => {
                (snapshot.model.as_ref(), snapshot.generation, *threshold)
            }
        }
    }

    /// Epoch-boundary refresh: re-pins a moved generation and re-reads the
    /// threshold override, one atomic load each when nothing moved. Each
    /// generation the pin skipped over — `(from, to]` — emits one
    /// `SwapApplied` parented on its publish event, closing the causal
    /// chain from drift to the worker serving the new model. A frozen pin
    /// does nothing.
    pub(crate) fn refresh(&mut self, trace: &TraceHandle, shard: u32) {
        let Pin::Live { class, service, snapshot, threshold } = self else { return };
        let before = snapshot.generation;
        if service.refresh(snapshot) && trace.enabled() {
            for generation in (before + 1)..=snapshot.generation {
                let _ = trace.emit(
                    EventScope::root()
                        .class(class.as_str())
                        .shard(shard)
                        .generation(generation)
                        .parent(service.publish_event_for(generation)),
                    EventKind::SwapApplied,
                );
            }
        }
        *threshold = service.rejuvenation_threshold_secs();
    }
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

/// Test seam: makes the leader's discovery step panic once the fleet has
/// completed this many epochs, exercising the catch-unwind +
/// flight-recorder dump path in the single-threaded window. `u64::MAX`
/// disables it.
#[cfg(test)]
pub(crate) static DISCOVERY_PANIC_AT: AtomicU64 = AtomicU64::new(u64::MAX);

/// Shared coordination state of a [`Fleet::run_discovered`] run.
///
/// Its leader step re-evaluates the partition at every reassessment
/// boundary, with every shard parked there: it reads each instance's
/// signature and the live population off the shards, publishes the
/// partition into the run's [`ModelTable`] (slot *i* is discovery class
/// *i*), and every shard applies it at the top of its next epoch — so an
/// instance's class, like its model snapshot, is pinned within an epoch.
pub(crate) struct DiscoveryRuntime<'a> {
    router: &'a AdaptiveRouter,
    pub(crate) setup: &'a DiscoverySetup,
    /// The run's model table, which this runtime alone grows and
    /// re-points.
    table: &'a ModelTable<'static>,
    /// Durable journal: each discovery step appends the partition it
    /// just published, so a replay can restore the assignment alongside
    /// the learned state. `None` without [`Fleet::with_journal`].
    journal: Option<Arc<Journal>>,
    /// Partition records the journal refused, counted for the report.
    journal_errors: AtomicU64,
    /// Instance names in spec order — the identifiers the journalled
    /// partition pairs with class names.
    instance_names: Vec<String>,
    discovery: Mutex<ClassDiscovery>,
    reassignments: AtomicU64,
    /// Per-evaluation timeline, folded into the final report.
    log: Mutex<Vec<DiscoveryEvaluation>>,
    /// Leader-side discovery telemetry; disabled handles without a
    /// registry.
    instruments: DiscoveryInstruments,
    /// Trace sink for evaluation/split/merge/reassignment events;
    /// disabled when tracing is off.
    trace: TraceHandle,
}

impl DiscoveryRuntime<'_> {
    /// One partition re-evaluation over the parked `shards`, after
    /// `epochs_done` fleet epochs. Signatures are read in global order over
    /// the potential roster; the ready-fraction gate divides by the live
    /// population, instances joined minus instances force-retired (which
    /// have no signature). A naturally aged instance keeps both.
    pub(crate) fn step(&self, epochs_done: u64, shards: &mut [&mut Shard<'_>]) {
        #[cfg(test)]
        if epochs_done == DISCOVERY_PANIC_AT.load(Ordering::Relaxed) {
            panic!("synthetic discovery panic at epoch {epochs_done}");
        }
        let evaluation_span = self.instruments.evaluation.span();
        let mut signatures: Vec<Option<Vec<f64>>> = vec![None; self.table.assignment.len()];
        let mut population = 0;
        for (global, instance) in shards.iter_mut().flat_map(|shard| &mut shard.instances) {
            population += usize::from(!instance.force_retired());
            signatures[*global] = instance.signature();
        }
        let ready = signatures.iter().filter(|s| s.is_some()).count();
        let outcome = self
            .discovery
            .lock()
            .expect("discovery engine poisoned")
            .evaluate_with_population(&signatures, population);
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

        // New classes first, so every slot the assignment references
        // exists before any worker can observe the new version.
        if !outcome.new_classes.is_empty() {
            let mut slots = self.table.slots.write().expect("model table poisoned");
            for nc in &outcome.new_classes {
                // Inherit the nearest centroid's currently *published*
                // model as generation 0 — the best prior the fleet has
                // for a regime that just split off. Seeds are live
                // classes, so the router serves them from their own slot.
                let (initial, seeded_from) = match nc.seeded_from {
                    Some(src) => {
                        let seed = &slots[src].class;
                        let service = self.router.model_service(seed).expect("seed is registered");
                        (service.snapshot().model, seed.to_string())
                    }
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
                assert_eq!(slots.len(), nc.id, "model table must align with discovery ids");
                let _ = self.trace.emit(
                    EventScope::root().class(name.as_str()).parent(evaluated),
                    EventKind::ClassSplit { seeded_from },
                );
                slots.push(Slot { class: name, model: SlotModel::Service(service) });
            }
        }

        // Re-point instances. Not-ready instances keep their class unless
        // it was just retired, in which case they follow the merge.
        let retired_into: HashMap<usize, usize> =
            outcome.retired.iter().map(|r| (r.id, r.into)).collect();
        for (i, slot) in outcome.assignment.iter().enumerate() {
            let current = self.table.assignment[i].load(Ordering::Relaxed);
            let next = match slot {
                Some(id) => *id,
                None => retired_into.get(&current).copied().unwrap_or(current),
            };
            if next != current {
                self.table.assignment[i].store(next, Ordering::Relaxed);
                self.reassignments.fetch_add(1, Ordering::Relaxed);
                self.instruments.reassignments.inc();
                if self.trace.enabled() {
                    let slots = self.table.slots.read().expect("model table poisoned");
                    let _ = self.trace.emit(
                        EventScope::root().class(slots[next].class.as_str()).parent(evaluated),
                        EventKind::ClassReassigned {
                            instance: i as u64,
                            from: slots[current].class.to_string(),
                        },
                    );
                }
            }
        }

        // Retire on the router last: assignments already point away, so
        // the drained buffer lands in the target before its next batch.
        if !outcome.retired.is_empty() {
            let slots = self.table.slots.read().expect("model table poisoned");
            for r in &outcome.retired {
                let (from, into) = (&slots[r.id].class, &slots[r.into].class);
                self.router.retire_class(from, into).expect("both classes are registered");
                let _ = self.trace.emit(
                    EventScope::root().class(from.as_str()).parent(evaluated),
                    EventKind::ClassMerged { into: into.to_string() },
                );
            }
        }
        self.table.version.fetch_add(1, Ordering::Release);

        // Journal the partition the fleet runs under from the next epoch:
        // `(instance, class)` pairs in spec order. An append failure is
        // counted for the report but not fatal — the partition regenerates
        // on replay by re-running discovery, the record just
        // short-circuits that.
        if let Some(journal) = &self.journal {
            let slots = self.table.slots.read().expect("model table poisoned");
            let assignment = self
                .instance_names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let id = self.table.assignment[i].load(Ordering::Relaxed);
                    (name.clone(), slots[id].class.to_string())
                })
                .collect();
            drop(slots);
            let record = JournalRecord::PartitionAssigned {
                version: self.table.version.load(Ordering::Relaxed),
                assignment,
            };
            if journal.append(&record).is_err() {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Timeline entry: what this evaluation decided, plus a live
        // snapshot of each class's adaptation counters.
        let stats = self.router.stats();
        let slots = self.table.slots.read().expect("model table poisoned");
        let entry = DiscoveryEvaluation {
            epoch: epochs_done,
            ready_instances: ready,
            active_classes: outcome.active_classes,
            silhouette: outcome.silhouette,
            new_classes: outcome
                .new_classes
                .iter()
                .map(|nc| slots[nc.id].class.to_string())
                .collect(),
            retired_classes: outcome
                .retired
                .iter()
                .map(|r| slots[r.id].class.to_string())
                .collect(),
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
        drop(slots);
        self.log.lock().expect("log poisoned").push(entry);
        evaluation_span.finish();
    }

    /// The final discovery report (after the run has joined).
    fn report(&self, n_instances: usize) -> DiscoveryReport {
        let slots = self.table.slots.read().expect("model table poisoned");
        let discovery = self.discovery.lock().expect("discovery engine poisoned");
        let assignment: Vec<usize> =
            (0..n_instances).map(|i| self.table.assignment[i].load(Ordering::Relaxed)).collect();
        let mut members = vec![0usize; slots.len()];
        for &id in &assignment {
            members[id] += 1;
        }
        DiscoveryReport {
            classes: slots
                .iter()
                .enumerate()
                .map(|(id, slot)| DiscoveredClass {
                    class: slot.class.to_string(),
                    members: members[id],
                    retired: discovery.is_retired(id),
                })
                .collect(),
            evaluations_log: self.log.lock().expect("log poisoned").clone(),
            assignment: assignment.iter().map(|&id| slots[id].class.to_string()).collect(),
            reassignments: self.reassignments.load(Ordering::Relaxed),
            evaluations: discovery.evaluations(),
            splits: discovery.splits(),
            merges: discovery.merges(),
        }
    }
}

/// What both drivers borrow for a whole run, besides the shards and the
/// membership.
pub(crate) struct Run<'a, 'b> {
    pub(crate) config: &'a FleetConfig,
    pub(crate) features: &'a FeatureSet,
    pub(crate) table: &'a ModelTable<'b>,
    /// The run's leader steps, in list order.
    pub(crate) steps: Vec<LeaderStep<'a>>,
    /// Whether a churn plan is attached: only then is membership
    /// journalled and traced, and may shards run ahead between boundaries.
    pub(crate) planned: bool,
    /// A discovered run's signature tuning: its instances accumulate
    /// signatures.
    signature: Option<SignatureConfig>,
    pub(crate) journal: Option<&'a Journal>,
    pub(crate) telemetry: Option<&'a Registry>,
    pub(crate) recorder: Option<&'a FlightRecorder>,
    pub(crate) trace: TraceHandle,
}

/// One leader action: the first boundary it needs after a cut, and a step
/// that runs at that boundary while every shard is parked. A leader window
/// is a consistent global cut, so a step reads and writes shard state
/// directly. [`Fleet::run_bound`] lists a run's steps and both drivers run
/// the list, in list order, through [`Run::leader_window`].
pub(crate) enum LeaderStep<'a> {
    /// Re-partition the fleet every `reassess_every_epochs`.
    Discover(&'a DiscoveryRuntime<'a>),
    /// Top the fleet up to its floor every `evaluate_every_epochs`, while
    /// spawns are left.
    Autoscale(&'a AutoscaleRule),
}

impl LeaderStep<'_> {
    fn boundary_after(&self, cut: u64, membership: &Membership) -> Option<u64> {
        let every = match self {
            LeaderStep::Discover(runtime) => runtime.setup.reassess_every_epochs,
            LeaderStep::Autoscale(rule) if membership.may_spawn() => rule.evaluate_every_epochs,
            LeaderStep::Autoscale(_) => return None,
        };
        Some((cut / every + 1).saturating_mul(every))
    }
}

impl Run<'_, '_> {
    /// Builds one instance at its table slot: every founder and every
    /// elastic joiner, so a joiner is wired exactly like a founding member.
    /// `global` is the instance's index in the potential roster. In a
    /// discovered run the instance takes its slot's label and a signature
    /// accumulator; otherwise it keeps its spec class.
    pub(crate) fn instance(
        &self,
        spec: InstanceSpec,
        joined_epoch: u64,
        global: usize,
    ) -> Instance {
        let slot = self.table.assignment[global].load(Ordering::Relaxed);
        let mut instance = Instance::new(spec, self.features, slot, joined_epoch);
        if let Some(config) = self.signature {
            let label = self.table.slots.read().expect("model table poisoned")[slot].class.clone();
            let signature = SignatureAccumulator::new(config, self.features.variables());
            instance.enable_discovery(signature, label);
        }
        instance
    }

    /// The first boundary any leader step needs after `cut`; `None` once
    /// no step is open.
    pub(crate) fn next_boundary(&self, cut: u64, membership: &Membership) -> Option<u64> {
        self.steps.iter().filter_map(|step| step.boundary_after(cut, membership)).min()
    }

    /// The leader window at `boundary`, the next boundary after `cut`: runs
    /// every step due there, in list order, with every shard parked. A
    /// panic in any step dumps the flight recorder once and comes back as
    /// the error.
    pub(crate) fn leader_window(
        &self,
        cut: u64,
        boundary: u64,
        shards: &mut [&mut Shard<'_>],
        membership: &mut Membership,
    ) -> std::thread::Result<()> {
        let window = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for step in &self.steps {
                if step.boundary_after(cut, membership) != Some(boundary) {
                    continue;
                }
                match step {
                    LeaderStep::Discover(runtime) => runtime.step(boundary, shards),
                    LeaderStep::Autoscale(rule) => membership.autoscale(boundary, rule.min_live),
                }
            }
        }));
        if let (Err(_), Some(recorder)) = (&window, self.recorder) {
            recorder.dump_once(&format!("leader window panicked at epoch {boundary}"));
        }
        window
    }
}

/// A fleet driver: runs the shards to the end of the run and returns the
/// epochs it drove and its execution counters.
type Driver = for<'b> fn(&mut [Shard<'b>], &mut Membership, &Run<'_, 'b>) -> (u64, SchedulerStats);

/// What a live tuner could not do, for its [`aging_tune::TuneStats`].
#[derive(Debug, Default)]
struct TuneFailures {
    rounds: u64,
    promotions: u64,
}

/// One live policy-search round: steps the tuner off the journal and
/// publishes its promotions into the router. A journal directory that does
/// not exist yet skips the round: the run has not created it. Any other
/// error fails the round, and a promotion the router refuses fails that
/// promotion; both are counted in `failures`.
fn tune_round(tuner: &mut FleetTuner, router: &AdaptiveRouter, failures: &mut TuneFailures) {
    match tuner.step() {
        Ok(promotions) => {
            for promotion in promotions {
                let applied = tuner.initial_for(&promotion.class).is_some_and(|initial| {
                    router.apply_spec(&promotion.class, promotion.point.to_spec(initial)).is_ok()
                });
                if !applied {
                    failures.promotions += 1;
                }
            }
        }
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => {}
        Err(_) => failures.rounds += 1,
    }
}

/// A set of simulated deployments operated concurrently under shared
/// trained models.
///
/// Construction validates every spec; [`Fleet::run`] shards the instances
/// across a pool of worker threads, one per shard, and drives them in
/// fleet epochs of 15-second checkpoints, batching each shard's TTF
/// inferences through [`Regressor::predict_matrix`] over flat reusable
/// [`aging_ml::FeatureMatrix`]es (one per model the run serves).
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
    /// Test builds: drive the run with the sequential reference driver
    /// instead of the scheduler.
    #[cfg(test)]
    reference: bool,
    /// Test builds: where the run's forks go, instead of the engine's
    /// choice.
    #[cfg(test)]
    fork_path: Option<ForkPath>,
}

/// Test builds: where a run's counterfactual forks go.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ForkPath {
    /// Each fork is folded by the restart that queued it.
    Inline,
    /// Shards run their queued forks after predict.
    Phase,
    /// An audit lane runs them, whatever the host's parallelism.
    Lane,
    /// An audit lane whose first fork panics once the lane has claimed it.
    PanickingLane,
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
            #[cfg(test)]
            reference: false,
            #[cfg(test)]
            fork_path: None,
        })
    }

    /// Attaches a telemetry registry: epoch-phase timings land in it per
    /// shard, scheduler idle time per worker, discovery instrumentation per
    /// evaluation, and the final [`FleetReport::telemetry`] carries its
    /// snapshot. Pass the *same* registry to the adaptation side's builders
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
    /// per-epoch completion marks land in `recorder`, and a worker panic
    /// dumps the recorder's ring to stderr as JSONL before the payload is
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
    /// load-driven autoscaling make the population elastic. With a plan
    /// attached, shards run ahead of each other freely between leader
    /// boundaries, and the report carries [`FleetReport::churn`] and
    /// [`FleetReport::scheduler`].
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

    /// Test builds: runs the fleet with the sequential reference driver
    /// (`crate::reference`) instead of the scheduler, so every entry point
    /// can be checked against it through its normal wrapping.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_reference_driver(mut self) -> Self {
        self.reference = true;
        self
    }

    /// Test builds: sends the run's forks down `path`, overriding the
    /// engine's choice of lane or phase.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_fork_path(mut self, path: ForkPath) -> Self {
        self.fork_path = Some(path);
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
        let table = self.one_slot_table(SlotModel::Frozen(model));
        self.run_bound(&table, None, features, None)
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
        let table = self.one_slot_table(SlotModel::Service(service.model_service_arc()));
        let mut report = self.run_bound(&table, None, features, Some(service.bus()));
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
        let classes = self.classes();
        let slots = classes
            .iter()
            .map(|class| {
                let service = router.model_service(class).ok_or_else(|| {
                    FleetError::InvalidParameter(format!(
                        "no model service registered for service class `{class}`"
                    ))
                })?;
                Ok(Slot { class: class.clone(), model: SlotModel::Service(service) })
            })
            .collect::<Result<_, FleetError>>()?;
        let assignment =
            potential_roster(&self.specs, self.churn.as_ref()).into_iter().map(|(_, spec, _)| {
                classes.iter().position(|c| *c == spec.class).expect("roster classes")
            });
        let table = ModelTable::new(slots, assignment, false);
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
                    let mut failures = TuneFailures::default();
                    while !stop_tuning.load(Ordering::Acquire) {
                        let stepped = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            tune_round(&mut tuner, router, &mut failures);
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
                    let mut stats = tuner.stats();
                    stats.failed_rounds = failures.rounds;
                    stats.failed_promotions = failures.promotions;
                    stats
                })
            });
            let report = self.run_bound(&table, None, features, Some(router.bus()));
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
        // Elastic runs size the table's assignment for the *potential*
        // roster — initial specs, scripted joiners, the autoscale pool —
        // so membership changes never reallocate shared state. Joined
        // instances always occupy a contiguous prefix of the roster.
        let roster = potential_roster(&self.specs, self.churn.as_ref());
        let n_slots = roster.len();
        let instance_names: Vec<String> =
            roster.iter().map(|(_, spec, _)| spec.name.clone()).collect();
        let seed = router.model_service(&seed_class).expect("seed class registered above");
        let table = ModelTable::new(
            vec![Slot { class: seed_class, model: SlotModel::Service(seed) }],
            vec![0; n_slots],
            true,
        );
        let (mut report, discovery_report) = {
            let runtime = DiscoveryRuntime {
                router: &router,
                setup,
                table: &table,
                journal,
                journal_errors: AtomicU64::new(0),
                instance_names,
                discovery: Mutex::new(discovery_engine),
                reassignments: AtomicU64::new(0),
                log: Mutex::new(Vec::new()),
                instruments: match &telemetry {
                    Some(registry) => DiscoveryInstruments::resolve(registry),
                    None => DiscoveryInstruments::default(),
                },
                trace: trace_of(&trace),
            };
            // A leader panic is rethrown by the engine, before anything
            // here touches the runtime mutexes it may have poisoned.
            let report = self.run_bound(&table, Some(&runtime), features, Some(router.bus()));
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

    /// The one-slot table of a run whose every instance serves from
    /// `model`.
    fn one_slot_table<'a>(&self, model: SlotModel<'a>) -> ModelTable<'a> {
        ModelTable::one_slot(model, potential_roster(&self.specs, self.churn.as_ref()).len())
    }

    fn run_bound(
        self,
        table: &ModelTable<'_>,
        discovery: Option<&DiscoveryRuntime<'_>>,
        features: &FeatureSet,
        bus: Option<CheckpointBus>,
    ) -> FleetReport {
        #[cfg(test)]
        let (reference, fork_path) = (self.reference, self.fork_path);
        let Fleet { specs, config, telemetry, trace, journal, churn, .. } = self;
        let n_instances = specs.len();
        let n_shards = config.shards.min(n_instances).max(1);

        // An audit lane pays only in a run that forks, whose labels nobody
        // reads before the run ends (no bus), and with a core the shards
        // leave free; otherwise each shard runs its own forks after predict.
        let spare_core =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) > n_shards;
        let forks = config.counterfactual_horizon_secs > 0.0;
        let lane = (forks && bus.is_none() && spare_core).then(|| Arc::new(AuditLane::default()));
        #[cfg(test)]
        let lane = match fork_path {
            None => lane,
            Some(ForkPath::Inline | ForkPath::Phase) => None,
            Some(ForkPath::Lane) => Some(Arc::new(AuditLane::default())),
            Some(ForkPath::PanickingLane) => Some(Arc::new(AuditLane::panicking())),
        };
        let runner = match &lane {
            Some(lane) => ForkRunner::Lane(Arc::clone(lane)),
            None => ForkRunner::Phase,
        };
        #[cfg(test)]
        let runner = if fork_path == Some(ForkPath::Inline) { ForkRunner::Inline } else { runner };

        // The leader steps, in list order: discovery, then autoscale.
        let autoscale = churn.as_ref().and_then(|plan| plan.autoscale.as_ref());
        let run = Run {
            config: &config,
            features,
            table,
            steps: (discovery.map(LeaderStep::Discover).into_iter())
                .chain(autoscale.map(LeaderStep::Autoscale))
                .collect(),
            planned: churn.is_some(),
            signature: discovery.map(|runtime| runtime.setup.signature),
            journal: journal.as_deref(),
            telemetry: telemetry.as_deref(),
            recorder: trace.as_deref(),
            trace: trace_of(&trace),
        };
        // Round-robin instances over shards; the original index rides along
        // so reports return in spec order regardless of sharding.
        let mut shards: Vec<Shard> = {
            let mut buckets: Vec<Vec<(usize, Instance)>> =
                (0..n_shards).map(|_| Vec::new()).collect();
            for (i, spec) in specs.into_iter().enumerate() {
                buckets[i % n_shards].push((i, run.instance(spec, 0, i)));
            }
            (buckets.into_iter().enumerate())
                .map(|(idx, bucket)| {
                    let (bus, runner, trace) = (bus.clone(), runner.clone(), run.trace.clone());
                    Shard::new(idx, bucket, table, features.len(), bus, runner, trace)
                })
                .collect()
        };
        if let Some(registry) = &telemetry {
            for (idx, shard) in shards.iter_mut().enumerate() {
                shard.set_instruments(ShardInstruments::resolve(registry, idx));
            }
        }
        let mut membership = Membership::new(churn.as_ref(), &shards, run.journal);
        let started = Instant::now();
        let drive: Driver = run_elastic;
        #[cfg(test)]
        let drive: Driver = if reference { crate::reference::drive } else { drive };
        // The lane thread is scoped to the run and closed even when the run
        // unwinds; every fork has been folded by the time the driver returns.
        let (epochs, scheduler) = std::thread::scope(|scope| {
            let _close = lane.as_deref().map(|lane| {
                scope.spawn(|| lane.work());
                CloseOnDrop(lane)
            });
            drive(&mut shards, &mut membership, &run)
        });
        let (churn_stats, membership_errors) = membership.finish();
        if discovery.is_some() {
            // A shard leaves the scheduler when its last instance retires
            // and so misses later partitions; every other instance has
            // already applied the final one, because at least one epoch
            // follows each leader window.
            table.repoint(shards.iter_mut().flat_map(|s| s.instances.iter_mut()));
        }

        let wall_secs = started.elapsed().as_secs_f64();
        let mut reports: Vec<(usize, InstanceReport)> = shards
            .iter_mut()
            .flat_map(|s| s.instances.iter_mut().map(|(i, inst)| (*i, inst.report())))
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
        // Membership and scheduler accounting only report when a plan was
        // attached, so churn-free reports keep their pre-elastic shape.
        if churn.is_some() {
            report.churn = Some(churn_stats);
            report.scheduler = Some(scheduler);
        }
        report.unpublished_checkpoints = shards.iter().map(|s| s.unpublished).sum();
        report.telemetry = telemetry.as_ref().map(|registry| registry.snapshot());
        let partition_errors =
            discovery.map_or(0, |runtime| runtime.journal_errors.load(Ordering::Relaxed));
        report.journal = journal.as_ref().map(|journal| JournalStats {
            appended_records: journal.appended(),
            fsyncs: journal.fsyncs(),
            segment_rotations: journal.rotations(),
            append_errors: membership_errors + partition_errors,
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::{tune_round, TuneFailures};
    use aging_adapt::{AdaptiveRouter, ClassSpec, ServiceClass};
    use aging_journal::{Journal, JournalCheckpoint, JournalOptions, JournalRecord};
    use aging_ml::linreg::LinearModel;
    use aging_ml::LearnerKind;
    use aging_tune::{FleetTuner, PolicyPoint, TuneConfig, TunedClass};
    use std::sync::Arc;

    /// Rounds over a journal with mid-log corruption fail and are counted;
    /// a journal directory that does not exist yet is a skipped round.
    #[test]
    fn a_tuner_reading_a_corrupt_journal_counts_its_failed_rounds() {
        let dir = std::env::temp_dir()
            .join(format!("aging-fleet-corrupt-tuner-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = JournalOptions { fsync_every: 1, segment_max_bytes: 256 };
        let journal = Journal::open_with(&dir, options).unwrap();
        for i in 0..12 {
            let rows = (0..3)
                .map(|j| JournalCheckpoint {
                    features: vec![f64::from(i * 3 + j)],
                    ttf_secs: 600.0,
                    predicted_ttf_secs: Some(580.0),
                    predicted_generation: Some(0),
                    monitor_only: false,
                })
                .collect();
            journal.append(&JournalRecord::Checkpoints { class: "steady".into(), rows }).unwrap();
        }
        assert!(journal.rotations() > 0, "the corrupt segment must not be the last");
        drop(journal);
        let first = dir.join("segment-00000000.ajl");
        let mut bytes = std::fs::read(&first).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&first, bytes).unwrap();

        let class = ServiceClass::new("steady");
        let initial: Arc<dyn aging_ml::Regressor> =
            Arc::new(LinearModel::constant(600.0, vec!["x".into()], 0.0, 1));
        let tuner = |dir: &std::path::Path| {
            FleetTuner::new(
                dir,
                vec!["x".into()],
                TuneConfig::default(),
                vec![TunedClass {
                    class: class.clone(),
                    incumbent: PolicyPoint::default(),
                    initial: Arc::clone(&initial),
                }],
            )
        };
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(
                class.clone(),
                ClassSpec::builder(LearnerKind::LinReg.learner(), Arc::clone(&initial)).build(),
            )
            .spawn();
        let mut failures = TuneFailures::default();
        let mut corrupt = tuner(&dir);
        tune_round(&mut corrupt, &router, &mut failures);
        tune_round(&mut corrupt, &router, &mut failures);
        assert_eq!((failures.rounds, failures.promotions), (2, 0));
        tune_round(&mut tuner(&dir.join("not-yet")), &router, &mut failures);
        assert_eq!((failures.rounds, failures.promotions), (2, 0), "a missing journal is skipped");
        router.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
