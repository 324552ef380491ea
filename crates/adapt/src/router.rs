//! Class-routed adaptation for heterogeneous fleets.
//!
//! One [`crate::AdaptiveService`] fits one model for the *whole* fleet —
//! fine while every deployment ages the same way, wrong the moment a
//! memory-leak class and a swap-thrash class share a training buffer: each
//! class's labelled epochs drag the other's model towards the average of
//! two regimes. The [`AdaptiveRouter`] is the heterogeneous counterpart:
//!
//! ```text
//!  monitor streams                   (CheckpointBatch tagged with class)
//!        │
//!        ▼
//!  [CheckpointBus] — bounded ring, drop-oldest, per-source fair,
//!        │            sheds attributed to the dropped batch's class
//!        ▼
//!  ingest thread ── routes by ServiceClass ──┬─► class A: AdaptationPipeline
//!        │                                   ├─► class B: AdaptationPipeline
//!        │ refit jobs (class, buffer snapshot)└─► …
//!        ▼                                   ▲
//!  shared retrainer pool                     │ ingest_inline: a fleet's cut,
//!  (fixed worker threads)                    │ every refit fitted in place
//!        │ fitted model
//!        ▼
//!  per-class [ModelService] — consumers pin per-class snapshots per epoch
//! ```
//!
//! Every class runs the **same** [`AdaptationPipeline`] state machine —
//! drift-observe, sticky trigger, buffer gate, threshold policy — with the
//! crate's one [`RetrainAction`](crate::RetrainAction), [`ClassRetrain`]:
//! for a batch off the bus, the trigger snapshots the class's sliding
//! buffer into a [`RefitJob`] for the shared worker pool, with at most one
//! job per class in flight. A slow learner never piles up stale jobs; it
//! just leaves the class's sticky trigger pending. The per-class pipelines
//! sit behind one lock, taken once per routed batch by the ingest thread
//! and by the router handle; only the *fitting* — the expensive part — fans
//! out to the pool.
//!
//! Without a pool, and for every batch routed through
//! [`AdaptiveRouter::ingest_inline`], the same action runs the pool
//! worker's [`refit`] step on the calling thread and publishes before the
//! next batch is routed. That inline dispatch is what
//! [`crate::AdaptiveService`] (a one-class router), a fleet's adapt step,
//! offline [`replay`](crate::replay::replay) and the router's own
//! spawn-time journal replay run, so a replayed stream retrains at exactly
//! the batches it retrained at live.
//!
//! Each class keeps the presorted window of its last refit in a
//! [`FitContext`], so the next refit over its sliding buffer sorts only the
//! rows that arrived since (see [`aging_ml::Learner::fit_with`]). Pooled
//! and inline refits share it; models are the same as fresh fits, bit for
//! bit.

use crate::bus::{BusReceiver, CheckpointBatch, CheckpointBus, ServiceClass};
use crate::pipeline::{
    AdaptationPipeline, PipelineCounters, PipelineInstruments, RetrainAction, RetrainDisposition,
};
use crate::policy::{FixedThresholds, ThresholdPolicy, Thresholds};
use crate::service::{AdaptConfig, AdaptationStats, ModelService};
use aging_dataset::Dataset;
use aging_journal::{Digest64, Journal, JournalRecord};
use aging_ml::{DynLearner, FitContext, Regressor};
use aging_obs::{
    trace_of, EventId, EventKind, EventScope, FlightRecorder, HistogramHandle, Recorder, Registry,
    TraceHandle, Unit,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything one service class needs from the router: how to train, what
/// to serve first, how to decide the model has drifted, and how its
/// thresholds self-tune. Build with [`ClassSpec::builder`]; the struct is
/// `#[non_exhaustive]` (read fields freely, construct through the
/// builder).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClassSpec {
    /// Training algorithm for this class's refits (learners are stateless;
    /// classes may share one `Arc`).
    pub learner: Arc<dyn DynLearner>,
    /// The model served as generation 0 until the first refit.
    pub initial: Arc<dyn Regressor>,
    /// Per-class adaptation tuning. `bus_capacity` is ignored here — the
    /// ring is shared and sized by [`RouterConfig::bus_capacity`].
    pub config: AdaptConfig,
    /// Threshold policy for this class (defaults to [`FixedThresholds`]).
    /// Classes may share one `Arc` — each class's pipeline consults it
    /// with its own error window, so a shared policy still tunes every
    /// class independently.
    pub policy: Arc<dyn ThresholdPolicy>,
}

impl ClassSpec {
    /// Starts building a spec from its two mandatory parts; config
    /// defaults to [`AdaptConfig::default`], policy to
    /// [`FixedThresholds`].
    pub fn builder(learner: Arc<dyn DynLearner>, initial: Arc<dyn Regressor>) -> ClassSpecBuilder {
        ClassSpecBuilder {
            spec: ClassSpec {
                learner,
                initial,
                config: AdaptConfig::default(),
                policy: Arc::new(FixedThresholds),
            },
        }
    }
}

/// Builder for [`ClassSpec`].
#[derive(Debug, Clone)]
pub struct ClassSpecBuilder {
    spec: ClassSpec,
}

impl ClassSpecBuilder {
    /// Sets the per-class adaptation tuning.
    pub fn config(mut self, config: AdaptConfig) -> Self {
        self.spec.config = config;
        self
    }

    /// Sets the self-tuning threshold policy.
    pub fn policy(mut self, policy: Arc<dyn ThresholdPolicy>) -> Self {
        self.spec.policy = policy;
        self
    }

    /// Finishes the spec, validating the adaptation config and threshold
    /// policy so an invalid spec — a hand-written one or a generated
    /// search candidate — fails fast at construction rather than
    /// mid-replay or mid-ingest.
    ///
    /// # Panics
    ///
    /// Panics when [`AdaptConfig`] or the policy's invariants are violated
    /// (zero buffer capacity, non-finite thresholds, inverted quantiles…).
    pub fn build(self) -> ClassSpec {
        self.spec.config.validate_adaptation();
        self.spec.policy.validate();
        self.spec
    }
}

/// Router-wide tuning. Build with [`RouterConfig::builder`]; the struct is
/// `#[non_exhaustive]` (read fields freely, construct through the
/// builder).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct RouterConfig {
    /// Fixed size of the shared retrainer pool. Refit jobs from every
    /// class queue onto these workers, so a fleet with 50 classes still
    /// runs 2 training threads.
    pub retrainer_threads: usize,
    /// Capacity (in batches) of the shared bounded ingestion ring.
    pub bus_capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { retrainer_threads: 2, bus_capacity: crate::DEFAULT_BUS_CAPACITY }
    }
}

impl RouterConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> RouterConfigBuilder {
        RouterConfigBuilder { config: RouterConfig::default() }
    }
}

/// Builder for [`RouterConfig`].
#[derive(Debug, Clone)]
pub struct RouterConfigBuilder {
    config: RouterConfig,
}

impl RouterConfigBuilder {
    /// Sets the shared retrainer pool size.
    pub fn retrainer_threads(mut self, threads: usize) -> Self {
        self.config.retrainer_threads = threads;
        self
    }

    /// Sets the shared bounded ring capacity, in batches.
    pub fn bus_capacity(mut self, capacity: usize) -> Self {
        self.config.bus_capacity = capacity;
        self
    }

    /// Finishes the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized pool or ring.
    pub fn build(self) -> RouterConfig {
        assert!(self.config.retrainer_threads > 0, "retrainer pool must have at least one thread");
        assert!(self.config.bus_capacity > 0, "bus capacity must be positive");
        self.config
    }
}

/// An error from the router's dynamic class registry.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouterError {
    /// The class is already registered (names must be unique for the whole
    /// router lifetime, retired classes included).
    DuplicateClass(ServiceClass),
    /// The named class has never been registered.
    UnknownClass(ServiceClass),
    /// The operation needs a live class but the named one is retired.
    RetiredClass(ServiceClass),
    /// A class cannot be retired into itself.
    SelfMerge(ServiceClass),
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::DuplicateClass(c) => write!(f, "service class `{c}` registered twice"),
            RouterError::UnknownClass(c) => write!(f, "service class `{c}` is not registered"),
            RouterError::RetiredClass(c) => write!(f, "service class `{c}` is retired"),
            RouterError::SelfMerge(c) => write!(f, "cannot retire class `{c}` into itself"),
        }
    }
}

impl std::error::Error for RouterError {}

/// One class's adaptation counters inside a [`RouterStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassAdaptation {
    /// The service class.
    pub class: ServiceClass,
    /// Whether the class has been retired (its buffer was drained into a
    /// merge target and new batches naming it route there). Counters stay
    /// frozen at their retirement values.
    pub retired: bool,
    /// Its counters, shaped exactly like the single-service stats.
    pub stats: AdaptationStats,
}

/// Counters describing what the router has done so far, per class and in
/// aggregate. Safe to snapshot at any time while the router runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterStats {
    /// Per-class counters, in registration order (retired classes stay
    /// listed, flagged). Each class's `dropped_checkpoints` attributes the
    /// bounded ring's sheds to the class of the dropped batch.
    pub classes: Vec<ClassAdaptation>,
    /// Classes registered after spawn through
    /// [`AdaptiveRouter::register_class`] (class discovery's dynamic
    /// registrations; build-time classes are not counted).
    pub dynamic_registrations: u64,
    /// Classes retired through [`AdaptiveRouter::retire_class`].
    pub retired_classes: u64,
    /// Labelled checkpoints ingested across all classes.
    pub ingested_checkpoints: u64,
    /// Checkpoints shed by the bounded ring across *all* classes —
    /// including batches naming classes no service is registered for, so
    /// this can exceed the per-class sum.
    pub dropped_checkpoints: u64,
    /// Checkpoints whose batch named a class no service is registered for;
    /// counted and discarded.
    pub unrouted_checkpoints: u64,
    /// Model generations published across all classes.
    pub generations_published: u64,
    /// Checkpoint-journal append failures across the router — registry
    /// records (class registration/retirement) plus every class's batch,
    /// publish and threshold records. Zero when no journal is attached.
    #[serde(default)]
    pub journal_errors: u64,
    /// Per-class spec swaps applied through
    /// [`AdaptiveRouter::apply_spec`] (policy-search promotions).
    #[serde(default)]
    pub applied_specs: u64,
}

impl RouterStats {
    /// The counters of one class, if registered.
    pub fn class(&self, class: &ServiceClass) -> Option<&AdaptationStats> {
        self.classes.iter().find(|c| &c.class == class).map(|c| &c.stats)
    }
}

/// Per-class state shared between the ingest thread, the worker pool and
/// stats readers.
#[derive(Debug)]
struct ClassShared {
    class: ServiceClass,
    service: Arc<ModelService>,
    /// The learner pool workers fit with. Behind a lock so
    /// [`AdaptiveRouter::apply_spec`] can hot-swap it; workers clone the
    /// `Arc` out and fit unlocked.
    learner: RwLock<Arc<dyn DynLearner>>,
    /// The presorted window of the class's last refit, which the next
    /// refit reuses. Uncontended: a class has at most one refit running.
    fit_context: Mutex<FitContext>,
    counters: Arc<PipelineCounters>,
    /// The full spec, kept so routing can build the class's pipeline when
    /// it meets a dynamically registered entry — and rebuild it after a
    /// spec swap.
    spec: RwLock<ClassSpec>,
    /// At most one refit per class in flight, pooled or inline.
    inflight: AtomicBool,
    /// Set by [`AdaptiveRouter::retire_class`], which drains the class's
    /// buffer into its merge target and drops its pipeline.
    retired: AtomicBool,
    /// `adapt_refit_duration_seconds{class}` — wall time of each pooled
    /// refit; disabled handle when no telemetry is attached.
    refit_duration: HistogramHandle,
    /// Trace sink for this class's refit start/finish events (pool-side);
    /// disabled when tracing is off.
    trace: TraceHandle,
}

/// The class registry: slots are append-only (a retired class keeps its
/// index so in-flight refit jobs and consumer pins stay valid), and the
/// name index always points at the slot batches should *route to* — a
/// retirement re-points the retired name at its merge target.
#[derive(Debug, Default)]
struct ClassTable {
    classes: Vec<Arc<ClassShared>>,
    index: HashMap<ServiceClass, usize>,
}

#[derive(Debug)]
struct RouterShared {
    table: RwLock<ClassTable>,
    unrouted: AtomicU64,
    jobs_enqueued: AtomicU64,
    jobs_done: AtomicU64,
    dynamic_registrations: AtomicU64,
    retirements: AtomicU64,
    /// Spec swaps applied through [`AdaptiveRouter::apply_spec`].
    spec_swaps: AtomicU64,
    /// Registry classes resolve their instruments from; `None` leaves
    /// every instrument disabled.
    telemetry: Option<Arc<Registry>>,
    /// Trace sink dynamically registered classes and their pipelines
    /// inherit; disabled when tracing is off.
    trace: TraceHandle,
    /// The attached checkpoint journal; registry changes (class
    /// registration/retirement) append here, per-class batch records go
    /// through each pipeline's own handle.
    journal: Option<Arc<Journal>>,
    /// The flight recorder behind `trace`, kept so a panicking refit can
    /// dump it once — the handle alone cannot dump.
    recorder: Option<Arc<FlightRecorder>>,
    /// Append failures for registry records (per-class failures are
    /// counted in each pipeline's own counters).
    journal_errors: AtomicU64,
    /// Rows the ingest thread has routed off the bus, unrouted ones
    /// included: what `quiesce` compares with the bus's enqueued rows.
    /// Stored with `Release` after each batch's pipeline work, so a reader
    /// that loads it with `Acquire` sees that batch's counters.
    bus_rows: AtomicU64,
    /// The refit pool's job queue; `None` without a pool, and once
    /// shutdown has hung it up so the workers drain and exit.
    pool: Mutex<Option<Sender<RefitJob>>>,
}

impl RouterShared {
    fn class(&self, idx: usize) -> Arc<ClassShared> {
        Arc::clone(&self.table.read().expect("class table poisoned").classes[idx])
    }
}

/// A snapshot of one class's sliding buffer, ready for a pool worker to
/// fit. Snapshotting at enqueue time keeps the live buffer with the
/// pipeline — the worker trains on a consistent regime even while new
/// checkpoints keep streaming in.
struct RefitJob {
    class_idx: usize,
    dataset: Dataset,
    /// The `TriggerFired` event that caused this job; the worker's
    /// `RefitStarted` parents on it so the causal chain survives the hop
    /// from the ingest thread to the pool.
    parent: Option<EventId>,
}

/// The router's [`RetrainAction`](crate::RetrainAction) — the only one in
/// the crate: a plain sliding buffer whose retrain snapshots the buffer
/// into a [`Dataset`], gated on the class's one-refit-in-flight flag. For a
/// batch off the bus on a router with a pool, the snapshot becomes a
/// [`RefitJob`] for the shared workers, and the publish (and the retrain
/// counters) happen on the worker when the fit completes. Otherwise
/// [`refit`] runs right here and the retrain answers `Published` or
/// `Failed`.
pub(crate) struct ClassRetrain {
    class_idx: usize,
    capacity: usize,
    arity: usize,
    buffer: VecDeque<(Vec<f64>, f64)>,
    feature_names: Arc<Vec<String>>,
    shared: Arc<RouterShared>,
    /// Whether the batch being ingested may hand its refit to the pool:
    /// set per batch, true only for batches off the bus.
    pooled: bool,
    /// Set by the pipeline via [`RetrainAction::set_trace_parent`] just
    /// before `retrain`; parents the refit's `RefitStarted` event.
    trace_parent: Option<EventId>,
}

impl std::fmt::Debug for ClassRetrain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassRetrain")
            .field("class_idx", &self.class_idx)
            .field("buffered", &self.buffer.len())
            .field("pooled", &self.pooled)
            .finish_non_exhaustive()
    }
}

impl ClassRetrain {
    /// The sliding buffer as a training set, oldest row first.
    fn snapshot(&self) -> Dataset {
        let mut dataset = Dataset::new(self.feature_names.as_ref().clone(), "time_to_failure");
        for (row, ttf) in &self.buffer {
            dataset.push_row(row.clone(), *ttf).expect("rows validated on buffering");
        }
        dataset
    }
}

impl RetrainAction for ClassRetrain {
    fn buffer(&mut self, features: Vec<f64>, ttf_secs: f64) -> Option<usize> {
        // Reject what `Dataset::push_row` would refuse at retrain time.
        if features.len() != self.arity
            || !ttf_secs.is_finite()
            || features.iter().any(|v| !v.is_finite())
        {
            return None;
        }
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
        }
        self.buffer.push_back((features, ttf_secs));
        Some(self.buffer.len())
    }

    fn buffered(&self) -> usize {
        self.buffer.len()
    }

    fn retrain(&mut self) -> RetrainDisposition {
        let class = self.shared.class(self.class_idx);
        if class.inflight.swap(true, Ordering::AcqRel) {
            // A refit for this class is already running; the sticky
            // trigger stays pending and the next batch retries.
            return RetrainDisposition::Deferred;
        }
        let pool = if self.pooled {
            self.shared.pool.lock().expect("refit pool slot poisoned").clone()
        } else {
            None
        };
        let Some(pool) = pool else {
            let published = refit(&self.shared, &class, &self.snapshot(), self.trace_parent);
            class.inflight.store(false, Ordering::Release);
            return if published {
                RetrainDisposition::Published
            } else {
                RetrainDisposition::Failed
            };
        };
        let job = RefitJob {
            class_idx: self.class_idx,
            dataset: self.snapshot(),
            parent: self.trace_parent,
        };
        if pool.send(job).is_ok() {
            self.shared.jobs_enqueued.fetch_add(1, Ordering::Relaxed);
            RetrainDisposition::Enqueued
        } else {
            // Pool gone (shutdown mid-drain): nothing to retrain on.
            class.inflight.store(false, Ordering::Release);
            RetrainDisposition::Deferred
        }
    }

    fn generation(&self) -> u64 {
        self.shared.class(self.class_idx).service.generation()
    }

    fn set_trace_parent(&mut self, parent: Option<EventId>) {
        self.trace_parent = parent;
    }

    fn last_publish_event(&self) -> Option<EventId> {
        let service = &self.shared.class(self.class_idx).service;
        service.publish_event_for(service.generation())
    }

    fn apply_thresholds(&mut self, thresholds: &Thresholds) {
        if let Some(secs) = thresholds.rejuvenation_threshold_secs {
            self.shared.class(self.class_idx).service.set_rejuvenation_threshold_secs(secs);
        }
    }

    fn state_digest(&self) -> u64 {
        // Generation, row count, then every buffered row (arity, feature
        // bits, label bits). Recovery tests compare a live run's digests
        // against an offline replay's.
        let mut digest = Digest64::new();
        digest.write_u64(self.generation());
        digest.write_u64(self.buffer.len() as u64);
        for (features, ttf_secs) in &self.buffer {
            digest.write_u64(features.len() as u64);
            for value in features {
                digest.write_f64(*value);
            }
            digest.write_f64(*ttf_secs);
        }
        digest.finish()
    }
}

/// The class-routed adaptation service: one [`ModelService`] +
/// [`AdaptationPipeline`] per [`ServiceClass`], fed from one bounded
/// [`CheckpointBus`] and retrained on a fixed shared worker pool, or fed
/// on the caller's thread through [`AdaptiveRouter::ingest_inline`].
///
/// # Example
///
/// ```
/// use aging_adapt::{AdaptiveRouter, ClassSpec, ServiceClass};
/// use aging_ml::linreg::LinRegLearner;
/// use aging_ml::{DynLearner, Learner, Regressor};
/// use std::sync::Arc;
///
/// let mut ds = aging_dataset::Dataset::new(vec!["x".into()], "y");
/// for i in 0..20 {
///     ds.push_row(vec![i as f64], i as f64)?;
/// }
/// let initial: Arc<dyn Regressor> = Arc::from(LinRegLearner::default().fit_boxed(&ds)?);
/// let learner: Arc<dyn DynLearner> = Arc::new(LinRegLearner::default());
/// let spec = ClassSpec::builder(learner, initial).build();
/// let router = AdaptiveRouter::builder(vec!["x".into()])
///     .class(ServiceClass::new("web"), spec.clone())
///     .class(ServiceClass::new("db"), spec)
///     .spawn();
/// assert_eq!(router.model_service(&ServiceClass::new("db")).unwrap().generation(), 0);
/// let stats = router.shutdown();
/// assert_eq!(stats.generations_published, 0);
/// # Ok::<(), aging_ml::MlError>(())
/// ```
#[derive(Debug)]
pub struct AdaptiveRouter {
    bus: CheckpointBus,
    shared: Arc<RouterShared>,
    /// The per-class pipelines, shared with the ingest thread; each routed
    /// batch holds the lock for its whole pipeline step.
    pipelines: Arc<Mutex<IngestPipelines>>,
    stop: Arc<AtomicBool>,
    ingest: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Builder for [`AdaptiveRouter`] — classes are registered one by one (or
/// in bulk) and the router spawns with its ingest thread and worker pool
/// running.
#[derive(Debug)]
pub struct AdaptiveRouterBuilder {
    feature_names: Vec<String>,
    config: RouterConfig,
    classes: Vec<(ServiceClass, ClassSpec)>,
    telemetry: Option<Arc<Registry>>,
    trace: Option<Arc<FlightRecorder>>,
    journal: Option<Arc<Journal>>,
    replay: bool,
}

impl AdaptiveRouterBuilder {
    /// Sets the router-wide tuning (defaults to
    /// [`RouterConfig::default`]).
    pub fn config(mut self, config: RouterConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a telemetry registry: shared-ring depth and per-class shed
    /// counters, routing latency per ingested batch, per-class drift
    /// observation/event counters and buffer gauges, refit-duration and
    /// publish→first-pin swap-latency histograms. Dynamically registered
    /// classes pick up the same registry. Without this call every
    /// instrument stays a no-op.
    pub fn telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Attaches a causal trace sink: per-class drift/trigger/refit/publish
    /// events plus shared-ring shed events are recorded into `recorder`,
    /// each labelled with its class. Dynamically registered classes pick
    /// up the same sink. Independent of [`telemetry`]; without this call
    /// no event is built and no clock is read on any trace site.
    ///
    /// [`telemetry`]: AdaptiveRouterBuilder::telemetry
    pub fn trace(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Attaches a durable checkpoint journal: every routed batch is
    /// appended (class-tagged, fsync-batched) *before* it is buffered,
    /// generation publishes and threshold re-derivations are recorded
    /// per class, and class registrations/retirements land as registry
    /// records. Routing compacts the journal past the sliding buffers'
    /// horizon as it runs. Append failures never stall
    /// ingestion; they are counted in [`RouterStats::journal_errors`].
    pub fn journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Replays the attached journal before the ingest thread starts:
    /// recorded batches re-ingest through the same per-class pipelines
    /// the live stream feeds, each refit fitting inline before the next
    /// batch, restoring sliding buffers, generations and derived
    /// thresholds for every class registered at build time. Replayed
    /// batches are not re-journaled. No effect unless
    /// [`journal`](AdaptiveRouterBuilder::journal) is also set.
    pub fn replay(mut self) -> Self {
        self.replay = true;
        self
    }

    /// Registers one service class.
    pub fn class(mut self, class: ServiceClass, spec: ClassSpec) -> Self {
        self.classes.push((class, spec));
        self
    }

    /// Registers several service classes at once (registration order is
    /// preserved — it is the order `RouterStats.classes` reports in).
    pub fn classes(mut self, classes: impl IntoIterator<Item = (ServiceClass, ClassSpec)>) -> Self {
        self.classes.extend(classes);
        self
    }

    /// Spawns the ingest thread and the shared retrainer pool and returns
    /// the running router.
    ///
    /// When a journal is attached with replay requested, the recorded
    /// stream is re-ingested on the *caller's* thread before the ingest
    /// thread and the pool start, every refit fitting inline — by the time
    /// this returns, the restored generations and thresholds are visible
    /// through the model services.
    ///
    /// # Panics
    ///
    /// Panics on an empty or duplicated class list, a zero-sized pool or
    /// ring, any degenerate per-class [`AdaptConfig`], and a requested
    /// replay whose journal cannot be read (mid-log corruption; a torn
    /// tail is tolerated and truncated).
    pub fn spawn(self) -> AdaptiveRouter {
        assert!(self.config.retrainer_threads > 0, "retrainer pool must have at least one thread");
        self.start(false)
    }

    /// Starts the router's threads. `retrainer_threads == 0` starts no
    /// pool, so every refit fits inline; `catch_all`
    /// routes batches naming an unregistered class to the first class
    /// instead of counting them unrouted. Only the one-class
    /// [`crate::AdaptiveService`] asks for either.
    pub(crate) fn start(self, catch_all: bool) -> AdaptiveRouter {
        let AdaptiveRouterBuilder {
            feature_names,
            config,
            classes,
            telemetry,
            trace,
            journal,
            replay,
        } = self;
        assert!(!classes.is_empty(), "router needs at least one service class");
        assert!(config.bus_capacity > 0, "bus capacity must be positive");
        let mut pipelines = IngestPipelines::new(
            feature_names,
            classes,
            telemetry,
            trace,
            journal.clone(),
            catch_all,
        );
        let shared = Arc::clone(&pipelines.shared);
        if let Some(journal) = journal {
            if replay {
                pipelines.replay(&journal);
            }
            // Attached only after the replay so restored batches are not
            // journaled a second time.
            pipelines.attach_journal(journal);
        }

        let workers: Vec<JoinHandle<()>> = if config.retrainer_threads == 0 {
            Vec::new()
        } else {
            let (job_tx, job_rx) = std::sync::mpsc::channel::<RefitJob>();
            *shared.pool.lock().expect("refit pool slot poisoned") = Some(job_tx);
            let job_rx = Arc::new(Mutex::new(job_rx));
            (0..config.retrainer_threads)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    let job_rx = Arc::clone(&job_rx);
                    std::thread::spawn(move || refit_worker(shared, job_rx))
                })
                .collect()
        };
        let (bus, rx) = CheckpointBus::bounded_instrumented(
            config.bus_capacity,
            shared.telemetry.clone(),
            shared.trace.clone(),
        );
        let pipelines = Arc::new(Mutex::new(pipelines));
        let stop = Arc::new(AtomicBool::new(false));
        let ingest = {
            let (pipelines, stop) = (Arc::clone(&pipelines), Arc::clone(&stop));
            std::thread::spawn(move || ingest(&rx, &pipelines, &stop))
        };

        AdaptiveRouter { bus, shared, pipelines, stop, ingest: Some(ingest), workers }
    }
}

/// Validates a spec and builds its shared per-class state (service,
/// counters, flags). Used by both build-time registration and
/// [`AdaptiveRouter::register_class`].
///
/// # Panics
///
/// Panics on a degenerate per-class [`AdaptConfig`] or threshold policy.
fn make_class_shared(
    class: ServiceClass,
    spec: ClassSpec,
    telemetry: Option<&Registry>,
    trace: &TraceHandle,
) -> Arc<ClassShared> {
    // Not `validate()`: the per-class `bus_capacity` really is ignored
    // (the ring is shared), as the `ClassSpec` docs say.
    spec.config.validate_adaptation();
    spec.policy.validate();
    let service = Arc::new(ModelService::new(Arc::clone(&spec.initial)));
    let refit_duration = match telemetry {
        Some(registry) => {
            service.attach_swap_telemetry(registry, &class);
            registry.histogram_with(
                "adapt_refit_duration_seconds",
                "Wall time of each model refit attempt",
                Unit::Seconds,
                "class",
                class.as_str(),
            )
        }
        None => HistogramHandle::disabled(),
    };
    service.attach_trace(trace.clone(), class.as_str());
    Arc::new(ClassShared {
        class,
        service,
        learner: RwLock::new(Arc::clone(&spec.learner)),
        fit_context: Mutex::new(FitContext::default()),
        counters: Arc::new(PipelineCounters::new(spec.config.drift.error_threshold_secs)),
        spec: RwLock::new(spec),
        inflight: AtomicBool::new(false),
        retired: AtomicBool::new(false),
        refit_duration,
        trace: trace.clone(),
    })
}

impl ClassTable {
    fn push(&mut self, shared: Arc<ClassShared>) {
        let idx = self.classes.len();
        self.index.insert(shared.class.clone(), idx);
        self.classes.push(shared);
    }
}

impl AdaptiveRouter {
    /// Starts building a router. `feature_names` are the attribute names
    /// of the rows producers will publish (the feature set's variables, in
    /// order) — shared by every class, since a fleet extracts one feature
    /// catalogue.
    pub fn builder(feature_names: Vec<String>) -> AdaptiveRouterBuilder {
        AdaptiveRouterBuilder {
            feature_names,
            config: RouterConfig::default(),
            classes: Vec::new(),
            telemetry: None,
            trace: None,
            journal: None,
            replay: false,
        }
    }

    /// A producer handle on the shared ingestion ring (clone freely).
    pub fn bus(&self) -> CheckpointBus {
        self.bus.clone()
    }

    /// Routes `batches` on the caller's thread, in order, each through the
    /// pipeline of the class it names — the same routing a batch off the
    /// bus takes, timed in the same `adapt_ingest_batch_seconds`. Every
    /// refit a batch triggers fits here and publishes before the next
    /// batch is routed, even on a router with a pool, so what the router
    /// learns depends on the batches alone and never on thread timing.
    /// A fleet's adapt step feeds each cut's batches this way. A class
    /// whose pooled refit is still running defers its trigger to a later
    /// batch, as on the bus.
    pub fn ingest_inline(&self, batches: impl IntoIterator<Item = CheckpointBatch>) {
        let mut pipelines = self.pipelines.lock().expect("router pipelines poisoned");
        for batch in batches {
            pipelines.ingest(batch, false);
        }
    }

    /// Registers a new service class **while the router runs** — the
    /// dynamic side of automatic class discovery. The class serves
    /// `spec.initial` as generation 0 immediately (the returned
    /// [`ModelService`] is live before this call returns); its adaptation
    /// pipeline is built before the first batch naming the class is
    /// routed.
    ///
    /// # Errors
    ///
    /// [`RouterError::DuplicateClass`] when the name was ever registered
    /// (including retired classes — names are unique for the router's
    /// lifetime).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate per-class [`AdaptConfig`] or threshold
    /// policy, exactly like build-time registration.
    pub fn register_class(
        &self,
        class: ServiceClass,
        spec: ClassSpec,
    ) -> Result<Arc<ModelService>, RouterError> {
        let shared = make_class_shared(
            class.clone(),
            spec,
            self.shared.telemetry.as_deref(),
            &self.shared.trace,
        );
        let service = Arc::clone(&shared.service);
        let mut table = self.shared.table.write().expect("class table poisoned");
        // Names stay unique across retirements: the index re-points a
        // retired name at its merge target, so a containment check alone
        // would miss collisions with retired slots.
        if table.classes.iter().any(|c| c.class == class) {
            return Err(RouterError::DuplicateClass(class));
        }
        table.push(shared);
        drop(table);
        self.shared.dynamic_registrations.fetch_add(1, Ordering::Relaxed);
        if let Some(journal) = &self.shared.journal {
            if journal
                .append(&JournalRecord::ClassRegistered { class: class.as_str().to_string() })
                .is_err()
            {
                self.shared.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(service)
    }

    /// Retires a class, merging it into `into`: before this returns, the
    /// class's sliding training buffer is drained into the merge target's,
    /// its pipeline is dropped, and batches naming the retired class route
    /// to the target from now on. Counters freeze at their retirement
    /// values; the retired class's [`ModelService`] keeps serving its
    /// last generation so consumers holding pins stay valid while they
    /// re-route.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownClass`] when either name was never
    /// registered, [`RouterError::RetiredClass`] when either side is
    /// already retired, [`RouterError::SelfMerge`] when `class == into`.
    pub fn retire_class(
        &self,
        class: &ServiceClass,
        into: &ServiceClass,
    ) -> Result<(), RouterError> {
        if class == into {
            return Err(RouterError::SelfMerge(class.clone()));
        }
        // The pipelines lock before the table lock, as routing takes them.
        let mut pipelines = self.pipelines.lock().expect("router pipelines poisoned");
        let mut table = self.shared.table.write().expect("class table poisoned");
        let from_idx = table
            .classes
            .iter()
            .position(|c| &c.class == class)
            .ok_or_else(|| RouterError::UnknownClass(class.clone()))?;
        let into_idx = table
            .classes
            .iter()
            .position(|c| &c.class == into)
            .ok_or_else(|| RouterError::UnknownClass(into.clone()))?;
        if table.classes[from_idx].retired.load(Ordering::Acquire) {
            return Err(RouterError::RetiredClass(class.clone()));
        }
        if table.classes[into_idx].retired.load(Ordering::Acquire) {
            return Err(RouterError::RetiredClass(into.clone()));
        }
        table.classes[from_idx].retired.store(true, Ordering::Release);
        // Future batches naming the retired class route to the target.
        table.index.insert(class.clone(), into_idx);
        drop(table);
        self.shared.retirements.fetch_add(1, Ordering::Relaxed);
        if let Some(journal) = &self.shared.journal {
            if journal
                .append(&JournalRecord::ClassRetired {
                    class: class.as_str().to_string(),
                    into: into.as_str().to_string(),
                })
                .is_err()
            {
                self.shared.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        pipelines.retire(from_idx, into_idx);
        Ok(())
    }

    /// Swaps a live class onto a new [`ClassSpec`] **while the router
    /// runs** — the promotion path of policy search. The class's learner,
    /// adaptation config and threshold policy are replaced, and its
    /// pipeline is rebuilt from the new spec before this returns, carrying
    /// the sliding training buffer across (oldest rows dropped if the new
    /// capacity is smaller).
    ///
    /// Semantics worth knowing:
    ///
    /// - `spec.initial` is **ignored**: the class's [`ModelService`]
    ///   keeps serving its current generation, and the swap lands like
    ///   any other publish — the next refit (under the new learner)
    ///   produces the next generation. A promotion changes *how* the
    ///   class adapts, never rolls back *what* it serves.
    /// - Drift-monitor state and self-tuned thresholds restart from the
    ///   new spec's configuration; cumulative counters (ingested,
    ///   retrains, drift events) carry over.
    /// - A refit already in flight under the old learner may still
    ///   publish one generation after this call returns.
    /// - Spec swaps are not journalled: replay takes the caller's specs,
    ///   so a recovery replays under whatever spec the caller passes —
    ///   exactly the counterfactual the tuner scored.
    ///
    /// # Errors
    ///
    /// [`RouterError::UnknownClass`] when the class was never registered,
    /// [`RouterError::RetiredClass`] when it has been retired.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate per-class [`AdaptConfig`] or threshold
    /// policy, exactly like registration.
    pub fn apply_spec(&self, class: &ServiceClass, spec: ClassSpec) -> Result<(), RouterError> {
        spec.config.validate_adaptation();
        spec.policy.validate();
        let mut pipelines = self.pipelines.lock().expect("router pipelines poisoned");
        let table = self.shared.table.read().expect("class table poisoned");
        // By slot, not the name index: a retired name re-points at its
        // merge target, and silently re-configuring the target is not
        // what the caller asked for.
        let idx = table
            .classes
            .iter()
            .position(|c| &c.class == class)
            .ok_or_else(|| RouterError::UnknownClass(class.clone()))?;
        let entry = &table.classes[idx];
        if entry.retired.load(Ordering::Acquire) {
            return Err(RouterError::RetiredClass(class.clone()));
        }
        *entry.learner.write().expect("learner lock poisoned") = Arc::clone(&spec.learner);
        *entry.spec.write().expect("spec lock poisoned") = spec;
        drop(table);
        self.shared.spec_swaps.fetch_add(1, Ordering::Relaxed);
        pipelines.apply_spec(idx);
        Ok(())
    }

    /// The serving side of one class, or `None` when the class is not
    /// registered. For a retired class this returns its **merge target's**
    /// service — the model that now serves the retired class's traffic.
    pub fn model_service(&self, class: &ServiceClass) -> Option<Arc<ModelService>> {
        let table = self.shared.table.read().expect("class table poisoned");
        table.index.get(class).map(|&i| Arc::clone(&table.classes[i].service))
    }

    /// The registered classes, in registration order (retired included).
    pub fn classes(&self) -> Vec<ServiceClass> {
        let table = self.shared.table.read().expect("class table poisoned");
        table.classes.iter().map(|c| c.class.clone()).collect()
    }

    /// Current counters, per class and aggregate; safe to call at any
    /// time. Each class's `dropped_checkpoints` attributes the shared
    /// ring's sheds to the class of the dropped batch.
    pub fn stats(&self) -> RouterStats {
        // One lock acquisition for the whole per-class shed attribution —
        // a 50-class fleet must not take the producers' bus mutex 50
        // times per stats call.
        let dropped_by_class: HashMap<ServiceClass, u64> =
            self.bus.dropped_checkpoints_by_class().into_iter().collect();
        let table = self.shared.table.read().expect("class table poisoned");
        let classes: Vec<ClassAdaptation> = table
            .classes
            .iter()
            .map(|c| ClassAdaptation {
                class: c.class.clone(),
                retired: c.retired.load(Ordering::Acquire),
                stats: AdaptationStats::from_counters(
                    &c.counters,
                    c.service.generation(),
                    dropped_by_class.get(&c.class).copied().unwrap_or(0),
                ),
            })
            .collect();
        let journal_errors = self.shared.journal_errors.load(Ordering::Relaxed)
            + table.classes.iter().map(|c| c.counters.journal_errors()).sum::<u64>();
        drop(table);
        RouterStats {
            ingested_checkpoints: classes.iter().map(|c| c.stats.ingested_checkpoints).sum(),
            generations_published: classes.iter().map(|c| c.stats.generations_published).sum(),
            dropped_checkpoints: self.bus.dropped_checkpoints(),
            unrouted_checkpoints: self.shared.unrouted.load(Ordering::Relaxed),
            dynamic_registrations: self.shared.dynamic_registrations.load(Ordering::Relaxed),
            retired_classes: self.shared.retirements.load(Ordering::Relaxed),
            journal_errors,
            applied_specs: self.shared.spec_swaps.load(Ordering::Relaxed),
            classes,
        }
    }

    /// The per-class pipeline state digests at the end of the router's
    /// life — `None` while the ingest thread runs, `Some` after
    /// [`shutdown`](AdaptiveRouter::shutdown) (or any join). Two quiesced
    /// runs reporting equal digests for a class ended with bit-identical
    /// adaptation state (generation, sliding buffer, thresholds); the
    /// crash-recovery tests compare these against an offline
    /// [`replay`](crate::replay::replay) of the journal.
    pub fn state_digests(&self) -> Option<Vec<(ServiceClass, u64)>> {
        self.ingest
            .is_none()
            .then(|| self.pipelines.lock().expect("router pipelines poisoned").digests())
    }

    /// Waits until every checkpoint published on the bus *before* this
    /// call has been ingested (or shed by the ring) **and** the retrainer
    /// pool has finished every job that ingestion enqueued — so generation
    /// counters are settled. Returns `true` when both happened within
    /// `timeout`. Batches routed through
    /// [`ingest_inline`](AdaptiveRouter::ingest_inline) are settled when
    /// that call returns, and never count towards the bus here.
    ///
    /// Only meant for deterministic tests and examples.
    #[must_use = "a `false` return means the counters read next are not settled"]
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            // Read `dropped` BEFORE `enqueued`: drops racing in between
            // then inflate the target (wait a little longer) instead of
            // deflating it (return before pre-call checkpoints drained).
            let dropped = self.bus.dropped_checkpoints();
            let target = self.bus.enqueued_checkpoints().saturating_sub(dropped);
            let routed = self.shared.bus_rows.load(Ordering::Acquire);
            // Order matters: the bus must be drained before the job
            // counters can be final for everything published so far.
            if routed >= target
                && self.shared.jobs_done.load(Ordering::Relaxed)
                    >= self.shared.jobs_enqueued.load(Ordering::Relaxed)
            {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops ingestion and the pool, joins every thread and returns the
    /// final stats. Batches queued on the ring before the call are still
    /// ingested, and every refit job they trigger still completes.
    pub fn shutdown(mut self) -> RouterStats {
        self.join_all()
    }

    /// [`shutdown`](AdaptiveRouter::shutdown), plus the per-class
    /// [`state digests`](AdaptiveRouter::state_digests) — which only exist
    /// once the ingest thread has exited, i.e. exactly when `self` is
    /// gone.
    pub fn shutdown_with_digests(mut self) -> (RouterStats, Option<Vec<(ServiceClass, u64)>>) {
        let stats = self.join_all();
        let digests = self.state_digests();
        (stats, digests)
    }

    fn join_all(&mut self) -> RouterStats {
        self.stop.store(true, Ordering::Release);
        if let Some(ingest) = self.ingest.take() {
            let _ = ingest.join();
        }
        // Nothing can enqueue once the ingest thread is gone and `self` is
        // going, so hang up the job queue: the workers drain what is left,
        // then stop.
        self.shared.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.stats()
    }
}

impl Drop for AdaptiveRouter {
    fn drop(&mut self) {
        if self.ingest.is_some() || !self.workers.is_empty() {
            self.join_all();
        }
    }
}

/// The per-class pipelines, indexed like the shared class table. `None`
/// marks a retired-and-drained slot. Without threads around it this is a
/// whole router that fits inline, which is how offline
/// [`replay`](crate::replay::replay) runs it.
#[derive(Debug)]
pub(crate) struct IngestPipelines {
    pipelines: Vec<Option<AdaptationPipeline<ClassRetrain>>>,
    feature_names: Arc<Vec<String>>,
    shared: Arc<RouterShared>,
    /// `adapt_ingest_batch_seconds`: the routing latency of each live
    /// batch, off the bus or inline; disabled without telemetry.
    ingest_latency: HistogramHandle,
    /// Routes a batch naming an unregistered class to class 0 instead of
    /// counting it unrouted.
    catch_all: bool,
    /// The attached checkpoint journal; `None` until
    /// [`attach_journal`](IngestPipelines::attach_journal) (which is
    /// after any replay, so restored batches are not re-journaled).
    journal: Option<Arc<Journal>>,
    /// Batches processed since the last compaction pass.
    since_compaction: u64,
    /// Wall time of each compaction pass; disabled without telemetry.
    compaction_duration: HistogramHandle,
}

/// Compact the journal every this many processed batches. The pass drops
/// checkpoint batches past every class's sliding-buffer horizon, so the
/// journal's footprint tracks the buffers instead of the full history.
const COMPACT_EVERY_BATCHES: u64 = 256;

impl IngestPipelines {
    /// Builds the class table, the shared state and one pipeline per
    /// class — a router without its threads, fitting inline. `journal`
    /// only receives registry records here; batches are journaled once
    /// [`attach_journal`](IngestPipelines::attach_journal) runs.
    ///
    /// # Panics
    ///
    /// Panics on a duplicated class and any degenerate per-class
    /// [`AdaptConfig`] or threshold policy.
    pub(crate) fn new(
        feature_names: Vec<String>,
        classes: Vec<(ServiceClass, ClassSpec)>,
        telemetry: Option<Arc<Registry>>,
        trace: Option<Arc<FlightRecorder>>,
        journal: Option<Arc<Journal>>,
        catch_all: bool,
    ) -> Self {
        let trace_handle = trace_of(&trace);
        let (ingest_latency, compaction_duration) = match &telemetry {
            Some(registry) => (
                registry.histogram(
                    "adapt_ingest_batch_seconds",
                    "Routing latency per ingested checkpoint batch",
                    Unit::Seconds,
                ),
                registry.histogram(
                    "adapt_journal_compaction_seconds",
                    "Wall time of each journal compaction pass",
                    Unit::Seconds,
                ),
            ),
            None => (HistogramHandle::disabled(), HistogramHandle::disabled()),
        };
        let mut table = ClassTable::default();
        for (class, spec) in classes {
            assert!(!table.index.contains_key(&class), "service class `{class}` registered twice");
            // On the caller's thread — routing builds the pipelines of
            // dynamically registered classes, where a validation panic
            // would be silent.
            table.push(make_class_shared(class, spec, telemetry.as_deref(), &trace_handle));
        }
        let shared = Arc::new(RouterShared {
            table: RwLock::new(table),
            unrouted: AtomicU64::new(0),
            jobs_enqueued: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            dynamic_registrations: AtomicU64::new(0),
            retirements: AtomicU64::new(0),
            spec_swaps: AtomicU64::new(0),
            telemetry,
            trace: trace_handle,
            journal,
            recorder: trace,
            journal_errors: AtomicU64::new(0),
            bus_rows: AtomicU64::new(0),
            pool: Mutex::new(None),
        });
        let mut pipelines = IngestPipelines {
            pipelines: Vec::new(),
            feature_names: Arc::new(feature_names),
            shared,
            ingest_latency,
            catch_all,
            journal: None,
            since_compaction: 0,
            compaction_duration,
        };
        pipelines.sync();
        pipelines
    }

    /// Builds the pipeline of class `class_idx` from `spec`, with an empty
    /// buffer and the current telemetry, trace and journal.
    fn build_pipeline(
        &self,
        class_idx: usize,
        entry: &ClassShared,
        spec: &ClassSpec,
    ) -> AdaptationPipeline<ClassRetrain> {
        let action = ClassRetrain {
            class_idx,
            capacity: spec.config.buffer_capacity,
            arity: self.feature_names.len(),
            buffer: VecDeque::with_capacity(spec.config.buffer_capacity),
            feature_names: Arc::clone(&self.feature_names),
            shared: Arc::clone(&self.shared),
            pooled: false,
            trace_parent: None,
        };
        let mut pipeline = AdaptationPipeline::with_counters(
            &spec.config,
            Arc::clone(&spec.policy),
            Arc::clone(&entry.counters),
            action,
        );
        let class = entry.class.as_str();
        if let Some(registry) = &self.shared.telemetry {
            pipeline.set_instruments(PipelineInstruments::resolve(registry.as_ref(), class));
        }
        pipeline.set_trace(self.shared.trace.clone(), class);
        if let Some(journal) = &self.journal {
            // Dynamically registered classes journal from their first
            // batch, like build-time classes.
            pipeline.set_journal(Arc::clone(journal), class);
        }
        pipeline
    }

    /// Builds pipelines for every class table entry without one yet — how
    /// dynamically registered classes come alive. The table is
    /// append-only, so a length check suffices.
    fn sync(&mut self) {
        let shared = Arc::clone(&self.shared);
        let table = shared.table.read().expect("class table poisoned");
        while self.pipelines.len() < table.classes.len() {
            let class_idx = self.pipelines.len();
            let entry = &table.classes[class_idx];
            let spec = entry.spec.read().expect("spec lock poisoned").clone();
            let pipeline = self.build_pipeline(class_idx, entry, &spec);
            self.pipelines.push(Some(pipeline));
        }
    }

    /// Attaches the journal to every live pipeline (and, via
    /// [`sync`](IngestPipelines::sync), to every pipeline built later).
    /// Called after any replay so restored batches are not re-journaled.
    fn attach_journal(&mut self, journal: Arc<Journal>) {
        let table = self.shared.table.read().expect("class table poisoned");
        for (class_idx, slot) in self.pipelines.iter_mut().enumerate() {
            if let Some(pipeline) = slot {
                pipeline.set_journal(Arc::clone(&journal), table.classes[class_idx].class.as_str());
            }
        }
        drop(table);
        self.journal = Some(journal);
    }

    /// Re-ingests every checkpoint batch `journal` recorded, in order,
    /// through the routing the live stream takes, every refit fitting
    /// inline before the next batch, as it did live.
    ///
    /// # Panics
    ///
    /// Panics when the journal cannot be read (mid-log corruption; a torn
    /// tail is tolerated and truncated).
    fn replay(&mut self, journal: &Journal) {
        let read = Journal::read(journal.dir())
            .expect("journal replay: journal directory unreadable or corrupt mid-log");
        let mut applied = 0u64;
        for (_seq, record) in &read.records {
            if let JournalRecord::Checkpoints { class, rows } = record {
                applied += 1;
                // Batch granularity is load-bearing: the retrain gate
                // fires once per routed batch, as it did live.
                let batch = CheckpointBatch {
                    source: "journal".to_string(),
                    class: ServiceClass::new(class.clone()),
                    checkpoints: rows.iter().cloned().map(Into::into).collect(),
                };
                self.process(batch, false);
            }
        }
        self.shared.trace.emit(EventScope::root(), EventKind::JournalReplayed { records: applied });
    }

    /// Compacts the journal past the sliding-buffer horizon once enough
    /// batches have gone through. Failures are counted, never fatal —
    /// compaction is an optimisation, the uncompacted journal stays
    /// replayable.
    fn maybe_compact(&mut self) {
        let Some(journal) = &self.journal else {
            return;
        };
        self.since_compaction += 1;
        if self.since_compaction < COMPACT_EVERY_BATCHES {
            return;
        }
        self.since_compaction = 0;
        // Keep the *largest* class buffer worth of rows per class: a
        // shared horizon is conservative for smaller buffers, and replay
        // correctness only needs at least the buffered window.
        let keep_rows = {
            let table = self.shared.table.read().expect("class table poisoned");
            table
                .classes
                .iter()
                .map(|c| c.spec.read().expect("spec lock poisoned").config.buffer_capacity)
                .max()
                .unwrap_or(0)
        };
        let span = self.compaction_duration.span();
        let compacted = journal.compact(keep_rows);
        span.finish();
        match compacted {
            Ok(stats) => {
                self.shared.trace.emit(
                    EventScope::root(),
                    EventKind::JournalCompacted {
                        kept_records: stats.kept_records,
                        dropped_records: stats.dropped_records,
                    },
                );
            }
            Err(_) => {
                self.shared.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The slot batches naming `class` route to, if any.
    pub(crate) fn route(&self, class: &ServiceClass) -> Option<usize> {
        let table = self.shared.table.read().expect("class table poisoned");
        table.index.get(class).copied().or(self.catch_all.then_some(0))
    }

    /// Routes one live batch, timed in `adapt_ingest_batch_seconds`. A
    /// batch off the bus may hand its refit to the pool and counts towards
    /// `quiesce`; any other fits every refit it triggers before returning.
    fn ingest(&mut self, batch: CheckpointBatch, from_bus: bool) {
        let rows = batch.checkpoints.len() as u64;
        let span = self.ingest_latency.span();
        self.process(batch, from_bus);
        span.finish();
        if from_bus {
            self.shared.bus_rows.fetch_add(rows, Ordering::Release);
        }
    }

    /// Routes one batch into its class's pipeline (building pipelines for
    /// freshly registered classes on demand). `pooled` lets a refit it
    /// triggers go to the pool, if the router has one.
    pub(crate) fn process(&mut self, batch: CheckpointBatch, pooled: bool) {
        let Some(class_idx) = self.route(&batch.class) else {
            self.shared.unrouted.fetch_add(batch.checkpoints.len() as u64, Ordering::Relaxed);
            return;
        };
        if class_idx >= self.pipelines.len() {
            self.sync();
        }
        match self.pipelines.get_mut(class_idx).and_then(Option::as_mut) {
            Some(pipeline) => {
                pipeline.action_mut().pooled = pooled;
                pipeline.ingest(batch.checkpoints);
            }
            // A drained slot the index still pointed at for one racing
            // batch; the retirement re-pointed the index, so this cannot
            // recur — count rather than lose silently.
            None => {
                self.shared.unrouted.fetch_add(batch.checkpoints.len() as u64, Ordering::Relaxed);
            }
        }
        self.maybe_compact();
    }

    /// The live pipeline of class `class_idx`, if it has not been retired.
    pub(crate) fn pipeline(&self, class_idx: usize) -> Option<&AdaptationPipeline<ClassRetrain>> {
        self.pipelines.get(class_idx).and_then(Option::as_ref)
    }

    /// The serving side of class `class_idx`.
    pub(crate) fn model_service(&self, class_idx: usize) -> Arc<ModelService> {
        Arc::clone(&self.shared.class(class_idx).service)
    }

    /// Every live class's pipeline state digest, in registration order.
    fn digests(&self) -> Vec<(ServiceClass, u64)> {
        let table = self.shared.table.read().expect("class table poisoned");
        self.pipelines
            .iter()
            .enumerate()
            .filter_map(|(class_idx, slot)| {
                slot.as_ref().map(|pipeline| {
                    (table.classes[class_idx].class.clone(), pipeline.state_digest())
                })
            })
            .collect()
    }

    /// Applies a retirement: drain `from`'s sliding buffer into `into`'s
    /// and drop `from`'s pipeline. Drift state and counters of the target
    /// are untouched — merged rows are training history, not fresh error
    /// observations.
    fn retire(&mut self, from: usize, into: usize) {
        self.sync();
        let Some(retired) = self.pipelines.get_mut(from).and_then(Option::take) else {
            return;
        };
        let rows = retired.into_action().buffer;
        if let Some(target) = self.pipelines.get_mut(into).and_then(Option::as_mut) {
            for (row, ttf) in rows {
                target.action_mut().buffer(row, ttf);
            }
            let buffered = target.action().buffered() as u64;
            self.shared.class(into).counters.buffered.store(buffered, Ordering::Relaxed);
        }
    }

    /// Applies a spec swap: rebuild the class's pipeline from the (already
    /// updated) shared spec, carrying the sliding training buffer across.
    /// The shared counters `Arc` is reused, so cumulative stats survive
    /// the swap; drift-monitor state and self-tuned thresholds restart
    /// from the new spec — that reset is the point of the promotion.
    fn apply_spec(&mut self, class_idx: usize) {
        self.sync();
        let Some(old) = self.pipelines.get_mut(class_idx).and_then(Option::take) else {
            return;
        };
        let rows = old.into_action().buffer;
        let entry = self.shared.class(class_idx);
        let spec = entry.spec.read().expect("spec lock poisoned").clone();
        let mut pipeline = self.build_pipeline(class_idx, &entry, &spec);
        // Carry the training window across; if the new capacity is
        // smaller, the buffer drops the oldest rows itself.
        for (row, ttf) in rows {
            pipeline.action_mut().buffer(row, ttf);
        }
        let buffered = pipeline.action().buffered() as u64;
        entry.counters.buffered.store(buffered, Ordering::Relaxed);
        self.pipelines[class_idx] = Some(pipeline);
    }
}

/// The ingest loop: drain the ring and route every batch into its class's
/// [`AdaptationPipeline`]; the pipelines' retrain actions snapshot and
/// enqueue refit jobs when a class's trigger and gate line up. Once `stop`
/// is set it routes what is left on the ring and exits.
fn ingest(rx: &BusReceiver, pipelines: &Mutex<IngestPipelines>, stop: &AtomicBool) {
    let lock = || pipelines.lock().expect("router pipelines poisoned");
    loop {
        if stop.load(Ordering::Acquire) {
            let mut pipelines = lock();
            for batch in rx.drain() {
                pipelines.ingest(batch, true);
            }
            return;
        }
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(Some(batch)) => lock().ingest(batch, true),
            Ok(None) => {}
            Err(crate::BusDisconnected) => return,
        }
    }
}

/// The refit step: fit the class's current learner on `dataset` through
/// the class's [`FitContext`] and publish the model into the class's
/// service, traced as `RefitStarted` → `RefitFinished` →
/// `GenerationPublished` under `parent` and timed by the refit-duration
/// histogram. Returns whether a generation was published. Pool workers run
/// it for queued jobs, [`ClassRetrain`] inline; the retrain counters are
/// the caller's to bump.
///
/// A panicking learner is contained here, whichever thread fits: the panic
/// dumps the flight recorder (once per process — the same gate the fleet's
/// panic paths use) and the refit fails, so the class keeps serving its
/// last generation and the router keeps ingesting.
fn refit(
    shared: &RouterShared,
    class: &ClassShared,
    dataset: &Dataset,
    parent: Option<EventId>,
) -> bool {
    let started = class.trace.emit(
        EventScope::root().class(class.class.as_str()).parent(parent),
        EventKind::RefitStarted { rows: dataset.len() as u64 },
    );
    // Snapshot the learner up front: a concurrent spec swap must not
    // change which learner fits *this* refit half-way through.
    let learner = Arc::clone(&*class.learner.read().expect("learner lock poisoned"));
    let span = class.refit_duration.span();
    let fitted = std::panic::catch_unwind(AssertUnwindSafe(|| {
        // A refit that panicked poisoned the lock: rather than trust what
        // it left behind, the class starts over from a fresh context.
        let mut context = class.fit_context.lock().unwrap_or_else(|poisoned| {
            class.fit_context.clear_poison();
            let mut context = poisoned.into_inner();
            *context = FitContext::default();
            context
        });
        learner.fit_dyn_with(dataset, &mut context)
    }));
    span.finish();
    let model = match fitted {
        Ok(fitted) => fitted.ok(),
        Err(_) => {
            if let Some(recorder) = &shared.recorder {
                recorder.dump_once(&format!("refit panicked fitting class `{}`", class.class));
            }
            None
        }
    };
    let finished = class.trace.emit(
        EventScope::root().class(class.class.as_str()).parent(started),
        EventKind::RefitFinished { ok: model.is_some() },
    );
    match model {
        Some(model) => {
            class.service.publish_traced(Arc::from(model), finished);
            true
        }
        None => false,
    }
}

/// One pool worker: pull refit jobs, run the [`refit`] step, bump the
/// class's pipeline counters and release its in-flight flag, so the class
/// can retrain again and `quiesce` sees the job done.
fn refit_worker(shared: Arc<RouterShared>, job_rx: Arc<Mutex<Receiver<RefitJob>>>) {
    loop {
        // Hold the lock only for the blocking receive — fitting runs
        // unlocked so the pool really works jobs in parallel.
        let job = match job_rx.lock().expect("job queue poisoned").recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        let class = shared.class(job.class_idx);
        let counter = if refit(&shared, &class, &job.dataset, job.parent) {
            &class.counters.retrains
        } else {
            &class.counters.failed_retrains
        };
        counter.fetch_add(1, Ordering::Relaxed);
        class.inflight.store(false, Ordering::Release);
        shared.jobs_done.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DriftConfig, LabelledCheckpoint, QuantileAdaptive};
    use aging_ml::linreg::LinRegLearner;
    use aging_ml::Learner;

    fn line_model(slope: f64) -> Arc<dyn Regressor> {
        let mut ds = Dataset::new(vec!["x".into()], "y");
        for i in 0..30 {
            ds.push_row(vec![i as f64], slope * i as f64).unwrap();
        }
        Arc::from(LinRegLearner::default().fit_boxed(&ds).unwrap())
    }

    fn quick_adapt(threshold: f64) -> AdaptConfig {
        AdaptConfig::builder()
            .drift(DriftConfig {
                enabled: true,
                ewma_alpha: 0.4,
                error_threshold_secs: threshold,
                min_observations: 8,
                trend_window: 64,
                trend_tolerance_secs: 100.0,
                trend_slope_threshold: 5.0,
                cooldown_observations: 40,
            })
            .buffer_capacity(512)
            .min_buffer_to_retrain(40)
            .bus_capacity(256)
            .build()
    }

    fn spec(slope: f64, threshold: f64) -> ClassSpec {
        ClassSpec::builder(Arc::new(LinRegLearner::default()), line_model(slope))
            .config(quick_adapt(threshold))
            .build()
    }

    fn batch(
        class: &ServiceClass,
        xs: impl IntoIterator<Item = (f64, f64, Option<f64>)>,
    ) -> CheckpointBatch {
        CheckpointBatch {
            source: format!("src-{class}"),
            class: class.clone(),
            checkpoints: xs
                .into_iter()
                .map(|(x, y, pred)| LabelledCheckpoint::new(vec![x], y, pred))
                .collect(),
        }
    }

    /// Every compaction pass the ingest thread runs is timed in
    /// `adapt_journal_compaction_seconds`: two passes for 512 batches.
    #[test]
    fn journal_compactions_are_timed() {
        let dir = std::env::temp_dir()
            .join(format!("aging-adapt-router-{}-compaction", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Registry::shared();
        let class = ServiceClass::new("leaky");
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(class.clone(), spec(1.0, 1e9))
            .config(RouterConfig::builder().retrainer_threads(1).bus_capacity(1024).build())
            .telemetry(Arc::clone(&registry))
            .journal(Arc::new(Journal::open(&dir).unwrap()))
            .spawn();
        for chunk in 0..2 * COMPACT_EVERY_BATCHES {
            let xs = (0..4).map(|i| {
                let x = (chunk * 4 + i) as f64;
                (x, x, Some(x))
            });
            assert!(router.bus().publish(batch(&class, xs)));
        }
        assert!(router.quiesce(Duration::from_secs(30)), "bus + pool must settle");
        let stats = router.shutdown();
        assert_eq!(stats.journal_errors, 0);
        let snapshot = registry.snapshot();
        let compactions = snapshot.histogram("adapt_journal_compaction_seconds", None);
        assert_eq!(compactions.map(|h| h.count), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The isolation claim in miniature: class A's regime shifts and only
    /// class A retrains; class B's buffer, drift monitor and generation
    /// counter never notice.
    #[test]
    fn shifted_class_retrains_without_touching_the_other() {
        let a = ServiceClass::new("leaky");
        let b = ServiceClass::new("stable");
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(a.clone(), spec(2.0, 150.0))
            .class(b.clone(), spec(1.0, 150.0))
            .config(RouterConfig::builder().retrainer_threads(2).bus_capacity(128).build())
            .spawn();
        let bus = router.bus();
        // Class A: truth shifts to y = -2x + 500, served by stale y = 2x.
        let truth_a = |x: f64| 500.0 - 2.0 * x;
        for chunk in 0..6 {
            let xs = (0..32).map(|i| {
                let x = (chunk * 32 + i) as f64 * 0.3;
                (x, truth_a(x), Some(2.0 * x))
            });
            assert!(bus.publish(batch(&a, xs)));
        }
        // Class B: the model is exact, errors are zero.
        for chunk in 0..6 {
            let xs = (0..32).map(|i| {
                let x = (chunk * 32 + i) as f64 * 0.3;
                (x, x, Some(x))
            });
            assert!(bus.publish(batch(&b, xs)));
        }
        assert!(router.quiesce(Duration::from_secs(30)), "bus + pool must settle");
        let stats = router.shutdown();
        let sa = stats.class(&a).unwrap();
        let sb = stats.class(&b).unwrap();
        assert!(sa.drift_events >= 1, "class A must drift: {sa:?}");
        assert!(sa.retrains >= 1, "class A must retrain: {sa:?}");
        assert!(sa.generations_published >= 1);
        assert_eq!(sb.drift_events, 0, "class B must stay quiet: {sb:?}");
        assert_eq!(sb.generations_published, 0);
        assert_eq!(sa.ingested_checkpoints, 192);
        assert_eq!(sb.ingested_checkpoints, 192);
        assert_eq!(stats.unrouted_checkpoints, 0);
    }

    #[test]
    fn per_class_models_track_their_own_regime() {
        let a = ServiceClass::new("a");
        let b = ServiceClass::new("b");
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(a.clone(), spec(1.0, 100.0))
            .class(b.clone(), spec(1.0, 100.0))
            .spawn();
        let bus = router.bus();
        // Different ground truths per class, both far from the initial fit.
        let truth_a = |x: f64| 5.0 * x + 100.0;
        let truth_b = |x: f64| -4.0 * x + 900.0;
        for chunk in 0..5 {
            bus.publish(batch(
                &a,
                (0..40).map(|i| {
                    let x = (chunk * 40 + i) as f64 * 0.2;
                    (x, truth_a(x), Some(x))
                }),
            ));
            bus.publish(batch(
                &b,
                (0..40).map(|i| {
                    let x = (chunk * 40 + i) as f64 * 0.2;
                    (x, truth_b(x), Some(x))
                }),
            ));
        }
        assert!(router.quiesce(Duration::from_secs(30)));
        let model_a = router.model_service(&a).unwrap().snapshot();
        let model_b = router.model_service(&b).unwrap().snapshot();
        assert!(model_a.generation >= 1 && model_b.generation >= 1);
        let (pa, pb) = (model_a.model.predict(&[10.0]), model_b.model.predict(&[10.0]));
        assert!((pa - truth_a(10.0)).abs() < 40.0, "class A tracks its regime: {pa}");
        assert!((pb - truth_b(10.0)).abs() < 40.0, "class B tracks its regime: {pb}");
        router.shutdown();
    }

    #[test]
    fn unrouted_classes_are_counted_and_discarded() {
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(ServiceClass::new("known"), spec(1.0, 100.0))
            .spawn();
        let bus = router.bus();
        bus.publish(batch(&ServiceClass::new("unknown"), (0..7).map(|i| (i as f64, 1.0, None))));
        assert!(router.quiesce(Duration::from_secs(10)));
        let stats = router.shutdown();
        assert_eq!(stats.unrouted_checkpoints, 7);
        assert_eq!(stats.ingested_checkpoints, 0);
    }

    #[test]
    fn many_classes_share_a_bounded_pool() {
        // 8 classes, 2 workers: every class still gets its refit — the
        // pool serialises, nothing deadlocks, nothing is lost.
        let classes: Vec<(ServiceClass, ClassSpec)> = (0..8)
            .map(|i| {
                let config = AdaptConfig::builder()
                    .drift(DriftConfig::disabled())
                    .buffer_capacity(512)
                    .min_buffer_to_retrain(40)
                    .retrain_every(50)
                    .bus_capacity(256)
                    .build();
                (
                    ServiceClass::new(format!("c{i}")),
                    ClassSpec::builder(Arc::new(LinRegLearner::default()), line_model(1.0))
                        .config(config)
                        .build(),
                )
            })
            .collect();
        let names: Vec<ServiceClass> = classes.iter().map(|(c, _)| c.clone()).collect();
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .classes(classes)
            .config(RouterConfig::builder().retrainer_threads(2).bus_capacity(512).build())
            .spawn();
        let bus = router.bus();
        for class in &names {
            bus.publish(batch(class, (0..60).map(|i| (i as f64, 3.0 * i as f64, None))));
        }
        assert!(router.quiesce(Duration::from_secs(60)));
        let stats = router.shutdown();
        for class in &names {
            let s = stats.class(class).unwrap();
            assert!(s.retrains >= 1, "class {class} must have retrained: {s:?}");
        }
        assert_eq!(
            stats.generations_published,
            stats.classes.iter().map(|c| c.stats.retrains).sum::<u64>()
        );
    }

    /// A quantile policy on the router: after the first publish, the
    /// class's effective thresholds must reflect its own error window and
    /// the rejuvenation override must surface on its model service.
    #[test]
    fn quantile_policy_surfaces_per_class_thresholds() {
        let a = ServiceClass::new("tuned");
        let policy = Arc::new(QuantileAdaptive { min_samples: 8, ..Default::default() });
        // One-shot drift (the cooldown outlasts the test): exactly one
        // publish, so the policy's post-publish derivation is never reset
        // by a second generation landing mid-stabilisation.
        let mut config = quick_adapt(150.0);
        config.drift.cooldown_observations = 10_000;
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(
                a.clone(),
                ClassSpec::builder(Arc::new(LinRegLearner::default()), line_model(2.0))
                    .config(config)
                    .policy(policy)
                    .build(),
            )
            .spawn();
        let bus = router.bus();
        // Stale model y = 2x, truth shifted: large errors → drift →
        // enqueue → refit lands. Quiescing between chunks makes the
        // landing deterministic; the chunks that follow it provide the
        // fresh post-publish error window the policy derives from.
        let truth = |x: f64| 500.0 - 2.0 * x;
        for chunk in 0..8 {
            let xs = (0..32).map(|i| {
                let x = (chunk * 32 + i) as f64 * 0.3;
                (x, truth(x), Some(2.0 * x))
            });
            bus.publish(batch(&a, xs));
            assert!(router.quiesce(Duration::from_secs(30)));
        }
        let stats = router.shutdown();
        let sa = stats.class(&a).unwrap();
        assert!(sa.retrains >= 1, "{sa:?}");
        assert_ne!(
            sa.effective_error_threshold_secs, 150.0,
            "the drift level must have been re-derived from the error window: {sa:?}"
        );
        assert!(sa.effective_error_threshold_secs.is_finite());
        assert!(
            sa.effective_rejuvenation_threshold_secs.is_some(),
            "the rejuvenation override must surface in the stats: {sa:?}"
        );
    }

    /// Dynamic registration: a class added while the router runs serves
    /// its initial model immediately and adapts like a built-in class.
    #[test]
    fn dynamically_registered_class_adapts() {
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(ServiceClass::new("seed"), spec(1.0, 150.0))
            .spawn();
        let discovered = ServiceClass::new("discovered-1");
        let service = router.register_class(discovered.clone(), spec(2.0, 150.0)).unwrap();
        assert_eq!(service.generation(), 0);
        assert!(
            matches!(
                router.register_class(discovered.clone(), spec(2.0, 150.0)),
                Err(RouterError::DuplicateClass(_))
            ),
            "names must stay unique"
        );
        let bus = router.bus();
        // Shifted truth against the stale y = 2x initial: drift → refit.
        let truth = |x: f64| 500.0 - 2.0 * x;
        for chunk in 0..6 {
            let xs = (0..32).map(|i| {
                let x = (chunk * 32 + i) as f64 * 0.3;
                (x, truth(x), Some(2.0 * x))
            });
            assert!(bus.publish(batch(&discovered, xs)));
        }
        assert!(router.quiesce(Duration::from_secs(30)));
        let stats = router.shutdown();
        assert_eq!(stats.dynamic_registrations, 1);
        let sd = stats.class(&discovered).unwrap();
        assert!(sd.retrains >= 1, "the dynamic class must retrain: {sd:?}");
        assert_eq!(sd.ingested_checkpoints, 192);
        assert_eq!(stats.unrouted_checkpoints, 0);
    }

    /// Retirement: the retired class's buffer drains into the merge
    /// target, future batches naming it route there, and the stats flag
    /// it.
    #[test]
    fn retired_class_drains_into_the_merge_target() {
        let a = ServiceClass::new("a");
        let b = ServiceClass::new("b");
        // Drift disabled: only buffers move, no refits muddy the counts.
        let quiet = AdaptConfig::builder()
            .drift(DriftConfig::disabled())
            .buffer_capacity(512)
            .min_buffer_to_retrain(40)
            .build();
        let make_spec = || {
            ClassSpec::builder(Arc::new(LinRegLearner::default()), line_model(1.0))
                .config(quiet)
                .build()
        };
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(a.clone(), make_spec())
            .class(b.clone(), make_spec())
            .spawn();
        let bus = router.bus();
        bus.publish(batch(&a, (0..30).map(|i| (i as f64, i as f64, None))));
        bus.publish(batch(&b, (0..10).map(|i| (i as f64, i as f64, None))));
        assert!(router.quiesce(Duration::from_secs(10)));

        assert!(matches!(router.retire_class(&a, &a), Err(RouterError::SelfMerge(_))));
        assert!(matches!(
            router.retire_class(&ServiceClass::new("nope"), &b),
            Err(RouterError::UnknownClass(_))
        ));
        router.retire_class(&a, &b).unwrap();
        assert!(matches!(router.retire_class(&a, &b), Err(RouterError::RetiredClass(_))));
        // Batches still naming the retired class must land in the target.
        bus.publish(batch(&a, (0..5).map(|i| (i as f64, i as f64, None))));
        assert!(router.quiesce(Duration::from_secs(10)));
        let stats = router.shutdown();
        assert_eq!(stats.retired_classes, 1);
        let sa = stats.classes.iter().find(|c| c.class == a).unwrap();
        let sb = stats.classes.iter().find(|c| c.class == b).unwrap();
        assert!(sa.retired && !sb.retired);
        assert_eq!(sa.stats.ingested_checkpoints, 30, "counters freeze at retirement");
        assert_eq!(sb.stats.ingested_checkpoints, 15, "post-retirement batches route to b");
        assert_eq!(sb.stats.buffered, 45, "a's 30 drained rows + b's own 15: {sb:?}");
        assert_eq!(stats.unrouted_checkpoints, 0);
    }

    /// Live spec swap: a class frozen under a drift-disabled spec starts
    /// retraining once a drift-enabled spec is applied, because the swap
    /// carries the buffered training window across. Cumulative counters
    /// survive the swap; the stats record it.
    #[test]
    fn applied_spec_swaps_policy_and_carries_the_buffer() {
        let a = ServiceClass::new("a");
        let frozen = ClassSpec::builder(Arc::new(LinRegLearner::default()), line_model(2.0))
            .config(
                AdaptConfig::builder()
                    .drift(DriftConfig::disabled())
                    .buffer_capacity(512)
                    .min_buffer_to_retrain(40)
                    .build(),
            )
            .build();
        let router = AdaptiveRouter::builder(vec!["x".into()]).class(a.clone(), frozen).spawn();
        let bus = router.bus();
        // Truth shifts to y = 500 − 2x while the served model says y = 2x.
        let truth = |x: f64| 500.0 - 2.0 * x;
        let shifted = |chunk: usize| {
            (0..32).map(move |i| {
                let x = (chunk * 32 + i) as f64 * 0.3;
                (x, truth(x), Some(2.0 * x))
            })
        };
        for chunk in 0..3 {
            assert!(bus.publish(batch(&a, shifted(chunk))));
        }
        assert!(router.quiesce(Duration::from_secs(10)));
        // Frozen spec: huge errors, but drift is off — no retrain.
        assert_eq!(router.stats().class(&a).unwrap().retrains, 0);

        assert!(matches!(
            router.apply_spec(&ServiceClass::new("nope"), spec(1.0, 150.0)),
            Err(RouterError::UnknownClass(_))
        ));
        router.apply_spec(&a, spec(1.0, 150.0)).unwrap();
        for chunk in 3..6 {
            assert!(bus.publish(batch(&a, shifted(chunk))));
        }
        assert!(router.quiesce(Duration::from_secs(30)));
        let stats = router.shutdown();
        assert_eq!(stats.applied_specs, 1);
        let sa = stats.class(&a).unwrap();
        assert!(sa.drift_events >= 1, "the swapped-in drift detector must fire: {sa:?}");
        assert!(sa.retrains >= 1, "the swapped-in spec must retrain: {sa:?}");
        assert_eq!(sa.ingested_checkpoints, 192, "counters survive the swap");
    }

    /// A retired class rejects spec swaps.
    #[test]
    fn applied_spec_rejects_retired_classes() {
        let a = ServiceClass::new("a");
        let b = ServiceClass::new("b");
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(a.clone(), spec(1.0, 1e9))
            .class(b.clone(), spec(1.0, 1e9))
            .spawn();
        router.retire_class(&a, &b).unwrap();
        assert!(matches!(
            router.apply_spec(&a, spec(1.0, 150.0)),
            Err(RouterError::RetiredClass(_))
        ));
        router.shutdown();
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_class_rejected() {
        let _ = AdaptiveRouter::builder(vec!["x".into()])
            .class(ServiceClass::new("x"), spec(1.0, 100.0))
            .class(ServiceClass::new("x"), spec(1.0, 100.0))
            .spawn();
    }

    #[test]
    #[should_panic(expected = "at least one service class")]
    fn empty_router_rejected() {
        let _ = AdaptiveRouter::builder(vec!["x".into()]).spawn();
    }

    /// A learner that panics inside the pool worker — the synthetic
    /// counterpart of a crashing third-party training library.
    #[derive(Debug)]
    struct PanicLearner;

    impl DynLearner for PanicLearner {
        fn fit_dyn(&self, _data: &Dataset) -> Result<Box<dyn Regressor>, aging_ml::MlError> {
            panic!("synthetic refit panic");
        }
    }

    /// Satellite hardening: a panicking refit must not take down the pool
    /// worker or wedge the class — the panic dumps the flight recorder
    /// exactly once, counts as a failed retrain, releases the in-flight
    /// flag, and the router keeps ingesting and quiescing normally.
    #[test]
    fn panicking_refit_dumps_recorder_once_and_router_survives() {
        let recorder = Arc::new(FlightRecorder::with_capacity(256));
        let class = ServiceClass::new("crashy");
        let spec = ClassSpec::builder(Arc::new(PanicLearner), line_model(2.0))
            .config(quick_adapt(50.0))
            .build();
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(class.clone(), spec)
            .config(RouterConfig::builder().retrainer_threads(1).bus_capacity(64).build())
            .trace(Arc::clone(&recorder))
            .spawn();
        let bus = router.bus();
        let truth = |x: f64| 500.0 - 2.0 * x;
        for chunk in 0..6 {
            let xs = (0..32).map(|i| {
                let x = (chunk * 32 + i) as f64 * 0.3;
                (x, truth(x), Some(2.0 * x))
            });
            assert!(bus.publish(batch(&class, xs)));
            // Quiesce between chunks so every panicked job settles before
            // the next trigger can fire.
            assert!(router.quiesce(Duration::from_secs(30)));
        }
        let stats = router.shutdown();
        let s = stats.class(&class).unwrap();
        assert!(s.failed_retrains >= 1, "panicked refits must be counted: {s:?}");
        assert_eq!(s.generations_published, 0, "a panicking learner never publishes");
        assert_eq!(s.ingested_checkpoints, 192, "ingestion must survive the panics");
        assert_eq!(recorder.dumped(), 1, "the flight recorder dumps exactly once");
    }

    /// Panics on its first fit, then fits linear regressions.
    #[derive(Debug, Default)]
    struct PanicOnce(AtomicBool);

    impl DynLearner for PanicOnce {
        fn fit_dyn(&self, data: &Dataset) -> Result<Box<dyn Regressor>, aging_ml::MlError> {
            assert!(self.0.swap(true, Ordering::Relaxed), "synthetic first-refit panic");
            LinRegLearner::default().fit_dyn(data)
        }
    }

    /// A refit that panics poisons its class's fit-context lock; the next
    /// refit starts over from a fresh context and publishes.
    #[test]
    fn a_panicked_refit_leaves_the_class_able_to_refit() {
        let class = ServiceClass::new("recovers");
        let config = AdaptConfig::builder()
            .drift(DriftConfig::disabled())
            .buffer_capacity(128)
            .min_buffer_to_retrain(32)
            .retrain_every(32)
            .build();
        let spec = ClassSpec::builder(Arc::new(PanicOnce::default()), line_model(2.0))
            .config(config)
            .build();
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(class.clone(), spec)
            .config(RouterConfig::builder().retrainer_threads(1).build())
            .spawn();
        let bus = router.bus();
        for chunk in 0..3 {
            let xs = (0..32).map(|i| {
                let x = (chunk * 32 + i) as f64;
                (x, 500.0 - 2.0 * x, Some(2.0 * x))
            });
            assert!(bus.publish(batch(&class, xs)));
            assert!(router.quiesce(Duration::from_secs(30)));
        }
        let stats = router.shutdown();
        let s = stats.class(&class).unwrap();
        assert_eq!(s.failed_retrains, 1, "only the first refit panics: {s:?}");
        assert_eq!(s.generations_published, 2, "later refits publish: {s:?}");
    }
    /// A shifted stream for class `class`: chunk `chunk` of 32 rows whose
    /// truth is y = 500 − 2x while the stale model predicts y = 2x.
    fn shifted(class: &ServiceClass, chunk: usize) -> CheckpointBatch {
        batch(
            class,
            (0..32).map(|i| {
                let x = (chunk * 32 + i) as f64 * 0.3;
                (x, 500.0 - 2.0 * x, Some(2.0 * x))
            }),
        )
    }

    /// Inline ingestion on a router with a pool fits every refit on the
    /// caller's thread: no job reaches the pool, and the journal it writes
    /// replays offline to the same state, bit for bit.
    #[test]
    fn inline_ingestion_on_a_pooled_router_enqueues_no_job_and_matches_replay() {
        let dir = std::env::temp_dir()
            .join(format!("aging-adapt-router-{}-inline-replay", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (a, b) = (ServiceClass::new("leaky"), ServiceClass::new("steady"));
        let specs = || vec![(a.clone(), spec(2.0, 150.0)), (b.clone(), spec(1.0, 150.0))];
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .classes(specs())
            .config(RouterConfig::builder().retrainer_threads(2).build())
            .journal(Arc::new(Journal::open(&dir).unwrap()))
            .spawn();
        for chunk in 0..8 {
            let steady = batch(&b, (0..16).map(|i| (i as f64, i as f64, Some(i as f64))));
            router.ingest_inline([shifted(&a, chunk), steady]);
        }
        assert_eq!(router.shared.jobs_enqueued.load(Ordering::Relaxed), 0, "no pooled refit");
        let (stats, digests) = router.shutdown_with_digests();
        let sa = stats.class(&a).unwrap();
        assert!(sa.retrains >= 1 && sa.generations_published == sa.retrains, "{sa:?}");
        assert_eq!(stats.ingested_checkpoints, 8 * (32 + 16));
        let replayed = crate::replay::replay(&dir, vec!["x".into()], specs()).unwrap();
        let replayed: Vec<(ServiceClass, u64)> =
            replayed.classes.iter().map(|c| (c.class.clone(), c.digest)).collect();
        assert_eq!(digests, Some(replayed), "live inline state must equal its replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `quiesce` waits for the bus batches even when inline ingestion has
    /// already routed more rows than the bus carries: while the ingest
    /// thread cannot take the pipelines lock, the bus batch is unrouted
    /// and the wait times out.
    #[test]
    fn quiesce_after_inline_ingestion_still_waits_for_the_bus() {
        let class = ServiceClass::new("a");
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(class.clone(), spec(1.0, 1e9))
            .config(RouterConfig::builder().retrainer_threads(1).build())
            .spawn();
        router.ingest_inline([batch(&class, (0..64).map(|i| (i as f64, i as f64, None)))]);
        let held = router.pipelines.lock().unwrap();
        assert!(router.bus().publish(batch(&class, (0..32).map(|i| (i as f64, i as f64, None)))));
        assert!(!router.quiesce(Duration::from_millis(100)), "the bus batch is not routed yet");
        drop(held);
        assert!(router.quiesce(Duration::from_secs(30)));
        assert_eq!(router.shutdown().ingested_checkpoints, 96);
    }

    /// A learner that panics inside an inline refit — the service's ingest
    /// thread, a caller's inline ingestion and offline replay — is
    /// contained like one on the pool: each panic is one failed retrain,
    /// the flight recorder dumps once, and ingestion goes on.
    #[test]
    fn panicking_inline_refits_are_contained_like_pooled_ones() {
        let recorder = Arc::new(FlightRecorder::with_capacity(256));
        let panicking = || {
            ClassSpec::builder(Arc::new(PanicLearner), line_model(2.0))
                .config(quick_adapt(50.0))
                .build()
        };
        let class = ServiceClass::default();
        let service = crate::AdaptiveService::builder(
            Arc::new(PanicLearner),
            vec!["x".into()],
            line_model(2.0),
        )
        .config(quick_adapt(50.0))
        .trace(Arc::clone(&recorder))
        .spawn();
        for chunk in 0..6 {
            assert!(service.bus().publish(shifted(&class, chunk)), "the bus must stay open");
            assert!(service.quiesce(Duration::from_secs(30)), "chunk {chunk} must settle");
        }
        let stats = service.shutdown();
        assert!(stats.failed_retrains >= 1, "{stats:?}");
        assert_eq!((stats.generations_published, stats.ingested_checkpoints), (0, 192));
        assert_eq!(recorder.dumped(), 1);

        let dir = std::env::temp_dir()
            .join(format!("aging-adapt-router-{}-panicking-inline", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let router = AdaptiveRouter::builder(vec!["x".into()])
            .class(class.clone(), panicking())
            .journal(Arc::new(Journal::open(&dir).unwrap()))
            .spawn();
        router.ingest_inline((0..6).map(|chunk| shifted(&class, chunk)));
        let stats = router.shutdown();
        let s = stats.class(&class).unwrap();
        assert!(s.failed_retrains >= 1, "{s:?}");
        assert_eq!((s.generations_published, s.ingested_checkpoints), (0, 192));
        let replayed =
            crate::replay::replay(&dir, vec!["x".into()], vec![(class, panicking())]).unwrap();
        assert_eq!((replayed.rows, replayed.classes[0].generation), (192, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
