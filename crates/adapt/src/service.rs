//! The model service (generation-counted hot model swap), the adaptation
//! configuration and stats, and [`AdaptiveService`]: a facade over a
//! one-class [`AdaptiveRouter`] that fits every refit inline on its ingest
//! thread.

use crate::bus::{CheckpointBus, ServiceClass};
use crate::drift::DriftConfig;
use crate::pipeline::PipelineCounters;
use crate::policy::{FixedThresholds, ThresholdPolicy};
use crate::router::{AdaptiveRouter, AdaptiveRouterBuilder, ClassSpec, RouterConfig, RouterStats};
use aging_journal::Journal;
use aging_ml::{DynLearner, Regressor};
use aging_obs::{
    EventId, EventKind, EventScope, FlightRecorder, HistogramHandle, Recorder, Registry,
    TraceHandle, Unit,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// A pinned view of the serving model: the model `Arc` plus the generation
/// it belongs to. Consumers pin one snapshot per unit of work (the fleet
/// pins per epoch) so a mid-batch publish can never mix two models inside
/// one batch.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// Generation number; the initial model is generation 0.
    pub generation: u64,
    /// The serving model.
    pub model: Arc<dyn Regressor>,
}

/// Owns successive model generations behind an `Arc<dyn Regressor>`.
///
/// Readers poll [`ModelService::generation`] (one atomic load) and only
/// take the read lock to re-[`snapshot`](ModelService::snapshot) when the
/// number moved — [`ModelService::refresh`] packages that pattern as one
/// call. Publishing is wait-free for readers holding an old snapshot: the
/// swap replaces the `Arc`, it never blocks in-flight predictions.
///
/// Besides models, the service carries the **effective rejuvenation
/// threshold** ([`ModelService::rejuvenation_threshold_secs`]): a
/// self-tuning [`ThresholdPolicy`] publishes its derived predictive
/// threshold here alongside the generations, and the fleet engine re-reads
/// it at every epoch boundary — `None` (the fixed-policy state) leaves
/// each instance's configured threshold untouched.
///
/// # Consistency
///
/// The `(generation, model)` pair lives in **one** lock-protected slot and
/// every read of it happens under a single lock acquisition
/// ([`ModelService::snapshot`]) — a reader can never observe generation
/// `n` paired with the model of generation `m ≠ n`. The separate atomic
/// counter is a fast-path *hint* only; it is updated while the write lock
/// is still held, so it never runs ahead of what `snapshot` can return.
/// The publish/snapshot stress tests hammer exactly this pairing from
/// concurrent threads.
#[derive(Debug)]
pub struct ModelService {
    slot: RwLock<ModelSnapshot>,
    generation: AtomicU64,
    /// Bits of the effective rejuvenation threshold; NaN bits mean "no
    /// override" (readers see `None`).
    rejuvenation_threshold_bits: AtomicU64,
    /// Clock origin for the swap-latency instrumentation below; all
    /// publish/observe timestamps are nanoseconds since this instant.
    created: Instant,
    /// Nanoseconds-since-`created` of the most recent [`publish`]; 0 means
    /// no generation has been published yet.
    ///
    /// [`publish`]: ModelService::publish
    published_at_nanos: AtomicU64,
    /// Highest generation some consumer has already pinned via
    /// [`refresh`](ModelService::refresh) — `fetch_max` ensures only the
    /// *first* worker to observe a new generation records its swap latency.
    swap_observed_generation: AtomicU64,
    /// `adapt_swap_latency_seconds{class}` — publish → first-worker-pin
    /// latency. Unset (and therefore free) until telemetry is attached.
    swap_latency: OnceLock<HistogramHandle>,
    /// Trace sink plus the class label stamped on publish events. Unset
    /// until [`attach_trace`](ModelService::attach_trace), so untraced
    /// services pay one `OnceLock` load per publish and nothing else.
    trace: OnceLock<(TraceHandle, String)>,
    /// Newest publish entries — the lookup table that lets swap-apply and
    /// threshold events parent on the publish that caused them. Bounded;
    /// only populated while tracing is live.
    publish_log: Mutex<PublishLog>,
    /// Parent lookups that found neither the publish entry nor the
    /// one-slot eviction fallback: the caller's event goes out with
    /// `parent: None`, and this counter is the audit trail for why the
    /// causal chain has the gap.
    publish_parent_drops: AtomicU64,
}

/// Publish events retained for causal parenting — generations older than
/// this many publishes ago fall back to the refit-finish parent of the
/// most recently evicted entry, or to parentless (drop-accounted) beyond
/// that.
const PUBLISH_LOG_CAP: usize = 256;

/// The bounded publish lookup table plus its eviction memory.
///
/// Entries are `(generation, publish event id, refit-finish parent)`.
/// Eviction does not forget outright: the newest evicted entry's
/// generation and refit-finish parent stay in a one-slot fallback, so a
/// late `SwapApplied` for a just-evicted generation still parents into
/// the causal chain (on the refit finish rather than the publish) instead
/// of silently detaching.
#[derive(Debug)]
struct PublishLog {
    entries: VecDeque<(u64, EventId, Option<EventId>)>,
    /// `(generation, refit-finish parent)` of the newest evicted entry.
    last_evicted: Option<(u64, Option<EventId>)>,
    /// Injectable for tests; `PUBLISH_LOG_CAP` in production.
    cap: usize,
}

impl ModelService {
    /// Creates a service serving `initial` as generation 0, with no
    /// rejuvenation-threshold override.
    pub fn new(initial: Arc<dyn Regressor>) -> Self {
        ModelService {
            slot: RwLock::new(ModelSnapshot { generation: 0, model: initial }),
            generation: AtomicU64::new(0),
            rejuvenation_threshold_bits: AtomicU64::new(f64::NAN.to_bits()),
            created: Instant::now(),
            published_at_nanos: AtomicU64::new(0),
            swap_observed_generation: AtomicU64::new(0),
            swap_latency: OnceLock::new(),
            trace: OnceLock::new(),
            publish_log: Mutex::new(PublishLog {
                entries: VecDeque::new(),
                last_evicted: None,
                cap: PUBLISH_LOG_CAP,
            }),
            publish_parent_drops: AtomicU64::new(0),
        }
    }

    /// Shrinks the publish log's retention for eviction tests.
    #[cfg(test)]
    pub(crate) fn set_publish_log_cap(&self, cap: usize) {
        self.publish_log.lock().expect("publish log poisoned").cap = cap.max(1);
    }

    /// Attaches the publish→first-pin swap-latency histogram
    /// (`adapt_swap_latency_seconds{class}`) from `registry`. First call
    /// wins; before any call the instrumentation costs one relaxed load per
    /// *changed* generation and nothing on the unchanged fast path.
    pub fn attach_swap_telemetry(&self, registry: &Registry, class: &ServiceClass) {
        let handle = registry.histogram_with(
            "adapt_swap_latency_seconds",
            "Latency from a model generation being published to the first worker pinning it",
            Unit::Seconds,
            "class",
            class.as_str(),
        );
        let _ = self.swap_latency.set(handle);
    }

    /// Attaches a trace sink: every publish from now on emits a
    /// [`EventKind::GenerationPublished`] event labelled `class` and is
    /// remembered in a bounded publish log so downstream swap-apply and
    /// threshold-rederivation events can parent on it. First call wins; a
    /// disabled handle is ignored (the service stays trace-free).
    pub fn attach_trace(&self, trace: TraceHandle, class: &str) {
        if trace.enabled() {
            let _ = self.trace.set((trace, class.to_string()));
        }
    }

    /// The event id to parent `generation`'s downstream events (swap
    /// applies, threshold re-derivations) on: the `GenerationPublished`
    /// event while the entry is still in the bounded publish log, or —
    /// for the most recently evicted generation — the refit-finish event
    /// that produced it, so a late swap still attaches to the causal
    /// chain instead of silently detaching. `None` with tracing off, for
    /// generation 0 (never published), or for generations evicted deeper
    /// than the one-slot fallback; the last case is counted in
    /// [`ModelService::publish_parent_drops`].
    pub fn publish_event_for(&self, generation: u64) -> Option<EventId> {
        self.trace.get()?;
        let log = self.publish_log.lock().expect("publish log poisoned");
        if let Some(id) =
            log.entries.iter().rev().find(|(gen, _, _)| *gen == generation).map(|(_, id, _)| *id)
        {
            return Some(id);
        }
        match log.last_evicted {
            Some((evicted, parent)) if evicted == generation => parent,
            // An evicted generation older than the fallback slot (or one
            // the eviction memory has already moved past): the chain gap
            // is real, so account for it rather than hide it.
            Some((evicted, _)) if generation >= 1 && generation < evicted => {
                self.publish_parent_drops.fetch_add(1, Ordering::Relaxed);
                None
            }
            _ => None,
        }
    }

    /// Parent lookups that fell past both the publish log and its
    /// one-slot eviction fallback — each one is a `SwapApplied` (or
    /// threshold) event that went out parentless.
    pub fn publish_parent_drops(&self) -> u64 {
        self.publish_parent_drops.load(Ordering::Relaxed)
    }

    /// The current generation number (cheap: one atomic load).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A consistent `(generation, model)` pair, read under one lock
    /// acquisition.
    pub fn snapshot(&self) -> ModelSnapshot {
        self.slot.read().expect("model slot poisoned").clone()
    }

    /// Re-pins `pin` when a newer generation has been published; returns
    /// whether the pin moved. The epoch-boundary idiom of the fleet
    /// workers: one atomic load when nothing changed, one consistent
    /// snapshot when something did.
    pub fn refresh(&self, pin: &mut ModelSnapshot) -> bool {
        if self.generation() == pin.generation {
            return false;
        }
        *pin = self.snapshot();
        self.record_swap_observed(pin.generation);
        true
    }

    /// Records publish→first-pin latency for `generation`, at most once per
    /// generation (the `fetch_max` race decides who was first). Latency is
    /// measured against the *latest* publish timestamp, so when several
    /// generations land between two pins the recorded value covers the
    /// newest of them — the one actually being pinned.
    fn record_swap_observed(&self, generation: u64) {
        let Some(hist) = self.swap_latency.get() else { return };
        let prev = self.swap_observed_generation.fetch_max(generation, Ordering::Relaxed);
        if prev >= generation {
            return;
        }
        let published = self.published_at_nanos.load(Ordering::Relaxed);
        if published == 0 {
            return;
        }
        let now = self.created.elapsed().as_nanos() as u64;
        hist.record(now.saturating_sub(published));
    }

    /// Publishes a new model generation; returns its number.
    pub fn publish(&self, model: Arc<dyn Regressor>) -> u64 {
        self.publish_traced(model, None)
    }

    /// Like [`publish`](ModelService::publish), but parents the emitted
    /// `GenerationPublished` trace event on `parent` (typically the
    /// `RefitFinished` event of the refit that produced `model`). With no
    /// trace attached this is exactly `publish`.
    pub fn publish_traced(&self, model: Arc<dyn Regressor>, parent: Option<EventId>) -> u64 {
        // Timestamp outside the write lock; only taken when the swap
        // histogram is live, so untelemetered services never read the clock
        // here.
        if self.swap_latency.get().is_some() {
            let nanos = (self.created.elapsed().as_nanos() as u64).max(1);
            self.published_at_nanos.store(nanos, Ordering::Relaxed);
        }
        let generation = {
            let mut slot = self.slot.write().expect("model slot poisoned");
            let generation = slot.generation + 1;
            *slot = ModelSnapshot { generation, model };
            // Publish the hint while still holding the write lock: a reader
            // that sees the new number is guaranteed to find (at least) the
            // matching pair in the slot.
            self.generation.store(generation, Ordering::Release);
            generation
        };
        if let Some((trace, class)) = self.trace.get() {
            let event = trace.emit(
                EventScope::root().class(class).generation(generation).parent(parent),
                EventKind::GenerationPublished,
            );
            if let Some(id) = event {
                let mut log = self.publish_log.lock().expect("publish log poisoned");
                while log.entries.len() >= log.cap {
                    // Remember the newest eviction (generation + its
                    // refit-finish parent) so a straggling swap can still
                    // parent on the refit instead of detaching.
                    log.last_evicted = log.entries.pop_front().map(|(gen, _, p)| (gen, p));
                }
                log.entries.push_back((generation, id, parent));
            }
        }
        generation
    }

    /// The effective predictive-rejuvenation threshold (seconds of
    /// predicted TTF), or `None` while no self-tuning policy has published
    /// one. Fleet workers read this once per epoch per class.
    pub fn rejuvenation_threshold_secs(&self) -> Option<f64> {
        let secs = f64::from_bits(self.rejuvenation_threshold_bits.load(Ordering::Relaxed));
        secs.is_finite().then_some(secs)
    }

    /// Publishes a rejuvenation-threshold override (policy side; consumers
    /// pick it up at their next epoch boundary). Non-finite or
    /// non-positive values are ignored.
    pub fn set_rejuvenation_threshold_secs(&self, secs: f64) {
        if secs.is_finite() && secs > 0.0 {
            self.rejuvenation_threshold_bits.store(secs.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Configuration of the adaptation pipeline. Build with
/// [`AdaptConfig::builder`]; the struct is `#[non_exhaustive]` so fields
/// can grow without breaking call sites (read fields freely, construct
/// through the builder).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct AdaptConfig {
    /// Drift detection tuning (see [`DriftConfig`]); `enabled: false`
    /// freezes the service at generation 0.
    pub drift: DriftConfig,
    /// Capacity of the sliding training buffer (labelled checkpoints;
    /// oldest evicted first).
    pub buffer_capacity: usize,
    /// A drift trigger is only *honoured* once at least this many labelled
    /// checkpoints are buffered — retraining on a handful of rows would
    /// publish a worse model than the one that drifted. A trigger that
    /// arrives earlier stays pending and fires as soon as the buffer
    /// reaches this size. Must not exceed `buffer_capacity` (the FIFO
    /// could never satisfy it).
    pub min_buffer_to_retrain: usize,
    /// Optionally also retrain every `n` ingested checkpoints regardless of
    /// drift (the paper's plain periodic adaptation); `None` retrains on
    /// drift only.
    pub retrain_every: Option<usize>,
    /// Capacity (in batches) of the bounded ingestion ring the service
    /// creates — the back-pressure bound under a stalled retrainer. See
    /// [`crate::CheckpointBus::bounded`] for the drop-oldest semantics.
    pub bus_capacity: usize,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            drift: DriftConfig::default(),
            buffer_capacity: 4096,
            min_buffer_to_retrain: 200,
            retrain_every: None,
            bus_capacity: crate::DEFAULT_BUS_CAPACITY,
        }
    }
}

impl AdaptConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> AdaptConfigBuilder {
        AdaptConfigBuilder { config: AdaptConfig::default() }
    }

    /// Panics with a message when an adaptation parameter (drift tuning,
    /// buffer sizing) is degenerate. `bus_capacity` is deliberately *not*
    /// checked here: the per-class router ignores it (its ring is shared),
    /// so only consumers that actually build a ring from this config
    /// validate it.
    pub(crate) fn validate_adaptation(&self) {
        assert!(self.buffer_capacity > 0, "buffer capacity must be positive");
        assert!(
            self.min_buffer_to_retrain <= self.buffer_capacity,
            "min_buffer_to_retrain ({}) exceeds buffer_capacity ({}): the sliding buffer \
             could never reach the retrain gate and every drift trigger would be swallowed",
            self.min_buffer_to_retrain,
            self.buffer_capacity
        );
        self.drift.validate();
    }

    /// Full validation for consumers that also size their ingestion ring
    /// from this config ([`AdaptiveServiceBuilder::spawn`]).
    pub(crate) fn validate(&self) {
        self.validate_adaptation();
        assert!(self.bus_capacity > 0, "bus capacity must be positive");
    }
}

/// Builder for [`AdaptConfig`] — the one way to construct a non-default
/// configuration.
#[derive(Debug, Clone)]
pub struct AdaptConfigBuilder {
    config: AdaptConfig,
}

impl AdaptConfigBuilder {
    /// Sets the drift detection tuning.
    pub fn drift(mut self, drift: DriftConfig) -> Self {
        self.config.drift = drift;
        self
    }

    /// Sets the sliding training buffer capacity.
    pub fn buffer_capacity(mut self, capacity: usize) -> Self {
        self.config.buffer_capacity = capacity;
        self
    }

    /// Sets the minimum buffered checkpoints before a trigger is honoured.
    pub fn min_buffer_to_retrain(mut self, min: usize) -> Self {
        self.config.min_buffer_to_retrain = min;
        self
    }

    /// Also retrain every `n` ingested checkpoints regardless of drift.
    pub fn retrain_every(mut self, every: usize) -> Self {
        self.config.retrain_every = Some(every);
        self
    }

    /// Retrain on drift (or never, with drift disabled) — clears any
    /// periodic schedule.
    pub fn drift_only(mut self) -> Self {
        self.config.retrain_every = None;
        self
    }

    /// Sets the bounded ingestion ring capacity, in batches.
    pub fn bus_capacity(mut self, capacity: usize) -> Self {
        self.config.bus_capacity = capacity;
        self
    }

    /// Finishes the configuration.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are degenerate (zero capacities, a
    /// retrain gate above the buffer capacity, bad drift tuning).
    pub fn build(self) -> AdaptConfig {
        self.config.validate();
        self.config
    }
}

/// Counters describing what an adaptation pipeline has done so far.
///
/// All fields are monotone except `buffered`, `error_ewma_secs` and the
/// effective thresholds; the struct is safe to snapshot at any time while
/// the service runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptationStats {
    /// Labelled checkpoints ingested from the bus.
    pub ingested_checkpoints: u64,
    /// Drift events the monitor fired.
    pub drift_events: u64,
    /// Successful retrains.
    pub retrains: u64,
    /// Retrains that failed (e.g. a degenerate buffer); the previous
    /// generation keeps serving.
    pub failed_retrains: u64,
    /// Model generations published (== successful retrains).
    pub generations_published: u64,
    /// Current serving generation.
    pub generation: u64,
    /// Labelled checkpoints currently in the sliding buffer.
    pub buffered: u64,
    /// Checkpoints shed by the bounded ingestion ring's drop-oldest policy
    /// (a stalled or slow retrainer sheds history instead of growing
    /// memory). Class-routed runs attribute each shed to the class of the
    /// dropped batch; `RouterStats`' fleet-wide total additionally counts
    /// shed batches naming *unregistered* classes, so it can exceed the
    /// sum over the registered classes' rows.
    pub dropped_checkpoints: u64,
    /// Labelled rows the training buffer refused: a feature vector of the
    /// wrong arity, or a NaN or infinite feature or label. Counted as
    /// ingested, never buffered.
    #[serde(default)]
    pub rejected_rows: u64,
    /// Current smoothed absolute TTF error in seconds — the drift
    /// monitor's EWMA, promoted here so per-class drift level is visible in
    /// `RouterStats` and fleet reports. `None` until the first labelled
    /// prediction arrives (distinguishing "no signal yet" from a genuinely
    /// zero error).
    #[serde(default)]
    pub error_ewma_secs: Option<f64>,
    /// Drift error-level threshold in force when snapshotted, seconds —
    /// the configured constant under [`FixedThresholds`], self-tuned under
    /// an adaptive [`ThresholdPolicy`].
    pub effective_error_threshold_secs: f64,
    /// Rejuvenation-threshold override in force, seconds (`None` until a
    /// self-tuning policy publishes one).
    pub effective_rejuvenation_threshold_secs: Option<f64>,
}

impl AdaptationStats {
    /// Builds the stats snapshot shared by the service and the per-class
    /// router entries.
    pub(crate) fn from_counters(
        counters: &PipelineCounters,
        generation: u64,
        dropped_checkpoints: u64,
    ) -> Self {
        AdaptationStats {
            ingested_checkpoints: counters.ingested(),
            drift_events: counters.drift_events(),
            retrains: counters.retrains(),
            failed_retrains: counters.failed_retrains(),
            generations_published: generation,
            generation,
            buffered: counters.buffered(),
            dropped_checkpoints,
            rejected_rows: counters.rejected_rows(),
            error_ewma_secs: counters.error_ewma_secs(),
            effective_error_threshold_secs: counters.effective_error_threshold_secs(),
            effective_rejuvenation_threshold_secs: counters.effective_rejuvenation_threshold_secs(),
        }
    }
}

/// The drift-triggered online retraining service.
///
/// A facade over a one-class [`AdaptiveRouter`]: the class serves
/// [`ServiceClass::default`], every batch on the service's [`CheckpointBus`]
/// routes to it whatever class the batch names, and every refit fits
/// inline on the router's ingest thread instead of on a pool. Labelled
/// checkpoints stream in; the class's [`crate::AdaptationPipeline`] feeds
/// them to a sliding buffer and a [`crate::DriftMonitor`]; when drift fires
/// (or a periodic schedule comes due) it refits the learner on the buffer
/// and publishes the result into the [`ModelService`] as a new generation
/// before the next batch is routed — all without ever blocking the threads
/// that serve predictions. An optional self-tuning [`ThresholdPolicy`]
/// re-derives the operating thresholds on every publish.
///
/// # Example
///
/// ```
/// use aging_adapt::{AdaptiveService, CheckpointBatch, LabelledCheckpoint};
/// use aging_ml::linreg::LinRegLearner;
/// use aging_ml::{DynLearner, Learner, Regressor};
/// use std::sync::Arc;
///
/// // Initial model: y = x fitted on a tiny dataset.
/// let mut ds = aging_dataset::Dataset::new(vec!["x".into()], "y");
/// for i in 0..20 {
///     ds.push_row(vec![i as f64], i as f64)?;
/// }
/// let initial: Arc<dyn Regressor> = Arc::from(LinRegLearner::default().fit_boxed(&ds)?);
/// let learner: Arc<dyn DynLearner> = Arc::new(LinRegLearner::default());
/// let service =
///     AdaptiveService::builder(learner, vec!["x".into()], initial).spawn();
/// assert_eq!(service.model_service().generation(), 0);
/// let stats = service.shutdown();
/// assert_eq!(stats.generations_published, 0);
/// # Ok::<(), aging_ml::MlError>(())
/// ```
#[derive(Debug)]
pub struct AdaptiveService {
    router: AdaptiveRouter,
    /// The one class's serving side, held so [`model_service`] can lend it.
    ///
    /// [`model_service`]: AdaptiveService::model_service
    models: Arc<ModelService>,
}

/// Builder for [`AdaptiveService`] — learner, feature names and initial
/// model are mandatory (the constructor arguments); configuration and
/// threshold policy are optional.
#[derive(Debug)]
pub struct AdaptiveServiceBuilder {
    /// Carries the feature names, telemetry, trace, journal and replay
    /// request to the one-class router.
    router: AdaptiveRouterBuilder,
    learner: Arc<dyn DynLearner>,
    initial: Arc<dyn Regressor>,
    config: AdaptConfig,
    policy: Arc<dyn ThresholdPolicy>,
}

impl AdaptiveServiceBuilder {
    /// Sets the adaptation configuration (defaults to
    /// [`AdaptConfig::default`]).
    pub fn config(mut self, config: AdaptConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the self-tuning threshold policy (defaults to
    /// [`FixedThresholds`], which reproduces the configured constants
    /// exactly).
    pub fn policy(mut self, policy: Arc<dyn ThresholdPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a telemetry registry: bus depth/shed, drift and buffer
    /// gauges, ingest-latency, refit-duration and publish→first-pin
    /// swap-latency histograms, labelled with the default service class
    /// where they carry one. Without this call every instrument stays a
    /// no-op (one untaken branch per update site).
    pub fn telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.router = self.router.telemetry(registry);
        self
    }

    /// Attaches a causal trace sink: drift/trigger/refit/publish and bus
    /// shed events are recorded into `recorder`, labelled with the default
    /// service class. Independent of [`telemetry`]; without this call no
    /// event is built and no clock is read on any trace site.
    ///
    /// [`telemetry`]: AdaptiveServiceBuilder::telemetry
    pub fn trace(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.router = self.router.trace(recorder);
        self
    }

    /// Attaches a durable checkpoint journal: every ingested batch is
    /// appended (and fsync-batched) *before* it is buffered, and every
    /// generation publish and threshold re-derivation is recorded
    /// alongside — enough to reconstruct the learning side's state after
    /// a crash. The journal is compacted past the sliding buffer's horizon
    /// every 256 batches. Append failures never stall ingestion; they are
    /// counted in the pipeline's `journal_errors`.
    pub fn journal(mut self, journal: Arc<Journal>) -> Self {
        self.router = self.router.journal(journal);
        self
    }

    /// Replays the attached journal synchronously before the ingest
    /// thread starts: recorded checkpoint batches re-ingest through the
    /// same pipeline the live stream feeds, restoring the sliding buffer,
    /// model generations and derived thresholds. Replayed batches are
    /// not re-journaled. No effect unless
    /// [`journal`](AdaptiveServiceBuilder::journal) is also set.
    pub fn replay(mut self) -> Self {
        self.router = self.router.replay();
        self
    }

    /// Starts the service's ingest thread and returns the running service.
    ///
    /// When a journal is attached with replay requested, the recorded
    /// stream is re-ingested on the *caller's* thread before the ingest
    /// thread spawns — by the time this returns, the restored generations
    /// and thresholds are visible through the model service.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configuration (zero buffer or bus capacity,
    /// bad drift parameters or threshold policy), and on a requested
    /// replay whose journal cannot be read (mid-log corruption; a torn
    /// tail is tolerated and truncated).
    pub fn spawn(self) -> AdaptiveService {
        let AdaptiveServiceBuilder { router, learner, initial, config, policy } = self;
        // Validated here, on the caller's thread, so a panic names the
        // caller's call site.
        config.validate();
        let spec = ClassSpec::builder(learner, initial).config(config).policy(policy).build();
        let class = ServiceClass::default();
        let router = router
            .class(class.clone(), spec)
            .config(RouterConfig { retrainer_threads: 0, bus_capacity: config.bus_capacity })
            .start(true);
        let models = router.model_service(&class).expect("the service's one class is registered");
        AdaptiveService { router, models }
    }
}

/// The one class's counters, with every shed on the bus counted as its
/// own: batches route to it whatever class they name.
fn sole_class(stats: RouterStats) -> AdaptationStats {
    AdaptationStats { dropped_checkpoints: stats.dropped_checkpoints, ..stats.classes[0].stats }
}

impl AdaptiveService {
    /// Starts building a service: `feature_names` are the attribute names
    /// of the rows producers will publish (the feature set's variables, in
    /// order); `initial` serves as generation 0 until the first retrain.
    pub fn builder(
        learner: Arc<dyn DynLearner>,
        feature_names: Vec<String>,
        initial: Arc<dyn Regressor>,
    ) -> AdaptiveServiceBuilder {
        AdaptiveServiceBuilder {
            router: AdaptiveRouter::builder(feature_names),
            learner,
            initial,
            config: AdaptConfig::default(),
            policy: Arc::new(FixedThresholds),
        }
    }

    /// The serving side: snapshot/pin models, poll generations, read the
    /// effective rejuvenation threshold.
    pub fn model_service(&self) -> &ModelService {
        &self.models
    }

    /// A shared handle to the serving side (for consumers that outlive the
    /// service's borrow).
    pub fn model_service_arc(&self) -> Arc<ModelService> {
        Arc::clone(&self.models)
    }

    /// A producer handle on the ingestion bus (clone freely).
    pub fn bus(&self) -> CheckpointBus {
        self.router.bus()
    }

    /// Current counters; safe to call at any time.
    pub fn stats(&self) -> AdaptationStats {
        sole_class(self.router.stats())
    }

    /// Waits for the service to drain the bus: blocks until every
    /// checkpoint published *before* this call has been ingested or shed
    /// by the bounded ring (bounded by `timeout`). Returns `true` when the
    /// bus drained in time.
    ///
    /// Because the pipeline counts a batch as ingested only *after* its
    /// retrain gate ran, and refits fit inline, a `true` return also means
    /// every retrain those checkpoints triggered has completed and
    /// published.
    ///
    /// Only meant for deterministic tests and examples — production
    /// callers never need to wait on the learning side.
    #[must_use = "a `false` return means the counters read next are not settled"]
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.router.quiesce(timeout)
    }

    /// Stops the ingest thread, joins it and returns the final stats.
    ///
    /// Every batch queued on the bus before the call is still ingested
    /// before the thread exits; batches published afterwards (by
    /// surviving producer clones) go nowhere, which those producers see as
    /// `publish` returning `false`.
    pub fn shutdown(self) -> AdaptationStats {
        sole_class(self.router.shutdown())
    }

    /// [`shutdown`](AdaptiveService::shutdown), plus the final
    /// [`state digest`](AdaptiveService::state_digest) — which only exists
    /// once the ingest thread has exited, i.e. exactly when `self` is gone.
    pub fn shutdown_with_digest(self) -> (AdaptationStats, Option<u64>) {
        let (stats, digests) = self.router.shutdown_with_digests();
        (sole_class(stats), digests.and_then(|digests| digests.first().map(|&(_, d)| d)))
    }

    /// The final pipeline state digest — generation, buffered rows (bit
    /// patterns included) and effective thresholds folded into one `u64`.
    /// `None` while the service is running; it exists once the ingest
    /// thread has exited, which [`shutdown_with_digest`] reports. Two runs
    /// that report equal digests ended in bit-identical adaptation state,
    /// which is how the crash-recovery tests assert that a journal replay
    /// restored a run exactly. The format is the router's per-class
    /// [`state digest`](AdaptiveRouter::state_digests), so a service's
    /// digest compares directly with an offline
    /// [`replay`](crate::replay::replay) of its journal.
    ///
    /// [`shutdown_with_digest`]: AdaptiveService::shutdown_with_digest
    pub fn state_digest(&self) -> Option<u64> {
        self.router.state_digests().and_then(|digests| digests.first().map(|&(_, d)| d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aging_ml::linreg::LinRegLearner;
    use aging_ml::Learner;
    use aging_obs::FlightRecorder;

    fn line_model() -> Arc<dyn Regressor> {
        let mut ds = aging_dataset::Dataset::new(vec!["x".into()], "y");
        for i in 0..10 {
            ds.push_row(vec![i as f64], i as f64).unwrap();
        }
        Arc::from(LinRegLearner::default().fit_boxed(&ds).unwrap())
    }

    /// Regression: with the publish log capped at 1, a late parent lookup
    /// for a just-evicted generation must fall back to that publish's
    /// refit-finish parent instead of silently detaching — and only
    /// generations older than the eviction slot are drop-accounted.
    #[test]
    fn evicted_publish_parent_falls_back_to_refit_finish() {
        let recorder = Arc::new(FlightRecorder::with_capacity(64));
        let trace = recorder.handle();
        let service = ModelService::new(line_model());
        service.attach_trace(trace.clone(), "web");
        service.set_publish_log_cap(1);

        let finish1 =
            trace.emit(EventScope::root().class("web"), EventKind::RefitFinished { ok: true });
        let finish2 =
            trace.emit(EventScope::root().class("web"), EventKind::RefitFinished { ok: true });
        assert_eq!(service.publish_traced(line_model(), finish1), 1);
        assert_eq!(service.publish_traced(line_model(), finish2), 2);

        // Generation 2 is still in the log; generation 1 was evicted but
        // its refit-finish parent survives in the one-slot fallback.
        assert!(service.publish_event_for(2).is_some());
        assert_eq!(service.publish_event_for(1), finish1);
        assert_eq!(service.publish_parent_drops(), 0);

        // A third publish moves the eviction slot to generation 2;
        // generation 1 is now beyond recall and must be drop-accounted.
        let finish3 =
            trace.emit(EventScope::root().class("web"), EventKind::RefitFinished { ok: true });
        assert_eq!(service.publish_traced(line_model(), finish3), 3);
        assert_eq!(service.publish_event_for(2), finish2);
        assert_eq!(service.publish_event_for(1), None);
        assert_eq!(service.publish_parent_drops(), 1);

        // Generation 0 (the initial model) was never published; asking
        // for it is not a drop.
        assert_eq!(service.publish_event_for(0), None);
        assert_eq!(service.publish_parent_drops(), 1);
    }
}
