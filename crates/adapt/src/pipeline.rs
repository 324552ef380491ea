//! The adaptation pipeline: one state machine for every service class.
//!
//! The paper's core loop — observe prediction error, detect staleness,
//! retrain, republish — is [`AdaptationPipeline`]: the drift-observe →
//! sticky-trigger → buffer-gate sequence, parameterised over how a
//! retrain actually runs, the [`RetrainAction`]. The crate has one action,
//! the [`crate::AdaptiveRouter`]'s: it enqueues a buffer snapshot onto the
//! router's refit pool (at most one in-flight job per class), or, with no
//! pool — in the [`crate::AdaptiveService`] and in journal replay — fits it
//! inline. The trait stays so tests can script every disposition:
//!
//! ```text
//!  CheckpointBatch
//!        │ per checkpoint
//!        ▼
//!  DriftMonitor.observe(|predicted − ttf|) ──► drift event? ─► trigger (sticky)
//!        │                                      schedule due? ─► trigger
//!        ▼
//!  RetrainAction::buffer(features, ttf)     (sliding training window)
//!        │ per batch
//!        ▼
//!  trigger ∧ buffered ≥ min_buffer_to_retrain ──► RetrainAction::retrain()
//!        │ Published / Enqueued                        │ Deferred
//!        ▼                                             ▼
//!  ThresholdPolicy::on_publish(error window)      trigger stays pending
//!        │ new thresholds?
//!        ▼
//!  monitor level + ModelService rejuvenation override re-derived
//! ```
//!
//! Two invariants every consumer relies on, now enforced in one place:
//!
//! - the **sticky trigger**: a drift event that fires while the buffer is
//!   still below the retrain gate (or, pooled, while a refit is already in
//!   flight) is never forgotten — it stays pending and releases as soon as
//!   the gate opens;
//! - the **batch-scoped gate**: retrains are attempted once per ingested
//!   batch, after the whole batch has been observed, so one epoch's
//!   checkpoints always land in the same training window.

use crate::bus::LabelledCheckpoint;
use crate::drift::DriftMonitor;
use crate::policy::{ThresholdPolicy, Thresholds};
use crate::service::AdaptConfig;
use aging_journal::{Digest64, Journal, JournalCheckpoint, JournalRecord};
use aging_obs::{
    CounterHandle, EventId, EventKind, EventScope, GaugeHandle, Recorder, TraceHandle,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a [`RetrainAction`] disposed of a retrain attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainDisposition {
    /// The retrain completed synchronously and a new generation was
    /// published. Consumes the trigger; the threshold policy runs.
    Published,
    /// The retrain completed synchronously but the fit failed; the
    /// previous generation keeps serving. Consumes the trigger (the same
    /// degenerate buffer would just fail again) without consulting the
    /// policy — nothing was published.
    Failed,
    /// The retrain was handed to an asynchronous worker; a publish will
    /// follow. Consumes the trigger; the threshold policy re-arms only
    /// once that publish *lands* (the pipeline sees the generation move)
    /// and then derives from the new generation's error stream — never
    /// from the stale errors that triggered this retrain.
    Enqueued,
    /// The action cannot take a retrain right now (a job is already in
    /// flight, or the worker pool is gone). The sticky trigger stays
    /// pending and the next batch retries.
    Deferred,
}

/// How labelled rows are buffered and how a retrain actually runs.
///
/// [`crate::AdaptiveRouter`]'s action snapshots its sliding buffer and
/// either enqueues it onto the shared worker pool, with at most one
/// in-flight job per class, or fits it inline when there is no pool (the
/// [`crate::AdaptiveService`], journal replay). Everything else — drift
/// detection, trigger stickiness, gating, scheduling, threshold policy —
/// is the pipeline's and identical for every dispatch.
pub trait RetrainAction {
    /// Offers one labelled row to the sliding training buffer. Returns the
    /// new buffered count, or `None` when the row was rejected (arity
    /// mismatch with the feature set, or a NaN or infinite feature or
    /// label — counted as ingested and as rejected, never fatal).
    fn buffer(&mut self, features: Vec<f64>, ttf_secs: f64) -> Option<usize>;

    /// Rows currently in the training buffer.
    fn buffered(&self) -> usize;

    /// Attempts the retrain on the current buffer contents.
    fn retrain(&mut self) -> RetrainDisposition;

    /// The serving generation this action's publishes have reached. The
    /// pipeline polls it to detect that a retrain has actually *landed* —
    /// immediate for a synchronous fit, later for a pooled refit — which
    /// is the moment the threshold policy re-arms on the fresh error
    /// stream.
    fn generation(&self) -> u64;

    /// Applies policy-derived thresholds to the serving side (e.g. the
    /// [`crate::ModelService`] rejuvenation override). The drift-level
    /// threshold is applied by the pipeline itself; default is a no-op for
    /// actions with no serving side.
    fn apply_thresholds(&mut self, thresholds: &Thresholds) {
        let _ = thresholds;
    }

    /// Hands the action the causal parent (the pipeline's `TriggerFired`
    /// event) for the refit events its next retrain emits. Default no-op
    /// for actions that do not trace.
    fn set_trace_parent(&mut self, parent: Option<EventId>) {
        let _ = parent;
    }

    /// The trace id of the `GenerationPublished` event that produced the
    /// current serving generation, when the action traces publishes.
    /// Parents the pipeline's `ThresholdsRederived` events.
    fn last_publish_event(&self) -> Option<EventId> {
        None
    }

    /// A 64-bit digest of the action's replay-relevant state — the buffer
    /// contents, row for row and bit for bit, plus the serving
    /// generation. Journal replay compares it against a restored action
    /// to prove bit-identity. Default 0 for actions that do not support
    /// replay.
    fn state_digest(&self) -> u64 {
        0
    }
}

/// Shared counters a pipeline publishes for concurrent stats readers.
///
/// The pipeline runs on one thread; services and routers snapshot these
/// from others (and pooled refit workers bump the retrain counters), so
/// everything is atomic. All counters are monotone except `buffered`,
/// `error_ewma_secs` and the effective thresholds.
#[derive(Debug)]
pub struct PipelineCounters {
    pub(crate) ingested: AtomicU64,
    pub(crate) drift_events: AtomicU64,
    pub(crate) retrains: AtomicU64,
    pub(crate) failed_retrains: AtomicU64,
    pub(crate) buffered: AtomicU64,
    pub(crate) rejected_rows: AtomicU64,
    pub(crate) journal_errors: AtomicU64,
    pub(crate) error_ewma_bits: AtomicU64,
    pub(crate) effective_error_threshold_bits: AtomicU64,
    pub(crate) effective_rejuvenation_threshold_bits: AtomicU64,
}

impl PipelineCounters {
    pub(crate) fn new(initial_error_threshold_secs: f64) -> Self {
        PipelineCounters {
            ingested: AtomicU64::new(0),
            drift_events: AtomicU64::new(0),
            retrains: AtomicU64::new(0),
            failed_retrains: AtomicU64::new(0),
            buffered: AtomicU64::new(0),
            rejected_rows: AtomicU64::new(0),
            journal_errors: AtomicU64::new(0),
            // NaN bits = "no labelled prediction observed yet", so stats
            // readers can distinguish a genuinely-zero EWMA from absence.
            error_ewma_bits: AtomicU64::new(f64::NAN.to_bits()),
            effective_error_threshold_bits: AtomicU64::new(initial_error_threshold_secs.to_bits()),
            effective_rejuvenation_threshold_bits: AtomicU64::new(f64::NAN.to_bits()),
        }
    }

    /// Labelled checkpoints fully processed by the pipeline. Updated once
    /// per batch, *after* the retrain gate ran, so a reader observing
    /// `ingested == published` knows every retrain those checkpoints could
    /// trigger has already completed or been enqueued.
    pub fn ingested(&self) -> u64 {
        self.ingested.load(Ordering::Relaxed)
    }

    /// Drift events the monitor fired.
    pub fn drift_events(&self) -> u64 {
        self.drift_events.load(Ordering::Relaxed)
    }

    /// Successful synchronous retrains plus completed pooled refits.
    pub fn retrains(&self) -> u64 {
        self.retrains.load(Ordering::Relaxed)
    }

    /// Retrains whose fit failed; the previous generation keeps serving.
    pub fn failed_retrains(&self) -> u64 {
        self.failed_retrains.load(Ordering::Relaxed)
    }

    /// Rows currently in the sliding training buffer.
    pub fn buffered(&self) -> u64 {
        self.buffered.load(Ordering::Relaxed)
    }

    /// Rows the action refused to buffer: the wrong arity, or a NaN or
    /// infinite feature or label.
    pub fn rejected_rows(&self) -> u64 {
        self.rejected_rows.load(Ordering::Relaxed)
    }

    /// Journal appends that failed with an I/O error. Durability degraded
    /// but the adaptation loop kept running; a nonzero count means the
    /// journal's tail is incomplete relative to the live state.
    pub fn journal_errors(&self) -> u64 {
        self.journal_errors.load(Ordering::Relaxed)
    }

    /// Current smoothed absolute TTF error, seconds — `None` until the
    /// first labelled prediction arrives.
    pub fn error_ewma_secs(&self) -> Option<f64> {
        let secs = f64::from_bits(self.error_ewma_bits.load(Ordering::Relaxed));
        secs.is_finite().then_some(secs)
    }

    /// Drift error-level threshold currently in force, seconds. Starts at
    /// the configured constant; self-tuning policies move it on publish.
    pub fn effective_error_threshold_secs(&self) -> f64 {
        f64::from_bits(self.effective_error_threshold_bits.load(Ordering::Relaxed))
    }

    /// Rejuvenation-threshold override currently in force, seconds —
    /// `None` until a self-tuning policy publishes one.
    pub fn effective_rejuvenation_threshold_secs(&self) -> Option<f64> {
        let secs =
            f64::from_bits(self.effective_rejuvenation_threshold_bits.load(Ordering::Relaxed));
        secs.is_finite().then_some(secs)
    }
}

/// Per-class telemetry handles for one pipeline, resolved once by its
/// owner (the router when it builds the class's pipeline) and updated
/// **batch-wise** — never per checkpoint row — so an uninstrumented
/// pipeline pays one branch per batch per instrument.
#[derive(Debug, Default, Clone)]
pub struct PipelineInstruments {
    drift_observations: CounterHandle,
    drift_events: CounterHandle,
    buffer_occupancy: GaugeHandle,
}

impl PipelineInstruments {
    /// Resolves this class's instrument handles from `recorder`
    /// (`adapt_drift_observations_total`, `adapt_drift_events_total`,
    /// `adapt_buffer_occupancy_rows`, all labelled by class).
    #[must_use]
    pub fn resolve(recorder: &dyn Recorder, class: &str) -> Self {
        PipelineInstruments {
            drift_observations: recorder.counter_with(
                "adapt_drift_observations_total",
                "Prediction-error observations evaluated by the drift monitor, by class",
                "class",
                class,
            ),
            drift_events: recorder.counter_with(
                "adapt_drift_events_total",
                "Drift events fired by the monitor, by class",
                "class",
                class,
            ),
            buffer_occupancy: recorder.gauge_with(
                "adapt_buffer_occupancy_rows",
                "Rows currently in the sliding training buffer, by class",
                "class",
                class,
            ),
        }
    }
}

/// The unified drift-observe → sticky-trigger → buffer-gate state machine;
/// see the module docs for the shape and the invariants.
///
/// The pipeline is single-threaded by design — its owner (a router's
/// ingest loop, an offline replay, or a test driving it directly) feeds it
/// batches; concurrent observers read through [`AdaptationPipeline::counters`].
#[derive(Debug)]
pub struct AdaptationPipeline<A: RetrainAction> {
    monitor: DriftMonitor,
    policy: Arc<dyn ThresholdPolicy>,
    counters: Arc<PipelineCounters>,
    thresholds: Thresholds,
    min_buffer_to_retrain: usize,
    retrain_every: Option<usize>,
    retrain_due: bool,
    since_scheduled: usize,
    /// Armed by every *landed* publish (the serving generation moved):
    /// the policy is consulted with the finite errors *attributable to*
    /// the new generation — retrospective labelling means batches mix
    /// generations, and the per-checkpoint generation tag filters out the
    /// stale stragglers — until it returns an update, then disarmed until
    /// the next publish.
    policy_armed: bool,
    /// The serving generation last seen; a move re-arms the policy.
    last_generation: u64,
    /// Finite absolute errors attributed to the current generation since
    /// its publish landed, oldest first, capped at the drift trend window.
    fresh_errors: std::collections::VecDeque<f64>,
    fresh_errors_cap: usize,
    instruments: PipelineInstruments,
    /// Causal trace handle; disabled by default (one branch per decision
    /// point, no clock, no allocation).
    trace: TraceHandle,
    /// Class label stamped on every emitted event.
    trace_class: String,
    /// The `TriggerArmed` event of the pending trigger — parent for its
    /// `TriggerFired`.
    armed_event: Option<EventId>,
    /// The `TriggerFired` event of the pending trigger; emitted once per
    /// trigger even when the action defers the retrain.
    fired_event: Option<EventId>,
    /// Durable checkpoint journal; detached by default (and during
    /// replay, so restored batches are not re-journaled).
    journal: Option<Arc<Journal>>,
    /// Class label stamped on every journalled record.
    journal_class: String,
    /// The serving generation last journalled; a move appends a
    /// `GenerationPublished` record.
    journaled_generation: u64,
    action: A,
}

impl<A: RetrainAction> AdaptationPipeline<A> {
    /// Creates a pipeline with its own fresh counters.
    ///
    /// # Panics
    ///
    /// Panics on degenerate adaptation parameters (see
    /// [`AdaptConfig::builder`]).
    pub fn new(config: &AdaptConfig, policy: Arc<dyn ThresholdPolicy>, action: A) -> Self {
        let counters = Arc::new(PipelineCounters::new(config.drift.error_threshold_secs));
        Self::with_counters(config, policy, counters, action)
    }

    /// Creates a pipeline publishing into existing shared `counters` (the
    /// handle a service or router hands to its stats readers).
    ///
    /// # Panics
    ///
    /// Panics on degenerate adaptation parameters.
    pub fn with_counters(
        config: &AdaptConfig,
        policy: Arc<dyn ThresholdPolicy>,
        counters: Arc<PipelineCounters>,
        action: A,
    ) -> Self {
        config.validate_adaptation();
        policy.validate();
        AdaptationPipeline {
            monitor: DriftMonitor::new(config.drift),
            thresholds: Thresholds {
                error_threshold_secs: config.drift.error_threshold_secs,
                rejuvenation_threshold_secs: None,
            },
            policy,
            counters,
            min_buffer_to_retrain: config.min_buffer_to_retrain,
            retrain_every: config.retrain_every,
            retrain_due: false,
            since_scheduled: 0,
            policy_armed: false,
            last_generation: action.generation(),
            fresh_errors: std::collections::VecDeque::with_capacity(config.drift.trend_window),
            fresh_errors_cap: config.drift.trend_window,
            instruments: PipelineInstruments::default(),
            trace: TraceHandle::disabled(),
            trace_class: String::new(),
            armed_event: None,
            fired_event: None,
            journal: None,
            journal_class: String::new(),
            journaled_generation: action.generation(),
            action,
        }
    }

    /// Attaches per-class telemetry handles (default: all disabled).
    pub fn set_instruments(&mut self, instruments: PipelineInstruments) {
        self.instruments = instruments;
    }

    /// Attaches a causal trace handle; emitted events carry `class` as
    /// their class context (default: disabled, zero overhead).
    pub fn set_trace(&mut self, trace: TraceHandle, class: &str) {
        self.trace = trace;
        self.trace_class = class.to_string();
    }

    /// Attaches a durable checkpoint journal; every ingested batch,
    /// landed publish and threshold re-derivation is appended under
    /// `class` *before* it mutates pipeline state. Restore paths build
    /// the pipeline detached, replay the recorded stream, then attach —
    /// so a replay never journals itself.
    pub fn set_journal(&mut self, journal: Arc<Journal>, class: &str) {
        self.journal = Some(journal);
        self.journal_class = class.to_string();
        self.journaled_generation = self.action.generation();
    }

    /// Appends one record, folding an I/O failure into the shared
    /// counter instead of killing the adaptation loop.
    fn journal_append(&self, record: &JournalRecord) {
        if let Some(journal) = &self.journal {
            if journal.append(record).is_err() {
                self.counters.journal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Feeds one batch of labelled checkpoints through the state machine:
    /// every checkpoint is observed for drift and offered to the training
    /// buffer, then the retrain gate runs once for the whole batch.
    pub fn ingest(&mut self, checkpoints: Vec<LabelledCheckpoint>) {
        let n = checkpoints.len() as u64;
        // Journal-before-buffer: the batch is made durable before it can
        // mutate any state. A crash after the append replays the batch; a
        // crash before it loses rows the pipeline never observed — either
        // way no half-applied batch exists. Batch granularity is
        // load-bearing: the retrain gate runs once per batch, so replay
        // must re-feed the same batch boundaries to reproduce the same
        // retrain points.
        if self.journal.is_some() && n > 0 {
            let rows: Vec<JournalCheckpoint> = checkpoints
                .iter()
                .map(|cp| JournalCheckpoint {
                    features: cp.features.clone(),
                    ttf_secs: cp.ttf_secs,
                    predicted_ttf_secs: cp.predicted_ttf_secs,
                    predicted_generation: cp.predicted_generation,
                    monitor_only: cp.monitor_only,
                })
                .collect();
            self.journal_append(&JournalRecord::Checkpoints {
                class: self.journal_class.clone(),
                rows,
            });
        }
        // A landed publish — immediate for the synchronous action, later
        // for a pooled refit — re-arms the policy on a cleared window, so
        // the derivation only ever sees the *new* generation's errors.
        // Checked BEFORE the batch loop: the very batch that reveals an
        // asynchronous publish often carries the first errors of the new
        // generation, and they must land in the window (their generation
        // tag filters the stale stragglers riding alongside). Identity
        // policies never arm — the default configuration pays no window
        // bookkeeping at all.
        let generation = self.action.generation();
        if generation != self.last_generation {
            self.last_generation = generation;
            if !self.policy.is_identity() {
                self.policy_armed = true;
                self.fresh_errors.clear();
            }
        }
        // Telemetry is batch-granular: deltas accumulate in locals inside
        // the row loop and flow to the instruments once per batch below.
        let mut observed: u64 = 0;
        let mut events: u64 = 0;
        let mut rejected: u64 = 0;
        for cp in checkpoints {
            if let Some(err) = cp.abs_error_secs() {
                observed += 1;
                if self.monitor.observe(err).is_some() {
                    events += 1;
                    self.counters.drift_events.fetch_add(1, Ordering::Relaxed);
                    let drift_event = self.trace.emit(
                        EventScope::root().class(&self.trace_class),
                        EventKind::DriftObserved {
                            error_ewma_secs: self.monitor.error_ewma_secs().unwrap_or(err),
                            threshold_secs: self.counters.effective_error_threshold_secs(),
                        },
                    );
                    if !self.retrain_due {
                        self.armed_event = self.trace.emit(
                            EventScope::root().class(&self.trace_class).parent(drift_event),
                            EventKind::TriggerArmed { scheduled: false },
                        );
                    }
                    // Sticky: an early trigger waits for the buffer gate
                    // (and, pooled, for the in-flight job) instead of
                    // vanishing.
                    self.retrain_due = true;
                }
                if let Some(ewma) = self.monitor.error_ewma_secs() {
                    self.counters.error_ewma_bits.store(ewma.to_bits(), Ordering::Relaxed);
                }
                // Only errors attributable to the current generation
                // enter the policy window (untagged checkpoints — from
                // producers outside the fleet — count as current).
                let current_generation = cp
                    .predicted_generation
                    .is_none_or(|generation| generation == self.last_generation);
                if self.policy_armed && err.is_finite() && current_generation {
                    if self.fresh_errors.len() == self.fresh_errors_cap {
                        self.fresh_errors.pop_front();
                    }
                    self.fresh_errors.push_back(err);
                }
            }
            // Monitor-only observations (e.g. rejuvenation-epoch labels
            // against the counterfactual fork) inform drift and the
            // policy window above but never the training buffer or the
            // periodic schedule.
            if cp.monitor_only {
                continue;
            }
            match self.action.buffer(cp.features, cp.ttf_secs) {
                Some(buffered) => self.counters.buffered.store(buffered as u64, Ordering::Relaxed),
                None => rejected += 1,
            }
            self.since_scheduled += 1;
            // The periodic schedule is independent of the drift switch:
            // `retrain_every` with drift disabled is plain periodic
            // adaptation, drift without a schedule is event-driven only.
            if self.retrain_every.is_some_and(|every| self.since_scheduled >= every) {
                if !self.retrain_due {
                    self.armed_event = self.trace.emit(
                        EventScope::root().class(&self.trace_class),
                        EventKind::TriggerArmed { scheduled: true },
                    );
                }
                self.retrain_due = true;
            }
        }
        if rejected > 0 {
            self.counters.rejected_rows.fetch_add(rejected, Ordering::Relaxed);
        }
        self.maybe_retrain();
        // One check covers both publish paths: a synchronous retrain just
        // moved the generation, an asynchronous one moved it before the
        // top-of-batch re-arm check ran.
        let generation = self.action.generation();
        if self.journal.is_some() && generation != self.journaled_generation {
            self.journaled_generation = generation;
            self.journal_append(&JournalRecord::GenerationPublished {
                class: self.journal_class.clone(),
                generation,
            });
        }
        if self.policy_armed {
            self.apply_policy();
        }
        self.instruments.drift_observations.add(observed);
        if events > 0 {
            self.instruments.drift_events.add(events);
        }
        self.instruments.buffer_occupancy.set(self.action.buffered() as f64);
        // Counted last so "all ingested" implies "every retrain these
        // checkpoints trigger has already run or been enqueued" — the
        // invariant `quiesce` implementations rely on.
        self.counters.ingested.fetch_add(n, Ordering::Relaxed);
    }

    fn maybe_retrain(&mut self) {
        if !self.retrain_due || self.action.buffered() < self.min_buffer_to_retrain {
            return;
        }
        // One `TriggerFired` per pending trigger, emitted the first time
        // the gate opens (deferred retries reuse it — the trigger fired
        // once, however long the in-flight refit makes it wait), and
        // emitted *before* the retrain so the refit events it parents
        // carry higher sequence numbers.
        if self.trace.enabled() && self.fired_event.is_none() {
            self.fired_event = self.trace.emit(
                EventScope::root().class(&self.trace_class).parent(self.armed_event),
                EventKind::TriggerFired { buffered: self.action.buffered() as u64 },
            );
            self.action.set_trace_parent(self.fired_event);
        }
        let disposition = self.action.retrain();
        if disposition == RetrainDisposition::Deferred {
            return;
        }
        self.retrain_due = false;
        self.since_scheduled = 0;
        self.armed_event = None;
        self.fired_event = None;
        match disposition {
            RetrainDisposition::Published => {
                self.counters.retrains.fetch_add(1, Ordering::Relaxed);
            }
            // The policy re-arms when the publish *lands* (the generation
            // check in `ingest`), not here: an enqueued refit is still
            // serving the stale generation, whose errors must not leak
            // into the fresh window.
            RetrainDisposition::Enqueued => {}
            RetrainDisposition::Failed => {
                self.counters.failed_retrains.fetch_add(1, Ordering::Relaxed);
            }
            RetrainDisposition::Deferred => unreachable!("handled above"),
        }
    }

    /// Consults the threshold policy with the errors attributed to the
    /// current generation and applies any update: the drift level moves
    /// on the monitor immediately, the rejuvenation override flows to the
    /// action's serving side, and the policy disarms until the next
    /// publish. Rejects non-finite or non-positive policy output
    /// wholesale — a policy bug must never poison the monitor.
    fn apply_policy(&mut self) {
        // `make_contiguous` instead of collecting: this runs once per
        // batch while armed (indefinitely, for an identity policy that
        // never answers), so it must not allocate.
        let window: &[f64] = self.fresh_errors.make_contiguous();
        let Some(update) = self.policy.on_publish(window, &self.thresholds) else {
            return;
        };
        let level_ok = update.error_threshold_secs.is_finite() && update.error_threshold_secs > 0.0;
        let rejuvenation_ok =
            update.rejuvenation_threshold_secs.is_none_or(|s| s.is_finite() && s > 0.0);
        if !level_ok || !rejuvenation_ok {
            // Ignored, as the trait doc promises — the policy stays armed
            // and is consulted again as more errors accumulate, so a
            // transient derivation bug cannot silently cancel self-tuning
            // until the next publish.
            return;
        }
        self.policy_armed = false;
        self.trace.emit(
            EventScope::root()
                .class(&self.trace_class)
                .generation(self.last_generation)
                .parent(self.action.last_publish_event()),
            EventKind::ThresholdsRederived {
                drift_threshold_secs: update.error_threshold_secs,
                rejuvenation_threshold_secs: update.rejuvenation_threshold_secs,
            },
        );
        if self.journal.is_some() {
            self.journal_append(&JournalRecord::ThresholdsRederived {
                class: self.journal_class.clone(),
                error_threshold_secs: update.error_threshold_secs,
                rejuvenation_threshold_secs: update.rejuvenation_threshold_secs,
            });
        }
        self.monitor.set_error_threshold_secs(update.error_threshold_secs);
        self.counters
            .effective_error_threshold_bits
            .store(update.error_threshold_secs.to_bits(), Ordering::Relaxed);
        if let Some(secs) = update.rejuvenation_threshold_secs {
            self.counters
                .effective_rejuvenation_threshold_bits
                .store(secs.to_bits(), Ordering::Relaxed);
        }
        self.action.apply_thresholds(&update);
        self.thresholds = update;
    }

    /// The shared counters handle (clone for concurrent stats readers).
    pub fn counters(&self) -> Arc<PipelineCounters> {
        Arc::clone(&self.counters)
    }

    /// The thresholds currently in force.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// A 64-bit digest of the pipeline's replay-relevant state: serving
    /// generation, buffered row count, effective thresholds and the
    /// action's own buffer digest. A journal replay that reproduces this
    /// value has restored the adaptation state bit for bit.
    pub fn state_digest(&self) -> u64 {
        let mut digest = Digest64::new();
        digest.write_u64(self.action.generation());
        digest.write_u64(self.action.buffered() as u64);
        digest.write_f64(self.thresholds.error_threshold_secs);
        match self.thresholds.rejuvenation_threshold_secs {
            Some(secs) => {
                digest.write_u64(1);
                digest.write_f64(secs);
            }
            None => digest.write_u64(0),
        }
        digest.write_u64(self.action.state_digest());
        digest.finish()
    }

    /// Whether a sticky retrain trigger is pending (fired but not yet past
    /// the buffer gate or the in-flight job).
    pub fn retrain_pending(&self) -> bool {
        self.retrain_due
    }

    /// The drift monitor (read-only; the pipeline owns its updates).
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// The retrain action.
    pub fn action(&self) -> &A {
        &self.action
    }

    /// Mutable access to the retrain action (e.g. to drain a test
    /// action's log).
    pub fn action_mut(&mut self) -> &mut A {
        &mut self.action
    }

    /// Consumes the pipeline and returns its retrain action — how a
    /// retired class's sliding buffer is recovered for draining into a
    /// merge target.
    pub fn into_action(self) -> A {
        self.action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedThresholds;
    use crate::{DriftConfig, QuantileAdaptive};

    /// A scripted action: buffers rows, answers retrains from a queue of
    /// dispositions, and logs every call.
    #[derive(Debug)]
    struct ScriptedAction {
        rows: Vec<(Vec<f64>, f64)>,
        arity: usize,
        dispositions: Vec<RetrainDisposition>,
        retrain_calls: usize,
        generation: u64,
        applied: Vec<Thresholds>,
    }

    impl ScriptedAction {
        fn new(arity: usize, dispositions: Vec<RetrainDisposition>) -> Self {
            ScriptedAction {
                rows: Vec::new(),
                arity,
                dispositions,
                retrain_calls: 0,
                generation: 0,
                applied: Vec::new(),
            }
        }
    }

    impl RetrainAction for ScriptedAction {
        fn buffer(&mut self, features: Vec<f64>, ttf_secs: f64) -> Option<usize> {
            if features.len() != self.arity {
                return None;
            }
            self.rows.push((features, ttf_secs));
            Some(self.rows.len())
        }

        fn buffered(&self) -> usize {
            self.rows.len()
        }

        fn retrain(&mut self) -> RetrainDisposition {
            let disposition = self
                .dispositions
                .get(self.retrain_calls)
                .copied()
                .unwrap_or(RetrainDisposition::Published);
            self.retrain_calls += 1;
            if disposition == RetrainDisposition::Published {
                self.generation += 1;
            }
            disposition
        }

        fn generation(&self) -> u64 {
            self.generation
        }

        fn apply_thresholds(&mut self, thresholds: &Thresholds) {
            self.applied.push(*thresholds);
        }
    }

    fn config(min_buffer: usize, retrain_every: Option<usize>) -> AdaptConfig {
        let mut builder = AdaptConfig::builder()
            .drift(DriftConfig {
                enabled: true,
                ewma_alpha: 0.5,
                error_threshold_secs: 100.0,
                min_observations: 4,
                trend_window: 64,
                trend_tolerance_secs: 100.0,
                trend_slope_threshold: 5.0,
                cooldown_observations: 1_000,
            })
            .buffer_capacity(512)
            .min_buffer_to_retrain(min_buffer);
        if let Some(every) = retrain_every {
            builder = builder.retrain_every(every);
        }
        builder.build()
    }

    /// An untagged checkpoint (external-producer style: counts as the
    /// current generation for the policy window).
    fn cp(err: f64) -> LabelledCheckpoint {
        LabelledCheckpoint::new(vec![1.0], 100.0, Some(100.0 + err))
    }

    /// A generation-tagged checkpoint, as the fleet produces them.
    fn cp_gen(err: f64, generation: u64) -> LabelledCheckpoint {
        LabelledCheckpoint {
            predicted_generation: Some(generation),
            ..LabelledCheckpoint::new(vec![1.0], 100.0, Some(100.0 + err))
        }
    }

    #[test]
    fn sticky_trigger_waits_for_the_buffer_gate() {
        let action = ScriptedAction::new(1, vec![RetrainDisposition::Published]);
        let mut p = AdaptationPipeline::new(&config(8, None), Arc::new(FixedThresholds), action);
        // Huge errors: drift fires well before 8 rows are buffered.
        p.ingest((0..5).map(|_| cp(5_000.0)).collect());
        assert!(p.retrain_pending(), "trigger must be pending below the gate");
        assert_eq!(p.action().retrain_calls, 0);
        assert_eq!(p.counters().drift_events(), 1);
        // Quiet rows fill the buffer: the pending trigger must release.
        p.ingest((0..3).map(|_| cp(0.0)).collect());
        assert!(!p.retrain_pending());
        assert_eq!(p.action().retrain_calls, 1);
        assert_eq!(p.counters().retrains(), 1);
        assert_eq!(p.counters().ingested(), 8);
    }

    #[test]
    fn deferred_retrain_keeps_the_trigger_pending() {
        let action = ScriptedAction::new(
            1,
            vec![RetrainDisposition::Deferred, RetrainDisposition::Enqueued],
        );
        let mut p = AdaptationPipeline::new(&config(2, None), Arc::new(FixedThresholds), action);
        p.ingest((0..4).map(|_| cp(5_000.0)).collect());
        assert!(p.retrain_pending(), "Deferred must not consume the trigger");
        assert_eq!(p.action().retrain_calls, 1);
        // Next batch retries and the Enqueued disposition consumes it.
        p.ingest(vec![cp(0.0)]);
        assert!(!p.retrain_pending());
        assert_eq!(p.action().retrain_calls, 2);
        assert_eq!(p.counters().retrains(), 0, "enqueued jobs are counted by their worker");
    }

    #[test]
    fn failed_retrain_consumes_the_trigger_without_policy() {
        let action = ScriptedAction::new(1, vec![RetrainDisposition::Failed]);
        let mut p = AdaptationPipeline::new(
            &config(2, None),
            Arc::new(QuantileAdaptive { min_samples: 1, ..Default::default() }),
            action,
        );
        p.ingest((0..4).map(|_| cp(5_000.0)).collect());
        assert!(!p.retrain_pending());
        assert_eq!(p.counters().failed_retrains(), 1);
        assert!(p.action().applied.is_empty(), "no publish, no policy consult");
        assert_eq!(p.thresholds().rejuvenation_threshold_secs, None);
    }

    #[test]
    fn scheduled_retraining_is_independent_of_drift() {
        let mut cfg = config(1, Some(10));
        cfg.drift = DriftConfig::disabled();
        let action = ScriptedAction::new(1, Vec::new());
        let mut p = AdaptationPipeline::new(&cfg, Arc::new(FixedThresholds), action);
        for _ in 0..3 {
            p.ingest((0..10).map(|_| cp(0.0)).collect());
        }
        assert_eq!(p.action().retrain_calls, 3, "one scheduled retrain per 10 checkpoints");
        assert_eq!(p.counters().drift_events(), 0);
    }

    #[test]
    fn mismatched_arity_rows_are_counted_but_not_buffered() {
        let action = ScriptedAction::new(2, Vec::new());
        let mut p = AdaptationPipeline::new(&config(100, None), Arc::new(FixedThresholds), action);
        p.ingest(vec![cp(0.0)]); // arity 1 row into an arity-2 action
        assert_eq!(p.counters().ingested(), 1);
        assert_eq!(p.counters().buffered(), 0);
    }

    #[test]
    fn policy_derives_from_the_fresh_post_publish_errors() {
        let action = ScriptedAction::new(1, vec![RetrainDisposition::Published]);
        let policy = QuantileAdaptive { min_samples: 4, ..Default::default() };
        let mut p = AdaptationPipeline::new(&config(2, None), Arc::new(policy), action);
        // Huge stale-model errors trigger drift and the publish; the
        // policy must NOT derive from them — it arms on the publish and
        // waits for the new generation's error stream.
        p.ingest((0..6).map(|_| cp(5_000.0)).collect());
        assert_eq!(p.counters().retrains(), 1);
        assert_eq!(p.thresholds().error_threshold_secs, 100.0, "no fresh errors yet");
        assert!(p.action().applied.is_empty());
        // Three fresh errors: still below the policy's min_samples.
        p.ingest((0..3).map(|_| cp(150.0)).collect());
        assert_eq!(p.thresholds().error_threshold_secs, 100.0);
        // The fourth fresh error releases the derivation — from the fresh
        // constant 150 s stream: drift level 4×150 = 600, rejuvenation
        // 300 + 150 = 450. The stale 5000 s errors left no trace.
        p.ingest(vec![cp(150.0)]);
        assert_eq!(p.thresholds().error_threshold_secs, 600.0);
        assert_eq!(p.thresholds().rejuvenation_threshold_secs, Some(450.0));
        assert_eq!(p.monitor().error_threshold_secs(), 600.0);
        assert_eq!(p.counters().effective_error_threshold_secs(), 600.0);
        assert_eq!(p.counters().effective_rejuvenation_threshold_secs(), Some(450.0));
        assert_eq!(p.action().applied.len(), 1);
        // Disarmed until the next publish: more errors change nothing.
        p.ingest((0..8).map(|_| cp(40.0)).collect());
        assert_eq!(p.thresholds().error_threshold_secs, 600.0);
        assert_eq!(p.action().applied.len(), 1);
    }

    #[test]
    fn monitor_only_observations_inform_drift_but_never_train() {
        let action = ScriptedAction::new(1, Vec::new());
        let mut cfg = config(1, Some(10));
        cfg.drift = DriftConfig::disabled();
        let mut p = AdaptationPipeline::new(&cfg, Arc::new(FixedThresholds), action);
        // 30 monitor-only observations: ingested and error-tracked, but
        // no rows buffered and the periodic schedule must not tick.
        p.ingest(
            (0..30).map(|_| LabelledCheckpoint::monitor_observation(100.0, 400.0, None)).collect(),
        );
        assert_eq!(p.counters().ingested(), 30);
        assert_eq!(p.counters().buffered(), 0, "monitor-only rows never enter the buffer");
        assert_eq!(p.action().retrain_calls, 0, "monitor-only rows never tick the schedule");
        assert_eq!(p.counters().error_ewma_secs(), Some(300.0), "their errors still flow");
        // Trainable rows alongside them behave exactly as before.
        p.ingest((0..10).map(|_| cp(0.0)).collect());
        assert_eq!(p.counters().buffered(), 10);
        assert_eq!(p.action().retrain_calls, 1, "10 trainable rows tick the schedule once");
    }

    #[test]
    fn stale_generation_stragglers_are_excluded_from_the_policy_window() {
        let action = ScriptedAction::new(1, vec![RetrainDisposition::Published]);
        let policy = QuantileAdaptive { min_samples: 4, ..Default::default() };
        let mut p = AdaptationPipeline::new(&config(2, None), Arc::new(policy), action);
        // Generation-0 errors trigger drift; the retrain publishes
        // generation 1.
        p.ingest((0..6).map(|_| cp_gen(5_000.0, 0)).collect());
        assert_eq!(p.counters().retrains(), 1);
        // Straggler epochs keep delivering generation-0-labelled errors
        // after the swap (retrospective labelling): they must never enter
        // the fresh window, however many arrive.
        p.ingest((0..32).map(|_| cp_gen(5_000.0, 0)).collect());
        assert_eq!(p.thresholds().error_threshold_secs, 100.0, "stragglers must not derive");
        // A batch mixing stragglers with generation-1 errors: only the
        // four generation-1 samples count, and they alone release the
        // derivation — 4×150 = 600 / 300+150 = 450, no straggler trace.
        let mut mixed: Vec<LabelledCheckpoint> = (0..6).map(|_| cp_gen(5_000.0, 0)).collect();
        mixed.extend((0..4).map(|_| cp_gen(150.0, 1)));
        p.ingest(mixed);
        assert_eq!(p.thresholds().error_threshold_secs, 600.0);
        assert_eq!(p.thresholds().rejuvenation_threshold_secs, Some(450.0));
    }

    /// A policy that returns poisoned thresholds; the pipeline must reject
    /// them wholesale.
    #[derive(Debug)]
    struct PoisonPolicy;

    impl ThresholdPolicy for PoisonPolicy {
        fn on_publish(&self, _: &[f64], _: &Thresholds) -> Option<Thresholds> {
            Some(Thresholds {
                error_threshold_secs: f64::NAN,
                rejuvenation_threshold_secs: Some(-5.0),
            })
        }
    }

    #[test]
    fn instruments_mirror_telemetry_batchwise() {
        use aging_obs::Registry;
        let action = ScriptedAction::new(1, Vec::new());
        let mut p = AdaptationPipeline::new(&config(100, None), Arc::new(FixedThresholds), action);
        let registry = Registry::shared();
        p.set_instruments(PipelineInstruments::resolve(registry.as_ref(), "web"));
        p.ingest((0..5).map(|_| cp(5_000.0)).collect());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("adapt_drift_observations_total", Some("web")), Some(5));
        assert_eq!(
            snap.counter("adapt_drift_events_total", Some("web")),
            Some(p.counters().drift_events()),
            "instrument mirrors the shared counter"
        );
        assert!(p.counters().drift_events() > 0);
        assert_eq!(snap.gauge("adapt_buffer_occupancy_rows", Some("web")), Some(5.0));
    }

    #[test]
    fn non_finite_policy_output_is_rejected() {
        let action = ScriptedAction::new(1, vec![RetrainDisposition::Published]);
        let mut p = AdaptationPipeline::new(&config(2, None), Arc::new(PoisonPolicy), action);
        p.ingest((0..6).map(|_| cp(5_000.0)).collect());
        assert_eq!(p.counters().retrains(), 1);
        assert_eq!(p.thresholds().error_threshold_secs, 100.0, "poison must be discarded");
        assert_eq!(p.monitor().error_threshold_secs(), 100.0);
        assert!(p.action().applied.is_empty());
    }
}
