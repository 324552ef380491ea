//! Causal event tracing: the [`Event`] schema, the [`EventSink`] trait,
//! the bounded [`FlightRecorder`] ring and the [`Trace`] query/export API.
//!
//! Metrics say *how much* and *how long*; the trace says *why*. Every
//! adaptation decision — a drift observation crossing its threshold, the
//! sticky trigger arming and firing, a refit starting and finishing, a
//! generation publish, a shard applying the swap, a threshold
//! re-derivation — is recorded as a structured [`Event`] carrying a
//! sequence number, a monotonic timestamp, its class/shard/generation
//! context and the id of the event that *caused* it. Walking parent ids
//! ([`Trace::causal_chain`]) answers "why did this refit happen" from the
//! recorded stream instead of inferring it from histogram deltas.
//!
//! The discipline matches the metric handles ([`crate::Recorder`]): an
//! instrumented call site holds a [`TraceHandle`], and when tracing is off
//! the whole cost is one branch on a `None` — the disabled handle never
//! reads the clock, never allocates and never touches an atomic. The live
//! sink is the [`FlightRecorder`]: a bounded ring that keeps the newest
//! events, counts every displaced one, and can be dumped as JSONL when a
//! worker panics or exported as Chrome trace-event JSON for Perfetto.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Identifier of a recorded event: its sequence number.
pub type EventId = u64;

/// Default [`FlightRecorder`] capacity — generous enough that a full
/// example run keeps every adaptation event, small enough (a few MB) to
/// sit in memory for the whole run.
pub const DEFAULT_FLIGHT_RECORDER_CAPACITY: usize = 65_536;

/// What happened. Scalar payloads only on the hot variants, so building a
/// kind for a disabled handle is register moves — no allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A drift observation crossed the detector's threshold.
    DriftObserved {
        /// Error EWMA (seconds) at the moment the detector fired.
        error_ewma_secs: f64,
        /// The error-level threshold (seconds) it crossed.
        threshold_secs: f64,
    },
    /// The sticky retrain trigger armed (drift-driven or scheduled).
    TriggerArmed {
        /// `true` when the periodic schedule armed it, `false` for drift.
        scheduled: bool,
    },
    /// The armed trigger passed the buffer gate and released a retrain.
    TriggerFired {
        /// Labelled rows in the sliding buffer when the gate opened.
        buffered: u64,
    },
    /// A model refit started on a retrainer thread.
    RefitStarted {
        /// Training rows in the refit dataset.
        rows: u64,
    },
    /// The refit returned.
    RefitFinished {
        /// Whether the learner produced a model.
        ok: bool,
    },
    /// A new model generation was published to the model service.
    GenerationPublished,
    /// A fleet shard re-pinned onto a published generation at an epoch
    /// boundary.
    SwapApplied,
    /// A threshold policy re-derived the operating thresholds.
    ThresholdsRederived {
        /// New drift error-level threshold (seconds).
        drift_threshold_secs: f64,
        /// New predictive rejuvenation threshold (seconds), when the
        /// policy overrides the spec.
        rejuvenation_threshold_secs: Option<f64>,
    },
    /// The bounded checkpoint bus shed a batch under backpressure.
    BusShed {
        /// Labelled checkpoints in the shed batch.
        checkpoints: u64,
    },
    /// Class discovery evaluated the fleet partition.
    DiscoveryEvaluated {
        /// Mean silhouette of the proposed partition.
        silhouette: f64,
        /// Classes active after the evaluation.
        active_classes: u64,
        /// Instances with a ready aging signature.
        ready_instances: u64,
    },
    /// Discovery split a new class off an existing one.
    ClassSplit {
        /// The class the new one was seeded from.
        seeded_from: String,
    },
    /// Discovery retired a class, folding it into another.
    ClassMerged {
        /// The surviving class.
        into: String,
    },
    /// Discovery moved one instance to another class.
    ClassReassigned {
        /// Fleet-wide instance index.
        instance: u64,
        /// The class the instance left.
        from: String,
    },
    /// Every live shard finished this fleet epoch (one per epoch, in
    /// epoch order).
    EpochCompleted {
        /// Zero-based epoch index.
        epoch: u64,
    },
    /// A checkpoint journal replay restored adaptation state on restart.
    JournalReplayed {
        /// Journal records applied during the replay.
        records: u64,
    },
    /// The checkpoint journal was compacted past the sliding-buffer
    /// horizon.
    JournalCompacted {
        /// Records surviving the compaction.
        kept_records: u64,
        /// Records dropped past the retention horizon.
        dropped_records: u64,
    },
    /// Policy search scored one candidate configuration by counterfactual
    /// journal replay.
    CandidateEvaluated {
        /// Zero-based candidate index within its search round.
        round: u64,
        /// The neighbourhood operator that generated the candidate.
        operator: String,
        /// Replay objective (seconds); `None` when the candidate was
        /// unscoreable (no labelled rows, unstable replay digest).
        objective_secs: Option<f64>,
        /// Whether simulated annealing accepted the candidate as the new
        /// search position.
        accepted: bool,
    },
    /// One policy-search round over a class completed.
    TuneRoundCompleted {
        /// Monotone per-tuner round counter.
        round: u64,
        /// Best objective found so far (seconds), when finite.
        best_objective_secs: Option<f64>,
        /// The incumbent objective the round searched against (seconds),
        /// when finite.
        incumbent_objective_secs: Option<f64>,
    },
    /// The promotion gate fired: a searched policy beat the incumbent by
    /// at least the configured margin and was published to the router.
    PolicyPromoted {
        /// Replayed objective of the displaced incumbent (seconds).
        incumbent_objective_secs: Option<f64>,
        /// Replayed objective of the promoted candidate (seconds).
        candidate_objective_secs: Option<f64>,
    },
    /// The event-driven scheduler dispatched one shard epoch (parented on
    /// the shard's previous `EpochScheduled`, forming a per-shard chain).
    EpochScheduled {
        /// Zero-based epoch index the shard is about to run.
        epoch: u64,
        /// Live instances on the shard when the epoch was dispatched.
        live: u64,
    },
    /// An instance joined the live fleet (scripted churn or autoscaling).
    InstanceJoined {
        /// Fleet-wide instance index of the joiner.
        instance: u64,
        /// Whether an autoscale rule (vs. a scripted join) spawned it.
        autoscaled: bool,
    },
    /// An instance left the live fleet.
    InstanceRetired {
        /// Fleet-wide instance index of the leaver.
        instance: u64,
        /// Whether a churn plan forced the retire (vs. aging out).
        forced: bool,
    },
}

impl EventKind {
    /// Stable name of the variant, used as the Chrome trace event name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::DriftObserved { .. } => "DriftObserved",
            EventKind::TriggerArmed { .. } => "TriggerArmed",
            EventKind::TriggerFired { .. } => "TriggerFired",
            EventKind::RefitStarted { .. } => "RefitStarted",
            EventKind::RefitFinished { .. } => "RefitFinished",
            EventKind::GenerationPublished => "GenerationPublished",
            EventKind::SwapApplied => "SwapApplied",
            EventKind::ThresholdsRederived { .. } => "ThresholdsRederived",
            EventKind::BusShed { .. } => "BusShed",
            EventKind::DiscoveryEvaluated { .. } => "DiscoveryEvaluated",
            EventKind::ClassSplit { .. } => "ClassSplit",
            EventKind::ClassMerged { .. } => "ClassMerged",
            EventKind::ClassReassigned { .. } => "ClassReassigned",
            EventKind::EpochCompleted { .. } => "EpochCompleted",
            EventKind::JournalReplayed { .. } => "JournalReplayed",
            EventKind::JournalCompacted { .. } => "JournalCompacted",
            EventKind::CandidateEvaluated { .. } => "CandidateEvaluated",
            EventKind::TuneRoundCompleted { .. } => "TuneRoundCompleted",
            EventKind::PolicyPromoted { .. } => "PolicyPromoted",
            EventKind::EpochScheduled { .. } => "EpochScheduled",
            EventKind::InstanceJoined { .. } => "InstanceJoined",
            EventKind::InstanceRetired { .. } => "InstanceRetired",
        }
    }
}

/// One recorded event: the [`EventKind`] plus its position in the stream
/// and its causal context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Position in the global stream; doubles as the event's id.
    pub seq: EventId,
    /// Nanoseconds since the recorder was created (monotonic clock).
    pub ts_nanos: u64,
    /// Service class the event belongs to, when class-scoped.
    pub class: Option<String>,
    /// Fleet shard that emitted the event, when shard-scoped.
    pub shard: Option<u32>,
    /// Model generation the event refers to, when generation-scoped.
    pub generation: Option<u64>,
    /// Id of the event that caused this one; `None` for root events.
    pub parent: Option<EventId>,
    /// What happened.
    pub kind: EventKind,
}

/// Borrowed context attached to an emitted event: class, shard,
/// generation and causal parent. All optional; [`EventScope::root`] is
/// the empty scope.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventScope<'a> {
    /// Service class, when the event is class-scoped.
    pub class: Option<&'a str>,
    /// Fleet shard index, when shard-scoped.
    pub shard: Option<u32>,
    /// Model generation, when generation-scoped.
    pub generation: Option<u64>,
    /// Causal parent id, `None` for root events.
    pub parent: Option<EventId>,
}

impl<'a> EventScope<'a> {
    /// An empty scope: no class, no shard, no generation, no parent.
    #[must_use]
    pub fn root() -> Self {
        Self::default()
    }

    /// Sets the service class.
    #[must_use]
    pub fn class(mut self, class: &'a str) -> Self {
        self.class = Some(class);
        self
    }

    /// Sets the shard index.
    #[must_use]
    pub fn shard(mut self, shard: u32) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Sets the model generation.
    #[must_use]
    pub fn generation(mut self, generation: u64) -> Self {
        self.generation = Some(generation);
        self
    }

    /// Sets the causal parent (a `None` keeps the event a root).
    #[must_use]
    pub fn parent(mut self, parent: Option<EventId>) -> Self {
        self.parent = parent;
        self
    }
}

/// Destination of emitted events.
///
/// The default method drops everything, so a sink that records nothing is
/// `impl EventSink for NoopSink {}` — the same discipline as
/// [`crate::Recorder`]. Instrumented code never calls a sink directly; it
/// goes through a [`TraceHandle`], whose disabled form short-circuits
/// before any dispatch.
pub trait EventSink: std::fmt::Debug + Send + Sync {
    /// Records one event, returning its id when the sink kept it.
    fn record(&self, scope: EventScope<'_>, kind: EventKind) -> Option<EventId> {
        let _ = (scope, kind);
        None
    }
}

/// Sink that drops every event; the tracing-off fast path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {}

/// Handle to an event sink, possibly disabled.
///
/// The disabled handle is the zero-cost form: [`TraceHandle::emit`] is one
/// branch on a `None` — no clock read, no allocation, no atomics. Hot call
/// sites build their [`EventKind`] from scalars, so constructing the
/// argument costs nothing either; kinds carrying strings (the discovery
/// events) sit on rare paths and may check [`TraceHandle::enabled`] first.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle(Option<Arc<dyn EventSink>>);

impl TraceHandle {
    /// A handle that drops every event.
    #[must_use]
    pub fn disabled() -> Self {
        Self(None)
    }

    /// A live handle feeding `sink`.
    #[must_use]
    pub fn sink(sink: Arc<dyn EventSink>) -> Self {
        Self(Some(sink))
    }

    /// Whether emitted events reach a live sink.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emits one event; returns its id when a live sink recorded it.
    #[inline]
    pub fn emit(&self, scope: EventScope<'_>, kind: EventKind) -> Option<EventId> {
        match &self.0 {
            Some(sink) => sink.record(scope, kind),
            None => None,
        }
    }
}

/// Bounded ring that keeps the newest events and counts every drop.
///
/// Sequence numbers and timestamps come from one shared atomic and the
/// recorder's monotonic epoch, so the stream is globally ordered no matter
/// which thread emits. Slot writes take a per-slot mutex — uncontended
/// except when two writers collide on the same ring position, i.e. a full
/// capacity apart — while sequence allocation and drop accounting stay
/// lock-free. (A wait-free slot write needs `unsafe`, which this crate
/// forbids.)
///
/// Overflow policy: the ring keeps the **newest** `capacity` events. A
/// writer that finds its slot occupied by an *older* event displaces it
/// (one drop); a stalled writer that finds a *newer* resident drops its
/// own event instead (also one drop), so `recorded == kept + dropped`
/// always holds.
#[derive(Debug)]
pub struct FlightRecorder {
    started: Instant,
    next_seq: AtomicU64,
    dropped: AtomicU64,
    dump_fired: AtomicBool,
    dumps: AtomicU64,
    slots: Vec<Mutex<Option<Event>>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a recorder with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder keeping at most `capacity` events (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            started: Instant::now(),
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            dump_fired: AtomicBool::new(false),
            dumps: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Creates a default-capacity recorder behind an `Arc`, the shape
    /// every instrumented component accepts.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// A live [`TraceHandle`] feeding this recorder.
    #[must_use]
    pub fn handle(self: &Arc<Self>) -> TraceHandle {
        TraceHandle::sink(Arc::clone(self) as Arc<dyn EventSink>)
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events emitted into the recorder (kept + dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Events displaced by ring overflow.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshots the ring into a seq-ordered [`Trace`].
    #[must_use]
    pub fn trace(&self) -> Trace {
        let mut events: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("flight recorder slot poisoned").clone())
            .collect();
        events.sort_by_key(|e| e.seq);
        Trace { events, dropped: self.dropped() }
    }

    /// The ring as JSONL, one event per line — the worker-panic dump.
    #[must_use]
    pub fn dump_jsonl(&self) -> String {
        self.trace().to_jsonl()
    }

    /// Dumps the ring as JSONL to stderr, at most once per recorder.
    ///
    /// Every panic path — a fleet worker, the barrier leader's discovery
    /// window, a refit-pool thread — calls this instead of carrying its
    /// own "first panicking thread dumps, siblings skip" flag; the gate
    /// lives here so concurrent paths cannot race each other into a
    /// double dump. Returns whether *this* call performed the dump.
    pub fn dump_once(&self, context: &str) -> bool {
        if self.dump_fired.swap(true, Ordering::SeqCst) {
            return false;
        }
        self.dumps.fetch_add(1, Ordering::SeqCst);
        let trace = self.trace();
        eprintln!(
            "{context} — dumping flight recorder ({} events, {} displaced):",
            trace.len(),
            trace.dropped
        );
        eprint!("{}", trace.to_jsonl());
        true
    }

    /// Panic dumps performed; 0 or 1, since [`FlightRecorder::dump_once`]
    /// gates.
    #[must_use]
    pub fn dumped(&self) -> u64 {
        self.dumps.load(Ordering::SeqCst)
    }
}

impl EventSink for FlightRecorder {
    fn record(&self, scope: EventScope<'_>, kind: EventKind) -> Option<EventId> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let ts_nanos = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let event = Event {
            seq,
            ts_nanos,
            class: scope.class.map(str::to_string),
            shard: scope.shard,
            generation: scope.generation,
            parent: scope.parent,
            kind,
        };
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut resident = slot.lock().expect("flight recorder slot poisoned");
        match resident.as_ref() {
            // A writer that stalled a full ring-lap behind the stream
            // loses to the newer resident: drop the incoming event.
            Some(newer) if newer.seq > seq => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Some(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                *resident = Some(event);
            }
            None => *resident = Some(event),
        }
        Some(seq)
    }
}

/// A seq-ordered snapshot of recorded events plus the overflow count —
/// the query and export surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Events in ascending sequence order (gaps where the ring dropped).
    pub events: Vec<Event>,
    /// Events displaced by ring overflow.
    pub dropped: u64,
}

impl Trace {
    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Looks up an event by id.
    #[must_use]
    pub fn get(&self, id: EventId) -> Option<&Event> {
        self.events.binary_search_by_key(&id, |e| e.seq).ok().map(|i| &self.events[i])
    }

    /// The [`EventKind::GenerationPublished`] events of one class, in
    /// publish order.
    #[must_use]
    pub fn publishes(&self, class: &str) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::GenerationPublished)
                    && e.class.as_deref() == Some(class)
            })
            .collect()
    }

    /// Why did `class` publish `generation`? Walks parent ids from the
    /// matching [`EventKind::GenerationPublished`] back to its root (the
    /// drift observation or scheduled arm), then forward to its direct
    /// consequences (the per-shard swaps and threshold re-derivations
    /// parented on the publish). Returns the chain in sequence order;
    /// empty when the publish is not in the trace.
    #[must_use]
    pub fn causal_chain(&self, class: &str, generation: u64) -> Vec<&Event> {
        let Some(publish) = self.events.iter().find(|e| {
            matches!(e.kind, EventKind::GenerationPublished)
                && e.class.as_deref() == Some(class)
                && e.generation == Some(generation)
        }) else {
            return Vec::new();
        };
        let mut chain = vec![publish];
        // Ancestors: parents always carry lower seqs (they were recorded
        // first), so requiring strict descent terminates even on a
        // corrupted stream.
        let mut cursor = publish;
        while let Some(parent) = cursor.parent.and_then(|id| self.get(id)) {
            if parent.seq >= cursor.seq {
                break;
            }
            chain.push(parent);
            cursor = parent;
        }
        // Direct consequences of the publish (swap applies, re-derived
        // thresholds).
        chain.extend(self.events.iter().filter(|e| e.parent == Some(publish.seq)));
        chain.sort_by_key(|e| e.seq);
        chain.dedup_by_key(|e| e.seq);
        chain
    }

    /// Serializes the trace as JSONL: one [`Event`] per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            if let Ok(line) = serde_json::to_string(event) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Renders the trace as Chrome trace-event JSON (the "JSON Array
    /// Format" with a `traceEvents` wrapper), loadable in Perfetto or
    /// `chrome://tracing`.
    ///
    /// Layout: one track (`tid`) per service class plus track 0 for
    /// class-less fleet events. Refits appear as duration events
    /// (`"ph":"X"`, a [`EventKind::RefitStarted`] paired with the
    /// [`EventKind::RefitFinished`] that parents on it); every other
    /// event is an instant (`"ph":"i"`). Each entry carries its `seq` and
    /// `parent` under `args`, so the causal graph survives the export.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        // Track ids: 0 = fleet-wide, classes numbered by first appearance.
        let mut tracks: Vec<&str> = Vec::new();
        fn tid_of<'a>(class: Option<&'a str>, tracks: &mut Vec<&'a str>) -> usize {
            match class {
                None => 0,
                Some(c) => match tracks.iter().position(|t| *t == c) {
                    Some(i) => i + 1,
                    None => {
                        tracks.push(c);
                        tracks.len()
                    }
                },
            }
        }
        // Pair each RefitStarted with the finish that parents on it.
        let mut finish_of: Vec<(EventId, &Event)> = Vec::new();
        for event in &self.events {
            if let EventKind::RefitFinished { .. } = event.kind {
                if let Some(parent) = event.parent {
                    finish_of.push((parent, event));
                }
            }
        }
        let mut entries: Vec<String> = Vec::new();
        for event in &self.events {
            let tid = tid_of(event.class.as_deref(), &mut tracks);
            let ts_us = event.ts_nanos as f64 / 1_000.0;
            let mut args =
                vec![("seq", json_u64(event.seq)), ("parent", json_opt_u64(event.parent))];
            if let Some(shard) = event.shard {
                args.push(("shard", json_u64(u64::from(shard))));
            }
            if let Some(generation) = event.generation {
                args.push(("generation", json_u64(generation)));
            }
            kind_args(&event.kind, &mut args);
            let args = render_args(&args);
            let name = event.kind.name();
            let entry = match &event.kind {
                EventKind::RefitStarted { .. } => {
                    let dur_us = finish_of.iter().find(|(parent, _)| *parent == event.seq).map(
                        |(_, finish)| {
                            (finish.ts_nanos.saturating_sub(event.ts_nanos)) as f64 / 1_000.0
                        },
                    );
                    match dur_us {
                        Some(dur) => format!(
                            "{{\"name\":\"refit\",\"cat\":\"adapt\",\"ph\":\"X\",\"ts\":{},\
                             \"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                            json_f64(ts_us),
                            json_f64(dur),
                        ),
                        // Unfinished refit (e.g. panic mid-fit): degrade
                        // to an instant rather than invent a duration.
                        None => instant_entry(name, ts_us, tid, &args),
                    }
                }
                _ => instant_entry(name, ts_us, tid, &args),
            };
            entries.push(entry);
        }
        // Name the tracks, Perfetto-style, via metadata events.
        let mut metadata = vec![
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
             \"args\":{\"name\":\"software-aging\"}}"
                .to_string(),
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"fleet\"}}"
                .to_string(),
        ];
        for (i, class) in tracks.iter().enumerate() {
            metadata.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                i + 1,
                json_str(&format!("class {class}")),
            ));
        }
        metadata.extend(entries);
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"droppedEvents\":{}}}",
            metadata.join(","),
            self.dropped
        )
    }
}

fn instant_entry(name: &str, ts_us: f64, tid: usize, args: &str) -> String {
    format!(
        "{{\"name\":{},\"cat\":\"adapt\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{tid},\
         \"s\":\"t\",\"args\":{args}}}",
        json_str(name),
        json_f64(ts_us),
    )
}

/// Appends the kind's payload fields as pre-rendered JSON args.
fn kind_args(kind: &EventKind, args: &mut Vec<(&'static str, String)>) {
    match kind {
        EventKind::DriftObserved { error_ewma_secs, threshold_secs } => {
            args.push(("error_ewma_secs", json_f64(*error_ewma_secs)));
            args.push(("threshold_secs", json_f64(*threshold_secs)));
        }
        EventKind::TriggerArmed { scheduled } => {
            args.push(("scheduled", scheduled.to_string()));
        }
        EventKind::TriggerFired { buffered } => args.push(("buffered", json_u64(*buffered))),
        EventKind::RefitStarted { rows } => args.push(("rows", json_u64(*rows))),
        EventKind::RefitFinished { ok } => args.push(("ok", ok.to_string())),
        EventKind::GenerationPublished | EventKind::SwapApplied => {}
        EventKind::ThresholdsRederived { drift_threshold_secs, rejuvenation_threshold_secs } => {
            args.push(("drift_threshold_secs", json_f64(*drift_threshold_secs)));
            if let Some(t) = rejuvenation_threshold_secs {
                args.push(("rejuvenation_threshold_secs", json_f64(*t)));
            }
        }
        EventKind::BusShed { checkpoints } => args.push(("checkpoints", json_u64(*checkpoints))),
        EventKind::DiscoveryEvaluated { silhouette, active_classes, ready_instances } => {
            args.push(("silhouette", json_f64(*silhouette)));
            args.push(("active_classes", json_u64(*active_classes)));
            args.push(("ready_instances", json_u64(*ready_instances)));
        }
        EventKind::ClassSplit { seeded_from } => args.push(("seeded_from", json_str(seeded_from))),
        EventKind::ClassMerged { into } => args.push(("into", json_str(into))),
        EventKind::ClassReassigned { instance, from } => {
            args.push(("instance", json_u64(*instance)));
            args.push(("from", json_str(from)));
        }
        EventKind::EpochCompleted { epoch } => args.push(("epoch", json_u64(*epoch))),
        EventKind::JournalReplayed { records } => args.push(("records", json_u64(*records))),
        EventKind::JournalCompacted { kept_records, dropped_records } => {
            args.push(("kept_records", json_u64(*kept_records)));
            args.push(("dropped_records", json_u64(*dropped_records)));
        }
        EventKind::CandidateEvaluated { round, operator, objective_secs, accepted } => {
            args.push(("round", json_u64(*round)));
            args.push(("operator", json_str(operator)));
            args.push(("objective_secs", json_opt_f64(*objective_secs)));
            args.push(("accepted", accepted.to_string()));
        }
        EventKind::TuneRoundCompleted { round, best_objective_secs, incumbent_objective_secs } => {
            args.push(("round", json_u64(*round)));
            args.push(("best_objective_secs", json_opt_f64(*best_objective_secs)));
            args.push(("incumbent_objective_secs", json_opt_f64(*incumbent_objective_secs)));
        }
        EventKind::PolicyPromoted { incumbent_objective_secs, candidate_objective_secs } => {
            args.push(("incumbent_objective_secs", json_opt_f64(*incumbent_objective_secs)));
            args.push(("candidate_objective_secs", json_opt_f64(*candidate_objective_secs)));
        }
        EventKind::EpochScheduled { epoch, live } => {
            args.push(("epoch", json_u64(*epoch)));
            args.push(("live", json_u64(*live)));
        }
        EventKind::InstanceJoined { instance, autoscaled } => {
            args.push(("instance", json_u64(*instance)));
            args.push(("autoscaled", autoscaled.to_string()));
        }
        EventKind::InstanceRetired { instance, forced } => {
            args.push(("instance", json_u64(*instance)));
            args.push(("forced", forced.to_string()));
        }
    }
}

fn render_args(args: &[(&'static str, String)]) -> String {
    let body: Vec<String> = args.iter().map(|(k, v)| format!("{}:{}", json_str(k), v)).collect();
    format!("{{{}}}", body.join(","))
}

fn json_u64(v: u64) -> String {
    v.to_string()
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Finite-guarded float rendering: JSON has no NaN/Inf literals.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_f64)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Borrows a trace handle from an optional flight recorder — the idiom
/// for structs that hold `Option<Arc<FlightRecorder>>`.
///
/// ```
/// use aging_obs::{trace_of, FlightRecorder};
/// use std::sync::Arc;
///
/// let off: Option<Arc<FlightRecorder>> = None;
/// assert!(!trace_of(&off).enabled());
/// let on = Some(FlightRecorder::shared());
/// assert!(trace_of(&on).enabled());
/// ```
#[must_use]
pub fn trace_of(recorder: &Option<Arc<FlightRecorder>>) -> TraceHandle {
    match recorder {
        Some(r) => r.handle(),
        None => TraceHandle::disabled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = TraceHandle::disabled();
        assert!(!t.enabled());
        assert_eq!(t.emit(EventScope::root(), EventKind::GenerationPublished), None);
    }

    #[test]
    fn noop_sink_drops_everything() {
        let t = TraceHandle::sink(Arc::new(NoopSink));
        assert!(t.enabled(), "a handle over a sink reports enabled");
        assert_eq!(t.emit(EventScope::root(), EventKind::SwapApplied), None);
    }

    #[test]
    fn events_are_sequenced_with_context() {
        let recorder = FlightRecorder::shared();
        let t = recorder.handle();
        let a = t
            .emit(
                EventScope::root().class("leak"),
                EventKind::DriftObserved { error_ewma_secs: 700.0, threshold_secs: 600.0 },
            )
            .unwrap();
        let b = t
            .emit(
                EventScope::root().class("leak").parent(Some(a)),
                EventKind::TriggerArmed { scheduled: false },
            )
            .unwrap();
        assert_eq!((a, b), (0, 1));
        let trace = recorder.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.get(b).unwrap().parent, Some(a));
        assert_eq!(trace.get(a).unwrap().class.as_deref(), Some("leak"));
        assert!(trace.get(a).unwrap().ts_nanos <= trace.get(b).unwrap().ts_nanos);
    }

    /// Builds the full drift→armed→fired→refit→publish→swap chain and
    /// walks it back through the query API.
    #[test]
    fn causal_chain_resolves_end_to_end() {
        let recorder = FlightRecorder::shared();
        let t = recorder.handle();
        let scope = || EventScope::root().class("tpcw");
        let drift = t.emit(
            scope(),
            EventKind::DriftObserved { error_ewma_secs: 900.0, threshold_secs: 600.0 },
        );
        let armed = t.emit(scope().parent(drift), EventKind::TriggerArmed { scheduled: false });
        let fired = t.emit(scope().parent(armed), EventKind::TriggerFired { buffered: 128 });
        let started = t.emit(scope().parent(fired), EventKind::RefitStarted { rows: 128 });
        let finished = t.emit(scope().parent(started), EventKind::RefitFinished { ok: true });
        let published =
            t.emit(scope().parent(finished).generation(1), EventKind::GenerationPublished);
        let _noise = t.emit(EventScope::root(), EventKind::EpochCompleted { epoch: 7 });
        let swap = t.emit(scope().parent(published).generation(1).shard(2), EventKind::SwapApplied);
        let trace = recorder.trace();
        let chain = trace.causal_chain("tpcw", 1);
        let ids: Vec<EventId> = chain.iter().map(|e| e.seq).collect();
        assert_eq!(
            ids,
            vec![
                drift.unwrap(),
                armed.unwrap(),
                fired.unwrap(),
                started.unwrap(),
                finished.unwrap(),
                published.unwrap(),
                swap.unwrap()
            ],
            "chain must run drift→armed→fired→refit→publish→swap in seq order"
        );
        assert!(trace.causal_chain("tpcw", 9).is_empty(), "unknown generation");
        assert!(trace.causal_chain("other", 1).is_empty(), "unknown class");
    }

    #[test]
    fn ring_keeps_newest_and_accounts_drops() {
        let recorder = Arc::new(FlightRecorder::with_capacity(4));
        let t = recorder.handle();
        for epoch in 0..10u64 {
            t.emit(EventScope::root(), EventKind::EpochCompleted { epoch });
        }
        assert_eq!(recorder.recorded(), 10);
        assert_eq!(recorder.dropped(), 6);
        let trace = recorder.trace();
        assert_eq!(trace.dropped, 6);
        let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "the newest 4 events survive");
    }

    #[test]
    fn concurrent_emitters_account_every_event() {
        let recorder = Arc::new(FlightRecorder::with_capacity(64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = recorder.handle();
                scope.spawn(move || {
                    for epoch in 0..500u64 {
                        t.emit(EventScope::root(), EventKind::EpochCompleted { epoch });
                    }
                });
            }
        });
        let trace = recorder.trace();
        assert_eq!(recorder.recorded(), 2000);
        assert_eq!(
            trace.len() as u64 + trace.dropped,
            2000,
            "kept + dropped must account every emitted event"
        );
        let mut seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        let deduped = seqs.clone();
        seqs.dedup();
        assert_eq!(seqs, deduped, "sequence numbers are unique");
    }

    #[test]
    fn dump_once_fires_exactly_once_across_threads() {
        let recorder = Arc::new(FlightRecorder::with_capacity(8));
        let t = recorder.handle();
        t.emit(EventScope::root(), EventKind::EpochCompleted { epoch: 0 });
        let wins: u64 = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let recorder = Arc::clone(&recorder);
                    scope.spawn(move || u64::from(recorder.dump_once("test panic")))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("dumper thread"))
                .sum()
        });
        assert_eq!(wins, 1, "exactly one caller performs the dump");
        assert_eq!(recorder.dumped(), 1);
        assert!(!recorder.dump_once("late caller"), "the gate stays shut");
        assert_eq!(recorder.dumped(), 1, "and the count stays 1");
    }

    #[test]
    fn jsonl_round_trips() {
        let recorder = FlightRecorder::shared();
        let t = recorder.handle();
        t.emit(
            EventScope::root().class("leak").shard(3).generation(2),
            EventKind::ThresholdsRederived {
                drift_threshold_secs: 512.0,
                rejuvenation_threshold_secs: None,
            },
        );
        let trace = recorder.trace();
        let line = trace.to_jsonl();
        let parsed: Event = serde_json::from_str(line.trim()).expect("JSONL line parses");
        assert_eq!(&parsed, &trace.events[0]);
    }

    #[test]
    fn chrome_export_is_valid_and_preserves_causality() {
        let recorder = FlightRecorder::shared();
        let t = recorder.handle();
        let fired =
            t.emit(EventScope::root().class("leak"), EventKind::TriggerFired { buffered: 64 });
        let started = t.emit(
            EventScope::root().class("leak").parent(fired),
            EventKind::RefitStarted { rows: 64 },
        );
        let finished = t.emit(
            EventScope::root().class("leak").parent(started),
            EventKind::RefitFinished { ok: true },
        );
        t.emit(
            EventScope::root().class("leak").parent(finished).generation(1),
            EventKind::GenerationPublished,
        );
        t.emit(EventScope::root(), EventKind::EpochCompleted { epoch: 0 });
        let json = recorder.trace().to_chrome_json();
        let value = serde::parse_value(&json).expect("chrome export is valid JSON");
        let obj = value.as_obj().expect("top level is an object");
        let events = obj
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| match v {
                serde::Value::Arr(items) => Some(items),
                _ => None,
            })
            .expect("traceEvents array");
        // 2 metadata (process + fleet track) + 1 class track + 5 events.
        assert_eq!(events.len(), 8);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.as_obj())
            .filter_map(|o| {
                o.iter().find(|(k, _)| k == "ph").and_then(|(_, v)| match v {
                    serde::Value::Str(s) => Some(s.as_str()),
                    _ => None,
                })
            })
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 1, "one refit duration event");
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 4, "instants for the rest");
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 3, "metadata names the tracks");
    }

    proptest! {
        /// Overflow keeps exactly the newest `min(n, capacity)` events and
        /// accounts every displaced one.
        #[test]
        fn ring_overflow_keeps_newest(capacity in 1usize..40, n in 0u64..200) {
            let recorder = Arc::new(FlightRecorder::with_capacity(capacity));
            let t = recorder.handle();
            for epoch in 0..n {
                t.emit(EventScope::root(), EventKind::EpochCompleted { epoch });
            }
            let trace = recorder.trace();
            let kept = (n as usize).min(capacity) as u64;
            prop_assert_eq!(trace.len() as u64, kept);
            prop_assert_eq!(trace.dropped, n - kept);
            let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
            let expected: Vec<u64> = (n - kept..n).collect();
            prop_assert_eq!(seqs, expected);
        }
    }
}
