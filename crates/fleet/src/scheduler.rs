//! The epoch scheduler: the fleet's engine.
//!
//! Shards are *tasks* on a ready queue drained by a pool of one worker per
//! shard, and each shard runs its next epoch ([`EpochStep`]) as soon as it
//! is eligible. Two rules decide eligibility:
//!
//! - *Leader boundaries* (discovery reassessment, autoscale evaluation)
//!   are global cuts: no shard starts an epoch past the next boundary, and
//!   the leader task runs exactly when every live shard has parked there,
//!   so the leader window has the fleet to itself.
//! - *The lead bound*: a fixed population keeps every shard within one
//!   epoch of the slowest live shard, so the fleet advances epoch by epoch;
//!   a run with a [`ChurnPlan`] lets shards run ahead freely between
//!   boundaries.
//!
//! When the last live shard finishes an epoch, the scheduler counts it in
//! `fleet_epochs_total` and traces a root `EpochCompleted`, in epoch order
//! and before the leader window that epoch unblocks.
//!
//! Elasticity rides on the same wheel. A [`ChurnPlan`]'s scripted joins
//! and retires are queued per owning shard and applied at the top of their
//! target epoch, before that epoch's first checkpoint; the leader task
//! evaluates the autoscale rule at its boundaries and feeds spawns into
//! the same join queues. Shards whose population hits zero are
//! *fast-forwarded* to their next join or boundary instead of ticking
//! empty epochs, and retire from the wheel once nothing can revive them.
//! Membership records, membership trace events and the churn and
//! scheduler stats appear only when a plan is attached.
//!
//! Determinism: per-shard epoch order is total, membership changes land at
//! fixed epochs, and every leader boundary is a global cut, so a report
//! depends on the specs, seeds, config and plan alone. The crate's tests
//! hold the scheduler's reports bit for bit to a sequential reference
//! driver that runs the same [`EpochStep`]s on one thread.

use crate::churn::ChurnPlan;
use crate::config::{FleetConfig, InstanceSpec};
use crate::engine::{make_instance, DiscoveryRuntime, ModelTable};
use crate::report::{ChurnStats, SchedulerStats};
use crate::shard::Shard;
use crate::step::EpochStep;
use aging_journal::{Journal, JournalRecord};
use aging_monitor::FeatureSet;
use aging_obs::{
    CounterHandle, EventId, EventKind, EventScope, FlightRecorder, GaugeHandle, HistogramHandle,
    Recorder, TraceHandle, Unit,
};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Test seam: makes the scheduler's shard-0 task panic when it is about
/// to run this epoch, exercising the catch-unwind + flight-recorder dump
/// path of the worker pool. `u64::MAX` disables it.
#[cfg(test)]
pub(crate) static SCHEDULER_PANIC_AT: AtomicU64 = AtomicU64::new(u64::MAX);

/// What [`run_elastic`] hands back to the engine's report assembly.
pub(crate) struct ElasticOutcome {
    /// Fleet epochs driven (max over shards).
    pub(crate) epochs: u64,
    /// Membership accounting (meaningful when a plan was attached).
    pub(crate) churn: ChurnStats,
    /// Scheduler execution counters.
    pub(crate) scheduler: SchedulerStats,
    /// Membership records the journal refused.
    pub(crate) journal_errors: u64,
}

/// Everything the scheduler borrows from `Fleet::run_bound`.
pub(crate) struct ElasticArgs<'a, 'b> {
    pub(crate) shards: &'a mut [Shard],
    pub(crate) table: &'a ModelTable<'b>,
    /// The discovery runtime of a `Fleet::run_discovered` run.
    pub(crate) discovery: Option<&'a DiscoveryRuntime<'a>>,
    pub(crate) config: &'a FleetConfig,
    pub(crate) features: &'a FeatureSet,
    pub(crate) churn: Option<&'a ChurnPlan>,
    pub(crate) telemetry: Option<&'a aging_obs::Registry>,
    pub(crate) trace_recorder: Option<&'a FlightRecorder>,
    pub(crate) trace: TraceHandle,
    pub(crate) journal: Option<&'a Journal>,
}

/// One unit of work on the ready queue.
enum Task {
    /// Run shard `s`'s next epoch.
    Shard(usize),
    /// Run the leader window for this boundary (discovery re-partition,
    /// autoscale evaluation).
    Leader(u64),
}

/// A membership join waiting for its epoch on its owning shard.
struct PendingJoin {
    at_epoch: u64,
    global: usize,
    spec: InstanceSpec,
    autoscaled: bool,
}

/// Leader-boundary parameters, fixed for the run.
struct Params {
    /// Discovery reassessment interval (discovered runs only).
    reassess: Option<u64>,
    /// `(evaluate_every_epochs, min_live)` of the autoscale rule.
    autoscale: Option<(u64, u64)>,
    /// Whether a churn plan is attached: only then is membership
    /// journalled and traced, and only then may a shard run more than one
    /// epoch ahead of the slowest live shard.
    churn: bool,
}

/// The scheduler's shared state, behind one mutex. Tasks are popped by
/// the worker pool; every completion re-runs [`Core::schedule`] to queue
/// whatever just became eligible.
struct Core {
    /// Next epoch each shard will run.
    next_epoch: Vec<u64>,
    /// Live instances per shard after its last completed epoch.
    live: Vec<u64>,
    /// Shard task currently running.
    busy: Vec<bool>,
    /// Shard task currently on the ready queue.
    queued: Vec<bool>,
    /// Shard permanently retired from the wheel.
    done: Vec<bool>,
    ready: VecDeque<Task>,
    /// Leader task on the ready queue / currently running.
    leader_queued: bool,
    leader_busy: bool,
    /// Highest leader boundary completed.
    sync_done: u64,
    /// Scheduled joins per owning shard (scripted, then autoscale
    /// spawns), applied at the top of their target epoch.
    pending_joins: Vec<VecDeque<PendingJoin>>,
    /// Scheduled retires per owning shard: `(at_epoch, global index)`.
    pending_retires: Vec<VecDeque<(u64, usize)>>,
    /// Unspawned autoscale clones, in spawn order: `(global index,
    /// spec)`.
    autoscale_pool: VecDeque<(usize, InstanceSpec)>,
    /// Live instances across the fleet.
    total_live: u64,
    /// Highest epoch any shard has completed — the report's epoch count.
    max_epoch: u64,
    /// Fleet epochs announced as completed (`EpochCompleted`).
    announced: u64,
    /// First panic payload (worker or leader), rethrown after the pool
    /// drains; once set, the pool drains.
    payload: Option<Box<dyn std::any::Any + Send>>,
    /// Pool shutdown: everything done and nothing in flight.
    exited: bool,
    stats: SchedulerStats,
    churn: ChurnStats,
    /// Membership event log: `(epoch, is_join)`, including the initial
    /// roster at epoch 0. Folded deterministically into
    /// [`ChurnStats::peak_live`] after the run.
    events: Vec<(u64, bool)>,
}

impl Core {
    /// The next leader boundary after `sync_done`, or `u64::MAX` when no
    /// boundary source is open (no discovery, autoscale exhausted).
    fn next_boundary(&self, p: &Params) -> u64 {
        let mut boundary = u64::MAX;
        if let Some(reassess) = p.reassess {
            boundary = boundary.min((self.sync_done / reassess + 1).saturating_mul(reassess));
        }
        if let Some((every, _)) = p.autoscale {
            if !self.autoscale_pool.is_empty() {
                boundary = boundary.min((self.sync_done / every + 1).saturating_mul(every));
            }
        }
        boundary
    }

    /// Queues every task that just became eligible, fast-forwards or
    /// retires dead shards, and decides leader readiness and pool
    /// shutdown. Called under the core lock after every state change.
    fn schedule(&mut self, p: &Params) {
        let n = self.live.len();
        if self.payload.is_some() {
            // Drain: drop queued work, retire every shard, and exit once
            // nothing is in flight. The payload is rethrown after join.
            self.ready.clear();
            self.leader_queued = false;
            for queued in &mut self.queued {
                *queued = false;
            }
            for done in &mut self.done {
                *done = true;
            }
            self.exited = !self.busy.iter().any(|&b| b) && !self.leader_busy;
            return;
        }
        let b_next = self.next_boundary(p);
        // Dead shards: fast-forward to whatever could make them matter
        // again (their next join, or the boundary the leader needs them
        // parked at), or retire them from the wheel for good.
        for s in 0..n {
            if self.done[s] || self.busy[s] || self.queued[s] || self.live[s] > 0 {
                continue;
            }
            let next_join = self.pending_joins[s].iter().map(|j| j.at_epoch).min();
            let target = match next_join {
                Some(join) => join.min(b_next),
                None if p.autoscale.is_some() && !self.autoscale_pool.is_empty() => b_next,
                None => {
                    self.done[s] = true;
                    continue;
                }
            };
            if target != u64::MAX && self.next_epoch[s] < target {
                self.stats.fast_forwarded_epochs += target - self.next_epoch[s];
                self.next_epoch[s] = target;
            }
        }
        let Some(min_active) = self.min_active() else {
            // Every shard retired: the fleet is dead and nothing can
            // revive it. No leader runs past fleet death, so exit as soon
            // as in-flight work lands.
            self.exited = self.ready.is_empty()
                && !self.busy.iter().any(|&b| b)
                && !self.leader_busy
                && !self.leader_queued;
            return;
        };
        // A fixed population advances epoch by epoch. A churn run keeps
        // its shards independent between boundaries: bounding them to one
        // epoch costs the elastic example's adaptive run its edge over the
        // frozen one.
        let lead_cap = if p.churn { u64::MAX } else { min_active + 1 };
        for s in 0..n {
            if self.done[s] || self.busy[s] || self.queued[s] {
                continue;
            }
            let epoch = self.next_epoch[s];
            if epoch >= b_next || epoch >= lead_cap {
                continue;
            }
            let join_due = self.pending_joins[s].iter().any(|j| j.at_epoch <= epoch);
            if self.live[s] == 0 && !join_due {
                continue;
            }
            self.queued[s] = true;
            self.ready.push_back(Task::Shard(s));
        }
        // The leader runs exactly when every non-retired shard is parked
        // at the boundary, so its window is single-threaded.
        if b_next != u64::MAX && !self.leader_queued && !self.leader_busy {
            let all_parked = (0..n).all(|s| {
                self.done[s] || (!self.busy[s] && !self.queued[s] && self.next_epoch[s] >= b_next)
            });
            if all_parked {
                self.leader_queued = true;
                self.ready.push_back(Task::Leader(b_next));
            }
        }
        self.exited = false;
    }

    /// The next epoch of the slowest shard still on the wheel.
    fn min_active(&self) -> Option<u64> {
        (0..self.live.len()).filter(|&s| !self.done[s]).map(|s| self.next_epoch[s]).min()
    }

    /// Fleet epochs every shard still on the wheel has finished: the
    /// epochs that may be announced as completed. Fast-forwarded spans
    /// count once some shard has run past them.
    fn completed(&self) -> u64 {
        if self.payload.is_some() {
            return self.announced;
        }
        self.min_active().map_or(self.max_epoch, |m| m.min(self.max_epoch))
    }
}

/// One shard's serial state: the shard itself plus its [`EpochStep`] and
/// the causal tail of its trace chain. At most one task per shard runs at
/// a time (the `busy` flag), so this mutex is never contended — it exists
/// to move `&mut Shard` across the worker pool.
struct ShardSlot<'a, 'b> {
    shard: &'a mut Shard,
    step: EpochStep<'b>,
    /// This shard's last `EpochScheduled` event — the parent of the next
    /// one, chaining each shard's epochs causally.
    last_event: Option<EventId>,
}

/// Everything a worker thread needs, borrowed for the pool's scope.
struct Ctx<'a, 'b> {
    core: Mutex<Core>,
    cv: Condvar,
    slots: Vec<Mutex<ShardSlot<'a, 'b>>>,
    table: &'a ModelTable<'b>,
    discovery: Option<&'a DiscoveryRuntime<'a>>,
    config: &'a FleetConfig,
    features: &'a FeatureSet,
    journal: Option<&'a Journal>,
    /// Membership records the journal refused, counted for the report.
    journal_errors: AtomicU64,
    trace_recorder: Option<&'a FlightRecorder>,
    trace: TraceHandle,
    params: Params,
    queue_depth: HistogramHandle,
    live_gauge: GaugeHandle,
    leader_hist: HistogramHandle,
    epochs_counter: CounterHandle,
    /// `fleet_scheduler_idle_seconds{worker}`, one series per pool thread.
    idle: Vec<HistogramHandle>,
}

/// Removes and returns every queue entry satisfying `due`, preserving
/// order. Queues are per-shard and tiny, so the linear scan is free.
fn take_due<T>(queue: &mut VecDeque<T>, due: impl Fn(&T) -> bool) -> VecDeque<T> {
    let (taken, kept) = queue.drain(..).partition(|item| due(item));
    *queue = kept;
    taken
}

/// Appends a membership record, counting (not propagating) a failure into
/// `errors` — the journal is an audit stream, not a correctness
/// dependency; the count reaches the report's journal stats.
fn journal_membership(journal: Option<&Journal>, errors: &AtomicU64, record: &JournalRecord) {
    if journal.is_some_and(|journal| journal.append(record).is_err()) {
        errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drives a fleet run on the epoch scheduler. Returns after the pool
/// drains; the first panic of a shard task or of the leader's discovery
/// step is rethrown here.
pub(crate) fn run_elastic(args: ElasticArgs<'_, '_>) -> ElasticOutcome {
    let n_shards = args.shards.len();
    let workers = n_shards;
    let params = Params {
        reassess: args.discovery.map(|runtime| runtime.setup.reassess_every_epochs),
        autoscale: args
            .churn
            .and_then(|plan| plan.autoscale.as_ref())
            .map(|rule| (rule.evaluate_every_epochs, rule.min_live as u64)),
        churn: args.churn.is_some(),
    };
    let (queue_depth, live_gauge, leader_hist, epochs_counter, idle) = match args.telemetry {
        Some(registry) => (
            registry.histogram(
                "fleet_scheduler_queue_depth",
                "Ready-queue depth observed at each scheduler dequeue",
                Unit::Count,
            ),
            registry.gauge("fleet_instances_live", "Instances currently live across the fleet"),
            registry.histogram(
                "fleet_leader_step_seconds",
                "Wall time of the leader's single-threaded window per leader boundary",
                Unit::Seconds,
            ),
            registry.counter("fleet_epochs_total", "Completed fleet epochs"),
            (0..workers)
                .map(|w| {
                    registry.histogram_with(
                        "fleet_scheduler_idle_seconds",
                        "Wall time one scheduler worker spends waiting for a ready task",
                        Unit::Seconds,
                        "worker",
                        &w.to_string(),
                    )
                })
                .collect(),
        ),
        None => (
            HistogramHandle::disabled(),
            GaugeHandle::disabled(),
            HistogramHandle::disabled(),
            CounterHandle::disabled(),
            vec![HistogramHandle::disabled(); workers],
        ),
    };

    let n_initial: usize = args.shards.iter().map(|s| s.instances.len()).sum();
    live_gauge.set(n_initial as f64);

    // Queue the scripted plan. Global indices continue the roster: the
    // initial specs hold 0..n_initial, scripted joins follow in epoch
    // order, the autoscale pool comes last — and every roster member owns
    // slot `global % n_shards`, the same round-robin as the founders.
    let mut pending_joins: Vec<VecDeque<PendingJoin>> =
        (0..n_shards).map(|_| VecDeque::new()).collect();
    let mut pending_retires: Vec<VecDeque<(u64, usize)>> =
        (0..n_shards).map(|_| VecDeque::new()).collect();
    let mut autoscale_pool: VecDeque<(usize, InstanceSpec)> = VecDeque::new();
    let journal_errors = AtomicU64::new(0);
    if let Some(plan) = args.churn {
        // The initial roster is membership too: journal every founding
        // instance as joined at epoch 0, in roster order, so a replayed
        // journal reconstructs the full population — not just the churn.
        let mut initial: Vec<(usize, String, String)> =
            args.shards
                .iter()
                .flat_map(|shard| {
                    shard.instances.iter().map(|(g, inst)| {
                        (*g, inst.name().to_string(), inst.class_name().to_string())
                    })
                })
                .collect();
        initial.sort_by_key(|(g, _, _)| *g);
        for (_, name, class) in &initial {
            journal_membership(
                args.journal,
                &journal_errors,
                &JournalRecord::InstanceJoined {
                    instance: name.clone(),
                    class: class.clone(),
                    epoch: 0,
                },
            );
        }
        let joins = plan.sorted_joins();
        let mut name_to_global: Vec<(String, usize)> =
            initial.iter().map(|(g, name, _)| (name.clone(), *g)).collect();
        for (k, join) in joins.iter().enumerate() {
            let global = n_initial + k;
            name_to_global.push((join.spec.name.clone(), global));
            pending_joins[global % n_shards].push_back(PendingJoin {
                at_epoch: join.at_epoch,
                global,
                spec: join.spec.clone(),
                autoscaled: false,
            });
        }
        for (k, spec) in plan.autoscale_pool().into_iter().enumerate() {
            autoscale_pool.push_back((n_initial + joins.len() + k, spec));
        }
        let mut retires = plan.retires.clone();
        retires.sort_by_key(|r| r.at_epoch);
        for retire in retires {
            let global = name_to_global
                .iter()
                .find(|(name, _)| *name == retire.instance)
                .map(|(_, g)| *g)
                .expect("churn plan validated against the roster");
            pending_retires[global % n_shards].push_back((retire.at_epoch, global));
        }
    }

    let live: Vec<u64> = args.shards.iter().map(|s| s.instances.len() as u64).collect();
    let mut core = Core {
        next_epoch: vec![0; n_shards],
        live,
        busy: vec![false; n_shards],
        queued: vec![false; n_shards],
        done: vec![false; n_shards],
        ready: VecDeque::new(),
        leader_queued: false,
        leader_busy: false,
        sync_done: 0,
        pending_joins,
        pending_retires,
        autoscale_pool,
        total_live: n_initial as u64,
        max_epoch: 0,
        announced: 0,
        payload: None,
        exited: false,
        stats: SchedulerStats {
            workers,
            shard_tasks: 0,
            leader_steps: 0,
            fast_forwarded_epochs: 0,
        },
        churn: ChurnStats::default(),
        events: (0..n_initial).map(|_| (0, true)).collect(),
    };
    core.schedule(&params);

    let ctx = Ctx {
        core: Mutex::new(core),
        cv: Condvar::new(),
        slots: args
            .shards
            .iter_mut()
            .enumerate()
            .map(|(idx, shard)| {
                Mutex::new(ShardSlot {
                    shard,
                    step: EpochStep::new(args.table, idx, args.trace.clone()),
                    last_event: None,
                })
            })
            .collect(),
        table: args.table,
        discovery: args.discovery,
        config: args.config,
        features: args.features,
        journal: args.journal,
        journal_errors,
        trace_recorder: args.trace_recorder,
        trace: args.trace,
        params,
        queue_depth,
        live_gauge,
        leader_hist,
        epochs_counter,
        idle,
    };
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let ctx = &ctx;
            scope.spawn(move || worker_loop(ctx, worker));
        }
    });

    let mut core = ctx.core.into_inner().expect("scheduler core poisoned");
    if let Some(payload) = core.payload.take() {
        std::panic::resume_unwind(payload);
    }
    // Peak live population, folded deterministically from the event log:
    // within an epoch, retires land before joins (the order the top-of-
    // epoch application uses for scripted churn).
    core.events.sort_unstable();
    let mut running = 0i64;
    let mut peak = 0i64;
    for &(_, is_join) in &core.events {
        running += if is_join { 1 } else { -1 };
        peak = peak.max(running);
    }
    core.churn.peak_live = peak.max(0) as u64;
    core.churn.final_live = core.total_live;
    ElasticOutcome {
        epochs: core.max_epoch,
        churn: core.churn,
        scheduler: core.stats,
        journal_errors: ctx.journal_errors.into_inner(),
    }
}

/// One pool thread: pop tasks until the core says everything is drained.
fn worker_loop(ctx: &Ctx<'_, '_>, worker: usize) {
    loop {
        let task = {
            let mut core = ctx.core.lock().expect("scheduler core poisoned");
            // One idle span per ready-queue wait, ended when a task or the
            // shutdown arrives.
            let mut idle = None;
            loop {
                if let Some(task) = core.ready.pop_front() {
                    ctx.queue_depth.record(core.ready.len() as u64 + 1);
                    match &task {
                        Task::Shard(s) => {
                            core.queued[*s] = false;
                            core.busy[*s] = true;
                        }
                        Task::Leader(_) => {
                            core.leader_queued = false;
                            core.leader_busy = true;
                        }
                    }
                    break Some(task);
                }
                if core.exited {
                    break None;
                }
                idle.get_or_insert_with(|| ctx.idle[worker].span());
                core = ctx.cv.wait(core).expect("scheduler core poisoned");
            }
        };
        match task {
            None => return,
            Some(Task::Shard(s)) => run_shard_task(ctx, s),
            Some(Task::Leader(boundary)) => run_leader_task(ctx, boundary),
        }
    }
}

/// Runs one shard's next epoch: apply due membership changes at the top,
/// drive the [`EpochStep`], publish signatures at reassessment boundaries
/// (and on shard death), sweep retirements, then report completion.
fn run_shard_task(ctx: &Ctx<'_, '_>, s: usize) {
    let (epoch, live_before, due_joins, due_retires) = {
        let mut core = ctx.core.lock().expect("scheduler core poisoned");
        let epoch = core.next_epoch[s];
        let due_joins = take_due(&mut core.pending_joins[s], |j| j.at_epoch <= epoch);
        let due_retires = take_due(&mut core.pending_retires[s], |r| r.0 <= epoch);
        (epoch, core.live[s], due_joins, due_retires)
    };
    let mut slot = ctx.slots[s].lock().expect("shard slot poisoned");
    let slot = &mut *slot;

    // Scripted retires land before the epoch's first checkpoint; a retire
    // whose target already aged out naturally is a no-op.
    let mut retires_landed = 0u64;
    for (_, global) in &due_retires {
        if slot.shard.force_retire(*global, epoch) {
            retires_landed += 1;
        }
    }
    // Joins land at the top of the epoch: the joiner participates in the
    // epoch it joins, wired exactly like a founding member.
    let mut joined: Vec<(usize, bool, String, String)> = Vec::new();
    for join in due_joins {
        let autoscaled = join.autoscaled;
        let global = join.global;
        let instance =
            make_instance(join.spec, ctx.features, ctx.table, ctx.discovery, epoch, global);
        let name = instance.name().to_string();
        let class = instance.class_name().to_string();
        if let Some(runtime) = ctx.discovery {
            runtime.population.fetch_add(1, Ordering::Relaxed);
        }
        slot.shard.admit(global, instance);
        joined.push((global, autoscaled, name, class));
    }
    let live_now = live_before + joined.len() as u64 - retires_landed;
    let scheduled = if ctx.params.churn {
        ctx.trace.emit(
            EventScope::root().shard(s as u32).parent(slot.last_event),
            EventKind::EpochScheduled { epoch, live: live_now },
        )
    } else {
        None
    };
    if scheduled.is_some() {
        slot.last_event = scheduled;
    }
    for (global, autoscaled, name, class) in &joined {
        let _ = ctx.trace.emit(
            EventScope::root().shard(s as u32).parent(scheduled),
            EventKind::InstanceJoined { instance: *global as u64, autoscaled: *autoscaled },
        );
        journal_membership(
            ctx.journal,
            &ctx.journal_errors,
            &JournalRecord::InstanceJoined { instance: name.clone(), class: class.clone(), epoch },
        );
    }

    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        if s == 0 && epoch == SCHEDULER_PANIC_AT.load(Ordering::Relaxed) {
            panic!("synthetic scheduler panic on shard {s} at epoch {epoch}");
        }
        slot.step.run(slot.shard, ctx.table, ctx.config, epoch) as u64
    }));
    let live_after = match &outcome {
        Ok(n) => *n,
        Err(_) => {
            // Flight-recorder dump: once per recorder across every panic
            // site, before the payload is rethrown after the pool drains.
            if let Some(recorder) = ctx.trace_recorder {
                recorder.dump_once(&format!(
                    "fleet scheduler worker panicked on shard {s} (epoch {epoch})"
                ));
            }
            0
        }
    };
    if let (true, Some(runtime)) = (outcome.is_ok(), ctx.discovery) {
        // A dying shard leaves the wheel, so it publishes its final
        // signatures now; they no longer change.
        if runtime.reassess_after(epoch) || live_after == 0 {
            runtime.publish_signatures(slot.shard);
        }
    }
    // Sweep retirements that surfaced this epoch — natural horizon ageing
    // and the scripted force-retires alike, each announced exactly once.
    let mut retired: Vec<(usize, String, u64, bool)> = Vec::new();
    for (global, instance) in slot.shard.instances.iter_mut() {
        if let Some((at, forced)) = instance.fresh_retirement() {
            retired.push((*global, instance.name().to_string(), at, forced));
        }
    }
    for (global, name, at, forced) in &retired {
        if *forced {
            if let Some(runtime) = ctx.discovery {
                // A churn-retired instance leaves the population: clear
                // its signature so discovery stops clustering it, and
                // shrink the live count the ready-fraction gate divides
                // by. (Natural deaths keep both.)
                *runtime.signatures[*global].lock().expect("signature slot poisoned") = None;
                runtime.population.fetch_sub(1, Ordering::Relaxed);
            }
        }
        if ctx.params.churn {
            let _ = ctx.trace.emit(
                EventScope::root().shard(s as u32).parent(scheduled),
                EventKind::InstanceRetired { instance: *global as u64, forced: *forced },
            );
            journal_membership(
                ctx.journal,
                &ctx.journal_errors,
                &JournalRecord::InstanceRetired {
                    instance: name.clone(),
                    epoch: *at,
                    forced: *forced,
                },
            );
        }
    }

    let mut core = ctx.core.lock().expect("scheduler core poisoned");
    core.busy[s] = false;
    core.live[s] = live_after;
    core.next_epoch[s] = epoch + 1;
    core.stats.shard_tasks += 1;
    core.churn.scripted_retires += retires_landed;
    for (_, autoscaled, _, _) in &joined {
        if *autoscaled {
            core.churn.autoscale_spawns += 1;
        } else {
            core.churn.scripted_joins += 1;
        }
        core.events.push((epoch, true));
        core.total_live += 1;
    }
    for (_, _, at, forced) in &retired {
        if *forced {
            core.churn.forced_retires += 1;
        } else {
            core.churn.natural_retires += 1;
        }
        core.events.push((*at, false));
        core.total_live -= 1;
    }
    ctx.live_gauge.set(core.total_live as f64);
    core.max_epoch = core.max_epoch.max(epoch + 1);
    if let Err(payload) = outcome {
        core.payload.get_or_insert(payload);
    }
    core.schedule(&ctx.params);
    // Announce the fleet epochs this task completed, in order, while the
    // core lock still holds back any leader task they just queued.
    let completed = core.completed();
    for epoch in core.announced..completed {
        ctx.epochs_counter.inc();
        let _ = ctx.trace.emit(EventScope::root(), EventKind::EpochCompleted { epoch });
    }
    core.announced = core.announced.max(completed);
    ctx.cv.notify_all();
}

/// Runs the leader window for one boundary: the discovery re-partition
/// (every shard parked, so the single-threaded contract holds) and the
/// autoscale evaluation, then advances the boundary clock.
fn run_leader_task(ctx: &Ctx<'_, '_>, boundary: u64) {
    let leader_span = ctx.leader_hist.span();
    let mut discovery_panic = None;
    if let Some(reassess) = ctx.params.reassess {
        if boundary % reassess == 0 {
            if let Some(runtime) = ctx.discovery {
                if let Err(payload) =
                    std::panic::catch_unwind(AssertUnwindSafe(|| runtime.step(boundary)))
                {
                    if let Some(recorder) = ctx.trace_recorder {
                        recorder.dump_once(&format!("discovery step panicked at epoch {boundary}"));
                    }
                    discovery_panic = Some(payload);
                }
            }
        }
    }
    let mut core = ctx.core.lock().expect("scheduler core poisoned");
    core.leader_busy = false;
    core.sync_done = boundary;
    core.stats.leader_steps += 1;
    if let Some(payload) = discovery_panic {
        core.payload.get_or_insert(payload);
    } else if let Some((every, min_live)) = ctx.params.autoscale {
        // Autoscale: top the fleet back up to its floor from the spawn
        // pool. Spawns join at the top of the boundary epoch on their
        // roster shard, reviving it if it had gone quiet.
        if boundary % every == 0 && core.total_live < min_live {
            let deficit = (min_live - core.total_live) as usize;
            for _ in 0..deficit {
                let Some((global, spec)) = core.autoscale_pool.pop_front() else {
                    break;
                };
                let target = global % core.live.len();
                core.pending_joins[target].push_back(PendingJoin {
                    at_epoch: boundary,
                    global,
                    spec,
                    autoscaled: true,
                });
                core.done[target] = false;
                if core.next_epoch[target] < boundary {
                    core.stats.fast_forwarded_epochs += boundary - core.next_epoch[target];
                    core.next_epoch[target] = boundary;
                }
            }
        }
    }
    core.schedule(&ctx.params);
    ctx.cv.notify_all();
    drop(core);
    leader_span.finish();
}

#[cfg(test)]
mod tests {
    use crate::{ChurnPlan, Fleet, FleetConfig, InstanceSpec};
    use aging_core::{RejuvenationConfig, RejuvenationPolicy};
    use aging_journal::{Journal, JournalOptions};
    use aging_ml::linreg::LinearModel;
    use aging_monitor::FeatureSet;
    use aging_testbed::{MemLeakSpec, Scenario};
    use std::sync::Arc;

    /// Membership appends the journal refuses reach the report. With
    /// one-byte segments every append after the first must rotate, and
    /// with the journal's directory removed the rotation fails.
    #[test]
    fn refused_membership_appends_are_counted_in_the_report() {
        let dir = std::env::temp_dir()
            .join(format!("aging-fleet-refused-appends-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = JournalOptions { segment_max_bytes: 1, ..JournalOptions::default() };
        let journal = Arc::new(Journal::open_with(&dir, options).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();

        let scenario = Scenario::builder("leaky")
            .emulated_browsers(50)
            .memory_leak(MemLeakSpec::new(15))
            .run_to_crash()
            .build();
        let spec = |name: &str, seed| {
            InstanceSpec::new(name, scenario.clone(), RejuvenationPolicy::Reactive, seed)
        };
        let config = FleetConfig {
            shards: 1,
            rejuvenation: RejuvenationConfig { horizon_secs: 900.0, ..Default::default() },
            ..Default::default()
        };
        let features = FeatureSet::exp42();
        let model = LinearModel::constant(1e6, features.variables().to_vec(), 0.0, 1);
        let report = Fleet::new(vec![spec("web-0", 1)], config)
            .unwrap()
            .with_churn(ChurnPlan::new().join(4, spec("late-0", 2)))
            .unwrap()
            .with_journal(Arc::clone(&journal))
            .run(&model, &features);

        let churn = report.churn.expect("a churn plan reports churn");
        assert_eq!(churn.scripted_joins, 1, "{churn:?}");
        let membership = 2 + churn.forced_retires + churn.natural_retires;
        let stats = report.journal.expect("a journal was attached");
        assert_eq!(stats.appended_records, 1, "only the founder's join fits the first segment");
        assert_eq!(stats.append_errors, membership - 1, "{stats:?}, {churn:?}");
        let printed = report.to_string();
        assert!(printed.contains(&format!("append errors {}", membership - 1)), "{printed}");
    }
}
