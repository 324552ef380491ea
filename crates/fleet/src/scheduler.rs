//! The epoch scheduler: the fleet's engine.
//!
//! Shards are *tasks* on a ready queue drained by a pool of one worker per
//! shard, and each shard runs its next epoch ([`Shard::epoch`]) as soon as
//! it is eligible. Two rules decide eligibility:
//!
//! - *Leader boundaries* are global cuts: no shard starts an epoch past the
//!   next boundary any leader step needs, and the leader task runs exactly
//!   when every live shard has parked there. Its window runs the run's
//!   list of leader steps in list order; the scheduler names no action.
//! - *The lead bound*: a fixed population keeps every shard within one
//!   epoch of the slowest live shard, so the fleet advances epoch by epoch;
//!   a run with a [`crate::ChurnPlan`] lets shards run ahead freely between
//!   boundaries.
//!
//! When the last live shard finishes an epoch, the scheduler counts it in
//! `fleet_epochs_total` and traces a root `EpochCompleted`, in epoch order
//! and before the leader window that epoch unblocks.
//!
//! A shard task lands the joins and retires due at the top of its epoch
//! and sweeps the retirements that surfaced after it (`crate::membership`).
//! Shards whose population hits zero are *fast-forwarded* to their next
//! join or boundary instead of ticking empty epochs, and retire from the
//! wheel once no join is queued for them and no autoscale spawn is left.
//!
//! Determinism: per-shard epoch order is total, membership changes land at
//! fixed epochs, and every leader boundary is a global cut, so a report
//! depends on the specs, seeds, config and plan alone. The crate's tests
//! hold the scheduler's reports bit for bit to a sequential reference
//! driver that runs the same shard epochs, membership path and leader
//! steps on one thread.

use crate::engine::Run;
use crate::membership::Membership;
use crate::report::SchedulerStats;
use crate::shard::Shard;
use aging_obs::{
    CounterHandle, EventKind, EventScope, GaugeHandle, HistogramHandle, Recorder, Unit,
};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Test seam: makes the scheduler's shard-0 task panic when it is about
/// to run this epoch, exercising the catch-unwind + flight-recorder dump
/// path of the worker pool. `u64::MAX` disables it.
#[cfg(test)]
pub(crate) static SCHEDULER_PANIC_AT: AtomicU64 = AtomicU64::new(u64::MAX);

/// One unit of work on the ready queue.
enum Task {
    /// Run shard `s`'s next epoch.
    Shard(usize),
    /// Run the leader window for this boundary.
    Leader(u64),
}

/// The scheduler's shared state, behind one mutex. Tasks are popped by
/// the worker pool; every completion re-runs [`Core::schedule`] to queue
/// whatever just became eligible.
struct Core<'m> {
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
    membership: &'m mut Membership,
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
}

impl Core<'_> {
    /// Queues every task that just became eligible, fast-forwards or
    /// retires dead shards, and decides leader readiness and pool
    /// shutdown. Called under the core lock after every state change.
    fn schedule(&mut self, run: &Run<'_, '_>) {
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
        let b_next = run.next_boundary(self.sync_done, self.membership).unwrap_or(u64::MAX);
        // Dead shards: fast-forward to whatever could make them matter
        // again (their next join, or the boundary the leader needs them
        // parked at, where a spawn may land), or retire them from the
        // wheel for good.
        for s in 0..n {
            if self.done[s] || self.busy[s] || self.queued[s] || self.live[s] > 0 {
                continue;
            }
            let target = match self.membership.next_join(s) {
                Some(join) => join.min(b_next),
                None if self.membership.may_spawn() => b_next,
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
        let lead_cap = if run.planned { u64::MAX } else { min_active + 1 };
        for s in 0..n {
            if self.done[s] || self.busy[s] || self.queued[s] {
                continue;
            }
            let epoch = self.next_epoch[s];
            if epoch >= b_next || epoch >= lead_cap {
                continue;
            }
            let join_due = self.membership.next_join(s).is_some_and(|join| join <= epoch);
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

/// Everything a worker thread needs, borrowed for the pool's scope.
struct Ctx<'a, 'b> {
    core: Mutex<Core<'a>>,
    cv: Condvar,
    /// One mutex per shard. At most one task per shard runs at a time
    /// (the `busy` flag) and the leader runs alone, so these are never
    /// contended: they move `&mut Shard` across the worker pool.
    shards: Vec<Mutex<&'a mut Shard<'b>>>,
    run: &'a Run<'a, 'b>,
    queue_depth: HistogramHandle,
    live_gauge: GaugeHandle,
    leader_hist: HistogramHandle,
    epochs_counter: CounterHandle,
    /// `fleet_scheduler_idle_seconds{worker}`, one series per pool thread.
    idle: Vec<HistogramHandle>,
}

/// Drives a fleet run on the epoch scheduler and returns the epochs it
/// drove (the highest any shard reached) and its execution counters.
/// Returns after the pool drains; the first panic of a shard task or of a
/// leader window is rethrown here.
pub(crate) fn run_elastic<'b>(
    shards: &mut [Shard<'b>],
    membership: &mut Membership,
    run: &Run<'_, 'b>,
) -> (u64, SchedulerStats) {
    let n_shards = shards.len();
    let workers = n_shards;
    let (queue_depth, live_gauge, leader_hist, epochs_counter, idle) = match run.telemetry {
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
    live_gauge.set(membership.live() as f64);

    let mut core = Core {
        next_epoch: vec![0; n_shards],
        live: shards.iter().map(|s| s.instances.len() as u64).collect(),
        busy: vec![false; n_shards],
        queued: vec![false; n_shards],
        done: vec![false; n_shards],
        ready: VecDeque::new(),
        leader_queued: false,
        leader_busy: false,
        sync_done: 0,
        membership,
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
    };
    core.schedule(run);

    let ctx = Ctx {
        core: Mutex::new(core),
        cv: Condvar::new(),
        shards: shards.iter_mut().map(Mutex::new).collect(),
        run,
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
    (core.max_epoch, core.stats)
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

/// Runs one shard's next epoch: land the membership changes due at the
/// top, run the epoch, sweep the retirements that surfaced, then report
/// completion.
fn run_shard_task(ctx: &Ctx<'_, '_>, s: usize) {
    let (epoch, due) = {
        let mut core = ctx.core.lock().expect("scheduler core poisoned");
        let epoch = core.next_epoch[s];
        (epoch, core.membership.take_due(s, epoch))
    };
    let (changes, outcome) = {
        let mut shard = ctx.shards[s].lock().expect("shard slot poisoned");
        let mut changes = due.land(ctx.run, &mut shard, epoch);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if s == 0 && epoch == SCHEDULER_PANIC_AT.load(Ordering::Relaxed) {
                panic!("synthetic scheduler panic on shard {s} at epoch {epoch}");
            }
            shard.epoch(ctx.run.table, ctx.run.config, epoch)
        }));
        if let (Err(_), Some(recorder)) = (&outcome, ctx.run.recorder) {
            // Flight-recorder dump: once per recorder across every panic
            // site, before the payload is rethrown after the pool drains.
            recorder.dump_once(&format!(
                "fleet scheduler worker panicked on shard {s} (epoch {epoch})"
            ));
        }
        changes.sweep(ctx.run, &mut shard);
        (changes, outcome)
    };

    let mut core = ctx.core.lock().expect("scheduler core poisoned");
    core.busy[s] = false;
    core.live[s] = outcome.as_ref().map_or(0, |&live| live as u64);
    core.next_epoch[s] = epoch + 1;
    core.stats.shard_tasks += 1;
    core.membership.record(epoch, changes);
    ctx.live_gauge.set(core.membership.live() as f64);
    core.max_epoch = core.max_epoch.max(epoch + 1);
    if let Err(payload) = outcome {
        core.payload.get_or_insert(payload);
    }
    core.schedule(ctx.run);
    // Announce the fleet epochs this task completed, in order, while the
    // core lock still holds back any leader task they just queued.
    let completed = core.completed();
    for epoch in core.announced..completed {
        ctx.epochs_counter.inc();
        let _ = ctx.run.trace.emit(EventScope::root(), EventKind::EpochCompleted { epoch });
    }
    core.announced = core.announced.max(completed);
    ctx.cv.notify_all();
}

/// Runs the leader window for one boundary, every shard parked, then
/// advances the boundary clock.
fn run_leader_task(ctx: &Ctx<'_, '_>, boundary: u64) {
    let leader_span = ctx.leader_hist.span();
    let mut core = ctx.core.lock().expect("scheduler core poisoned");
    let core = &mut *core;
    let mut guards: Vec<_> =
        ctx.shards.iter().map(|shard| shard.lock().expect("shard slot poisoned")).collect();
    let mut parked: Vec<&mut Shard> = guards.iter_mut().map(|guard| &mut ***guard).collect();
    let window = ctx.run.leader_window(core.sync_done, boundary, &mut parked, core.membership);
    drop(parked);
    drop(guards);
    if let Err(payload) = window {
        core.payload.get_or_insert(payload);
    }
    core.leader_busy = false;
    core.sync_done = boundary;
    core.stats.leader_steps += 1;
    core.schedule(ctx.run);
    ctx.cv.notify_all();
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
