//! Fleet membership: the one path by which instances join and leave a run,
//! shared by the scheduler and the reference driver.
//!
//! [`Membership::new`] compiles a [`ChurnPlan`] into per-shard queues: the
//! initial specs hold global indices `0..n`, scripted joins follow in epoch
//! order, the autoscale pool comes last, and every roster member belongs to
//! shard `global % shards`, the same round-robin as the founders. A shard
//! epoch then takes what is due ([`Membership::take_due`]), lands it at the
//! top of the epoch ([`Due::land`]: retires first, then joins wired like
//! founders), runs, sweeps the retirements that surfaced
//! ([`Changes::sweep`]) and folds the result back
//! ([`Membership::record`]). The autoscale step only queues spawns
//! ([`Membership::autoscale`]); they land like scripted joins. Landing and
//! sweeping touch only their shard, so the scheduler runs them outside its
//! core lock, which guards the [`Membership`] itself.
//!
//! Membership records, membership trace events and the churn stats appear
//! only when a plan is attached.

use crate::churn::ChurnPlan;
use crate::config::InstanceSpec;
use crate::engine::Run;
use crate::report::ChurnStats;
use crate::shard::Shard;
use aging_journal::{Journal, JournalRecord};
use aging_obs::{EventId, EventKind, EventScope};
use std::collections::VecDeque;

/// A join waiting for its epoch on its owning shard.
struct PendingJoin {
    at_epoch: u64,
    global: usize,
    spec: InstanceSpec,
    autoscaled: bool,
}

/// The membership changes due on one shard at the top of one epoch.
pub(crate) struct Due {
    joins: VecDeque<PendingJoin>,
    /// Scripted retires: `(at_epoch, global index)`.
    retires: VecDeque<(u64, usize)>,
}

/// What one shard epoch changed, folded into the run's accounting by
/// [`Membership::record`].
#[derive(Default)]
pub(crate) struct Changes {
    /// The shard's `EpochScheduled` event, the parent of this epoch's
    /// membership events.
    scheduled: Option<EventId>,
    scripted_joins: u64,
    autoscale_spawns: u64,
    /// Scripted retires that retired a live instance.
    retires_landed: u64,
    /// Retirements that surfaced this epoch: `(epoch, forced)`.
    retired: Vec<(u64, bool)>,
    journal_errors: u64,
}

/// Appends a membership record, counting (not propagating) a failure: the
/// journal is an audit stream, not a correctness dependency; the count
/// reaches the report's journal stats.
fn append(journal: Option<&Journal>, record: &JournalRecord, errors: &mut u64) {
    if journal.is_some_and(|journal| journal.append(record).is_err()) {
        *errors += 1;
    }
}

impl Due {
    /// Lands these changes at the top of `epoch`, before its first
    /// checkpoint: scripted retires first (a retire whose target already
    /// aged out is a no-op), then joins, each joiner wired exactly like a
    /// founder and taking part in the epoch it joins.
    pub(crate) fn land(self, run: &Run<'_, '_>, shard: &mut Shard<'_>, epoch: u64) -> Changes {
        let mut changes = Changes::default();
        for &(_, global) in &self.retires {
            if shard.force_retire(global, epoch) {
                changes.retires_landed += 1;
            }
        }
        if run.planned && shard.trace.enabled() {
            let live = shard.instances.iter().filter(|(_, i)| i.live()).count() + self.joins.len();
            let live = live as u64;
            changes.scheduled = shard.trace.emit(
                EventScope::root().shard(shard.index).parent(shard.last_scheduled),
                EventKind::EpochScheduled { epoch, live },
            );
            shard.last_scheduled = changes.scheduled.or(shard.last_scheduled);
        }
        for join in self.joins {
            let instance = run.instance(join.spec, epoch, join.global);
            if join.autoscaled {
                changes.autoscale_spawns += 1;
            } else {
                changes.scripted_joins += 1;
            }
            if run.planned {
                let _ = shard.trace.emit(
                    EventScope::root().shard(shard.index).parent(changes.scheduled),
                    EventKind::InstanceJoined {
                        instance: join.global as u64,
                        autoscaled: join.autoscaled,
                    },
                );
                let record = JournalRecord::InstanceJoined {
                    instance: instance.name().to_string(),
                    class: instance.class_name().to_string(),
                    epoch,
                };
                append(run.journal, &record, &mut changes.journal_errors);
            }
            shard.admit(join.global, instance);
        }
        changes
    }
}

impl Changes {
    /// Sweeps the retirements that surfaced this epoch, natural horizon
    /// ageing and scripted retires alike, each announced exactly once.
    pub(crate) fn sweep(&mut self, run: &Run<'_, '_>, shard: &mut Shard<'_>) {
        for (global, instance) in &mut shard.instances {
            let Some((at, forced)) = instance.fresh_retirement() else { continue };
            self.retired.push((at, forced));
            if run.planned {
                let _ = shard.trace.emit(
                    EventScope::root().shard(shard.index).parent(self.scheduled),
                    EventKind::InstanceRetired { instance: *global as u64, forced },
                );
                let record = JournalRecord::InstanceRetired {
                    instance: instance.name().to_string(),
                    epoch: at,
                    forced,
                };
                append(run.journal, &record, &mut self.journal_errors);
            }
        }
    }
}

/// A run's membership: the queued changes, the spawn pool and the live
/// count, plus the churn accounting.
pub(crate) struct Membership {
    /// Scheduled joins per owning shard (scripted, then autoscale spawns).
    joins: Vec<VecDeque<PendingJoin>>,
    /// Scheduled retires per owning shard: `(at_epoch, global index)`.
    retires: Vec<VecDeque<(u64, usize)>>,
    /// Unspawned autoscale clones, in spawn order.
    pool: VecDeque<PendingJoin>,
    /// Live instances across the fleet.
    live: u64,
    stats: ChurnStats,
    /// Membership event log: `(epoch, is_join)`, including the initial
    /// roster at epoch 0, folded into [`ChurnStats::peak_live`] at the end.
    events: Vec<(u64, bool)>,
    /// Membership records the journal refused.
    journal_errors: u64,
}

impl Membership {
    /// Compiles `plan` against the founders on `shards`. With a plan, the
    /// initial roster is journalled as joined at epoch 0, in roster order,
    /// so a replayed journal reconstructs the whole population.
    pub(crate) fn new(
        plan: Option<&ChurnPlan>,
        shards: &[Shard<'_>],
        journal: Option<&Journal>,
    ) -> Self {
        let n_shards = shards.len();
        let mut names: Vec<(usize, String, String)> = shards
            .iter()
            .flat_map(|shard| &shard.instances)
            .map(|(g, inst)| (*g, inst.name().to_string(), inst.class_name().to_string()))
            .collect();
        names.sort_by_key(|(g, _, _)| *g);
        let n_initial = names.len();
        let mut membership = Membership {
            joins: (0..n_shards).map(|_| VecDeque::new()).collect(),
            retires: (0..n_shards).map(|_| VecDeque::new()).collect(),
            pool: VecDeque::new(),
            live: n_initial as u64,
            stats: ChurnStats::default(),
            events: vec![(0, true); n_initial],
            journal_errors: 0,
        };
        let Some(plan) = plan else { return membership };
        for (_, instance, class) in &names {
            let record = JournalRecord::InstanceJoined {
                instance: instance.clone(),
                class: class.clone(),
                epoch: 0,
            };
            append(journal, &record, &mut membership.journal_errors);
        }
        // Roster names in global order, so a name's position is its index.
        let mut roster: Vec<String> = names.into_iter().map(|(_, name, _)| name).collect();
        for join in plan.sorted_joins() {
            let global = roster.len();
            roster.push(join.spec.name.clone());
            membership.joins[global % n_shards].push_back(PendingJoin {
                at_epoch: join.at_epoch,
                global,
                spec: join.spec,
                autoscaled: false,
            });
        }
        membership.pool = (plan.autoscale_pool().into_iter().zip(roster.len()..))
            .map(|(spec, global)| PendingJoin { at_epoch: 0, global, spec, autoscaled: true })
            .collect();
        let mut retires = plan.retires.clone();
        retires.sort_by_key(|r| r.at_epoch);
        for retire in retires {
            let global = roster
                .iter()
                .position(|name| *name == retire.instance)
                .expect("churn plan validated against the roster");
            membership.retires[global % n_shards].push_back((retire.at_epoch, global));
        }
        membership
    }

    /// Live instances across the fleet.
    pub(crate) fn live(&self) -> u64 {
        self.live
    }

    /// The epoch of shard `s`'s next join, if one is queued.
    pub(crate) fn next_join(&self, s: usize) -> Option<u64> {
        self.joins[s].iter().map(|j| j.at_epoch).min()
    }

    /// Whether an autoscale spawn is still left.
    pub(crate) fn may_spawn(&self) -> bool {
        !self.pool.is_empty()
    }

    /// Takes the changes due on shard `s` at the top of `epoch`.
    pub(crate) fn take_due(&mut self, s: usize, epoch: u64) -> Due {
        Due {
            joins: take_due(&mut self.joins[s], |j| j.at_epoch <= epoch),
            retires: take_due(&mut self.retires[s], |r| r.0 <= epoch),
        }
    }

    /// Folds what one shard's `epoch` changed into the accounting.
    pub(crate) fn record(&mut self, epoch: u64, changes: Changes) {
        let joins = changes.scripted_joins + changes.autoscale_spawns;
        self.stats.scripted_joins += changes.scripted_joins;
        self.stats.autoscale_spawns += changes.autoscale_spawns;
        self.stats.scripted_retires += changes.retires_landed;
        self.events.extend((0..joins).map(|_| (epoch, true)));
        self.live += joins;
        for (at, forced) in changes.retired {
            if forced {
                self.stats.forced_retires += 1;
            } else {
                self.stats.natural_retires += 1;
            }
            self.events.push((at, false));
            self.live -= 1;
        }
        self.journal_errors += changes.journal_errors;
    }

    /// The autoscale step: tops the fleet back up to `min_live` from the
    /// spawn pool. Spawns join at the top of `boundary` on their roster
    /// shard, like scripted joins.
    pub(crate) fn autoscale(&mut self, boundary: u64, min_live: usize) {
        for _ in self.live..min_live as u64 {
            let Some(mut spawn) = self.pool.pop_front() else { break };
            spawn.at_epoch = boundary;
            let owner = spawn.global % self.joins.len();
            self.joins[owner].push_back(spawn);
        }
    }

    /// The churn accounting and the membership records the journal refused.
    /// The peak live population is folded from the event log: within an
    /// epoch, retires land before joins.
    pub(crate) fn finish(mut self) -> (ChurnStats, u64) {
        self.events.sort_unstable();
        let (mut running, mut peak) = (0i64, 0i64);
        for &(_, is_join) in &self.events {
            running += if is_join { 1 } else { -1 };
            peak = peak.max(running);
        }
        self.stats.peak_live = peak.max(0) as u64;
        self.stats.final_live = self.live;
        (self.stats, self.journal_errors)
    }
}

/// Removes and returns every queue entry satisfying `due`, preserving
/// order. Queues are per-shard and tiny, so the linear scan is free.
fn take_due<T>(queue: &mut VecDeque<T>, due: impl Fn(&T) -> bool) -> VecDeque<T> {
    let (taken, kept) = queue.drain(..).partition(|item| due(item));
    *queue = kept;
    taken
}

#[cfg(test)]
mod tests {
    use super::{Changes, Membership};

    /// Within one epoch the peak fold counts retires before joins: two
    /// founders, one retiring and one joiner arriving at epoch 10, peak
    /// at 2 live, where counting the join first would read 3.
    #[test]
    fn peak_live_counts_an_epochs_retires_before_its_joins() {
        let mut membership = Membership::new(None, &[], None);
        membership.record(0, Changes { scripted_joins: 2, ..Changes::default() });
        let changes =
            Changes { scripted_joins: 1, retired: vec![(10, true)], ..Changes::default() };
        membership.record(10, changes);
        let (stats, _) = membership.finish();
        assert_eq!((stats.peak_live, stats.final_live), (2, 2), "{stats:?}");
    }
}
