//! A shard: the slice of the fleet one worker thread owns, with its model
//! pins. The scheduler runs [`Shard::epoch`] on its worker pool and the
//! crate's reference driver runs it on one thread: both execute identical
//! per-shard work in identical per-shard order.

use crate::audit::{AuditLane, ForkInstruments};
use crate::config::FleetConfig;
use crate::engine::{ModelTable, Pin};
use crate::instance::{Instance, Tick};
use aging_adapt::CheckpointBatch;
use aging_ml::FeatureMatrix;
use aging_obs::{EventId, HistogramHandle, Recorder, Registry, TraceHandle, Unit};
use std::sync::Arc;

/// Per-shard epoch-phase timing instruments. One clock read per *phase*
/// per epoch when live, one untaken branch per phase when disabled — never
/// a clock read per checkpoint row.
#[derive(Debug, Default)]
pub(crate) struct ShardInstruments {
    /// `fleet_epoch_advance_seconds{shard}` — driving every instance one
    /// checkpoint forward.
    advance: HistogramHandle,
    /// `fleet_epoch_predict_seconds{shard}` — the batched
    /// `predict_matrix` resolution across all slots: inference only, since
    /// counterfactual forks run outside it.
    predict: HistogramHandle,
    /// `fleet_epoch_publish_seconds{shard}` — staging labelled batches for
    /// the run's adapt step.
    publish: HistogramHandle,
    /// The counterfactual fork timers, per fork and per waiting fold.
    forks: ForkInstruments,
}

impl ShardInstruments {
    /// Resolves the phase and fork histograms for one shard id.
    pub(crate) fn resolve(registry: &Registry, shard: usize) -> Self {
        let shard = shard.to_string();
        let forks = ForkInstruments {
            run: registry.histogram_with(
                "fleet_counterfactual_seconds",
                "Wall time of one counterfactual frozen-rate fork, wherever it ran",
                Unit::Seconds,
                "shard",
                &shard,
            ),
            wait: registry.histogram_with(
                "fleet_counterfactual_wait_seconds",
                "Wall time one fold waited for its counterfactual fork to finish elsewhere",
                Unit::Seconds,
                "shard",
                &shard,
            ),
        };
        ShardInstruments {
            advance: registry.histogram_with(
                "fleet_epoch_advance_seconds",
                "Per-epoch wall time advancing every instance of one shard by one checkpoint",
                Unit::Seconds,
                "shard",
                &shard,
            ),
            predict: registry.histogram_with(
                "fleet_epoch_predict_seconds",
                "Per-epoch wall time of the batched TTF matrix predictions of one shard",
                Unit::Seconds,
                "shard",
                &shard,
            ),
            publish: registry.histogram_with(
                "fleet_epoch_publish_seconds",
                "Per-epoch wall time staging labelled checkpoint batches for the adapt step",
                Unit::Seconds,
                "shard",
                &shard,
            ),
            forks,
        }
    }
}

/// Where a shard's queued counterfactual forks run (see `crate::audit`).
#[derive(Debug, Clone)]
pub(crate) enum ForkRunner {
    /// In the shard's counterfactual phase, right after predict.
    Phase,
    /// On the run's audit lane.
    Lane(Arc<AuditLane>),
    /// Test builds: each fork is folded by the restart that queued it, as
    /// when the fork ran inside the restart.
    #[cfg(test)]
    Inline,
}

/// A worker's instances plus reusable per-epoch buffers.
///
/// The shard keeps one batch matrix per slot of the run's model table:
/// each epoch's pending rows land in their instance's slot matrix and
/// resolve through that slot's pinned model, one `predict_matrix` call per
/// slot with rows. Frozen and single-service runs have one slot, so one
/// call per epoch whatever the fleet's classes.
pub(crate) struct Shard<'a> {
    /// `(original fleet index, instance)` — the index restores spec order
    /// when per-instance reports are folded back together.
    pub(crate) instances: Vec<(usize, Instance)>,
    /// The shard's index, carried by its trace events.
    pub(crate) index: u32,
    /// One pin per table slot. Pins refresh at epoch boundaries only, and
    /// only when the generation moved, so a publish mid-epoch never splits
    /// a batch across two models. Threshold overrides follow the same
    /// discipline, so a self-tuning policy's update lands at an epoch edge.
    pins: Vec<Pin<'a>>,
    /// The table version the pins last synced with.
    seen_version: u64,
    /// Sink for swap and membership events.
    pub(crate) trace: TraceHandle,
    /// The shard's last `EpochScheduled` event, the parent of the next
    /// one, chaining its epochs causally.
    pub(crate) last_scheduled: Option<EventId>,
    /// Flat row-major batches of this epoch's pending feature rows, one
    /// per table slot; cleared and refilled every epoch, so steady-state
    /// epochs perform no per-row allocations at all.
    matrices: Vec<FeatureMatrix>,
    /// Per slot, which positions in `instances` appended a row this epoch
    /// (row `i` of `matrices[s]` belongs to `pending[s][i]`).
    pending: Vec<Vec<usize>>,
    /// Feature arity, kept to size the matrices of slots discovery adds.
    n_features: usize,
    /// Whether the run has an adaptation side, so instances collect
    /// labelled rows and the shard stages them.
    stages: bool,
    /// Labelled batches staged since the last cut, with their instance's
    /// fleet index, for the run's adapt step to drain.
    pub(crate) outbox: Vec<(usize, CheckpointBatch)>,
    /// Where queued forks run.
    forks: ForkRunner,
    /// Epoch-phase timing; disabled handles when no telemetry is attached.
    instruments: ShardInstruments,
}

impl<'a> Shard<'a> {
    pub(crate) fn new(
        index: usize,
        instances: Vec<(usize, Instance)>,
        table: &ModelTable<'a>,
        n_features: usize,
        stages: bool,
        forks: ForkRunner,
        trace: TraceHandle,
    ) -> Self {
        Shard {
            instances,
            index: index as u32,
            pins: table.pins(),
            seen_version: 0,
            trace,
            last_scheduled: None,
            matrices: Vec::new(),
            pending: Vec::new(),
            n_features,
            stages,
            outbox: Vec::new(),
            forks,
            instruments: ShardInstruments::default(),
        }
    }

    /// Attaches epoch-phase and fork timing instruments (resolved once per
    /// shard, before the worker pool starts).
    pub(crate) fn set_instruments(&mut self, instruments: ShardInstruments) {
        for (_, instance) in &mut self.instances {
            instance.set_fork_instruments(instruments.forks.clone());
        }
        self.instruments = instruments;
    }

    /// Admits a joining instance (elastic runs): instances are
    /// append-only, so existing pending-row positions stay valid.
    /// Called at the top of a fleet epoch only, before any row of that
    /// epoch is batched.
    pub(crate) fn admit(&mut self, fleet_index: usize, mut instance: Instance) {
        instance.set_fork_instruments(self.instruments.forks.clone());
        self.instances.push((fleet_index, instance));
    }

    /// Force-retires the instance with the given fleet index (scripted
    /// churn). Returns whether a live instance was actually retired.
    pub(crate) fn force_retire(&mut self, fleet_index: usize, fleet_epoch: u64) -> bool {
        self.instances
            .iter_mut()
            .find(|(idx, _)| *idx == fleet_index)
            .is_some_and(|(_, instance)| instance.force_retire(fleet_epoch))
    }

    /// Drives the shard through one fleet epoch. At the boundary it syncs
    /// with the table when discovery moved it (pinning the new slots and
    /// re-pointing its instances), then re-pins every slot whose generation
    /// moved (emitting the skipped-generation swap events) and re-reads its
    /// threshold override. It then drives every instance one checkpoint
    /// forward and resolves all pending TTF predictions with one batched
    /// inference per slot over that slot's pin. The counterfactual phase
    /// then runs the forks this epoch's restarts queued, or hands them to
    /// the audit lane, and folds every fork that has finished; a shard with
    /// no live instance left folds every pending fork. In a run with an
    /// adaptation side, the publish phase then stages each instance's
    /// labelled batch in the outbox for the next cut. Returns how many
    /// instances are still live. `fleet_epoch` is the fleet epoch being
    /// driven — instances that cross their horizon this tick record it as
    /// their retirement epoch. The scheduler wraps this in `catch_unwind`:
    /// a panicking model or simulator must not strand the engine.
    pub(crate) fn epoch(
        &mut self,
        table: &ModelTable<'a>,
        config: &FleetConfig,
        fleet_epoch: u64,
    ) -> usize {
        table.sync(&mut self.seen_version, &mut self.pins, &mut self.instances);
        for pin in &mut self.pins {
            pin.refresh(&self.trace, self.index);
        }
        // Discovery appends slots between epochs; existing slots keep
        // their buffers.
        let (n_features, capacity) = (self.n_features, self.instances.len());
        let slots = self.pins.len();
        self.matrices.resize_with(slots, || FeatureMatrix::with_capacity(n_features, capacity));
        self.pending.resize_with(slots, || Vec::with_capacity(capacity));
        for matrix in &mut self.matrices {
            matrix.clear();
        }
        for pending in &mut self.pending {
            pending.clear();
        }
        let collect = self.stages;
        let mut live = 0usize;
        let advance_span = self.instruments.advance.span();
        for (position, (_, instance)) in self.instances.iter_mut().enumerate() {
            let slot = instance.slot();
            let tick = instance.advance(config, &mut self.matrices[slot], collect, fleet_epoch);
            #[cfg(test)]
            if matches!(self.forks, ForkRunner::Inline) {
                instance.fold();
            }
            match tick {
                Tick::Retired => {}
                Tick::Advanced => live += 1,
                Tick::NeedsPrediction => {
                    live += 1;
                    self.pending[slot].push(position);
                }
            }
        }
        advance_span.finish();
        let predict_span = self.instruments.predict.span();
        for ((pin, matrix), pending) in self.pins.iter().zip(&self.matrices).zip(&self.pending) {
            if matrix.is_empty() {
                continue;
            }
            let (model, generation, threshold_override) = pin.serving();
            let predictions = model.predict_matrix(matrix);
            debug_assert_eq!(predictions.len(), pending.len());
            for (row_idx, (&position, &prediction)) in pending.iter().zip(&predictions).enumerate()
            {
                let instance = &mut self.instances[position].1;
                instance.apply_prediction(
                    prediction,
                    matrix.row(row_idx),
                    config,
                    collect,
                    threshold_override,
                    generation,
                );
                #[cfg(test)]
                if matches!(self.forks, ForkRunner::Inline) {
                    instance.fold();
                }
            }
        }
        predict_span.finish();
        if config.counterfactual_horizon_secs > 0.0 {
            for (_, instance) in &mut self.instances {
                if let Some(job) = instance.queued_fork() {
                    match &self.forks {
                        ForkRunner::Lane(lane) => lane.submit(job),
                        _ => job.run(),
                    }
                }
                instance.fold_finished();
            }
        }
        if live == 0 {
            // The shard's run is over: no fork may outlive it.
            for (_, instance) in &mut self.instances {
                instance.fold();
            }
        }
        if self.stages {
            let publish_span = self.instruments.publish.span();
            for (global, instance) in &mut self.instances {
                if let Some(batch) = instance.take_labelled() {
                    self.outbox.push((*global, batch));
                }
            }
            publish_span.finish();
        }
        live
    }
}
