//! [`EpochStep`]: the reusable unit of per-epoch work.
//!
//! One `EpochStep` owns a shard worker's epoch-boundary state — one model
//! pin per slot of the run's [`ModelTable`] and the table version it last
//! synced with — and drives one shard through one fleet epoch: refresh the
//! pins → advance every instance, batch-predict per slot, publish labelled
//! checkpoints.
//!
//! The scheduler (`crate::scheduler`) runs one `EpochStep` per shard; the
//! sequential reference driver of the crate's tests runs the same units
//! on one thread. Sharing the unit is what makes that oracle structural:
//! both execute identical per-shard work in identical per-shard order, so
//! their reports agree by construction, not by coincidence.

use crate::config::FleetConfig;
use crate::engine::{ModelTable, Pin};
use crate::shard::Shard;
use aging_obs::TraceHandle;

/// One shard worker's per-epoch state and the epoch driver itself.
pub(crate) struct EpochStep<'a> {
    shard_idx: u32,
    /// One pin per table slot: pins refresh at epoch boundaries only, and
    /// only when the generation moved, so a publish mid-epoch never splits
    /// a batch across two models. Threshold overrides follow the same
    /// discipline, so a self-tuning policy's update lands at an epoch edge.
    pins: Vec<Pin<'a>>,
    seen_version: u64,
    trace: TraceHandle,
}

impl<'a> EpochStep<'a> {
    pub(crate) fn new(table: &ModelTable<'a>, shard_idx: usize, trace: TraceHandle) -> Self {
        EpochStep { shard_idx: shard_idx as u32, pins: table.pins(), seen_version: 0, trace }
    }

    /// Epoch-boundary refresh: when discovery moved the table, pin its new
    /// slots and re-point this shard's instances; then re-pin every slot
    /// whose generation moved (emitting the skipped-generation swap
    /// events) and re-read its threshold override.
    fn refresh(&mut self, shard: &mut Shard, table: &ModelTable<'a>) {
        table.sync(&mut self.seen_version, &mut self.pins, &mut shard.instances);
        for pin in &mut self.pins {
            pin.refresh(&self.trace, self.shard_idx);
        }
    }

    /// Drives one shard through one fleet epoch: boundary refresh, then
    /// advance/predict/publish. Returns the shard's live-instance count
    /// after the epoch. The caller wraps this in `catch_unwind` — a
    /// panicking model or simulator must not strand the engine.
    pub(crate) fn run(
        &mut self,
        shard: &mut Shard,
        table: &ModelTable<'a>,
        config: &FleetConfig,
        epoch: u64,
    ) -> usize {
        self.refresh(shard, table);
        shard.epoch(&self.pins, config, epoch)
    }
}
