//! [`EpochStep`]: the reusable unit of per-epoch work.
//!
//! One `EpochStep` owns a shard worker's epoch-boundary state — model
//! snapshot pins, the discovered-class table view, effective threshold
//! overrides — and drives one shard through one fleet epoch:
//! refresh pins/classes → build the epoch's model table → advance every
//! instance, batch-predict per class, publish labelled checkpoints.
//!
//! The scheduler (`crate::scheduler`) runs one `EpochStep` per shard; the
//! sequential reference driver of the crate's tests runs the same units
//! on one thread. Sharing the unit is what makes that oracle structural:
//! both execute identical per-shard work in identical per-shard order, so
//! their reports agree by construction, not by coincidence.

use crate::config::FleetConfig;
use crate::engine::{emit_swaps, DiscoveryRuntime, ModelBinding};
use crate::shard::{EpochModels, Shard};
use aging_adapt::{ModelService, ModelSnapshot, ServiceClass};
use aging_obs::TraceHandle;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One shard worker's per-epoch state and the epoch driver itself.
pub(crate) struct EpochStep {
    shard_idx: usize,
    /// Adaptive/routed/discovered runs pin one model snapshot per class
    /// per epoch: pins refresh at epoch boundaries only, and only when
    /// the generation counter moved, so a publish mid-epoch never splits
    /// a batch across two models.
    pins: Vec<ModelSnapshot>,
    /// Discovered runs: this worker's view of the class table, re-synced
    /// when the runtime version moves.
    services: Vec<Arc<ModelService>>,
    /// Class names aligned with `services`/`pins` — the labels this
    /// shard's swap-apply events carry.
    class_names: Vec<ServiceClass>,
    seen_version: u64,
    /// Effective rejuvenation thresholds, same epoch-boundary discipline
    /// as the pins: read once per class per epoch from the class's model
    /// service, so a self-tuning policy's update lands at an epoch edge,
    /// never mid-batch. All `None` (the fixed-policy state) leaves the
    /// spec thresholds in force — bit-identical to the pre-policy engine.
    thresholds: Vec<Option<f64>>,
    trace: TraceHandle,
}

impl EpochStep {
    pub(crate) fn new(
        binding: &ModelBinding<'_>,
        n_classes: usize,
        shard_idx: usize,
        trace: TraceHandle,
    ) -> Self {
        let (pins, services, class_names) = match binding {
            ModelBinding::Frozen(_) => (Vec::new(), Vec::new(), Vec::new()),
            ModelBinding::Adaptive(service) => (vec![service.snapshot()], Vec::new(), Vec::new()),
            ModelBinding::Routed(services) => {
                (services.iter().map(|s| s.snapshot()).collect(), Vec::new(), Vec::new())
            }
            ModelBinding::Discovered(runtime) => {
                let table = runtime.classes.read().expect("class table poisoned");
                (
                    table.iter().map(|(_, s)| s.snapshot()).collect(),
                    table.iter().map(|(_, s)| Arc::clone(s)).collect(),
                    table.iter().map(|(name, _)| name.clone()).collect(),
                )
            }
        };
        EpochStep {
            shard_idx,
            pins,
            services,
            class_names,
            seen_version: 0,
            thresholds: vec![None; n_classes],
            trace,
        }
    }

    /// Epoch-boundary refresh: re-pin moved model generations (emitting
    /// the skipped-generation swap events), re-read threshold overrides,
    /// and — for discovered runs — apply the leader's latest partition to
    /// this shard's instances.
    fn refresh(
        &mut self,
        shard: &mut Shard,
        binding: &ModelBinding<'_>,
        classes: &[ServiceClass],
        default_class: &ServiceClass,
    ) {
        let shard_idx = self.shard_idx as u32;
        match binding {
            ModelBinding::Frozen(_) => {}
            ModelBinding::Adaptive(service) => {
                let before = self.pins[0].generation;
                if service.refresh(&mut self.pins[0]) {
                    emit_swaps(
                        &self.trace,
                        default_class.as_str(),
                        shard_idx,
                        before,
                        self.pins[0].generation,
                        service,
                    );
                }
                // One service serves every class.
                self.thresholds.fill(service.rejuvenation_threshold_secs());
            }
            ModelBinding::Routed(services) => {
                for (class_idx, ((service, pin), threshold)) in
                    services.iter().zip(&mut self.pins).zip(&mut self.thresholds).enumerate()
                {
                    let before = pin.generation;
                    if service.refresh(pin) {
                        emit_swaps(
                            &self.trace,
                            classes[class_idx].as_str(),
                            shard_idx,
                            before,
                            pin.generation,
                            service,
                        );
                    }
                    *threshold = service.rejuvenation_threshold_secs();
                }
            }
            ModelBinding::Discovered(runtime) => {
                // Apply the leader's latest partition — new classes,
                // retirements, re-routed instances — exactly at this
                // epoch boundary.
                let version = runtime.version.load(Ordering::Acquire);
                if version != self.seen_version {
                    self.seen_version = version;
                    let table = runtime.classes.read().expect("class table poisoned");
                    for (orig, instance) in shard.instances.iter_mut() {
                        let id = runtime.assignment[*orig].load(Ordering::Relaxed);
                        instance.set_class(id, table[id].0.clone());
                    }
                    while self.services.len() < table.len() {
                        let (name, service) = &table[self.services.len()];
                        self.pins.push(service.snapshot());
                        self.class_names.push(name.clone());
                        self.services.push(Arc::clone(service));
                    }
                    drop(table);
                    shard.ensure_classes(self.services.len());
                    self.thresholds.resize(self.services.len(), None);
                }
                for (class_idx, ((service, pin), threshold)) in
                    self.services.iter().zip(&mut self.pins).zip(&mut self.thresholds).enumerate()
                {
                    let before = pin.generation;
                    if service.refresh(pin) {
                        emit_swaps(
                            &self.trace,
                            self.class_names[class_idx].as_str(),
                            shard_idx,
                            before,
                            pin.generation,
                            service,
                        );
                    }
                    *threshold = service.rejuvenation_threshold_secs();
                }
            }
        }
    }

    /// Drives one shard through one fleet epoch: boundary refresh, then
    /// advance/predict/publish. Returns the shard's live-instance count
    /// after the epoch. The caller wraps this in `catch_unwind` — a
    /// panicking model or simulator must not strand the engine.
    pub(crate) fn run(
        &mut self,
        shard: &mut Shard,
        binding: &ModelBinding<'_>,
        classes: &[ServiceClass],
        default_class: &ServiceClass,
        config: &FleetConfig,
        epoch: u64,
    ) -> usize {
        self.refresh(shard, binding, classes, default_class);
        // The model table this epoch serves from — borrows of `pins`, no
        // per-epoch allocation.
        let models = match binding {
            ModelBinding::Frozen(model) => EpochModels::Uniform { model: *model, generation: 0 },
            ModelBinding::Adaptive(_) => EpochModels::Uniform {
                model: self.pins[0].model.as_ref(),
                generation: self.pins[0].generation,
            },
            ModelBinding::Routed(_) | ModelBinding::Discovered(_) => {
                EpochModels::PerClass(&self.pins)
            }
        };
        shard.epoch(models, &self.thresholds, config, epoch)
    }

    /// Whether completing `epoch` lands on a discovery reassessment
    /// boundary (signatures must be published before the leader's next
    /// step).
    pub(crate) fn reassess_after(binding: &ModelBinding<'_>, epoch: u64) -> bool {
        match binding {
            ModelBinding::Discovered(runtime) => {
                (epoch + 1) % runtime.setup.reassess_every_epochs == 0
            }
            _ => false,
        }
    }

    /// Publishes this shard's instance signatures into the runtime's
    /// slots, so the leader's next evaluation sees every instance's
    /// latest stream.
    pub(crate) fn publish_signatures(shard: &Shard, runtime: &DiscoveryRuntime<'_>) {
        for (orig, instance) in shard.instances.iter() {
            *runtime.signatures[*orig].lock().expect("signature slot poisoned") =
                instance.signature();
        }
    }
}
