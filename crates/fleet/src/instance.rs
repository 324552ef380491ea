//! One fleet-operated deployment: a simulator advanced checkpoint by
//! checkpoint, with rejuvenation-policy accounting.
//!
//! The state machine is `aging_core::rejuvenation::evaluate_policy`
//! unrolled into per-tick steps: where the single-instance study drives one
//! simulator through an inner loop, a fleet [`Instance`] performs exactly
//! one `Simulator::step` per fleet epoch and carries the epoch/policy state
//! across ticks. Counters are accumulated in the same order, so a
//! one-instance fleet reproduces the single-instance
//! `RejuvenationReport` bit for bit (see `tests/properties.rs`).
//!
//! On top of the policy loop the instance keeps a per-service-epoch
//! *prediction history* — `(checkpoint uptime, predicted TTF)` plus,
//! when the fleet runs adaptively, the feature rows themselves. When the
//! epoch ends the history is labelled retrospectively: a crash labels
//! every checkpoint with its exact time to failure (and queues the rows
//! for the adaptation service), a proactive restart labels it against the
//! frozen-rate counterfactual fork. Both feed the instance's TTF-error
//! accounting; only crash epochs — the paper's "failure executions" —
//! become training data, while each proactive restart queues a single
//! *monitor-only* observation (the restart-triggering prediction vs the
//! fork) so drift detection and self-tuning threshold policies stay fed
//! once adaptation has made crashes rare. Every label carries the model
//! generation that made its prediction.
//!
//! A proactive restart does not wait for its fork. It moves the live
//! simulator into a [`ForkJob`] and its history into a pending fork, and
//! the labelling waits for a *fold* ([`Instance::fold`]). The instance
//! folds first thing in its next epoch end, [`Instance::take_labelled`],
//! [`Instance::signature`] and [`Instance::report`]; its shard folds every
//! fork that has finished after each counterfactual phase, and every
//! instance when the shard runs out of live ones. Nothing else
//! reads what a fold writes (labels, `crashes_avoided`, the discovery
//! accumulator, the outbox), and the fold applies the same arithmetic in
//! the same per-instance order as labelling at the restart, so reports do
//! not change, bit for bit.

use crate::audit::{ForkInstruments, ForkJob};
use crate::config::{FleetConfig, InstanceSpec};
use crate::report::InstanceReport;
use aging_adapt::discovery::SignatureAccumulator;
use aging_adapt::{CheckpointBatch, LabelledCheckpoint, ServiceClass};
use aging_core::{clamp_ttf, RejuvenationPolicy};
use aging_ml::FeatureMatrix;
use aging_monitor::{FeatureExtractor, FeatureSet, TTF_CAP_SECS};
use aging_testbed::{Simulator, StepOutcome};
use std::sync::Arc;

/// What an instance did during one fleet tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Tick {
    /// Nothing left to do: the instance reached its operating horizon.
    Retired,
    /// A checkpoint was consumed; no prediction is needed (reactive or
    /// time-based policy, or an epoch boundary).
    Advanced,
    /// A checkpoint was consumed and its feature row was appended to the
    /// shard's batch matrix; the caller must follow up with
    /// [`Instance::apply_prediction`].
    NeedsPrediction,
}

/// One service epoch's prediction history, labelled retrospectively when
/// the epoch ends.
#[derive(Debug, Default)]
struct History {
    uptimes: Vec<f64>,
    predictions: Vec<f64>,
    /// Feature rows, kept only while collecting.
    rows: Vec<Vec<f64>>,
    /// Model generation behind each prediction (kept only while
    /// collecting, like the rows): training labels carry it so the
    /// adaptation side can attribute errors to the generation that made
    /// them — an epoch straddling a hot swap mixes generations.
    generations: Vec<u64>,
}

impl History {
    fn clear(&mut self) {
        self.uptimes.clear();
        self.predictions.clear();
        self.rows.clear();
        self.generations.clear();
    }
}

/// A proactive restart waiting for its fork: the service epoch's history
/// and what its labelling needs besides the fork's result.
#[derive(Debug)]
struct PendingFork {
    job: Arc<ForkJob>,
    /// Whether the shard has taken the job to run ([`Instance::queued_fork`]).
    dispatched: bool,
    history: History,
    at_uptime: f64,
    cap: f64,
    collect: bool,
}

/// How one service epoch ended, for retrospective labelling.
enum EpochEnd {
    /// Unplanned crash at this uptime: exact TTF labels.
    Crashed { crash_uptime: f64 },
    /// Proactive restart whose counterfactual fork reported this time to
    /// crash from the restart instant, saturating at `cap` (the configured
    /// counterfactual horizon).
    Rejuvenated { fork_ttf: f64, at_uptime: f64, cap: f64 },
    /// Scenario finished or horizon reached: no ground truth, no labels.
    Unlabelled,
}

/// A single simulated deployment plus its fleet-side operating state.
#[derive(Debug)]
pub(crate) struct Instance {
    spec: InstanceSpec,
    extractor: FeatureExtractor,
    /// Catalogue indices of the feature set, cached so the per-checkpoint
    /// projection is a gather instead of repeated name lookups.
    feature_indices: Vec<usize>,
    /// The instance's slot in the run's model table — the shard uses it
    /// to pick this instance's batch matrix and model pin. Fixed unless
    /// discovery re-points it at an epoch boundary
    /// ([`Instance::set_class`]).
    slot: usize,
    /// The class outgoing checkpoint batches are tagged with. Equal to
    /// `spec.class` except under class discovery, where it tracks the
    /// instance's current discovered class.
    current_class: ServiceClass,
    /// Aging-signature accumulator, present only when the fleet runs
    /// under class discovery.
    discovery: Option<SignatureAccumulator>,
    // Epoch-of-service state (reset on every restart).
    sim: Option<Box<Simulator>>,
    epoch: u64,
    epochs_started: u64,
    seen: usize,
    below: usize,
    pending_uptime: f64,
    history: History,
    /// The last proactive restart, until its fork is folded.
    pending: Option<PendingFork>,
    /// The owning shard's fork timers.
    fork_instruments: ForkInstruments,
    outbox: Vec<LabelledCheckpoint>,
    // Operating-period accounting, mirroring `evaluate_policy`.
    elapsed: f64,
    crashes: u64,
    rejuvenations: u64,
    crashes_avoided: u64,
    downtime: f64,
    throughput_sum: f64,
    throughput_n: u64,
    checkpoints: u64,
    ttf_error_sum: f64,
    ttf_error_count: u64,
    retired: bool,
    // Membership lifetime, in fleet epochs. The fields are deterministic
    // in the specs, seeds and plan, so they participate in report equality
    // (the reference-driver oracle checks them too).
    joined_epoch: u64,
    retired_epoch: Option<u64>,
    retired_forced: bool,
    retirement_announced: bool,
}

impl Instance {
    pub(crate) fn new(
        spec: InstanceSpec,
        features: &FeatureSet,
        slot: usize,
        joined_epoch: u64,
    ) -> Self {
        Instance {
            extractor: FeatureExtractor::new(features.window()),
            feature_indices: features.catalogue_indices(),
            slot,
            current_class: spec.class.clone(),
            discovery: None,
            spec,
            sim: None,
            epoch: 0,
            epochs_started: 0,
            seen: 0,
            below: 0,
            pending_uptime: 0.0,
            history: History::default(),
            pending: None,
            fork_instruments: ForkInstruments::default(),
            outbox: Vec::new(),
            elapsed: 0.0,
            crashes: 0,
            rejuvenations: 0,
            crashes_avoided: 0,
            downtime: 0.0,
            throughput_sum: 0.0,
            throughput_n: 0,
            checkpoints: 0,
            ttf_error_sum: 0.0,
            ttf_error_count: 0,
            retired: false,
            joined_epoch,
            retired_epoch: None,
            retired_forced: false,
            retirement_announced: false,
        }
    }

    /// Advances one checkpoint (or epoch-boundary event). Returns
    /// [`Tick::NeedsPrediction`] when the predictive policy needs a TTF for
    /// this checkpoint; the row has then been appended to `matrix` and the
    /// shard batches it with its siblings. With `collect` set, completed
    /// crash epochs queue labelled training data for the adaptation bus.
    /// `fleet_epoch` is the fleet epoch driving this tick — recorded as
    /// the retirement epoch when this tick crosses the horizon.
    pub(crate) fn advance(
        &mut self,
        config: &FleetConfig,
        matrix: &mut FeatureMatrix,
        collect: bool,
        fleet_epoch: u64,
    ) -> Tick {
        if self.retired {
            return Tick::Retired;
        }
        let horizon = config.rejuvenation.horizon_secs;
        if self.sim.is_none() {
            // Outer `while elapsed < horizon` of the single-instance study.
            if self.elapsed >= horizon {
                self.retired = true;
                self.retired_epoch = Some(fleet_epoch);
                return Tick::Retired;
            }
            // A fleet-level workload shift takes effect at service-epoch
            // boundaries: restarts pick up the new regime, epochs in
            // flight keep theirs.
            let scenario = match &self.spec.shift {
                Some(shift) if self.elapsed >= shift.after_secs => &shift.scenario,
                _ => &self.spec.scenario,
            };
            self.sim =
                Some(Box::new(Simulator::new(scenario, self.spec.seed.wrapping_add(self.epoch))));
            self.epochs_started += 1;
            self.extractor.reset();
            self.seen = 0;
            self.below = 0;
        }
        let sim = self.sim.as_mut().expect("simulator created above");
        match sim.step() {
            StepOutcome::Checkpoint(sample) => {
                self.seen += 1;
                self.throughput_sum += sample.throughput_rps;
                self.throughput_n += 1;
                self.checkpoints += 1;
                let uptime = sample.time_secs;
                if self.elapsed + uptime >= horizon {
                    self.elapsed += uptime;
                    self.retired = true;
                    self.retired_epoch = Some(fleet_epoch);
                    self.end_epoch(EpochEnd::Unlabelled, false);
                    return Tick::Retired;
                }
                match self.spec.policy {
                    RejuvenationPolicy::TimeBased { interval_secs } if uptime >= interval_secs => {
                        self.rejuvenate(uptime, config, collect);
                        Tick::Advanced
                    }
                    RejuvenationPolicy::Predictive { .. } => {
                        let full = self.extractor.push(&sample);
                        // During warm-up the trigger discards the prediction
                        // unconditionally (`below` is still 0), so skip the
                        // inference entirely — the sliding-window state above
                        // is what has to keep advancing. Behaviour-identical
                        // to predicting and ignoring the result.
                        if self.seen <= config.rejuvenation.warmup_checkpoints {
                            return Tick::Advanced;
                        }
                        self.pending_uptime = uptime;
                        matrix.push_row_with(|buf| {
                            buf.extend(self.feature_indices.iter().map(|&i| full[i]));
                        });
                        Tick::NeedsPrediction
                    }
                    _ => Tick::Advanced,
                }
            }
            StepOutcome::Crashed(crash) => {
                self.crashes += 1;
                self.downtime += config.rejuvenation.crash_downtime_secs;
                self.elapsed += crash.time_secs + config.rejuvenation.crash_downtime_secs;
                self.end_epoch(EpochEnd::Crashed { crash_uptime: crash.time_secs }, collect);
                Tick::Advanced
            }
            StepOutcome::Finished => {
                let uptime = sim.time_ms() as f64 / 1000.0;
                self.elapsed += uptime.max(1.0);
                self.end_epoch(EpochEnd::Unlabelled, false);
                Tick::Advanced
            }
        }
    }

    /// Second phase of a predictive tick: feeds the batched TTF prediction
    /// back into the debounced threshold trigger. `row` is the feature row
    /// this instance appended during [`Instance::advance`], handed back by
    /// the shard so crash epochs can be replayed as training data.
    ///
    /// `threshold_override` is the class's effective rejuvenation
    /// threshold published by a self-tuning
    /// [`aging_adapt::ThresholdPolicy`] (read once per epoch from the
    /// class's model service); `None` — always, under the fixed policy —
    /// leaves the spec's configured threshold in force, bit for bit.
    pub(crate) fn apply_prediction(
        &mut self,
        raw_prediction: f64,
        row: &[f64],
        config: &FleetConfig,
        collect: bool,
        threshold_override: Option<f64>,
        model_generation: u64,
    ) {
        let RejuvenationPolicy::Predictive { threshold_secs, consecutive } = self.spec.policy
        else {
            unreachable!("apply_prediction is only called after NeedsPrediction");
        };
        let threshold_secs = threshold_override.unwrap_or(threshold_secs);
        debug_assert!(
            self.seen > config.rejuvenation.warmup_checkpoints,
            "warm-up checkpoints never request predictions"
        );
        let prediction = clamp_ttf(raw_prediction);
        self.history.uptimes.push(self.pending_uptime);
        self.history.predictions.push(prediction);
        if collect {
            self.history.rows.push(row.to_vec());
            self.history.generations.push(model_generation);
        }
        if prediction < threshold_secs {
            self.below += 1;
            if self.below >= consecutive {
                self.rejuvenate(self.pending_uptime, config, collect);
            }
        } else {
            self.below = 0;
        }
    }

    /// A proactive restart. With the counterfactual on, the live simulator
    /// becomes the restart's fork and the epoch's labelling waits for the
    /// fold; the accounting the restart itself decides is immediate.
    fn rejuvenate(&mut self, uptime: f64, config: &FleetConfig, collect: bool) {
        self.rejuvenations += 1;
        self.downtime += config.rejuvenation.rejuvenation_downtime_secs;
        self.elapsed += uptime + config.rejuvenation.rejuvenation_downtime_secs;
        let cap = config.counterfactual_horizon_secs;
        if cap <= 0.0 {
            self.end_epoch(EpochEnd::Unlabelled, collect);
            return;
        }
        self.fold();
        let sim = self.sim.take().expect("rejuvenation happens mid-epoch");
        self.pending = Some(PendingFork {
            job: ForkJob::new(sim, cap, self.fork_instruments.run.clone()),
            dispatched: false,
            history: std::mem::take(&mut self.history),
            at_uptime: uptime,
            cap,
            collect,
        });
        self.epoch += 1;
    }

    /// Folds the pending fork, if any: reads its time to crash (running
    /// the fork here when nobody has started it, waiting when it runs
    /// elsewhere), counts an avoided crash, labels the restarted epoch and
    /// closes it for the discovery accumulator — what the restart itself
    /// would have done with the fork inline.
    pub(crate) fn fold(&mut self) {
        let Some(mut fork) = self.pending.take() else { return };
        let fork_ttf = fork.job.join(&self.fork_instruments.wait);
        if fork_ttf < fork.cap {
            self.crashes_avoided += 1;
        }
        let end = EpochEnd::Rejuvenated { fork_ttf, at_uptime: fork.at_uptime, cap: fork.cap };
        self.label(end, &mut fork.history, fork.collect);
        if let Some(acc) = &mut self.discovery {
            acc.epoch_boundary();
        }
    }

    /// Folds the pending fork once it has run elsewhere, so the restarted
    /// epoch's history does not outlive the fork. A fork still queued or
    /// running is left for a later fold.
    pub(crate) fn fold_finished(&mut self) {
        if self.pending.as_ref().is_some_and(|fork| fork.job.finished()) {
            self.fold();
        }
    }

    /// The fork this instance queued since the shard last asked, for the
    /// shard to run or hand to the audit lane.
    pub(crate) fn queued_fork(&mut self) -> Option<Arc<ForkJob>> {
        let fork = self.pending.as_mut().filter(|fork| !fork.dispatched)?;
        fork.dispatched = true;
        Some(Arc::clone(&fork.job))
    }

    /// Attaches the owning shard's fork timers.
    pub(crate) fn set_fork_instruments(&mut self, instruments: ForkInstruments) {
        self.fork_instruments = instruments;
    }

    /// Closes the current service epoch: folds the previous restart's fork,
    /// labels this epoch's history and clears the epoch state.
    fn end_epoch(&mut self, end: EpochEnd, collect: bool) {
        self.fold();
        let mut history = std::mem::take(&mut self.history);
        self.label(end, &mut history, collect);
        history.clear();
        self.history = history;
        self.sim = None;
        self.epoch += 1;
        if let Some(acc) = &mut self.discovery {
            // A restart resets every resource; the next epoch's first row
            // must not contribute a growth delta against this epoch's last.
            acc.epoch_boundary();
        }
    }

    /// Labels one ended service epoch's prediction history retrospectively,
    /// folds the errors into the TTF-error accounting and queues
    /// crash-epoch training data when collecting.
    fn label(&mut self, end: EpochEnd, history: &mut History, collect: bool) {
        match end {
            EpochEnd::Crashed { crash_uptime } => {
                for (i, (&t, &pred)) in history.uptimes.iter().zip(&history.predictions).enumerate()
                {
                    let actual = (crash_uptime - t).clamp(0.0, TTF_CAP_SECS);
                    self.ttf_error_sum += (pred - actual).abs();
                    self.ttf_error_count += 1;
                    if collect {
                        let cp = LabelledCheckpoint {
                            features: std::mem::take(&mut history.rows[i]),
                            ttf_secs: actual,
                            predicted_ttf_secs: Some(pred),
                            predicted_generation: Some(history.generations[i]),
                            monitor_only: false,
                        };
                        if let Some(acc) = &mut self.discovery {
                            acc.observe(&cp);
                        }
                        self.outbox.push(cp);
                    }
                }
            }
            EpochEnd::Rejuvenated { fork_ttf, at_uptime, cap } => {
                // The frozen-rate fork gives the time to crash from the
                // restart instant, saturating at the counterfactual
                // horizon; earlier checkpoints sit `at_uptime - t` further
                // out. Errors are measured inside that window — both sides
                // clamped to the horizon — so "prediction and truth both
                // far from crashing" scores zero instead of penalising the
                // cap.
                for (&t, &pred) in history.uptimes.iter().zip(&history.predictions) {
                    let actual = (fork_ttf + (at_uptime - t).max(0.0)).min(cap);
                    let error = (pred.min(cap) - actual).abs();
                    self.ttf_error_sum += error;
                    self.ttf_error_count += 1;
                    // The signature accumulator is per instance, so it can
                    // afford what the fleet-wide bus cannot: every
                    // counterfactually labelled checkpoint of a proactive
                    // restart. Restart epochs dominate under a well-tuned
                    // policy — without them a healthy instance would never
                    // produce a signature.
                    if let Some(acc) = self.discovery.as_mut() {
                        acc.observe_error(error);
                    }
                }
                if let Some(acc) = self.discovery.as_mut() {
                    for row in &history.rows {
                        acc.observe_row(row);
                    }
                }
                // One monitor-only observation per proactive restart: the
                // prediction that *triggered* it, against the fork's
                // counterfactual crash time. This keeps drift detection
                // and self-tuning policies fed once adaptation has
                // (correctly) made crash epochs rare, without flooding
                // the analysis side with correlated within-epoch samples
                // — and the horizon-capped label never enters the
                // training buffer.
                if collect && !history.predictions.is_empty() {
                    let pred = *history.predictions.last().expect("non-empty");
                    // Not fed to the signature accumulator: the per-
                    // checkpoint loop above already observed this exact
                    // error (its last entry is the trigger checkpoint),
                    // and a duplicate would bias the signature's
                    // quantiles toward restart-trigger errors.
                    self.outbox.push(LabelledCheckpoint::monitor_observation(
                        fork_ttf.min(cap),
                        pred.min(cap),
                        history.generations.last().copied(),
                    ));
                }
            }
            EpochEnd::Unlabelled => {}
        }
    }

    /// This instance's slot in the run's model table.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// The instance's spec name.
    pub(crate) fn name(&self) -> &str {
        &self.spec.name
    }

    /// The class outgoing batches are tagged with (spec class, or the
    /// current discovered class).
    pub(crate) fn class_name(&self) -> &ServiceClass {
        &self.current_class
    }

    /// Retires the instance early — a churn plan's scripted retire or a
    /// simulated deprovisioning. The service epoch in flight (if any) is
    /// closed without labels: a deprovisioned process leaves no crash
    /// ground truth. Returns whether the call actually retired a live
    /// instance (`false` when it already aged out).
    pub(crate) fn force_retire(&mut self, fleet_epoch: u64) -> bool {
        if self.retired {
            return false;
        }
        self.end_epoch(EpochEnd::Unlabelled, false);
        self.retired = true;
        self.retired_epoch = Some(fleet_epoch);
        self.retired_forced = true;
        true
    }

    /// One-shot retirement announcement: `Some((epoch, forced))` the
    /// first time it is called after the instance retired, `None`
    /// thereafter. The scheduler sweeps this after every shard epoch to
    /// journal/trace each retirement exactly once.
    pub(crate) fn fresh_retirement(&mut self) -> Option<(u64, bool)> {
        if self.retired && !self.retirement_announced {
            self.retirement_announced = true;
            Some((self.retired_epoch.unwrap_or(0), self.retired_forced))
        } else {
            None
        }
    }

    /// Attaches a class-discovery signature accumulator and places the
    /// instance in the seed discovered class (run-discovered construction;
    /// the spec's operator class, if any, is deliberately ignored).
    pub(crate) fn enable_discovery(&mut self, acc: SignatureAccumulator, seed_class: ServiceClass) {
        self.discovery = Some(acc);
        self.current_class = seed_class;
    }

    /// Re-points the instance at a (possibly newly discovered) class and
    /// its table slot. Called at fleet-epoch boundaries only — the same
    /// pin discipline as the models, so one epoch's batch is never split
    /// across classes.
    pub(crate) fn set_class(&mut self, slot: usize, class: ServiceClass) {
        self.slot = slot;
        self.current_class = class;
    }

    /// Whether the instance has not retired yet.
    pub(crate) fn live(&self) -> bool {
        !self.retired
    }

    /// Whether a churn plan retired the instance early. It then leaves the
    /// live population discovery divides by; natural ageing does not.
    pub(crate) fn force_retired(&self) -> bool {
        self.retired_forced
    }

    /// The instance's aging-signature vector, when discovery is enabled
    /// and enough labelled errors have been observed. `None` once the
    /// instance is force-retired: it leaves discovery.
    pub(crate) fn signature(&mut self) -> Option<Vec<f64>> {
        if self.retired_forced {
            return None;
        }
        self.fold();
        self.discovery.as_ref().and_then(SignatureAccumulator::signature)
    }

    /// Drains labelled training checkpoints queued by completed crash
    /// epochs (empty unless the fleet runs adaptively), tagged with the
    /// instance's service class so the router trains the right model.
    pub(crate) fn take_labelled(&mut self) -> Option<CheckpointBatch> {
        self.fold();
        if self.outbox.is_empty() {
            return None;
        }
        Some(CheckpointBatch {
            source: self.spec.name.clone(),
            class: self.current_class.clone(),
            checkpoints: std::mem::take(&mut self.outbox),
        })
    }

    /// The instance's final accounting, shaped exactly like the
    /// single-instance `RejuvenationReport` plus fleet extras.
    pub(crate) fn report(&mut self) -> InstanceReport {
        self.fold();
        let horizon = self.elapsed.max(1.0);
        let mean_rps = if self.throughput_n > 0 {
            self.throughput_sum / self.throughput_n as f64
        } else {
            0.0
        };
        InstanceReport {
            name: self.spec.name.clone(),
            class: self.current_class.to_string(),
            policy: self.spec.policy.label(),
            horizon_secs: horizon,
            crashes: self.crashes,
            rejuvenations: self.rejuvenations,
            crashes_avoided: self.crashes_avoided,
            downtime_secs: self.downtime,
            availability: ((horizon - self.downtime) / horizon).clamp(0.0, 1.0),
            lost_requests: mean_rps * self.downtime,
            checkpoints: self.checkpoints,
            service_epochs: self.epochs_started,
            ttf_error_sum_secs: self.ttf_error_sum,
            ttf_error_count: self.ttf_error_count,
            joined_epoch: self.joined_epoch,
            retired_epoch: self.retired_epoch,
        }
    }
}
