//! The layer probe: a single-threaded re-implementation of one fleet
//! run's predictive-policy loop over the crates' public calls, with a
//! span around every call into a layer.
//!
//! It drives the same specs as the engine — `Simulator::new`/`step`,
//! `FeatureExtractor::push`, one `Regressor::predict_matrix` per epoch
//! over every pending row, and `Simulator::frozen_time_to_crash` on each
//! proactive restart — and reproduces the engine's accounting, so its
//! per-instance checkpoint, restart, crash and crashes-avoided counts
//! must equal the engine report's exactly. The spans attribute the
//! probe's wall time to layers; the engine itself carries no spans.

use aging_core::{clamp_ttf, RejuvenationPolicy};
use aging_fleet::{FleetConfig, FleetReport, InstanceSpec};
use aging_ml::{FeatureMatrix, Regressor};
use aging_monitor::{FeatureExtractor, FeatureSet};
use aging_testbed::{Simulator, StepOutcome};
use std::time::{Duration, Instant};

/// One instance's outcome counts, as the engine reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub checkpoints: u64,
    pub rejuvenations: u64,
    pub crashes: u64,
    pub crashes_avoided: u64,
}

/// Calls into each layer and the time spent inside them.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub step_calls: u64,
    pub step: Duration,
    pub new_calls: u64,
    pub new: Duration,
    pub fork_calls: u64,
    pub fork: Duration,
    /// Simulated seconds the forks replayed (each fork runs to its crash
    /// or to the counterfactual horizon).
    pub fork_sim_secs: f64,
    /// Forks that found a crash inside the horizon.
    pub fork_useful: u64,
    pub extract_calls: u64,
    pub extract: Duration,
    pub predict_calls: u64,
    pub predict_rows: u64,
    pub predict: Duration,
    /// Wall time of the whole probe.
    pub wall: Duration,
}

impl LayerTimes {
    /// Sum of every span over the probe's wall time.
    pub fn coverage(&self) -> f64 {
        let spans = self.step + self.new + self.fork + self.extract + self.predict;
        spans.as_secs_f64() / self.wall.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// The probe's result.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Per-instance counts, in spec order.
    pub counts: Vec<Counts>,
    /// Fleet epochs driven (the engine's epoch count).
    pub epochs: u64,
    pub layers: LayerTimes,
}

impl Probe {
    /// Compares an engine report against the probe: every instance's
    /// counts and the epoch count must match. Returns the mismatches.
    pub fn mismatches(&self, report: &FleetReport) -> Vec<String> {
        let mut out = Vec::new();
        if report.instances.len() != self.counts.len() {
            out.push(format!(
                "engine reported {} instances, probe drove {}",
                report.instances.len(),
                self.counts.len()
            ));
            return out;
        }
        if report.epochs != self.epochs {
            out.push(format!("engine ran {} epochs, probe {}", report.epochs, self.epochs));
        }
        for (inst, probe) in report.instances.iter().zip(&self.counts) {
            let engine = Counts {
                checkpoints: inst.checkpoints,
                rejuvenations: inst.rejuvenations,
                crashes: inst.crashes,
                crashes_avoided: inst.crashes_avoided,
            };
            if engine != *probe {
                out.push(format!("{}: engine {engine:?} vs probe {probe:?}", inst.name));
            }
        }
        out
    }
}

fn timed<T>(calls: &mut u64, total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *total += start.elapsed();
    *calls += 1;
    out
}

struct ProbeInstance<'a> {
    spec: &'a InstanceSpec,
    threshold_secs: f64,
    consecutive: usize,
    extractor: FeatureExtractor,
    sim: Option<Simulator>,
    epoch: u64,
    seen: usize,
    below: usize,
    pending_uptime: f64,
    elapsed: f64,
    retired: bool,
    counts: Counts,
}

enum Tick {
    Retired,
    Advanced,
    NeedsPrediction,
}

/// Runs the probe over `specs` under `config` with a frozen `model`.
///
/// # Errors
///
/// Only predictive policies without workload shifts are reproduced; any
/// other spec is an error.
pub fn run(
    specs: &[InstanceSpec],
    config: &FleetConfig,
    model: &dyn Regressor,
    features: &FeatureSet,
) -> Result<Probe, String> {
    let indices = features.catalogue_indices();
    let mut instances = Vec::with_capacity(specs.len());
    for spec in specs {
        let RejuvenationPolicy::Predictive { threshold_secs, consecutive } = spec.policy else {
            return Err(format!("{}: the probe only reproduces predictive policies", spec.name));
        };
        if spec.shift.is_some() {
            return Err(format!("{}: the probe does not reproduce workload shifts", spec.name));
        }
        instances.push(ProbeInstance {
            spec,
            threshold_secs,
            consecutive,
            extractor: FeatureExtractor::new(features.window()),
            sim: None,
            epoch: 0,
            seen: 0,
            below: 0,
            pending_uptime: 0.0,
            elapsed: 0.0,
            retired: false,
            counts: Counts::default(),
        });
    }

    let mut t = LayerTimes::default();
    let mut matrix = FeatureMatrix::with_capacity(indices.len(), instances.len());
    let mut pending: Vec<usize> = Vec::with_capacity(instances.len());
    let mut epochs = 0u64;
    let started = Instant::now();
    loop {
        matrix.clear();
        pending.clear();
        let mut live = 0usize;
        for (slot, inst) in instances.iter_mut().enumerate() {
            match inst.advance(config, &indices, &mut matrix, &mut t) {
                Tick::Retired => {}
                Tick::Advanced => live += 1,
                Tick::NeedsPrediction => {
                    live += 1;
                    pending.push(slot);
                }
            }
        }
        if !matrix.is_empty() {
            t.predict_rows += matrix.n_rows() as u64;
            let predictions =
                timed(&mut t.predict_calls, &mut t.predict, || model.predict_matrix(&matrix));
            for (&slot, &prediction) in pending.iter().zip(&predictions) {
                instances[slot].apply_prediction(prediction, config, &mut t);
            }
        }
        epochs += 1;
        if live == 0 {
            break;
        }
    }
    t.wall = started.elapsed();
    Ok(Probe { counts: instances.iter().map(|i| i.counts).collect(), epochs, layers: t })
}

impl ProbeInstance<'_> {
    fn advance(
        &mut self,
        config: &FleetConfig,
        indices: &[usize],
        matrix: &mut FeatureMatrix,
        t: &mut LayerTimes,
    ) -> Tick {
        if self.retired {
            return Tick::Retired;
        }
        let horizon = config.rejuvenation.horizon_secs;
        if self.sim.is_none() {
            if self.elapsed >= horizon {
                self.retired = true;
                return Tick::Retired;
            }
            let seed = self.spec.seed.wrapping_add(self.epoch);
            let scenario = &self.spec.scenario;
            self.sim = Some(timed(&mut t.new_calls, &mut t.new, || Simulator::new(scenario, seed)));
            self.extractor.reset();
            self.seen = 0;
            self.below = 0;
        }
        let sim = self.sim.as_mut().expect("simulator created above");
        match timed(&mut t.step_calls, &mut t.step, || sim.step()) {
            StepOutcome::Checkpoint(sample) => {
                self.seen += 1;
                self.counts.checkpoints += 1;
                let uptime = sample.time_secs;
                if self.elapsed + uptime >= horizon {
                    self.elapsed += uptime;
                    self.retired = true;
                    self.end_epoch();
                    return Tick::Retired;
                }
                let extractor = &mut self.extractor;
                let full = timed(&mut t.extract_calls, &mut t.extract, || extractor.push(&sample));
                if self.seen <= config.rejuvenation.warmup_checkpoints {
                    return Tick::Advanced;
                }
                self.pending_uptime = uptime;
                matrix.push_row_with(|buf| buf.extend(indices.iter().map(|&i| full[i])));
                Tick::NeedsPrediction
            }
            StepOutcome::Crashed(crash) => {
                self.counts.crashes += 1;
                self.elapsed += crash.time_secs + config.rejuvenation.crash_downtime_secs;
                self.end_epoch();
                Tick::Advanced
            }
            StepOutcome::Finished => {
                let uptime = sim.time_ms() as f64 / 1000.0;
                self.elapsed += uptime.max(1.0);
                self.end_epoch();
                Tick::Advanced
            }
        }
    }

    fn apply_prediction(&mut self, raw: f64, config: &FleetConfig, t: &mut LayerTimes) {
        if clamp_ttf(raw) < self.threshold_secs {
            self.below += 1;
            if self.below >= self.consecutive {
                self.rejuvenate(config, t);
            }
        } else {
            self.below = 0;
        }
    }

    fn rejuvenate(&mut self, config: &FleetConfig, t: &mut LayerTimes) {
        let horizon = config.counterfactual_horizon_secs;
        if horizon > 0.0 {
            let sim = self.sim.as_ref().expect("rejuvenation happens mid-epoch");
            let ttf = timed(&mut t.fork_calls, &mut t.fork, || sim.frozen_time_to_crash(horizon));
            t.fork_sim_secs += ttf;
            if ttf < horizon {
                self.counts.crashes_avoided += 1;
                t.fork_useful += 1;
            }
        }
        self.counts.rejuvenations += 1;
        self.elapsed += self.pending_uptime + config.rejuvenation.rejuvenation_downtime_secs;
        self.end_epoch();
    }

    fn end_epoch(&mut self) {
        self.sim = None;
        self.epoch += 1;
    }
}
