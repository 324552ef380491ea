//! The two fleet workloads: a frozen shared M5P model driving a fleet
//! through `Fleet::run` on one shard.
//!
//! - `fleet-mixed`: 64 instances cycling through four (emulated browsers,
//!   leak N) classes, counterfactual forks on.
//! - `fleet-uniform`: 128 instances of one 100-EB, N=15 class,
//!   counterfactual forks off: simulator advance, feature extraction and
//!   inference only.
//!
//! One shard keeps the engine on one worker thread. On a host of two
//! shared vCPUs, two lock-step shards time the host instead of the
//! program: a run's wall swung between the one-shard and the two-shard
//! figure from minute to minute, while one shard stayed within ±8 %.
//!
//! Timed runs repeat `Fleet::run` on the same inputs until the run's time
//! is used up; every run must reproduce the probe's reference counts.

use crate::metrics::{self, Outcome};
use crate::probe;
use crate::stats;
use aging_core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use aging_dataset::Dataset;
use aging_fleet::{Fleet, FleetConfig, FleetReport, InstanceSpec};
use aging_ml::m5p::M5pLearner;
use aging_ml::{DynLearner, FeatureMatrix, Regressor};
use aging_monitor::{build_dataset, FeatureSet, TTF_CAP_SECS};
use aging_obs::Registry;
use aging_testbed::{MemLeakSpec, RunTrace, Scenario};
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Mixed,
    Uniform,
}

/// The (emulated browsers, leak N) classes `fleet-mixed` cycles through.
pub const MIXED_CLASSES: [(u64, u32); 4] = [(50, 15), (100, 15), (150, 30), (200, 30)];
/// The single class of `fleet-uniform`.
pub const UNIFORM_CLASS: (u64, u32) = (100, 15);

/// Fleet size and horizon; the workloads use [`Sizing::workload`], tests
/// shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub instances: usize,
    pub hours: f64,
    pub shards: usize,
}

impl Sizing {
    pub fn workload(shape: Shape) -> Self {
        let instances = match shape {
            Shape::Mixed => 64,
            Shape::Uniform => 128,
        };
        Sizing { instances, hours: 3.0, shards: 1 }
    }
}

/// A run-to-crash TPC-W scenario leaking through the search servlet.
pub fn leaky(name: impl Into<String>, ebs: u64, n: u32) -> Scenario {
    Scenario::builder(name)
        .emulated_browsers(ebs)
        .memory_leak(MemLeakSpec::new(n))
        .run_to_crash()
        .build()
}

/// SplitMix64: derives independent sub-seeds from the benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a fleet workload hands the program, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub specs: Vec<InstanceSpec>,
    pub config: FleetConfig,
    /// Scenarios the shared model is trained on (one per class).
    pub training: Vec<Scenario>,
    pub train_seed: u64,
}

/// Generates a workload's inputs from `seed`.
pub fn inputs(shape: Shape, sizing: Sizing, seed: u64) -> Inputs {
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let classes: &[(u64, u32)] = match shape {
        Shape::Mixed => &MIXED_CLASSES,
        Shape::Uniform => std::slice::from_ref(&UNIFORM_CLASS),
    };
    let base = mix(seed, 1) >> 16;
    let specs = (0..sizing.instances)
        .map(|i| {
            let group = i % classes.len();
            let (ebs, n) = classes[group];
            let class = format!("svc-{ebs}eb-n{n}");
            let seed = base.wrapping_add((group as u64) * 1_000_000 + i as u64);
            InstanceSpec::new(format!("{class}-{i:03}"), leaky(class, ebs, n), policy, seed)
        })
        .collect();
    let config = FleetConfig {
        shards: sizing.shards,
        rejuvenation: RejuvenationConfig {
            horizon_secs: sizing.hours * 3600.0,
            ..Default::default()
        },
        counterfactual_horizon_secs: match shape {
            Shape::Mixed => 3600.0,
            Shape::Uniform => 0.0,
        },
    };
    // One shared model trained across the workload range the fleet sees
    // (the four mixed classes for both shapes).
    let training = MIXED_CLASSES
        .iter()
        .map(|&(ebs, n)| leaky(format!("train-{ebs}eb-n{n}"), ebs, n))
        .collect();
    Inputs { specs, config, training, train_seed: mix(seed, 2) >> 16 }
}

/// A frozen model that notes when each shard thread asks it for a batch:
/// the interval between one shard's successive batched decisions is the
/// time that shard takes for one checkpoint round. One clock read per
/// shard per epoch; predictions pass through unchanged.
#[derive(Debug)]
struct RoundClock<'a> {
    inner: &'a dyn Regressor,
    calls: Mutex<Vec<(ThreadId, Instant)>>,
}

impl Regressor for RoundClock<'_> {
    fn predict(&self, x: &[f64]) -> f64 {
        self.inner.predict(x)
    }

    fn predict_matrix(&self, matrix: &FeatureMatrix) -> Vec<f64> {
        let now = Instant::now();
        self.calls.lock().expect("round clock poisoned").push((std::thread::current().id(), now));
        self.inner.predict_matrix(matrix)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl RoundClock<'_> {
    /// Intervals between successive calls of the same thread, in ms.
    fn round_ms(&self) -> Vec<f64> {
        // Calls are recorded in time order, so each thread's previous call
        // is the last one seen for it.
        let mut last: HashMap<ThreadId, Instant> = HashMap::new();
        let calls = self.calls.lock().expect("round clock poisoned");
        calls
            .iter()
            .filter_map(|&(thread, at)| {
                last.insert(thread, at).map(|prev| (at - prev).as_secs_f64() * 1e3)
            })
            .collect()
    }
}

/// The dataset `AgingPredictor::train` fits for `training` under `seed`:
/// scenario `i` runs under `seed + i`, every checkpoint labelled with its
/// time to failure.
pub fn training_dataset(training: &[Scenario], seed: u64) -> Dataset {
    let traces: Vec<RunTrace> =
        training.iter().enumerate().map(|(i, s)| s.run(seed.wrapping_add(i as u64))).collect();
    let refs: Vec<&RunTrace> = traces.iter().collect();
    build_dataset(&refs, &FeatureSet::exp42(), TTF_CAP_SECS)
}

/// The program's set-up for a fleet workload: train the shared model and
/// assemble the fleet.
fn setup(inputs: &Inputs) -> Result<(AgingPredictor, Fleet), String> {
    let predictor = AgingPredictor::train(&inputs.training, FeatureSet::exp42(), inputs.train_seed)
        .map_err(|e| format!("training the shared model failed: {e}"))?;
    let fleet = Fleet::new(inputs.specs.clone(), inputs.config)
        .map_err(|e| format!("assembling the fleet failed: {e}"))?;
    Ok((predictor, fleet))
}

/// Conservation checks every fleet report must pass.
pub fn conservation(report: &FleetReport) -> Vec<String> {
    let mut out = Vec::new();
    let sum: u64 = report.instances.iter().map(|i| i.checkpoints).sum();
    if sum != report.checkpoints {
        out.push(format!("checkpoints {} != per-instance sum {sum}", report.checkpoints));
    }
    if report.crashes_avoided > report.rejuvenations {
        out.push(format!(
            "crashes avoided {} > rejuvenations {}",
            report.crashes_avoided, report.rejuvenations
        ));
    }
    if !(0.0..=1.0).contains(&report.availability) {
        out.push(format!("availability {} outside [0, 1]", report.availability));
    }
    for inst in &report.instances {
        if inst.crashes_avoided > inst.rejuvenations || !(0.0..=1.0).contains(&inst.availability) {
            out.push(format!("{}: inconsistent instance report {inst:?}", inst.name));
        }
    }
    if report.checkpoints == 0 {
        out.push("the fleet consumed no checkpoints".into());
    }
    out
}

/// Runs a fleet workload for `seconds` and reports its metrics.
pub fn run(shape: Shape, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(shape, Sizing::workload(shape), seed);
    let result =
        if trace { traced(&inputs, seconds, &mut out) } else { timed(&inputs, seconds, &mut out) };
    if let Err(e) = result {
        out.problem(e);
    }
    out
}

/// Set-up repetitions per run (at least); `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// Times one set-up and returns the trained predictor.
fn timed_setup(inputs: &Inputs, setups: &mut Vec<f64>) -> Result<AgingPredictor, String> {
    let start = Instant::now();
    let (predictor, fleet) = setup(inputs)?;
    setups.push(start.elapsed().as_secs_f64());
    drop(fleet);
    Ok(predictor)
}

fn timed(inputs: &Inputs, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    // Set-up is short next to the machine's slow swings in speed, so its
    // repetitions are spread over the run: one before the first timed run
    // and one after each, topped up at the end.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let predictor = timed_setup(inputs, &mut setups)?;
    let features = predictor.features().clone();

    let clock = RoundClock { inner: predictor.model(), calls: Mutex::new(Vec::new()) };
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut reports: Vec<FleetReport> = Vec::new();
    let window = Instant::now();
    // Whole runs only: start another while it is expected to finish
    // inside the window (the first always runs).
    while reports.is_empty()
        || window.elapsed().as_secs_f64() + stats::median(&walls).unwrap_or(0.0) <= seconds
    {
        let fleet = Fleet::new(inputs.specs.clone(), inputs.config)
            .map_err(|e| format!("assembling the fleet failed: {e}"))?;
        let start = Instant::now();
        let report = fleet.run(&clock, &features);
        let wall = start.elapsed().as_secs_f64();
        walls.push(wall);
        rates.push(report.checkpoints as f64 / wall);
        reports.push(report);
        if reports.len() == 1 {
            // Set-up plus one whole run: later runs repeat the same work,
            // and only the benchmark's own records would grow with them.
            out.set("peak_rss_mb", metrics::peak_rss_mb().unwrap_or(f64::NAN));
        }
        timed_setup(inputs, &mut setups)?;
    }
    while setups.len() < SETUP_REPEATS {
        timed_setup(inputs, &mut setups)?;
    }
    out.set("setup_s", stats::median(&setups).expect("set-up timed"));

    let reference = probe::run(&inputs.specs, &inputs.config, predictor.model(), &features)?;
    out.attempted = reports.len() as u64;
    for (i, report) in reports.iter().enumerate() {
        let mut problems = conservation(report);
        problems.extend(reference.mismatches(report));
        if report != &reports[0] {
            problems.push("outcome differs from the first timed run".into());
        }
        if !problems.is_empty() {
            out.failed += 1;
            for p in problems.into_iter().take(5) {
                out.problem(format!("timed run {i}: {p}"));
            }
        }
    }
    let first = &reports[0];
    out.set("checkpoints_per_s", stats::median(&rates).expect("runs timed"));
    let rounds = clock.round_ms();
    match (stats::percentile(&rounds, 0.5), stats::percentile(&rounds, 0.9)) {
        (Some(p50), Some(p90)) => {
            out.set("latency_p50_ms", p50);
            out.set("latency_p90_ms", p90);
        }
        _ => out.problem(format!("{} checkpoint rounds are too few for p90", rounds.len())),
    }
    out.set("availability", first.availability);
    out.note(format!(
        "{} timed runs of {} instances x {} checkpoints (wall {:.3}-{:.3} s); checkpoint \
         rounds: {}; rejuvenations {} crashes {} avoided {}; mean TTF error {} s over {} labels",
        reports.len(),
        first.instances.len(),
        first.checkpoints,
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        stats::sample_note(rounds.len()),
        first.rejuvenations,
        first.crashes,
        first.crashes_avoided,
        first.mean_ttf_error_secs,
        first.ttf_error_count
    ));
    out.note(format!("run walls (s): {:.3?}", walls));
    Ok(())
}

/// The traced run: the layer probe, then untraced and telemetered engine
/// runs of the same workload for the rest of `seconds`.
fn traced(inputs: &Inputs, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    // Set-up through its parts, so the model fit can be timed on its own.
    let features = FeatureSet::exp42();
    let dataset = training_dataset(&inputs.training, inputs.train_seed);
    let learner = M5pLearner::paper_default();
    let fit_start = Instant::now();
    let _ = DynLearner::fit_dyn(&learner, &dataset).map_err(|e| format!("fit failed: {e}"))?;
    let fit_s = fit_start.elapsed().as_secs_f64();
    let predictor = AgingPredictor::train(&inputs.training, features.clone(), inputs.train_seed)
        .map_err(|e| format!("training the shared model failed: {e}"))?;

    let probe = probe::run(&inputs.specs, &inputs.config, predictor.model(), &features)?;
    if probe.layers.coverage() < PROBE_COVERAGE_MIN {
        out.problem(format!(
            "probe spans cover {:.4} of its wall time, below {PROBE_COVERAGE_MIN}",
            probe.layers.coverage()
        ));
    }

    // Untraced and telemetered engine runs in alternating pairs (the
    // order flips every pair) for the rest of the run's time; the
    // overhead is the ratio of their median walls.
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut telemetered: Option<FleetReport> = None;
    let window = Instant::now();
    while untraced_walls.is_empty()
        || window.elapsed().as_secs_f64()
            + stats::median(&untraced_walls).unwrap_or(0.0)
            + stats::median(&traced_walls).unwrap_or(0.0)
            <= seconds
    {
        let order = if untraced_walls.len() % 2 == 0 { [false, true] } else { [true, false] };
        for with_telemetry in order {
            let mut fleet = Fleet::new(inputs.specs.clone(), inputs.config)
                .map_err(|e| format!("assembling the fleet failed: {e}"))?;
            if with_telemetry {
                fleet = fleet.with_telemetry(Registry::shared());
            }
            let start = Instant::now();
            let report = fleet.run(predictor.model(), &features);
            let wall = start.elapsed().as_secs_f64();
            let mut problems = conservation(&report);
            problems.extend(probe.mismatches(&report));
            out.attempted += 1;
            if !problems.is_empty() {
                out.failed += 1;
                for p in problems.into_iter().take(5) {
                    out.problem(format!("engine run (telemetry {with_telemetry}): {p}"));
                }
            }
            if with_telemetry {
                traced_walls.push(wall);
                telemetered.get_or_insert(report);
            } else {
                untraced_walls.push(wall);
            }
        }
    }
    let traced = telemetered.expect("at least one telemetered run");
    let untraced_wall = stats::median(&untraced_walls).expect("untraced runs");
    let traced_wall = stats::median(&traced_walls).expect("telemetered runs");

    let l = &probe.layers;
    out.set("testbed.step_calls", l.step_calls as f64);
    out.set("testbed.step_s", l.step.as_secs_f64());
    out.set("testbed.new_calls", l.new_calls as f64);
    out.set("testbed.new_s", l.new.as_secs_f64());
    out.set("testbed.fork_calls", l.fork_calls as f64);
    out.set("testbed.fork_s", l.fork.as_secs_f64());
    out.set("testbed.fork_sim_s", l.fork_sim_secs);
    out.set(
        "testbed.fork_useful_ratio",
        if l.fork_calls > 0 { l.fork_useful as f64 / l.fork_calls as f64 } else { 0.0 },
    );
    out.set("monitor.extract_calls", l.extract_calls as f64);
    out.set("monitor.extract_s", l.extract.as_secs_f64());
    out.set("ml.predict_calls", l.predict_calls as f64);
    out.set("ml.predict_rows", l.predict_rows as f64);
    out.set("ml.predict_s", l.predict.as_secs_f64());
    out.set("ml.fit_calls", 1.0);
    out.set("ml.fit_rows", dataset.len() as f64);
    out.set("ml.fit_s", fit_s);
    out.set("ml.mean_ttf_error_s", traced.mean_ttf_error_secs);
    out.set("bench.probe_coverage", l.coverage());

    let telemetry = traced.telemetry.as_ref().ok_or("telemetry snapshot missing")?;
    let total =
        |name: &str| -> f64 { telemetry.histogram_series(name).iter().map(|h| h.sum).sum() };
    out.set("fleet.epochs", telemetry.counter("fleet_epochs_total", None).unwrap_or(0) as f64);
    out.set("fleet.advance_s", total("fleet_epoch_advance_seconds"));
    out.set("fleet.predict_s", total("fleet_epoch_predict_seconds"));
    out.set("fleet.publish_s", total("fleet_epoch_publish_seconds"));
    out.set("obs.trace_overhead_ratio", traced_wall / untraced_wall);
    for name in [
        "adapt.publish_calls",
        "adapt.publish_s",
        "adapt.ingested",
        "adapt.shed",
        "adapt.ingest_batch_s",
        "adapt.refits",
        "adapt.refit_s",
        "adapt.swap_latency_s",
        "adapt.generations",
        "adapt.generations_per_trigger",
        "adapt.latency_samples",
        "journal.appends",
        "journal.fsyncs",
        "journal.bytes",
        "bench.generator_lag_max_ms",
    ] {
        out.set(name, 0.0);
    }

    let probe_wall = l.wall.as_secs_f64();
    let share = |d: Duration| d.as_secs_f64() / probe_wall;
    out.note(format!(
        "probe: wall {probe_wall:.3} s, {} epochs; simulator step {:.1} %, simulator new {:.1} %, \
         fork {:.1} %, extract {:.1} %, predict {:.2} %, uncovered {:.2} %",
        probe.epochs,
        100.0 * share(l.step),
        100.0 * share(l.new),
        100.0 * share(l.fork),
        100.0 * share(l.extract),
        100.0 * share(l.predict),
        100.0 * (1.0 - l.coverage())
    ));
    out.note(format!(
        "engine: median untraced wall {untraced_wall:.3} s over {} runs, telemetered {traced_wall:.3} \
         s over {}",
        untraced_walls.len(),
        traced_walls.len()
    ));
    Ok(())
}

/// The probe's spans must account for at least this share of its wall
/// time, or its layer split is not trustworthy.
pub const PROBE_COVERAGE_MIN: f64 = 0.95;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(shape: Shape, seed: u64) -> Inputs {
        inputs(shape, Sizing { instances: 6, hours: 1.5, shards: 2 }, seed)
    }

    /// The probe reproduces the engine's per-instance counts exactly, for
    /// both fleet shapes and more than one seed.
    #[test]
    fn probe_matches_engine_on_tiny_fleets() {
        for shape in [Shape::Mixed, Shape::Uniform] {
            for seed in [1, 2] {
                let inputs = tiny(shape, seed);
                let (predictor, fleet) = setup(&inputs).expect("set-up");
                let report = fleet.run(predictor.model(), predictor.features());
                let probe = probe::run(
                    &inputs.specs,
                    &inputs.config,
                    predictor.model(),
                    predictor.features(),
                )
                .expect("probe");
                assert_eq!(
                    probe.mismatches(&report),
                    Vec::<String>::new(),
                    "{shape:?} seed {seed}"
                );
                assert!(conservation(&report).is_empty(), "{shape:?} seed {seed}");
                assert!(report.checkpoints > 0);
                if shape == Shape::Uniform {
                    assert_eq!(probe.layers.fork_calls, 0, "no forks with the counterfactual off");
                }
                assert_eq!(
                    probe.layers.fork_calls,
                    report.rejuvenations * u64::from(shape == Shape::Mixed)
                );
            }
        }
    }

    /// The checkpoint-round clock passes predictions through unchanged, so
    /// a clocked run reports the same outcome as a plain one.
    #[test]
    fn round_clock_does_not_change_the_outcome() {
        let inputs = tiny(Shape::Mixed, 3);
        let (predictor, fleet) = setup(&inputs).expect("set-up");
        let plain = fleet.run(predictor.model(), predictor.features());
        let clock = RoundClock { inner: predictor.model(), calls: Mutex::new(Vec::new()) };
        let clocked = Fleet::new(inputs.specs.clone(), inputs.config)
            .expect("fleet")
            .run(&clock, predictor.features());
        assert_eq!(plain, clocked);
        assert!(!clock.round_ms().is_empty());
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let a = inputs(Shape::Mixed, Sizing::workload(Shape::Mixed), 7);
        let b = inputs(Shape::Mixed, Sizing::workload(Shape::Mixed), 7);
        let c = inputs(Shape::Mixed, Sizing::workload(Shape::Mixed), 8);
        assert_eq!(a.specs, b.specs);
        assert_eq!(a.train_seed, b.train_seed);
        assert_ne!(a.specs, c.specs);
        assert_eq!(a.specs.len(), 64);
        let uniform = inputs(Shape::Uniform, Sizing::workload(Shape::Uniform), 7);
        assert_eq!(uniform.specs.len(), 128);
        assert_eq!(uniform.config.counterfactual_horizon_secs, 0.0);
    }
}
