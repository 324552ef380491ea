//! The `adapt-stream` workload: an open-loop generator publishing
//! labelled checkpoint batches to an `AdaptiveRouter` at a fixed rate.
//!
//! Rows are exp42 feature rows of simulated run-to-crash executions,
//! labelled with their exact time to failure; the predicted TTF each row
//! carries comes from the initial model. The router runs the M5P learner
//! with drift detection off, a periodic retrain every 512 rows, a
//! 2048-row sliding buffer and a journal. Between sends the generator
//! polls the class's model service; a retrain's latency runs from the due
//! time of the batch that completed its 512-row quota to the poll that
//! first sees the new generation.

use crate::fleet::{leaky, mix, training_dataset, MIXED_CLASSES};
use crate::metrics::{self, Outcome};
use crate::stats::{self, OpenLoop};
use aging_adapt::{
    AdaptConfig, AdaptiveRouter, CheckpointBatch, ClassSpec, DriftConfig, LabelledCheckpoint,
    ModelService, RouterConfig, ServiceClass,
};
use aging_core::AgingPredictor;
use aging_dataset::Dataset;
use aging_journal::Journal;
use aging_ml::m5p::M5pLearner;
use aging_ml::{DynLearner, FeatureMatrix, Regressor};
use aging_monitor::{label_ttf, FeatureExtractor, FeatureSet, TTF_CAP_SECS};
use aging_obs::Registry;
use aging_testbed::{RunTrace, Scenario};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches the generator publishes per second.
pub const RATE_PER_SEC: f64 = 200.0;
/// Labelled checkpoints per batch.
pub const ROWS_PER_BATCH: usize = 16;
/// The router's periodic retrain quota, in rows.
pub const RETRAIN_EVERY: usize = 512;
/// The router's sliding training buffer, in rows.
pub const BUFFER_ROWS: usize = 2048;
/// Distinct executions the stream's rows come from.
const STREAM_EXECUTIONS: usize = 96;
/// Further executions whose rows score the final model.
const HOLDOUT_EXECUTIONS: usize = 8;
/// Poll interval of the generator while it waits for the next due time.
const POLL: Duration = Duration::from_micros(500);
/// A send later than this after its due time counts as late.
const LATE_SLACK: Duration = Duration::from_millis(2);
/// Set-ups timed before the stream, and again after it; `setup_s` is the
/// median of all of them.
const SETUP_REPEATS: usize = 11;

/// One labelled row: features and exact TTF.
type Row = (Vec<f64>, f64);

/// The rows of one crash execution, or `None` if it did not crash.
fn execution_rows(scenario: &Scenario, seed: u64, features: &FeatureSet) -> Option<Vec<Row>> {
    let trace: RunTrace = scenario.run(seed);
    trace.crash?;
    let labels = label_ttf(&trace, TTF_CAP_SECS);
    let mut extractor = FeatureExtractor::new(features.window());
    Some(
        trace
            .samples
            .iter()
            .zip(labels)
            .map(|(sample, ttf)| (features.project(&extractor.push(sample)), ttf))
            .collect(),
    )
}

/// Rows of `count` crash executions cycling through the mixed classes,
/// seeded from `seed` and `stream`.
fn executions(count: usize, seed: u64, stream: u64, features: &FeatureSet) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut found = 0;
    let mut attempt = 0u64;
    while found < count && attempt < 4 * count as u64 {
        let (ebs, n) = MIXED_CLASSES[attempt as usize % MIXED_CLASSES.len()];
        let scenario = leaky(format!("stream-{ebs}eb-n{n}"), ebs, n);
        if let Some(r) = execution_rows(&scenario, mix(seed, stream + attempt), features) {
            rows.extend(r);
            found += 1;
        }
        attempt += 1;
    }
    rows
}

/// Everything the workload hands the program, generated from the seed.
pub struct Inputs {
    /// Rows streamed, in order (recycled if the stream outlasts them).
    pub stream: Vec<Row>,
    /// Rows of executions never streamed, for scoring the final model.
    pub holdout: Vec<Row>,
    /// Scenarios the initial model is trained on.
    pub training: Vec<Scenario>,
    pub train_seed: u64,
}

pub fn inputs(seed: u64, stream_executions: usize, holdout_executions: usize) -> Inputs {
    let features = FeatureSet::exp42();
    let training = MIXED_CLASSES
        .iter()
        .map(|&(ebs, n)| leaky(format!("train-{ebs}eb-n{n}"), ebs, n))
        .collect();
    Inputs {
        stream: executions(stream_executions, seed, 1_000, &features),
        holdout: executions(holdout_executions, seed, 1_000_000, &features),
        training,
        train_seed: mix(seed, 3) >> 16,
    }
}

/// Builds the batches the generator sends: `n_batches` of
/// [`ROWS_PER_BATCH`] rows, each carrying the initial model's prediction.
fn batches(inputs: &Inputs, initial: &dyn Regressor, n_batches: usize) -> Vec<CheckpointBatch> {
    let mut matrix = FeatureMatrix::with_capacity(
        inputs.stream.first().map_or(0, |(f, _)| f.len()),
        inputs.stream.len(),
    );
    for (features, _) in &inputs.stream {
        matrix.push_row(features);
    }
    let predicted = initial.predict_matrix(&matrix);
    let mut rows = inputs.stream.iter().zip(&predicted).cycle();
    (0..n_batches)
        .map(|_| CheckpointBatch {
            source: "generator".to_string(),
            class: ServiceClass::default(),
            checkpoints: (&mut rows)
                .take(ROWS_PER_BATCH)
                .map(|((features, ttf), &pred)| {
                    LabelledCheckpoint::new(features.clone(), *ttf, Some(pred))
                })
                .collect(),
        })
        .collect()
}

/// Reconstructs each generation's start — the due time of the batch that
/// completed its retrain quota — and returns its latency to `seen`.
///
/// The router counts quota rows from the batch that enqueued the previous
/// refit, and defers a due refit while the previous one is still fitting
/// (at most one in flight per class): generation `g + 1`'s refit is
/// enqueued by the first batch at or after its quota batch that was sent
/// once generation `g` was visible. Times are seconds from the stream's
/// start; `due[k]` and `sent[k]` are batch `k`'s due and send times,
/// `seen[g]` when generation `g + 1` was first seen.
pub fn generation_latencies(due: &[f64], sent: &[f64], seen: &[f64]) -> Vec<f64> {
    let per_quota = RETRAIN_EVERY.div_ceil(ROWS_PER_BATCH);
    let mut out = Vec::with_capacity(seen.len());
    let mut quota_batch = per_quota - 1;
    let mut previous_seen = f64::NEG_INFINITY;
    for &seen_at in seen {
        if quota_batch >= sent.len() {
            break;
        }
        let Some(enqueued) = (quota_batch..sent.len()).find(|&k| sent[k] >= previous_seen) else {
            break;
        };
        out.push(seen_at - due[quota_batch]);
        previous_seen = seen_at;
        quota_batch = enqueued + per_quota;
    }
    out
}

/// Quotas completed by `n_batches` batches when every refit is enqueued
/// on time — the retrains the stream triggers.
pub fn quotas(n_batches: usize) -> u64 {
    (n_batches * ROWS_PER_BATCH / RETRAIN_EVERY) as u64
}

/// The program's set-up: initial model, journal, router.
struct System {
    router: AdaptiveRouter,
    journal: Arc<Journal>,
    journal_dir: PathBuf,
    initial: Arc<dyn Regressor>,
}

fn setup(inputs: &Inputs, dir: &Path, registry: Option<Arc<Registry>>) -> Result<System, String> {
    let features = FeatureSet::exp42();
    let predictor = AgingPredictor::train(&inputs.training, features.clone(), inputs.train_seed)
        .map_err(|e| format!("training the initial model failed: {e}"))?;
    let initial: Arc<dyn Regressor> = Arc::new(predictor.model().clone());
    let journal = Arc::new(
        Journal::open(dir).map_err(|e| format!("opening the journal at {dir:?} failed: {e}"))?,
    );
    let config = AdaptConfig::builder()
        .drift(DriftConfig { enabled: false, ..DriftConfig::default() })
        .buffer_capacity(BUFFER_ROWS)
        .retrain_every(RETRAIN_EVERY)
        .build();
    let learner: Arc<dyn DynLearner> = Arc::new(M5pLearner::paper_default());
    let spec = ClassSpec::builder(learner, Arc::clone(&initial)).config(config).build();
    // One class has at most one refit in flight, so one retrainer thread.
    let mut builder = AdaptiveRouter::builder(features.variables().to_vec())
        .class(ServiceClass::default(), spec)
        .config(RouterConfig::builder().retrainer_threads(1).build())
        .journal(Arc::clone(&journal));
    if let Some(registry) = registry {
        builder = builder.telemetry(registry);
    }
    Ok(System { router: builder.spawn(), journal, journal_dir: dir.to_path_buf(), initial })
}

/// What one stream measured.
struct Stream {
    latencies_ms: Vec<f64>,
    /// Seconds from the first due time until the router had settled.
    wall: f64,
    /// Share of `wall` with no completed quota waiting for its generation.
    fresh_share: f64,
    schedule: OpenLoop,
    publish: Duration,
    published_rows: u64,
    quiesced: bool,
    final_model: Arc<dyn Regressor>,
}

/// Sends `batches` on the open-loop schedule and follows the generations.
fn stream(system: &System, batches: Vec<CheckpointBatch>) -> Result<Stream, String> {
    let class = ServiceClass::default();
    let service: Arc<ModelService> =
        system.router.model_service(&class).ok_or("the router lost its class")?;
    let bus = system.router.bus();
    let mut pin = service.snapshot();
    let n = batches.len();
    let mut seen: Vec<f64> = Vec::new();
    let mut sent: Vec<f64> = Vec::with_capacity(n);
    let mut published_rows = 0u64;
    let mut publish = Duration::ZERO;
    let mut schedule = OpenLoop::new(Instant::now() + Duration::from_millis(5), RATE_PER_SEC);
    let start = schedule.start();
    let secs = |at: Instant| at.saturating_duration_since(start).as_secs_f64();
    let poll = |pin: &mut aging_adapt::ModelSnapshot, seen: &mut Vec<f64>| {
        let before = pin.generation;
        if service.refresh(pin) {
            let at = secs(Instant::now());
            seen.extend((before..pin.generation).map(|_| at));
        }
    };
    for (k, batch) in batches.into_iter().enumerate() {
        let due = schedule.due(k as u64);
        loop {
            poll(&mut pin, &mut seen);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(POLL));
        }
        let rows = batch.checkpoints.len() as u64;
        let sent_at = Instant::now();
        let accepted = bus.publish(batch);
        publish += sent_at.elapsed();
        if !accepted {
            return Err("the router's bus disconnected mid-stream".into());
        }
        published_rows += rows;
        sent.push(secs(sent_at));
        schedule.record_send(k as u64, sent_at, LATE_SLACK);
    }
    // Keep following generations until the router has settled, or give up.
    let deadline = Instant::now() + Duration::from_secs(30);
    let quiesced = loop {
        poll(&mut pin, &mut seen);
        if system.router.quiesce(Duration::ZERO) {
            poll(&mut pin, &mut seen);
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(POLL);
    };
    let wall = secs(Instant::now());
    let due: Vec<f64> = (0..n).map(|k| secs(schedule.due(k as u64))).collect();
    let latencies = generation_latencies(&due, &sent, &seen);
    let waiting: Vec<(f64, f64)> =
        latencies.iter().zip(&seen).map(|(lat, &at)| (at - lat, at)).collect();
    let fresh_share = 1.0 - stats::union_length(&waiting) / wall.max(f64::MIN_POSITIVE);
    Ok(Stream {
        latencies_ms: latencies.iter().map(|l| l * 1e3).collect(),
        wall,
        fresh_share,
        schedule,
        publish,
        published_rows,
        quiesced,
        final_model: pin.model,
    })
}

fn mean_abs_error(model: &dyn Regressor, rows: &[Row]) -> f64 {
    let mut matrix =
        FeatureMatrix::with_capacity(rows.first().map_or(0, |(f, _)| f.len()), rows.len());
    for (features, _) in rows {
        matrix.push_row(features);
    }
    let predictions = model.predict_matrix(&matrix);
    let sum: f64 = predictions.iter().zip(rows).map(|(p, (_, y))| (p - y).abs()).sum();
    sum / rows.len().max(1) as f64
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
        })
        .unwrap_or(0)
}

/// Tears a system down and checks its outputs; returns the router's
/// final stats.
fn finish(
    system: System,
    run: &Stream,
    n_batches: usize,
    out: &mut Outcome,
) -> aging_adapt::RouterStats {
    let System { router, journal, journal_dir, .. } = system;
    let stats = router.shutdown();
    let class = ServiceClass::default();
    let class_stats = stats.class(&class).copied();
    let (retrains, failed_retrains) =
        class_stats.map_or((0, 0), |s| (s.retrains, s.failed_retrains));
    let triggered = retrains + failed_retrains;
    out.attempted += run.published_rows + triggered;
    out.failed += stats.dropped_checkpoints + failed_retrains;
    if !run.quiesced {
        out.problem("the router did not quiesce within 30 s of the last send");
    }
    if run.published_rows != stats.ingested_checkpoints + stats.dropped_checkpoints {
        out.problem(format!(
            "published {} != ingested {} + shed {}",
            run.published_rows, stats.ingested_checkpoints, stats.dropped_checkpoints
        ));
    }
    if stats.generations_published != retrains {
        out.problem(format!("generations {} != retrains {retrains}", stats.generations_published));
    }
    if retrains == 0 || retrains > quotas(n_batches) {
        out.problem(format!("{retrains} retrains for {} quotas", quotas(n_batches)));
    }
    if stats.journal_errors > 0 {
        out.problem(format!("{} journal append errors", stats.journal_errors));
    }
    match Journal::read(&journal_dir) {
        Ok(read) if read.truncated_bytes == 0 && !read.records.is_empty() => {}
        Ok(read) => out.problem(format!(
            "journal read back {} records with {} torn bytes",
            read.records.len(),
            read.truncated_bytes
        )),
        Err(e) => out.problem(format!("journal is corrupt: {e}")),
    }
    drop(journal);
    if let Err(e) = std::fs::remove_dir_all(&journal_dir) {
        out.note(format!("could not remove {journal_dir:?}: {e}"));
    }
    stats
}

/// Runs the workload for `seconds` and reports its metrics. `work` is a
/// scratch directory for the journals.
pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(seed, seconds, trace, work, &mut out) {
        out.problem(e);
    }
    out
}

fn run_inner(
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let inputs = inputs(seed, STREAM_EXECUTIONS, HOLDOUT_EXECUTIONS);
    if inputs.stream.is_empty() || inputs.holdout.is_empty() {
        return Err("no crash executions to stream".into());
    }
    std::fs::create_dir_all(work).map_err(|e| format!("creating {work:?}: {e}"))?;
    let journal_dir = |i: usize| work.join(format!("journal-{}-{i}", std::process::id()));
    if trace {
        return traced(&inputs, seconds, out, &journal_dir);
    }

    // Set-up is timed before the stream and again after it, so its median
    // does not hang on the machine's speed at one moment.
    let mut setups = Vec::new();
    let mut timed_setup = |i: usize| -> Result<System, String> {
        let start = Instant::now();
        let system = setup(&inputs, &journal_dir(i), None)?;
        setups.push(start.elapsed().as_secs_f64());
        Ok(system)
    };
    for i in 1..SETUP_REPEATS {
        discard(timed_setup(i)?);
    }
    let system = timed_setup(0)?;

    let n_batches = (RATE_PER_SEC * seconds).round().max(1.0) as usize;
    let batches = batches(&inputs, system.initial.as_ref(), n_batches);
    let run = stream(&system, batches)?;
    out.set("peak_rss_mb", metrics::peak_rss_mb().unwrap_or(f64::NAN));
    let stats = finish(system, &run, n_batches, out);
    for i in SETUP_REPEATS..2 * SETUP_REPEATS {
        discard(timed_setup(i)?);
    }
    out.set("setup_s", stats::median(&setups).expect("set-up timed"));

    match (stats::percentile(&run.latencies_ms, 0.5), stats::percentile(&run.latencies_ms, 0.9)) {
        (Some(p50), Some(p90)) => {
            out.set("latency_p50_ms", p50);
            out.set("latency_p90_ms", p90);
        }
        _ => out.problem(format!(
            "{} generation latencies are too few for p90",
            run.latencies_ms.len()
        )),
    }
    out.set("checkpoints_per_s", stats.ingested_checkpoints as f64 / run.wall);
    out.set("availability", run.fresh_share);
    out.note(format!(
        "{} batches of {ROWS_PER_BATCH} rows at {RATE_PER_SEC}/s from {} distinct rows; {} \
         generations ({} quotas), latencies: {}; generator max lag {:.3} ms, {} late sends; \
         final model's mean TTF error on held-out rows {} s",
        run.schedule.sends(),
        inputs.stream.len(),
        stats.generations_published,
        quotas(n_batches),
        stats::sample_note(run.latencies_ms.len()),
        run.schedule.max_lag().as_secs_f64() * 1e3,
        run.schedule.late_sends(),
        mean_abs_error(run.final_model.as_ref(), &inputs.holdout)
    ));
    Ok(())
}

/// Shuts down a set-up that will not be measured and removes its journal.
fn discard(system: System) {
    let System { router, journal, journal_dir, .. } = system;
    let _ = router.shutdown();
    drop(journal);
    let _ = std::fs::remove_dir_all(journal_dir);
}

/// The traced run: an untraced and a telemetered stream of half the
/// run's length each, plus out-of-band fits of the buffer sizes the
/// router refits.
fn traced(
    inputs: &Inputs,
    seconds: f64,
    out: &mut Outcome,
    journal_dir: &dyn Fn(usize) -> PathBuf,
) -> Result<(), String> {
    let n_batches = (RATE_PER_SEC * seconds / 2.0).round().max(1.0) as usize;
    let untraced_system = setup(inputs, &journal_dir(0), None)?;
    let untraced_batches = batches(inputs, untraced_system.initial.as_ref(), n_batches);
    let untraced = stream(&untraced_system, untraced_batches)?;
    finish(untraced_system, &untraced, n_batches, out);

    let registry = Registry::shared();
    let system = setup(inputs, &journal_dir(1), Some(Arc::clone(&registry)))?;
    let traced_batches = batches(inputs, system.initial.as_ref(), n_batches);
    let run = stream(&system, traced_batches)?;
    let appends = system.journal.appended();
    let fsyncs = system.journal.fsyncs();
    let journal_bytes = dir_bytes(&system.journal_dir);
    let stats = finish(system, &run, n_batches, out);
    let telemetry = registry.snapshot();

    // Out-of-band fits on the buffer sizes the router refits (the buffer
    // grows by one quota per refit until it is full), plus the set-up fit.
    let features = FeatureSet::exp42();
    let learner = M5pLearner::paper_default();
    let mut fit_calls = 0u64;
    let mut fit_rows = 0u64;
    let mut fit = Duration::ZERO;
    let mut fit_on = |dataset: &Dataset| -> Result<(), String> {
        let start = Instant::now();
        DynLearner::fit_dyn(&learner, dataset).map_err(|e| format!("fit failed: {e}"))?;
        fit += start.elapsed();
        fit_calls += 1;
        fit_rows += dataset.len() as u64;
        Ok(())
    };
    fit_on(&training_dataset(&inputs.training, inputs.train_seed))?;
    for size in (RETRAIN_EVERY..=BUFFER_ROWS).step_by(RETRAIN_EVERY) {
        let mut dataset = Dataset::new(features.variables().to_vec(), "time_to_failure");
        for (row, ttf) in inputs.stream.iter().cycle().take(size) {
            dataset.push_row(row.clone(), *ttf).map_err(|e| format!("dataset: {e}"))?;
        }
        fit_on(&dataset)?;
    }

    let hist = |name: &str| telemetry.histogram_merged(name);
    let refit = hist("adapt_refit_duration_seconds");
    let swap = hist("adapt_swap_latency_seconds");
    for name in [
        "testbed.step_calls",
        "testbed.step_s",
        "testbed.new_calls",
        "testbed.new_s",
        "testbed.fork_calls",
        "testbed.fork_s",
        "testbed.fork_sim_s",
        "testbed.fork_useful_ratio",
        "monitor.extract_calls",
        "monitor.extract_s",
        "ml.predict_calls",
        "ml.predict_rows",
        "ml.predict_s",
        "fleet.epochs",
        "fleet.advance_s",
        "fleet.predict_s",
        "fleet.publish_s",
        "bench.probe_coverage",
    ] {
        out.set(name, 0.0);
    }
    out.set("ml.fit_calls", fit_calls as f64);
    out.set("ml.fit_rows", fit_rows as f64);
    out.set("ml.fit_s", fit.as_secs_f64());
    out.set("ml.mean_ttf_error_s", mean_abs_error(run.final_model.as_ref(), &inputs.holdout));
    out.set("adapt.publish_calls", run.schedule.sends() as f64);
    out.set("adapt.publish_s", run.publish.as_secs_f64());
    out.set("adapt.ingested", stats.ingested_checkpoints as f64);
    out.set("adapt.shed", stats.dropped_checkpoints as f64);
    out.set("adapt.ingest_batch_s", hist("adapt_ingest_batch_seconds").map_or(0.0, |h| h.sum));
    out.set("adapt.refits", refit.as_ref().map_or(0.0, |h| h.count as f64));
    out.set("adapt.refit_s", refit.as_ref().map_or(0.0, |h| h.sum));
    out.set("adapt.swap_latency_s", swap.as_ref().and_then(|h| h.mean()).unwrap_or(0.0));
    out.set("adapt.generations", stats.generations_published as f64);
    out.set(
        "adapt.generations_per_trigger",
        stats.generations_published as f64 / quotas(n_batches).max(1) as f64,
    );
    out.set("adapt.latency_samples", run.latencies_ms.len() as f64);
    out.set("journal.appends", appends as f64);
    out.set("journal.fsyncs", fsyncs as f64);
    out.set("journal.bytes", journal_bytes as f64);
    let untraced_p50 = stats::median(&untraced.latencies_ms).unwrap_or(f64::NAN);
    let traced_p50 = stats::median(&run.latencies_ms).unwrap_or(f64::NAN);
    out.set("obs.trace_overhead_ratio", traced_p50 / untraced_p50);
    out.set("bench.generator_lag_max_ms", run.schedule.max_lag().as_secs_f64() * 1e3);
    out.note(format!(
        "untraced stream: median latency {untraced_p50:.3} ms over {} generations; telemetered: \
         {traced_p50:.3} ms over {}; generator mean lag {:.3} ms",
        untraced.latencies_ms.len(),
        run.latencies_ms.len(),
        run.schedule.mean_lag().as_secs_f64() * 1e3
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_start_at_the_batch_that_completes_each_quota() {
        // 100 batches on a 10 ms grid, each sent on time: quotas complete
        // at batches 31, 63 and 95.
        let due: Vec<f64> = (0..100).map(|k| k as f64 * 0.01).collect();
        let sent = due.clone();
        let seen = [0.31 + 0.05, 0.63 + 0.04, 0.95 + 0.06];
        let lat = generation_latencies(&due, &sent, &seen);
        assert_eq!(lat.len(), 3);
        for (got, want) in lat.iter().zip([0.05, 0.04, 0.06]) {
            assert!((got - want).abs() < 1e-9, "{lat:?}");
        }
        assert_eq!(quotas(100), 3);
    }

    #[test]
    fn a_deferred_refit_shifts_the_next_quota() {
        // Generation 1 takes until 0.655 s, so generation 2's quota batch
        // (63, at 0.63 s) finds a refit still in flight: the refit is
        // deferred to the first batch sent after 0.655 s (batch 66), and
        // the next quota completes 32 batches later, at batch 98.
        let due: Vec<f64> = (0..120).map(|k| k as f64 * 0.01).collect();
        let sent = due.clone();
        let seen = [0.655, 0.70, 1.05];
        let lat = generation_latencies(&due, &sent, &seen);
        assert_eq!(lat.len(), 3);
        let want = [0.655 - 0.31, 0.70 - 0.63, 1.05 - 0.98];
        for (got, want) in lat.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{lat:?}");
        }
    }

    #[test]
    fn generations_past_the_stream_are_not_attributed() {
        let due: Vec<f64> = (0..40).map(|k| k as f64 * 0.01).collect();
        let lat = generation_latencies(&due, &due, &[0.4, 0.5]);
        assert_eq!(lat.len(), 1, "only one quota completes in 40 batches");
    }
}
