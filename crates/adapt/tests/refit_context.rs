//! Refits through a class's fit context serve the same models as fresh
//! fits.
//!
//! Every router class keeps the presorted window of its last refit and the
//! next refit reuses it. A drift-disabled `AdaptiveService` refits inline,
//! one quota at a time, so every window it fits is known: the last
//! `buffer_capacity` rows sent. Each new generation must predict exactly
//! what a fresh `M5pLearner::fit` of that window predicts, bit for bit, on
//! the window's rows and on rows it never saw.

use aging_adapt::{
    AdaptConfig, AdaptiveService, CheckpointBatch, DriftConfig, LabelledCheckpoint, ServiceClass,
};
use aging_dataset::Dataset;
use aging_ml::m5p::M5pLearner;
use aging_ml::{DynLearner, FeatureMatrix, Learner, Regressor};
use std::sync::Arc;
use std::time::Duration;

const CAPACITY: usize = 256;
const QUOTA: usize = 64;
const ATTRIBUTES: usize = 6;

/// One labelled row: features and time to failure.
type Row = (Vec<f64>, f64);

/// A deterministic row stream mixing what the presort must get right:
/// a continuous trend, heavy ties (`-0.0` against `0.0` among them), a
/// constant column, a quarter-step counter and duplicated rows. The
/// target is piecewise linear in the trend.
fn rows(seed: u64, n: usize) -> Vec<Row> {
    let mut state = seed;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut out: Vec<Row> = Vec::with_capacity(n);
    for i in 0..n {
        if let Some(previous) = out.last().filter(|_| next() < 0.1).cloned() {
            out.push(previous);
            continue;
        }
        let trend = (i % 400) as f64 * 0.5 + next();
        let features = vec![
            trend,
            [-0.0, 0.0, 1.0, 2.5][(next() * 4.0) as usize],
            3.0,
            ((next() * 12.0) as u32) as f64 * 0.25,
            next() * 100.0,
            next() * 10.0 - 5.0,
        ];
        let ttf = if trend < 100.0 { 5_000.0 - 10.0 * trend } else { 8_000.0 - 40.0 * trend };
        out.push((features, ttf + next() * 20.0));
    }
    out
}

fn names() -> Vec<String> {
    (0..ATTRIBUTES).map(|a| format!("a{a}")).collect()
}

fn matrix(rows: &[Row]) -> FeatureMatrix {
    let mut matrix = FeatureMatrix::new(ATTRIBUTES);
    for (features, _) in rows {
        matrix.push_row(features);
    }
    matrix
}

#[test]
fn inline_refits_through_the_context_equal_fresh_fits() {
    let learner = M5pLearner::paper_default();
    let stream = rows(7, 40 * QUOTA);
    let holdout = matrix(&rows(8, 300));

    let mut seed_data = Dataset::new(names(), "time_to_failure");
    for (features, ttf) in &stream[..QUOTA] {
        seed_data.push_row(features.clone(), *ttf).unwrap();
    }
    let initial: Arc<dyn Regressor> = Arc::from(learner.fit_dyn(&seed_data).unwrap());
    let config = AdaptConfig::builder()
        .drift(DriftConfig::disabled())
        .buffer_capacity(CAPACITY)
        .min_buffer_to_retrain(QUOTA)
        .retrain_every(QUOTA)
        .build();
    let service = AdaptiveService::builder(Arc::new(learner.clone()), names(), initial)
        .config(config)
        .spawn();
    let bus = service.bus();

    // Batch sizes that do not divide the quota, so windows slide by
    // different amounts; the buffer first grows to capacity, then slides.
    let sizes = [24, 40, 56, 16, 72];
    let (mut sent, mut generation, mut batch) = (0, 0, 0);
    while sent < stream.len() - 72 {
        let size = sizes[batch % sizes.len()];
        let checkpoints = stream[sent..sent + size]
            .iter()
            .map(|(features, ttf)| LabelledCheckpoint::new(features.clone(), *ttf, Some(*ttf)))
            .collect();
        assert!(bus.publish(CheckpointBatch {
            source: "context".into(),
            class: ServiceClass::default(),
            checkpoints,
        }));
        assert!(service.quiesce(Duration::from_secs(30)), "batch {batch}: service must settle");
        sent += size;
        batch += 1;

        let snapshot = service.model_service().snapshot();
        if snapshot.generation == generation {
            continue;
        }
        assert_eq!(snapshot.generation, generation + 1, "one refit per batch at most");
        generation = snapshot.generation;

        let window = &stream[sent.saturating_sub(CAPACITY)..sent];
        let mut data = Dataset::new(names(), "time_to_failure");
        for (features, ttf) in window {
            data.push_row(features.clone(), *ttf).unwrap();
        }
        let fresh = learner.fit(&data).unwrap();
        for (what, rows) in [("window", matrix(window)), ("held-out", holdout.clone())] {
            let served = snapshot.model.predict_matrix(&rows);
            let expected = fresh.predict_matrix(&rows);
            assert_eq!(served.len(), expected.len());
            for (i, (s, e)) in served.iter().zip(&expected).enumerate() {
                assert!(
                    s.to_bits() == e.to_bits(),
                    "generation {generation}, {what} row {i}: served {s} != fresh {e}"
                );
            }
        }
    }
    let stats = service.shutdown();
    assert!(generation >= 12, "the stream must refit at least 12 times: {stats:?}");
    assert_eq!(stats.generations_published, generation);
    assert_eq!(stats.failed_retrains, 0);
}
