//! Fleet-engine benchmarks: batched inference against per-sample
//! prediction at fleet-representative matrix sizes (one row per live
//! instance in a shard epoch), end-to-end fleet throughput by instance
//! count, and the telemetry overhead gate.
//!
//! The batched path must win at 100+ instances — that is the point of
//! `Regressor::predict_matrix` (M5P amortises its smoothing-path buffer
//! across rows and the rows share one flat buffer; per-sample prediction
//! reallocates the path every call).
//!
//! The `fleet_telemetry_overhead` group is the ISSUE 6 acceptance gate,
//! extended to a 2×2 over metrics × tracing: the same fleet run with a
//! live registry and/or a live flight recorder attached must stay within
//! ~2% checkpoints/sec of the uninstrumented run — the instruments record
//! one clock read per phase per epoch, never per checkpoint row, and a
//! frozen run's tracer emits one ring write per epoch (the leader mark).

use aging_core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use aging_fleet::{Fleet, FleetConfig};
use aging_ml::{FeatureMatrix, Regressor};
use aging_monitor::{build_dataset, FeatureSet, TTF_CAP_SECS};
use aging_obs::{FlightRecorder, Registry};
use aging_testbed::{MemLeakSpec, Scenario};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const BASE_SEED: u64 = 42;

fn leaky_scenario() -> Scenario {
    Scenario::builder("bench-leak")
        .emulated_browsers(100)
        .memory_leak(MemLeakSpec::new(15))
        .run_to_crash()
        .build()
}

fn trained_predictor() -> AgingPredictor {
    AgingPredictor::train(&[leaky_scenario()], FeatureSet::exp42(), BASE_SEED).unwrap()
}

/// Feature rows shaped exactly like a shard's per-epoch matrix, cycled out
/// of a real monitored execution.
fn feature_matrix(rows: usize) -> Vec<Vec<f64>> {
    let trace = leaky_scenario().run(BASE_SEED + 1);
    let ds = build_dataset(&[&trace], &FeatureSet::exp42(), TTF_CAP_SECS);
    (0..rows).map(|i| ds.row(i % ds.len()).values().to_vec()).collect()
}

fn bench_batched_vs_per_sample(c: &mut Criterion) {
    let predictor = trained_predictor();
    let model: &dyn Regressor = predictor.model();
    let mut group = c.benchmark_group("inference");
    group.sample_size(20);
    for rows in [10usize, 100, 1000] {
        let matrix = feature_matrix(rows);
        group.bench_function(format!("per_sample_{rows}rows"), |b| {
            b.iter(|| {
                let preds: Vec<f64> =
                    matrix.iter().map(|row| model.predict(black_box(row))).collect();
                black_box(preds)
            })
        });
        // The flat row-major path the shard hot loop uses: same rows, one
        // contiguous buffer, no per-row Vec.
        let mut flat = FeatureMatrix::with_capacity(matrix[0].len(), rows);
        for row in &matrix {
            flat.push_row(row);
        }
        group.bench_function(format!("predict_matrix_{rows}rows"), |b| {
            b.iter(|| black_box(model.predict_matrix(black_box(&flat))))
        });
    }
    group.finish();
}

fn bench_fleet_throughput(c: &mut Criterion) {
    let predictor = trained_predictor();
    let scenario = leaky_scenario();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let mut group = c.benchmark_group("fleet_checkpoints_per_sec");
    group.sample_size(10);
    for instances in [10usize, 100] {
        group.bench_function(format!("{instances}instances_4shards_30min"), |b| {
            b.iter(|| {
                let config = FleetConfig {
                    shards: 4,
                    rejuvenation: RejuvenationConfig { horizon_secs: 1800.0, ..Default::default() },
                    // The counterfactual fork is a diagnostic, not part of
                    // the hot path being measured.
                    counterfactual_horizon_secs: 0.0,
                };
                let fleet = Fleet::uniform(&scenario, policy, instances, 7_000, config).unwrap();
                black_box(fleet.run_with_predictor(&predictor))
            })
        });
    }
    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let predictor = trained_predictor();
    let scenario = leaky_scenario();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let config = FleetConfig {
        shards: 4,
        rejuvenation: RejuvenationConfig { horizon_secs: 1800.0, ..Default::default() },
        counterfactual_horizon_secs: 0.0,
    };
    let mut group = c.benchmark_group("fleet_telemetry_overhead");
    group.sample_size(10);
    // Baseline: disabled handles — the no-op `Recorder` / `TraceHandle`
    // defaults — so the hot loop pays one untaken branch per phase and
    // zero clock reads.
    group.bench_function("noop_recorder_100instances", |b| {
        b.iter(|| {
            let fleet = Fleet::uniform(&scenario, policy, 100, 7_000, config).unwrap();
            black_box(fleet.run_with_predictor(&predictor))
        })
    });
    // Instrumented: a fresh live registry per iteration (matching what
    // `--metrics` attaches), phase spans and scheduler idle time recording.
    group.bench_function("live_registry_100instances", |b| {
        b.iter(|| {
            let fleet = Fleet::uniform(&scenario, policy, 100, 7_000, config)
                .unwrap()
                .with_telemetry(Registry::shared());
            black_box(fleet.run_with_predictor(&predictor))
        })
    });
    // Traced: a fresh live flight recorder per iteration (matching what
    // `--trace` attaches) — one ring write per epoch on a frozen run.
    group.bench_function("live_trace_100instances", |b| {
        b.iter(|| {
            let fleet = Fleet::uniform(&scenario, policy, 100, 7_000, config)
                .unwrap()
                .with_trace(FlightRecorder::shared());
            black_box(fleet.run_with_predictor(&predictor))
        })
    });
    // Both instruments live at once — the configuration CI's smoke runs
    // exercise with `--metrics --trace`.
    group.bench_function("live_registry_and_trace_100instances", |b| {
        b.iter(|| {
            let fleet = Fleet::uniform(&scenario, policy, 100, 7_000, config)
                .unwrap()
                .with_telemetry(Registry::shared())
                .with_trace(FlightRecorder::shared());
            black_box(fleet.run_with_predictor(&predictor))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_batched_vs_per_sample,
    bench_fleet_throughput,
    bench_telemetry_overhead
);
criterion_main!(benches);
