//! Golden model digests: every tree and linear learner is fitted on a set
//! of fixed datasets and the serialized model is hashed with FNV-1a. JSON
//! floats are printed shortest-round-trip, so one bit of one threshold,
//! coefficient, mean or error estimate anywhere in a tree changes a digest
//! here.
//!
//! The datasets cover what training sees in practice and the corner cases
//! of split search and node-model fitting: exp42 feature rows of simulated
//! run-to-crash executions at the adaptive router's retrain quota (512 rows)
//! and sliding-buffer size (2048 rows); the same rows rounded into heavy
//! ties; a constant column; every row duplicated; and two adjacent doubles
//! whose naive midpoint rounds up to the larger one.
//!
//! The expected values were recorded with the per-node sort split search
//! and the per-step design rebuild that the presorted split search and the
//! per-node Gram matrix replaced. They must never change unless the
//! learning algorithms themselves do.

use aging_dataset::Dataset;
use aging_ml::gbrt::GbrtLearner;
use aging_ml::linreg::LinRegLearner;
use aging_ml::m5p::M5pLearner;
use aging_ml::regtree::RegTreeLearner;
use aging_ml::Learner;
use aging_monitor::{build_dataset, FeatureSet, TTF_CAP_SECS};
use aging_testbed::{MemLeakSpec, Scenario};

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn json_digest<T: serde::Serialize>(model: &T) -> u64 {
    fnv(serde_json::to_string(model).expect("models serialize").as_bytes())
}

/// The four load/leak classes the benchmark's mixed fleet cycles through.
const CLASSES: [(u64, u32); 4] = [(50, 15), (100, 15), (150, 30), (200, 30)];

/// The first `rows` exp42 rows of run-to-crash executions cycling through
/// [`CLASSES`], seeded from `seed`.
fn exp42_rows(seed: u64, rows: usize) -> Dataset {
    let features = FeatureSet::exp42();
    let mut out = Dataset::new(features.variables().to_vec(), "time_to_failure");
    let mut k = 0u64;
    while out.len() < rows {
        let (ebs, n) = CLASSES[k as usize % CLASSES.len()];
        let scenario = Scenario::builder(format!("golden-{ebs}eb-n{n}"))
            .emulated_browsers(ebs)
            .memory_leak(MemLeakSpec::new(n))
            .run_to_crash()
            .build();
        let trace = scenario.run(seed * 1_000 + k);
        out.extend_from(&build_dataset(&[&trace], &features, TTF_CAP_SECS)).unwrap();
        k += 1;
    }
    out.filter_rows(|i, _| i < rows)
}

/// Rebuilds `ds` with every attribute value passed through `f(column, value)`.
fn map_values(ds: &Dataset, f: impl Fn(usize, f64) -> f64) -> Dataset {
    let mut out = Dataset::new(ds.attribute_names().to_vec(), ds.target_name());
    for row in ds.iter() {
        let values = row.values().iter().enumerate().map(|(c, &v)| f(c, v)).collect();
        out.push_row(values, row.target()).unwrap();
    }
    out
}

/// Every value rounded to one significant digit: a handful of distinct
/// values per column, so most split boundaries sit between long runs of ties.
fn tied(ds: &Dataset) -> Dataset {
    map_values(ds, |_, v| {
        if v == 0.0 {
            return 0.0;
        }
        let scale = 10f64.powf(v.abs().log10().floor());
        (v / scale).round() * scale
    })
}

/// Every fourth column replaced by a constant (half of them in the
/// `fit_on` attribute set).
fn constant_columns(ds: &Dataset) -> Dataset {
    map_values(ds, |c, v| if c % 4 == 0 { 7.0 } else { v })
}

/// Every row twice, the copies adjacent.
fn duplicated(ds: &Dataset) -> Dataset {
    let mut out = Dataset::new(ds.attribute_names().to_vec(), ds.target_name());
    for row in ds.iter() {
        for _ in 0..2 {
            out.push_row(row.values().to_vec(), row.target()).unwrap();
        }
    }
    out
}

/// Two adjacent representable doubles whose naive midpoint rounds up to
/// the larger one, ten rows each.
fn adjacent_doubles() -> Dataset {
    let a = f64::from_bits(1.0f64.to_bits() + 1);
    let b = f64::from_bits(1.0f64.to_bits() + 2);
    let mut ds = Dataset::new(vec!["x".into()], "y");
    for _ in 0..10 {
        ds.push_row(vec![a], 0.0).unwrap();
        ds.push_row(vec![b], 100.0).unwrap();
    }
    ds
}

/// The restricted attribute set handed to `fit_on`: every third column,
/// descending, with the first repeated.
fn allowed(n_attributes: usize) -> Vec<usize> {
    let mut a: Vec<usize> = (0..n_attributes).step_by(3).rev().collect();
    a.push(a[0]);
    a
}

/// Digest of every learner configuration fitted on `ds`, labelled.
fn digests(ds: &Dataset) -> Vec<(&'static str, u64)> {
    let m5p: [(&str, M5pLearner); 5] = [
        ("m5p paper_default", M5pLearner::paper_default()),
        ("m5p default", M5pLearner::default()),
        ("m5p pruning off", M5pLearner::default().with_pruning(false)),
        ("m5p eliminate_terms off", M5pLearner { eliminate_terms: false, ..Default::default() }),
        (
            "m5p smoothing off, min 1",
            M5pLearner::default().with_smoothing(false).with_min_instances(1),
        ),
    ];
    let mut out: Vec<(&str, u64)> =
        m5p.into_iter().map(|(label, l)| (label, json_digest(&l.fit(ds).unwrap()))).collect();
    out.push(("regtree default", json_digest(&RegTreeLearner::default().fit(ds).unwrap())));
    // `GbrtModel` has no serde impl; its derived `Debug` prints every stage
    // tree with shortest-round-trip floats, which is just as exact.
    let gbrt = GbrtLearner { n_stages: 10, ..Default::default() }.fit(ds).unwrap();
    out.push(("gbrt 10 stages", fnv(format!("{gbrt:?}").as_bytes())));
    out.push(("linreg fit", json_digest(&LinRegLearner::default().fit(ds).unwrap())));
    let on = LinRegLearner::default().fit_on(ds, &allowed(ds.n_attributes())).unwrap();
    out.push(("linreg fit_on", json_digest(&on)));
    out
}

fn assert_digests(name: &str, ds: &Dataset, expected: &[(&str, u64)]) {
    let actual = digests(ds);
    let table: String =
        actual.iter().map(|(label, d)| format!("        (\"{label}\", {d:#018x}),\n")).collect();
    assert_eq!(actual, expected, "{name}: model digests changed; actual:\n{table}");
}

#[test]
fn exp42_512_rows() {
    assert_digests(
        "exp42 512",
        &exp42_rows(1, 512),
        &[
            ("m5p paper_default", 0x455a37608964947d),
            ("m5p default", 0x513966456eb641d7),
            ("m5p pruning off", 0x93160127db3e7c58),
            ("m5p eliminate_terms off", 0xc4d5d9a5809d23c7),
            ("m5p smoothing off, min 1", 0x2b31944071e9d4f4),
            ("regtree default", 0xb5f087b49c8e64d6),
            ("gbrt 10 stages", 0xa3fc58e576a1abc2),
            ("linreg fit", 0x20064d5527dac4fb),
            ("linreg fit_on", 0xd32ffd0e29fdfc2e),
        ],
    );
}

#[test]
fn exp42_2048_rows() {
    assert_digests(
        "exp42 2048",
        &exp42_rows(2, 2048),
        &[
            ("m5p paper_default", 0x25125e8ee6d1c33f),
            ("m5p default", 0x7b5a7281e02aa989),
            ("m5p pruning off", 0xee7881269d1aaf9e),
            ("m5p eliminate_terms off", 0x8fcef69b6cd0846e),
            ("m5p smoothing off, min 1", 0x792a04e888243518),
            ("regtree default", 0x421e28556cc75657),
            ("gbrt 10 stages", 0x8acb8225ed5e29b0),
            ("linreg fit", 0x8401ace53c33aa2e),
            ("linreg fit_on", 0x444b98c8cd108948),
        ],
    );
}

#[test]
fn exp42_rows_rounded_into_ties() {
    assert_digests(
        "tied",
        &tied(&exp42_rows(1, 512)),
        &[
            ("m5p paper_default", 0x01c3a2b182cc32bc),
            ("m5p default", 0x297af68f8a5fd603),
            ("m5p pruning off", 0xdc3e3644c0466252),
            ("m5p eliminate_terms off", 0xeee5fed880fbede0),
            ("m5p smoothing off, min 1", 0xe5eda2695393ed5a),
            ("regtree default", 0x52262ac69a880518),
            ("gbrt 10 stages", 0x835d5e28903a2a2a),
            ("linreg fit", 0x880cd543d38f181c),
            ("linreg fit_on", 0xb667960fafe117d8),
        ],
    );
}

#[test]
fn exp42_rows_with_constant_columns() {
    assert_digests(
        "constant columns",
        &constant_columns(&exp42_rows(1, 512)),
        &[
            ("m5p paper_default", 0x38ca637ba10c6f1a),
            ("m5p default", 0x6755c18f942611b9),
            ("m5p pruning off", 0xb336ed1edec4c218),
            ("m5p eliminate_terms off", 0x1da05ad8a477fb38),
            ("m5p smoothing off, min 1", 0x07e586075ed2d1a6),
            ("regtree default", 0xc88433470efb75d6),
            ("gbrt 10 stages", 0x69f9d0c4182f85bf),
            ("linreg fit", 0x1728814e76539c5f),
            ("linreg fit_on", 0x2299dc42435b2475),
        ],
    );
}

#[test]
fn exp42_rows_duplicated() {
    assert_digests(
        "duplicated",
        &duplicated(&exp42_rows(3, 512)),
        &[
            ("m5p paper_default", 0x001327e3821445dc),
            ("m5p default", 0xb516f2be6ba23882),
            ("m5p pruning off", 0x2ce03821c2a4bb45),
            ("m5p eliminate_terms off", 0xa006807229f29234),
            ("m5p smoothing off, min 1", 0xe0fd4f57da3ea9f5),
            ("regtree default", 0x485e6011cb66f32d),
            ("gbrt 10 stages", 0x125a4155f9c0a6e0),
            ("linreg fit", 0x88d318effe1a05a2),
            ("linreg fit_on", 0x4ea567e510da05d5),
        ],
    );
}

#[test]
fn adjacent_doubles_pair() {
    assert_digests(
        "adjacent doubles",
        &adjacent_doubles(),
        &[
            ("m5p paper_default", 0x6b4dbb5cdd0438f1),
            ("m5p default", 0x6b4dbb5cdd0438f1),
            ("m5p pruning off", 0x6b4dbb5cdd0438f1),
            ("m5p eliminate_terms off", 0x6b4dbb5cdd0438f1),
            ("m5p smoothing off, min 1", 0x0047f6b0697ac75e),
            ("regtree default", 0x571519043dad92cf),
            ("gbrt 10 stages", 0xf82b8917819080cf),
            ("linreg fit", 0x4d32c0e1e562d8fc),
            ("linreg fit_on", 0x4d32c0e1e562d8fc),
        ],
    );
}
