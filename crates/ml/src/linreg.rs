//! Multiple linear regression — the paper's baseline (Tables 3 and 4) and
//! the building block for the models at M5P leaves.
//!
//! Fitting uses ordinary least squares via the normal equations with partial
//! pivoting; if the system is singular a small ridge is applied, escalating
//! until solvable (and falling back to the target mean in the degenerate
//! case). Optionally the model is *simplified* the way M5 does it: terms are
//! greedily dropped (smallest standardised coefficient first) and the model
//! with the best pessimistic-adjusted error along that sequence is kept.
//!
//! # Training cost
//!
//! The Gram matrix is accumulated once per fit; each elimination step solves
//! the principal sub-matrix of the terms it keeps. A fit over a subset of
//! rows (an M5P node model) gathers each candidate column over those rows
//! once, and scores every elimination step column by column: each term is
//! added to every row's prediction in term order, so a row's prediction is
//! the same `intercept + Σ coef·x` sequence as a row-by-row evaluation and
//! the MAE the same row-order sum, bit for bit.

use crate::{linalg, Learner, MlError, Regressor};
use aging_dataset::{stats, Dataset};
use serde::{Deserialize, Serialize};

/// A fitted (possibly sparse) linear model `y = intercept + Σ coefᵢ·x[idxᵢ]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    attribute_names: Vec<String>,
    /// `(attribute index, coefficient)` pairs, ordered by attribute index.
    terms: Vec<(usize, f64)>,
    intercept: f64,
    /// Mean absolute residual on the training data.
    training_mae: f64,
    n_train: usize,
}

impl LinearModel {
    /// The constant model `y = value` (used as the ultimate fallback and at
    /// unsplit M5P leaves).
    pub fn constant(
        value: f64,
        attribute_names: Vec<String>,
        training_mae: f64,
        n_train: usize,
    ) -> Self {
        LinearModel { attribute_names, terms: Vec::new(), intercept: value, training_mae, n_train }
    }

    /// The intercept term.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The `(attribute index, coefficient)` terms of the model.
    pub fn terms(&self) -> &[(usize, f64)] {
        &self.terms
    }

    /// Number of free parameters (terms + intercept).
    pub fn n_params(&self) -> usize {
        self.terms.len() + 1
    }

    /// Mean absolute residual on the data this model was fitted to.
    pub fn training_mae(&self) -> f64 {
        self.training_mae
    }

    /// Number of training instances the model was fitted to.
    pub fn n_train(&self) -> usize {
        self.n_train
    }

    /// The pessimistic error estimate used by M5: training MAE inflated by
    /// `(n + ν) / (n − ν)` where `ν` is the number of parameters.
    ///
    /// Returns infinity when `n ≤ ν` (not enough data to trust the model).
    pub fn adjusted_error(&self) -> f64 {
        let n = self.n_train as f64;
        let v = self.n_params() as f64;
        if n <= v {
            f64::INFINITY
        } else {
            self.training_mae * (n + v) / (n - v)
        }
    }

    /// Names the model's attributes; fits over row subsets leave that to
    /// their caller.
    pub(crate) fn set_attribute_names(&mut self, names: &[String]) {
        self.attribute_names = names.to_vec();
    }

    /// Names of the attributes actually used by the model.
    pub fn used_attributes(&self) -> Vec<&str> {
        self.terms.iter().map(|&(i, _)| self.attribute_names[i].as_str()).collect()
    }

    fn fmt_equation(&self) -> String {
        let mut s = String::new();
        for &(idx, coef) in &self.terms {
            s.push_str(&format!("{:+.6} * {} ", coef, self.attribute_names[idx]));
        }
        s.push_str(&format!("{:+.4}", self.intercept));
        s
    }
}

impl Regressor for LinearModel {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut y = self.intercept;
        for &(idx, coef) in &self.terms {
            y += coef * x[idx];
        }
        y
    }

    fn predict_matrix(&self, matrix: &crate::FeatureMatrix) -> Vec<f64> {
        // Same arithmetic as `predict`, with the output preallocated and
        // the sparse term list walked without per-row virtual dispatch.
        let mut out = Vec::with_capacity(matrix.n_rows());
        for row in matrix.rows() {
            let mut y = self.intercept;
            for &(idx, coef) in &self.terms {
                y += coef * row[idx];
            }
            out.push(y);
        }
        out
    }

    fn name(&self) -> &'static str {
        "LinearRegression"
    }

    fn describe(&self) -> String {
        self.fmt_equation()
    }
}

/// Configuration for fitting [`LinearModel`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct LinRegLearner {
    /// Initial ridge (0 = plain OLS; a tiny ridge is still applied on
    /// singular systems).
    pub ridge: f64,
    /// Whether to greedily eliminate low-importance terms, M5-style.
    pub eliminate_terms: bool,
}

impl Default for LinRegLearner {
    fn default() -> Self {
        LinRegLearner { ridge: 0.0, eliminate_terms: true }
    }
}

impl LinRegLearner {
    /// A learner that keeps every term (no M5-style elimination).
    pub fn without_elimination() -> Self {
        LinRegLearner { eliminate_terms: false, ..Self::default() }
    }

    /// Fits a model that may only use the attribute columns in `allowed`
    /// (indices into the dataset schema). Other columns get no term.
    ///
    /// This is the entry point M5P uses: a node's model is restricted to the
    /// attributes referenced in its subtree.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] for an empty dataset and
    /// [`MlError::InvalidParameter`] when an index in `allowed` is not an
    /// attribute column of `data`.
    pub fn fit_on(&self, data: &Dataset, allowed: &[usize]) -> Result<LinearModel, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if let Some(&bad) = allowed.iter().find(|&&c| c >= data.n_attributes()) {
            return Err(MlError::InvalidParameter(format!(
                "attribute index {bad} out of range for {} attributes",
                data.n_attributes()
            )));
        }
        let rows: Vec<usize> = (0..data.len()).collect();
        let mut model = self.fit_rows(data, &rows, allowed);
        model.set_attribute_names(data.attribute_names());
        Ok(model)
    }

    /// [`LinRegLearner::fit_on`] over the rows `rows` of `data` only:
    /// `rows` must be non-empty and ascending, `allowed` in range.
    ///
    /// Each allowed column is gathered over `rows` once, into contiguous
    /// storage. The Gram matrix of `[1, allowed…]` and `Aᵀy` are
    /// accumulated once, in row order; every greedy elimination step
    /// solves the principal sub-matrix of its remaining terms and scores
    /// its model column by column, adding each term to every row's
    /// prediction in term order. Each Gram entry is the same row-order sum
    /// a design rebuilt from the remaining columns would give, each row's
    /// prediction the same `intercept + Σ coef·x` sequence, and the MAE the
    /// same row-order sum, so the model equals a fit on a dataset holding
    /// just these rows, bit for bit. The model's attribute names are left
    /// empty for the caller to fill in.
    pub(crate) fn fit_rows(
        &self,
        data: &Dataset,
        rows: &[usize],
        allowed: &[usize],
    ) -> LinearModel {
        let n = rows.len();
        let targets: Vec<f64> = rows.iter().map(|&i| data.target(i)).collect();
        let mean = stats::mean(&targets);
        let constant = || LinearModel::constant(mean, Vec::new(), mean_abs_dev(&targets, mean), n);

        // Deduplicate, sort and drop constant columns: they carry no signal
        // and make the normal equations singular together with the intercept.
        // The deviations of the kept columns also rank terms for elimination.
        let mut allowed = allowed.to_vec();
        allowed.sort_unstable();
        allowed.dedup();
        // The design, column-major: column 0 is the intercept's, column
        // `k + 1` is `allowed[k]` over `rows`.
        let mut columns = vec![1.0; n];
        let mut col_stds = vec![0.0; data.n_attributes()];
        allowed.retain(|&c| {
            let start = columns.len();
            columns.extend(rows.iter().map(|&i| data.value(i, c)));
            col_stds[c] = stats::std_dev(&columns[start..]);
            let varies = col_stds[c] > 1e-12;
            if !varies {
                columns.truncate(start);
            }
            varies
        });
        if allowed.is_empty() || n < 2 {
            return constant();
        }

        let normal = linalg::NormalEquations::from_columns(&columns, allowed.len() + 1, &targets);
        // Design columns of the current term set.
        let mut current_cols: Vec<usize> = (0..=allowed.len()).collect();
        let mut predictions = Vec::with_capacity(n);
        let mut fit = |cols: &[usize]| {
            self.fit_normal(&normal, cols, &allowed, &columns, &targets, &mut predictions)
        };

        let Some(full) = fit(&current_cols) else {
            return constant();
        };
        let mut best = full;
        if self.eliminate_terms {
            // Greedy elimination: drop the term with the smallest
            // standardised coefficient, refit, and keep the best model by
            // adjusted error.
            let mut current = best.clone();
            while current.terms().len() > 1 {
                let (drop_idx, _) = current
                    .terms()
                    .iter()
                    .map(|&(idx, coef)| (idx, coef.abs() * col_stds[idx]))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("non-empty terms");
                current_cols.retain(|&k| k == 0 || allowed[k - 1] != drop_idx);
                let Some(next) = fit(&current_cols) else {
                    // The constant fallback, compared below.
                    break;
                };
                current = next;
                if current.adjusted_error() < best.adjusted_error() {
                    best = current.clone();
                }
            }
            // Also consider the constant model.
            let constant = constant();
            if constant.adjusted_error() < best.adjusted_error() {
                return constant;
            }
        }
        best
    }

    /// Solves the normal equations for the design columns `cols`, with
    /// ridge escalation on singular systems, and scores the model on the
    /// node's rows, given as the design's `columns` (the intercept's, then
    /// the `allowed` attributes') and their `targets`; `predictions` is
    /// scratch space. `None` when even the largest ridge fails (the caller
    /// falls back to the constant model).
    fn fit_normal(
        &self,
        normal: &linalg::NormalEquations,
        cols: &[usize],
        allowed: &[usize],
        columns: &[f64],
        targets: &[f64],
        predictions: &mut Vec<f64>,
    ) -> Option<LinearModel> {
        let mut lambda = self.ridge;
        let x = loop {
            match normal.solve(cols, lambda) {
                Some(x) => break x,
                None => {
                    lambda = if lambda == 0.0 { 1e-8 } else { lambda * 100.0 };
                    if lambda > 1e2 {
                        return None;
                    }
                }
            }
        };
        let terms: Vec<(usize, f64)> =
            cols[1..].iter().map(|&k| allowed[k - 1]).zip(x[1..].iter().copied()).collect();
        let intercept = x[0];
        let n = targets.len();
        predictions.clear();
        predictions.resize(n, intercept);
        for (&k, &coef) in cols[1..].iter().zip(&x[1..]) {
            let column = &columns[k * n..(k + 1) * n];
            for (y, &v) in predictions.iter_mut().zip(column) {
                *y += coef * v;
            }
        }
        let mae =
            predictions.iter().zip(targets).map(|(y, t)| (y - t).abs()).sum::<f64>() / n as f64;
        Some(LinearModel {
            attribute_names: Vec::new(),
            terms,
            intercept,
            training_mae: mae,
            n_train: n,
        })
    }
}

impl Learner for LinRegLearner {
    type Model = LinearModel;

    fn fit(&self, data: &Dataset) -> Result<LinearModel, MlError> {
        let all: Vec<usize> = (0..data.n_attributes()).collect();
        self.fit_on(data, &all)
    }
}

fn mean_abs_dev(targets: &[f64], center: f64) -> f64 {
    if targets.is_empty() {
        return 0.0;
    }
    targets.iter().map(|t| (t - center).abs()).sum::<f64>() / targets.len() as f64
}

/// The fit [`LinRegLearner::fit_rows`] replaced, kept as the oracle it is
/// held to: the dataset holds only the node's rows, and every elimination
/// step rebuilds the design and Gram matrices from the remaining columns.
#[cfg(test)]
impl LinRegLearner {
    pub(crate) fn fit_on_reference(
        &self,
        data: &Dataset,
        allowed: &[usize],
    ) -> Result<LinearModel, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let mean = data.target_mean().expect("non-empty dataset has a mean");
        let names = data.attribute_names().to_vec();

        // Deduplicate, sort and drop constant columns: they carry no signal
        // and make the normal equations singular together with the intercept.
        let mut allowed: Vec<usize> = {
            let mut a = allowed.to_vec();
            a.sort_unstable();
            a.dedup();
            a
        };
        allowed.retain(|&c| {
            let col = data.column(c).expect("allowed index validated by caller");
            stats::std_dev(&col) > 1e-12
        });

        if allowed.is_empty() || data.len() < 2 {
            let mae = mean_abs_dev(data.targets(), mean);
            return Ok(LinearModel::constant(mean, names, mae, data.len()));
        }

        let full = self.fit_exact(data, &allowed, mean, &names);
        if !self.eliminate_terms {
            return Ok(full);
        }

        // Greedy elimination: drop the term with the smallest standardised
        // coefficient, refit, and keep the best model by adjusted error.
        let col_stds: Vec<f64> = (0..data.n_attributes())
            .map(|c| stats::std_dev(&data.column(c).expect("index in range")))
            .collect();
        let mut best = full.clone();
        let mut current_attrs = allowed;
        let mut current = full;
        while current.terms().len() > 1 {
            let (drop_idx, _) = current
                .terms()
                .iter()
                .map(|&(idx, coef)| (idx, coef.abs() * col_stds[idx]))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty terms");
            current_attrs.retain(|&c| c != drop_idx);
            current = self.fit_exact(data, &current_attrs, mean, &names);
            if current.adjusted_error() < best.adjusted_error() {
                best = current.clone();
            }
        }
        // Also consider the constant model.
        let constant =
            LinearModel::constant(mean, names, mean_abs_dev(data.targets(), mean), data.len());
        if constant.adjusted_error() < best.adjusted_error() {
            best = constant;
        }
        Ok(best)
    }

    /// Fits on the given attribute set without elimination, with ridge
    /// escalation on singular systems and the constant-model fallback.
    fn fit_exact(
        &self,
        data: &Dataset,
        attrs: &[usize],
        target_mean: f64,
        names: &[String],
    ) -> LinearModel {
        let rows = data.len();
        let cols = attrs.len() + 1;
        let mut design = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            design.push(1.0);
            let row = data.row(i);
            for &c in attrs {
                design.push(row.values()[c]);
            }
        }
        let mut lambda = self.ridge;
        let solution = loop {
            match linalg::least_squares_reference(&design, data.targets(), rows, cols, lambda) {
                Some(x) => break Some(x),
                None => {
                    lambda = if lambda == 0.0 { 1e-8 } else { lambda * 100.0 };
                    if lambda > 1e2 {
                        break None;
                    }
                }
            }
        };
        match solution {
            Some(x) => {
                let intercept = x[0];
                let terms: Vec<(usize, f64)> =
                    attrs.iter().copied().zip(x[1..].iter().copied()).collect();
                let mut model = LinearModel {
                    attribute_names: names.to_vec(),
                    terms,
                    intercept,
                    training_mae: 0.0,
                    n_train: rows,
                };
                let mae = data
                    .iter()
                    .map(|r| (model.predict(r.values()) - r.target()).abs())
                    .sum::<f64>()
                    / rows as f64;
                model.training_mae = mae;
                model
            }
            None => LinearModel::constant(
                target_mean,
                names.to_vec(),
                mean_abs_dev(data.targets(), target_mean),
                rows,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize) -> Dataset {
        // y = 5 + 2*a - 3*b
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], "y");
        for i in 0..n {
            let a = (i % 17) as f64;
            let b = (i % 5) as f64 * 0.5;
            ds.push_row(vec![a, b], 5.0 + 2.0 * a - 3.0 * b).unwrap();
        }
        ds
    }

    #[test]
    fn recovers_exact_linear_relation() {
        let ds = linear_data(60);
        let m = LinRegLearner::default().fit(&ds).unwrap();
        assert!((m.predict(&[10.0, 1.0]) - (5.0 + 20.0 - 3.0)).abs() < 1e-6);
        assert!(m.training_mae() < 1e-8);
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let ds = Dataset::new(vec!["a".into()], "y");
        assert!(matches!(LinRegLearner::default().fit(&ds), Err(MlError::EmptyTrainingSet)));
    }

    #[test]
    fn single_row_falls_back_to_constant() {
        let mut ds = Dataset::new(vec!["a".into()], "y");
        ds.push_row(vec![1.0], 42.0).unwrap();
        let m = LinRegLearner::default().fit(&ds).unwrap();
        assert_eq!(m.terms().len(), 0);
        assert_eq!(m.predict(&[999.0]), 42.0);
    }

    #[test]
    fn constant_column_gets_no_term() {
        let mut ds = Dataset::new(vec!["c".into(), "x".into()], "y");
        for i in 0..20 {
            ds.push_row(vec![7.0, i as f64], 3.0 * i as f64).unwrap();
        }
        let m = LinRegLearner::default().fit(&ds).unwrap();
        assert!(m.terms().iter().all(|&(idx, _)| idx != 0));
        assert!((m.predict(&[7.0, 4.0]) - 12.0).abs() < 1e-6);
    }

    #[test]
    fn elimination_drops_noise_attribute() {
        // y depends only on a; b is pure noise with tiny correlation.
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], "y");
        let mut state = 1u64;
        for i in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            let a = i as f64;
            ds.push_row(vec![a, noise], 2.0 * a + 1.0).unwrap();
        }
        let m = LinRegLearner::default().fit(&ds).unwrap();
        let used = m.used_attributes();
        assert!(used.contains(&"a"));
        // The noise term should have been eliminated or have a tiny coefficient.
        let b_coef =
            m.terms().iter().find(|&&(idx, _)| idx == 1).map(|&(_, c)| c.abs()).unwrap_or(0.0);
        assert!(b_coef < 0.5, "noise coefficient {b_coef} too large");
    }

    #[test]
    fn fit_on_restricts_attributes() {
        let ds = linear_data(50);
        let m = LinRegLearner::default().fit_on(&ds, &[0]).unwrap();
        assert!(m.terms().iter().all(|&(idx, _)| idx == 0));
    }

    #[test]
    fn fit_on_rejects_out_of_range_attribute() {
        let ds = linear_data(20);
        let err = LinRegLearner::default().fit_on(&ds, &[0, 2]).unwrap_err();
        assert!(matches!(err, MlError::InvalidParameter(_)), "{err}");
        assert!(err.to_string().contains("attribute index 2"), "{err}");
    }

    #[test]
    fn duplicate_allowed_indices_are_deduped() {
        let ds = linear_data(50);
        let m = LinRegLearner::default().fit_on(&ds, &[0, 0, 1, 1]).unwrap();
        assert!(m.terms().len() <= 2);
        assert!((m.predict(&[4.0, 2.0]) - (5.0 + 8.0 - 6.0)).abs() < 1e-6);
    }

    #[test]
    fn collinear_columns_still_fit_via_ridge() {
        let mut ds = Dataset::new(vec!["a".into(), "a2".into()], "y");
        for i in 0..30 {
            let a = i as f64;
            ds.push_row(vec![a, a], 4.0 * a).unwrap();
        }
        let m = LinRegLearner::without_elimination().fit(&ds).unwrap();
        assert!((m.predict(&[10.0, 10.0]) - 40.0).abs() < 1e-2);
    }

    #[test]
    fn predict_matrix_is_bitwise_identical_to_predict() {
        let ds = linear_data(60);
        let rows: Vec<Vec<f64>> = ds.iter().map(|r| r.values().to_vec()).collect();
        let m = LinRegLearner::default().fit(&ds).unwrap();
        let mut matrix = crate::FeatureMatrix::new(ds.n_attributes());
        for row in &rows {
            matrix.push_row(row);
        }
        let batch = m.predict_matrix(&matrix);
        for (row, &b) in rows.iter().zip(&batch) {
            assert!(m.predict(row).to_bits() == b.to_bits());
        }
    }

    #[test]
    fn adjusted_error_exceeds_training_mae() {
        let ds = linear_data(30);
        let m = LinRegLearner::default().fit(&ds).unwrap();
        assert!(m.adjusted_error() >= m.training_mae());
    }

    #[test]
    fn describe_contains_equation() {
        let ds = linear_data(50);
        let m = LinRegLearner::default().fit(&ds).unwrap();
        let d = m.describe();
        assert!(d.contains('a') || d.contains('b'));
        assert_eq!(m.name(), "LinearRegression");
    }

    #[test]
    fn constant_model_metadata() {
        let m = LinearModel::constant(9.0, vec!["x".into()], 1.5, 10);
        assert_eq!(m.intercept(), 9.0);
        assert_eq!(m.n_params(), 1);
        assert_eq!(m.n_train(), 10);
        assert!(m.adjusted_error() > 1.5);
        assert!(m.used_attributes().is_empty());
    }
}
