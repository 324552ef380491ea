//! Hand-coded machine-learning algorithms for software-aging prediction.
//!
//! This crate reimplements, from scratch, every learner the DSN'10 paper
//! *"Adaptive on-line software aging prediction based on Machine Learning"*
//! uses or compares against:
//!
//! - [`m5p`]: the paper's chosen algorithm — **M5P model trees** (a binary
//!   decision tree with multiple-linear-regression models at the leaves),
//!   including standard-deviation-reduction growth, coefficient
//!   simplification, pessimistic pruning and smoothing, per Quinlan's M5 and
//!   Wang & Witten's M5′,
//! - [`linreg`]: the **linear regression** baseline of Tables 3 and 4,
//! - [`regtree`]: the plain **regression tree** from the authors'
//!   preliminary comparison (ICAS'09),
//! - [`naive`]: the closed-form slope predictor of the paper's Eq. (1),
//! - [`arma`]: the ARMA time-series comparator from the related work
//!   (Li, Vaidyanathan & Trivedi),
//! - [`eval`]: the paper's accuracy metrics — MAE, S-MAE (±10 % security
//!   margin), PRE-MAE and POST-MAE (last-10-minutes split),
//! - [`board`]: the *prediction board* ensemble sketched in the paper's
//!   future work,
//! - [`bagging`] / [`gbrt`] / [`knn`]: the "more sophisticated" techniques
//!   the paper's Section 1 names (bagging, boosting) plus an
//!   instance-based comparator,
//! - [`segment`]: the piecewise-linear anomaly/change detector of the
//!   related work (Cherkasova et al., DSN'08),
//! - [`cluster`]: seeded k-means + silhouette scoring over standardised
//!   vectors — the machinery behind automatic service-class discovery,
//! - [`matrix`]: contiguous row-major feature matrices for allocation-free
//!   batched inference ([`Regressor::predict_matrix`]).
//!
//! # Quickstart
//!
//! ```
//! use aging_dataset::Dataset;
//! use aging_ml::{m5p::M5pLearner, Learner, Regressor};
//!
//! let mut ds = Dataset::new(vec!["x".into()], "y");
//! for i in 0..100 {
//!     let x = i as f64;
//!     let y = if x < 50.0 { 2.0 * x } else { 300.0 - 4.0 * x };
//!     ds.push_row(vec![x], y)?;
//! }
//! let model = M5pLearner::default().fit(&ds)?;
//! let pred = model.predict(&[25.0]);
//! assert!((pred - 50.0).abs() < 15.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arma;
pub mod bagging;
pub mod board;
pub mod cluster;
pub mod eval;
pub mod gbrt;
pub mod knn;
pub(crate) mod linalg;
pub mod linreg;
pub mod m5p;
pub mod matrix;
pub mod naive;
pub mod regtree;
pub mod segment;
pub(crate) mod split;

mod error;
pub use error::MlError;
pub use matrix::FeatureMatrix;
pub use split::FitContext;

use aging_dataset::Dataset;
use std::sync::Arc;

/// A fitted regression model: maps an attribute vector to a real prediction.
///
/// All learners in this crate produce `Regressor`s; the trait is
/// object-safe so heterogeneous models can sit together on a
/// [`board::PredictionBoard`].
pub trait Regressor: std::fmt::Debug + Send + Sync {
    /// Predicts the target for the attribute vector `x`.
    ///
    /// Implementations must accept any `x` whose length equals the number of
    /// attributes the model was trained on and must return a finite value.
    ///
    /// # Panics
    ///
    /// May panic if `x.len()` differs from the training arity.
    fn predict(&self, x: &[f64]) -> f64;

    /// Predicts the target for every row of a contiguous row-major
    /// [`FeatureMatrix`] — the batched inference path of the fleet shard
    /// hot loop.
    ///
    /// The result has one prediction per row, in order, **bitwise-identical**
    /// to calling [`Regressor::predict`] row by row (callers such as the
    /// fleet engine rely on batched and per-sample paths being
    /// interchangeable). The default implementation maps
    /// [`Regressor::predict`]; models whose per-call setup can be amortised
    /// across rows (e.g. M5P's smoothing-path buffer) override it.
    ///
    /// # Panics
    ///
    /// May panic if the matrix width differs from the training arity.
    fn predict_matrix(&self, matrix: &FeatureMatrix) -> Vec<f64> {
        matrix.rows().map(|row| self.predict(row)).collect()
    }

    /// Short human-readable name of the model family (e.g. `"M5P"`).
    fn name(&self) -> &'static str;

    /// A human-readable description of the fitted model, suitable for the
    /// paper's root-cause inspection (Section 4.4). Default: the `Debug`
    /// representation.
    fn describe(&self) -> String {
        format!("{self:?}")
    }
}

/// A learning algorithm: fits a [`Regressor`] to a [`Dataset`].
pub trait Learner {
    /// The concrete model type this learner produces.
    type Model: Regressor;

    /// Fits a model to `data`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] when `data` has no rows, or
    /// other [`MlError`] variants specific to the algorithm.
    fn fit(&self, data: &Dataset) -> Result<Self::Model, MlError>;

    /// Fits a model to `data`, reusing what `context` kept from the
    /// previous fit through it, and leaves `data`'s presorted window in
    /// `context` for the next one. The model equals [`Learner::fit`]'s bit
    /// for bit, whatever the context holds; refits over a sliding window
    /// get cheaper. The default ignores the context and calls
    /// [`Learner::fit`]; the tree learners reuse it.
    ///
    /// # Errors
    ///
    /// Same as [`Learner::fit`].
    fn fit_with(&self, data: &Dataset, context: &mut FitContext) -> Result<Self::Model, MlError> {
        let _ = context;
        self.fit(data)
    }

    /// Fits and boxes the model, for heterogeneous collections.
    ///
    /// # Errors
    ///
    /// Same as [`Learner::fit`].
    fn fit_boxed(&self, data: &Dataset) -> Result<Box<dyn Regressor>, MlError>
    where
        Self::Model: 'static,
    {
        Ok(Box::new(self.fit(data)?))
    }
}

/// An object-safe training handle: the learner-agnostic counterpart of
/// [`Learner`], usable behind `Arc<dyn DynLearner>`.
///
/// [`Learner`] carries an associated `Model` type and therefore cannot be a
/// trait object; services that must be generic over the training algorithm
/// at *runtime* (e.g. a fleet model service that can be backed by M5P,
/// linear regression or GBRT from the same code path) hold a
/// `Arc<dyn DynLearner>` instead. Every `Learner` whose model type is
/// `'static` gets this implementation for free via the blanket impl.
pub trait DynLearner: std::fmt::Debug + Send + Sync {
    /// Fits a boxed model to `data`.
    ///
    /// # Errors
    ///
    /// Same as [`Learner::fit`].
    fn fit_dyn(&self, data: &Dataset) -> Result<Box<dyn Regressor>, MlError>;

    /// [`DynLearner::fit_dyn`] through a [`FitContext`], as
    /// [`Learner::fit_with`]. The default ignores the context and calls
    /// [`DynLearner::fit_dyn`].
    ///
    /// # Errors
    ///
    /// Same as [`Learner::fit`].
    fn fit_dyn_with(
        &self,
        data: &Dataset,
        context: &mut FitContext,
    ) -> Result<Box<dyn Regressor>, MlError> {
        let _ = context;
        self.fit_dyn(data)
    }
}

impl<L> DynLearner for L
where
    L: Learner + std::fmt::Debug + Send + Sync,
    L::Model: 'static,
{
    fn fit_dyn(&self, data: &Dataset) -> Result<Box<dyn Regressor>, MlError> {
        self.fit_boxed(data)
    }

    fn fit_dyn_with(
        &self,
        data: &Dataset,
        context: &mut FitContext,
    ) -> Result<Box<dyn Regressor>, MlError> {
        Ok(Box::new(self.fit_with(data, context)?))
    }
}

impl Regressor for Arc<dyn Regressor> {
    fn predict(&self, x: &[f64]) -> f64 {
        (**self).predict(x)
    }

    fn predict_matrix(&self, matrix: &FeatureMatrix) -> Vec<f64> {
        (**self).predict_matrix(matrix)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// Declarative learner choice for runtime-configured model services.
///
/// Per-class adaptation (a router serving heterogeneous service classes)
/// needs to name a training algorithm in *configuration* — a spec file, a
/// JSON fleet description — rather than in code. `LearnerKind` is that
/// name: a serialisable tag that [`LearnerKind::learner`] turns into a
/// ready [`DynLearner`] with the defaults this workspace uses everywhere
/// (M5P with the paper's settings; baseline linear regression; GBRT).
///
/// # Example
///
/// ```
/// use aging_ml::LearnerKind;
///
/// let learner = LearnerKind::M5p.learner();
/// let mut ds = aging_dataset::Dataset::new(vec!["x".into()], "y");
/// for i in 0..40 {
///     ds.push_row(vec![i as f64], 3.0 * i as f64)?;
/// }
/// let model = learner.fit_dyn(&ds)?;
/// assert!((model.predict(&[10.0]) - 30.0).abs() < 1.0);
/// # Ok::<(), aging_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LearnerKind {
    /// M5P model trees with the paper's settings
    /// (`m5p::M5pLearner::paper_default`).
    M5p,
    /// The linear-regression baseline (`linreg::LinRegLearner::default`).
    LinReg,
    /// Gradient-boosted regression trees (`gbrt::GbrtLearner::default`).
    Gbrt,
}

impl LearnerKind {
    /// Every kind, in declaration order — the iteration surface for
    /// search spaces and CLI flag validation.
    pub const ALL: [LearnerKind; 3] = [LearnerKind::M5p, LearnerKind::LinReg, LearnerKind::Gbrt];

    /// Builds a fresh shared learner of this kind.
    pub fn learner(&self) -> Arc<dyn DynLearner> {
        match self {
            LearnerKind::M5p => Arc::new(m5p::M5pLearner::paper_default()),
            LearnerKind::LinReg => Arc::new(linreg::LinRegLearner::default()),
            LearnerKind::Gbrt => Arc::new(gbrt::GbrtLearner::default()),
        }
    }

    /// The kind's display name.
    pub fn name(&self) -> &'static str {
        match self {
            LearnerKind::M5p => "M5P",
            LearnerKind::LinReg => "LinearRegression",
            LearnerKind::Gbrt => "GBRT",
        }
    }

    /// The inverse of [`LearnerKind::name`]: resolves a display name (or
    /// the common short aliases `m5p`, `linreg`, `gbrt`) back to its kind,
    /// case-insensitively. `None` for unknown names — declarative
    /// configuration (search spaces, `--tune` flags) should reject rather
    /// than guess.
    pub fn from_name(name: &str) -> Option<LearnerKind> {
        match name.to_ascii_lowercase().as_str() {
            "m5p" => Some(LearnerKind::M5p),
            "linearregression" | "linreg" => Some(LearnerKind::LinReg),
            "gbrt" => Some(LearnerKind::Gbrt),
            _ => None,
        }
    }
}

#[cfg(test)]
mod learner_kind_tests {
    use super::LearnerKind;

    #[test]
    fn from_name_round_trips_every_kind() {
        for kind in LearnerKind::ALL {
            assert_eq!(LearnerKind::from_name(kind.name()), Some(kind), "{}", kind.name());
        }
    }

    #[test]
    fn from_name_is_case_insensitive_and_accepts_aliases() {
        assert_eq!(LearnerKind::from_name("m5p"), Some(LearnerKind::M5p));
        assert_eq!(LearnerKind::from_name("LINREG"), Some(LearnerKind::LinReg));
        assert_eq!(LearnerKind::from_name("gbrt"), Some(LearnerKind::Gbrt));
        assert_eq!(LearnerKind::from_name("linearregression"), Some(LearnerKind::LinReg));
    }

    #[test]
    fn from_name_rejects_unknown_names() {
        assert_eq!(LearnerKind::from_name(""), None);
        assert_eq!(LearnerKind::from_name("m5"), None);
        assert_eq!(LearnerKind::from_name("random-forest"), None);
    }
}
