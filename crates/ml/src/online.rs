//! Adaptive on-line learning wrapper.
//!
//! The paper's title promises *on-line* prediction and motivates M5P partly
//! by its "low training and prediction costs \[since\] we will eventually
//! want on-line processing". [`OnlineRegressor`] wraps any batch
//! [`Learner`] into an on-line one: labelled checkpoints stream in, are kept
//! in a bounded FIFO buffer, and the model is refitted every
//! `retrain_every` new observations.

use crate::{Learner, MlError, Regressor};
use aging_dataset::{Dataset, DatasetError};
use std::collections::VecDeque;

/// On-line wrapper around a batch learner.
///
/// # Example
///
/// ```
/// use aging_ml::{online::OnlineRegressor, linreg::LinRegLearner};
///
/// let mut online = OnlineRegressor::new(
///     LinRegLearner::default(),
///     vec!["x".into()],
///     "y",
///     100,  // buffer capacity
///     10,   // retrain every 10 observations
/// )?;
/// for i in 0..25 {
///     online.observe(vec![i as f64], 2.0 * i as f64)?;
/// }
/// let pred = online.predict(&[30.0]).expect("model trained after 25 observations");
/// assert!((pred - 60.0).abs() < 1.0);
/// # Ok::<(), aging_ml::MlError>(())
/// ```
#[derive(Debug)]
pub struct OnlineRegressor<L: Learner> {
    learner: L,
    attribute_names: Vec<String>,
    target_name: String,
    buffer: VecDeque<(Vec<f64>, f64)>,
    capacity: usize,
    retrain_every: usize,
    since_retrain: usize,
    model: Option<L::Model>,
    retrain_count: usize,
}

impl<L: Learner> OnlineRegressor<L> {
    /// Creates an on-line wrapper.
    ///
    /// `capacity` bounds the training buffer (oldest observations are
    /// evicted); `retrain_every` controls how often the model is refitted.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] when `capacity == 0` or
    /// `retrain_every == 0`.
    pub fn new(
        learner: L,
        attribute_names: Vec<String>,
        target_name: impl Into<String>,
        capacity: usize,
        retrain_every: usize,
    ) -> Result<Self, MlError> {
        if capacity == 0 {
            return Err(MlError::InvalidParameter("buffer capacity must be positive".into()));
        }
        if retrain_every == 0 {
            return Err(MlError::InvalidParameter("retrain_every must be positive".into()));
        }
        Ok(OnlineRegressor {
            learner,
            attribute_names,
            target_name: target_name.into(),
            buffer: VecDeque::with_capacity(capacity),
            capacity,
            retrain_every,
            since_retrain: 0,
            model: None,
            retrain_count: 0,
        })
    }

    /// Feeds one labelled checkpoint; retrains when due.
    ///
    /// # Errors
    ///
    /// Propagates learner fitting failures. A row of the wrong arity, or
    /// with a NaN or infinite value or target, is rejected with the
    /// dataset error a [`Dataset`] would raise for it, and is not buffered.
    pub fn observe(&mut self, values: Vec<f64>, target: f64) -> Result<(), MlError> {
        if values.len() != self.attribute_names.len() {
            return Err(MlError::Dataset(DatasetError::ArityMismatch {
                expected: self.attribute_names.len(),
                got: values.len(),
            }));
        }
        if let Some(bad) = values.iter().position(|v| !v.is_finite()) {
            let column = self.attribute_names[bad].clone();
            return Err(MlError::Dataset(DatasetError::NonFinite { column }));
        }
        if !target.is_finite() {
            let column = self.target_name.clone();
            return Err(MlError::Dataset(DatasetError::NonFinite { column }));
        }
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
        }
        self.buffer.push_back((values, target));
        self.since_retrain += 1;
        if self.since_retrain >= self.retrain_every {
            self.retrain()?;
        }
        Ok(())
    }

    /// Forces a retrain on the current buffer contents.
    ///
    /// # Errors
    ///
    /// Propagates learner fitting failures.
    pub fn retrain(&mut self) -> Result<(), MlError> {
        let mut ds = Dataset::new(self.attribute_names.clone(), self.target_name.clone());
        for (values, target) in &self.buffer {
            ds.push_row(values.clone(), *target)?;
        }
        if ds.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        self.model = Some(self.learner.fit(&ds)?);
        self.since_retrain = 0;
        self.retrain_count += 1;
        Ok(())
    }

    /// Predicts with the latest model; `None` before the first retrain.
    pub fn predict(&self, x: &[f64]) -> Option<f64> {
        self.model.as_ref().map(|m| m.predict(x))
    }

    /// The latest fitted model, if any.
    pub fn model(&self) -> Option<&L::Model> {
        self.model.as_ref()
    }

    /// Number of observations currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// The buffered observations, oldest first — `(features, target)` in
    /// eviction order. Borrowing iterator, so consumers (e.g. a replay
    /// digest over the sliding window) never copy the rows.
    pub fn rows(&self) -> impl Iterator<Item = (&[f64], f64)> {
        self.buffer.iter().map(|(values, target)| (values.as_slice(), *target))
    }

    /// How many times the model has been (re)fitted.
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }

    /// Clears the buffer and drops the model (e.g. after a rejuvenation,
    /// when history no longer describes the process).
    pub fn reset(&mut self) {
        self.buffer.clear();
        self.model = None;
        self.since_retrain = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinRegLearner;
    use crate::m5p::M5pLearner;

    fn online_lr(cap: usize, every: usize) -> OnlineRegressor<LinRegLearner> {
        OnlineRegressor::new(LinRegLearner::default(), vec!["x".into()], "y", cap, every).unwrap()
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(OnlineRegressor::new(LinRegLearner::default(), vec![], "y", 0, 1).is_err());
        assert!(OnlineRegressor::new(LinRegLearner::default(), vec![], "y", 1, 0).is_err());
    }

    #[test]
    fn no_model_before_first_retrain() {
        let mut o = online_lr(100, 10);
        for i in 0..9 {
            o.observe(vec![i as f64], i as f64).unwrap();
        }
        assert!(o.predict(&[1.0]).is_none());
        o.observe(vec![9.0], 9.0).unwrap();
        assert!(o.predict(&[1.0]).is_some());
        assert_eq!(o.retrain_count(), 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut o = online_lr(10, 5);
        assert!(o.observe(vec![1.0, 2.0], 0.0).is_err());
    }

    #[test]
    fn non_finite_rows_rejected_unbuffered() {
        // A buffered NaN would fail every retrain until it was evicted.
        let mut o = online_lr(10, 2);
        for (x, y) in [(f64::NAN, 1.0), (f64::INFINITY, 1.0), (1.0, f64::NAN)] {
            let err = o.observe(vec![x], y).unwrap_err();
            assert!(matches!(err, MlError::Dataset(DatasetError::NonFinite { .. })), "{err}");
        }
        assert_eq!(o.buffered(), 0);
        o.observe(vec![1.0], 2.0).unwrap();
        o.observe(vec![2.0], 4.0).unwrap();
        assert_eq!(o.retrain_count(), 1, "the two finite rows make the first retrain quota");
    }

    #[test]
    fn adapts_to_regime_change() {
        // Slope 2 for 100 points, then slope -5: after the buffer fills with
        // the new regime the prediction must follow it.
        let mut o = online_lr(50, 10);
        for i in 0..100 {
            o.observe(vec![i as f64], 2.0 * i as f64).unwrap();
        }
        for i in 100..200 {
            o.observe(vec![i as f64], 1000.0 - 5.0 * i as f64).unwrap();
        }
        let pred = o.predict(&[210.0]).unwrap();
        let truth = 1000.0 - 5.0 * 210.0;
        assert!(
            (pred - truth).abs() < 10.0,
            "online model should track the new regime: pred {pred}, truth {truth}"
        );
    }

    #[test]
    fn buffer_is_bounded() {
        let mut o = online_lr(20, 5);
        for i in 0..100 {
            o.observe(vec![i as f64], i as f64).unwrap();
        }
        assert_eq!(o.buffered(), 20);
    }

    #[test]
    fn reset_clears_state() {
        let mut o = online_lr(10, 2);
        o.observe(vec![1.0], 1.0).unwrap();
        o.observe(vec![2.0], 2.0).unwrap();
        assert!(o.predict(&[1.0]).is_some());
        o.reset();
        assert!(o.predict(&[1.0]).is_none());
        assert_eq!(o.buffered(), 0);
    }

    #[test]
    fn manual_retrain_on_empty_buffer_errors() {
        let mut o = online_lr(10, 2);
        assert!(matches!(o.retrain(), Err(MlError::EmptyTrainingSet)));
    }

    #[test]
    fn works_with_m5p() {
        let mut o =
            OnlineRegressor::new(M5pLearner::default(), vec!["x".into()], "y", 200, 50).unwrap();
        for i in 0..200 {
            let x = i as f64;
            let y = if x < 100.0 { x } else { 300.0 - 2.0 * x };
            o.observe(vec![x], y).unwrap();
        }
        let m = o.model().expect("trained");
        assert!(m.n_leaves() >= 1);
        assert!(o.predict(&[50.0]).unwrap().is_finite());
    }
}
