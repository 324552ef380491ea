//! Plain regression trees (constant leaves) — the "Decision Trees"
//! comparator from the authors' preliminary study (ICAS'09, ref. \[14\] of
//! the paper), which M5P outperformed.
//!
//! Growth is identical to M5P's (standard-deviation-reduction splits);
//! leaves predict the mean of their training targets, and pruning uses the
//! same pessimistic `(n + ν)/(n − ν)` criterion with ν = 1.
//!
//! Training cost: growth runs M5P's split search, which presorts each
//! attribute once per fit and partitions the sorted row lists stably at
//! every split, so each node scans its rows once per attribute in linear
//! time. Through [`Learner::fit_with`] the presort reuses the previous
//! fit's: a [`FitContext`] keeps the last window's columns and sorted
//! lists, verifies bit for bit which rows the new data keeps, and sorts
//! only the fresh rows, merged in with ties going to the kept rows. The
//! tree is bit-identical to one grown by sorting every node's rows,
//! because each node's presorted list is exactly that sorted order (see
//! the M5P module docs); unit proptests hold the two to the same
//! serialized model, with and without a carried context.

use crate::split::{self, GrownNode};
use crate::{FitContext, Learner, MlError, Regressor};
use aging_dataset::{stats, Dataset};
use serde::{Deserialize, Serialize};

/// Configuration for training [`RegressionTree`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct RegTreeLearner {
    /// Minimum number of instances per leaf.
    pub min_instances: usize,
    /// Whether to prune bottom-up.
    pub pruning: bool,
    /// Growth stops below this fraction of the root target deviation.
    pub sd_fraction: f64,
}

impl Default for RegTreeLearner {
    fn default() -> Self {
        RegTreeLearner { min_instances: 4, pruning: true, sd_fraction: 0.05 }
    }
}

/// A fitted regression tree with constant leaf predictions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    root: RtNode,
    attribute_names: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum RtNode {
    Leaf { value: f64, n: usize, mae: f64 },
    Split { attr: usize, threshold: f64, n: usize, left: Box<RtNode>, right: Box<RtNode> },
}

impl RtNode {
    fn n(&self) -> usize {
        match self {
            RtNode::Leaf { n, .. } | RtNode::Split { n, .. } => *n,
        }
    }

    fn n_leaves(&self) -> usize {
        match self {
            RtNode::Leaf { .. } => 1,
            RtNode::Split { left, right, .. } => left.n_leaves() + right.n_leaves(),
        }
    }

    fn error(&self) -> f64 {
        match self {
            RtNode::Leaf { n, mae, .. } => {
                let n = *n as f64;
                if n <= 1.0 {
                    f64::INFINITY
                } else {
                    mae * (n + 1.0) / (n - 1.0)
                }
            }
            RtNode::Split { left, right, .. } => {
                let nl = left.n() as f64;
                let nr = right.n() as f64;
                (nl * left.error() + nr * right.error()) / (nl + nr)
            }
        }
    }
}

impl RegressionTree {
    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.root.n_leaves()
    }
}

impl Regressor for RegressionTree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                RtNode::Leaf { value, .. } => return *value,
                RtNode::Split { attr, threshold, left, right, .. } => {
                    node = if x[*attr] <= *threshold { left } else { right };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "RegressionTree"
    }
}

impl Learner for RegTreeLearner {
    type Model = RegressionTree;

    fn fit(&self, data: &Dataset) -> Result<RegressionTree, MlError> {
        self.fit_with(data, &mut FitContext::default())
    }

    fn fit_with(
        &self,
        data: &Dataset,
        context: &mut FitContext,
    ) -> Result<RegressionTree, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if self.min_instances == 0 {
            return Err(MlError::InvalidParameter("min_instances must be positive".into()));
        }
        let grown = split::grow(data, self.min_instances, self.sd_fraction, context);
        let root = self.finalize(data, &grown);
        Ok(RegressionTree { root, attribute_names: data.attribute_names().to_vec() })
    }
}

/// A leaf predicting the mean of `rows`' targets.
fn leaf(data: &Dataset, rows: &[usize]) -> RtNode {
    let targets: Vec<f64> = rows.iter().map(|&i| data.target(i)).collect();
    let value = stats::mean(&targets);
    let mae = targets.iter().map(|t| (t - value).abs()).sum::<f64>() / targets.len() as f64;
    RtNode::Leaf { value, n: rows.len(), mae }
}

impl RegTreeLearner {
    /// Bottom-up pass: mean leaves, and subtrees pruned to a leaf when the
    /// leaf's pessimistic error does not exceed theirs.
    fn finalize(&self, data: &Dataset, grown: &GrownNode) -> RtNode {
        match grown {
            GrownNode::Leaf { rows } => leaf(data, rows),
            GrownNode::Split { attr, threshold, rows, left, right } => {
                let left = self.finalize(data, left);
                let right = self.finalize(data, right);
                let split = RtNode::Split {
                    attr: *attr,
                    threshold: *threshold,
                    n: rows.len(),
                    left: Box::new(left),
                    right: Box::new(right),
                };
                if self.pruning {
                    let as_leaf = leaf(data, rows);
                    if as_leaf.error() <= split.error() {
                        return as_leaf;
                    }
                }
                split
            }
        }
    }
}

/// The fit [`RegTreeLearner::fit`] replaced, kept as the oracle it is held
/// to: growth and pruning in one recursion, with per-node sorts.
#[cfg(test)]
impl RegTreeLearner {
    pub(crate) fn fit_reference(&self, data: &Dataset) -> Result<RegressionTree, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if self.min_instances == 0 {
            return Err(MlError::InvalidParameter("min_instances must be positive".into()));
        }
        let root_sd = data.target_std().expect("non-empty dataset");
        let rows: Vec<usize> = (0..data.len()).collect();
        let root = self.grow_reference(data, rows, root_sd);
        Ok(RegressionTree { root, attribute_names: data.attribute_names().to_vec() })
    }

    fn grow_reference(&self, data: &Dataset, rows: Vec<usize>, root_sd: f64) -> RtNode {
        let n = rows.len();
        if n < 2 * self.min_instances {
            return leaf(data, &rows);
        }
        let targets: Vec<f64> = rows.iter().map(|&i| data.target(i)).collect();
        let sd = stats::std_dev(&targets);
        if sd <= self.sd_fraction * root_sd || sd == 0.0 {
            return leaf(data, &rows);
        }
        let Some((attr, threshold)) =
            split::reference::best_split(data, &rows, sd, self.min_instances)
        else {
            return leaf(data, &rows);
        };
        let (lrows, rrows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&i| data.value(i, attr) <= threshold);
        if lrows.is_empty() || rrows.is_empty() {
            return leaf(data, &rows);
        }
        let left = self.grow_reference(data, lrows, root_sd);
        let right = self.grow_reference(data, rrows, root_sd);
        let split =
            RtNode::Split { attr, threshold, n, left: Box::new(left), right: Box::new(right) };
        if self.pruning {
            let as_leaf = leaf(data, &rows);
            if as_leaf.error() <= split.error() {
                return as_leaf;
            }
        }
        split
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split_threshold;

    fn step_data() -> Dataset {
        let mut ds = Dataset::new(vec!["x".into()], "y");
        for i in 0..100 {
            let x = i as f64;
            ds.push_row(vec![x], if x < 50.0 { 10.0 } else { 90.0 }).unwrap();
        }
        ds
    }

    #[test]
    fn learns_step_function() {
        let t = RegTreeLearner::default().fit(&step_data()).unwrap();
        assert!((t.predict(&[10.0]) - 10.0).abs() < 1e-9);
        assert!((t.predict(&[80.0]) - 90.0).abs() < 1e-9);
        assert_eq!(t.n_leaves(), 2);
    }

    #[test]
    fn constant_leaves_cannot_extrapolate_slopes() {
        // On truly linear data, a regression tree staircases: its prediction
        // at the extremes equals a training-range mean — this is exactly why
        // the paper's preliminary study found M5P better.
        let mut ds = Dataset::new(vec!["x".into()], "y");
        for i in 0..100 {
            ds.push_row(vec![i as f64], 3.0 * i as f64).unwrap();
        }
        let t = RegTreeLearner::default().fit(&ds).unwrap();
        let p = t.predict(&[1000.0]);
        assert!(p <= 3.0 * 99.0 + 1e-9, "constant leaf cannot exceed max training target");
    }

    /// Two adjacent representable doubles whose naive midpoint
    /// `(a + b) / 2` rounds (ties-to-even) up to `b`.
    fn adjacent_pair() -> (f64, f64) {
        let a = f64::from_bits(1.0f64.to_bits() + 1);
        let b = f64::from_bits(1.0f64.to_bits() + 2);
        assert_eq!((a + b) / 2.0, b, "pair chosen so the naive midpoint rounds up");
        (a, b)
    }

    #[test]
    fn split_threshold_always_partitions_two_sided() {
        let (a, b) = adjacent_pair();
        let t = split_threshold(a, b);
        assert!((a..b).contains(&t), "threshold {t} must leave b strictly right");
        // Huge same-sign values: the naive midpoint overflows to ∞.
        let t = split_threshold(f64::MAX / 1.5, f64::MAX);
        assert!((f64::MAX / 1.5..f64::MAX).contains(&t));
        // Opposite-sign extremes: `hi - lo` overflows; fall back to `lo`.
        let t = split_threshold(f64::MIN, f64::MAX);
        assert!((f64::MIN..f64::MAX).contains(&t));
        // The ordinary case is still the midpoint.
        assert_eq!(split_threshold(1.0, 3.0), 2.0);
    }

    #[test]
    fn growth_terminates_when_best_boundary_is_adjacent_floats() {
        // Pre-fix, the threshold between two adjacent doubles rounded up
        // to the larger one, the `<= threshold` partition put every row
        // on the left, and `grow` recursed forever on the same rows —
        // a stack overflow in release builds.
        let (a, b) = adjacent_pair();
        let mut ds = Dataset::new(vec!["x".into()], "y");
        for _ in 0..10 {
            ds.push_row(vec![a], 0.0).unwrap();
            ds.push_row(vec![b], 100.0).unwrap();
        }
        let t = RegTreeLearner { pruning: false, ..Default::default() }.fit(&ds).unwrap();
        assert_eq!(t.n_leaves(), 2);
        assert!((t.predict(&[a]) - 0.0).abs() < 1e-9);
        assert!((t.predict(&[b]) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_is_error_and_zero_min_rejected() {
        let ds = Dataset::new(vec!["x".into()], "y");
        assert!(matches!(RegTreeLearner::default().fit(&ds), Err(MlError::EmptyTrainingSet)));
        let mut one = Dataset::new(vec!["x".into()], "y");
        one.push_row(vec![0.0], 0.0).unwrap();
        let bad = RegTreeLearner { min_instances: 0, ..Default::default() };
        assert!(matches!(bad.fit(&one), Err(MlError::InvalidParameter(_))));
    }

    #[test]
    fn pruning_collapses_pure_noise() {
        // Targets independent of x: pruning should collapse to few leaves.
        let mut ds = Dataset::new(vec!["x".into()], "y");
        let mut s = 9u64;
        for i in 0..200 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let noise = ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            ds.push_row(vec![i as f64], noise).unwrap();
        }
        let pruned = RegTreeLearner::default().fit(&ds).unwrap();
        let unpruned = RegTreeLearner { pruning: false, ..Default::default() }.fit(&ds).unwrap();
        assert!(pruned.n_leaves() <= unpruned.n_leaves());
    }

    #[test]
    fn deterministic() {
        let ds = step_data();
        let a = RegTreeLearner::default().fit(&ds).unwrap();
        let b = RegTreeLearner::default().fit(&ds).unwrap();
        assert_eq!(a, b);
    }
}
