//! M5P model trees — the paper's chosen prediction algorithm.
//!
//! An M5P model (Quinlan's M5, with the M5′ refinements of Wang & Witten
//! that WEKA implements as `M5P`) is a binary decision tree whose inner
//! nodes test `attribute < value?` and whose leaves hold multiple linear
//! regression models. The paper selects it because system behaviour under
//! software aging is *piecewise linear*: "while a global behavior may be
//! highly nonlinear, it may be composed (or approximated by) a reasonable
//! number of linear patches" (Section 2.2).
//!
//! The implementation follows the published algorithm:
//!
//! 1. **Growth** — recursively split on the attribute/value pair maximising
//!    the *standard deviation reduction*
//!    `SDR = sd(T) − Σᵢ |Tᵢ|/|T| · sd(Tᵢ)`; stop when a node has fewer than
//!    `2 × min_instances` rows or its target deviation falls below 5 % of
//!    the root deviation.
//! 2. **Node models** — every node gets a linear model restricted to the
//!    attributes tested in the subtree below it (a plain mean at grown
//!    leaves), simplified by greedy term elimination under the pessimistic
//!    `(n + ν)/(n − ν)` error adjustment.
//! 3. **Pruning** — bottom-up, a subtree is replaced by its node model when
//!    the model's adjusted error does not exceed the subtree's.
//! 4. **Smoothing** — a leaf prediction `p` is filtered through each
//!    ancestor model `q` as `p ← (n·p + k·q)/(n + k)` with `k = 15`.
//!
//! Training is fully deterministic (ties break towards the lower attribute
//! index and threshold).
//!
//! # Training cost
//!
//! Growth presorts once per fit: a column-major copy of the attributes and
//! one `(value, row)`-ordered row list per attribute, partitioned stably at
//! every split, so a node's split search is one linear scan per attribute
//! instead of a sort. The regression tree shares this search. Each split
//! node's model gathers its candidate attributes' columns over the node's
//! rows once and accumulates their Gram matrix and `Aᵀy` once; every
//! term-elimination step solves the principal sub-matrix of the terms it
//! keeps and scores its model column by column, so no node rebuilds a
//! design matrix.
//!
//! [`Learner::fit_with`] keeps the presort in a [`FitContext`] for the
//! next fit. The adaptive router refits each class over a sliding window
//! through one context, so a refit sorts only the rows that arrived since
//! the last one and merges them into the rows that stayed. The context
//! keeps the last window's columns and sorted lists, and checks bit for
//! bit which rows stayed (the overlap is verified, never trusted). A
//! stayed row keeps its place, because dropping the departed rows shifts
//! every other row's index by the same amount; a tie between a stayed and
//! a fresh row goes to the stayed row, whose index is lower. So every list
//! equals a stable sort of the whole window, and [`Learner::fit`] is
//! `fit_with` on a fresh context, where every row is fresh.
//!
//! The model is bit-identical to sorting every node's rows and refitting a
//! rebuilt design at every elimination step: a node's presorted list is the
//! order a stable sort of its rows gives, so the scan sums the same targets
//! in the same order and finds the same SDR and threshold; every Gram
//! entry is the same row-order sum whichever terms remain; and each row's
//! prediction adds the same `coef·x` terms to the intercept in the same
//! order, summed into the MAE in row order. The golden digests in
//! `tests/golden.rs` pin the serialized models, and unit proptests hold
//! the fit to the per-node-sort reference and every `fit_with` through a
//! carried context to a fresh `fit`, byte for byte.
//!
//! # Example
//!
//! ```
//! use aging_dataset::Dataset;
//! use aging_ml::{m5p::M5pLearner, Learner, Regressor};
//!
//! // A piecewise-linear target: two regimes, like an aging system before
//! // and after a heap resize.
//! let mut ds = Dataset::new(vec!["mem".into()], "ttf");
//! for i in 0..200 {
//!     let mem = i as f64;
//!     let ttf = if mem < 100.0 { 5000.0 - 10.0 * mem } else { 8000.0 - 40.0 * mem };
//!     ds.push_row(vec![mem], ttf)?;
//! }
//! let model = M5pLearner::default().fit(&ds)?;
//! assert!((model.predict(&[50.0]) - 4500.0).abs() < 100.0);
//! assert!((model.predict(&[150.0]) - 2000.0).abs() < 200.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::linreg::{LinRegLearner, LinearModel};
use crate::split::{self, GrownNode};
use crate::{FitContext, Learner, MlError, Regressor};
use aging_dataset::{stats, Dataset};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration and entry point for training M5P model trees.
#[derive(Debug, Clone, PartialEq)]
pub struct M5pLearner {
    /// Minimum number of instances per leaf (WEKA's `-M`; the paper uses 10).
    pub min_instances: usize,
    /// Whether to prune the grown tree (WEKA's default: yes).
    pub pruning: bool,
    /// Whether to smooth predictions through ancestor models (default: yes).
    pub smoothing: bool,
    /// Growth stops when a node's target deviation is below this fraction of
    /// the root deviation (M5 uses 0.05).
    pub sd_fraction: f64,
    /// The smoothing constant `k` (M5 uses 15).
    pub smoothing_const: f64,
    /// Whether node models greedily drop low-importance terms (M5-style).
    pub eliminate_terms: bool,
}

impl Default for M5pLearner {
    fn default() -> Self {
        M5pLearner {
            min_instances: 4,
            pruning: true,
            smoothing: true,
            sd_fraction: 0.05,
            smoothing_const: 15.0,
            eliminate_terms: true,
        }
    }
}

impl M5pLearner {
    /// The configuration the paper reports: 10 instances per leaf.
    pub fn paper_default() -> Self {
        M5pLearner { min_instances: 10, ..Self::default() }
    }

    /// Builder-style setter for [`M5pLearner::min_instances`].
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn with_min_instances(mut self, m: usize) -> Self {
        assert!(m > 0, "min_instances must be positive");
        self.min_instances = m;
        self
    }

    /// Builder-style setter for [`M5pLearner::pruning`].
    pub fn with_pruning(mut self, on: bool) -> Self {
        self.pruning = on;
        self
    }

    /// Builder-style setter for [`M5pLearner::smoothing`].
    pub fn with_smoothing(mut self, on: bool) -> Self {
        self.smoothing = on;
        self
    }
}

/// One node of a fitted model tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        model: LinearModel,
        n: usize,
    },
    Split {
        attr: usize,
        threshold: f64,
        model: LinearModel,
        n: usize,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn n(&self) -> usize {
        match self {
            Node::Leaf { n, .. } | Node::Split { n, .. } => *n,
        }
    }

    fn n_leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => left.n_leaves() + right.n_leaves(),
        }
    }

    fn n_inner(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + left.n_inner() + right.n_inner(),
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    /// Gives every node model in the subtree the attribute names.
    fn name_models(&mut self, names: &[String]) {
        match self {
            Node::Leaf { model, .. } => model.set_attribute_names(names),
            Node::Split { model, left, right, .. } => {
                model.set_attribute_names(names);
                left.name_models(names);
                right.name_models(names);
            }
        }
    }
}

/// A fitted M5P model tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct M5pModel {
    root: Node,
    attribute_names: Vec<String>,
    smoothing: bool,
    smoothing_const: f64,
}

impl M5pModel {
    /// Number of leaves (the paper reports e.g. "33 leafs and 30 inner
    /// nodes" for Experiment 4.1).
    pub fn n_leaves(&self) -> usize {
        self.root.n_leaves()
    }

    /// Number of inner (split) nodes.
    pub fn n_inner_nodes(&self) -> usize {
        self.root.n_inner()
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Attribute names the model was trained with.
    pub fn attribute_names(&self) -> &[String] {
        &self.attribute_names
    }

    /// For every attribute used in a split: `(name, times used, shallowest
    /// depth at which it appears)`. Sorted by shallowest depth then name.
    ///
    /// This is the paper's root-cause signal (Section 4.4): the attributes
    /// tested near the root of the tree point at the resources involved in
    /// the aging.
    pub fn split_usage(&self) -> Vec<SplitUsage> {
        let mut map: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        fn walk(node: &Node, depth: usize, map: &mut BTreeMap<usize, (usize, usize)>) {
            if let Node::Split { attr, left, right, .. } = node {
                let entry = map.entry(*attr).or_insert((0, depth));
                entry.0 += 1;
                entry.1 = entry.1.min(depth);
                walk(left, depth + 1, map);
                walk(right, depth + 1, map);
            }
        }
        walk(&self.root, 0, &mut map);
        let mut usage: Vec<SplitUsage> = map
            .into_iter()
            .map(|(attr, (count, min_depth))| SplitUsage {
                attribute: self.attribute_names[attr].clone(),
                count,
                min_depth,
            })
            .collect();
        usage.sort_by(|a, b| a.min_depth.cmp(&b.min_depth).then(a.attribute.cmp(&b.attribute)));
        usage
    }

    /// Renders the tree in WEKA's indented style, with the leaf linear
    /// models listed below. `max_depth = None` dumps the whole tree.
    pub fn render(&self, max_depth: Option<usize>) -> String {
        let mut out = String::new();
        let mut leaf_models: Vec<String> = Vec::new();
        self.render_node(&self.root, 0, max_depth, &mut out, &mut leaf_models);
        out.push('\n');
        for lm in leaf_models {
            out.push_str(&lm);
            out.push('\n');
        }
        out
    }

    fn render_node(
        &self,
        node: &Node,
        depth: usize,
        max_depth: Option<usize>,
        out: &mut String,
        leaf_models: &mut Vec<String>,
    ) {
        let indent = "|   ".repeat(depth);
        match node {
            Node::Leaf { model, n } => {
                let id = leaf_models.len() + 1;
                out.push_str(&format!("{indent}LM{id} ({n} instances)\n"));
                leaf_models.push(format!("LM{id}: {}", model.describe()));
            }
            Node::Split { attr, threshold, left, right, n, .. } => {
                if max_depth.is_some_and(|m| depth >= m) {
                    out.push_str(&format!("{indent}... (subtree, {n} instances)\n"));
                    return;
                }
                let name = &self.attribute_names[*attr];
                out.push_str(&format!("{indent}{name} <= {threshold:.4} :\n"));
                self.render_node(left, depth + 1, max_depth, out, leaf_models);
                out.push_str(&format!("{indent}{name} >  {threshold:.4} :\n"));
                self.render_node(right, depth + 1, max_depth, out, leaf_models);
            }
        }
    }

    fn predict_unsmoothed(&self, x: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { model, .. } => return model.predict(x),
                Node::Split { attr, threshold, left, right, .. } => {
                    node = if x[*attr] <= *threshold { left } else { right };
                }
            }
        }
    }

    fn predict_smoothed(&self, x: &[f64]) -> f64 {
        self.predict_smoothed_with(x, &mut Vec::new())
    }

    /// Smoothed prediction with a caller-provided path buffer, so batched
    /// prediction amortises the allocation across rows. Arithmetic is
    /// identical to the single-shot path.
    fn predict_smoothed_with<'a>(&'a self, x: &[f64], path: &mut Vec<&'a Node>) -> f64 {
        // Collect the path of nodes from root to the chosen leaf.
        path.clear();
        let mut node = &self.root;
        loop {
            path.push(node);
            match node {
                Node::Leaf { .. } => break,
                Node::Split { attr, threshold, left, right, .. } => {
                    node = if x[*attr] <= *threshold { left } else { right };
                }
            }
        }
        // Leaf prediction, then filter up through ancestor models:
        // p <- (n_child * p + k * q_ancestor) / (n_child + k).
        let leaf = path.last().expect("path contains at least the root");
        let mut p = match leaf {
            Node::Leaf { model, .. } => model.predict(x),
            Node::Split { .. } => unreachable!("loop exits only at a leaf"),
        };
        let k = self.smoothing_const;
        for idx in (0..path.len() - 1).rev() {
            let child_n = path[idx + 1].n() as f64;
            let q = match path[idx] {
                Node::Split { model, .. } => model.predict(x),
                Node::Leaf { .. } => unreachable!("inner path nodes are splits"),
            };
            p = (child_n * p + k * q) / (child_n + k);
        }
        p
    }
}

impl Regressor for M5pModel {
    fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.attribute_names.len(),
            "M5P model expects {} attributes, got {}",
            self.attribute_names.len(),
            x.len()
        );
        if self.smoothing {
            self.predict_smoothed(x)
        } else {
            self.predict_unsmoothed(x)
        }
    }

    fn predict_matrix(&self, matrix: &crate::FeatureMatrix) -> Vec<f64> {
        // Reuse one smoothing-path buffer for the whole matrix: smoothing
        // walks root→leaf through `path` for every prediction, and the
        // per-call `Vec` allocation dominates single-row latency on the
        // shallow trees the paper produces. The flat row-major layout is
        // the one the fleet shards refill each epoch.
        assert_eq!(
            matrix.n_cols(),
            self.attribute_names.len(),
            "M5P model expects {} attributes, got {}",
            self.attribute_names.len(),
            matrix.n_cols()
        );
        let mut path: Vec<&Node> = Vec::with_capacity(self.depth() + 1);
        matrix
            .rows()
            .map(|row| {
                if self.smoothing {
                    self.predict_smoothed_with(row, &mut path)
                } else {
                    self.predict_unsmoothed(row)
                }
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "M5P"
    }

    fn describe(&self) -> String {
        self.render(None)
    }
}

/// How often and how shallowly an attribute is used in the tree's splits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitUsage {
    /// Attribute name.
    pub attribute: String,
    /// Number of splits testing this attribute.
    pub count: usize,
    /// Shallowest depth at which the attribute appears (0 = root).
    pub min_depth: usize,
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

impl Learner for M5pLearner {
    type Model = M5pModel;

    fn fit(&self, data: &Dataset) -> Result<M5pModel, MlError> {
        self.fit_with(data, &mut FitContext::default())
    }

    fn fit_with(&self, data: &Dataset, context: &mut FitContext) -> Result<M5pModel, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if self.min_instances == 0 {
            return Err(MlError::InvalidParameter("min_instances must be positive".into()));
        }
        let grown = split::grow(data, self.min_instances, self.sd_fraction, context);
        let linreg = LinRegLearner { ridge: 0.0, eliminate_terms: self.eliminate_terms };
        let mut root = self.finalize(data, &grown, &linreg);
        root.name_models(data.attribute_names());
        Ok(M5pModel {
            root,
            attribute_names: data.attribute_names().to_vec(),
            smoothing: self.smoothing,
            smoothing_const: self.smoothing_const,
        })
    }
}

impl M5pLearner {
    /// Bottom-up pass: fit node models (restricted to the attributes tested
    /// below each node), then prune when configured. The models are left
    /// unnamed, so only those that survive pruning get the attribute names.
    fn finalize(&self, data: &Dataset, grown: &GrownNode, linreg: &LinRegLearner) -> Node {
        match grown {
            GrownNode::Leaf { rows } => {
                // Per Quinlan's M5, a node's model may only use attributes
                // tested in the subtree below it; a grown leaf has no
                // subtree, so it gets the constant (mean) model. The
                // piecewise-linear expressive power comes from *pruning*:
                // collapsed subtrees keep the multi-attribute model fitted
                // at their root. Letting grown leaves fit multi-term models
                // on their handful of rows extrapolates catastrophically
                // outside the leaf region (verified on Experiment 4.4).
                let targets: Vec<f64> = rows.iter().map(|&i| data.target(i)).collect();
                let mean = stats::mean(&targets);
                let mae =
                    targets.iter().map(|t| (t - mean).abs()).sum::<f64>() / targets.len() as f64;
                Node::Leaf {
                    model: LinearModel::constant(mean, Vec::new(), mae, rows.len()),
                    n: rows.len(),
                }
            }
            GrownNode::Split { attr, threshold, rows, left, right } => {
                let left_node = self.finalize(data, left, linreg);
                let right_node = self.finalize(data, right, linreg);

                // Attributes referenced anywhere in this subtree.
                let mut attrs = vec![*attr];
                collect_split_attrs(left, &mut attrs);
                collect_split_attrs(right, &mut attrs);
                let model = linreg.fit_rows(data, rows, &attrs);

                if self.pruning {
                    let subtree_err = weighted_subtree_error(&left_node, &right_node);
                    if model.adjusted_error() <= subtree_err {
                        return Node::Leaf { model, n: rows.len() };
                    }
                }
                Node::Split {
                    attr: *attr,
                    threshold: *threshold,
                    model,
                    n: rows.len(),
                    left: Box::new(left_node),
                    right: Box::new(right_node),
                }
            }
        }
    }
}

fn collect_split_attrs(node: &GrownNode, out: &mut Vec<usize>) {
    if let GrownNode::Split { attr, left, right, .. } = node {
        out.push(*attr);
        collect_split_attrs(left, out);
        collect_split_attrs(right, out);
    }
}

/// Estimated (pessimistic) error of a finalized node.
fn node_error(node: &Node) -> f64 {
    match node {
        Node::Leaf { model, .. } => model.adjusted_error(),
        Node::Split { left, right, .. } => weighted_subtree_error(left, right),
    }
}

fn weighted_subtree_error(left: &Node, right: &Node) -> f64 {
    let nl = left.n() as f64;
    let nr = right.n() as f64;
    (nl * node_error(left) + nr * node_error(right)) / (nl + nr)
}

/// The fit [`M5pLearner::fit`] replaced, kept as the oracle it is held to:
/// per-node sorts during growth, and every node model fitted on a fresh
/// dataset holding just the node's rows with a design rebuilt on every
/// elimination step.
#[cfg(test)]
impl M5pLearner {
    pub(crate) fn fit_reference(&self, data: &Dataset) -> Result<M5pModel, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if self.min_instances == 0 {
            return Err(MlError::InvalidParameter("min_instances must be positive".into()));
        }
        let root_sd = data.target_std().expect("non-empty dataset");
        let all_rows: Vec<usize> = (0..data.len()).collect();
        let grown =
            split::reference::grow(data, all_rows, root_sd, self.min_instances, self.sd_fraction);
        let linreg = LinRegLearner { ridge: 0.0, eliminate_terms: self.eliminate_terms };
        let root = self.finalize_reference(data, &grown, &linreg);
        Ok(M5pModel {
            root,
            attribute_names: data.attribute_names().to_vec(),
            smoothing: self.smoothing,
            smoothing_const: self.smoothing_const,
        })
    }

    fn finalize_reference(
        &self,
        data: &Dataset,
        grown: &GrownNode,
        linreg: &LinRegLearner,
    ) -> Node {
        match grown {
            GrownNode::Leaf { rows } => {
                let subset = subset(data, rows);
                let mean = subset.target_mean().expect("leaf has rows");
                let mae = subset.targets().iter().map(|t| (t - mean).abs()).sum::<f64>()
                    / subset.len() as f64;
                Node::Leaf {
                    model: LinearModel::constant(
                        mean,
                        data.attribute_names().to_vec(),
                        mae,
                        rows.len(),
                    ),
                    n: rows.len(),
                }
            }
            GrownNode::Split { attr, threshold, rows, left, right } => {
                let left_node = self.finalize_reference(data, left, linreg);
                let right_node = self.finalize_reference(data, right, linreg);
                let mut attrs = vec![*attr];
                collect_split_attrs(left, &mut attrs);
                collect_split_attrs(right, &mut attrs);
                let subset = subset(data, rows);
                let model = linreg
                    .fit_on_reference(&subset, &attrs)
                    .expect("split node has at least 2*min_instances rows");
                if self.pruning {
                    let subtree_err = weighted_subtree_error(&left_node, &right_node);
                    if model.adjusted_error() <= subtree_err {
                        return Node::Leaf { model, n: rows.len() };
                    }
                }
                Node::Split {
                    attr: *attr,
                    threshold: *threshold,
                    model,
                    n: rows.len(),
                    left: Box::new(left_node),
                    right: Box::new(right_node),
                }
            }
        }
    }
}

#[cfg(test)]
fn subset(data: &Dataset, rows: &[usize]) -> Dataset {
    let mut out = Dataset::new(data.attribute_names().to_vec(), data.target_name().to_string());
    for &i in rows {
        out.push_row(data.row(i).values().to_vec(), data.target(i))
            .expect("subset rows come from a valid dataset");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-noise in [-0.5, 0.5).
    fn noise(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    }

    fn piecewise(n: usize) -> Dataset {
        let mut ds = Dataset::new(vec!["x".into(), "z".into()], "y");
        let mut s = 42u64;
        for i in 0..n {
            let x = i as f64 * 200.0 / n as f64;
            let z = noise(&mut s) * 10.0;
            let y = if x < 100.0 { 5000.0 - 10.0 * x } else { 8000.0 - 40.0 * x };
            ds.push_row(vec![x, z], y + noise(&mut s) * 20.0).unwrap();
        }
        ds
    }

    #[test]
    fn fits_piecewise_linear_data() {
        let ds = piecewise(400);
        let m = M5pLearner::default().fit(&ds).unwrap();
        assert!(m.n_leaves() >= 2, "expected at least 2 linear patches");
        assert!((m.predict(&[50.0, 0.0]) - 4500.0).abs() < 150.0);
        assert!((m.predict(&[150.0, 0.0]) - 2000.0).abs() < 250.0);
    }

    #[test]
    fn beats_linear_regression_on_piecewise_data() {
        let ds = piecewise(400);
        let m5p = M5pLearner::default().fit(&ds).unwrap();
        let lr = LinRegLearner::default().fit(&ds).unwrap();
        let mae = |m: &dyn Regressor| {
            ds.iter().map(|r| (m.predict(r.values()) - r.target()).abs()).sum::<f64>()
                / ds.len() as f64
        };
        assert!(
            mae(&m5p) < mae(&lr) / 2.0,
            "M5P MAE {} should be far below LR MAE {}",
            mae(&m5p),
            mae(&lr)
        );
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let mut ds = Dataset::new(vec!["x".into()], "y");
        for i in 0..50 {
            ds.push_row(vec![i as f64], 7.0).unwrap();
        }
        let m = M5pLearner::default().fit(&ds).unwrap();
        assert_eq!(m.n_leaves(), 1);
        assert_eq!(m.n_inner_nodes(), 0);
        assert_eq!(m.depth(), 0);
        assert_eq!(m.predict(&[3.0]), 7.0);
    }

    #[test]
    fn growth_terminates_when_best_boundary_is_adjacent_floats() {
        // Two adjacent representable doubles: the naive midpoint rounds
        // up to the larger one and the partition goes one-sided — pre-fix
        // this recursed forever (see `split::split_threshold`).
        let a = f64::from_bits(1.0f64.to_bits() + 1);
        let b = f64::from_bits(1.0f64.to_bits() + 2);
        assert_eq!((a + b) / 2.0, b, "pair chosen so the naive midpoint rounds up");
        let mut ds = Dataset::new(vec!["x".into()], "y");
        for _ in 0..10 {
            ds.push_row(vec![a], 0.0).unwrap();
            ds.push_row(vec![b], 100.0).unwrap();
        }
        let m =
            M5pLearner { pruning: false, smoothing: false, ..Default::default() }.fit(&ds).unwrap();
        assert_eq!(m.n_leaves(), 2);
        assert!((m.predict(&[a]) - 0.0).abs() < 1e-6);
        assert!((m.predict(&[b]) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn empty_dataset_is_error() {
        let ds = Dataset::new(vec!["x".into()], "y");
        assert!(matches!(M5pLearner::default().fit(&ds), Err(MlError::EmptyTrainingSet)));
    }

    #[test]
    fn zero_min_instances_is_rejected() {
        let mut ds = Dataset::new(vec!["x".into()], "y");
        ds.push_row(vec![1.0], 1.0).unwrap();
        let learner = M5pLearner { min_instances: 0, ..Default::default() };
        assert!(matches!(learner.fit(&ds), Err(MlError::InvalidParameter(_))));
    }

    #[test]
    fn min_instances_respected() {
        let ds = piecewise(200);
        let m = M5pLearner::default().with_min_instances(50).fit(&ds).unwrap();
        // With 200 rows and >=50 per leaf, at most 4 leaves are possible.
        assert!(m.n_leaves() <= 4);
    }

    #[test]
    fn predict_matrix_is_bitwise_identical_to_predict() {
        let ds = piecewise(400);
        let rows: Vec<Vec<f64>> = ds.iter().map(|r| r.values().to_vec()).collect();
        let mut matrix = crate::FeatureMatrix::new(ds.n_attributes());
        for row in &rows {
            matrix.push_row(row);
        }
        for smoothing in [true, false] {
            let m = M5pLearner::default().with_smoothing(smoothing).fit(&ds).unwrap();
            let batch = m.predict_matrix(&matrix);
            assert_eq!(batch.len(), rows.len());
            for (row, &b) in rows.iter().zip(&batch) {
                let single = m.predict(row);
                assert!(
                    single.to_bits() == b.to_bits(),
                    "smoothing={smoothing}: batch {b} != single {single}"
                );
            }
        }
        let empty = crate::FeatureMatrix::new(ds.n_attributes());
        let m = M5pLearner::default().fit(&ds).unwrap();
        assert!(m.predict_matrix(&empty).is_empty());
    }

    #[test]
    fn pruning_never_increases_leaves() {
        let ds = piecewise(300);
        let pruned = M5pLearner::default().with_pruning(true).fit(&ds).unwrap();
        let unpruned = M5pLearner::default().with_pruning(false).fit(&ds).unwrap();
        assert!(pruned.n_leaves() <= unpruned.n_leaves());
    }

    #[test]
    fn training_is_deterministic() {
        let ds = piecewise(250);
        let a = M5pLearner::default().fit(&ds).unwrap();
        let b = M5pLearner::default().fit(&ds).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn smoothing_changes_predictions_but_stays_close() {
        let ds = piecewise(300);
        let smooth = M5pLearner::default().with_smoothing(true).fit(&ds).unwrap();
        let raw = M5pLearner::default().with_smoothing(false).fit(&ds).unwrap();
        let x = [99.0, 0.0];
        let ps = smooth.predict(&x);
        let pr = raw.predict(&x);
        assert!((ps - pr).abs() < 500.0);
    }

    #[test]
    fn smoothing_reduces_discontinuity_at_split_boundary() {
        let ds = piecewise(400);
        let smooth = M5pLearner::default().with_smoothing(true).fit(&ds).unwrap();
        let raw = M5pLearner::default().with_smoothing(false).fit(&ds).unwrap();
        // Scan across the regime boundary and measure the largest jump
        // between adjacent predictions.
        let max_jump = |m: &M5pModel| {
            let mut worst: f64 = 0.0;
            let mut prev = m.predict(&[95.0, 0.0]);
            let mut x = 95.1;
            while x < 105.0 {
                let p = m.predict(&[x, 0.0]);
                worst = worst.max((p - prev).abs());
                prev = p;
                x += 0.1;
            }
            worst
        };
        assert!(max_jump(&smooth) <= max_jump(&raw) + 1e-9);
    }

    #[test]
    fn split_usage_reports_root_attribute_first() {
        let ds = piecewise(400);
        let m = M5pLearner::default().fit(&ds).unwrap();
        let usage = m.split_usage();
        assert!(!usage.is_empty());
        assert_eq!(usage[0].min_depth, 0);
        assert_eq!(usage[0].attribute, "x", "x drives the target, z is noise");
    }

    #[test]
    fn render_contains_splits_and_models() {
        let ds = piecewise(400);
        let m = M5pLearner::default().fit(&ds).unwrap();
        let dump = m.render(None);
        assert!(dump.contains("x <="));
        assert!(dump.contains("LM1"));
        let shallow = m.render(Some(1));
        assert!(shallow.len() <= dump.len());
    }

    #[test]
    fn predictions_are_finite_on_extrapolation() {
        let ds = piecewise(300);
        let m = M5pLearner::default().fit(&ds).unwrap();
        for x in [-1e6, -1.0, 0.0, 1e6] {
            assert!(m.predict(&[x, 0.0]).is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "expects 2 attributes")]
    fn wrong_arity_panics() {
        let ds = piecewise(100);
        let m = M5pLearner::default().fit(&ds).unwrap();
        let _ = m.predict(&[1.0]);
    }

    #[test]
    fn paper_default_uses_ten_instances() {
        assert_eq!(M5pLearner::paper_default().min_instances, 10);
    }

    #[test]
    fn small_dataset_becomes_single_leaf() {
        let mut ds = Dataset::new(vec!["x".into()], "y");
        for i in 0..5 {
            ds.push_row(vec![i as f64], i as f64 * 2.0).unwrap();
        }
        let m = M5pLearner::default().fit(&ds).unwrap();
        assert_eq!(m.n_leaves(), 1);
        assert!(m.predict(&[2.0]).is_finite());
    }
}
