//! Tree growth shared by [`crate::m5p`] and [`crate::regtree`]: recursive
//! binary splitting on the attribute/value pair that maximises the standard
//! deviation reduction.
//!
//! The split search presorts once per fit (SLIQ's attribute lists: Mehta,
//! Agrawal & Rissanen, EDBT 1996). It takes a column-major copy of the
//! attributes and sorts one row-index list per attribute by `(value, row)`,
//! plus one list in plain row order. Every node owns the same contiguous
//! segment of every list; a split partitions each segment stably into the
//! children's segments, so every list stays sorted and a node's split scan
//! is one linear pass per attribute.
//!
//! A node's segment of an attribute list is exactly the order a stable
//! sort of the node's ascending row list by that attribute gives: rows tie
//! only on bit-equal values, and both orders break those ties by row. The
//! scan therefore visits the same targets in the same order as a per-node
//! sort, accumulates the same prefix sums and finds the same SDR and
//! threshold, bit for bit.

use aging_dataset::{stats, Dataset};

/// Tree skeleton produced by the growth phase: each node's row indices (in
/// ascending order) plus the chosen split. The learners fit their node
/// values or models in a second, bottom-up pass.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) enum GrownNode {
    Leaf {
        rows: Vec<usize>,
    },
    Split {
        attr: usize,
        threshold: f64,
        rows: Vec<usize>,
        left: Box<GrownNode>,
        right: Box<GrownNode>,
    },
}

/// Split threshold between two adjacent sorted attribute values.
///
/// The naive midpoint `(lo + hi) / 2` fails in two float corner cases:
/// it overflows to `±∞` when both values are huge, and it rounds *up to
/// `hi`* when the two are adjacent representable doubles. Either way the
/// `value <= threshold` partition then puts every row on one side, and
/// tree growth recurses forever on an unshrunk row set (a stack
/// overflow in release builds). Computing the midpoint as an offset from
/// `lo` and clamping it back to `lo` whenever it escapes `[lo, hi)`
/// guarantees a two-sided partition: rows valued ≤ `lo` go left, rows
/// valued ≥ `hi` go right.
pub(crate) fn split_threshold(lo: f64, hi: f64) -> f64 {
    debug_assert!(lo < hi);
    let mid = lo + (hi - lo) / 2.0;
    if (lo..hi).contains(&mid) {
        mid
    } else {
        lo
    }
}

/// Grows a tree over every row of `data`: a node becomes a leaf when it
/// has fewer than `2 × min_instances` rows, when its target deviation is
/// zero or at most `sd_fraction` of the root's, or when no split leaves
/// `min_instances` rows on each side with a positive SDR. Ties break
/// towards the lower attribute index and threshold.
///
/// `data` must be non-empty and `min_instances` positive.
pub(crate) fn grow(data: &Dataset, min_instances: usize, sd_fraction: f64) -> GrownNode {
    let root_sd = data.target_std().expect("non-empty dataset");
    AttributeLists::new(data, min_instances, sd_fraction * root_sd).grow(0, data.len())
}

/// The presorted view of one fit's training data.
struct AttributeLists<'a> {
    min_instances: usize,
    /// Growth stops at or below this target deviation.
    min_sd: f64,
    targets: &'a [f64],
    n_rows: usize,
    n_attributes: usize,
    /// Column-major attribute values: column `a` is
    /// `columns[a * n_rows..(a + 1) * n_rows]`, indexed by row.
    columns: Vec<f64>,
    /// One row-index list per attribute, laid out like `columns` and sorted
    /// by `(value, row)` within every node's segment, then one last list in
    /// ascending row order.
    lists: Vec<usize>,
    /// Per row: does it go left at the split being applied?
    goes_left: Vec<bool>,
    /// Right-hand rows while a segment is partitioned.
    scratch: Vec<usize>,
}

impl<'a> AttributeLists<'a> {
    fn new(data: &'a Dataset, min_instances: usize, min_sd: f64) -> Self {
        let n_rows = data.len();
        let n_attributes = data.n_attributes();
        let mut columns = Vec::with_capacity(n_attributes * n_rows);
        for a in 0..n_attributes {
            columns.extend(data.iter().map(|row| row.values()[a]));
        }
        // A stable sort of the ascending row list keeps ties in row order.
        let mut lists = Vec::with_capacity((n_attributes + 1) * n_rows);
        for column in columns.chunks_exact(n_rows) {
            let start = lists.len();
            lists.extend(0..n_rows);
            lists[start..].sort_by(|&x, &y| column[x].total_cmp(&column[y]));
        }
        lists.extend(0..n_rows);
        AttributeLists {
            min_instances,
            min_sd,
            targets: data.targets(),
            n_rows,
            n_attributes,
            columns,
            lists,
            goes_left: vec![false; n_rows],
            scratch: vec![0; n_rows],
        }
    }

    fn column(&self, a: usize) -> &[f64] {
        &self.columns[a * self.n_rows..(a + 1) * self.n_rows]
    }

    /// List `k`'s segment for the node owning positions `lo..hi`; list
    /// `n_attributes` is the ascending row list.
    fn segment(&self, k: usize, lo: usize, hi: usize) -> &[usize] {
        &self.lists[k * self.n_rows + lo..k * self.n_rows + hi]
    }

    /// Grows the node owning positions `lo..hi` of every list.
    fn grow(&mut self, lo: usize, hi: usize) -> GrownNode {
        let rows = self.segment(self.n_attributes, lo, hi).to_vec();
        let n = rows.len();
        if n < 2 * self.min_instances {
            return GrownNode::Leaf { rows };
        }
        let targets: Vec<f64> = rows.iter().map(|&i| self.targets[i]).collect();
        let sd = stats::std_dev(&targets);
        if sd <= self.min_sd || sd == 0.0 {
            return GrownNode::Leaf { rows };
        }
        let Some((attr, threshold)) = self.best_split(lo, hi, sd) else {
            return GrownNode::Leaf { rows };
        };
        let mut n_left = 0;
        for &i in &rows {
            let left = self.columns[attr * self.n_rows + i] <= threshold;
            self.goes_left[i] = left;
            n_left += usize::from(left);
        }
        if n_left == 0 || n_left == n {
            // Degenerate threshold (cannot happen with the midpoint clamped
            // in `split_threshold`, but a one-sided partition must never
            // recurse on the full row set).
            return GrownNode::Leaf { rows };
        }
        for k in 0..=self.n_attributes {
            self.partition(k * self.n_rows + lo, k * self.n_rows + hi);
        }
        let left = self.grow(lo, lo + n_left);
        let right = self.grow(lo + n_left, hi);
        GrownNode::Split { attr, threshold, rows, left: Box::new(left), right: Box::new(right) }
    }

    /// Stably moves the rows of `lists[start..end]` that go left to the
    /// front of the range. Branch-free: every row is written to both
    /// destinations and only the matching cursor advances.
    fn partition(&mut self, start: usize, end: usize) {
        let segment = &mut self.lists[start..end];
        let (mut left, mut right) = (0, 0);
        for read in 0..segment.len() {
            let i = segment[read];
            let goes_left = self.goes_left[i];
            segment[left] = i;
            self.scratch[right] = i;
            left += usize::from(goes_left);
            right += usize::from(!goes_left);
        }
        segment[left..].copy_from_slice(&self.scratch[..right]);
    }

    /// Finds the `(attribute, threshold)` maximising the standard deviation
    /// reduction over the node owning positions `lo..hi`, requiring
    /// `min_instances` rows on each side. Deterministic: strict improvement
    /// is required to displace an earlier candidate, and attributes are
    /// scanned in index order.
    fn best_split(&self, lo: usize, hi: usize, parent_sd: f64) -> Option<(usize, f64)> {
        let (n, min_instances) = (hi - lo, self.min_instances);
        let mut best: Option<(f64, usize, f64)> = None; // (sdr, attr, threshold)
        for attr in 0..self.n_attributes {
            let order = self.segment(attr, lo, hi);
            let column = self.column(attr);
            if column[order[0]] == column[order[n - 1]] {
                continue; // constant in this node: no boundary to scan
            }
            // Totals over the sorted order, folded from -0.0 as
            // `Iterator::sum` folds them.
            let (mut total, mut total_sq) = (-0.0, -0.0);
            for &i in order {
                let t = self.targets[i];
                total += t;
                total_sq += t * t;
            }
            // Prefix sums of targets and squared targets over the sorted order.
            let mut sum = 0.0;
            let mut sum_sq = 0.0;
            for split_pos in 1..n {
                let prev = order[split_pos - 1];
                let t = self.targets[prev];
                sum += t;
                sum_sq += t * t;

                if split_pos < min_instances || n - split_pos < min_instances {
                    continue;
                }
                let v_prev = column[prev];
                let v_next = column[order[split_pos]];
                if v_next <= v_prev {
                    continue; // not a boundary between distinct values
                }

                let nl = split_pos as f64;
                let nr = (n - split_pos) as f64;
                let var_l = (sum_sq / nl - (sum / nl).powi(2)).max(0.0);
                let r_sum = total - sum;
                let r_sum_sq = total_sq - sum_sq;
                let var_r = (r_sum_sq / nr - (r_sum / nr).powi(2)).max(0.0);
                let sdr =
                    parent_sd - (nl / n as f64) * var_l.sqrt() - (nr / n as f64) * var_r.sqrt();

                if sdr > best.map_or(0.0, |(s, _, _)| s) {
                    best = Some((sdr, attr, split_threshold(v_prev, v_next)));
                }
            }
        }
        best.map(|(_, attr, threshold)| (attr, threshold))
    }
}

/// The growth [`grow`] replaced, kept as the oracle it is held to: every
/// node sorts its ascending row list by each attribute through the
/// row-major dataset.
#[cfg(test)]
pub(crate) mod reference {
    use super::{split_threshold, GrownNode};
    use aging_dataset::{stats, Dataset};

    pub(crate) fn grow(
        data: &Dataset,
        rows: Vec<usize>,
        root_sd: f64,
        min_instances: usize,
        sd_fraction: f64,
    ) -> GrownNode {
        let n = rows.len();
        if n < 2 * min_instances {
            return GrownNode::Leaf { rows };
        }
        let targets: Vec<f64> = rows.iter().map(|&i| data.target(i)).collect();
        let sd = stats::std_dev(&targets);
        if sd <= sd_fraction * root_sd || sd == 0.0 {
            return GrownNode::Leaf { rows };
        }
        match best_split(data, &rows, sd, min_instances) {
            Some((attr, threshold)) => {
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&i| data.value(i, attr) <= threshold);
                if left_rows.is_empty() || right_rows.is_empty() {
                    return GrownNode::Leaf { rows };
                }
                let left = grow(data, left_rows, root_sd, min_instances, sd_fraction);
                let right = grow(data, right_rows, root_sd, min_instances, sd_fraction);
                GrownNode::Split {
                    attr,
                    threshold,
                    rows,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
            None => GrownNode::Leaf { rows },
        }
    }

    pub(crate) fn best_split(
        data: &Dataset,
        rows: &[usize],
        parent_sd: f64,
        min_instances: usize,
    ) -> Option<(usize, f64)> {
        let n = rows.len();
        let mut best: Option<(f64, usize, f64)> = None; // (sdr, attr, threshold)

        for attr in 0..data.n_attributes() {
            // Sort row indices by this attribute's value.
            let mut order: Vec<usize> = rows.to_vec();
            order.sort_by(|&a, &b| data.value(a, attr).total_cmp(&data.value(b, attr)));

            // Prefix sums of targets and squared targets over the sorted order.
            let mut sum = 0.0;
            let mut sum_sq = 0.0;
            let total: f64 = order.iter().map(|&i| data.target(i)).sum();
            let total_sq: f64 = order.iter().map(|&i| data.target(i) * data.target(i)).sum();

            for split_pos in 1..n {
                let prev = order[split_pos - 1];
                let t = data.target(prev);
                sum += t;
                sum_sq += t * t;

                if split_pos < min_instances || n - split_pos < min_instances {
                    continue;
                }
                let v_prev = data.value(prev, attr);
                let v_next = data.value(order[split_pos], attr);
                if v_next <= v_prev {
                    continue; // not a boundary between distinct values
                }

                let nl = split_pos as f64;
                let nr = (n - split_pos) as f64;
                let var_l = (sum_sq / nl - (sum / nl).powi(2)).max(0.0);
                let r_sum = total - sum;
                let r_sum_sq = total_sq - sum_sq;
                let var_r = (r_sum_sq / nr - (r_sum / nr).powi(2)).max(0.0);
                let sdr =
                    parent_sd - (nl / n as f64) * var_l.sqrt() - (nr / n as f64) * var_r.sqrt();

                if sdr > best.map_or(0.0, |(s, _, _)| s) {
                    best = Some((sdr, attr, split_threshold(v_prev, v_next)));
                }
            }
        }
        best.map(|(_, attr, threshold)| (attr, threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinRegLearner;
    use crate::m5p::M5pLearner;
    use crate::regtree::RegTreeLearner;
    use crate::Learner;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A dataset drawn from `seed` whose columns mix the kinds split search
    /// must get right: continuous values, heavy ties (including `-0.0`
    /// against `0.0`, equal under `<=` but ordered by `total_cmp`), constant
    /// columns and duplicated rows. The target is piecewise linear in the
    /// first column plus noise, or tie-heavy.
    fn generated(seed: u64, n_attributes: usize, n_rows: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let kinds: Vec<u8> = (0..n_attributes).map(|_| rng.gen_range(0..4u8)).collect();
        let tied_target = rng.gen_bool(0.3);
        let names = (0..n_attributes).map(|a| format!("a{a}")).collect();
        let mut ds = Dataset::new(names, "y");
        let mut previous: Option<(Vec<f64>, f64)> = None;
        for _ in 0..n_rows {
            if let Some((values, y)) = previous.as_ref().filter(|_| rng.gen_bool(0.1)) {
                ds.push_row(values.clone(), *y).unwrap();
                continue;
            }
            let values: Vec<f64> = kinds
                .iter()
                .map(|kind| match kind {
                    0 => rng.gen_range(-100.0..100.0),
                    1 => [-0.0, 0.0, 1.0, 2.5, 1e6][rng.gen_range(0..5usize)],
                    2 => 3.0,
                    _ => f64::from(rng.gen_range(0..12u32)) * 0.25,
                })
                .collect();
            let x = values[0];
            let y = if tied_target {
                [-0.0, 0.0, 10.0, 40.0][rng.gen_range(0..4usize)]
            } else if x < 0.5 {
                500.0 - 3.0 * x + rng.gen_range(-5.0..5.0)
            } else {
                900.0 + 7.0 * x + rng.gen_range(-5.0..5.0)
            };
            ds.push_row(values.clone(), y).unwrap();
            previous = Some((values, y));
        }
        ds
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The presorted growth and the row-subset node models reproduce
        /// the per-node-sort reference byte for byte, for M5P, the
        /// regression tree and restricted linear fits.
        #[test]
        fn presorted_fits_match_the_reference(
            seed in 0u64..u64::MAX,
            n_attributes in 1usize..=6,
            n_rows in 20usize..=600,
            min_instances in 1usize..=12,
            flags in 0u8..8,
        ) {
            let data = generated(seed, n_attributes, n_rows);
            let root_sd = data.target_std().unwrap();
            let rows: Vec<usize> = (0..data.len()).collect();
            prop_assert!(
                grow(&data, min_instances, 0.05)
                    == reference::grow(&data, rows, root_sd, min_instances, 0.05),
                "seed {seed}: grown trees differ"
            );

            let (pruning, smoothing, eliminate_terms) =
                (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let m5p =
                M5pLearner { min_instances, pruning, smoothing, eliminate_terms, ..Default::default() };
            let fast = serde_json::to_string(&m5p.fit(&data).unwrap()).unwrap();
            let slow = serde_json::to_string(&m5p.fit_reference(&data).unwrap()).unwrap();
            prop_assert!(fast == slow, "seed {seed}, {m5p:?}:\n{fast}\n!=\n{slow}");

            let tree = RegTreeLearner { min_instances, pruning, ..Default::default() };
            let fast = serde_json::to_string(&tree.fit(&data).unwrap()).unwrap();
            let slow = serde_json::to_string(&tree.fit_reference(&data).unwrap()).unwrap();
            prop_assert!(fast == slow, "seed {seed}, {tree:?}:\n{fast}\n!=\n{slow}");

            let linreg = LinRegLearner { ridge: 0.0, eliminate_terms };
            let allowed: Vec<usize> = (0..n_attributes).rev().step_by(2).collect();
            let fast = serde_json::to_string(&linreg.fit_on(&data, &allowed).unwrap()).unwrap();
            let slow =
                serde_json::to_string(&linreg.fit_on_reference(&data, &allowed).unwrap()).unwrap();
            prop_assert!(fast == slow, "seed {seed}, allowed {allowed:?}:\n{fast}\n!=\n{slow}");
        }
    }
}
