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
//!
//! # Training cost
//!
//! The presort lives in a [`FitContext`], which keeps the last fitted
//! window's columns and sorted lists, so a refit over a sliding window
//! sorts only the rows it has not seen. The context finds the longest
//! suffix of its window that starts the new data, comparing every value
//! bit for bit (the overlap is verified, never trusted from the caller).
//! Those kept rows keep their list order: dropping the departed rows and
//! renumbering the rest by one uniform shift preserves `(value, row)`
//! order. The fresh rows are sorted on their own and merged in, a tie
//! going to the kept row, whose index is lower. Every list therefore
//! equals a stable sort of the whole window, and a fit without a usable
//! context is the same merge with every row fresh.
//!
//! Once per fit, [`scanned_attributes`] drops the attributes whose scan
//! can never change the tree: those with no boundary over the window and
//! those that sort and break exactly like an earlier scanned attribute.
//! Their lists are neither scanned nor partitioned at any node.

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
/// `context` is brought up to `data` first (see [`FitContext`]); the tree
/// does not depend on what it held.
///
/// `data` must be non-empty and `min_instances` positive.
pub(crate) fn grow(
    data: &Dataset,
    min_instances: usize,
    sd_fraction: f64,
    context: &mut FitContext,
) -> GrownNode {
    let root_sd = data.target_std().expect("non-empty dataset");
    context.update(data);
    AttributeLists::new(data, context, min_instances, sd_fraction * root_sd).grow(0, data.len())
}

/// The presorted window of the previous tree fit, kept so the next fit
/// over an overlapping window sorts only its fresh rows.
///
/// Pass the same context to successive [`crate::Learner::fit_with`] calls
/// whose windows slide over one row stream, as the adaptive router's
/// per-class refits do. A context can never change a model: it is checked
/// against the data bit for bit, and a window that does not continue the
/// stored one is sorted from scratch. Fits without a context use a fresh
/// one, which sorts every row.
///
/// It holds 12 bytes per value of the last window: the value itself
/// (8 bytes) and one entry of its attribute's sorted row list (4 bytes).
#[derive(Default)]
pub struct FitContext {
    n_rows: usize,
    n_attributes: usize,
    /// Column-major attribute values: column `a` is
    /// `columns[a * n_rows..(a + 1) * n_rows]`, indexed by row.
    columns: Vec<f64>,
    /// One row-index list per attribute, laid out like `columns` and
    /// sorted by `(value, row)`.
    sorted: Vec<u32>,
}

// A window runs to megabytes of values; show only its shape.
impl std::fmt::Debug for FitContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitContext")
            .field("n_rows", &self.n_rows)
            .field("n_attributes", &self.n_attributes)
            .finish_non_exhaustive()
    }
}

impl FitContext {
    fn column(&self, a: usize) -> &[f64] {
        &self.columns[a * self.n_rows..(a + 1) * self.n_rows]
    }

    fn list(&self, a: usize) -> &[u32] {
        &self.sorted[a * self.n_rows..(a + 1) * self.n_rows]
    }

    /// Whether row `r` of the stored window holds exactly `values`.
    fn row_is(&self, r: usize, values: &[f64]) -> bool {
        values
            .iter()
            .enumerate()
            .all(|(a, v)| self.columns[a * self.n_rows + r].to_bits() == v.to_bits())
    }

    /// The number of leading rows of `data` that continue the stored
    /// window: the longest suffix of the window that equals a prefix of
    /// `data`, value bit for value bit. Knuth–Morris–Pratt over rows, so
    /// linear in the rows of both.
    fn overlap(&self, data: &Dataset) -> usize {
        if self.n_attributes != data.n_attributes() {
            return 0;
        }
        let m = data.len().min(self.n_rows);
        let same = |x: usize, y: usize| {
            let (x, y) = (data.row(x).values(), data.row(y).values());
            x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        };
        // `border[q]`: the longest proper border of `data`'s first `q + 1` rows.
        let mut border = vec![0; m];
        let mut k = 0;
        for q in 1..m {
            loop {
                if same(q, k) {
                    k += 1;
                    break;
                }
                if k == 0 {
                    break;
                }
                k = border[k - 1];
            }
            border[q] = k;
        }
        let mut matched = 0;
        for r in 0..self.n_rows {
            loop {
                if matched < m && self.row_is(r, data.row(matched).values()) {
                    matched += 1;
                    break;
                }
                if matched == 0 {
                    break;
                }
                matched = border[matched - 1];
            }
        }
        matched
    }

    /// Brings the context up to `data`. The stored window's rows that
    /// continue into `data` keep their sorted order (renumbered by the
    /// rows that departed); `data`'s other rows are sorted by
    /// `(value, row)` and merged in, a tie going to the kept row. The
    /// context is replaced only once the new window is complete.
    fn update(&mut self, data: &Dataset) {
        let (n, n_attributes) = (data.len(), data.n_attributes());
        assert!(u32::try_from(n).is_ok(), "a fit window holds fewer than 2^32 rows");
        let kept = self.overlap(data);
        let departed = self.n_rows - kept;
        let mut columns = Vec::with_capacity(n_attributes * n);
        let mut sorted = vec![0; n_attributes * n];
        let mut fresh: Vec<(i64, u32)> = Vec::with_capacity(n - kept);
        // One list's kept rows with their keys. A departed row is written
        // too, then overwritten, so this has room for every stored row.
        let mut kept_run = vec![(0, 0); if kept == 0 { 0 } else { self.n_rows }];
        for a in 0..n_attributes {
            let start = columns.len();
            if kept > 0 {
                columns.extend_from_slice(&self.column(a)[departed..]);
            }
            columns.extend((kept..n).map(|r| data.value(r, a)));
            let column = &columns[start..];

            fresh.clear();
            fresh.extend((kept..n).map(|r| (order_key(column[r]), r as u32)));
            fresh.sort_unstable();
            let mut k = 0;
            if kept > 0 {
                let old_column = self.column(a);
                for &old in self.list(a) {
                    // Renumbered; a departed row wraps around to at least `kept`.
                    let r = old.wrapping_sub(departed as u32);
                    kept_run[k] = (order_key(old_column[old as usize]), r);
                    k += usize::from((r as usize) < kept);
                }
            }
            merge(&kept_run[..k], &fresh, &mut sorted[a * n..(a + 1) * n]);
        }
        *self = FitContext { n_rows: n, n_attributes, columns, sorted };
    }
}

/// Writes the rows of two runs sorted by key to `out` in key order, taking
/// `first`'s row on a tie. Branch-free.
fn merge(first: &[(i64, u32)], second: &[(i64, u32)], out: &mut [u32]) {
    let (mut i, mut j, mut w) = (0, 0, 0);
    while i < first.len() && j < second.len() {
        let take_second = second[j].0 < first[i].0;
        out[w] = if take_second { second[j].1 } else { first[i].1 };
        w += 1;
        i += usize::from(!take_second);
        j += usize::from(take_second);
    }
    for (slot, &(_, r)) in out[w..].iter_mut().zip(first[i..].iter().chain(&second[j..])) {
        *slot = r;
    }
}

/// `v`'s position in IEEE 754 total order as an integer: `order_key(x) <
/// order_key(y)` exactly when `x.total_cmp(&y)` is `Less`.
fn order_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

#[cfg(test)]
thread_local! {
    /// Set by tests to scan every attribute: the fit the skipping in
    /// [`scanned_attributes`] is held to.
    static SCAN_EVERY_ATTRIBUTE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The attributes whose split scan can change the tree over `context`'s
/// window, in index order. Two kinds never can, at any node:
///
/// - an attribute with no boundary over the whole window. Its list is
///   sorted, so it has none exactly when its last value is `<=` its
///   first;
/// - an attribute whose sorted list equals an earlier scanned attribute's
///   and whose boundaries, under the scan's own `!(v_next <= v_prev)`
///   test, sit at the same positions. Every node's segments of the two
///   lists then hold the same rows in the same order, and a boundary
///   between two rows of a node lies wherever one of the window's
///   boundaries lies between them. So the scan meets the same SDRs at the
///   same positions, and since it needs a strict improvement, the later
///   attribute never displaces the earlier one.
fn scanned_attributes(context: &FitContext) -> Vec<usize> {
    #[cfg(test)]
    if SCAN_EVERY_ATTRIBUTE.get() {
        return (0..context.n_attributes).collect();
    }
    let mut scanned: Vec<usize> = Vec::with_capacity(context.n_attributes);
    for a in 0..context.n_attributes {
        let (list, column) = (context.list(a), context.column(a));
        let (Some(&first), Some(&last)) = (list.first(), list.last()) else {
            continue;
        };
        if column[last as usize] <= column[first as usize] {
            continue;
        }
        let dominated = scanned.iter().any(|&earlier| {
            context.list(earlier) == list && same_boundaries(context.column(earlier), column, list)
        });
        if !dominated {
            scanned.push(a);
        }
    }
    scanned
}

/// Whether columns `x` and `y`, both sorted by `list`, have boundaries
/// between the same neighbours under the split scan's test.
fn same_boundaries(x: &[f64], y: &[f64], list: &[u32]) -> bool {
    list.windows(2).all(|pair| {
        let (prev, next) = (pair[0] as usize, pair[1] as usize);
        (x[next] <= x[prev]) == (y[next] <= y[prev])
    })
}

/// The presorted view of one fit's training data.
struct AttributeLists<'a> {
    min_instances: usize,
    /// Growth stops at or below this target deviation.
    min_sd: f64,
    targets: &'a [f64],
    n_rows: usize,
    /// Column-major attribute values: column `a` is
    /// `columns[a * n_rows..(a + 1) * n_rows]`, indexed by row.
    columns: &'a [f64],
    /// The attributes the split search scans ([`scanned_attributes`]).
    scanned: Vec<usize>,
    /// One row-index list per scanned attribute, in `scanned` order, each
    /// `n_rows` long and sorted by `(value, row)` within every node's
    /// segment; then one last list in ascending row order.
    lists: Vec<u32>,
    /// Per row: does it go left at the split being applied?
    goes_left: Vec<bool>,
    /// Right-hand rows while a segment is partitioned.
    scratch: Vec<u32>,
}

impl<'a> AttributeLists<'a> {
    /// Working lists over `context`, which must describe `data`.
    fn new(data: &'a Dataset, context: &'a FitContext, min_instances: usize, min_sd: f64) -> Self {
        let n_rows = data.len();
        let scanned = scanned_attributes(context);
        let mut lists = Vec::with_capacity((scanned.len() + 1) * n_rows);
        for &a in &scanned {
            lists.extend_from_slice(context.list(a));
        }
        lists.extend(0..n_rows as u32);
        AttributeLists {
            min_instances,
            min_sd,
            targets: data.targets(),
            n_rows,
            columns: &context.columns,
            scanned,
            lists,
            goes_left: vec![false; n_rows],
            scratch: vec![0; n_rows],
        }
    }

    fn column(&self, a: usize) -> &[f64] {
        &self.columns[a * self.n_rows..(a + 1) * self.n_rows]
    }

    /// List `k`'s segment for the node owning positions `lo..hi`: the
    /// sorted list of `scanned[k]`, or for `k == scanned.len()` the
    /// ascending row list.
    fn segment(&self, k: usize, lo: usize, hi: usize) -> &[u32] {
        &self.lists[k * self.n_rows + lo..k * self.n_rows + hi]
    }

    /// Grows the node owning positions `lo..hi` of every list.
    fn grow(&mut self, lo: usize, hi: usize) -> GrownNode {
        let rows: Vec<usize> =
            self.segment(self.scanned.len(), lo, hi).iter().map(|&r| r as usize).collect();
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
        for k in 0..=self.scanned.len() {
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
            let goes_left = self.goes_left[i as usize];
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
        for (k, &attr) in self.scanned.iter().enumerate() {
            let order = self.segment(k, lo, hi);
            let column = self.column(attr);
            if column[order[0] as usize] == column[order[n - 1] as usize] {
                continue; // constant in this node: no boundary to scan
            }
            // Totals over the sorted order, folded from -0.0 as
            // `Iterator::sum` folds them.
            let (mut total, mut total_sq) = (-0.0, -0.0);
            for &i in order {
                let t = self.targets[i as usize];
                total += t;
                total_sq += t * t;
            }
            // Prefix sums of targets and squared targets over the sorted order.
            let mut sum = 0.0;
            let mut sum_sq = 0.0;
            for split_pos in 1..n {
                let prev = order[split_pos - 1] as usize;
                let t = self.targets[prev];
                sum += t;
                sum_sq += t * t;

                if split_pos < min_instances || n - split_pos < min_instances {
                    continue;
                }
                let v_prev = column[prev];
                let v_next = column[order[split_pos] as usize];
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

    /// Growth through a fresh context, as every fit without one runs.
    fn grow(data: &Dataset, min_instances: usize, sd_fraction: f64) -> GrownNode {
        super::grow(data, min_instances, sd_fraction, &mut FitContext::default())
    }

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

    /// Rows of `column` in the order a stable sort by value gives: the
    /// order of its presorted list.
    fn sorted_rows(column: &[f64]) -> Vec<usize> {
        let mut rows: Vec<usize> = (0..column.len()).collect();
        rows.sort_by(|&x, &y| column[x].total_cmp(&column[y]));
        rows
    }

    /// A copy of `column` that sorts into the same list and whose
    /// boundaries are `column`'s with each flipped with probability
    /// `flip`, wherever the list allows: two neighbours may share a value
    /// only if the lower row comes first. `flip == 0.0` copies the
    /// boundaries too (up to `-0.0` against `0.0` ties, which the list
    /// orders against their rows).
    fn retied(column: &[f64], flip: f64, rng: &mut StdRng) -> Vec<f64> {
        let order = sorted_rows(column);
        let mut out = vec![0.0; column.len()];
        let mut value = 0.0;
        for pair in order.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            // A boundary steps to a new value unless flipped; a tie steps
            // only when flipped (or when the rows would reorder).
            let tied = column[next] <= column[prev];
            if tied == rng.gen_bool(flip) || next < prev {
                value += 1.0;
            }
            out[next] = value;
        }
        out
    }

    /// `data` with `copies` planted columns, each derived from a random
    /// column and inserted at a random position (before or after it): an
    /// affine copy, a reversed copy, a copy with the same list and
    /// boundaries, or one with the same list and different ties.
    fn with_planted_copies(data: &Dataset, copies: usize, rng: &mut StdRng) -> Dataset {
        let mut columns: Vec<Vec<f64>> = (0..data.n_attributes())
            .map(|a| (0..data.len()).map(|r| data.value(r, a)).collect())
            .collect();
        for _ in 0..copies {
            let source = &columns[rng.gen_range(0..columns.len())];
            let copy = match rng.gen_range(0..4u8) {
                0 => source.iter().map(|v| 2.5 * v - 1.0).collect(),
                1 => source.iter().map(|v| 7.0 - v).collect(),
                2 => retied(source, 0.0, rng),
                _ => retied(source, 0.3, rng),
            };
            columns.insert(rng.gen_range(0..=columns.len()), copy);
        }
        let names = (0..columns.len()).map(|a| format!("a{a}")).collect();
        let mut out = Dataset::new(names, "y");
        for r in 0..data.len() {
            out.push_row(columns.iter().map(|c| c[r]).collect(), data.target(r)).unwrap();
        }
        out
    }

    /// `f` with every attribute scanned.
    fn unskipped<T>(f: impl FnOnce() -> T) -> T {
        SCAN_EVERY_ATTRIBUTE.set(true);
        let out = f();
        SCAN_EVERY_ATTRIBUTE.set(false);
        out
    }

    /// The attributes a fit over `data` scans.
    fn scanned(data: &Dataset) -> Vec<usize> {
        let mut context = FitContext::default();
        context.update(data);
        scanned_attributes(&context)
    }

    /// What the split search skips, and what it must not: constant
    /// columns (`-0.0` against `0.0` included) and same-list,
    /// same-boundary copies go; reversed copies and same-list copies with
    /// other ties, finer or coarser, stay.
    #[test]
    fn constant_and_dominated_attributes_are_skipped() {
        let mut data = Dataset::new((0..7).map(|a| format!("a{a}")).collect(), "y");
        for r in 0..40u32 {
            let t = f64::from(r / 2);
            let row = vec![
                t,
                5.0,
                3.0 * t + 1.0,
                -t,
                f64::from(r),
                if r % 2 == 0 { -0.0 } else { 0.0 },
                f64::from(r / 4),
            ];
            data.push_row(row, f64::from(r)).unwrap();
        }
        assert_eq!(scanned(&data), vec![0, 3, 4, 6]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Skipping constant and dominated attributes never changes a
        /// model: over datasets with planted affine, reversed, same-tie and
        /// other-tie copies, every M5P and regression-tree fit equals the
        /// fit that scans every attribute, byte for byte.
        #[test]
        fn skipping_dominated_attributes_changes_no_model(
            seed in 0u64..u64::MAX,
            n_attributes in 1usize..=4,
            copies in 1usize..=4,
            n_rows in 20usize..=400,
            min_instances in 1usize..=8,
            flags in 0u8..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
            let data = with_planted_copies(&generated(seed, n_attributes, n_rows), copies, &mut rng);
            let (pruning, smoothing, eliminate_terms) =
                (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let m5p =
                M5pLearner { min_instances, pruning, smoothing, eliminate_terms, ..Default::default() };
            let tree = RegTreeLearner { min_instances, pruning, ..Default::default() };
            let fits = || {
                (
                    serde_json::to_string(&m5p.fit(&data).unwrap()).unwrap(),
                    serde_json::to_string(&tree.fit(&data).unwrap()).unwrap(),
                )
            };
            let (skipped, all) = (fits(), unskipped(fits));
            prop_assert!(skipped.0 == all.0, "seed {seed}, {m5p:?}:\n{}\n!=\n{}", skipped.0, all.0);
            prop_assert!(skipped.1 == all.1, "seed {seed}, {tree:?}:\n{}\n!=\n{}", skipped.1, all.1);
        }
    }

    /// Rows `rows` of `source`, as a dataset of their own.
    fn window(source: &Dataset, rows: impl IntoIterator<Item = usize>) -> Dataset {
        let mut out = Dataset::new(source.attribute_names().to_vec(), "y");
        for i in rows {
            out.push_row(source.row(i).values().to_vec(), source.target(i)).unwrap();
        }
        out
    }

    /// A dataset whose rows carry the given first-column values.
    fn rows_of(values: &[f64]) -> Dataset {
        let mut out = Dataset::new(vec!["v".into(), "c".into()], "y");
        for &v in values {
            out.push_row(vec![v, 3.0], v).unwrap();
        }
        out
    }

    /// The context reuses exactly the rows a window shares with the last
    /// one: the longest suffix of the stored window that starts the new
    /// data. Reuse is invisible in the models, so this pins it directly.
    #[test]
    fn overlap_is_the_longest_stored_suffix_that_starts_the_new_data() {
        let stream: Vec<f64> = (0..400).map(f64::from).collect();
        let mut context = FitContext::default();
        context.update(&rows_of(&stream[..128]));
        assert_eq!(context.overlap(&rows_of(&stream[32..160])), 96, "a slide keeps 96 rows");
        assert_eq!(context.overlap(&rows_of(&stream[..200])), 128, "a grown buffer keeps all");
        assert_eq!(context.overlap(&rows_of(&stream[128..256])), 0, "no row continues");
        let reversed: Vec<f64> = stream[..128].iter().rev().copied().collect();
        assert_eq!(context.overlap(&rows_of(&reversed)), 1, "only the last row continues");
        // A periodic window `[7, 0, 1, 0, 1, 0]` continued by `[0, 1, 0, 5]`
        // keeps its last three rows; the longer candidate fails on its fourth.
        context.update(&rows_of(&[7.0, 0.0, 1.0, 0.0, 1.0, 0.0]));
        assert_eq!(context.overlap(&rows_of(&[0.0, 1.0, 0.0, 5.0])), 3);
        // `-0.0` and `0.0` sort apart, so they do not continue each other.
        context.update(&rows_of(&[1.0, 0.0]));
        assert_eq!(context.overlap(&rows_of(&[-0.0, 2.0])), 0);
        // A different attribute count shares nothing.
        let mut narrower = Dataset::new(vec!["v".into()], "y");
        narrower.push_row(vec![0.0], 0.0).unwrap();
        assert_eq!(context.overlap(&narrower), 0);
    }

    /// Whether two contexts hold the same window, value bit for value bit,
    /// and the same sorted lists.
    fn same_context(a: &FitContext, b: &FitContext) -> bool {
        a.n_rows == b.n_rows
            && a.n_attributes == b.n_attributes
            && a.sorted == b.sorted
            && a.columns.iter().map(|v| v.to_bits()).eq(b.columns.iter().map(|v| v.to_bits()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One context carried through a generated sequence of windows cut
        /// from one row stream: the router's growing then sliding buffer,
        /// then slides of 0 rows, of fewer rows than the window, of exactly
        /// the window and of more, a buffer that grows in place, the window
        /// reversed, and the window with rows of another stream spliced in.
        /// Every `fit_with` equals a fresh `fit` byte for byte, for M5P and
        /// the regression tree, and leaves the context a fresh presort of
        /// the window would.
        #[test]
        fn context_fits_match_fresh_fits(
            seed in 0u64..u64::MAX,
            n_attributes in 1usize..=5,
            capacity in 16usize..=320,
            min_instances in 1usize..=8,
            flags in 0u8..8,
            steps in prop::collection::vec((0u8..7, 0usize..=200), 4..=10),
        ) {
            let quota = (capacity / 4).max(1);
            let stream = generated(seed, n_attributes, 6 * quota + 10 * (2 * capacity + 201));
            let other = generated(seed ^ 0x5eed, n_attributes, capacity);
            let (mut start, mut end) = (0, 0);
            let mut windows = Vec::new();
            for _ in 0..6 {
                end += quota;
                start = end.saturating_sub(capacity);
                windows.push(window(&stream, start..end));
            }
            for &(kind, amount) in &steps {
                let len = end - start;
                match kind {
                    0 => {}
                    1 => {
                        let by = 1 + amount % len.saturating_sub(1).max(1);
                        start += by;
                        end += by;
                    }
                    2 => {
                        start += len;
                        end += len;
                    }
                    3 => {
                        start += len + 1 + amount;
                        end = start + len;
                    }
                    4 => end += quota,
                    5 => {
                        windows.push(window(&stream, (start..end).rev()));
                        continue;
                    }
                    _ => {
                        let at = start + amount % len;
                        let spliced = window(&other, 0..other.len().min(1 + amount % 32));
                        let mut rows = window(&stream, start..at);
                        rows.extend_from(&spliced).unwrap();
                        rows.extend_from(&window(&stream, at..end)).unwrap();
                        windows.push(rows);
                        continue;
                    }
                }
                windows.push(window(&stream, start..end));
            }

            let (pruning, smoothing, eliminate_terms) =
                (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let m5p =
                M5pLearner { min_instances, pruning, smoothing, eliminate_terms, ..Default::default() };
            let tree = RegTreeLearner { min_instances, pruning, ..Default::default() };
            let mut context = FitContext::default();
            for (w, data) in windows.iter().enumerate() {
                // Alternate which learner meets the new window first, so
                // both fit across every kind of step.
                for first in [w % 2 == 0, w % 2 != 0] {
                    let (with, fresh) = if first {
                        (
                            serde_json::to_string(&m5p.fit_with(data, &mut context).unwrap()),
                            serde_json::to_string(&m5p.fit(data).unwrap()),
                        )
                    } else {
                        (
                            serde_json::to_string(&tree.fit_with(data, &mut context).unwrap()),
                            serde_json::to_string(&tree.fit(data).unwrap()),
                        )
                    };
                    let (with, fresh) = (with.unwrap(), fresh.unwrap());
                    prop_assert!(with == fresh, "seed {seed}, window {w}:\n{with}\n!=\n{fresh}");
                }
                let mut presorted = FitContext::default();
                presorted.update(data);
                prop_assert!(
                    same_context(&context, &presorted),
                    "seed {seed}, window {w}: context differs from a fresh presort"
                );
            }
        }
    }
}
