//! The TPC-W interaction set and workload mixes.
//!
//! TPC-W defines fourteen web interactions and three workload mixes —
//! *Browsing*, *Shopping* and *Ordering* — that differ in how often each
//! interaction occurs in steady state. The paper runs every experiment
//! "using shopping distribution" (Section 3); the other two mixes are
//! implemented for completeness and for workload-sensitivity studies.
//!
//! The frequencies below approximate the steady-state interaction
//! frequencies of the TPC-W specification's mix matrices. The single
//! distinction the aging experiments depend on is preserved exactly: the
//! *Search Request* interaction executes the modified
//! `TPCW_Search_request_servlet`, which is where memory leaks are injected.
//!
//! # Sampling by thresholds
//!
//! [`TpcwMix::sample`] draws one `u` uniform in `[0, 1)` and picks the
//! interaction a sequential walk over the frequencies would pick: subtract
//! `f_0`, `f_1`, … from `u` until the remainder falls below the next
//! frequency, and fall back to *Home* if it never does. The walk costs
//! fourteen dependent subtractions and branches per request, so each mix
//! instead keeps fourteen thresholds `C_0 ≤ … ≤ C_13`, and the sample is
//! the interaction whose index is the number of thresholds `u` reaches (all
//! fourteen means the fallback). This is exact, not an approximation of
//! the walk:
//!
//! - under IEEE round-to-nearest, `x − f` is a non-decreasing function of
//!   `x`, so every running remainder `u − f_0 − … − f_{k−1}` is a
//!   non-decreasing function of `u`;
//! - so the set of draws the walk sends to an index `≤ k` is closed
//!   downwards: it is `[0, C_k)` for one `C_k`;
//! - so `C_k` is found by binary search over the bit patterns of `[0, 1]`
//!   (ordered like the values they encode), with the walk itself as the
//!   predicate. The table is built once, on first use.
//!
//! The unit tests hold the thresholds to the walk at every threshold and
//! its neighbouring draws, and on millions of random draws per mix.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::LazyLock;

/// One of the fourteen TPC-W web interactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Interaction {
    /// Store home page.
    Home,
    /// New-products listing.
    NewProducts,
    /// Best-sellers listing (heavy DB aggregation).
    BestSellers,
    /// Product detail page.
    ProductDetail,
    /// The search form — the paper's modified, leak-injecting servlet.
    SearchRequest,
    /// Search result listing (DB-heavy).
    SearchResults,
    /// Shopping cart view/update.
    ShoppingCart,
    /// Customer registration.
    CustomerRegistration,
    /// Buy request (begins checkout).
    BuyRequest,
    /// Buy confirm (completes checkout; transactional).
    BuyConfirm,
    /// Order inquiry form.
    OrderInquiry,
    /// Order display (looks up an order).
    OrderDisplay,
    /// Admin request form.
    AdminRequest,
    /// Admin confirm (updates the catalogue).
    AdminConfirm,
}

/// All interactions, in a fixed order (used for tables and iteration).
pub const ALL_INTERACTIONS: [Interaction; 14] = [
    Interaction::Home,
    Interaction::NewProducts,
    Interaction::BestSellers,
    Interaction::ProductDetail,
    Interaction::SearchRequest,
    Interaction::SearchResults,
    Interaction::ShoppingCart,
    Interaction::CustomerRegistration,
    Interaction::BuyRequest,
    Interaction::BuyConfirm,
    Interaction::OrderInquiry,
    Interaction::OrderDisplay,
    Interaction::AdminRequest,
    Interaction::AdminConfirm,
];

impl Interaction {
    /// Whether this interaction executes the modified search servlet (the
    /// memory-leak injection point).
    pub fn hits_search_servlet(self) -> bool {
        matches!(self, Interaction::SearchRequest)
    }

    /// Relative CPU cost of the servlet work (1.0 = a plain page).
    pub fn cpu_weight(self) -> f64 {
        match self {
            Interaction::Home => 1.0,
            Interaction::NewProducts => 1.2,
            Interaction::BestSellers => 1.6,
            Interaction::ProductDetail => 1.0,
            Interaction::SearchRequest => 2.3, // the modified servlet computes the injection draw
            Interaction::SearchResults => 1.8,
            Interaction::ShoppingCart => 1.3,
            Interaction::CustomerRegistration => 1.1,
            Interaction::BuyRequest => 1.4,
            Interaction::BuyConfirm => 1.9,
            Interaction::OrderInquiry => 0.8,
            Interaction::OrderDisplay => 1.2,
            Interaction::AdminRequest => 0.9,
            Interaction::AdminConfirm => 1.5,
        }
    }

    /// Relative DB round-trip weight (1.0 = one indexed query).
    pub fn db_weight(self) -> f64 {
        match self {
            Interaction::Home => 0.6,
            Interaction::NewProducts => 1.4,
            Interaction::BestSellers => 2.4, // top-k aggregation over recent orders
            Interaction::ProductDetail => 0.8,
            Interaction::SearchRequest => 0.4,
            Interaction::SearchResults => 2.0,
            Interaction::ShoppingCart => 1.1,
            Interaction::CustomerRegistration => 0.7,
            Interaction::BuyRequest => 1.2,
            Interaction::BuyConfirm => 2.2, // transactional insert
            Interaction::OrderInquiry => 0.3,
            Interaction::OrderDisplay => 1.3,
            Interaction::AdminRequest => 0.5,
            Interaction::AdminConfirm => 1.6,
        }
    }
}

/// Every mix's thresholds, indexed by `TpcwMix as usize`. Built on first
/// use rather than as a `const`: the search needs `f64::from_bits`, which
/// is not `const` at the workspace's minimum Rust version.
static THRESHOLDS: LazyLock<[[f64; 14]; 3]> = LazyLock::new(|| {
    [TpcwMix::Browsing, TpcwMix::Shopping, TpcwMix::Ordering].map(TpcwMix::thresholds)
});

/// The sequential walk over `freqs` that defines sampling: the index of the
/// first frequency the running remainder of `u` falls below, or 14 when the
/// frequencies' rounding leaves it above all of them.
fn walk(freqs: &[f64; 14], mut u: f64) -> usize {
    for (k, &f) in freqs.iter().enumerate() {
        if u < f {
            return k;
        }
        u -= f;
    }
    14
}

/// One of TPC-W's three workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TpcwMix {
    /// Browsing-dominated (WIPSb).
    Browsing,
    /// The balanced default the paper uses everywhere (WIPS).
    #[default]
    Shopping,
    /// Ordering-dominated (WIPSo).
    Ordering,
}

impl TpcwMix {
    /// Steady-state interaction frequencies (sum to 1.0), in
    /// [`ALL_INTERACTIONS`] order.
    pub fn frequencies(self) -> [f64; 14] {
        match self {
            TpcwMix::Browsing => [
                0.2876, 0.1103, 0.1103, 0.2102, 0.1209, 0.1103, 0.0204, 0.0082, 0.0075, 0.0069,
                0.0030, 0.0025, 0.0010, 0.0009,
            ],
            TpcwMix::Shopping => [
                0.1600, 0.0500, 0.0500, 0.1700, 0.2000, 0.1700, 0.1160, 0.0300, 0.0260, 0.0120,
                0.0075, 0.0066, 0.0010, 0.0009,
            ],
            TpcwMix::Ordering => [
                0.0912, 0.0046, 0.0046, 0.1235, 0.1453, 0.1308, 0.1353, 0.1286, 0.1273, 0.1018,
                0.0025, 0.0022, 0.0012, 0.0011,
            ],
        }
    }

    /// Probability that an interaction hits the search servlet under this
    /// mix.
    pub fn search_servlet_fraction(self) -> f64 {
        let freqs = self.frequencies();
        ALL_INTERACTIONS
            .iter()
            .zip(freqs)
            .filter(|(i, _)| i.hits_search_servlet())
            .map(|(_, f)| f)
            .sum()
    }

    /// Samples an interaction according to the mix frequencies: one draw,
    /// mapped through the mix's thresholds (see the module docs).
    pub fn sample<R: Rng>(self, rng: &mut R) -> Interaction {
        self.pick(rng.gen_range(0.0..1.0))
    }

    /// The interaction for draw `u`: the one at the number of thresholds
    /// `u` reaches, which is the index the walk stops at, or the walk's
    /// *Home* fallback when `u` reaches all fourteen.
    fn pick(self, u: f64) -> Interaction {
        let reached = THRESHOLDS[self as usize].iter().filter(|&&c| c <= u).count();
        ALL_INTERACTIONS.get(reached).copied().unwrap_or(Interaction::Home)
    }

    /// `C_k` for every `k`: the least `u` in `[0, 1]` the walk sends past
    /// index `k` (1.0, which no draw reaches, if none in `[0, 1)` is).
    fn thresholds(self) -> [f64; 14] {
        let freqs = self.frequencies();
        std::array::from_fn(|k| {
            // The walk stops at index 0 for u = 0, since every f_0 > 0.
            let (mut below, mut reached) = (0.0f64.to_bits(), 1.0f64.to_bits());
            while reached - below > 1 {
                let mid = below + (reached - below) / 2;
                if walk(&freqs, f64::from_bits(mid)) <= k {
                    below = mid;
                } else {
                    reached = mid;
                }
            }
            f64::from_bits(reached)
        })
    }

    /// Mean CPU weight of an interaction under this mix.
    pub fn mean_cpu_weight(self) -> f64 {
        ALL_INTERACTIONS.iter().zip(self.frequencies()).map(|(i, f)| i.cpu_weight() * f).sum()
    }

    /// Mean DB weight of an interaction under this mix.
    pub fn mean_db_weight(self) -> f64 {
        ALL_INTERACTIONS.iter().zip(self.frequencies()).map(|(i, f)| i.db_weight() * f).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    const MIXES: [TpcwMix; 3] = [TpcwMix::Browsing, TpcwMix::Shopping, TpcwMix::Ordering];

    /// The sampler the thresholds replaced, verbatim: the oracle.
    fn sequential(mix: TpcwMix, mut u: f64) -> Interaction {
        let freqs = mix.frequencies();
        for (interaction, f) in ALL_INTERACTIONS.iter().zip(freqs) {
            if u < f {
                return *interaction;
            }
            u -= f;
        }
        // Floating-point slack: the frequencies sum to ~1.0.
        Interaction::Home
    }

    /// `rand`'s unit draws are multiples of 2^-53.
    const DRAW_STEP: f64 = 1.0 / (1u64 << 53) as f64;

    #[test]
    fn discriminants_index_the_tables() {
        for (k, interaction) in ALL_INTERACTIONS.into_iter().enumerate() {
            assert_eq!(interaction as usize, k);
        }
        for (k, mix) in MIXES.into_iter().enumerate() {
            assert_eq!(mix as usize, k);
            assert_eq!(THRESHOLDS[k], mix.thresholds());
        }
    }

    #[test]
    fn thresholds_are_sorted_inside_the_unit_interval() {
        for mix in MIXES {
            let c = THRESHOLDS[mix as usize];
            assert!(c[0] > 0.0, "{mix:?}: a zero draw must sample Home");
            assert!(c.windows(2).all(|w| w[0] <= w[1]), "{mix:?}: unsorted {c:?}");
            assert!(c[13] <= 1.0, "{mix:?}: {c:?}");
        }
    }

    #[test]
    fn sampler_equals_the_walk_around_every_threshold() {
        let mut checked = 0;
        for mix in MIXES {
            for c in THRESHOLDS[mix as usize] {
                // Neighbouring doubles: the exact boundary.
                let bits = c.to_bits();
                let near_bits = (bits.saturating_sub(3)..=bits + 3).map(f64::from_bits);
                // Neighbouring draws on the generator's 2^-53 grid.
                let grid = (c / DRAW_STEP).floor();
                let near_draws = (-3..=4).map(|j| (grid + f64::from(j)) * DRAW_STEP);
                for u in near_bits.chain(near_draws).filter(|u| (0.0..1.0).contains(u)) {
                    assert_eq!(mix.pick(u), sequential(mix, u), "{mix:?} at u = {u:e}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 3 * 14 * 10, "only {checked} draws checked");
    }

    #[test]
    fn sampler_equals_the_walk_on_a_million_draws_per_mix() {
        for mix in MIXES {
            let mut rng = StdRng::seed_from_u64(0x5eed ^ mix as u64);
            let mut oracle_rng = rng.clone();
            for i in 0..1_000_000 {
                let got = mix.sample(&mut rng);
                let want = sequential(mix, oracle_rng.gen_range(0.0..1.0));
                assert_eq!(got, want, "{mix:?}, draw {i}");
            }
        }
    }

    #[test]
    fn frequencies_sum_to_one() {
        for mix in [TpcwMix::Browsing, TpcwMix::Shopping, TpcwMix::Ordering] {
            let sum: f64 = mix.frequencies().iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "{mix:?} frequencies sum to {sum}");
        }
    }

    #[test]
    fn shopping_search_fraction_is_twenty_percent() {
        let f = TpcwMix::Shopping.search_servlet_fraction();
        assert!((f - 0.20).abs() < 1e-9, "shopping mix search fraction {f}");
    }

    #[test]
    fn browsing_searches_less_ordering_between() {
        let b = TpcwMix::Browsing.search_servlet_fraction();
        let s = TpcwMix::Shopping.search_servlet_fraction();
        let o = TpcwMix::Ordering.search_servlet_fraction();
        assert!(b < s, "browsing ({b}) searches less than shopping ({s})");
        assert!(o < s && o > b);
    }

    #[test]
    fn sampling_matches_frequencies() {
        let mut rng = StdRng::seed_from_u64(77);
        let mix = TpcwMix::Shopping;
        let n = 200_000;
        let mut counts: HashMap<Interaction, usize> = HashMap::new();
        for _ in 0..n {
            *counts.entry(mix.sample(&mut rng)).or_default() += 1;
        }
        for (interaction, expected) in ALL_INTERACTIONS.iter().zip(mix.frequencies()) {
            let measured = *counts.get(interaction).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (measured - expected).abs() < 0.01,
                "{interaction:?}: measured {measured}, expected {expected}"
            );
        }
    }

    #[test]
    fn ordering_mix_buys_more() {
        let idx = |i: Interaction| ALL_INTERACTIONS.iter().position(|&x| x == i).unwrap();
        let buy = idx(Interaction::BuyConfirm);
        assert!(TpcwMix::Ordering.frequencies()[buy] > 10.0 * TpcwMix::Browsing.frequencies()[buy]);
    }

    #[test]
    fn weights_are_positive_and_search_is_heavy() {
        for i in ALL_INTERACTIONS {
            assert!(i.cpu_weight() > 0.0);
            assert!(i.db_weight() > 0.0);
        }
        assert!(Interaction::SearchRequest.cpu_weight() > Interaction::Home.cpu_weight());
        assert!(Interaction::BestSellers.db_weight() > Interaction::Home.db_weight());
    }

    #[test]
    fn only_search_request_hits_the_servlet() {
        let hits: Vec<_> = ALL_INTERACTIONS.iter().filter(|i| i.hits_search_servlet()).collect();
        assert_eq!(hits, vec![&Interaction::SearchRequest]);
    }

    #[test]
    fn mean_weights_are_sane() {
        for mix in [TpcwMix::Browsing, TpcwMix::Shopping, TpcwMix::Ordering] {
            assert!((0.5..3.0).contains(&mix.mean_cpu_weight()));
            assert!((0.3..3.0).contains(&mix.mean_db_weight()));
        }
    }
}
