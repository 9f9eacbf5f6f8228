//! Bisection configuration.

/// Configuration for [`bisect`](crate::bisect).
#[derive(Clone, PartialEq, Debug)]
pub struct BisectConfig {
    /// Target fraction of total vertex weight on side 0 (0.5 = even split).
    pub target_fraction: f64,
    /// Allowed deviation from the target fraction, as a fraction of total
    /// weight. The placer derives this from region whitespace.
    pub tolerance: f64,
    /// Independent multilevel runs; the best cut wins. More starts trade
    /// runtime for quality (the paper's §7 effort experiment).
    pub num_starts: usize,
    /// Maximum FM passes per level.
    pub max_passes: usize,
    /// Coarsening stops once this many vertices remain.
    pub coarsen_until: usize,
    /// Base RNG seed; run `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for BisectConfig {
    fn default() -> Self {
        Self {
            target_fraction: 0.5,
            tolerance: 0.1,
            num_starts: 1,
            max_passes: 4,
            coarsen_until: 96,
            seed: 1,
        }
    }
}

impl BisectConfig {
    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different number of random starts.
    pub fn with_starts(mut self, num_starts: usize) -> Self {
        self.num_starts = num_starts.max(1);
        self
    }

    /// Returns the config with the balance tolerance doubled (capped at
    /// 0.45): the retry step a caller takes after
    /// [`Bisection::check_balance`](crate::Bisection::check_balance)
    /// reports an imbalance failure.
    pub fn relaxed(mut self) -> Self {
        self.tolerance = (self.tolerance * 2.0).min(0.45);
        self
    }

    /// Maximum weight allowed on side 0 for `total` weight.
    pub(crate) fn max_side0(&self, total: f64) -> f64 {
        (self.target_fraction + self.tolerance).min(1.0) * total
    }

    /// Maximum weight allowed on side 1 for `total` weight.
    pub(crate) fn max_side1(&self, total: f64) -> f64 {
        (1.0 - self.target_fraction + self.tolerance).min(1.0) * total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_balanced() {
        let c = BisectConfig::default();
        assert_eq!(c.target_fraction, 0.5);
        assert!(c.tolerance > 0.0);
        assert_eq!(c.max_side0(10.0), 6.0);
        assert_eq!(c.max_side1(10.0), 6.0);
    }

    #[test]
    fn asymmetric_targets() {
        let c = BisectConfig {
            target_fraction: 0.3,
            tolerance: 0.05,
            ..BisectConfig::default()
        };
        assert!((c.max_side0(100.0) - 35.0).abs() < 1e-12);
        assert!((c.max_side1(100.0) - 75.0).abs() < 1e-12);
    }

    #[test]
    fn builder_helpers() {
        let c = BisectConfig::default().with_seed(9).with_starts(0);
        assert_eq!(c.seed, 9);
        assert_eq!(c.num_starts, 1);
    }
}
