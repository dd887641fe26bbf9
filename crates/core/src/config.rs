//! Algorithm configuration.

use serde::{Deserialize, Serialize};

/// How the marking stage of the maximal b-matching subroutine chooses the
/// edges a node proposes to its neighbours (Section 6, "Variants").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MarkingStrategy {
    /// Mark edges chosen uniformly at random — the StackMR default.
    #[default]
    Random,
    /// Mark the heaviest edges — the StackGreedyMR variant.
    HeaviestFirst,
}

/// Configuration of [`crate::GreedyMr`].
#[derive(Debug, Clone)]
pub struct GreedyMrConfig {
    /// Safety bound on the number of rounds (the algorithm may need a
    /// number of rounds linear in `|E|` in the worst case).
    pub max_rounds: usize,
}

impl Default for GreedyMrConfig {
    fn default() -> Self {
        GreedyMrConfig {
            max_rounds: 100_000,
        }
    }
}

impl GreedyMrConfig {
    /// Sets the round budget.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }
}

/// Configuration of [`crate::StackMr`].
#[derive(Debug, Clone)]
pub struct StackMrConfig {
    /// The slackness parameter ε: capacities may be violated by a factor of
    /// at most (1+ε) and the approximation guarantee is 1/(6+ε).  The
    /// paper's experiments use ε = 1.
    pub epsilon: f64,
    /// Edge-selection strategy of the marking stage ([`MarkingStrategy`]):
    /// `Random` gives StackMR, `HeaviestFirst` gives StackGreedyMR.
    pub marking: MarkingStrategy,
    /// Seed of the pseudo-random generator used by the randomized maximal
    /// b-matching subroutine; runs with equal seeds are reproducible.
    pub seed: u64,
    /// Safety bound on push rounds (the theoretical bound is
    /// `O(log³n/ε² · log(w_max/w_min))` w.h.p.).
    pub max_push_rounds: usize,
    /// Safety bound on the iterations of one maximal-matching computation
    /// (the expected number is `O(log³ n)`).
    pub max_maximal_iterations: usize,
}

impl Default for StackMrConfig {
    fn default() -> Self {
        StackMrConfig {
            epsilon: 1.0,
            marking: MarkingStrategy::Random,
            seed: 42,
            max_push_rounds: 10_000,
            max_maximal_iterations: 10_000,
        }
    }
}

/// Panics unless ε is finite and strictly positive: ε = ∞ makes the
/// weak-coverage factor 0, so every edge would be covered before the
/// first push and the matching would be silently empty.
pub(crate) fn assert_valid_epsilon(epsilon: f64) {
    assert!(
        epsilon.is_finite() && epsilon > 0.0,
        "epsilon must be positive and finite"
    );
}

impl StackMrConfig {
    /// The StackGreedyMR variant of the configuration (heaviest-first
    /// marking), leaving everything else unchanged.
    pub fn stack_greedy(mut self) -> Self {
        self.marking = MarkingStrategy::HeaviestFirst;
        self
    }

    /// Sets ε.
    ///
    /// # Panics
    /// Panics if `epsilon` is not finite and strictly positive.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert_valid_epsilon(epsilon);
        self.epsilon = epsilon;
        self
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-node capacity used for the layers of the stack:
    /// `max(1, ⌈ε·b(v)⌉)`.
    ///
    /// With ε = 1 (the paper's experimental setting) a layer may contain up
    /// to `b(v)` edges per node; smaller ε yields thinner layers, lower
    /// capacity violations and more push rounds.
    pub fn layer_capacity(&self, b: u64) -> u64 {
        ((self.epsilon * b as f64).ceil() as u64).max(1)
    }

    /// The weak-coverage factor `1/(3 + 2ε)` of Definition 1.
    pub fn weak_coverage_factor(&self) -> f64 {
        1.0 / (3.0 + 2.0 * self.epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_experimental_setting() {
        let c = StackMrConfig::default();
        assert_eq!(c.epsilon, 1.0);
        assert_eq!(c.marking, MarkingStrategy::Random);
        assert!((c.weak_coverage_factor() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stack_greedy_flips_only_the_marking_strategy() {
        let base = StackMrConfig::default().with_seed(7);
        let greedy = base.clone().stack_greedy();
        assert_eq!(greedy.marking, MarkingStrategy::HeaviestFirst);
        assert_eq!(greedy.seed, 7);
        assert_eq!(greedy.epsilon, base.epsilon);
    }

    #[test]
    fn layer_capacity_scales_with_epsilon() {
        let full = StackMrConfig::default().with_epsilon(1.0);
        assert_eq!(full.layer_capacity(10), 10);
        let half = StackMrConfig::default().with_epsilon(0.5);
        assert_eq!(half.layer_capacity(10), 5);
        assert_eq!(half.layer_capacity(1), 1);
        let tiny = StackMrConfig::default().with_epsilon(0.01);
        assert_eq!(tiny.layer_capacity(10), 1);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_is_rejected() {
        StackMrConfig::default().with_epsilon(0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive and finite")]
    fn infinite_epsilon_is_rejected() {
        StackMrConfig::default().with_epsilon(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive and finite")]
    fn nan_epsilon_is_rejected() {
        StackMrConfig::default().with_epsilon(f64::NAN);
    }

    #[test]
    fn greedy_config_builder() {
        let c = GreedyMrConfig::default().with_max_rounds(5);
        assert_eq!(c.max_rounds, 5);
    }
}
