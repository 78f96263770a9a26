//! Tunable parameters of the randomized MSRP algorithm.
//!
//! The paper fixes its constants for the sake of the high-probability analysis (sampling
//! probability `4/2^k · sqrt(σ/n)`, near/far threshold `2 · sqrt(n/σ) · log n`, window constant
//! `ℓ ≥ 2`). At laptop scale those thresholds exceed the diameter of most interesting graphs, so
//! every edge is "near" and almost every vertex is a landmark; the algorithm is then exact but
//! its asymptotic structure is not exercised. [`MsrpParams`] therefore exposes every constant:
//! the defaults follow the paper (used by the correctness tests), and
//! [`MsrpParams::scaled_for_benchmarks`] shrinks them so the far-edge and interval machinery
//! actually runs in the experiments (documented in `EXPERIMENTS.md`).

use msrp_graph::Distance;

/// How the replacement paths from every source to every landmark are computed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SourceToLandmarkStrategy {
    /// Run the classical `Õ(m + n)` single-pair routine once per (source, landmark) pair.
    ///
    /// This is what the paper does for `σ = 1` (Section 3) and is the natural-but-slower
    /// approach for larger `σ` (`Õ((m + n)·σ·sqrt(nσ))`); it serves as the ablation baseline.
    Exact,
    /// Use the path-cover machinery of Section 8 (centers, intervals, MTC, bottleneck edges),
    /// the paper's contribution for general `σ`.
    PathCover,
}

/// Parameters controlling sampling probabilities, near/far thresholds and window sizes.
#[derive(Clone, Debug, PartialEq)]
pub struct MsrpParams {
    /// Multiplier of the sampling probability (the paper uses 4).
    pub sampling_constant: f64,
    /// Multiplier of the near/far threshold (the paper uses 2).
    pub near_constant: f64,
    /// The window constant `ℓ` of Sections 8.1 and 8.2 (the paper requires `ℓ ≥ 2`).
    pub window_constant: f64,
    /// Scale applied to the `log n` factor in every threshold (1.0 follows the paper; the
    /// benchmark presets shrink it so that thresholds stay below graph diameters).
    pub log_scale: f64,
    /// Number of Algorithm-4-style refinement sweeps applied to the path-cover table
    /// (see `multi_source`); 0 disables refinement.
    pub refinement_sweeps: usize,
    /// Seed for landmark and center sampling (the algorithm is otherwise deterministic).
    pub seed: u64,
    /// Strategy for the source→landmark replacement tables when `σ > 1`.
    pub strategy: SourceToLandmarkStrategy,
}

impl Default for MsrpParams {
    fn default() -> Self {
        MsrpParams {
            sampling_constant: 4.0,
            near_constant: 2.0,
            window_constant: 4.0,
            log_scale: 1.0,
            refinement_sweeps: 2,
            seed: 0xC0FF_EE00_D15E_A5E5,
            strategy: SourceToLandmarkStrategy::PathCover,
        }
    }
}

impl MsrpParams {
    /// Paper-faithful constants (same as `Default`), exact with high probability.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Constants scaled down so that the sampling hierarchy and the far-edge machinery are
    /// exercised on graphs that fit on a laptop. Still correct (every candidate the algorithm
    /// adds is a real path), but the high-probability guarantee is weaker; experiment E3
    /// measures the empirical exactness rate under this preset.
    pub fn scaled_for_benchmarks() -> Self {
        MsrpParams {
            sampling_constant: 1.0,
            near_constant: 1.0,
            window_constant: 2.0,
            log_scale: 0.25,
            refinement_sweeps: 1,
            ..Self::default()
        }
    }

    /// Returns a copy with a different sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different source→landmark strategy.
    pub fn with_strategy(mut self, strategy: SourceToLandmarkStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The `log n` term used by every threshold (never below 1).
    fn log_term(&self, n: usize) -> f64 {
        ((n.max(2)) as f64).ln().max(1.0) * self.log_scale
    }

    /// The base unit `X = sqrt(n/σ) · log n` that all distance thresholds are multiples of.
    fn base_unit(&self, n: usize, sigma: usize) -> f64 {
        let sigma = sigma.max(1);
        ((n.max(1)) as f64 / sigma as f64).sqrt() * self.log_term(n)
    }

    /// An edge at distance `< near_threshold` from the target (measured along the canonical
    /// path) is a *near* edge (Section 5).
    pub fn near_threshold(&self, n: usize, sigma: usize) -> f64 {
        self.near_constant * self.base_unit(n, sigma)
    }

    /// The largest sampling level `K = ⌊log₂ sqrt(nσ)⌋` (Definition 3).
    pub fn max_level(&self, n: usize, sigma: usize) -> usize {
        let v = ((n.max(1) * sigma.max(1)) as f64).sqrt().log2().floor();
        if v.is_finite() && v > 0.0 {
            v as usize
        } else {
            0
        }
    }

    /// Sampling probability of level `k` (Definition 3): `min(1, c/2^k · sqrt(σ/n))`.
    pub fn sampling_probability(&self, k: usize, n: usize, sigma: usize) -> f64 {
        let n = n.max(1) as f64;
        let sigma = sigma.max(1) as f64;
        (self.sampling_constant / (1u64 << k.min(62)) as f64 * (sigma / n).sqrt()).min(1.0)
    }

    /// Classifies an edge by its distance to the target: `None` means the edge is *near*,
    /// `Some(k)` means the edge is *k-far* (distance in `[2^{k+1}·X, 2^{k+2}·X)`), with `k`
    /// capped at [`MsrpParams::max_level`].
    pub fn far_level(&self, distance_to_target: Distance, n: usize, sigma: usize) -> Option<usize> {
        let x = self.base_unit(n, sigma);
        let d = distance_to_target as f64;
        if d < self.near_constant * x {
            return None;
        }
        let k = (d / x).log2().floor() as i64 - 1;
        let k = k.max(0) as usize;
        Some(k.min(self.max_level(n, sigma)))
    }

    /// The landmark radius of level `k`: Algorithm 3 only considers landmarks within distance
    /// `2^k · X` of the target.
    pub fn landmark_radius(&self, k: usize, n: usize, sigma: usize) -> f64 {
        (1u64 << k.min(62)) as f64 * self.base_unit(n, sigma)
    }

    /// The Section 8 window: how many edges (counted from the center's side) a priority-`k`
    /// center is responsible for, `ℓ · 2^k · X`.
    pub fn window_size(&self, k: usize, n: usize, sigma: usize) -> usize {
        (self.window_constant * (1u64 << k.min(62)) as f64 * self.base_unit(n, sigma))
            .ceil()
            .max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let p = MsrpParams::default();
        assert_eq!(p.sampling_constant, 4.0);
        assert_eq!(p.near_constant, 2.0);
        assert!(p.window_constant >= 2.0);
        assert_eq!(p.strategy, SourceToLandmarkStrategy::PathCover);
        assert_eq!(MsrpParams::paper(), MsrpParams::default());
    }

    #[test]
    fn probabilities_are_valid_and_decreasing_in_k() {
        let p = MsrpParams::default();
        let (n, sigma) = (10_000, 4);
        let mut prev = f64::INFINITY;
        for k in 0..=p.max_level(n, sigma) {
            let prob = p.sampling_probability(k, n, sigma);
            assert!((0.0..=1.0).contains(&prob));
            assert!(prob <= prev);
            prev = prob;
        }
        // Small graphs saturate at probability 1.
        assert_eq!(p.sampling_probability(0, 16, 4), 1.0);
    }

    #[test]
    fn far_levels_partition_distances() {
        let p = MsrpParams { log_scale: 1.0, ..MsrpParams::default() };
        let (n, sigma) = (1 << 14, 1);
        let x = p.base_unit(n, sigma);
        assert!(p.far_level((0.5 * x) as Distance, n, sigma).is_none());
        assert_eq!(p.far_level((2.5 * x) as Distance, n, sigma), Some(0));
        assert_eq!(p.far_level((5.0 * x) as Distance, n, sigma), Some(1));
        assert_eq!(p.far_level((10.0 * x) as Distance, n, sigma), Some(2));
        // Very large distances are capped at the maximum level.
        let far = p.far_level(Distance::MAX / 2, n, sigma).unwrap();
        assert_eq!(far, p.max_level(n, sigma));
    }

    #[test]
    fn far_edges_are_farther_than_their_landmark_radius() {
        // The key invariant behind Algorithm 3: a k-far edge is at distance >= 2^{k+1}·X from
        // the target while considered landmarks are within 2^k·X, so no considered landmark's
        // shortest path to the target can contain the edge.
        let p = MsrpParams::default();
        let (n, sigma) = (1 << 12, 2);
        for d in [20u32, 50, 120, 400, 1000] {
            if let Some(k) = p.far_level(d, n, sigma) {
                assert!(
                    (d as f64) >= p.landmark_radius(k, n, sigma),
                    "distance {d} must exceed radius at level {k}"
                );
            }
        }
    }

    #[test]
    fn max_level_matches_definition() {
        let p = MsrpParams::default();
        assert_eq!(p.max_level(1 << 10, 1), 5); // sqrt(1024) = 32, log2 = 5
        assert_eq!(p.max_level(1 << 10, 4), 6); // sqrt(4096) = 64
        assert_eq!(p.max_level(1, 1), 0);
    }

    #[test]
    fn window_is_at_least_one_and_monotone() {
        let p = MsrpParams::default();
        let (n, sigma) = (4096, 8);
        let mut prev = 0;
        for k in 0..=p.max_level(n, sigma) {
            let w = p.window_size(k, n, sigma);
            assert!(w >= 1);
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    fn builder_style_modifiers() {
        let p = MsrpParams::default().with_seed(7).with_strategy(SourceToLandmarkStrategy::Exact);
        assert_eq!(p.seed, 7);
        assert_eq!(p.strategy, SourceToLandmarkStrategy::Exact);
    }

    #[test]
    fn benchmark_preset_shrinks_thresholds() {
        let paper = MsrpParams::paper();
        let bench = MsrpParams::scaled_for_benchmarks();
        let (n, sigma) = (2048, 4);
        assert!(bench.near_threshold(n, sigma) < paper.near_threshold(n, sigma));
        assert!(bench.sampling_probability(0, n, sigma) < paper.sampling_probability(0, n, sigma));
    }
}
