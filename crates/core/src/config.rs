//! Pipeline configuration: [`PipelineConfig`], its validating
//! [`PipelineConfigBuilder`], and the typed [`ConfigError`] rejections.
//!
//! Configurations are constructed through the builder (or the validated
//! [`PipelineConfig::tiny`] / [`PipelineConfig::standard`] presets) —
//! fields are not publicly mutable, so every `PipelineConfig` handed to
//! [`crate::SynCircuit::fit`] has passed the same bad-combination
//! checks ([`PipelineConfigBuilder::build`]).
//!
//! ```
//! use syncircuit_core::{ConeSelection, PipelineConfig, RewardKind};
//!
//! let cfg = PipelineConfig::builder()
//!     .seed(7)
//!     .optimize_redundancy(true)
//!     .cone_selection(ConeSelection::WorstK(4))
//!     .reward(RewardKind::Exact)
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(cfg.seed(), 7);
//! ```

use crate::diffusion::{DecodeMode, DiffusionConfig};
use crate::mcts::{ConeSelection, MctsConfig};
use crate::refine::RefineConfig;
use serde::{Deserialize, Serialize};
use std::error::Error as StdError;
use std::fmt;
use syncircuit_synth::incremental::MAX_SHARD_COUNT;

// Caps on the sizes validation accepts: far above every preset (at most
// 12 actions per expansion, 32 sparse candidates and a negative ratio of
// 2.0), and far below a size whose allocation aborts the process.
const MAX_ACTIONS_PER_EXPANSION: usize = 1024;
const MAX_SPARSE_CANDIDATES: usize = 1024;
const MAX_NEG_RATIO: f64 = 100.0;

/// Reward oracle choice for Phase 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RewardKind {
    /// Synthesize every candidate exactly (slow, reference).
    Exact,
    /// Dirty-cone incremental synthesis: design PCS decomposed into
    /// memoized per-cone results, so each swap only re-synthesizes the
    /// cones it touched (see [`crate::IncrementalConeReward`]).
    IncrementalCone,
    /// Train a PCS discriminator on corpus cones and use it as the
    /// reward (the paper's accelerated setting).
    Discriminator {
        /// Training epochs for the discriminator.
        epochs: usize,
    },
}

/// Pipeline configuration bundling the three phases.
///
/// Constructed through [`PipelineConfig::builder`] (or the validated
/// presets); read through accessors. See the module docs for the
/// validation contract.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Phase 1 (diffusion) hyper-parameters.
    pub(crate) diffusion: DiffusionConfig,
    /// Phase 2 (validity refinement) options.
    pub(crate) refine: RefineConfig,
    /// Phase 3 (MCTS) hyper-parameters.
    pub(crate) mcts: MctsConfig,
    /// Whether to run Phase 3 at all (`false` ⇒ return `G_val`, the
    /// paper's "SynCircuit w/o opt" ablation).
    pub(crate) optimize_redundancy: bool,
    /// Which register cones Phase 3 optimizes.
    pub(crate) cone_selection: ConeSelection,
    /// Reward oracle for Phase 3.
    pub(crate) reward: RewardKind,
    /// Master seed (training and default generation).
    pub(crate) seed: u64,
    /// Lock-stripe count of the shared cone-synthesis cache (`0` ⇒ the
    /// library default). Operational knob: tunes contention, never
    /// results — excluded from model artifacts, so loaded models use
    /// the default stripe count.
    #[serde(skip)]
    pub(crate) cone_cache_shards: usize,
    /// Per-shard entry capacity of the shared cone-synthesis cache
    /// (`0` ⇒ unbounded). Operational knob: bounds residency under CLOCK
    /// eviction, never results — excluded from model artifacts.
    #[serde(skip)]
    pub(crate) cone_cache_capacity: usize,
}

impl PipelineConfig {
    /// Starts a builder pre-loaded with the [`PipelineConfig::tiny`]
    /// preset; override what you need and [`PipelineConfigBuilder::build`].
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder::tiny()
    }

    /// Re-opens this configuration in a builder (for derived configs).
    pub fn into_builder(self) -> PipelineConfigBuilder {
        PipelineConfigBuilder { config: self }
    }

    /// Small, fast configuration for tests, doctests and examples.
    pub fn tiny() -> Self {
        PipelineConfig {
            diffusion: DiffusionConfig::tiny(),
            refine: RefineConfig::default(),
            mcts: MctsConfig::tiny(),
            optimize_redundancy: true,
            cone_selection: ConeSelection::WorstK(4),
            reward: RewardKind::Exact,
            seed: 0,
            cone_cache_shards: 0,
            cone_cache_capacity: 0,
        }
    }

    /// Experiment-scale configuration: larger denoiser, more epochs,
    /// discriminator-accelerated MCTS (the benches use this).
    pub fn standard() -> Self {
        PipelineConfig {
            diffusion: DiffusionConfig {
                hidden: 48,
                layers: 3,
                steps: 9,
                epochs: 120,
                lr: 5e-3,
                neg_ratio: 2.0,
                decode: DecodeMode::Sparse {
                    candidates_per_node: 16,
                },
                grad_clip: 5.0,
            },
            refine: RefineConfig::default(),
            mcts: MctsConfig {
                simulations: 120,
                max_depth: 8,
                ..MctsConfig::default()
            },
            optimize_redundancy: true,
            cone_selection: ConeSelection::All,
            reward: RewardKind::Discriminator { epochs: 400 },
            seed: 0,
            cone_cache_shards: 0,
            cone_cache_capacity: 0,
        }
    }

    /// Phase 1 (diffusion) hyper-parameters.
    pub fn diffusion(&self) -> &DiffusionConfig {
        &self.diffusion
    }

    /// Phase 2 (validity refinement) options.
    pub fn refine(&self) -> &RefineConfig {
        &self.refine
    }

    /// Phase 3 (MCTS) hyper-parameters.
    pub fn mcts(&self) -> &MctsConfig {
        &self.mcts
    }

    /// Whether Phase 3 runs by default.
    pub fn optimize_redundancy(&self) -> bool {
        self.optimize_redundancy
    }

    /// Which register cones Phase 3 optimizes.
    pub fn cone_selection(&self) -> ConeSelection {
        self.cone_selection
    }

    /// Reward oracle for Phase 3.
    pub fn reward(&self) -> RewardKind {
        self.reward
    }

    /// Master seed (training and default generation).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Lock-stripe count of the shared cone-synthesis cache (`0` ⇒ the
    /// library default, currently 16; values round up to a power of
    /// two at cache construction, and validation rejects counts above
    /// [`syncircuit_synth::incremental::MAX_SHARD_COUNT`]). See
    /// [`syncircuit_synth::SharedConeSynthCache`].
    pub fn cone_cache_shards(&self) -> usize {
        self.cone_cache_shards
    }

    /// Per-shard entry capacity of the shared cone-synthesis cache
    /// (`0` ⇒ unbounded). When set, each shard keeps at most this many
    /// memoized cones, evicting CLOCK / second-chance victims past it —
    /// the residency ceiling a long-lived serving process needs. See
    /// [`syncircuit_synth::SharedConeSynthCache`].
    pub fn cone_cache_capacity(&self) -> usize {
        self.cone_cache_capacity
    }

    /// Checks the bad-combination rules; [`PipelineConfigBuilder::build`]
    /// and [`crate::SynCircuit::fit`] both enforce this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let d = &self.diffusion;
        if d.steps == 0 {
            return Err(ConfigError::ZeroDiffusionSteps);
        }
        if d.hidden == 0 || d.layers == 0 {
            return Err(ConfigError::ZeroDenoiserCapacity {
                hidden: d.hidden,
                layers: d.layers,
            });
        }
        if !d.lr.is_finite() || d.lr <= 0.0 {
            return Err(ConfigError::BadLearningRate(d.lr));
        }
        if !(0.0..=MAX_NEG_RATIO).contains(&d.neg_ratio) {
            return Err(ConfigError::BadNegativeRatio(d.neg_ratio));
        }
        if !d.grad_clip.is_finite() || d.grad_clip <= 0.0 {
            return Err(ConfigError::BadGradClip(d.grad_clip));
        }
        if let DecodeMode::Sparse {
            candidates_per_node,
        } = d.decode
        {
            if candidates_per_node == 0 {
                return Err(ConfigError::ZeroSparseCandidates);
            }
            if candidates_per_node > MAX_SPARSE_CANDIDATES {
                return Err(ConfigError::TooManySparseCandidates(candidates_per_node));
            }
        }
        if let RewardKind::Discriminator { epochs: 0 } = self.reward {
            return Err(ConfigError::ZeroDiscriminatorEpochs);
        }
        if self.cone_cache_shards > MAX_SHARD_COUNT {
            return Err(ConfigError::TooManyConeCacheShards(self.cone_cache_shards));
        }
        if self.optimize_redundancy {
            self.validate_phase3()?;
        }
        Ok(())
    }

    /// The Phase 3 subset of the bad-combination rules.
    /// [`validate`](PipelineConfig::validate) applies it when
    /// `optimize_redundancy` is on; generation re-applies it when a
    /// request *re-enables* Phase 3 via [`crate::GenRequest::optimize`]
    /// on a config that was validated with it off.
    pub fn validate_phase3(&self) -> Result<(), ConfigError> {
        let m = &self.mcts;
        if m.simulations == 0 {
            return Err(ConfigError::ZeroSimulations);
        }
        if m.max_depth == 0 {
            return Err(ConfigError::ZeroRolloutDepth);
        }
        if m.actions_per_expansion == 0 {
            return Err(ConfigError::ZeroActionsPerExpansion);
        }
        if m.actions_per_expansion > MAX_ACTIONS_PER_EXPANSION {
            return Err(ConfigError::TooManyActionsPerExpansion(
                m.actions_per_expansion,
            ));
        }
        if !m.exploration.is_finite() || m.exploration < 0.0 {
            return Err(ConfigError::BadExploration(m.exploration));
        }
        if self.cone_selection == ConeSelection::WorstK(0) {
            return Err(ConfigError::EmptyConeSelection);
        }
        Ok(())
    }
}

/// Validating builder for [`PipelineConfig`].
///
/// Starts from the [`PipelineConfig::tiny`] preset (see
/// [`PipelineConfigBuilder::standard`] for the experiment-scale base)
/// and checks the combined configuration on
/// [`build`](PipelineConfigBuilder::build), rejecting bad combinations
/// with a typed [`ConfigError`].
#[derive(Clone, Debug)]
pub struct PipelineConfigBuilder {
    config: PipelineConfig,
}

impl Default for PipelineConfigBuilder {
    fn default() -> Self {
        Self::tiny()
    }
}

impl PipelineConfigBuilder {
    /// Builder pre-loaded with the [`PipelineConfig::tiny`] preset.
    pub fn tiny() -> Self {
        PipelineConfigBuilder {
            config: PipelineConfig::tiny(),
        }
    }

    /// Builder pre-loaded with the [`PipelineConfig::standard`] preset.
    pub fn standard() -> Self {
        PipelineConfigBuilder {
            config: PipelineConfig::standard(),
        }
    }

    /// Replaces the Phase 1 (diffusion) hyper-parameters.
    pub fn diffusion(mut self, diffusion: DiffusionConfig) -> Self {
        self.config.diffusion = diffusion;
        self
    }

    /// Replaces the Phase 2 (validity refinement) options.
    pub fn refine(mut self, refine: RefineConfig) -> Self {
        self.config.refine = refine;
        self
    }

    /// Replaces the Phase 3 (MCTS) hyper-parameters.
    pub fn mcts(mut self, mcts: MctsConfig) -> Self {
        self.config.mcts = mcts;
        self
    }

    /// Toggles Phase 3 (`false` ⇒ generation returns `G_val`, the
    /// paper's "w/o opt" ablation; requests can still override per call
    /// via [`crate::GenRequest::optimize`]).
    pub fn optimize_redundancy(mut self, on: bool) -> Self {
        self.config.optimize_redundancy = on;
        self
    }

    /// Chooses which register cones Phase 3 optimizes.
    pub fn cone_selection(mut self, selection: ConeSelection) -> Self {
        self.config.cone_selection = selection;
        self
    }

    /// Chooses the Phase 3 reward oracle.
    pub fn reward(mut self, reward: RewardKind) -> Self {
        self.config.reward = reward;
        self
    }

    /// Sets the master seed (training and default generation).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the lock-stripe count of the shared cone-synthesis cache
    /// (`0` ⇒ the library default; rounded up to a power of two; at most
    /// [`syncircuit_synth::incremental::MAX_SHARD_COUNT`], or
    /// [`build`](PipelineConfigBuilder::build) fails).
    ///
    /// Operational knob: stripes only trade lock contention against
    /// memory — every count produces byte-identical generation output —
    /// so it is not persisted in model artifacts.
    pub fn cone_cache_shards(mut self, shards: usize) -> Self {
        self.config.cone_cache_shards = shards;
        self
    }

    /// Sets the per-shard entry capacity of the shared cone-synthesis
    /// cache (`0` ⇒ unbounded, the default).
    ///
    /// Operational knob: bounding only trades cache recall for a
    /// residency ceiling — the table memoizes a pure function of cone
    /// structure, so every capacity produces byte-identical generation
    /// output (property-tested in
    /// `tests/bounded_cache_equivalence.rs`) — so it is not persisted
    /// in model artifacts.
    pub fn cone_cache_capacity(mut self, per_shard_entries: usize) -> Self {
        self.config.cone_cache_capacity = per_shard_entries;
        self
    }

    /// Validates the combined configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the combination violates.
    pub fn build(self) -> Result<PipelineConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A rejected [`PipelineConfig`] combination.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// The diffusion schedule needs at least one step.
    ZeroDiffusionSteps,
    /// The denoiser needs non-zero width and depth.
    ZeroDenoiserCapacity {
        /// Configured hidden width.
        hidden: usize,
        /// Configured MPNN layer count.
        layers: usize,
    },
    /// The Adam learning rate must be finite and positive.
    BadLearningRate(f32),
    /// The negative-sampling ratio must lie in `0.0..=100.0`.
    BadNegativeRatio(f64),
    /// The gradient clip must be finite and positive.
    BadGradClip(f32),
    /// Sparse decoding needs at least one candidate per node.
    ZeroSparseCandidates,
    /// Sparse decoding asks for more than 1024 candidates per node.
    TooManySparseCandidates(usize),
    /// The discriminator reward needs at least one training epoch.
    ZeroDiscriminatorEpochs,
    /// The cone cache is asked for more lock stripes than
    /// [`syncircuit_synth::incremental::MAX_SHARD_COUNT`].
    TooManyConeCacheShards(usize),
    /// Phase 3 is enabled with zero simulations per cone.
    ZeroSimulations,
    /// Phase 3 is enabled with zero rollout depth.
    ZeroRolloutDepth,
    /// Phase 3 is enabled with zero candidate actions per expansion.
    ZeroActionsPerExpansion,
    /// Phase 3 asks for more than 1024 candidate actions per expansion.
    TooManyActionsPerExpansion(usize),
    /// The UCB1 exploration constant must be finite and non-negative.
    BadExploration(f64),
    /// Phase 3 is enabled but `WorstK(0)` selects no cones.
    EmptyConeSelection,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroDiffusionSteps => {
                write!(f, "diffusion needs at least one step")
            }
            ConfigError::ZeroDenoiserCapacity { hidden, layers } => write!(
                f,
                "denoiser needs non-zero capacity (hidden {hidden}, layers {layers})"
            ),
            ConfigError::BadLearningRate(lr) => {
                write!(f, "learning rate must be finite and positive, got {lr}")
            }
            ConfigError::BadNegativeRatio(r) => write!(
                f,
                "negative-sampling ratio must lie in [0, {MAX_NEG_RATIO}], got {r}"
            ),
            ConfigError::BadGradClip(c) => {
                write!(f, "gradient clip must be finite and positive, got {c}")
            }
            ConfigError::ZeroSparseCandidates => {
                write!(f, "sparse decoding needs candidates_per_node >= 1")
            }
            ConfigError::TooManySparseCandidates(n) => write!(
                f,
                "sparse decoding asks for {n} candidates per node, more than the \
                 {MAX_SPARSE_CANDIDATES} allowed"
            ),
            ConfigError::ZeroDiscriminatorEpochs => {
                write!(f, "discriminator reward needs at least one training epoch")
            }
            ConfigError::TooManyConeCacheShards(n) => write!(
                f,
                "cone cache asks for {n} lock stripes, more than the {MAX_SHARD_COUNT} allowed"
            ),
            ConfigError::ZeroSimulations => {
                write!(f, "Phase 3 is enabled with zero MCTS simulations")
            }
            ConfigError::ZeroRolloutDepth => {
                write!(f, "Phase 3 is enabled with zero rollout depth")
            }
            ConfigError::ZeroActionsPerExpansion => {
                write!(f, "Phase 3 is enabled with zero actions per expansion")
            }
            ConfigError::TooManyActionsPerExpansion(n) => write!(
                f,
                "Phase 3 asks for {n} actions per expansion, more than the \
                 {MAX_ACTIONS_PER_EXPANSION} allowed"
            ),
            ConfigError::BadExploration(c) => {
                write!(f, "exploration constant must be finite and >= 0, got {c}")
            }
            ConfigError::EmptyConeSelection => {
                write!(f, "Phase 3 is enabled but WorstK(0) selects no cones")
            }
        }
    }
}

impl StdError for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert_eq!(PipelineConfig::tiny().validate(), Ok(()));
        assert_eq!(PipelineConfig::standard().validate(), Ok(()));
        assert!(PipelineConfig::builder().build().is_ok());
        assert!(PipelineConfigBuilder::standard().build().is_ok());
    }

    #[test]
    fn builder_applies_overrides() {
        let cfg = PipelineConfig::builder()
            .seed(99)
            .optimize_redundancy(false)
            .reward(RewardKind::IncrementalCone)
            .cone_selection(ConeSelection::All)
            .build()
            .unwrap();
        assert_eq!(cfg.seed(), 99);
        assert!(!cfg.optimize_redundancy());
        assert_eq!(cfg.reward(), RewardKind::IncrementalCone);
        assert_eq!(cfg.cone_selection(), ConeSelection::All);
    }

    #[test]
    fn rejects_zero_steps() {
        let mut d = DiffusionConfig::tiny();
        d.steps = 0;
        let err = PipelineConfig::builder().diffusion(d).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroDiffusionSteps);
    }

    #[test]
    fn rejects_zero_sparse_candidates() {
        let mut d = DiffusionConfig::tiny();
        d.decode = DecodeMode::Sparse {
            candidates_per_node: 0,
        };
        let err = PipelineConfig::builder().diffusion(d).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroSparseCandidates);
    }

    #[test]
    fn rejects_untrained_discriminator() {
        let err = PipelineConfig::builder()
            .reward(RewardKind::Discriminator { epochs: 0 })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroDiscriminatorEpochs);
    }

    #[test]
    fn rejects_empty_phase3_combinations() {
        let mut m = MctsConfig::tiny();
        m.simulations = 0;
        let err = PipelineConfig::builder().mcts(m).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroSimulations);

        let err = PipelineConfig::builder()
            .cone_selection(ConeSelection::WorstK(0))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyConeSelection);
    }

    #[test]
    fn phase3_checks_waived_when_disabled() {
        // The same combinations are fine when Phase 3 never runs.
        let mut m = MctsConfig::tiny();
        m.simulations = 0;
        let cfg = PipelineConfig::builder()
            .mcts(m)
            .cone_selection(ConeSelection::WorstK(0))
            .optimize_redundancy(false)
            .build()
            .unwrap();
        assert!(!cfg.optimize_redundancy());
    }

    #[test]
    fn rejects_non_finite_hyperparameters() {
        let mut d = DiffusionConfig::tiny();
        d.lr = f32::NAN;
        assert!(matches!(
            PipelineConfig::builder().diffusion(d).build(),
            Err(ConfigError::BadLearningRate(_))
        ));
        let mut m = MctsConfig::tiny();
        m.exploration = f64::INFINITY;
        assert!(matches!(
            PipelineConfig::builder().mcts(m).build(),
            Err(ConfigError::BadExploration(_))
        ));
    }

    #[test]
    fn cone_cache_shards_knob() {
        assert_eq!(
            PipelineConfig::tiny().cone_cache_shards(),
            0,
            "0 means library default"
        );
        let cfg = PipelineConfig::builder()
            .cone_cache_shards(8)
            .build()
            .unwrap();
        assert_eq!(cfg.cone_cache_shards(), 8);
    }

    #[test]
    fn rejects_stripe_counts_past_the_cap() {
        let at_cap = PipelineConfig::builder()
            .cone_cache_shards(MAX_SHARD_COUNT)
            .build()
            .unwrap();
        assert_eq!(at_cap.cone_cache_shards(), MAX_SHARD_COUNT);
        for shards in [MAX_SHARD_COUNT + 1, 1 << 40, usize::MAX] {
            assert_eq!(
                PipelineConfig::builder()
                    .cone_cache_shards(shards)
                    .build()
                    .unwrap_err(),
                ConfigError::TooManyConeCacheShards(shards)
            );
        }
    }

    #[test]
    fn rejects_sizes_past_their_caps() {
        let mut m = MctsConfig::tiny();
        m.actions_per_expansion = MAX_ACTIONS_PER_EXPANSION;
        assert!(PipelineConfig::builder().mcts(m.clone()).build().is_ok());
        for actions in [MAX_ACTIONS_PER_EXPANSION + 1, 1 << 40, usize::MAX] {
            m.actions_per_expansion = actions;
            assert_eq!(
                PipelineConfig::builder()
                    .mcts(m.clone())
                    .build()
                    .unwrap_err(),
                ConfigError::TooManyActionsPerExpansion(actions)
            );
        }

        let sparse = |candidates_per_node| DiffusionConfig {
            decode: DecodeMode::Sparse {
                candidates_per_node,
            },
            ..DiffusionConfig::tiny()
        };
        let at_cap = sparse(MAX_SPARSE_CANDIDATES);
        assert!(PipelineConfig::builder().diffusion(at_cap).build().is_ok());
        for candidates in [MAX_SPARSE_CANDIDATES + 1, 1 << 40, usize::MAX] {
            assert_eq!(
                PipelineConfig::builder()
                    .diffusion(sparse(candidates))
                    .build()
                    .unwrap_err(),
                ConfigError::TooManySparseCandidates(candidates)
            );
        }

        let ratio = |neg_ratio| DiffusionConfig {
            neg_ratio,
            ..DiffusionConfig::tiny()
        };
        let at_cap = ratio(MAX_NEG_RATIO);
        assert!(PipelineConfig::builder().diffusion(at_cap).build().is_ok());
        for neg_ratio in [MAX_NEG_RATIO.next_up(), 1e20, f64::MAX] {
            assert_eq!(
                PipelineConfig::builder()
                    .diffusion(ratio(neg_ratio))
                    .build()
                    .unwrap_err(),
                ConfigError::BadNegativeRatio(neg_ratio)
            );
        }
    }

    #[test]
    fn cone_cache_capacity_knob() {
        assert_eq!(
            PipelineConfig::tiny().cone_cache_capacity(),
            0,
            "0 means unbounded"
        );
        let cfg = PipelineConfig::builder()
            .cone_cache_capacity(64)
            .build()
            .unwrap();
        assert_eq!(cfg.cone_cache_capacity(), 64);
    }

    #[test]
    fn into_builder_roundtrips() {
        let cfg = PipelineConfig::standard()
            .into_builder()
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(cfg.seed(), 5);
        assert_eq!(cfg.reward(), RewardKind::Discriminator { epochs: 400 });
    }
}
