//! SynCircuit's primary contribution: automated generation of new
//! synthetic RTL circuits with valid functionality (DAC 2025).
//!
//! The pipeline has three phases (paper §III):
//!
//! 1. **[`diffusion`]** — a customized discrete-diffusion model over
//!    directed cyclic graphs: time-conditioned MPNN encoder, TransE-style
//!    asymmetric edge decoder, cosine two-state noise schedule
//!    ([`schedule`]), sparse candidate decoding for large graphs.
//! 2. **[`refine`](mod@refine)** — probability-guided post-processing that turns the
//!    raw diffusion output into a graph satisfying the circuit
//!    constraints `C` (fan-in arity per node type, no combinational
//!    loops), with out-degree guidance.
//! 3. **[`mcts`]** — Monte-Carlo tree search over atomic parent-swap
//!    actions that reduces logic redundancy cone by cone, rewarded by
//!    post-synthesis circuit size (exactly, or through the trained
//!    [`discriminator`]).
//!
//! [`SynCircuit`] ties the phases together behind a service-ready
//! surface: a validated [`PipelineConfig`] (built through
//! [`PipelineConfig::builder`]), one [`GenRequest`] shape for every
//! generation mode, lazy streaming ([`SynCircuit::stream`]), parallel
//! batches ([`SynCircuit::generate_batch`]), and versioned model
//! persistence ([`SynCircuit::save`] / [`SynCircuit::load`], see
//! [`persist`]). All failures surface as the unified [`Error`] enum.
//!
//! # Example
//!
//! ```
//! use syncircuit_core::{GenRequest, PipelineConfig, SynCircuit};
//! use syncircuit_graph::testing::random_circuit_with_size;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), syncircuit_core::Error> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let corpus: Vec<_> = (0..3).map(|_| random_circuit_with_size(&mut rng, 25)).collect();
//! let config = PipelineConfig::builder().seed(1).build()?;
//! let model = SynCircuit::fit(&corpus, config)?;
//! let generated = model.generate_one(&GenRequest::nodes(30))?;
//! assert!(generated.graph.is_valid());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attrs;
pub mod config;
pub mod denoiser;
pub mod diffusion;
pub mod discriminator;
pub mod error;
mod hash;
pub mod mcts;
mod par;
pub mod persist;
pub mod pipeline;
pub mod refine;
pub mod request;
pub mod schedule;

pub use attrs::AttrModel;
pub use config::{ConfigError, PipelineConfig, PipelineConfigBuilder, RewardKind};
pub use diffusion::{
    DecodeMode, DiffusionConfig, DiffusionModel, EdgeProbs, SampledGraph, SamplerScratch,
};
pub use discriminator::PcsDiscriminator;
pub use error::{Error, PersistError, RequestError};
pub use mcts::{
    optimize_cone_mcts, optimize_random_walk, optimize_registers, optimize_registers_random,
    ConeSelection, ExactSynthReward, IncrementalConeReward, MctsConfig, MctsOutcome, RewardModel,
};
pub use persist::{MODEL_FORMAT, MODEL_VERSION};
pub use pipeline::{Generated, SynCircuit};
pub use refine::{refine, refine_without_diffusion, RefineConfig, RefineError};
pub use request::{
    GenRequest, Generator, PhaseToggles, MAX_DENSE_REQUEST_NODES, MAX_REQUEST_NODES,
};
pub use schedule::NoiseSchedule;
pub use syncircuit_synth::{ConeCacheStats, SharedConeSynthCache};
