//! Adapted baseline circuit-graph generators for the SynCircuit
//! evaluation (paper §VII-A):
//!
//! | baseline | flavor | adaptation | documented limitation |
//! |---|---|---|---|
//! | [`GraphRnn`] | autoregressive GRU | cycle breaking + topological sequencing + validity checker | acyclic output |
//! | [`Dvae`] | latent-variable autoregressive | same sequencing, latent-conditioned decoding | acyclic output |
//! | [`GraphMaker`] | one-shot attributed | gravity-inspired direction assignment + node-order refinement | direction never learned |
//! | [`SparseDigress`] | sparse discrete diffusion | undirected denoiser + gravity orientation + refinement | direction never learned |
//!
//! All four expose `train(corpus, …)` and `generate(n, seed)` and produce
//! graphs that satisfy the circuit constraints `C`, so they can
//! participate in both the structural comparison (Table II) and — for the
//! autoregressive pair — the downstream augmentation study (Table III).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod dvae;
pub mod graphmaker;
pub mod graphrnn;
pub mod sparsedigress;

pub use dvae::{Dvae, DvaeConfig};
pub use graphmaker::GraphMaker;
pub use graphrnn::{GraphRnn, GraphRnnConfig};
pub use sparsedigress::{SparseDigress, SparseDigressConfig};

use std::error::Error;
use std::fmt;

/// Error from baseline generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineError {
    /// No valid wiring was found for the sampled attributes.
    Unbuildable {
        /// Which generator failed.
        generator: &'static str,
        /// Requested node count.
        nodes: usize,
    },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Unbuildable { generator, nodes } => {
                write!(
                    f,
                    "{generator} could not build a valid {nodes}-node circuit"
                )
            }
        }
    }
}

impl Error for BaselineError {}
