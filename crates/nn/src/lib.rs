//! Minimal neural-network substrate for SynCircuit.
//!
//! The paper trains several small neural models (the diffusion denoiser's
//! MPNN encoder and TransE-style decoder, the PCS discriminator, the
//! baselines' GRUs, the PPA regressors). This crate provides the required
//! machinery from scratch, with no external ML dependencies:
//!
//! - [`Matrix`] — dense row-major `f32` matrices, with a panel-packed
//!   weight layout ([`PackedB`]) and one safe serving kernel, compiled
//!   per SIMD tier (portable, AVX2, AVX-512F) and picked at runtime
//! - [`Tape`] — reverse-mode automatic differentiation over matrix ops;
//!   it trains every model and is the oracle for serving passes, which
//!   call the packed kernels directly (`Linear::forward_packed_into`,
//!   `Mlp::forward_packed_cat_into`) and must match the tape bit for bit
//! - [`ParamStore`] / [`Adam`] — persistent parameters and optimizer state
//! - [`layers`] — `Linear`, `Mlp`, `Embedding`, `MpnnLayer`, `GruCell`
//! - [`sparse::RowNormAdj`] — row-normalized sparse adjacency for
//!   mean-over-parents message passing
//!
//! Every differentiable op is validated against central finite
//! differences in the test suite.
//!
//! # Example: fitting XOR
//!
//! ```
//! use syncircuit_nn::{layers::Mlp, Adam, Matrix, ParamStore, Tape};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(3);
//! let mut store = ParamStore::new();
//! let mlp = Mlp::new(&mut store, &[2, 8, 1], &mut rng);
//! let mut adam = Adam::with_lr(0.05);
//! let x = Matrix::from_rows(&[&[0., 0.], &[0., 1.], &[1., 0.], &[1., 1.]]);
//! let y = Matrix::from_rows(&[&[0.], &[1.], &[1.], &[0.]]);
//! let mut loss = f32::INFINITY;
//! for _ in 0..500 {
//!     let mut tape = Tape::new(&store);
//!     let xs = tape.leaf(x.clone());
//!     let logits = mlp.forward(&mut tape, xs);
//!     let l = tape.bce_with_logits_mean(logits, y.clone());
//!     loss = tape.scalar(l);
//!     let grads = tape.backward(l);
//!     adam.step(&mut store, &grads);
//! }
//! assert!(loss < 0.1, "XOR should be learnable, got {loss}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod layers;
pub mod sparse;

mod matrix;
mod params;
mod tape;

pub use matrix::{Matrix, PackedB};
pub use params::{Adam, ParamId, ParamStore};
pub use tape::{sigmoid, Gradients, Tape, Var};
