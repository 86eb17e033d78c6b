//! Directed cyclic circuit-graph IR for SynCircuit.
//!
//! This crate implements the paper's problem formulation (§II): a circuit
//! design is a directed cyclic graph `G = (V, E, X)` whose node attributes
//! `X` carry an operator [`NodeType`] and a bit [`width`](Node::width).
//! Signal flow follows edge direction: an edge `u → v` makes `u` a *parent*
//! (driver) of `v`.
//!
//! The two circuit constraints `C` from the paper are first-class here:
//!
//! 1. **Arity** — the node type uniquely determines the number of parents
//!    ([`NodeType::arity`]).
//! 2. **No combinational loops** — every cycle must pass through at least
//!    one register ([`comb::find_comb_loop`]).
//!
//! On top of the IR the crate provides the graph algorithms the rest of the
//! system needs (SCC, topological order of the combinational subgraph,
//! driving-cone extraction) and the structural statistics used by the
//! paper's Table II evaluation (degrees, clustering, triangles, 4-node
//! graphlet orbits, homophily).
//!
//! # Example
//!
//! ```
//! use syncircuit_graph::{CircuitGraph, NodeType};
//!
//! let mut g = CircuitGraph::new("counter");
//! let one = g.add_const(8, 1);
//! let reg = g.add_node(NodeType::Reg, 8);
//! let sum = g.add_node(NodeType::Add, 8);
//! let out = g.add_node(NodeType::Output, 8);
//! g.set_parents(sum, &[reg, one]).unwrap();
//! g.set_parents(reg, &[sum]).unwrap(); // cycle through a register: legal
//! g.set_parents(out, &[reg]).unwrap();
//! assert!(g.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algo;
pub mod comb;
pub mod cone;
pub mod error;
pub mod fingerprint;
pub mod interp;
pub mod node;
pub mod stats;
pub mod swap;
pub mod testing;
pub mod validate;

mod circuit;
mod marks;

pub use circuit::{CircuitGraph, Edge};
pub use error::{GraphError, ValidateError};
pub use fingerprint::zobrist_fingerprint;
pub use marks::Marks;
pub use node::{mask, Node, NodeId, NodeType, ALL_NODE_TYPES, MAX_WIDTH};
pub use swap::{SwapDelta, SwapGraph};
