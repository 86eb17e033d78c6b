//! Verilog-subset emitter and parser for SynCircuit.
//!
//! The paper's problem formulation (§II) requires a *bijection*
//! `f : D ↔ G` between HDL code and the circuit graph. This crate
//! realizes both directions for a well-defined synthesizable Verilog-2001
//! subset:
//!
//! - [`emit`] prints a [`CircuitGraph`](syncircuit_graph::CircuitGraph)
//!   as a Verilog module (one wire per
//!   node, named `n<id>`; registers in per-register `always` blocks).
//! - [`parse`] reads that subset back into a graph, recovering node ids,
//!   types, widths and auxiliary attributes exactly.
//!
//! `parse(emit(g)) == g` holds for every valid, *emittable* graph (see
//! [`emit`] for the bit-select range precondition); the property tests in
//! this crate check it on randomly generated circuits.
//!
//! # Example
//!
//! ```
//! use syncircuit_graph::{CircuitGraph, NodeType};
//! use syncircuit_hdl::{emit, parse};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = CircuitGraph::new("adder");
//! let a = g.add_node(NodeType::Input, 8);
//! let b = g.add_node(NodeType::Input, 8);
//! let s = g.add_node(NodeType::Add, 8);
//! let o = g.add_node(NodeType::Output, 8);
//! g.set_parents(s, &[a, b])?;
//! g.set_parents(o, &[s])?;
//! let verilog = emit(&g)?;
//! assert!(verilog.contains("assign n2 = n0 + n1;"));
//! assert_eq!(parse(&verilog)?, g);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod emitter;
mod parser;

pub use emitter::{emit, EmitError};
pub use parser::{parse, ParseError};
