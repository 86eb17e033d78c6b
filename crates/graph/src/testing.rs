//! Seeded random *valid* circuit generation, used as a corpus for
//! property-based tests throughout the workspace (HDL round-trips,
//! synthesis semantics preservation, refinement invariants).
//!
//! The construction guarantees validity by wiring each combinational
//! node's parents only to lower-indexed non-register nodes or to any
//! register: a combinational edge then always goes from a lower index to a
//! higher one, so every cycle must pass through a register.

use crate::circuit::CircuitGraph;
use crate::node::{Node, NodeId, NodeType};
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for [`random_valid_circuit`].
#[derive(Clone, Debug)]
pub struct RandomCircuitConfig {
    /// Total node budget (the generator may add a few extra outputs).
    pub num_nodes: usize,
    /// Fraction of nodes that are registers.
    pub reg_fraction: f64,
    /// Fraction of nodes that are inputs.
    pub input_fraction: f64,
    /// Fraction of nodes that are constants.
    pub const_fraction: f64,
    /// Number of output ports.
    pub num_outputs: usize,
    /// Candidate bit widths, sampled uniformly.
    pub widths: Vec<u32>,
}

impl Default for RandomCircuitConfig {
    fn default() -> Self {
        RandomCircuitConfig {
            num_nodes: 40,
            reg_fraction: 0.18,
            input_fraction: 0.08,
            const_fraction: 0.06,
            num_outputs: 2,
            widths: vec![1, 2, 4, 8, 16, 32],
        }
    }
}

/// Generates a random circuit satisfying all circuit constraints `C`.
///
/// The result always validates: correct arities, no combinational loops,
/// outputs drive nothing, and every bit-select is in range of its parent
/// (so the circuit is emittable as Verilog).
pub fn random_valid_circuit<R: Rng>(rng: &mut R, config: &RandomCircuitConfig) -> CircuitGraph {
    let mut g = CircuitGraph::new(format!("rand{}", rng.gen_range(0..1_000_000)));
    let n = config.num_nodes.max(6);

    let n_inputs = ((n as f64 * config.input_fraction) as usize).max(1);
    let n_consts = ((n as f64 * config.const_fraction) as usize).max(1);
    let n_regs = ((n as f64 * config.reg_fraction) as usize).max(1);
    let n_outputs = config.num_outputs.max(1);
    let n_comb = n
        .saturating_sub(n_inputs + n_consts + n_regs + n_outputs)
        .max(1);

    let pick_width = |rng: &mut R| *config.widths.choose(rng).unwrap_or(&8);

    let comb_types = [
        NodeType::Not,
        NodeType::And,
        NodeType::Or,
        NodeType::Xor,
        NodeType::Add,
        NodeType::Sub,
        NodeType::Mul,
        NodeType::Eq,
        NodeType::Lt,
        NodeType::Shl,
        NodeType::Shr,
        NodeType::Concat,
        NodeType::Mux,
        NodeType::BitSelect,
    ];

    // Sources first, then registers, then combinational nodes in index
    // order, then outputs.
    let mut sources = Vec::new();
    for _ in 0..n_inputs {
        sources.push(g.add_node(NodeType::Input, pick_width(rng)));
    }
    for _ in 0..n_consts {
        let w = pick_width(rng);
        sources.push(g.add_const(w, rng.gen::<u64>()));
    }
    let mut regs = Vec::new();
    for _ in 0..n_regs {
        regs.push(g.add_node(NodeType::Reg, pick_width(rng)));
    }
    let mut combs = Vec::new();
    for _ in 0..n_comb {
        let ty = *comb_types.choose(rng).expect("non-empty comb types");
        let w = pick_width(rng);
        combs.push(g.add_node(ty, w));
    }

    // Wire combinational nodes: parents are lower-indexed sources/combs or
    // any register.
    for (k, &id) in combs.iter().enumerate() {
        let mut pool: Vec<NodeId> = sources.clone();
        pool.extend_from_slice(&regs);
        pool.extend_from_slice(&combs[..k]);
        let ty = g.ty(id);
        if ty == NodeType::BitSelect {
            let w = g.node(id).width();
            // need a parent at least as wide; widen this node down if none
            let candidates: Vec<NodeId> = pool
                .iter()
                .copied()
                .filter(|&p| g.node(p).width() >= w)
                .collect();
            let parent = if candidates.is_empty() {
                // shrink to a 1-bit select of any parent
                let p = *pool.choose(rng).expect("non-empty pool");
                g.replace_node(id, Node::with_aux(NodeType::BitSelect, 1, 0));
                p
            } else {
                *candidates.choose(rng).expect("non-empty candidates")
            };
            let w = g.node(id).width();
            let pw = g.node(parent).width();
            let max_off = pw - w;
            let off = if max_off == 0 {
                0
            } else {
                rng.gen_range(0..=max_off)
            };
            g.replace_node(id, Node::with_aux(NodeType::BitSelect, w, off as u64));
            g.set_parents_unchecked(id, &[parent]);
        } else {
            let parents: Vec<NodeId> = (0..ty.arity())
                .map(|_| *pool.choose(rng).expect("non-empty pool"))
                .collect();
            g.set_parents_unchecked(id, &parents);
        }
    }

    // Wire registers to anything (cycles through registers are legal).
    let mut all_drivers: Vec<NodeId> = sources.clone();
    all_drivers.extend_from_slice(&regs);
    all_drivers.extend_from_slice(&combs);
    for &r in &regs {
        let p = *all_drivers.choose(rng).expect("non-empty drivers");
        g.set_parents_unchecked(r, &[p]);
    }

    // Outputs sample distinct-ish drivers (never other outputs).
    for _ in 0..n_outputs {
        let p = *all_drivers.choose(rng).expect("non-empty drivers");
        let o = g.add_node(NodeType::Output, g.node(p).width());
        g.set_parents_unchecked(o, &[p]);
    }

    debug_assert!(g.is_valid(), "generator must produce valid circuits");
    g
}

/// Convenience wrapper with the default configuration and a node budget.
pub fn random_circuit_with_size<R: Rng>(rng: &mut R, num_nodes: usize) -> CircuitGraph {
    let config = RandomCircuitConfig {
        num_nodes,
        ..RandomCircuitConfig::default()
    };
    random_valid_circuit(rng, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn generated_circuits_are_valid() {
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..50 {
            let g = random_circuit_with_size(&mut rng, 20 + i);
            assert!(g.is_valid(), "seed iteration {i}: {:?}", g.validate());
        }
    }

    #[test]
    fn generated_circuits_are_simulatable() {
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..10 {
            let g = random_circuit_with_size(&mut rng, 30);
            let mut sim = crate::interp::Simulator::new(&g).expect("simulatable");
            let outs = sim.step(&std::collections::HashMap::new());
            assert_eq!(outs.len(), g.count_of_type(NodeType::Output));
        }
    }

    #[test]
    fn bitselects_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let g = random_circuit_with_size(&mut rng, 60);
            for (id, node) in g.iter() {
                if node.ty() == NodeType::BitSelect {
                    let parent = g.parents(id)[0];
                    let pw = g.node(parent).width();
                    assert!(
                        node.aux() as u32 + node.width() <= pw,
                        "bitselect {id} out of range"
                    );
                }
            }
        }
    }

    #[test]
    fn respects_size_knob() {
        let mut rng = StdRng::seed_from_u64(1);
        let small = random_circuit_with_size(&mut rng, 20);
        let large = random_circuit_with_size(&mut rng, 200);
        assert!(large.node_count() > small.node_count() * 5);
    }
}
