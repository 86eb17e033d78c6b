//! NanGate45-inspired cell area model.
//!
//! Areas are in square-micron-like units chosen to keep relative costs
//! realistic (a DFF ≈ 4.5 NAND2-equivalents, a full adder ≈ 2.2, an array
//! multiplier Θ(w²), a barrel shifter Θ(w·log w)). The simulator models
//! one technology, so each cell's area is a constant.

use syncircuit_graph::{CircuitGraph, Node, NodeType};

/// Area of one D flip-flop bit.
const DFF: f64 = 4.5;
/// Area of one full-adder bit (ripple adder/subtractor stage).
const FULL_ADDER: f64 = 2.2;
/// Area per partial-product cell of an array multiplier (w² cells).
const MUL_CELL: f64 = 1.6;
/// Area of one 2-input AND/OR bit.
const AND_OR: f64 = 0.8;
/// Area of one 2-input XOR bit.
const XOR: f64 = 1.2;
/// Area of one inverter bit.
const NOT: f64 = 0.4;
/// Area of one 2:1 mux bit.
const MUX: f64 = 1.1;
/// Area per comparator bit (EQ/LT reduce trees).
const CMP: f64 = 1.0;
/// Area per shifter mux bit-level (barrel shifter has ⌈log₂w⌉ levels).
const SHIFT: f64 = 1.0;
/// Area of one NAND2 gate, used to express gate counts.
const NAND2: f64 = 0.8;

/// Area contributed by a single node.
pub(crate) fn node_area(node: &Node) -> f64 {
    let w = node.width() as f64;
    match node.ty() {
        NodeType::Input | NodeType::Output | NodeType::Const => 0.0,
        NodeType::BitSelect | NodeType::Concat => 0.0, // pure wiring
        NodeType::Reg => w * DFF,
        NodeType::Add | NodeType::Sub => w * FULL_ADDER,
        NodeType::Mul => w * w * MUL_CELL,
        NodeType::And | NodeType::Or => w * AND_OR,
        NodeType::Xor => w * XOR,
        NodeType::Not => w * NOT,
        NodeType::Mux => w * MUX,
        NodeType::Eq | NodeType::Lt => w * CMP,
        NodeType::Shl | NodeType::Shr => {
            let levels = (node.width().max(2) as f64).log2().ceil();
            w * levels * SHIFT
        }
    }
}

/// Total cell area of a graph.
pub fn area_of_graph(g: &CircuitGraph) -> f64 {
    g.iter().map(|(_, n)| node_area(n)).sum()
}

/// NAND2-equivalent gate count (used for Table I's "design scale").
pub fn gate_count(g: &CircuitGraph) -> u64 {
    (area_of_graph(g) / NAND2).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wiring_nodes_are_free() {
        assert_eq!(node_area(&Node::new(NodeType::Input, 64)), 0.0);
        assert_eq!(node_area(&Node::new(NodeType::Concat, 64)), 0.0);
        assert_eq!(node_area(&Node::new(NodeType::BitSelect, 8)), 0.0);
        assert_eq!(node_area(&Node::new(NodeType::Const, 8)), 0.0);
    }

    #[test]
    fn area_scales_with_width() {
        let a8 = node_area(&Node::new(NodeType::Add, 8));
        let a16 = node_area(&Node::new(NodeType::Add, 16));
        assert!((a16 / a8 - 2.0).abs() < 1e-9);
        // multiplier is quadratic
        let m8 = node_area(&Node::new(NodeType::Mul, 8));
        let m16 = node_area(&Node::new(NodeType::Mul, 16));
        assert!((m16 / m8 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn relative_cell_costs_are_sane() {
        let dff = node_area(&Node::new(NodeType::Reg, 1));
        let inv = node_area(&Node::new(NodeType::Not, 1));
        let mux = node_area(&Node::new(NodeType::Mux, 1));
        assert!(dff > mux && mux > inv);
    }

    #[test]
    fn graph_area_sums_nodes() {
        let mut g = CircuitGraph::new("a");
        g.add_node(NodeType::Reg, 8);
        g.add_node(NodeType::Add, 8);
        let expect = 8.0 * DFF + 8.0 * FULL_ADDER;
        assert!((area_of_graph(&g) - expect).abs() < 1e-9);
        assert!(gate_count(&g) > 0);
    }
}
