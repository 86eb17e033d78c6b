//! Incremental adjacency fingerprints (Zobrist hashing over parent slots).
//!
//! Phase 3 of the pipeline evaluates thousands of candidate rewirings per
//! register and memoizes rewards by graph structure. Recomputing a
//! structural hash from scratch costs O(V + E) per query; this module
//! instead assigns every *parent slot assignment* `(child, slot, parent)`
//! a pseudo-random 64-bit token and defines the fingerprint of a graph as
//! the XOR of all its tokens (plus a node-count term). XOR is its own
//! inverse, so a mutation that rewrites one node's parent list updates
//! the fingerprint in O(arity) — see [`crate::swap::SwapGraph`].
//!
//! The fingerprint covers *structure only* (which parent sits in which
//! slot of which node), not node attributes: the parent-swap action never
//! changes attributes, so within one optimization run equal fingerprints
//! imply equal circuits (up to 2⁻⁶⁴ collision probability, the usual
//! Zobrist argument).

use crate::circuit::CircuitGraph;
use crate::node::NodeId;

/// SplitMix64 finalizer: a fast, well-distributed 64-bit bijection used
/// to derive slot tokens.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Token of one parent-slot assignment `parents(child)[slot] == parent`.
#[inline]
fn token(child: u64, slot: u64, parent: u64) -> u64 {
    splitmix64(child ^ splitmix64(slot ^ splitmix64(parent ^ 0xA076_1D64_78BD_642F)))
}

/// XOR of the tokens contributed by one node's full parent list.
///
/// The fingerprint of a graph is the XOR of every node's contribution;
/// after mutating `parents(child)`, update with
/// `fp ^= old_contribution ^ new_contribution`.
#[inline]
pub fn child_contribution(child: NodeId, parents: &[NodeId]) -> u64 {
    let c = child.index() as u64;
    parents.iter().enumerate().fold(0u64, |acc, (slot, p)| {
        acc ^ token(c, slot as u64, p.index() as u64)
    })
}

/// Structural fingerprint of a graph, computed from scratch in O(V + E).
///
/// Equals the incrementally maintained fingerprint of
/// [`crate::swap::SwapGraph`] at every step (property-tested), so cached
/// values keyed by one are valid for the other.
pub fn zobrist_fingerprint(g: &CircuitGraph) -> u64 {
    let mut fp = splitmix64(g.node_count() as u64 ^ 0x5851_F42D_4C95_7F2D);
    for id in g.node_ids() {
        fp ^= child_contribution(id, g.parents(id));
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeType;

    fn tiny() -> CircuitGraph {
        let mut g = CircuitGraph::new("t");
        let a = g.add_node(NodeType::Input, 4);
        let b = g.add_node(NodeType::Input, 4);
        let s = g.add_node(NodeType::Add, 4);
        let o = g.add_node(NodeType::Output, 4);
        g.set_parents(s, &[a, b]).unwrap();
        g.set_parents(o, &[s]).unwrap();
        g
    }

    #[test]
    fn equal_graphs_equal_fingerprints() {
        assert_eq!(zobrist_fingerprint(&tiny()), zobrist_fingerprint(&tiny()));
    }

    #[test]
    fn rewiring_changes_fingerprint() {
        let g = tiny();
        let mut g2 = g.clone();
        g2.set_parents_unchecked(NodeId::new(2), &[NodeId::new(1), NodeId::new(0)]);
        assert_ne!(zobrist_fingerprint(&g), zobrist_fingerprint(&g2));
    }

    #[test]
    fn slot_order_is_significant() {
        // sub(a, b) and sub(b, a) are different circuits and must not
        // collide: tokens are slot-position-sensitive.
        let mut g1 = CircuitGraph::new("s");
        let a = g1.add_node(NodeType::Input, 4);
        let b = g1.add_node(NodeType::Input, 4);
        let s = g1.add_node(NodeType::Sub, 4);
        let mut g2 = g1.clone();
        g1.set_parents(s, &[a, b]).unwrap();
        g2.set_parents(s, &[b, a]).unwrap();
        assert_ne!(zobrist_fingerprint(&g1), zobrist_fingerprint(&g2));
    }

    #[test]
    fn incremental_update_matches_recompute() {
        let mut g = tiny();
        let s = NodeId::new(2);
        let mut fp = zobrist_fingerprint(&g);
        let old = child_contribution(s, g.parents(s));
        g.set_parents_unchecked(s, &[NodeId::new(1), NodeId::new(1)]);
        fp ^= old ^ child_contribution(s, g.parents(s));
        assert_eq!(fp, zobrist_fingerprint(&g));
    }

    #[test]
    fn node_count_contributes() {
        let mut g1 = CircuitGraph::new("a");
        g1.add_node(NodeType::Input, 1);
        let mut g2 = g1.clone();
        g2.add_node(NodeType::Input, 1);
        assert_ne!(zobrist_fingerprint(&g1), zobrist_fingerprint(&g2));
    }
}
