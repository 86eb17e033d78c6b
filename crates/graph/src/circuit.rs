//! The circuit graph container.

use crate::error::GraphError;
use crate::node::{Node, NodeId, NodeType};
use serde::{Deserialize, Serialize};

/// A directed edge `from → to` (`from` drives `to`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Edge {
    /// Driving (parent) node.
    pub from: NodeId,
    /// Driven (child) node.
    pub to: NodeId,
}

/// A directed cyclic circuit graph `G = (V, E, X)`.
///
/// Nodes carry a [`NodeType`] and a bit width (the attributes `X` of the
/// paper's formulation). Each node stores its parents in *slot order* —
/// the order is semantically meaningful (e.g. a [`NodeType::Mux`]'s first
/// parent is the select). Forward traversals build the children
/// adjacency once with [`CircuitGraph::children_index`].
///
/// The container itself permits invalid intermediate states (wrong arity,
/// combinational loops) so that generative models can operate freely;
/// [`CircuitGraph::validate`] checks the paper's constraints `C`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitGraph {
    name: String,
    nodes: Vec<Node>,
    parents: Vec<Vec<NodeId>>,
}

impl CircuitGraph {
    /// Creates an empty circuit graph with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitGraph {
            name: name.into(),
            nodes: Vec::new(),
            parents: Vec::new(),
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of edges (counting duplicate parent slots).
    pub fn edge_count(&self) -> usize {
        self.parents.iter().map(Vec::len).sum()
    }

    /// Adds a node with `aux = 0` and returns its id.
    pub fn add_node(&mut self, ty: NodeType, width: u32) -> NodeId {
        self.push_node(Node::new(ty, width))
    }

    /// Adds a constant node carrying `value` (masked to `width`).
    pub fn add_const(&mut self, width: u32, value: u64) -> NodeId {
        let masked = value & crate::node::mask(width);
        self.push_node(Node::with_aux(NodeType::Const, width, masked))
    }

    /// Adds a bit-select node extracting `width` bits starting at `offset`.
    pub fn add_bit_select(&mut self, width: u32, offset: u32) -> NodeId {
        self.push_node(Node::with_aux(NodeType::BitSelect, width, offset as u64))
    }

    /// Adds a pre-built [`Node`].
    pub fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(node);
        self.parents.push(Vec::new());
        id
    }

    /// Replaces the attributes of an existing node, keeping its edges.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn replace_node(&mut self, id: NodeId, node: Node) {
        self.nodes[id.index()] = node;
    }

    /// Returns the node attributes, or `None` if out of range.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Returns the node attributes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Shorthand for `self.node(id).ty()`.
    #[inline]
    pub fn ty(&self, id: NodeId) -> NodeType {
        self.node(id).ty()
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i), n))
    }

    /// Slot-ordered parents of `id`.
    #[inline]
    pub fn parents(&self, id: NodeId) -> &[NodeId] {
        &self.parents[id.index()]
    }

    /// Builds the full children adjacency.
    ///
    /// Index `i` holds the children of node `i`, with multiplicity.
    pub fn children_index(&self) -> Vec<Vec<NodeId>> {
        let mut lists = vec![Vec::new(); self.nodes.len()];
        for (child, ps) in self.parents.iter().enumerate() {
            for &p in ps {
                lists[p.index()].push(NodeId::new(child));
            }
        }
        lists
    }

    /// Replaces the parent list of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ArityMismatch`] if the count does not match
    /// the node type's arity, or [`GraphError::UnknownNode`] if any id is
    /// out of range. Use [`CircuitGraph::set_parents_unchecked`] when
    /// building intentionally invalid intermediate graphs.
    pub fn set_parents(&mut self, node: NodeId, parents: &[NodeId]) -> Result<(), GraphError> {
        self.check_node(node)?;
        for &p in parents {
            self.check_node(p)?;
        }
        let ty = self.nodes[node.index()].ty();
        if parents.len() != ty.arity() {
            return Err(GraphError::ArityMismatch {
                node,
                ty,
                expected: ty.arity(),
                got: parents.len(),
            });
        }
        self.parents[node.index()] = parents.to_vec();
        Ok(())
    }

    /// Replaces the parent list of `node` without arity checking.
    ///
    /// # Panics
    ///
    /// Panics if `node` or any parent id is out of range.
    pub fn set_parents_unchecked(&mut self, node: NodeId, parents: &[NodeId]) {
        for &p in parents {
            assert!(p.index() < self.nodes.len(), "parent {p} out of range");
        }
        self.parents[node.index()] = parents.to_vec();
    }

    /// Appends a parent slot (`from` drives `to`), without arity checking.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if either id is out of range.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        self.check_node(from)?;
        self.check_node(to)?;
        self.parents[to.index()].push(from);
        Ok(())
    }

    /// Removes one occurrence of the edge `from → to`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingEdge`] if no such parent slot exists.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        self.check_node(from)?;
        self.check_node(to)?;
        let slots = &mut self.parents[to.index()];
        match slots.iter().position(|&p| p == from) {
            Some(pos) => {
                slots.remove(pos);
                Ok(())
            }
            None => Err(GraphError::MissingEdge { from, to }),
        }
    }

    /// Crate-internal direct access to one node's parent slot list: the
    /// in-place swap engine ([`crate::swap::SwapGraph`]) uses this for
    /// O(arity) slot surgery while maintaining its own children index.
    pub(crate) fn parents_vec_mut(&mut self, id: NodeId) -> &mut Vec<NodeId> {
        &mut self.parents[id.index()]
    }

    /// Iterates over all edges `(from, to)` with multiplicity.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.parents.iter().enumerate().flat_map(|(child, ps)| {
            ps.iter().map(move |&p| Edge {
                from: p,
                to: NodeId::new(child),
            })
        })
    }

    /// Returns `true` if an edge `from → to` exists (any slot).
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.parents[to.index()].contains(&from)
    }

    /// Ids of all nodes of the given type.
    pub fn nodes_of_type(&self, ty: NodeType) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| n.ty() == ty)
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of nodes of the given type.
    pub fn count_of_type(&self, ty: NodeType) -> usize {
        self.nodes.iter().filter(|n| n.ty() == ty).count()
    }

    /// Total register bits (the denominator of the paper's SCPR metric:
    /// "the total number of bits in sequential signals in the pre-synthesis
    /// HDL design").
    pub fn register_bits(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.ty().is_register())
            .map(|n| n.width() as u64)
            .sum()
    }

    /// Dense boolean adjacency matrix in row-major order:
    /// `adj[from * n + to]` is `true` when `from → to` exists.
    ///
    /// Duplicate parent slots collapse to a single `true`.
    pub fn to_dense_adjacency(&self) -> Vec<bool> {
        let n = self.nodes.len();
        let mut adj = vec![false; n * n];
        for e in self.edges() {
            adj[e.from.index() * n + e.to.index()] = true;
        }
        adj
    }

    /// In-degree of every node (slot count).
    pub fn in_degrees(&self) -> Vec<usize> {
        self.parents.iter().map(Vec::len).collect()
    }

    /// Out-degree of every node (with multiplicity).
    pub fn out_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.nodes.len()];
        for ps in &self.parents {
            for p in ps {
                d[p.index()] += 1;
            }
        }
        d
    }

    fn check_node(&self, id: NodeId) -> Result<(), GraphError> {
        if id.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownNode {
                node: id,
                len: self.nodes.len(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn build_and_query() {
        let g = tiny();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.parents(NodeId::new(2)), &[NodeId::new(0), NodeId::new(1)]);
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!g.has_edge(NodeId::new(2), NodeId::new(0)));
    }

    #[test]
    fn children_index_tracks_mutations() {
        let mut g = tiny();
        let s = NodeId::new(2);
        assert_eq!(g.children_index()[0], [s]);
        g.remove_edge(NodeId::new(0), s).unwrap();
        assert!(g.children_index()[0].is_empty());
        assert_eq!(g.parents(s), &[NodeId::new(1)]);
    }

    #[test]
    fn arity_checked_set_parents() {
        let mut g = tiny();
        let s = NodeId::new(2);
        let err = g.set_parents(s, &[NodeId::new(0)]).unwrap_err();
        assert!(matches!(err, GraphError::ArityMismatch { got: 1, .. }));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut g = tiny();
        let bogus = NodeId::new(99);
        assert!(matches!(
            g.add_edge(bogus, NodeId::new(0)),
            Err(GraphError::UnknownNode { .. })
        ));
    }

    #[test]
    fn missing_edge_remove() {
        let mut g = tiny();
        assert!(matches!(
            g.remove_edge(NodeId::new(3), NodeId::new(0)),
            Err(GraphError::MissingEdge { .. })
        ));
    }

    #[test]
    fn duplicate_parents_allowed() {
        let mut g = CircuitGraph::new("dup");
        let a = g.add_node(NodeType::Input, 8);
        let s = g.add_node(NodeType::Add, 8);
        g.set_parents(s, &[a, a]).unwrap(); // x + x is legal hardware
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degrees()[a.index()], 2);
        // Dense adjacency collapses multiplicity.
        let adj = g.to_dense_adjacency();
        assert_eq!(adj.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn degrees() {
        let g = tiny();
        assert_eq!(g.in_degrees(), vec![0, 0, 2, 1]);
        assert_eq!(g.out_degrees(), vec![1, 1, 1, 0]);
    }

    #[test]
    fn register_bits_sums_widths() {
        let mut g = CircuitGraph::new("r");
        g.add_node(NodeType::Reg, 8);
        g.add_node(NodeType::Reg, 3);
        g.add_node(NodeType::Add, 16);
        assert_eq!(g.register_bits(), 11);
    }

    #[test]
    fn serde_roundtrip() {
        let g = tiny();
        let json = serde_json::to_string(&g).unwrap();
        let g2: CircuitGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.children_index()[0], [NodeId::new(2)]);
    }

    #[test]
    fn const_value_masked() {
        let mut g = CircuitGraph::new("c");
        let c = g.add_const(4, 0x1ff);
        assert_eq!(g.node(c).aux(), 0xf);
    }
}
