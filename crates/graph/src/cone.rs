//! Register driving-cone extraction (paper §VI-A).
//!
//! "The term *driving cone for a register* refers to the set of nodes
//! obtained by performing a reverse breadth-first search starting from a
//! register node. This search traces back through the parent nodes until
//! nodes of type `const`, `in`, or other `reg` nodes are encountered."

use crate::circuit::CircuitGraph;
use crate::node::{NodeId, NodeType};
use std::collections::HashMap;

/// The driving cone of a register: the apex register, the combinational
/// nodes feeding it, and the boundary leaves (inputs, constants, other
/// registers) where the reverse search stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrivingCone {
    /// The register whose D input the cone drives.
    pub register: NodeId,
    /// Combinational nodes inside the cone (excludes apex and boundary),
    /// in discovery (reverse-BFS) order.
    pub members: Vec<NodeId>,
    /// Boundary leaves: `const`, `in`, or `reg` nodes feeding the cone.
    pub boundary: Vec<NodeId>,
}

impl DrivingCone {
    /// Total number of nodes in the cone including apex and boundary.
    pub fn size(&self) -> usize {
        1 + self.members.len() + self.boundary.len()
    }
}

/// Reusable scratch buffers for repeated fan-in cone extractions.
///
/// The visited set is tag-stamped (bumping an epoch counter instead of
/// clearing), and the BFS queue plus member/boundary lists are reused
/// across calls, so a warm [`fanin_cone_into`] performs no allocations.
#[derive(Clone, Debug, Default)]
pub struct ConeScratch {
    seen: Vec<u32>,
    tag: u32,
    queue: Vec<NodeId>,
    members: Vec<NodeId>,
    boundary: Vec<NodeId>,
}

impl ConeScratch {
    /// Empty scratch (buffers grow to the host-graph size on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Extracts the fan-in cone of `apex` into `scratch`, generalizing
/// register driving cones (§VI-A) over the apex type: reverse BFS
/// through parents from any apex node — register, output, or plain
/// combinational — stopping at (but recording) `const` / `in` / `reg`
/// boundary nodes.
///
/// Returns `(members, boundary)` slices borrowed from the scratch, in
/// discovery (reverse-BFS) order — identical to the order
/// [`driving_cone`] records. Allocation-free once the scratch is warm.
pub fn fanin_cone_into<'s>(
    g: &CircuitGraph,
    apex: NodeId,
    scratch: &'s mut ConeScratch,
) -> (&'s [NodeId], &'s [NodeId]) {
    let n = g.node_count();
    if scratch.seen.len() < n {
        scratch.seen.resize(n, 0);
    }
    scratch.tag = scratch.tag.wrapping_add(1);
    if scratch.tag == 0 {
        scratch.seen.fill(0);
        scratch.tag = 1;
    }
    let tag = scratch.tag;
    scratch.members.clear();
    scratch.boundary.clear();
    scratch.queue.clear();
    scratch.seen[apex.index()] = tag;
    scratch.queue.extend_from_slice(g.parents(apex));
    let mut head = 0;
    while head < scratch.queue.len() {
        let u = scratch.queue[head];
        head += 1;
        if scratch.seen[u.index()] == tag {
            continue;
        }
        scratch.seen[u.index()] = tag;
        let ty = g.ty(u);
        if matches!(ty, NodeType::Const | NodeType::Input | NodeType::Reg) {
            scratch.boundary.push(u);
        } else {
            scratch.members.push(u);
            for &p in g.parents(u) {
                if scratch.seen[p.index()] != tag {
                    scratch.queue.push(p);
                }
            }
        }
    }
    (&scratch.members, &scratch.boundary)
}

/// Extracts the driving cone for `register` by reverse BFS through
/// parents, stopping at (but recording) `const` / `in` / other `reg`
/// nodes.
///
/// # Panics
///
/// Panics if `register` is not a [`NodeType::Reg`] node.
pub fn driving_cone(g: &CircuitGraph, register: NodeId) -> DrivingCone {
    assert!(
        g.ty(register).is_register(),
        "driving_cone requires a register node, got {}",
        g.ty(register)
    );
    let mut scratch = ConeScratch::new();
    let (members, boundary) = fanin_cone_into(g, register, &mut scratch);
    DrivingCone {
        register,
        members: members.to_vec(),
        boundary: boundary.to_vec(),
    }
}

/// A standalone sub-circuit built from a driving cone, synthesizable on
/// its own: boundary leaves become inputs (constants are preserved), the
/// apex register is kept and feeds a fresh output port.
///
/// `mapping` relates original node ids to ids in the extracted circuit.
#[derive(Clone, Debug)]
pub struct ConeCircuit {
    /// The standalone circuit.
    pub circuit: CircuitGraph,
    /// Maps original ids → extracted ids.
    pub mapping: HashMap<NodeId, NodeId>,
}

/// Builds a standalone synthesizable circuit from a driving cone.
///
/// Boundary `in`/`reg` nodes are replaced by fresh [`NodeType::Input`]
/// nodes of the same width; boundary constants keep their value. The apex
/// register survives (so the sub-circuit has exactly one sequential
/// element) and drives a fresh [`NodeType::Output`].
pub fn cone_circuit(g: &CircuitGraph, cone: &DrivingCone) -> ConeCircuit {
    cone_circuit_parts(g, cone.register, &cone.members, &cone.boundary)
}

/// Builds a standalone synthesizable circuit from cone parts — the one
/// implementation behind both register driving cones and output sink
/// cones (see [`fanin_cone_into`] for extraction).
///
/// Boundary `in`/`reg` nodes become fresh [`NodeType::Input`] nodes of
/// the same width; boundary constants keep their value. A sink apex
/// (e.g. [`NodeType::Output`]) is already an observation port and is
/// kept as-is; any other apex (registers, combinational nodes) survives
/// and drives a fresh [`NodeType::Output`] port.
///
/// The node order is boundary, members, apex, then the port. The cone
/// cache of `syncircuit-synth` lays a missed cone out in exactly this
/// order without building the circuit, and is tested against it.
pub fn cone_circuit_parts(
    g: &CircuitGraph,
    apex: NodeId,
    members: &[NodeId],
    boundary: &[NodeId],
) -> ConeCircuit {
    let apex_node = g.node(apex);
    let kind = if apex_node.ty().is_sink() { "sink" } else { "cone" };
    let mut out = CircuitGraph::new(format!("{}_{kind}_{apex}", g.name()));
    let mut mapping: HashMap<NodeId, NodeId> = HashMap::new();

    for &b in boundary {
        let node = g.node(b);
        let new = match node.ty() {
            NodeType::Const => out.add_const(node.width(), node.aux()),
            _ => out.add_node(NodeType::Input, node.width()),
        };
        mapping.insert(b, new);
    }
    // Members in reverse-discovery order is not topological; create nodes
    // first, wire after.
    for &m in members {
        let node = g.node(m);
        let new = out.push_node(*node);
        mapping.insert(m, new);
    }
    let new_apex = out.push_node(*apex_node);
    mapping.insert(apex, new_apex);

    for &m in members.iter().chain(std::iter::once(&apex)) {
        let new_id = mapping[&m];
        let new_parents: Vec<NodeId> = g
            .parents(m)
            .iter()
            .map(|p| {
                *mapping.get(p).unwrap_or_else(|| {
                    panic!("cone parent {p} of {m} not in cone; cone extraction is closed")
                })
            })
            .collect();
        out.set_parents_unchecked(new_id, &new_parents);
    }

    if !apex_node.ty().is_sink() {
        let port = out.add_node(NodeType::Output, apex_node.width());
        out.set_parents_unchecked(port, &[new_apex]);
    }

    ConeCircuit {
        circuit: out,
        mapping,
    }
}

/// Extracts the driving cones of every register in the graph.
pub fn all_driving_cones(g: &CircuitGraph) -> Vec<DrivingCone> {
    g.nodes_of_type(NodeType::Reg)
        .into_iter()
        .map(|r| driving_cone(g, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// in ──► add ──► reg_a ──► not ──► reg_b ──► out
    ///          ▲                │
    ///          └── const ───────┘ (just shapes, see body)
    fn two_regs() -> (CircuitGraph, NodeId, NodeId) {
        let mut g = CircuitGraph::new("t");
        let i = g.add_node(NodeType::Input, 8);
        let c = g.add_const(8, 3);
        let add = g.add_node(NodeType::Add, 8);
        let ra = g.add_node(NodeType::Reg, 8);
        let not = g.add_node(NodeType::Not, 8);
        let rb = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(add, &[i, c]).unwrap();
        g.set_parents(ra, &[add]).unwrap();
        g.set_parents(not, &[ra]).unwrap();
        g.set_parents(rb, &[not]).unwrap();
        g.set_parents(o, &[rb]).unwrap();
        (g, ra, rb)
    }

    #[test]
    fn cone_stops_at_boundary_types() {
        let (g, ra, rb) = two_regs();
        let cone_a = driving_cone(&g, ra);
        assert_eq!(cone_a.members.len(), 1); // add
        assert_eq!(cone_a.boundary.len(), 2); // in, const
        let cone_b = driving_cone(&g, rb);
        assert_eq!(cone_b.members.len(), 1); // not
        assert_eq!(cone_b.boundary, vec![ra]); // stops at other register
    }

    #[test]
    fn cone_of_self_feeding_register() {
        let mut g = CircuitGraph::new("self");
        let r = g.add_node(NodeType::Reg, 4);
        let one = g.add_const(4, 1);
        let s = g.add_node(NodeType::Add, 4);
        g.set_parents(s, &[r, one]).unwrap();
        g.set_parents(r, &[s]).unwrap();
        let cone = driving_cone(&g, r);
        assert_eq!(cone.members.len(), 1); // add
        // The apex itself is not "another" register: the feedback edge
        // stays internal to the cone, so only the const is a boundary leaf.
        assert_eq!(cone.boundary, vec![one]);
        assert!(!cone.boundary.contains(&r));
        // The standalone cone circuit keeps the feedback loop through the
        // apex register and stays valid.
        let cc = cone_circuit(&g, &cone);
        assert!(cc.circuit.is_valid(), "{:?}", cc.circuit.validate());
        assert_eq!(cc.circuit.count_of_type(NodeType::Reg), 1);
    }

    #[test]
    fn cone_circuit_is_valid_and_single_reg() {
        let (g, ra, _) = two_regs();
        let cone = driving_cone(&g, ra);
        let cc = cone_circuit(&g, &cone);
        assert!(cc.circuit.is_valid(), "{:?}", cc.circuit.validate());
        assert_eq!(cc.circuit.count_of_type(NodeType::Reg), 1);
        assert_eq!(cc.circuit.count_of_type(NodeType::Output), 1);
        // const value preserved
        let consts = cc.circuit.nodes_of_type(NodeType::Const);
        assert_eq!(consts.len(), 1);
        assert_eq!(cc.circuit.node(consts[0]).aux(), 3);
    }

    #[test]
    fn cone_circuit_boundary_reg_becomes_input() {
        let (g, _, rb) = two_regs();
        let cone = driving_cone(&g, rb);
        let cc = cone_circuit(&g, &cone);
        assert!(cc.circuit.is_valid(), "{:?}", cc.circuit.validate());
        // boundary register replaced by an input of the same width
        assert_eq!(cc.circuit.count_of_type(NodeType::Input), 1);
        assert_eq!(cc.circuit.count_of_type(NodeType::Reg), 1); // apex only
    }

    #[test]
    fn all_cones_cover_all_registers() {
        let (g, _, _) = two_regs();
        let cones = all_driving_cones(&g);
        assert_eq!(cones.len(), 2);
    }

    #[test]
    #[should_panic(expected = "requires a register")]
    fn cone_of_non_register_panics() {
        let (g, _, _) = two_regs();
        driving_cone(&g, NodeId::new(0));
    }

    #[test]
    fn fanin_cone_matches_driving_cone_and_reuses_scratch() {
        let (g, ra, rb) = two_regs();
        let mut scratch = ConeScratch::new();
        for reg in [ra, rb, ra] {
            let reference = driving_cone(&g, reg);
            let (members, boundary) = fanin_cone_into(&g, reg, &mut scratch);
            assert_eq!(members, reference.members.as_slice(), "members for {reg}");
            assert_eq!(boundary, reference.boundary.as_slice(), "boundary for {reg}");
        }
    }

    #[test]
    fn fanin_cone_generalizes_over_sink_apex() {
        let (g, _, rb) = two_regs();
        let out = g.nodes_of_type(NodeType::Output)[0];
        let mut scratch = ConeScratch::new();
        let (members, boundary) = fanin_cone_into(&g, out, &mut scratch);
        // the output is fed directly by reg_b: no members, one boundary reg
        assert!(members.is_empty());
        assert_eq!(boundary, &[rb]);
        // a sink apex is its own port: no extra output is appended
        let cc = cone_circuit_parts(&g, out, members, boundary);
        assert!(cc.circuit.is_valid(), "{:?}", cc.circuit.validate());
        assert_eq!(cc.circuit.count_of_type(NodeType::Output), 1);
        assert_eq!(cc.circuit.count_of_type(NodeType::Input), 1);
    }

    #[test]
    fn scratch_tag_survives_many_extractions() {
        let (g, ra, _) = two_regs();
        let mut scratch = ConeScratch::new();
        let reference = driving_cone(&g, ra);
        for _ in 0..1000 {
            let (members, boundary) = fanin_cone_into(&g, ra, &mut scratch);
            assert_eq!(members, reference.members.as_slice());
            assert_eq!(boundary, reference.boundary.as_slice());
        }
    }
}
