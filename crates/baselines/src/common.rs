//! Shared machinery for the adapted baselines: cycle breaking,
//! topological ordering (the paper's adaptation for GraphRNN/D-VAE:
//! "we have to break the cycles in the training circuits and use the
//! topological order of nodes as the sequence"), and sequential
//! arity-enforced DAG construction (their "validity checker").

use rand::{rngs::StdRng, Rng};
use syncircuit_graph::{CircuitGraph, Node, NodeId, NodeType};

/// Breaks cycles by removing back edges found during a DFS, returning the
/// remaining (acyclic) edge list `(from, to)`.
pub fn break_cycles(g: &CircuitGraph) -> Vec<(u32, u32)> {
    let n = g.node_count();
    let children = g.children_index();
    // iterative DFS with colors: 0 white, 1 gray, 2 black
    let mut color = vec![0u8; n];
    let mut kept: Vec<(u32, u32)> = Vec::new();
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&(u, ci)) = stack.last() {
            if ci < children[u].len() {
                stack.last_mut().expect("non-empty stack").1 += 1;
                let v = children[u][ci].index();
                match color[v] {
                    0 => {
                        kept.push((u as u32, v as u32));
                        color[v] = 1;
                        stack.push((v, 0));
                    }
                    1 => { /* back edge: drop it */ }
                    _ => kept.push((u as u32, v as u32)),
                }
            } else {
                color[u] = 2;
                stack.pop();
            }
        }
    }
    kept
}

/// Topological order of nodes under an acyclic edge list. Ties resolved
/// by node id (deterministic).
pub fn topo_order(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut indeg = vec![0usize; n];
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        indeg[b as usize] += 1;
        children[a as usize].push(b);
    }
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = (0..n as u32)
        .filter(|&v| indeg[v as usize] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(v)) = heap.pop() {
        order.push(v);
        for &c in &children[v as usize] {
            indeg[c as usize] -= 1;
            if indeg[c as usize] == 0 {
                heap.push(std::cmp::Reverse(c));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "edge list must be acyclic");
    order
}

/// Orders sampled attributes into a plausible topological layout for
/// autoregressive generation: sources first, then combinational nodes and
/// registers interleaved, outputs last.
pub fn layout_attrs(attrs: &[Node]) -> Vec<Node> {
    let mut sources: Vec<Node> = Vec::new();
    let mut middle: Vec<Node> = Vec::new();
    let mut sinks: Vec<Node> = Vec::new();
    for a in attrs {
        if a.ty().is_source() {
            sources.push(*a);
        } else if a.ty().is_sink() {
            sinks.push(*a);
        } else {
            middle.push(*a);
        }
    }
    let mut out = sources;
    out.extend(middle);
    out.extend(sinks);
    out
}

/// Sequentially wires a DAG circuit from per-pair probabilities: node `k`
/// (in layout order) picks its required number of parents among nodes
/// `0..k`, highest probability first, never choosing outputs. This is
/// the "validity checker for circuits" the paper adds to the
/// autoregressive baselines; the result contains **no cycles at all**
/// (their documented limitation: "the generated graph contains no cycles
/// which is very different from the real designs").
///
/// Returns `None` when some node cannot reach its arity (fewer eligible
/// predecessors than required — callers retry with another seed).
pub fn build_dag_circuit(
    attrs: &[Node],
    prob: impl Fn(usize, usize) -> f32,
    rng: &mut StdRng,
) -> Option<CircuitGraph> {
    let n = attrs.len();
    let mut g = CircuitGraph::new("baseline");
    for a in attrs {
        g.push_node(*a);
    }
    for k in 0..n {
        let arity = attrs[k].ty().arity();
        if arity == 0 {
            continue;
        }
        let mut cands: Vec<(usize, f32)> = (0..k)
            .filter(|&p| !attrs[p].ty().is_sink())
            .map(|p| (p, prob(p, k) + rng.gen::<f32>() * 1e-6))
            .collect();
        if cands.len() < arity {
            return None;
        }
        cands.sort_by(|a, b| b.1.total_cmp(&a.1));
        let parents: Vec<NodeId> = cands[..arity]
            .iter()
            .map(|&(p, _)| NodeId::new(p))
            .collect();
        g.set_parents_unchecked(k_id(k), &parents);
    }
    g.legalize_bit_selects();
    debug_assert!(g.is_valid(), "{:?}", g.validate());
    Some(g)
}

fn k_id(k: usize) -> NodeId {
    NodeId::new(k)
}

/// Gravity-inspired direction assignment (Salha et al., used by the
/// paper to orient GraphMaker/SparseDigress outputs): each node type
/// carries a learned "mass"; an undirected edge `{u, v}` is oriented
/// toward the heavier endpoint with probability `σ(m(v) − m(u))`.
#[derive(Clone, Debug)]
pub struct GravityDirection {
    mass: Vec<f64>,
}

impl GravityDirection {
    /// Estimates per-type masses from directed training graphs: the mass
    /// of a type is the log-odds of appearing as an edge *target*.
    pub fn fit(graphs: &[CircuitGraph]) -> Self {
        let t = syncircuit_graph::ALL_NODE_TYPES.len();
        let mut as_target = vec![1.0f64; t];
        let mut as_source = vec![1.0f64; t];
        for g in graphs {
            for e in g.edges() {
                as_source[g.ty(e.from).category()] += 1.0;
                as_target[g.ty(e.to).category()] += 1.0;
            }
        }
        let mass = (0..t).map(|k| (as_target[k] / as_source[k]).ln()).collect();
        GravityDirection { mass }
    }

    /// Probability that the undirected edge `{u, v}` is oriented `u → v`.
    pub fn prob_forward(&self, ty_u: NodeType, ty_v: NodeType) -> f64 {
        let d = self.mass[ty_v.category()] - self.mass[ty_u.category()];
        1.0 / (1.0 + (-d).exp())
    }

    /// Samples an orientation for `{u, v}`.
    pub fn orient<R: Rng>(
        &self,
        u: u32,
        v: u32,
        ty_u: NodeType,
        ty_v: NodeType,
        rng: &mut R,
    ) -> (u32, u32) {
        if rng.gen_bool(self.prob_forward(ty_u, ty_v).clamp(0.01, 0.99)) {
            (u, v)
        } else {
            (v, u)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use syncircuit_graph::testing::random_circuit_with_size;

    #[test]
    fn break_cycles_produces_dag() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let g = random_circuit_with_size(&mut rng, 40);
            let edges = break_cycles(&g);
            // topo_order asserts acyclicity in debug builds
            let order = topo_order(g.node_count(), &edges);
            assert_eq!(order.len(), g.node_count());
            // removed edges are a small fraction (only feedback edges)
            assert!(edges.len() <= g.edge_count());
        }
    }

    #[test]
    fn topo_order_respects_edges() {
        let edges = vec![(0u32, 1u32), (1, 2), (0, 2)];
        let order = topo_order(3, &edges);
        let pos: Vec<usize> = {
            let mut p = vec![0; 3];
            for (i, &v) in order.iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        assert!(pos[0] < pos[1] && pos[1] < pos[2]);
    }

    #[test]
    fn layout_places_sources_first_sinks_last() {
        let attrs = vec![
            Node::new(NodeType::Output, 4),
            Node::new(NodeType::Add, 4),
            Node::new(NodeType::Input, 4),
            Node::new(NodeType::Const, 4),
        ];
        let laid = layout_attrs(&attrs);
        assert!(laid[0].ty().is_source());
        assert!(laid[1].ty().is_source());
        assert_eq!(laid[3].ty(), NodeType::Output);
    }

    #[test]
    fn dag_builder_is_acyclic_and_valid() {
        let mut rng = StdRng::seed_from_u64(2);
        let attrs = layout_attrs(&[
            Node::new(NodeType::Input, 8),
            Node::new(NodeType::Const, 8),
            Node::new(NodeType::Reg, 8),
            Node::new(NodeType::Add, 8),
            Node::new(NodeType::Xor, 8),
            Node::new(NodeType::Output, 8),
        ]);
        let g = build_dag_circuit(&attrs, |p, k| ((p + k) % 7) as f32 / 7.0, &mut rng)
            .expect("buildable");
        assert!(g.is_valid());
        // strictly acyclic: even register feedback is absent
        use syncircuit_graph::algo::tarjan_scc;
        assert!(tarjan_scc(&g).iter().all(|scc| scc.len() == 1));
        assert!(g.node_ids().all(|v| !g.has_edge(v, v)));
    }

    #[test]
    fn dag_builder_fails_gracefully() {
        let mut rng = StdRng::seed_from_u64(3);
        // first node needs 2 parents but has no predecessors
        let attrs = vec![Node::new(NodeType::Add, 4), Node::new(NodeType::Input, 4)];
        assert!(build_dag_circuit(&attrs, |_, _| 0.5, &mut rng).is_none());
    }

    #[test]
    fn gravity_orients_toward_targets() {
        let mut rng = StdRng::seed_from_u64(4);
        let corpus: Vec<CircuitGraph> = (0..5)
            .map(|_| random_circuit_with_size(&mut rng, 40))
            .collect();
        let grav = GravityDirection::fit(&corpus);
        // Outputs are always targets, inputs always sources:
        let p = grav.prob_forward(NodeType::Input, NodeType::Output);
        let q = grav.prob_forward(NodeType::Output, NodeType::Input);
        assert!(p > 0.5, "input->output should be likely: {p}");
        assert!(q < 0.5, "output->input should be unlikely: {q}");
    }
}
