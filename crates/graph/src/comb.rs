//! Combinational-loop detection (constraint 2 of the paper's `C`).
//!
//! A cycle is *combinational* when no node on it is a register; such a
//! cycle "would cause timing violations" (§II) and must be prevented. This
//! module offers a whole-graph check ([`find_comb_loop`]) and the
//! incremental query used by Phase 2 post-processing and the Phase 3 swap
//! engine ([`LoopQuery`]): before adding an edge from candidate parent `j`
//! to node `i`, "check if there exists a path from `i` to `j` in the
//! subgraph that excludes register-type nodes" (§V).

use crate::circuit::CircuitGraph;
use crate::marks::Marks;
use crate::node::NodeId;

/// Finds one combinational loop, if any exists.
///
/// Runs Tarjan's SCC on the subgraph induced by non-register nodes; any
/// SCC with more than one node — or a single node with a self-edge — is a
/// combinational loop. Returns the nodes of one such cycle.
pub fn find_comb_loop(g: &CircuitGraph) -> Option<Vec<NodeId>> {
    let children = g.children_index();
    let sccs = crate::algo::tarjan_scc_filtered(g, &children, |id| !g.ty(id).is_register());
    for scc in sccs {
        if scc.len() > 1 {
            return Some(cycle_within(g, &children, &scc));
        }
        let n = scc[0];
        if !g.ty(n).is_register() && g.has_edge(n, n) {
            return Some(vec![n]);
        }
    }
    None
}

/// Returns `true` if the graph contains no combinational loop.
pub fn is_comb_loop_free(g: &CircuitGraph) -> bool {
    find_comb_loop(g).is_none()
}

/// The incremental loop query with reusable scratch: one query serves
/// every edge a caller checks, so a warm query allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct LoopQuery {
    seen: Marks,
    stack: Vec<NodeId>,
}

impl LoopQuery {
    /// Would adding edge `from → to` close a combinational loop?
    ///
    /// The new edge creates a cycle for every existing path `to ⇝ from`;
    /// such a cycle is combinational iff no node on it (including `from`
    /// and `to`) is a register. Therefore: if either endpoint is a
    /// register the edge is always safe; otherwise we search for a path
    /// `to ⇝ from` that traverses only non-register nodes (registers
    /// block propagation).
    ///
    /// `children` must be the adjacency from
    /// [`CircuitGraph::children_index`], kept in sync with `g` by the
    /// caller.
    pub fn would_close(
        &mut self,
        g: &CircuitGraph,
        children: &[Vec<NodeId>],
        from: NodeId,
        to: NodeId,
    ) -> bool {
        if g.ty(from).is_register() || g.ty(to).is_register() {
            return false;
        }
        if from == to {
            return true; // combinational self-loop
        }
        // DFS from `to` over non-register nodes, looking for `from`.
        self.seen.clear(g.node_count());
        self.seen.mark(to.index());
        self.stack.clear();
        self.stack.push(to);
        while let Some(u) = self.stack.pop() {
            if u == from {
                return true;
            }
            if g.ty(u).is_register() {
                continue; // do not propagate through registers
            }
            for &c in &children[u.index()] {
                if self.seen.mark(c.index()) {
                    self.stack.push(c);
                }
            }
        }
        false
    }
}

/// Extracts one concrete cycle inside a (non-trivial) SCC.
fn cycle_within(g: &CircuitGraph, children: &[Vec<NodeId>], scc: &[NodeId]) -> Vec<NodeId> {
    let n = g.node_count();
    let mut in_scc = vec![false; n];
    for &s in scc {
        in_scc[s.index()] = true;
    }
    // DFS from scc[0] restricted to the SCC until we come back to it.
    let start = scc[0];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(u) = stack.pop() {
        for &c in &children[u.index()] {
            if !in_scc[c.index()] {
                continue;
            }
            if c == start {
                // reconstruct path start ⇝ u, then the edge u → start
                let mut path = vec![u];
                let mut cur = u;
                while let Some(p) = parent[cur.index()] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return path;
            }
            if !seen[c.index()] {
                seen[c.index()] = true;
                parent[c.index()] = Some(u);
                stack.push(c);
            }
        }
    }
    // An SCC of size > 1 always contains a cycle through its first node.
    unreachable!("non-trivial SCC must contain a cycle through every member")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeType;

    /// comb cycle: a -> b -> a with no register.
    fn comb_cycle() -> CircuitGraph {
        let mut g = CircuitGraph::new("loop");
        let a = g.add_node(NodeType::Not, 1);
        let b = g.add_node(NodeType::Not, 1);
        g.set_parents(a, &[b]).unwrap();
        g.set_parents(b, &[a]).unwrap();
        g
    }

    /// legal cycle: reg -> not -> reg.
    fn reg_cycle() -> CircuitGraph {
        let mut g = CircuitGraph::new("regloop");
        let r = g.add_node(NodeType::Reg, 1);
        let n = g.add_node(NodeType::Not, 1);
        g.set_parents(n, &[r]).unwrap();
        g.set_parents(r, &[n]).unwrap();
        g
    }

    #[test]
    fn detects_comb_cycle() {
        let g = comb_cycle();
        let cycle = find_comb_loop(&g).expect("must find the loop");
        assert_eq!(cycle.len(), 2);
        assert!(!is_comb_loop_free(&g));
    }

    #[test]
    fn register_breaks_cycle() {
        let g = reg_cycle();
        assert!(find_comb_loop(&g).is_none());
        assert!(is_comb_loop_free(&g));
    }

    #[test]
    fn detects_comb_self_loop() {
        let mut g = CircuitGraph::new("self");
        let a = g.add_node(NodeType::Not, 1);
        g.set_parents(a, &[a]).unwrap();
        let cycle = find_comb_loop(&g).unwrap();
        assert_eq!(cycle, vec![a]);
    }

    #[test]
    fn register_self_loop_is_legal() {
        let mut g = CircuitGraph::new("regself");
        let r = g.add_node(NodeType::Reg, 4);
        g.set_parents(r, &[r]).unwrap();
        assert!(is_comb_loop_free(&g));
    }

    #[test]
    fn incremental_check_matches_paper_rule() {
        // x -> y (both comb). Adding y -> x would close a comb loop.
        let mut g = CircuitGraph::new("inc");
        let x = g.add_node(NodeType::Not, 1);
        let y = g.add_node(NodeType::Not, 1);
        g.add_edge(x, y).unwrap();
        let children = g.children_index();
        let mut query = LoopQuery::default();
        assert!(query.would_close(&g, &children, y, x));
        assert!(!query.would_close(&g, &children, x, y) || g.has_edge(x, y));
    }

    #[test]
    fn incremental_check_register_endpoint_safe() {
        let mut g = CircuitGraph::new("inc2");
        let x = g.add_node(NodeType::Not, 1);
        let r = g.add_node(NodeType::Reg, 1);
        g.add_edge(x, r).unwrap();
        let children = g.children_index();
        // r -> x creates a cycle, but it passes through the register.
        assert!(!LoopQuery::default().would_close(&g, &children, r, x));
    }

    #[test]
    fn incremental_check_register_blocks_path() {
        // a -> r -> b. Adding b -> a creates the cycle a,r,b which contains
        // a register, hence is legal.
        let mut g = CircuitGraph::new("inc3");
        let a = g.add_node(NodeType::Not, 1);
        let r = g.add_node(NodeType::Reg, 1);
        let b = g.add_node(NodeType::Not, 1);
        g.add_edge(a, r).unwrap();
        g.add_edge(r, b).unwrap();
        let children = g.children_index();
        let mut query = LoopQuery::default();
        assert!(!query.would_close(&g, &children, b, a));
        // But with a pure comb chain a -> c -> b, b -> a would be illegal.
        let mut g2 = CircuitGraph::new("inc4");
        let a2 = g2.add_node(NodeType::Not, 1);
        let c2 = g2.add_node(NodeType::Not, 1);
        let b2 = g2.add_node(NodeType::Not, 1);
        g2.add_edge(a2, c2).unwrap();
        g2.add_edge(c2, b2).unwrap();
        let children2 = g2.children_index();
        assert!(query.would_close(&g2, &children2, b2, a2));
    }

    #[test]
    fn incremental_self_loop_comb_vs_reg() {
        let mut g = CircuitGraph::new("selfinc");
        let a = g.add_node(NodeType::Not, 1);
        let r = g.add_node(NodeType::Reg, 1);
        let children = g.children_index();
        let mut query = LoopQuery::default();
        assert!(query.would_close(&g, &children, a, a));
        assert!(!query.would_close(&g, &children, r, r));
    }

    #[test]
    fn loop_query_matches_find_comb_loop_with_the_edge_added() {
        // One query, reused over graphs of every size, answers as the
        // whole-graph search of the graph with the candidate edge added
        // does. Edges that close no loop are kept, as Phase 2 keeps
        // them, so the graphs grow denser and later searches go deeper.
        use crate::testing::random_circuit_with_size;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x100F_C0DE);
        let mut query = LoopQuery::default();
        let (mut closing, mut safe) = (0, 0);
        for k in 0..200 {
            let mut g = random_circuit_with_size(&mut rng, 4 + k % 60);
            let mut children = g.children_index();
            for _ in 0..20 {
                let n = g.node_count();
                let from = NodeId::new(rng.gen_range(0..n));
                let to = NodeId::new(rng.gen_range(0..n));
                let mut with_edge = g.clone();
                with_edge.add_edge(from, to).unwrap();
                let closes = query.would_close(&g, &children, from, to);
                let want = find_comb_loop(&with_edge).is_some();
                assert_eq!(closes, want, "{}: {from} -> {to}", g.name());
                if closes {
                    closing += 1;
                } else {
                    safe += 1;
                    g = with_edge;
                    children[from.index()].push(to);
                }
            }
        }
        assert!(
            closing > 400 && safe > 400,
            "{closing} closing, {safe} safe"
        );
    }
}
