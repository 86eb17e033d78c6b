//! Generic graph algorithms over [`CircuitGraph`]: strongly connected
//! components, topological ordering of the combinational subgraph and
//! logic depth.

use crate::circuit::CircuitGraph;
use crate::node::NodeId;

/// Tarjan's strongly connected components over the subgraph induced by
/// nodes for which `keep` returns `true`.
///
/// Returns the SCCs in reverse topological order (standard Tarjan output).
/// `children` must come from [`CircuitGraph::children_index`].
pub fn tarjan_scc_filtered<F: Fn(NodeId) -> bool>(
    g: &CircuitGraph,
    children: &[Vec<NodeId>],
    keep: F,
) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    const UNVISITED: u32 = u32::MAX;

    struct State<'a> {
        index: Vec<u32>,
        lowlink: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<NodeId>,
        next_index: u32,
        sccs: Vec<Vec<NodeId>>,
        children: &'a [Vec<NodeId>],
    }

    let mut st = State {
        index: vec![UNVISITED; n],
        lowlink: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next_index: 0,
        sccs: Vec::new(),
        children,
    };

    // Iterative Tarjan to avoid stack overflow on deep graphs.
    enum Frame {
        Enter(NodeId),
        Resume(NodeId, usize),
    }

    for start in g.node_ids() {
        if !keep(start) || st.index[start.index()] != UNVISITED {
            continue;
        }
        let mut call_stack = vec![Frame::Enter(start)];
        while let Some(frame) = call_stack.pop() {
            match frame {
                Frame::Enter(v) => {
                    st.index[v.index()] = st.next_index;
                    st.lowlink[v.index()] = st.next_index;
                    st.next_index += 1;
                    st.stack.push(v);
                    st.on_stack[v.index()] = true;
                    call_stack.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut ci) => {
                    let mut descended = false;
                    while ci < st.children[v.index()].len() {
                        let w = st.children[v.index()][ci];
                        ci += 1;
                        if !keep(w) {
                            continue;
                        }
                        if st.index[w.index()] == UNVISITED {
                            call_stack.push(Frame::Resume(v, ci));
                            call_stack.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if st.on_stack[w.index()] {
                            st.lowlink[v.index()] = st.lowlink[v.index()].min(st.index[w.index()]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if st.lowlink[v.index()] == st.index[v.index()] {
                        let mut scc = Vec::new();
                        loop {
                            let w = st.stack.pop().expect("scc stack underflow");
                            st.on_stack[w.index()] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        st.sccs.push(scc);
                    }
                    // Propagate lowlink to parent frame.
                    if let Some(Frame::Resume(p, _)) = call_stack.last() {
                        let p = *p;
                        st.lowlink[p.index()] = st.lowlink[p.index()].min(st.lowlink[v.index()]);
                    }
                }
            }
        }
    }
    st.sccs
}

/// Tarjan's SCC over the whole graph.
pub fn tarjan_scc(g: &CircuitGraph) -> Vec<Vec<NodeId>> {
    let children = g.children_index();
    tarjan_scc_filtered(g, &children, |_| true)
}

/// Topological order of the *combinational* evaluation DAG.
///
/// Sequential/source nodes (registers, inputs, constants) act as launch
/// points: their outputs are available at time zero, so edges *out of*
/// them impose ordering on their children but edges *into* registers do
/// not constrain the register itself. Output nodes are included as
/// ordinary endpoints.
///
/// Returns `None` if the combinational subgraph is cyclic (i.e. a
/// combinational loop exists).
pub fn comb_topo_order(g: &CircuitGraph) -> Option<Vec<NodeId>> {
    let n = g.node_count();
    // In-degree counting only edges whose *child* is combinational or an
    // output (registers don't wait on their parents).
    let mut indeg = vec![0usize; n];
    for (id, node) in g.iter() {
        if node.ty().is_combinational() || node.ty().is_sink() {
            indeg[id.index()] = g.parents(id).len();
        }
    }
    let children = g.children_index();
    let mut queue: Vec<NodeId> = g.node_ids().filter(|&id| indeg[id.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        order.push(u);
        // Registers do not propagate ordering constraints to children
        // within a cycle; but their children still need all parents done.
        for &c in &children[u.index()] {
            let ty = g.ty(c);
            if ty.is_combinational() || ty.is_sink() {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push(c);
                }
            }
        }
    }
    // Registers with parents never get "waited on", but the registers
    // themselves were enqueued at indegree zero. Everything must appear.
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

/// Length (in nodes) of the longest combinational path in the graph, i.e.
/// the logic depth. Returns `None` when a combinational loop exists.
pub fn comb_depth(g: &CircuitGraph) -> Option<usize> {
    let order = comb_topo_order(g)?;
    let mut depth = vec![0usize; g.node_count()];
    for &u in &order {
        let ty = g.ty(u);
        if !(ty.is_combinational() || ty.is_sink()) {
            continue;
        }
        let d = g
            .parents(u)
            .iter()
            .map(|&p| depth[p.index()] + 1)
            .max()
            .unwrap_or(0);
        depth[u.index()] = d;
    }
    depth.into_iter().max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeType;

    fn pipeline() -> CircuitGraph {
        // in -> add -> reg -> not -> out, reg feedback through mux
        let mut g = CircuitGraph::new("p");
        let i = g.add_node(NodeType::Input, 8);
        let r = g.add_node(NodeType::Reg, 8);
        let a = g.add_node(NodeType::Add, 8);
        let n = g.add_node(NodeType::Not, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(a, &[i, r]).unwrap();
        g.set_parents(r, &[a]).unwrap();
        g.set_parents(n, &[r]).unwrap();
        g.set_parents(o, &[n]).unwrap();
        g
    }

    #[test]
    fn scc_finds_register_cycle() {
        let g = pipeline();
        let sccs = tarjan_scc(&g);
        let big: Vec<_> = sccs.iter().filter(|s| s.len() > 1).collect();
        assert_eq!(big.len(), 1);
        assert_eq!(big[0].len(), 2); // {reg, add}
    }

    #[test]
    fn scc_filtered_excludes_registers() {
        let g = pipeline();
        let children = g.children_index();
        let sccs = tarjan_scc_filtered(&g, &children, |id| !g.ty(id).is_register());
        assert!(sccs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn topo_order_handles_register_cycles() {
        let g = pipeline();
        let order = comb_topo_order(&g).expect("no comb loop");
        assert_eq!(order.len(), g.node_count());
        let pos: Vec<usize> = {
            let mut pos = vec![0; g.node_count()];
            for (i, &n) in order.iter().enumerate() {
                pos[n.index()] = i;
            }
            pos
        };
        // add (2) waits on both input (0) and reg (1)
        assert!(pos[2] > pos[0]);
        assert!(pos[2] > pos[1]);
        // not (3) waits on reg (1)
        assert!(pos[3] > pos[1]);
        // out (4) waits on not (3)
        assert!(pos[4] > pos[3]);
    }

    #[test]
    fn topo_order_rejects_comb_loop() {
        let mut g = CircuitGraph::new("bad");
        let a = g.add_node(NodeType::Not, 1);
        let b = g.add_node(NodeType::Not, 1);
        g.set_parents(a, &[b]).unwrap();
        g.set_parents(b, &[a]).unwrap();
        assert!(comb_topo_order(&g).is_none());
    }

    #[test]
    fn depth_of_chain() {
        let mut g = CircuitGraph::new("chain");
        let i = g.add_node(NodeType::Input, 1);
        let mut prev = i;
        for _ in 0..5 {
            let n = g.add_node(NodeType::Not, 1);
            g.set_parents(n, &[prev]).unwrap();
            prev = n;
        }
        let o = g.add_node(NodeType::Output, 1);
        g.set_parents(o, &[prev]).unwrap();
        assert_eq!(comb_depth(&g), Some(6)); // 5 NOTs + output endpoint
    }

    #[test]
    fn scc_deep_chain_no_overflow() {
        // 50k-node chain would overflow a recursive Tarjan.
        let mut g = CircuitGraph::new("deep");
        let mut prev = g.add_node(NodeType::Input, 1);
        for _ in 0..50_000 {
            let n = g.add_node(NodeType::Reg, 1);
            g.set_parents(n, &[prev]).unwrap();
            prev = n;
        }
        let sccs = tarjan_scc(&g);
        assert_eq!(sccs.len(), 50_001);
    }
}
