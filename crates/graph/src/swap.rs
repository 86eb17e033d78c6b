//! Reversible in-place parent-swap engine (Phase 3 hot path).
//!
//! The paper's atomic MCTS action rewires two edges — `(i→j)` and
//! `(p→q)` become `(p→j)` and `(i→q)` — preserving every node's in- and
//! out-degree. The original implementation cloned the whole graph and
//! rebuilt the children index twice per candidate; [`SwapGraph`] instead
//! mutates one graph in place and returns a small [`SwapDelta`] that
//! undoes the swap exactly, maintaining both a children index and a
//! Zobrist-style adjacency fingerprint ([`crate::fingerprint`])
//! incrementally in O(arity) per step.
//!
//! Validity rules match the clone-based path bit for bit (the old path
//! survives as `syncircuit-core`'s test oracle): a swap is rejected when
//! it is the identity, targets the same child twice, creates a self-loop
//! on a non-register, makes a sink a parent, duplicates an existing
//! edge, moves a bit-select out of its parent's range, or closes a
//! combinational loop (checked incrementally per inserted edge, on the
//! same intermediate states the clone-based path checks).
//!
//! Every node also carries a parent-list stamp (see [`SwapGraph`]), so a
//! consumer can tell from stamps alone that a set of parent lists is
//! unchanged since it last looked.

use crate::circuit::CircuitGraph;
use crate::comb::LoopQuery;
use crate::fingerprint::{child_contribution, zobrist_fingerprint};
use crate::node::{NodeId, NodeType};
use std::sync::atomic::{AtomicU64, Ordering};

/// The one process-wide source of parent-list stamps.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);

/// Hands out `count` consecutive stamps no caller has seen; returns the
/// first.
fn fresh_stamps(count: u64) -> u64 {
    NEXT_STAMP.fetch_add(count, Ordering::Relaxed)
}

/// Undo record of one applied swap: the four endpoints plus the slot
/// positions the removals vacated and the fingerprint XOR-delta.
///
/// Deltas must be undone in strict LIFO order (the engine state when
/// undoing must equal the state right after the corresponding apply).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwapDelta {
    /// Parent of the first removed edge `(i→j)`.
    pub i: NodeId,
    /// Child of the first removed edge `(i→j)`.
    pub j: NodeId,
    /// Parent of the second removed edge `(p→q)`.
    pub p: NodeId,
    /// Child of the second removed edge `(p→q)`.
    pub q: NodeId,
    pos_ij_child: u32,
    pos_ij_children: u32,
    pos_pq_child: u32,
    pos_pq_children: u32,
    fp_delta: u64,
}

/// A circuit graph wrapped with an incrementally maintained children
/// index and adjacency fingerprint, supporting reversible in-place
/// parent swaps.
///
/// The children lists always hold the same multiset per node as
/// [`CircuitGraph::children_index`] (internal order may differ after
/// swaps; every consumer is order-insensitive reachability).
///
/// # Parent-list stamps
///
/// Every node carries a stamp ([`SwapGraph::stamps`]) naming its current
/// parent list. [`SwapGraph::new`] gives all nodes one fresh stamp, and
/// each of the three writes — [`SwapGraph::try_apply`] when it succeeds,
/// [`SwapGraph::apply_replay`] and [`SwapGraph::undo`] — gives the two
/// rewritten children `j` and `q` fresh stamps; a rejected `try_apply`
/// changes none. All stamps come from one process-wide counter and none
/// is handed out twice, so **a (node, stamp) pair names exactly one
/// parent list for the life of the process**, across register searches,
/// clones and worker threads. Swaps never change a node's attributes,
/// so a consumer that recorded the stamps of some nodes knows their
/// parent lists — and everything computed from those lists and the
/// node attributes alone — are unchanged when every stamp still
/// matches. An `undo` that restores an earlier list still draws a fresh
/// stamp: two stamps may name one list, never the other way round.
#[derive(Clone, Debug)]
pub struct SwapGraph {
    g: CircuitGraph,
    children: Vec<Vec<NodeId>>,
    fp: u64,
    /// Parent-list stamp per node (see the type docs).
    stamps: Vec<u64>,
    /// Scratch of the comb-loop check of every inserted edge.
    loops: LoopQuery,
}

impl SwapGraph {
    /// Wraps a graph, building the children index and fingerprint once
    /// and stamping every parent list with one fresh stamp.
    pub fn new(g: CircuitGraph) -> Self {
        let children = g.children_index();
        let fp = zobrist_fingerprint(&g);
        let stamps = vec![fresh_stamps(1); g.node_count()];
        SwapGraph {
            g,
            children,
            fp,
            stamps,
            loops: LoopQuery::default(),
        }
    }

    /// The current graph state.
    #[inline]
    pub fn graph(&self) -> &CircuitGraph {
        &self.g
    }

    /// The maintained adjacency fingerprint; equals
    /// [`zobrist_fingerprint`]`(self.graph())` at all times.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Parent-list stamp of every node, indexed by [`NodeId::index`]
    /// (see the type docs for what a stamp guarantees).
    #[inline]
    pub fn stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// `true` when the maintained children index holds exactly the same
    /// multiset per node as a fresh [`CircuitGraph::children_index`]
    /// rebuild (test invariant).
    pub fn children_in_sync(&self) -> bool {
        let rebuilt = self.g.children_index();
        self.children.len() == rebuilt.len()
            && self.children.iter().zip(&rebuilt).all(|(a, b)| {
                let mut a = a.clone();
                let mut b = b.clone();
                a.sort_unstable();
                b.sort_unstable();
                a == b
            })
    }

    /// Applies the parent swap `(i→j),(p→q) ⇒ (p→j),(i→q)` if it keeps
    /// the circuit valid, returning the undo record; leaves the state
    /// untouched and returns `None` otherwise.
    ///
    /// The validity rules and their evaluation order replicate the
    /// clone-based reference (`syncircuit-core`'s oracle) exactly, so
    /// accept/reject decisions are identical state for state.
    pub fn try_apply(&mut self, i: NodeId, j: NodeId, p: NodeId, q: NodeId) -> Option<SwapDelta> {
        let g = &self.g;
        if i == p && j == q {
            return None; // identical edge
        }
        if j == q {
            return None; // same child: swap is a no-op permutation of slots
        }
        // New self-loops only allowed on registers.
        if p == j && !g.ty(j).is_register() {
            return None;
        }
        if i == q && !g.ty(q).is_register() {
            return None;
        }
        // Outputs never drive anything: they cannot become parents.
        if g.ty(i).is_sink() || g.ty(p).is_sink() {
            return None;
        }
        // Keep the adjacency binary: reject if a new edge already exists.
        if g.has_edge(p, j) || g.has_edge(i, q) {
            return None;
        }
        // Bit-selects must stay in range of their (new) parent.
        let fits = |child: NodeId, parent: NodeId| {
            let c = g.node(child);
            c.ty() != NodeType::BitSelect || (c.aux() as u32 + c.width()) <= g.node(parent).width()
        };
        if !fits(j, p) || !fits(q, i) {
            return None;
        }
        // Both edges must exist (mirrors the reference's fallible removes).
        let pos_ij_child = g.parents(j).iter().position(|&x| x == i)? as u32;
        let pos_pq_child = g.parents(q).iter().position(|&x| x == p)? as u32;

        let contrib_j_old = child_contribution(j, g.parents(j));
        let contrib_q_old = child_contribution(q, g.parents(q));

        // --- remove (i→j), then (p→q); children positions are found on
        // the current lists so parent aliasing (p == i) stays exact ---
        let pos_ij_children = self.children[i.index()]
            .iter()
            .position(|&x| x == j)
            .expect("children index in sync with parents") as u32;
        self.g.parents_vec_mut(j).remove(pos_ij_child as usize);
        self.children[i.index()].remove(pos_ij_children as usize);
        let pos_pq_children = self.children[p.index()]
            .iter()
            .position(|&x| x == q)
            .expect("children index in sync with parents") as u32;
        self.g.parents_vec_mut(q).remove(pos_pq_child as usize);
        self.children[p.index()].remove(pos_pq_children as usize);

        let mut delta = SwapDelta {
            i,
            j,
            p,
            q,
            pos_ij_child,
            pos_ij_children,
            pos_pq_child,
            pos_pq_children,
            fp_delta: 0,
        };

        // --- insert (p→j), guarded by the incremental comb-loop check
        // on the same intermediate state the reference checks ---
        if self.loops.would_close(&self.g, &self.children, p, j) {
            self.rollback_removals(&delta);
            return None;
        }
        self.g.parents_vec_mut(j).push(p);
        self.children[p.index()].push(j);

        // --- insert (i→q), same guard ---
        if self.loops.would_close(&self.g, &self.children, i, q) {
            let popped = self.g.parents_vec_mut(j).pop();
            debug_assert_eq!(popped, Some(p));
            let popped = self.children[p.index()].pop();
            debug_assert_eq!(popped, Some(j));
            self.rollback_removals(&delta);
            return None;
        }
        self.g.parents_vec_mut(q).push(i);
        self.children[i.index()].push(q);

        delta.fp_delta = contrib_j_old
            ^ child_contribution(j, self.g.parents(j))
            ^ contrib_q_old
            ^ child_contribution(q, self.g.parents(q));
        self.fp ^= delta.fp_delta;
        self.restamp(j, q);
        debug_assert!(self.g.is_valid(), "swap must preserve validity");
        debug_assert_eq!(self.fp, zobrist_fingerprint(&self.g));
        Some(delta)
    }

    /// Re-applies a previously validated swap on the identical state it
    /// was first applied to (tree-path replay), skipping all checks.
    pub fn apply_replay(&mut self, d: &SwapDelta) {
        let removed = self.g.parents_vec_mut(d.j).remove(d.pos_ij_child as usize);
        debug_assert_eq!(removed, d.i);
        let removed = self.children[d.i.index()].remove(d.pos_ij_children as usize);
        debug_assert_eq!(removed, d.j);
        let removed = self.g.parents_vec_mut(d.q).remove(d.pos_pq_child as usize);
        debug_assert_eq!(removed, d.p);
        let removed = self.children[d.p.index()].remove(d.pos_pq_children as usize);
        debug_assert_eq!(removed, d.q);
        self.g.parents_vec_mut(d.j).push(d.p);
        self.children[d.p.index()].push(d.j);
        self.g.parents_vec_mut(d.q).push(d.i);
        self.children[d.i.index()].push(d.q);
        self.fp ^= d.fp_delta;
        self.restamp(d.j, d.q);
    }

    /// Reverts an applied swap exactly (graph, children index and
    /// fingerprint; the two restored parent lists get fresh stamps).
    /// Must be called in strict LIFO order with respect to other
    /// applies/undos.
    pub fn undo(&mut self, d: &SwapDelta) {
        let popped = self.g.parents_vec_mut(d.q).pop();
        debug_assert_eq!(popped, Some(d.i));
        let popped = self.children[d.i.index()].pop();
        debug_assert_eq!(popped, Some(d.q));
        let popped = self.g.parents_vec_mut(d.j).pop();
        debug_assert_eq!(popped, Some(d.p));
        let popped = self.children[d.p.index()].pop();
        debug_assert_eq!(popped, Some(d.j));
        self.rollback_removals(d);
        self.fp ^= d.fp_delta;
        self.restamp(d.j, d.q);
    }

    /// Gives the parent lists of `j` and `q`, just rewritten, fresh
    /// stamps.
    fn restamp(&mut self, j: NodeId, q: NodeId) {
        let s = fresh_stamps(2);
        self.stamps[j.index()] = s;
        self.stamps[q.index()] = s + 1;
    }

    /// Reverts the two removals of an in-flight swap (reverse order).
    fn rollback_removals(&mut self, d: &SwapDelta) {
        self.children[d.p.index()].insert(d.pos_pq_children as usize, d.q);
        self.g
            .parents_vec_mut(d.q)
            .insert(d.pos_pq_child as usize, d.p);
        self.children[d.i.index()].insert(d.pos_ij_children as usize, d.j);
        self.g
            .parents_vec_mut(d.j)
            .insert(d.pos_ij_child as usize, d.i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// in1, in2 → xor, add; reg; two outputs.
    fn fixture() -> CircuitGraph {
        let mut g = CircuitGraph::new("fix");
        let i1 = g.add_node(NodeType::Input, 8);
        let i2 = g.add_node(NodeType::Input, 8);
        let x = g.add_node(NodeType::Xor, 8);
        let a = g.add_node(NodeType::Add, 8);
        let r = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        let o2 = g.add_node(NodeType::Output, 8);
        g.set_parents(x, &[i1, i1]).unwrap();
        g.set_parents(a, &[i2, i2]).unwrap();
        g.set_parents(r, &[x]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        g.set_parents(o2, &[a]).unwrap();
        g
    }

    #[test]
    fn apply_then_undo_restores_everything() {
        let g = fixture();
        let mut sg = SwapGraph::new(g.clone());
        let fp0 = sg.fingerprint();
        let children0 = sg.children.clone();
        // swap (i1→x slot0) with (i2→a slot0)
        let d = sg
            .try_apply(
                NodeId::new(0),
                NodeId::new(2),
                NodeId::new(1),
                NodeId::new(3),
            )
            .expect("valid swap");
        assert_ne!(sg.fingerprint(), fp0);
        assert!(sg.children_in_sync());
        assert_eq!(sg.fingerprint(), zobrist_fingerprint(sg.graph()));
        sg.undo(&d);
        assert_eq!(sg.graph(), &g);
        assert_eq!(sg.fingerprint(), fp0);
        assert_eq!(sg.children, children0);
    }

    #[test]
    fn replay_reproduces_apply() {
        let g = fixture();
        let mut sg = SwapGraph::new(g.clone());
        let d = sg
            .try_apply(
                NodeId::new(0),
                NodeId::new(2),
                NodeId::new(1),
                NodeId::new(3),
            )
            .expect("valid swap");
        let applied = sg.graph().clone();
        let fp_applied = sg.fingerprint();
        sg.undo(&d);
        sg.apply_replay(&d);
        assert_eq!(sg.graph(), &applied);
        assert_eq!(sg.fingerprint(), fp_applied);
        assert!(sg.children_in_sync());
    }

    #[test]
    fn rejects_mirror_reference_rules() {
        let mut sg = SwapGraph::new(fixture());
        // identical edge
        assert!(sg
            .try_apply(
                NodeId::new(0),
                NodeId::new(2),
                NodeId::new(0),
                NodeId::new(2)
            )
            .is_none());
        // same child
        assert!(sg
            .try_apply(
                NodeId::new(0),
                NodeId::new(2),
                NodeId::new(1),
                NodeId::new(2)
            )
            .is_none());
        // output as new parent
        assert!(sg
            .try_apply(
                NodeId::new(5),
                NodeId::new(2),
                NodeId::new(0),
                NodeId::new(3)
            )
            .is_none());
        // missing edge
        assert!(sg
            .try_apply(
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(0),
                NodeId::new(3)
            )
            .is_none());
        // rejection leaves state untouched
        assert_eq!(sg.graph(), &fixture());
        assert_eq!(sg.fingerprint(), zobrist_fingerprint(&fixture()));
    }

    #[test]
    fn register_self_loop_alias_is_exact() {
        // i == q: the swap turns (r→n),(i1→r) into (i1→n),(r→r) — a
        // register self-loop, which is legal and aliases children[r]
        // (one removal, one push on the same list).
        let mut g = CircuitGraph::new("alias");
        let i1 = g.add_node(NodeType::Input, 8);
        let r = g.add_node(NodeType::Reg, 8);
        let n = g.add_node(NodeType::Not, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(r, &[i1]).unwrap();
        g.set_parents(n, &[r]).unwrap();
        g.set_parents(o, &[n]).unwrap();
        let mut sg = SwapGraph::new(g.clone());
        let d = sg
            .try_apply(r, n, i1, r)
            .expect("register self-loop is legal");
        assert!(sg.graph().has_edge(r, r));
        assert!(sg.graph().has_edge(i1, n));
        assert!(sg.children_in_sync());
        assert_eq!(sg.fingerprint(), zobrist_fingerprint(sg.graph()));
        sg.undo(&d);
        assert_eq!(sg.graph(), &g);
        assert!(sg.children_in_sync());
    }

    #[test]
    fn comb_loop_rejection_rolls_back() {
        // chain: in → n1 → n2 → out, plus in → n3 → out2.
        // Swapping to create n2 → n1 would close a comb loop.
        let mut g = CircuitGraph::new("comb");
        let i = g.add_node(NodeType::Input, 4);
        let n1 = g.add_node(NodeType::Not, 4);
        let n2 = g.add_node(NodeType::Not, 4);
        let n3 = g.add_node(NodeType::Not, 4);
        let o = g.add_node(NodeType::Output, 4);
        let o2 = g.add_node(NodeType::Output, 4);
        g.set_parents(n1, &[i]).unwrap();
        g.set_parents(n2, &[n1]).unwrap();
        g.set_parents(n3, &[i]).unwrap();
        g.set_parents(o, &[n2]).unwrap();
        g.set_parents(o2, &[n3]).unwrap();
        let mut sg = SwapGraph::new(g.clone());
        // (i→n1) and (n2→o): candidate new edges n2→n1 (comb loop!) and i→o.
        assert!(sg.try_apply(i, n1, n2, o).is_none());
        assert_eq!(sg.graph(), &g, "failed swap must leave no trace");
        assert_eq!(sg.fingerprint(), zobrist_fingerprint(&g));
        assert!(sg.children_in_sync());
    }

    #[test]
    fn degrees_preserved_across_random_swaps() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let g = fixture();
        let mut sg = SwapGraph::new(g.clone());
        let mut rng = StdRng::seed_from_u64(9);
        let edges: Vec<_> = g.edges().collect();
        let mut stack = Vec::new();
        for _ in 0..300 {
            let a = edges[rng.gen_range(0..edges.len())];
            let b = edges[rng.gen_range(0..edges.len())];
            // Edges sampled from the ORIGINAL graph may be stale after
            // earlier applies; try_apply safely rejects missing edges.
            if let Some(d) = sg.try_apply(a.from, a.to, b.from, b.to) {
                assert!(sg.graph().is_valid());
                assert_eq!(sg.graph().in_degrees(), g.in_degrees());
                assert_eq!(sg.graph().out_degrees(), g.out_degrees());
                stack.push(d);
            }
        }
        for d in stack.iter().rev() {
            sg.undo(d);
        }
        assert_eq!(sg.graph(), &g);
        assert_eq!(sg.fingerprint(), zobrist_fingerprint(&g));
    }
}
