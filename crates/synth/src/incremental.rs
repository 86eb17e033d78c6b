//! Dirty-cone incremental PCS evaluation: the Phase-3 reward.
//!
//! The exact Phase-3 reward re-synthesizes the *whole design* for every
//! candidate swap ([`crate::passes::optimize`]), although one atomic
//! parent swap perturbs at most a handful of register cones. This module
//! decomposes the design-level PCS into per-cone areas. A cone's area is
//! what the fold/CSE fixpoint of [`crate::passes`] leaves of the
//! standalone circuit `syncircuit_graph::cone::cone_circuit_parts` builds
//! for it (boundary nodes become inputs, constants keep their value, a
//! register apex drives a fresh output port). No cone is synthesized,
//! though: every query reads each cone's area off structural classes.
//!
//! # Structural classes
//!
//! A query gives nodes structural classes on demand: deriving a cone
//! classes the fan-in of its apex's parent, and the classes stay valid
//! for the rest of the query, so each node is classed at most once per
//! query and a node in no derived cone never is.
//!
//! - Inputs and registers are opaque leaves, one class each; constants
//!   are interned by width and masked value.
//! - Every combinational node is visited in depth-first post-order over
//!   its parents (an explicit stack, so a 16,384-node request cannot
//!   overflow the thread's stack) and takes the outcome of the one fold
//!   rule function of [`crate::passes`], applied to its parents' classes:
//!   its parent's class (a replacement), an interned constant, or an
//!   interned class keyed the way CSE keys a node (type, width, aux and
//!   parent classes, the commutative pair ordered). A node that takes
//!   that last outcome (no rule fires) is *kept*, and the class stores
//!   its `node_area`. A node whose outcome is not a replacement is a
//!   *candidate*; a non-constant class's candidates are its kept nodes.
//!
//! Every rule fires on facts that only accumulate: constants and class
//! equalities. So a node's outcome at the fixpoint depends only on its
//! fan-in up to registers, inputs and constants, and every cone that
//! holds the node sees the one class the query gives it. Classes are
//! interned in the flat, tag-cleared CSE table of [`crate::passes`],
//! sized like it for the whole design. Its hash does not resist crafted
//! collisions: such a design would slow classing down without changing
//! a class.
//!
//! # A cone's area
//!
//! A cone is walked by `syncircuit_graph::cone::fanin_cone_into`, the
//! reverse breadth-first search that builds the standalone cone circuit,
//! stopping at `const` / `in` / `reg` boundary nodes: the area reads the
//! members in the walk's order.
//!
//! A register apex whose D input has a constant class folds to that
//! constant: its cone scores `0.0`. Otherwise the classes reachable over
//! class parents from the D input's class (from an output apex's
//! parent's class) are live, and the area sums the stored area of each
//! live class at its first kept member, in member order, then adds the
//! register apex's own area. These are the fixpoint's bits:
//!
//! - CSE keeps the lowest-index candidate of each class, so the
//!   survivors are the first candidates in netlist order, which is member
//!   order;
//! - liveness follows resolved parents, and those are the class parents;
//! - every kept node of a class has the type, width and aux of the key,
//!   so its `node_area` is the one the class stores;
//! - constants, inputs, bit-selects, concats and output ports add `+0.0`,
//!   which never changes a non-negative sum.
//!
//! Most cones find their live classes without a search. The first 64
//! classes a query makes each carry a reach mask, one bit per class
//! reachable over class parents (itself included, constants not). A
//! class's parents are made before it, so their ids are lower and their
//! masks are complete: a new class's mask is its own bit or'ed with
//! theirs. When the D input's class has a mask, the mask is the live set;
//! otherwise a search over class parents from the D input's class marks
//! it.
//!
//! A test checks every register and output cone of random circuits,
//! along random swap walks, against the synthesized cone circuit.
//!
//! # Reuse under a swap engine
//!
//! [`ConeSynthCache::pcs_swap`] reads the parent-list stamps of a
//! [`SwapGraph`]. A cone's members and area depend only on the parent
//! lists of its apex and members and on node attributes, which swaps
//! never change. So when the apex and every member still carry the
//! stamps recorded with the cone's area, the view returns that area with
//! no walk. A swap rewrites two parent lists, so only the cones that
//! contain its `j` or `q` are derived again.
//!
//! # Sharing
//!
//! Each worker owns a [`ConeSynthCache`] view with private, tag-stamped
//! scratch, so warm queries allocate nothing. The views of one model
//! share one [`SharedConeSynthCache`], which holds counters only: views
//! share no state that could make a result depend on scheduling.
//!
//! The decomposed metric is deliberately *not* bit-identical to
//! whole-design PCS — global CSE can merge logic across cones, which no
//! cone-local scheme can observe — but it is deterministic,
//! self-consistent (property-tested), and preserves the two reward
//! gradients Phase 3 needs (paper §VI):
//!
//! - **cone collapse** — a register cone that folds to a constant
//!   synthesizes to (near-)zero local area;
//! - **fan-out deadness** — a register whose value never reaches a
//!   primary output contributes nothing (global output-reachability
//!   mask, recomputed in O(V + E) per query).
//!
//! Score: `(Σ observed register-cone areas + Σ output-cone areas) /
//! node_count`, matching the whole-design PCS normalization.

use crate::area::node_area;
use crate::passes::{fold_rule, CseKey, CseTable, Fold, Operands};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use syncircuit_graph::cone::{fanin_cone_into, is_boundary, ConeScratch};
use syncircuit_graph::swap::SwapGraph;
use syncircuit_graph::{mask, CircuitGraph, Marks, Node, NodeId, NodeType};

/// Cone counters of a [`SharedConeSynthCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConeCacheStats {
    /// Always 0: there is no cone table to hit.
    pub hits: u64,
    /// Cone areas derived from the structural classes.
    pub misses: u64,
    /// Always 0: there is no cone table to evict from.
    pub evictions: u64,
    /// Cone areas that views reused from their per-apex memos
    /// ([`ConeSynthCache::pcs_swap`]) instead of deriving them.
    pub reused: u64,
}

/// [`ConeClasses::class`] of a node on the search's stack.
const VISITING: usize = usize::MAX;

/// The classes a query makes first, those with an id below this, carry
/// the classes reachable from them as a bit mask.
const MASKED: usize = 64;

/// Class `c`'s bit in a reach mask; 0 for a class past [`MASKED`].
#[inline]
fn mask_bit(c: usize) -> u64 {
    if c < MASKED {
        1 << c
    } else {
        0
    }
}

/// The structural classes of one design's nodes, made on demand and
/// valid for one query (see the module docs), plus the liveness scratch
/// of the cone areas.
#[derive(Debug, Default)]
struct ConeClasses {
    /// The nodes classed in this query.
    classed: Marks,
    /// Per classed node: its class.
    class: Vec<usize>,
    /// Per classed node: whether its outcome is [`Fold::Keep`].
    kept: Vec<bool>,
    /// Per class: its key. A constant's masked value is its `aux`; a leaf
    /// has its node's attributes and no parents.
    keys: Vec<CseKey>,
    /// Per class: `node_area` of the kept node that made it (every kept
    /// node of the class has its type, width and aux); 0.0 for a
    /// constant or a leaf.
    areas: Vec<f64>,
    /// Per class below [`MASKED`]: the non-constant classes reachable from
    /// it over class parents, itself included. A class's parents are made
    /// before it, so their ids are lower and their masks are complete.
    reach: Vec<u64>,
    table: CseTable,
    /// The depth-first stack of the search.
    stack: Vec<NodeId>,
    /// The live classes of the cone being scored.
    live: Marks,
    pending: Vec<usize>,
}

/// The classes as the fold rules see them.
struct Classes<'a>(&'a [CseKey]);

impl Operands<usize> for Classes<'_> {
    fn constant(&self, c: usize) -> Option<u64> {
        let key = &self.0[c];
        (key.ty == NodeType::Const).then_some(key.aux)
    }

    fn width(&self, c: usize) -> u32 {
        self.0[c].width
    }

    fn not_operand(&self, c: usize) -> Option<usize> {
        let key = &self.0[c];
        (key.ty == NodeType::Not).then_some(key.ps[0])
    }
}

impl ConeClasses {
    /// Forgets every class, for a query of `g`.
    fn begin(&mut self, g: &CircuitGraph) {
        let n = g.node_count();
        if self.class.len() < n {
            self.class.resize(n, VISITING);
            self.kept.resize(n, false);
        }
        self.classed.clear(n);
        self.keys.clear();
        self.areas.clear();
        self.reach.clear();
        self.table.begin(n);
    }

    /// The class of `u`, classing its fan-in first if this query has not.
    fn class_of(&mut self, g: &CircuitGraph, u: NodeId) -> usize {
        if !self.classed.contains(u.index()) {
            self.visit(g, u);
        }
        self.class[u.index()]
    }

    /// Classes `root` and its unclassed fan-in in depth-first post-order.
    /// A combinational loop (an invalid graph) is cut where the search
    /// re-enters a node on its stack: that parent reads as a fresh
    /// opaque leaf, so the search ends, with an unspecified area.
    fn visit(&mut self, g: &CircuitGraph, root: NodeId) {
        self.classed.mark(root.index());
        if is_boundary(g.ty(root)) {
            self.class[root.index()] = self.leaf(*g.node(root));
            return;
        }
        self.class[root.index()] = VISITING;
        self.stack.push(root);
        'nodes: while let Some(&u) = self.stack.last() {
            let parents = g.parents(u);
            let mut ps = [usize::MAX; 3];
            for (c, &p) in ps.iter_mut().zip(parents) {
                let i = p.index();
                *c = if self.classed.mark(i) {
                    if is_boundary(g.ty(p)) {
                        self.class[i] = self.leaf(*g.node(p));
                        self.class[i]
                    } else {
                        self.class[i] = VISITING;
                        self.stack.push(p);
                        continue 'nodes;
                    }
                } else if self.class[i] == VISITING {
                    self.leaf(Node::new(NodeType::Input, g.node(p).width()))
                } else {
                    self.class[i]
                };
            }
            self.stack.pop();
            let node = *g.node(u);
            let len = parents.len();
            let (class, kept) = match fold_rule(node, &ps[..len], &Classes(&self.keys)) {
                Fold::Replace(c) => (c, false),
                Fold::Const(v) => (self.constant(node.width(), v), false),
                Fold::Keep => {
                    let key = CseKey::new(node, ps, len);
                    (self.intern(key, node_area(&node)), true)
                }
            };
            self.class[u.index()] = class;
            self.kept[u.index()] = kept;
        }
    }

    /// The class of a boundary node: a fresh one for an input or a
    /// register, the interned one for a constant.
    fn leaf(&mut self, node: Node) -> usize {
        if node.ty() == NodeType::Const {
            return self.constant(node.width(), node.aux());
        }
        let class = self.keys.len();
        self.keys.push(CseKey::new(node, [usize::MAX; 3], 0));
        self.areas.push(0.0);
        self.reach.push(mask_bit(class));
        class
    }

    /// The class of the constant `value` (masked here) of width `width`.
    fn constant(&mut self, width: u32, value: u64) -> usize {
        let node = Node::with_aux(NodeType::Const, width, value & mask(width));
        self.intern(CseKey::new(node, [usize::MAX; 3], 0), 0.0)
    }

    /// The class keyed `key`, made with area `area` if it is new.
    fn intern(&mut self, key: CseKey, area: f64) -> usize {
        let fresh = self.keys.len();
        let class = self.table.first_or_insert(key, fresh);
        if class == fresh {
            let reach = if key.ty == NodeType::Const || fresh >= MASKED {
                0
            } else {
                let ps = &key.ps[..usize::from(key.len)];
                ps.iter().fold(mask_bit(fresh), |r, &p| r | self.reach[p])
            };
            self.keys.push(key);
            self.areas.push(area);
            self.reach.push(reach);
        }
        class
    }

    /// The cone fixpoint's area of the cone of `apex` (a register or an
    /// output) whose members the walk listed (see the module docs).
    fn area(&mut self, g: &CircuitGraph, apex: NodeId, members: &[NodeId]) -> f64 {
        let d = self.class_of(g, g.parents(apex)[0]);
        let register = g.ty(apex) == NodeType::Reg;
        if register && self.keys[d].ty == NodeType::Const {
            return 0.0;
        }
        let mut area = if d < MASKED {
            self.masked_sum(d, members)
        } else {
            self.searched_sum(d, members)
        };
        if register {
            area += node_area(g.node(apex));
        }
        area
    }

    /// The stored area of each class live from `d`, summed at its first
    /// kept member in member order, with `d`'s reach mask (`d` below
    /// [`MASKED`]) as the live set.
    #[inline]
    fn masked_sum(&self, d: usize, members: &[NodeId]) -> f64 {
        let mut live = self.reach[d];
        let mut area = 0.0;
        for &m in members {
            let class = self.class[m.index()];
            if self.kept[m.index()] && live & mask_bit(class) != 0 {
                area += self.areas[class];
                live &= !mask_bit(class);
            }
        }
        area
    }

    /// [`ConeClasses::masked_sum`] with the live set marked by a search
    /// from `d`, which any class allows.
    fn searched_sum(&mut self, d: usize, members: &[NodeId]) -> f64 {
        self.mark_live(d);
        let mut area = 0.0;
        for &m in members {
            let class = self.class[m.index()];
            if self.kept[m.index()] && self.live.contains(class) {
                area += self.areas[class];
                self.live.unmark(class);
            }
        }
        area
    }

    /// Marks the non-constant classes reachable over class parents from
    /// `root`. A class is marked when it is pushed, so each is pushed
    /// once.
    fn mark_live(&mut self, root: usize) {
        self.live.clear(self.keys.len());
        self.pending.clear();
        let keys = &self.keys;
        let mut reach = |c: usize| keys[c].ty != NodeType::Const && self.live.mark(c);
        if reach(root) {
            self.pending.push(root);
        }
        while let Some(c) = self.pending.pop() {
            let key = &keys[c];
            for &p in &key.ps[..usize::from(key.len)] {
                if reach(p) {
                    self.pending.push(p);
                }
            }
        }
    }
}

/// Output-reachability mask (reverse search from all primary outputs
/// over parent edges, crossing registers); the stack is reused across
/// queries.
#[derive(Debug, Default)]
struct ObservedScratch {
    seen: Marks,
    stack: Vec<NodeId>,
}

impl ObservedScratch {
    /// Re-marks the mask for `g`; afterwards `self.observed(id)` answers
    /// whether a primary output is reachable from `id`.
    fn mark(&mut self, g: &CircuitGraph) {
        self.seen.clear(g.node_count());
        self.stack.clear();
        for (id, node) in g.iter() {
            if node.ty() == NodeType::Output {
                self.seen.mark(id.index());
                self.stack.push(id);
            }
        }
        while let Some(u) = self.stack.pop() {
            for &p in g.parents(u) {
                if self.seen.mark(p.index()) {
                    self.stack.push(p);
                }
            }
        }
    }

    fn observed(&self, id: NodeId) -> bool {
        self.seen.contains(id.index())
    }
}

/// What a view last computed for one apex under a swap engine: the
/// parent-list stamps of the apex and its members, and the cone's area.
#[derive(Debug, Default)]
struct ConeMemo {
    /// The apex, then each member, with the stamp of its parent list
    /// (empty: no record yet).
    stamped: Vec<(NodeId, u64)>,
    area: f64,
}

impl ConeMemo {
    /// The recorded area, if every recorded node still carries its
    /// recorded stamp. The apex is compared first: a match means
    /// `stamps` belongs to the engine (or a clone of it) the record was
    /// taken from, so the member ids are in range.
    fn reuse(&self, stamps: &[u64]) -> Option<f64> {
        let unchanged = |&(id, stamp): &(NodeId, u64)| stamps[id.index()] == stamp;
        (!self.stamped.is_empty() && self.stamped.iter().all(unchanged)).then_some(self.area)
    }

    fn record(&mut self, apex: NodeId, members: &[NodeId], stamps: &[u64], area: f64) {
        let cone = std::iter::once(&apex).chain(members);
        self.stamped.clear();
        self.stamped
            .extend(cone.map(|&id| (id, stamps[id.index()])));
        self.area = area;
    }
}

/// The cone counters every view of one model shares: cones derived from
/// the classes (misses) and cones reused from per-apex memos.
///
/// It stores no cone areas, so views share nothing a result could depend
/// on: any number of workers, in any schedule, return the bits one
/// private evaluator does and count the same totals.
#[derive(Debug, Default)]
pub struct SharedConeSynthCache {
    misses: AtomicU64,
    reused: AtomicU64,
}

impl SharedConeSynthCache {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters summed over every view.
    pub fn total_stats(&self) -> ConeCacheStats {
        ConeCacheStats {
            misses: self.misses.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            ..ConeCacheStats::default()
        }
    }

    /// Adds one query's derived and reused cones.
    fn add(&self, derived: u64, reused: u64) {
        for (counter, count) in [(&self.misses, derived), (&self.reused, reused)] {
            if count > 0 {
                counter.fetch_add(count, Ordering::Relaxed);
            }
        }
    }
}

/// Per-worker cone evaluator: private tag-stamped scratch (the classes,
/// the walk, the observability mask and, under a swap engine, one memo
/// per apex), so warm queries allocate nothing and scratch never crosses
/// threads, over a [`SharedConeSynthCache`] that counts its cones.
///
/// A private evaluator ([`ConeSynthCache::new`]) owns fresh counters;
/// fan-out callers clone one `Arc` into [`ConeSynthCache::with_shared`]
/// per worker.
#[derive(Debug)]
pub struct ConeSynthCache {
    shared: Arc<SharedConeSynthCache>,
    classes: ConeClasses,
    cone: ConeScratch,
    observed: ObservedScratch,
    /// Per-apex memo, indexed by the apex's [`NodeId::index`].
    memo: Vec<ConeMemo>,
    /// Cones the running query derived and reused.
    derived: u64,
    reused: u64,
}

impl Default for ConeSynthCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ConeSynthCache {
    /// Evaluator with private counters.
    pub fn new() -> Self {
        Self::with_shared(Arc::new(SharedConeSynthCache::new()))
    }

    /// Worker view counting into `shared`.
    pub fn with_shared(shared: Arc<SharedConeSynthCache>) -> Self {
        ConeSynthCache {
            shared,
            classes: ConeClasses::default(),
            cone: ConeScratch::new(),
            observed: ObservedScratch::default(),
            memo: Vec::new(),
            derived: 0,
            reused: 0,
        }
    }

    /// The counters of the shared handle (summed over all its views).
    pub fn stats(&self) -> ConeCacheStats {
        self.shared.total_stats()
    }

    /// Incremental cone-decomposed PCS of `g` (larger ⇒ less redundancy).
    /// Deterministic in `g` alone: no state carries over between queries.
    pub fn pcs(&mut self, g: &CircuitGraph) -> f64 {
        self.sweep(g, None)
    }

    /// [`ConeSynthCache::pcs`] of the engine's current graph, bit for
    /// bit, reusing the area of every cone whose apex and members still
    /// carry the parent-list stamps recorded with it (see the module
    /// docs). Reused cones are counted in [`ConeCacheStats::reused`].
    pub fn pcs_swap(&mut self, sg: &SwapGraph) -> f64 {
        self.sweep(sg.graph(), Some(sg.stamps()))
    }

    /// The one register/output sweep behind both entry points; `stamps`
    /// enables the per-apex memo.
    fn sweep(&mut self, g: &CircuitGraph, stamps: Option<&[u64]>) -> f64 {
        let n = g.node_count();
        if n == 0 {
            return 0.0;
        }
        if stamps.is_some() && self.memo.len() < n {
            self.memo.resize_with(n, ConeMemo::default);
        }
        self.observed.mark(g);
        self.classes.begin(g);
        let mut area = 0.0;
        for (id, node) in g.iter() {
            if node.ty() != NodeType::Reg {
                continue;
            }
            if !self.observed.observed(id) {
                continue; // fan-out dead: synthesis would sweep it
            }
            area += self.cone_area(g, id, stamps);
        }
        for (id, node) in g.iter() {
            if node.ty() == NodeType::Output {
                area += self.cone_area(g, id, stamps);
            }
        }
        self.shared.add(
            std::mem::take(&mut self.derived),
            std::mem::take(&mut self.reused),
        );
        area / n as f64
    }

    /// Post-synthesis area of the fan-in cone of `apex`. With `stamps`,
    /// an unchanged cone returns its memo; otherwise one walk lists the
    /// cone and its area is read off the classes.
    fn cone_area(&mut self, g: &CircuitGraph, apex: NodeId, stamps: Option<&[u64]>) -> f64 {
        if let Some(stamps) = stamps {
            if let Some(area) = self.memo[apex.index()].reuse(stamps) {
                self.reused += 1;
                return area;
            }
        }
        let (members, _) = fanin_cone_into(g, apex, &mut self.cone);
        let area = self.classes.area(g, apex, members);
        self.derived += 1;
        if let Some(stamps) = stamps {
            self.memo[apex.index()].record(apex, members, stamps, area);
        }
        area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alive_and_dead() -> (CircuitGraph, CircuitGraph) {
        // alive: xor(i1, i2) → reg → out. dead: xor(i, i) → reg → out.
        let mut alive = CircuitGraph::new("alive");
        let i1 = alive.add_node(NodeType::Input, 8);
        let i2 = alive.add_node(NodeType::Input, 8);
        let x = alive.add_node(NodeType::Xor, 8);
        let r = alive.add_node(NodeType::Reg, 8);
        let o = alive.add_node(NodeType::Output, 8);
        alive.set_parents(x, &[i1, i2]).unwrap();
        alive.set_parents(r, &[x]).unwrap();
        alive.set_parents(o, &[r]).unwrap();

        let mut dead = CircuitGraph::new("dead");
        let i = dead.add_node(NodeType::Input, 8);
        let i2 = dead.add_node(NodeType::Input, 8);
        let x = dead.add_node(NodeType::Xor, 8);
        let r = dead.add_node(NodeType::Reg, 8);
        let o = dead.add_node(NodeType::Output, 8);
        let _ = i2;
        dead.set_parents(x, &[i, i]).unwrap();
        dead.set_parents(r, &[x]).unwrap();
        dead.set_parents(o, &[r]).unwrap();
        (alive, dead)
    }

    #[test]
    fn orders_cone_collapse() {
        let (alive, dead) = alive_and_dead();
        let mut ev = ConeSynthCache::new();
        assert!(ev.pcs(&alive) > ev.pcs(&dead));
    }

    #[test]
    fn fanout_dead_register_scores_lower() {
        // observed: in → reg → out. unobserved: in → reg, out ← in.
        let mut obs = CircuitGraph::new("obs");
        let i = obs.add_node(NodeType::Input, 8);
        let r = obs.add_node(NodeType::Reg, 8);
        let o = obs.add_node(NodeType::Output, 8);
        obs.set_parents(r, &[i]).unwrap();
        obs.set_parents(o, &[r]).unwrap();

        let mut dead = CircuitGraph::new("deadfan");
        let i = dead.add_node(NodeType::Input, 8);
        let r = dead.add_node(NodeType::Reg, 8);
        let o = dead.add_node(NodeType::Output, 8);
        dead.set_parents(r, &[i]).unwrap();
        dead.set_parents(o, &[i]).unwrap();

        let mut ev = ConeSynthCache::new();
        assert!(ev.pcs(&obs) > ev.pcs(&dead));
    }

    #[test]
    fn warm_cache_matches_cold_cache() {
        let (alive, dead) = alive_and_dead();
        let mut warm = ConeSynthCache::new();
        let w1 = warm.pcs(&alive);
        let w2 = warm.pcs(&dead);
        let w3 = warm.pcs(&alive);
        let mut cold = ConeSynthCache::new();
        assert_eq!(cold.pcs(&alive), w1);
        let mut cold = ConeSynthCache::new();
        assert_eq!(cold.pcs(&dead), w2);
        assert_eq!(w1, w3, "re-evaluation must be exact");
    }

    #[test]
    fn empty_graph_scores_zero() {
        let mut ev = ConeSynthCache::new();
        assert_eq!(ev.pcs(&CircuitGraph::new("empty")), 0.0);
    }

    #[test]
    fn scratch_reuse_is_stable_over_many_queries() {
        // Warm queries ride entirely on tag-stamped scratch; a thousand
        // alternating evaluations must stay bit-identical to the first.
        let (alive, dead) = alive_and_dead();
        let mut ev = ConeSynthCache::new();
        let a0 = ev.pcs(&alive);
        let d0 = ev.pcs(&dead);
        let cold_misses = ev.stats().misses;
        for _ in 0..1000 {
            assert_eq!(ev.pcs(&alive).to_bits(), a0.to_bits());
            assert_eq!(ev.pcs(&dead).to_bits(), d0.to_bits());
        }
        let s = ev.stats();
        assert_eq!(
            s.misses,
            1001 * cold_misses,
            "a stateless query derives every cone"
        );
        assert_eq!((s.hits, s.evictions, s.reused), (0, 0, 0));
    }

    #[test]
    fn shared_views_match_private_evaluators() {
        // Worker views over one shared handle return exactly what private
        // evaluators do, whatever another view scored before.
        let (alive, dead) = alive_and_dead();
        let mut private = ConeSynthCache::new();
        let a0 = private.pcs(&alive);
        let d0 = private.pcs(&dead);

        let shared = Arc::new(SharedConeSynthCache::new());
        let mut w1 = ConeSynthCache::with_shared(shared.clone());
        let mut w2 = ConeSynthCache::with_shared(shared.clone());
        assert_eq!(w1.pcs(&alive).to_bits(), a0.to_bits());
        // w2 derives its cones itself and counts them into the same
        // handle …
        let misses_before = shared.total_stats().misses;
        assert_eq!(w2.pcs(&alive).to_bits(), a0.to_bits());
        assert_eq!(shared.total_stats().misses, 2 * misses_before);
        // … and another design still scores identically.
        assert_eq!(w2.pcs(&dead).to_bits(), d0.to_bits());
    }

    /// The masked-counter fixture: a self-feeding counter behind a
    /// constant that needs masking (pushed unmasked; `cone_circuit_parts`
    /// masks it), read through a bit-select by an output (a sink apex).
    fn masked_counter() -> CircuitGraph {
        let mut g = CircuitGraph::new("masked_counter");
        let c = g.push_node(Node::with_aux(NodeType::Const, 4, 0xFF));
        let r = g.add_node(NodeType::Reg, 4);
        let s = g.add_node(NodeType::Add, 4);
        let b = g.add_bit_select(2, 1);
        let o = g.add_node(NodeType::Output, 2);
        g.set_parents(s, &[r, c]).unwrap();
        g.set_parents(r, &[s]).unwrap();
        g.set_parents(b, &[r]).unwrap();
        g.set_parents(o, &[b]).unwrap();
        g
    }

    /// A register cone where every fold rule the battery must cover
    /// fires: Not-Not, a live CSE merge (of a commutative pair) that
    /// makes two parents equal, a Mux with a constant select and a
    /// Concat of two constants.
    fn rule_fixture() -> CircuitGraph {
        let mut g = CircuitGraph::new("rules");
        let i0 = g.add_node(NodeType::Input, 4);
        let i1 = g.add_node(NodeType::Input, 4);
        let one = g.add_const(1, 1);
        let hi = g.add_const(2, 3);
        let lo = g.add_const(2, 1);
        let mut op = |ty: NodeType, parents: &[NodeId]| {
            let id = g.add_node(ty, 4);
            g.set_parents(id, parents).unwrap();
            id
        };
        let n1 = op(NodeType::Not, &[i0]);
        let n2 = op(NodeType::Not, &[n1]); // → i0
        let a1 = op(NodeType::Add, &[i0, i1]);
        let a2 = op(NodeType::Add, &[i1, i0]); // ≡ a1
        let x = op(NodeType::Xor, &[a1, n2]);
        let m = op(NodeType::Mux, &[one, x, a2]); // → x
        let y = op(NodeType::And, &[m, a2]);
        let z = op(NodeType::Xor, &[a1, a2]); // → 0
        let w = op(NodeType::Or, &[y, z]); // → y
        let cat = op(NodeType::Concat, &[hi, lo]); // → 0b1101
        let sub = op(NodeType::Sub, &[w, cat]);
        let r = op(NodeType::Reg, &[sub]);
        op(NodeType::Output, &[r]);
        g
    }

    /// Random circuits for the class battery: the default generator, and
    /// configs that make the rules fire often (up to 40% constants) and
    /// CSE find equal nodes (one or two narrow widths); then larger ones,
    /// whose queries make more classes than carry reach masks.
    fn battery_circuits() -> impl Iterator<Item = CircuitGraph> {
        use rand::{rngs::StdRng, SeedableRng};
        use syncircuit_graph::testing::{random_valid_circuit, RandomCircuitConfig};
        let widths: [&[u32]; 5] = [&[1, 2, 4, 8, 16, 32], &[1], &[1, 2], &[1, 4], &[8]];
        let config = move |k: usize, num_nodes: usize| RandomCircuitConfig {
            num_nodes,
            const_fraction: [0.06, 0.2, 0.4][k % 3],
            widths: widths[k % widths.len()].to_vec(),
            ..RandomCircuitConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0x0C1A_55E5);
        let small = (0..200).map(move |k| random_valid_circuit(&mut rng, &config(k, 8 + k % 56)));
        let mut rng = StdRng::seed_from_u64(0x0C1A_55E6);
        let large = (0..24).map(move |k| random_valid_circuit(&mut rng, &config(k, 100 + 4 * k)));
        small.chain(large)
    }

    /// Which of (register apex folded to a constant, self-feeding apex,
    /// sink apex, CSE merge, Not-Not, Mux with a constant select, Concat
    /// fold, members that all stay, a member that folds or is replaced,
    /// an area read off a reach mask, a liveness search) the cone of
    /// `apex` shows, read off the classes.
    fn cone_shapes(
        g: &CircuitGraph,
        apex: NodeId,
        members: &[NodeId],
        classes: &ConeClasses,
    ) -> [bool; 11] {
        let class = |id: NodeId| classes.class[id.index()];
        let constant = |id: NodeId| classes.keys[class(id)].ty == NodeType::Const;
        let kept = |id: NodeId| classes.kept[id.index()];
        // A constant outcome makes a constant class, so this is a
        // replacement.
        let replaced = |id: NodeId| !kept(id) && !constant(id);
        let register = g.ty(apex) == NodeType::Reg;
        let d = g.parents(apex)[0];
        let scored = !(register && constant(d));
        let masked = class(d) < MASKED;
        let mut seen = std::collections::HashSet::new();
        let merged = members
            .iter()
            .filter(|&&m| kept(m))
            .any(|&m| !seen.insert(class(m)));
        let any = |ty: NodeType, shape: &dyn Fn(NodeId, &[NodeId]) -> bool| {
            members
                .iter()
                .any(|&m| g.ty(m) == ty && shape(m, g.parents(m)))
        };
        [
            !scored,
            register
                && std::iter::once(&apex)
                    .chain(members)
                    .any(|&m| g.parents(m).contains(&apex)),
            g.ty(apex).is_sink(),
            merged,
            any(NodeType::Not, &|m, _| replaced(m)),
            any(NodeType::Mux, &|m, ps| replaced(m) && constant(ps[0])),
            any(NodeType::Concat, &|_, ps| ps.iter().all(|&p| constant(p))),
            !members.is_empty() && members.iter().all(|&m| kept(m)),
            members.iter().any(|&m| !kept(m)),
            scored && masked,
            scored && !masked,
        ]
    }

    #[test]
    fn in_place_miss_path_matches_standalone_cone_circuits() {
        // The class area of every register and output cone equals the
        // area of the synthesized standalone cone circuit, bit for bit:
        // on the masked counter and the rule fixture, and on random
        // circuits along random swap walks.
        use crate::passes::optimized_area;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use syncircuit_graph::cone::cone_circuit_parts;
        let mut classes = ConeClasses::default();
        let mut cone = ConeScratch::new();
        let mut covered = [false; 11];
        let mut check = |g: &CircuitGraph| {
            classes.begin(g);
            for (apex, node) in g.iter() {
                if !matches!(node.ty(), NodeType::Reg | NodeType::Output) {
                    continue;
                }
                let (members, boundary) = fanin_cone_into(g, apex, &mut cone);
                let circuit = cone_circuit_parts(g, apex, members, boundary).circuit;
                let want = optimized_area(&circuit);
                let got = classes.area(g, apex, members);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{}: area of the {apex} cone ({got} != {want})",
                    g.name()
                );
                // Where a mask exists, the search must find and sum the
                // same live set: the large circuits alone reach the
                // search too rarely to pin its sum's order.
                let d = classes.class[g.parents(apex)[0].index()];
                if d < MASKED {
                    let masked = classes.masked_sum(d, members);
                    let searched = classes.searched_sum(d, members);
                    assert_eq!(masked.to_bits(), searched.to_bits(), "{}: {apex}", g.name());
                }
                let shapes = cone_shapes(g, apex, members, &classes);
                for (all, one) in covered.iter_mut().zip(shapes) {
                    *all |= one;
                }
            }
        };
        check(&masked_counter());
        check(&rule_fixture());
        let mut rng = StdRng::seed_from_u64(0xBA77);
        for g in battery_circuits() {
            let mut sg = SwapGraph::new(g);
            check(sg.graph());
            for _ in 0..12 {
                let edges: Vec<_> = sg.graph().edges().collect();
                let a = edges[rng.gen_range(0..edges.len())];
                let b = edges[rng.gen_range(0..edges.len())];
                if sg.try_apply(a.from, a.to, b.from, b.to).is_some() {
                    check(sg.graph());
                }
            }
        }
        assert_eq!(
            covered, [true; 11],
            "folded apex, self-feeding apex, sink apex, CSE merge, Not-Not, \
             Mux with a constant select, Concat fold, unfolded cone, cone \
             with a folded or replaced member, reach mask, liveness search"
        );
    }

    #[test]
    fn class_areas_and_reach_masks_are_exact() {
        // The area sum reads one stored area per class. It is exact
        // because every kept node of a class has the area stored with
        // it, and every other class (a constant or a leaf) stores 0.0.
        // A reach mask holds exactly the classes the liveness search
        // marks from its class.
        let mut classes = ConeClasses::default();
        let (mut kept_nodes, mut shared, mut masks) = (0, 0, 0);
        for g in [masked_counter(), rule_fixture()]
            .into_iter()
            .chain(battery_circuits())
        {
            classes.begin(&g);
            let mut makers = vec![None; g.node_count()];
            for (u, node) in g.iter() {
                let class = classes.class_of(&g, u);
                let area = classes.areas[class];
                // A leaf's outcome is not recorded: only members read it.
                if !is_boundary(node.ty()) && classes.kept[u.index()] {
                    kept_nodes += 1;
                    assert_eq!(
                        node_area(node).to_bits(),
                        area.to_bits(),
                        "{}: {u} keeps class {class}",
                        g.name()
                    );
                    let first = *makers[class].get_or_insert(u);
                    shared += usize::from(first != u);
                } else if classes.keys[class].ty == NodeType::Const || is_boundary(node.ty()) {
                    assert_eq!(area.to_bits(), 0.0f64.to_bits(), "{}: {u}", g.name());
                }
            }
            for (class, key) in classes.keys.iter().enumerate() {
                if key.ty == NodeType::Const || key.len == 0 {
                    assert_eq!(classes.areas[class].to_bits(), 0.0f64.to_bits());
                }
            }
            for root in 0..classes.keys.len().min(MASKED) {
                classes.mark_live(root);
                let searched = (0..classes.keys.len())
                    .filter(|&c| classes.live.contains(c))
                    .fold(0, |mask, c| mask | mask_bit(c));
                assert_eq!(classes.reach[root], searched, "{}: class {root}", g.name());
                masks += usize::from(searched.count_ones() > 2);
            }
        }
        assert!(
            kept_nodes > 1000 && shared > 0 && masks > 100,
            "{kept_nodes} kept, {shared} shared, {masks} masks of three or more classes"
        );
    }

    /// Walks `view` along random `try_apply` / `undo` / `apply_replay`
    /// writes on a random circuit, checking after every write that
    /// `pcs_swap` equals a stateless `pcs` of the same graph bit for bit.
    fn check_swap_walk(view: &mut ConeSynthCache, seed: u64) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use syncircuit_graph::testing::random_circuit_with_size;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_circuit_with_size(&mut rng, 16 + (seed % 24) as usize);
        let mut reference = ConeSynthCache::new();
        let mut sg = SwapGraph::new(g);
        let mut applied = Vec::new();
        for _ in 0..80 {
            match rng.gen_range(0..4) {
                0 | 1 => {
                    let edges: Vec<_> = sg.graph().edges().collect();
                    let a = edges[rng.gen_range(0..edges.len())];
                    let b = edges[rng.gen_range(0..edges.len())];
                    applied.extend(sg.try_apply(a.from, a.to, b.from, b.to));
                }
                2 => {
                    if let Some(d) = applied.pop() {
                        sg.undo(&d);
                    }
                }
                _ => {
                    if let Some(d) = applied.last() {
                        sg.undo(d);
                        sg.apply_replay(d);
                    }
                }
            }
            assert_eq!(
                view.pcs_swap(&sg).to_bits(),
                reference.pcs(sg.graph()).to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn pcs_swap_matches_pcs_along_random_swaps() {
        // One private view walks several designs in turn, so its memo
        // sees node ids of earlier engines; shared handles add workers
        // walking overlapping designs at once.
        let mut private = ConeSynthCache::new();
        for seed in 0..6 {
            check_swap_walk(&mut private, seed);
        }
        assert!(private.stats().reused > 0, "the memo must be exercised");
        for workers in [1u64, 2, 4, 8] {
            let shared = Arc::new(SharedConeSynthCache::new());
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let shared = shared.clone();
                    scope.spawn(move || {
                        let mut view = ConeSynthCache::with_shared(shared);
                        for seed in w..w + 3 {
                            check_swap_walk(&mut view, seed);
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn reused_cones_are_counted() {
        let (alive, _) = alive_and_dead();
        let sg = SwapGraph::new(alive);
        let counted = Arc::new(SharedConeSynthCache::new());
        let mut a = ConeSynthCache::with_shared(counted.clone());
        let first = a.pcs_swap(&sg).to_bits();
        for _ in 0..2 {
            assert_eq!(a.pcs_swap(&sg).to_bits(), first);
        }
        // Two cones (register and output): the first call derives both,
        // the next two reuse both from the memo.
        let expected = ConeCacheStats {
            hits: 0,
            misses: 2,
            evictions: 0,
            reused: 4,
        };
        assert_eq!(counted.total_stats(), expected);
    }

    #[test]
    fn concurrent_workers_agree_with_sequential() {
        // Interleaved alive/dead queries over one shared handle must
        // reproduce the private evaluator bit-for-bit.
        let threads = stress_workers();
        let (alive, dead) = alive_and_dead();
        let mut private = ConeSynthCache::new();
        let a0 = private.pcs(&alive).to_bits();
        let d0 = private.pcs(&dead).to_bits();
        let shared = Arc::new(SharedConeSynthCache::new());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut view = ConeSynthCache::with_shared(shared.clone());
                    for _ in 0..50 {
                        assert_eq!(view.pcs(&alive).to_bits(), a0);
                        assert_eq!(view.pcs(&dead).to_bits(), d0);
                    }
                });
            }
        });
        // Every query of every worker derived its cones and counted them.
        assert_eq!(
            shared.total_stats().misses,
            threads as u64 * 50 * private.stats().misses
        );
    }

    /// Worker count of the threaded tests: 4 by default; the CI
    /// threaded-stress step raises it via SYNCIRCUIT_STRESS_WORKERS.
    fn stress_workers() -> usize {
        std::env::var("SYNCIRCUIT_STRESS_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4)
    }
}
