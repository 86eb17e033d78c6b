//! Synthesis optimization passes.
//!
//! [`optimize`] runs constant propagation, algebraic identity rewriting,
//! common-subexpression elimination and dead-code elimination to a
//! fixpoint, then compacts the surviving logic into a fresh netlist
//! graph. These are exactly the mechanisms that make redundant synthetic
//! circuits collapse during real synthesis (the paper's SCPR story, §VI).
//!
//! # One fixpoint core
//!
//! Every entry point runs the same core on a crate-private
//! `SynthScratch`: a flat netlist (nodes plus at most three parent slots
//! each), the replacement links the passes write, the liveness marks
//! and the CSE table. [`optimize`], [`optimized_area`] and
//! [`optimized_pcs`] load it from a [`CircuitGraph`]. Each thread keeps
//! one scratch whose buffers keep their capacity between runs, so a warm
//! synthesis allocates nothing. Every entry point prices the surviving
//! cells with the one cell-area table of [`crate::area`].
//!
//! The fold rules are one pure function of a node and its parents. The
//! fixpoint applies it to netlist indices; the cone classes of
//! [`crate::incremental`] apply the same function to class ids, so one
//! copy of the rules serves both.
//!
//! CSE keys each node by its type, width, aux and resolved parents in a
//! flat open-addressed table. A pass clears the table by bumping a tag
//! rather than by touching its slots, and probes only the first `2n`
//! slots or more for an `n`-node netlist, so a table grown by one large
//! netlist costs the small ones after it nothing. The first equal node
//! in index order wins, so the table decides speed, never the result.
//!
//! # Sequential constant propagation
//!
//! A register whose D input is tied to a constant is replaced by that
//! constant. This assumes the register initializes to its tied value
//! (one reachable state), matching how synthesis sweeps constant
//! registers; it makes the optimized circuit equivalent to the original
//! only *after* an initialization transient, which the semantics
//! property tests account for.

use crate::area::{area_of_graph, gate_count, node_area};
use std::cell::RefCell;
use std::collections::HashMap;
use syncircuit_graph::interp::eval_op;
use syncircuit_graph::{mask, CircuitGraph, Node, NodeId, NodeType};

/// Aggregate statistics of one synthesis run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SynthStats {
    /// Node count of the input design.
    pub nodes_before: usize,
    /// Node count of the optimized netlist.
    pub nodes_after: usize,
    /// Cell area of the input design.
    pub area_before: f64,
    /// Cell area of the optimized netlist.
    pub area_after: f64,
    /// Register bits before synthesis (SCPR denominator).
    pub seq_bits_before: u64,
    /// Register bits surviving synthesis (SCPR numerator).
    pub seq_bits_after: u64,
    /// NAND2-equivalent gates before synthesis.
    pub gates_before: u64,
    /// NAND2-equivalent gates after synthesis.
    pub gates_after: u64,
}

/// Output of [`optimize`]: the compacted netlist plus statistics and a
/// map from original registers to surviving netlist registers.
#[derive(Clone, Debug)]
pub struct SynthResult {
    /// The optimized, compacted netlist.
    pub netlist: CircuitGraph,
    /// Before/after statistics.
    pub stats: SynthStats,
    /// Maps each original register to the netlist register that now holds
    /// its state (absent when the register was swept or folded to a
    /// constant). Merged registers map to the same netlist node.
    pub reg_map: HashMap<NodeId, NodeId>,
}

/// Runs the full optimization pipeline.
///
/// # Panics
///
/// Debug-asserts that the input graph is valid (correct arities, no
/// combinational loops); optimizing an invalid graph is unspecified.
pub fn optimize(g: &CircuitGraph) -> SynthResult {
    with_scratch(|s| {
        s.load(g);
        s.run();
        compact(g, s)
    })
}

/// Fixed-capacity parent slots (arity ≤ 3 = Mux): the working copy of
/// the wiring during optimization, flat in one `Vec` so the passes make
/// zero per-node heap allocations.
#[derive(Clone, Copy, Debug, Default)]
struct Slots {
    p: [usize; 3],
    len: u8,
}

impl Slots {
    #[inline]
    fn as_slice(&self) -> &[usize] {
        &self.p[..self.len as usize]
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }
}

/// The working state of one synthesis run, reused across runs: the flat
/// netlist the passes rewrite in place, the replacement links, the
/// liveness marks and stack, and the CSE table.
///
/// Load a netlist from a graph (or with [`clear`](SynthScratch::clear)
/// and [`push`](SynthScratch::push)), then run the core once with
/// [`area`](SynthScratch::area) or through [`optimize`]. Parents are
/// netlist indices and may point forward, as graph parents may; the
/// loaded netlist must be a valid circuit (correct arities, no
/// combinational loops).
#[derive(Debug, Default)]
struct SynthScratch {
    nodes: Vec<Node>,
    parents: Vec<Slots>,
    repl: Vec<Option<usize>>,
    live: Vec<bool>,
    stack: Vec<usize>,
    cse: CseTable,
}

thread_local! {
    static SCRATCH: RefCell<SynthScratch> = RefCell::new(SynthScratch::default());
}

/// Runs `f` on this thread's synthesis scratch. `f` must not synthesize
/// again itself: the scratch is borrowed for the whole call.
fn with_scratch<R>(f: impl FnOnce(&mut SynthScratch) -> R) -> R {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

impl SynthScratch {
    /// Empties the netlist, keeping every buffer's capacity.
    fn clear(&mut self) {
        self.nodes.clear();
        self.parents.clear();
    }

    /// Appends `node`, wired to the netlist nodes `parents` (at most
    /// three, in slot order).
    fn push(&mut self, node: Node, parents: impl IntoIterator<Item = usize>) {
        let mut slots = Slots::default();
        for p in parents {
            debug_assert!(slots.len() < 3, "node arity exceeds Mux");
            slots.p[slots.len()] = p;
            slots.len += 1;
        }
        self.nodes.push(node);
        self.parents.push(slots);
    }

    /// Loads `g` node for node, parents in slot order.
    fn load(&mut self, g: &CircuitGraph) {
        debug_assert!(g.is_valid(), "optimize requires a valid graph");
        self.clear();
        for (id, node) in g.iter() {
            self.push(*node, g.parents(id).iter().map(|p| p.index()));
        }
    }

    /// Runs the fold/CSE fixpoint on the loaded netlist, then marks the
    /// nodes live outputs still reach.
    fn run(&mut self) {
        let n = self.nodes.len();
        self.repl.clear();
        self.repl.resize(n, None);
        let mut rounds = 0usize;
        loop {
            let mut changed = false;
            changed |= fold_and_simplify(&mut self.nodes, &mut self.parents, &mut self.repl);
            changed |= cse(&self.nodes, &self.parents, &mut self.repl, &mut self.cse);
            rounds += 1;
            if !changed || rounds > n + 4 {
                break;
            }
        }
        self.mark_live();
    }

    /// Liveness: reverse reachability from outputs over resolved parents.
    fn mark_live(&mut self) {
        let (nodes, parents, repl) = (&self.nodes, &self.parents, &self.repl);
        self.live.clear();
        self.live.resize(nodes.len(), false);
        self.stack.clear();
        for u in 0..nodes.len() {
            if repl[u].is_none() && nodes[u].ty() == NodeType::Output {
                self.live[u] = true;
                self.stack.push(u);
            }
        }
        while let Some(u) = self.stack.pop() {
            for &p in parents[u].as_slice() {
                let p = resolve(repl, p);
                if !self.live[p] {
                    self.live[p] = true;
                    self.stack.push(p);
                }
            }
        }
    }

    /// Whether node `u` survives synthesis (live and not replaced);
    /// valid after [`run`](SynthScratch::run).
    #[inline]
    fn survives(&self, u: usize) -> bool {
        self.live[u] && self.repl[u].is_none()
    }

    /// Synthesizes the loaded netlist and returns its post-synthesis
    /// cell area, summed over the surviving nodes in netlist order.
    fn area(&mut self) -> f64 {
        self.run();
        let mut area = 0.0;
        for u in 0..self.nodes.len() {
            if self.survives(u) {
                area += node_area(&self.nodes[u]);
            }
        }
        area
    }
}

/// Post-synthesis circuit size of `g` without materializing the
/// compacted netlist: runs the same fixpoint and liveness, then sums
/// cell areas of the surviving nodes directly. Bit-identical to
/// `crate::pcs(&optimize(g))` (same nodes, same summation order), but
/// skips netlist construction, the register map, and the before-side
/// statistics — the Phase-3 reward hot path.
pub fn optimized_pcs(g: &CircuitGraph) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    optimized_area(g) / n as f64
}

/// Post-synthesis cell area of `g` without materializing the netlist;
/// bit-identical to `optimize(g).stats.area_after`.
pub fn optimized_area(g: &CircuitGraph) -> f64 {
    with_scratch(|s| {
        s.load(g);
        s.area()
    })
}

fn resolve(repl: &[Option<usize>], mut u: usize) -> usize {
    let mut hops = 0;
    while let Some(v) = repl[u] {
        u = v;
        hops += 1;
        debug_assert!(
            hops <= repl.len(),
            "replacement cycle (invalid input graph?)"
        );
        if hops > repl.len() {
            break;
        }
    }
    u
}

/// What the fold rules make of one node, given its parents.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fold<H> {
    /// No rule fires: the node stays as it is.
    Keep,
    /// The node is this constant (already masked to its width).
    Const(u64),
    /// The node computes what this parent does.
    Replace(H),
}

/// What the fold rules may ask about a parent, behind a handle: a
/// netlist index resolved through the replacement links in the fixpoint,
/// a class id in the cone classes ([`crate::incremental`]).
pub(crate) trait Operands<H> {
    /// The parent's value, if it is a constant.
    fn constant(&self, h: H) -> Option<u64>;
    /// The parent's width.
    fn width(&self, h: H) -> u32;
    /// The parent's operand, if the parent is a `Not` that stays.
    fn not_operand(&self, h: H) -> Option<H>;
}

/// The fold rules for one node that is not an input, constant or
/// output: sequential constant propagation for a register; for
/// combinational nodes, full constant folding, then the width-preserving
/// algebraic identities. `ps` are the node's parents in slot order.
///
/// Every rule fires on facts that only accumulate (constant parents and
/// equal parents), so the fixpoint and the cone classes, which apply it
/// in different orders, agree on what every node computes.
pub(crate) fn fold_rule<H: Copy + Eq>(node: Node, ps: &[H], ops: &impl Operands<H>) -> Fold<H> {
    let ty = node.ty();
    let w = node.width();
    let same_width = |h: H| ops.width(h) == w;

    // Registers: sequential constant propagation.
    if ty == NodeType::Reg {
        return match ops.constant(ps[0]) {
            Some(v) => Fold::Const(v & mask(w)),
            None => Fold::Keep,
        };
    }

    // Full constant folding.
    let mut const_buf = [None; 3];
    for (v, &p) in const_buf.iter_mut().zip(ps) {
        *v = ops.constant(p);
    }
    let const_vals = &const_buf[..ps.len()];
    if !ps.is_empty() && const_vals.iter().all(Option::is_some) {
        let aux = if ty == NodeType::Concat {
            u64::from(ops.width(ps[1]))
        } else {
            node.aux()
        };
        return Fold::Const(eval_op(ty, aux, |k| const_vals[k].unwrap_or(0)) & mask(w));
    }

    // Width-preserving algebraic identities.
    let replace_if_same_width = |h: H| {
        if same_width(h) {
            Fold::Replace(h)
        } else {
            Fold::Keep
        }
    };
    let constant = |v: u64| Fold::Const(v & mask(w));
    match ty {
        NodeType::And => {
            if ps[0] == ps[1] && same_width(ps[0]) {
                Fold::Replace(ps[0])
            } else if const_vals.iter().flatten().any(|&v| v & mask(w) == 0) {
                constant(0)
            } else if let Some(k) = all_ones_side(const_vals, w) {
                replace_if_same_width(ps[1 - k])
            } else {
                Fold::Keep
            }
        }
        NodeType::Or => {
            if ps[0] == ps[1] && same_width(ps[0]) {
                Fold::Replace(ps[0])
            } else if let Some(k) = zero_side(const_vals) {
                replace_if_same_width(ps[1 - k])
            } else if all_ones_side(const_vals, w).is_some() {
                constant(mask(w))
            } else {
                Fold::Keep
            }
        }
        NodeType::Xor => {
            if ps[0] == ps[1] {
                constant(0)
            } else if let Some(k) = zero_side(const_vals) {
                replace_if_same_width(ps[1 - k])
            } else {
                Fold::Keep
            }
        }
        NodeType::Add => match zero_side(const_vals) {
            Some(k) => replace_if_same_width(ps[1 - k]),
            None => Fold::Keep,
        },
        NodeType::Sub => {
            if ps[0] == ps[1] {
                constant(0)
            } else if const_vals[1] == Some(0) {
                replace_if_same_width(ps[0])
            } else {
                Fold::Keep
            }
        }
        NodeType::Mul => {
            if const_vals.iter().flatten().any(|&v| v == 0) {
                constant(0)
            } else if let Some(k) = const_vals.iter().position(|&v| v == Some(1)) {
                replace_if_same_width(ps[1 - k])
            } else {
                Fold::Keep
            }
        }
        NodeType::Eq if ps[0] == ps[1] => constant(1),
        NodeType::Lt if ps[0] == ps[1] => constant(0),
        NodeType::Shl | NodeType::Shr if const_vals[1] == Some(0) => replace_if_same_width(ps[0]),
        NodeType::Mux => {
            if let Some(sel) = const_vals[0] {
                replace_if_same_width(if sel != 0 { ps[1] } else { ps[2] })
            } else if ps[1] == ps[2] {
                replace_if_same_width(ps[1])
            } else {
                Fold::Keep
            }
        }
        // ~~x → x (all widths equal)
        NodeType::Not => match ops.not_operand(ps[0]) {
            Some(x) if same_width(ps[0]) => replace_if_same_width(x),
            _ => Fold::Keep,
        },
        NodeType::BitSelect if node.aux() == 0 => replace_if_same_width(ps[0]),
        _ => Fold::Keep,
    }
}

/// The loaded netlist as the fold rules see it: parents are resolved
/// indices.
struct Netlist<'a> {
    nodes: &'a [Node],
    parents: &'a [Slots],
    repl: &'a [Option<usize>],
}

impl Operands<usize> for Netlist<'_> {
    fn constant(&self, u: usize) -> Option<u64> {
        let node = self.nodes[u];
        (node.ty() == NodeType::Const).then(|| node.aux())
    }

    fn width(&self, u: usize) -> u32 {
        self.nodes[u].width()
    }

    fn not_operand(&self, u: usize) -> Option<usize> {
        (self.nodes[u].ty() == NodeType::Not).then(|| resolve(self.repl, self.parents[u].p[0]))
    }
}

fn fold_and_simplify(
    nodes: &mut [Node],
    parents: &mut [Slots],
    repl: &mut [Option<usize>],
) -> bool {
    let mut changed = false;
    for u in 0..nodes.len() {
        if repl[u].is_some() {
            continue;
        }
        if matches!(
            nodes[u].ty(),
            NodeType::Input | NodeType::Const | NodeType::Output
        ) {
            continue;
        }
        // Resolve parents through the replacement map, in place.
        let arity = parents[u].len();
        for slot in 0..arity {
            parents[u].p[slot] = resolve(repl, parents[u].p[slot]);
        }
        let ps = parents[u];
        let netlist = Netlist {
            nodes,
            parents,
            repl,
        };
        match fold_rule(nodes[u], ps.as_slice(), &netlist) {
            Fold::Keep => {}
            Fold::Const(v) => {
                nodes[u] = Node::with_aux(NodeType::Const, nodes[u].width(), v);
                parents[u].clear();
                changed = true;
            }
            Fold::Replace(target) => {
                if target != u {
                    repl[u] = Some(target);
                    changed = true;
                }
            }
        }
    }
    changed
}

fn zero_side(const_vals: &[Option<u64>]) -> Option<usize> {
    const_vals.iter().position(|&v| v == Some(0))
}

fn all_ones_side(const_vals: &[Option<u64>], w: u32) -> Option<usize> {
    const_vals
        .iter()
        .position(|&v| v.is_some_and(|x| x & mask(w) == mask(w)))
}

/// A node's identity for CSE: type, width, aux and resolved parents
/// (arity ≤ 3, padded with `usize::MAX` and disambiguated by `len`).
/// The cone classes key their classes the same way, with class ids as
/// parents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(test, derive(Hash))]
pub(crate) struct CseKey {
    pub(crate) ty: NodeType,
    pub(crate) width: u32,
    pub(crate) aux: u64,
    pub(crate) ps: [usize; 3],
    pub(crate) len: u8,
}

impl CseKey {
    /// The key of `node` with the (resolved) parents `ps[..len]`, sorted
    /// for commutative operators; the slots past `len` must hold
    /// `usize::MAX`.
    #[inline]
    pub(crate) fn new(node: Node, mut ps: [usize; 3], len: usize) -> Self {
        let ty = node.ty();
        if matches!(
            ty,
            NodeType::And
                | NodeType::Or
                | NodeType::Xor
                | NodeType::Add
                | NodeType::Mul
                | NodeType::Eq
        ) {
            // Every commutative type has two slots; order them without a
            // sort call.
            if len == 2 {
                let (a, b) = (ps[0], ps[1]);
                ps[0] = a.min(b);
                ps[1] = a.max(b);
            } else {
                ps[..len].sort_unstable();
            }
        }
        CseKey {
            ty,
            width: node.width(),
            aux: node.aux(),
            ps,
            len: len as u8,
        }
    }

    /// Three words mixed by multiply-rotate steps. Which node CSE keeps
    /// is decided by index order, never by the hash, so the hash only
    /// sets the speed. It does not resist crafted collisions: such a
    /// netlist would slow CSE down without changing its result.
    #[inline]
    fn hash(&self) -> u64 {
        const K: u64 = 0xF135_7AEA_2E62_A9C5;
        let words = [
            self.ty as u64 | u64::from(self.width) << 8 | u64::from(self.len) << 40,
            self.aux,
            self.ps[0] as u64
                ^ (self.ps[1] as u64).rotate_left(21)
                ^ (self.ps[2] as u64).rotate_left(42),
        ];
        words
            .iter()
            .fold(0u64, |h, &w| (h.rotate_left(5) ^ w).wrapping_mul(K))
    }
}

/// One slot of the CSE table: live in the current pass iff its `tag`
/// is the table's.
#[derive(Clone, Copy, Debug)]
struct CseSlot {
    tag: u32,
    node: usize,
    key: CseKey,
}

/// The CSE table: open-addressed with linear probing, cleared between
/// passes by bumping a tag rather than by touching its slots. A pass
/// over `n` nodes probes the first `2n` slots or more (a power of two,
/// at least 16), so the table is at most half full and a large table
/// left by a large netlist costs a small one nothing.
#[derive(Debug, Default)]
pub(crate) struct CseTable {
    slots: Vec<CseSlot>,
    tag: u32,
    /// Index mask of the slots the current pass probes.
    mask: usize,
}

impl CseTable {
    const VACANT: CseSlot = CseSlot {
        tag: 0,
        node: 0,
        key: CseKey {
            ty: NodeType::Input,
            width: 0,
            aux: 0,
            ps: [usize::MAX; 3],
            len: 0,
        },
    };

    /// Empties the table for a pass over `n` nodes.
    pub(crate) fn begin(&mut self, n: usize) {
        let slots = (2 * n).next_power_of_two().max(16);
        if self.slots.len() < slots {
            self.slots.resize(slots, Self::VACANT);
        }
        self.mask = slots - 1;
        self.tag = self.tag.wrapping_add(1);
        if self.tag == 0 {
            for slot in &mut self.slots {
                slot.tag = 0;
            }
            self.tag = 1;
        }
    }

    /// The node stored under `key` in this pass, storing `u` if none is.
    #[inline]
    pub(crate) fn first_or_insert(&mut self, key: CseKey, u: usize) -> usize {
        let mut i = key.hash().rotate_left(26) as usize & self.mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.tag != self.tag {
                *slot = CseSlot {
                    tag: self.tag,
                    node: u,
                    key,
                };
                return u;
            }
            if slot.key == key {
                return slot.node;
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// The CSE key of node `u`: its attributes and its parents resolved
/// through `repl`.
fn cse_key(nodes: &[Node], parents: &[Slots], repl: &[Option<usize>], u: usize) -> CseKey {
    let len = parents[u].len();
    let mut ps = [usize::MAX; 3];
    for (slot, p) in ps.iter_mut().enumerate().take(len) {
        *p = resolve(repl, parents[u].p[slot]);
    }
    CseKey::new(nodes[u], ps, len)
}

/// Common-subexpression elimination. Inputs and outputs never merge;
/// constants, combinational nodes and registers with identical
/// (type, width, aux, parents) do, onto the first such node in index
/// order. Commutative operators sort their parent pair before keying.
/// The flat, tag-cleared table is scratch reused across rounds and runs.
fn cse(nodes: &[Node], parents: &[Slots], repl: &mut [Option<usize>], seen: &mut CseTable) -> bool {
    seen.begin(nodes.len());
    let mut changed = false;
    for u in 0..nodes.len() {
        if repl[u].is_some() || matches!(nodes[u].ty(), NodeType::Input | NodeType::Output) {
            continue;
        }
        let canon = seen.first_or_insert(cse_key(nodes, parents, repl, u), u);
        if canon != u {
            repl[u] = Some(canon);
            changed = true;
        }
    }
    changed
}

/// Dead-code elimination + compaction of a synthesized scratch into a
/// fresh graph.
fn compact(original: &CircuitGraph, s: &SynthScratch) -> SynthResult {
    let n = s.nodes.len();
    let mut netlist = CircuitGraph::new(original.name());
    let mut old_to_new: Vec<Option<NodeId>> = vec![None; n];
    for (u, new) in old_to_new.iter_mut().enumerate() {
        if s.survives(u) {
            *new = Some(netlist.push_node(s.nodes[u]));
        }
    }
    let mut buf = [NodeId::new(0); 3];
    for u in 0..n {
        let Some(new_id) = old_to_new[u] else {
            continue;
        };
        let k = s.parents[u].len();
        for (slot, &p) in s.parents[u].as_slice().iter().enumerate() {
            buf[slot] = old_to_new[resolve(&s.repl, p)].expect("live node's parent must be live");
        }
        netlist.set_parents_unchecked(new_id, &buf[..k]);
    }

    let mut reg_map = HashMap::new();
    for (id, node) in original.iter() {
        if node.ty().is_register() {
            let r = resolve(&s.repl, id.index());
            if let Some(new_id) = old_to_new[r] {
                if netlist.ty(new_id).is_register() {
                    reg_map.insert(id, new_id);
                }
            }
        }
    }

    let stats = SynthStats {
        nodes_before: original.node_count(),
        nodes_after: netlist.node_count(),
        area_before: area_of_graph(original),
        area_after: area_of_graph(&netlist),
        seq_bits_before: original.register_bits(),
        seq_bits_after: netlist.register_bits(),
        gates_before: gate_count(original),
        gates_after: gate_count(&netlist),
    };
    SynthResult {
        netlist,
        stats,
        reg_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// CSE on a `HashMap`: the reference the flat table must match.
    fn cse_reference(nodes: &[Node], parents: &[Slots], repl: &mut [Option<usize>]) -> bool {
        use std::collections::hash_map::Entry;
        let mut seen: HashMap<CseKey, usize> = HashMap::new();
        let mut changed = false;
        for u in 0..nodes.len() {
            if repl[u].is_some() || matches!(nodes[u].ty(), NodeType::Input | NodeType::Output) {
                continue;
            }
            match seen.entry(cse_key(nodes, parents, repl, u)) {
                Entry::Occupied(e) => {
                    let canon = *e.get();
                    if canon != u {
                        repl[u] = Some(canon);
                        changed = true;
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(u);
                }
            }
        }
        changed
    }

    /// Runs the fold/CSE fixpoint of [`SynthScratch::run`] on the loaded
    /// netlist, checking after every CSE pass that the flat table left
    /// exactly the `repl` and change flag the reference does. Returns
    /// the number of nodes CSE merged.
    fn check_cse_passes(s: &mut SynthScratch) -> usize {
        let n = s.nodes.len();
        s.repl.clear();
        s.repl.resize(n, None);
        let mut rounds = 0;
        let mut merged = 0;
        loop {
            let mut changed = fold_and_simplify(&mut s.nodes, &mut s.parents, &mut s.repl);
            let before = s.repl.iter().filter(|r| r.is_some()).count();
            let mut want = s.repl.clone();
            let want_changed = cse_reference(&s.nodes, &s.parents, &mut want);
            let got_changed = cse(&s.nodes, &s.parents, &mut s.repl, &mut s.cse);
            assert_eq!(s.repl, want, "{n} nodes, pass {rounds}");
            assert_eq!(got_changed, want_changed, "{n} nodes, pass {rounds}");
            merged += s.repl.iter().filter(|r| r.is_some()).count() - before;
            changed |= got_changed;
            rounds += 1;
            if !changed || rounds > n + 4 {
                return merged;
            }
        }
    }

    /// Loads a random valid netlist of exactly `n` nodes, 1 or 2 bits
    /// wide so that CSE finds many equal nodes: inputs and constants
    /// first, then registers (reading any non-output node) and
    /// combinational nodes (reading earlier non-output nodes), then
    /// outputs.
    fn random_netlist(rng: &mut StdRng, n: usize, s: &mut SynthScratch) {
        const OPS: [NodeType; 14] = [
            NodeType::Not,
            NodeType::BitSelect,
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
        ];
        let leaves = (1 + n / 8).min(n);
        let outputs = if n > leaves {
            (n / 10).clamp(1, n - leaves)
        } else {
            0
        };
        let body = n - outputs;
        s.clear();
        for u in 0..n {
            let w = rng.gen_range(1..=2);
            if u < leaves {
                let leaf = if rng.gen_bool(0.5) {
                    Node::new(NodeType::Input, w)
                } else {
                    Node::with_aux(NodeType::Const, w, rng.gen_range(0..4))
                };
                s.push(leaf, []);
            } else if u >= body {
                s.push(Node::new(NodeType::Output, w), [rng.gen_range(0..body)]);
            } else if rng.gen_bool(0.2) {
                s.push(Node::new(NodeType::Reg, w), [rng.gen_range(0..body)]);
            } else {
                let ty = OPS[rng.gen_range(0..OPS.len())];
                let aux = if ty == NodeType::BitSelect {
                    rng.gen_range(0..2)
                } else {
                    0
                };
                let parents: Vec<usize> = (0..ty.arity()).map(|_| rng.gen_range(0..u)).collect();
                s.push(Node::with_aux(ty, w, aux), parents);
            }
        }
    }

    #[test]
    fn flat_cse_matches_hashmap_cse_after_every_pass() {
        let mut rng = StdRng::seed_from_u64(0xC5E);
        let mut s = SynthScratch::default();
        let mut merged = 0;
        for n in 1..=200 {
            for _ in 0..3 {
                random_netlist(&mut rng, n, &mut s);
                merged += check_cse_passes(&mut s);
            }
        }
        assert!(
            merged > 1000,
            "the netlists must give CSE work: {merged} merges"
        );
        // A large table left behind serves small netlists.
        random_netlist(&mut rng, 2000, &mut s);
        check_cse_passes(&mut s);
        assert!(s.cse.slots.len() >= 4096);
        for n in 1..=40 {
            random_netlist(&mut rng, n, &mut s);
            check_cse_passes(&mut s);
        }
        // The tag wraps to zero mid-run: every slot is cleared, none of
        // the stale ones may read as live.
        for start in [u32::MAX - 2, u32::MAX - 1, u32::MAX] {
            s.cse.tag = start;
            for n in [30, 7, 120, 3] {
                random_netlist(&mut rng, n, &mut s);
                check_cse_passes(&mut s);
            }
            assert!(s.cse.tag < 16, "the tag wrapped");
        }
    }

    #[test]
    fn dead_register_swept() {
        let mut g = CircuitGraph::new("dead");
        let i = g.add_node(NodeType::Input, 8);
        let r = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(r, &[i]).unwrap();
        g.set_parents(o, &[i]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.stats.seq_bits_after, 0);
        assert!(!res.reg_map.contains_key(&r));
        assert!(res.netlist.is_valid());
    }

    #[test]
    fn live_register_survives_and_maps() {
        let mut g = CircuitGraph::new("live");
        let i = g.add_node(NodeType::Input, 8);
        let r = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(r, &[i]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.stats.seq_bits_after, 8);
        let mapped = res.reg_map[&r];
        assert!(res.netlist.ty(mapped).is_register());
    }

    #[test]
    fn sequential_constant_folds() {
        // reg fed by const, output = reg + input
        let mut g = CircuitGraph::new("seqconst");
        let c = g.add_const(8, 5);
        let r = g.add_node(NodeType::Reg, 8);
        let i = g.add_node(NodeType::Input, 8);
        let s = g.add_node(NodeType::Add, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(r, &[c]).unwrap();
        g.set_parents(s, &[r, i]).unwrap();
        g.set_parents(o, &[s]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.stats.seq_bits_after, 0, "constant register swept");
        assert!(!res.reg_map.contains_key(&r));
    }

    #[test]
    fn full_constant_cone_folds_to_const() {
        let mut g = CircuitGraph::new("fold");
        let a = g.add_const(8, 3);
        let b = g.add_const(8, 4);
        let s = g.add_node(NodeType::Add, 8);
        let m = g.add_node(NodeType::Mul, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(s, &[a, b]).unwrap();
        g.set_parents(m, &[s, s]).unwrap();
        g.set_parents(o, &[m]).unwrap();
        let res = optimize(&g);
        // netlist: const 49 → output
        assert_eq!(res.netlist.count_of_type(NodeType::Const), 1);
        let c = res.netlist.nodes_of_type(NodeType::Const)[0];
        assert_eq!(res.netlist.node(c).aux(), 49);
        assert_eq!(res.netlist.node_count(), 2);
    }

    #[test]
    fn cse_merges_duplicate_logic() {
        let mut g = CircuitGraph::new("cse");
        let a = g.add_node(NodeType::Input, 8);
        let b = g.add_node(NodeType::Input, 8);
        let s1 = g.add_node(NodeType::Add, 8);
        let s2 = g.add_node(NodeType::Add, 8); // same as s1 (commuted)
        let x = g.add_node(NodeType::Xor, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(s1, &[a, b]).unwrap();
        g.set_parents(s2, &[b, a]).unwrap();
        g.set_parents(x, &[s1, s2]).unwrap();
        g.set_parents(o, &[x]).unwrap();
        let res = optimize(&g);
        // xor(s,s) → 0, so everything folds to a constant output
        let consts = res.netlist.nodes_of_type(NodeType::Const);
        assert_eq!(consts.len(), 1);
        assert_eq!(res.netlist.node(consts[0]).aux(), 0);
    }

    #[test]
    fn register_merging() {
        let mut g = CircuitGraph::new("regmerge");
        let i = g.add_node(NodeType::Input, 4);
        let r1 = g.add_node(NodeType::Reg, 4);
        let r2 = g.add_node(NodeType::Reg, 4);
        let s = g.add_node(NodeType::Add, 4);
        let o = g.add_node(NodeType::Output, 4);
        g.set_parents(r1, &[i]).unwrap();
        g.set_parents(r2, &[i]).unwrap();
        g.set_parents(s, &[r1, r2]).unwrap();
        g.set_parents(o, &[s]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.stats.seq_bits_after, 4, "duplicate registers merged");
        assert_eq!(res.reg_map[&r1], res.reg_map[&r2]);
    }

    #[test]
    fn mux_same_branches_simplifies() {
        let mut g = CircuitGraph::new("mux");
        let s = g.add_node(NodeType::Input, 1);
        let a = g.add_node(NodeType::Input, 8);
        let m = g.add_node(NodeType::Mux, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(m, &[s, a, a]).unwrap();
        g.set_parents(o, &[m]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.netlist.count_of_type(NodeType::Mux), 0);
    }

    #[test]
    fn and_with_zero_folds() {
        let mut g = CircuitGraph::new("and0");
        let a = g.add_node(NodeType::Input, 8);
        let z = g.add_const(8, 0);
        let and = g.add_node(NodeType::And, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(and, &[a, z]).unwrap();
        g.set_parents(o, &[and]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.netlist.count_of_type(NodeType::And), 0);
    }

    #[test]
    fn width_mismatched_identity_not_applied() {
        // add(16-bit x, 0) where the add is 8-bit: replacing by x would
        // expose x's high bits; the pass must keep the add or mask
        // correctly. We verify semantics rather than structure.
        let mut g = CircuitGraph::new("wm");
        let x = g.add_node(NodeType::Input, 16);
        let z = g.add_const(8, 0);
        let add = g.add_node(NodeType::Add, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(add, &[x, z]).unwrap();
        g.set_parents(o, &[add]).unwrap();
        let res = optimize(&g);
        // The add must survive (width barrier).
        assert_eq!(res.netlist.count_of_type(NodeType::Add), 1);
    }

    #[test]
    fn feedback_counter_fully_survives() {
        let mut g = CircuitGraph::new("ctr");
        let one = g.add_const(8, 1);
        let r = g.add_node(NodeType::Reg, 8);
        let s = g.add_node(NodeType::Add, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(s, &[r, one]).unwrap();
        g.set_parents(r, &[s]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        let res = optimize(&g);
        assert_eq!(res.stats.seq_bits_after, 8);
        assert_eq!(res.stats.nodes_after, 4);
        assert!((crate::scpr(&res) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn optimized_pcs_is_bit_identical_to_full_pipeline() {
        use rand::{rngs::StdRng, SeedableRng};
        use syncircuit_graph::testing::random_circuit_with_size;
        let mut rng = StdRng::seed_from_u64(11);
        for n in [5usize, 12, 25, 40, 60] {
            let g = random_circuit_with_size(&mut rng, n);
            let full = crate::pcs(&optimize(&g));
            let fast = optimized_pcs(&g);
            assert_eq!(
                full.to_bits(),
                fast.to_bits(),
                "optimized_pcs must match the materializing pipeline on {n} nodes"
            );
        }
        assert_eq!(optimized_pcs(&CircuitGraph::new("empty")), 0.0);
    }

    #[test]
    fn stats_monotonicity() {
        let mut g = CircuitGraph::new("mono");
        let i = g.add_node(NodeType::Input, 8);
        let n1 = g.add_node(NodeType::Not, 8);
        let n2 = g.add_node(NodeType::Not, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(n1, &[i]).unwrap();
        g.set_parents(n2, &[n1]).unwrap();
        g.set_parents(o, &[n2]).unwrap();
        let res = optimize(&g);
        assert!(res.stats.nodes_after <= res.stats.nodes_before);
        assert!(res.stats.area_after <= res.stats.area_before);
        // ~~x → x: both NOTs vanish
        assert_eq!(res.netlist.count_of_type(NodeType::Not), 0);
    }
}
