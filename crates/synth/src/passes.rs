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
//! and the CSE table. [`optimize_with`] and [`optimized_area`] load it
//! from a [`CircuitGraph`]; the cone cache's miss path
//! ([`crate::incremental`]) pushes a cone straight from its host graph,
//! with no standalone cone circuit in between. Each thread keeps one
//! scratch whose buffers keep their capacity between runs, so a warm
//! synthesis allocates nothing.
//!
//! # Sequential constant propagation
//!
//! A register whose D input is tied to a constant is replaced by that
//! constant. This assumes the register initializes to its tied value
//! (one reachable state), matching how synthesis sweeps constant
//! registers; it makes the optimized circuit equivalent to the original
//! only *after* an initialization transient, which the semantics
//! property tests account for.

use crate::area::{area_of_graph, gate_count, CellLibrary};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
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

/// Runs the full optimization pipeline with the default cell library.
///
/// # Panics
///
/// Debug-asserts that the input graph is valid (correct arities, no
/// combinational loops); optimizing an invalid graph is unspecified.
pub fn optimize(g: &CircuitGraph) -> SynthResult {
    optimize_with(g, &CellLibrary::default())
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
/// Load a netlist with [`clear`](SynthScratch::clear) and
/// [`push`](SynthScratch::push) (or from a graph), then run the core
/// once with [`area`](SynthScratch::area) or through [`optimize_with`].
/// Parents are netlist indices and may point forward, as graph parents
/// may; the loaded netlist must be a valid circuit (correct arities, no
/// combinational loops).
#[derive(Debug, Default)]
pub(crate) struct SynthScratch {
    nodes: Vec<Node>,
    parents: Vec<Slots>,
    repl: Vec<Option<usize>>,
    live: Vec<bool>,
    stack: Vec<usize>,
    cse: CseMap,
}

thread_local! {
    static SCRATCH: RefCell<SynthScratch> = RefCell::new(SynthScratch::default());
}

/// Runs `f` on this thread's synthesis scratch. `f` must not synthesize
/// again itself: the scratch is borrowed for the whole call.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut SynthScratch) -> R) -> R {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

impl SynthScratch {
    /// Empties the netlist, keeping every buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.parents.clear();
    }

    /// Appends `node`, wired to the netlist nodes `parents` (at most
    /// three, in slot order).
    pub(crate) fn push(&mut self, node: Node, parents: impl IntoIterator<Item = usize>) {
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
    pub(crate) fn area(&mut self, lib: &CellLibrary) -> f64 {
        self.run();
        let mut area = 0.0;
        for u in 0..self.nodes.len() {
            if self.survives(u) {
                area += lib.node_area(&self.nodes[u]);
            }
        }
        area
    }

    /// The loaded netlist's node `u` and its parents' indices.
    #[cfg(test)]
    pub(crate) fn node(&self, u: usize) -> (Node, &[usize]) {
        (self.nodes[u], self.parents[u].as_slice())
    }

    /// Number of nodes loaded.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// Runs the full optimization pipeline with an explicit cell library.
pub fn optimize_with(g: &CircuitGraph, lib: &CellLibrary) -> SynthResult {
    with_scratch(|s| {
        s.load(g);
        s.run();
        compact(g, s, lib)
    })
}

/// Post-synthesis circuit size of `g` without materializing the
/// compacted netlist: runs the same fixpoint and liveness, then sums
/// cell areas of the surviving nodes directly. Bit-identical to
/// `crate::pcs(&optimize_with(g, lib))` (same nodes, same summation
/// order), but skips netlist construction, the register map, and the
/// before-side statistics — the Phase-3 reward hot path.
pub fn pcs_with(g: &CircuitGraph, lib: &CellLibrary) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    optimized_area(g, lib) / n as f64
}

/// Post-synthesis cell area of `g` without materializing the netlist;
/// bit-identical to `optimize_with(g, lib).stats.area_after`.
pub fn optimized_area(g: &CircuitGraph, lib: &CellLibrary) -> f64 {
    with_scratch(|s| {
        s.load(g);
        s.area(lib)
    })
}

fn resolve(repl: &[Option<usize>], mut u: usize) -> usize {
    let mut hops = 0;
    while let Some(v) = repl[u] {
        u = v;
        hops += 1;
        debug_assert!(hops <= repl.len(), "replacement cycle (invalid input graph?)");
        if hops > repl.len() {
            break;
        }
    }
    u
}

fn is_const(nodes: &[Node], u: usize) -> Option<u64> {
    (nodes[u].ty() == NodeType::Const).then(|| nodes[u].aux())
}

fn fold_and_simplify(
    nodes: &mut [Node],
    parents: &mut [Slots],
    repl: &mut [Option<usize>],
) -> bool {
    let n = nodes.len();
    let mut changed = false;
    for u in 0..n {
        if repl[u].is_some() {
            continue;
        }
        let ty = nodes[u].ty();
        if matches!(ty, NodeType::Input | NodeType::Const | NodeType::Output) {
            continue;
        }
        // Resolve parents through the replacement map, in place (arity
        // is at most 3, so a stack buffer avoids per-node allocations).
        let arity = parents[u].len();
        let mut ps_buf = [0usize; 3];
        for (slot, p) in ps_buf.iter_mut().enumerate().take(arity) {
            let r = resolve(repl, parents[u].p[slot]);
            parents[u].p[slot] = r;
            *p = r;
        }
        let ps = &ps_buf[..arity];
        let w = nodes[u].width();
        let same_width = |v: usize, nodes: &[Node]| nodes[v].width() == w;

        // Registers: sequential constant propagation.
        if ty == NodeType::Reg {
            if let Some(v) = is_const(nodes, ps[0]) {
                nodes[u] = Node::with_aux(NodeType::Const, w, v & mask(w));
                parents[u].clear();
                changed = true;
            }
            continue;
        }

        // Full constant folding.
        let mut const_buf = [None; 3];
        for (slot, v) in const_buf.iter_mut().enumerate().take(arity) {
            *v = is_const(nodes, ps[slot]);
        }
        let const_vals = &const_buf[..arity];
        if !ps.is_empty() && const_vals.iter().all(Option::is_some) {
            let aux = if ty == NodeType::Concat {
                nodes[ps[1]].width() as u64
            } else {
                nodes[u].aux()
            };
            let v = eval_op(ty, aux, |k| const_vals[k].unwrap_or(0)) & mask(w);
            nodes[u] = Node::with_aux(NodeType::Const, w, v);
            parents[u].clear();
            changed = true;
            continue;
        }

        // Width-preserving algebraic identities.
        let mut replace_with: Option<usize> = None;
        let mut rewrite_const: Option<u64> = None;
        match ty {
            NodeType::And => {
                if ps[0] == ps[1] && same_width(ps[0], nodes) {
                    replace_with = Some(ps[0]);
                } else if const_vals.iter().flatten().any(|&v| v & mask(w) == 0) {
                    rewrite_const = Some(0);
                } else if let Some(k) = all_ones_side(const_vals, w) {
                    let other = ps[1 - k];
                    if same_width(other, nodes) {
                        replace_with = Some(other);
                    }
                }
            }
            NodeType::Or => {
                if ps[0] == ps[1] && same_width(ps[0], nodes) {
                    replace_with = Some(ps[0]);
                } else if let Some(k) = zero_side(const_vals) {
                    let other = ps[1 - k];
                    if same_width(other, nodes) {
                        replace_with = Some(other);
                    }
                } else if all_ones_side(const_vals, w).is_some() {
                    rewrite_const = Some(mask(w));
                }
            }
            NodeType::Xor => {
                if ps[0] == ps[1] {
                    rewrite_const = Some(0);
                } else if let Some(k) = zero_side(const_vals) {
                    let other = ps[1 - k];
                    if same_width(other, nodes) {
                        replace_with = Some(other);
                    }
                }
            }
            NodeType::Add => {
                if let Some(k) = zero_side(const_vals) {
                    let other = ps[1 - k];
                    if same_width(other, nodes) {
                        replace_with = Some(other);
                    }
                }
            }
            NodeType::Sub => {
                if ps[0] == ps[1] {
                    rewrite_const = Some(0);
                } else if const_vals[1] == Some(0) && same_width(ps[0], nodes) {
                    replace_with = Some(ps[0]);
                }
            }
            NodeType::Mul => {
                if const_vals.iter().flatten().any(|&v| v == 0) {
                    rewrite_const = Some(0);
                } else if let Some(k) = const_vals
                    .iter()
                    .position(|&v| v == Some(1))
                {
                    let other = ps[1 - k];
                    if same_width(other, nodes) {
                        replace_with = Some(other);
                    }
                }
            }
            NodeType::Eq
                if ps[0] == ps[1] => {
                    rewrite_const = Some(1);
                }
            NodeType::Lt
                if ps[0] == ps[1] => {
                    rewrite_const = Some(0);
                }
            NodeType::Shl | NodeType::Shr
                if const_vals[1] == Some(0) && same_width(ps[0], nodes) => {
                    replace_with = Some(ps[0]);
                }
            NodeType::Mux => {
                if let Some(sel) = is_const(nodes, ps[0]) {
                    let chosen = if sel != 0 { ps[1] } else { ps[2] };
                    if same_width(chosen, nodes) {
                        replace_with = Some(chosen);
                    }
                } else if ps[1] == ps[2] && same_width(ps[1], nodes) {
                    replace_with = Some(ps[1]);
                }
            }
            NodeType::Not => {
                // ~~x → x (all widths equal)
                let inner = ps[0];
                if nodes[inner].ty() == NodeType::Not
                    && repl[inner].is_none()
                    && same_width(inner, nodes)
                {
                    let x = resolve(repl, parents[inner].p[0]);
                    if same_width(x, nodes) && x != u {
                        replace_with = Some(x);
                    }
                }
            }
            NodeType::BitSelect
                if nodes[u].aux() == 0 && same_width(ps[0], nodes) => {
                    replace_with = Some(ps[0]);
                }
            _ => {}
        }

        if let Some(v) = rewrite_const {
            nodes[u] = Node::with_aux(NodeType::Const, w, v & mask(w));
            parents[u].clear();
            changed = true;
        } else if let Some(target) = replace_with {
            if target != u {
                repl[u] = Some(target);
                changed = true;
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CseKey {
    ty: NodeType,
    width: u32,
    aux: u64,
    ps: [usize; 3],
    len: u8,
}

impl Hash for CseKey {
    /// Three mixed words; equality still compares every field.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(
            self.ty.category() as u64 | u64::from(self.width) << 8 | u64::from(self.len) << 40,
        );
        state.write_u64(self.aux);
        state.write_u64(
            self.ps[0] as u64
                ^ (self.ps[1] as u64).rotate_left(21)
                ^ (self.ps[2] as u64).rotate_left(42),
        );
    }
}

/// Multiply-rotate hasher for [`CseKey`] words. Which node CSE keeps is
/// decided by index order, never by the hash, so the hasher only sets
/// the speed. It does not resist crafted collisions: such a netlist
/// would slow CSE down without changing its result.
#[derive(Clone, Copy, Debug, Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }

    /// The multiply mixes upwards; the rotate brings its well-mixed high
    /// bits down to the low bits the table indexes by.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type CseMap = HashMap<CseKey, usize, BuildHasherDefault<WordHasher>>;

/// Common-subexpression elimination. Inputs and outputs never merge;
/// constants, combinational nodes and registers with identical
/// (type, width, aux, parents) do, onto the first such node in index
/// order. Commutative operators sort their parent pair before keying.
/// The table is scratch reused across rounds and runs.
fn cse(nodes: &[Node], parents: &[Slots], repl: &mut [Option<usize>], seen: &mut CseMap) -> bool {
    seen.clear();
    let mut changed = false;
    for u in 0..nodes.len() {
        if repl[u].is_some() {
            continue;
        }
        let ty = nodes[u].ty();
        if matches!(ty, NodeType::Input | NodeType::Output) {
            continue;
        }
        let len = parents[u].len();
        let mut ps = [usize::MAX; 3];
        for (slot, p) in ps.iter_mut().enumerate().take(len) {
            *p = resolve(repl, parents[u].p[slot]);
        }
        if matches!(
            ty,
            NodeType::And | NodeType::Or | NodeType::Xor | NodeType::Add | NodeType::Mul | NodeType::Eq
        ) {
            ps[..len].sort_unstable();
        }
        let key = CseKey {
            ty,
            width: nodes[u].width(),
            aux: nodes[u].aux(),
            ps,
            len: len as u8,
        };
        match seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let canon = *e.get();
                if canon != u {
                    repl[u] = Some(canon);
                    changed = true;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(u);
            }
        }
    }
    changed
}

/// Dead-code elimination + compaction of a synthesized scratch into a
/// fresh graph.
fn compact(original: &CircuitGraph, s: &SynthScratch, lib: &CellLibrary) -> SynthResult {
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
        let Some(new_id) = old_to_new[u] else { continue };
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
        area_before: area_of_graph(original, lib),
        area_after: area_of_graph(&netlist, lib),
        seq_bits_before: original.register_bits(),
        seq_bits_after: netlist.register_bits(),
        gates_before: gate_count(original, lib),
        gates_after: gate_count(&netlist, lib),
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
    fn pcs_with_is_bit_identical_to_full_pipeline() {
        use rand::{rngs::StdRng, SeedableRng};
        use syncircuit_graph::testing::random_circuit_with_size;
        let lib = CellLibrary::default();
        let mut rng = StdRng::seed_from_u64(11);
        for n in [5usize, 12, 25, 40, 60] {
            let g = random_circuit_with_size(&mut rng, n);
            let full = crate::pcs(&optimize_with(&g, &lib));
            let fast = pcs_with(&g, &lib);
            assert_eq!(
                full.to_bits(),
                fast.to_bits(),
                "pcs_with must match the materializing pipeline on {n} nodes"
            );
        }
        assert_eq!(pcs_with(&CircuitGraph::new("empty"), &lib), 0.0);
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
