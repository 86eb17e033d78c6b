//! Ergonomic circuit-construction helpers shared by the design families.
//!
//! The helpers build the idioms real RTL is made of — enabled registers
//! (mux feedback), counters, mux trees, reduction trees, pipelines — so
//! the family generators read like structural RTL.

use syncircuit_graph::{CircuitGraph, NodeId, NodeType};

/// A thin wrapper over [`CircuitGraph`] with RTL-idiom helpers.
#[derive(Debug)]
pub struct Builder {
    g: CircuitGraph,
}

impl Builder {
    /// Starts a new design.
    pub fn new(name: impl Into<String>) -> Self {
        Builder {
            g: CircuitGraph::new(name),
        }
    }

    /// Finishes and returns the graph.
    ///
    /// # Panics
    ///
    /// Panics if the built circuit violates the circuit constraints —
    /// family generators are supposed to produce valid designs.
    pub fn finish(self) -> CircuitGraph {
        if let Err(errs) = self.g.validate() {
            panic!(
                "design generator produced an invalid circuit `{}`: {:?}",
                self.g.name(),
                errs
            );
        }
        self.g
    }

    /// Adds a primary input.
    pub fn input(&mut self, width: u32) -> NodeId {
        self.g.add_node(NodeType::Input, width)
    }

    /// Adds a constant.
    pub fn constant(&mut self, width: u32, value: u64) -> NodeId {
        self.g.add_const(width, value)
    }

    /// Adds a primary output driven by `src`.
    pub fn output(&mut self, src: NodeId) -> NodeId {
        let w = self.g.node(src).width();
        let o = self.g.add_node(NodeType::Output, w);
        self.g.set_parents_unchecked(o, &[src]);
        o
    }

    /// Adds a register driven by `next`.
    pub fn reg(&mut self, next: NodeId) -> NodeId {
        let w = self.g.node(next).width();
        let r = self.g.add_node(NodeType::Reg, w);
        self.g.set_parents_unchecked(r, &[next]);
        r
    }

    /// Declares a register whose driver is wired later via
    /// [`Builder::drive_reg`] (for feedback loops).
    pub fn reg_placeholder(&mut self, width: u32) -> NodeId {
        self.g.add_node(NodeType::Reg, width)
    }

    /// Connects a placeholder register to its D input.
    pub fn drive_reg(&mut self, reg: NodeId, next: NodeId) {
        debug_assert!(self.g.ty(reg).is_register());
        self.g.set_parents_unchecked(reg, &[next]);
    }

    /// Binary operator node.
    pub fn op2(&mut self, ty: NodeType, width: u32, a: NodeId, b: NodeId) -> NodeId {
        debug_assert_eq!(ty.arity(), 2);
        let n = self.g.add_node(ty, width);
        self.g.set_parents_unchecked(n, &[a, b]);
        n
    }

    /// Unary NOT.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        let w = self.g.node(a).width();
        let n = self.g.add_node(NodeType::Not, w);
        self.g.set_parents_unchecked(n, &[a]);
        n
    }

    /// 2:1 mux: `sel ? a : b`.
    pub fn mux(&mut self, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
        let w = self.g.node(a).width();
        let n = self.g.add_node(NodeType::Mux, w);
        self.g.set_parents_unchecked(n, &[sel, a, b]);
        n
    }

    /// Bit-select of `width` bits starting at `offset` (must be in range
    /// of `src`'s width).
    pub fn bits(&mut self, src: NodeId, offset: u32, width: u32) -> NodeId {
        let pw = self.g.node(src).width();
        debug_assert!(offset + width <= pw, "bit select out of range");
        let n = self.g.add_bit_select(width, offset);
        self.g.set_parents_unchecked(n, &[src]);
        n
    }

    /// Concatenation `{hi, lo}`.
    pub fn concat(&mut self, hi: NodeId, lo: NodeId) -> NodeId {
        let w = self.g.node(hi).width() + self.g.node(lo).width();
        let n = self.g.add_node(NodeType::Concat, w.min(64));
        self.g.set_parents_unchecked(n, &[hi, lo]);
        n
    }

    /// Enabled register: `r' = en ? next : r` (the classic mux-feedback
    /// idiom; creates a legal cycle through the register).
    pub fn reg_en(&mut self, en: NodeId, next: NodeId) -> NodeId {
        let w = self.g.node(next).width();
        let r = self.reg_placeholder(w);
        let m = self.mux(en, next, r);
        self.drive_reg(r, m);
        r
    }

    /// Free-running counter of `width` bits stepping by `step`.
    pub fn counter(&mut self, width: u32, step: u64) -> NodeId {
        let one = self.constant(width, step);
        let r = self.reg_placeholder(width);
        let next = self.op2(NodeType::Add, width, r, one);
        self.drive_reg(r, next);
        r
    }

    /// Balanced binary mux tree selecting among `leaves` with the select
    /// bits in `sel_bits` (LSB first). Pads by repeating the last leaf.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty or `sel_bits` is shorter than the tree
    /// depth.
    pub fn mux_tree(&mut self, sel_bits: &[NodeId], leaves: &[NodeId]) -> NodeId {
        assert!(!leaves.is_empty(), "mux tree needs leaves");
        let mut level: Vec<NodeId> = leaves.to_vec();
        let mut bit = 0usize;
        while level.len() > 1 {
            assert!(bit < sel_bits.len(), "not enough select bits");
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.mux(sel_bits[bit], pair[1], pair[0]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
            bit += 1;
        }
        level[0]
    }

    /// Balanced reduction tree with the given operator (e.g. XOR parity).
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn reduce(&mut self, ty: NodeType, items: &[NodeId]) -> NodeId {
        assert!(!items.is_empty(), "reduce needs items");
        let mut level = items.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    let w = self
                        .g
                        .node(pair[0])
                        .width()
                        .max(self.g.node(pair[1]).width());
                    next.push(self.op2(ty, w, pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    /// A pipeline of `depth` registers fed by `src`; returns every stage.
    pub fn pipeline(&mut self, src: NodeId, depth: usize) -> Vec<NodeId> {
        let mut stages = Vec::with_capacity(depth);
        let mut cur = src;
        for _ in 0..depth {
            cur = self.reg(cur);
            stages.push(cur);
        }
        stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use syncircuit_graph::interp::Simulator;

    #[test]
    fn counter_builder_counts() {
        let mut b = Builder::new("c");
        let c = b.counter(8, 1);
        b.output(c);
        let g = b.finish();
        let mut sim = Simulator::new(&g).unwrap();
        let empty = HashMap::new();
        let seq: Vec<u64> = (0..4).map(|_| sim.step(&empty)[0]).collect();
        assert_eq!(seq, vec![0, 1, 2, 3]);
    }

    #[test]
    fn reg_en_holds_when_disabled() {
        let mut b = Builder::new("en");
        let en = b.input(1);
        let d = b.input(8);
        let r = b.reg_en(en, d);
        b.output(r);
        let g = b.finish();
        let mut sim = Simulator::new(&g).unwrap();
        let mut iv = HashMap::new();
        iv.insert(en, 1u64);
        iv.insert(d, 42u64);
        sim.step(&iv); // load 42
        iv.insert(en, 0u64);
        iv.insert(d, 7u64);
        let out = sim.step(&iv); // now reads 42; hold
        assert_eq!(out[0], 42);
        let out = sim.step(&iv); // still 42
        assert_eq!(out[0], 42);
    }

    #[test]
    fn mux_tree_selects_correct_leaf() {
        let mut b = Builder::new("mt");
        let s0 = b.input(1);
        let s1 = b.input(1);
        let leaves: Vec<NodeId> = (0..4).map(|v| b.constant(8, 10 + v)).collect();
        let m = b.mux_tree(&[s0, s1], &leaves);
        b.output(m);
        let g = b.finish();
        let mut sim = Simulator::new(&g).unwrap();
        for idx in 0..4u64 {
            let mut iv = HashMap::new();
            iv.insert(s0, idx & 1);
            iv.insert(s1, (idx >> 1) & 1);
            assert_eq!(sim.eval(&iv), vec![10 + idx]);
        }
    }

    #[test]
    fn reduce_xor_is_parity() {
        let mut b = Builder::new("rx");
        let ins: Vec<NodeId> = (0..5).map(|_| b.input(1)).collect();
        let p = b.reduce(NodeType::Xor, &ins);
        b.output(p);
        let g = b.finish();
        let mut sim = Simulator::new(&g).unwrap();
        let mut iv = HashMap::new();
        for (k, &i) in ins.iter().enumerate() {
            iv.insert(i, (k as u64) & 1); // 0,1,0,1,0 → parity 0
        }
        assert_eq!(sim.eval(&iv), vec![0]);
        iv.insert(ins[0], 1);
        assert_eq!(sim.eval(&iv), vec![1]);
    }

    #[test]
    fn pipeline_delays_by_depth() {
        let mut b = Builder::new("pipe");
        let i = b.input(8);
        let stages = b.pipeline(i, 3);
        b.output(*stages.last().unwrap());
        let g = b.finish();
        let mut sim = Simulator::new(&g).unwrap();
        let mut iv = HashMap::new();
        iv.insert(i, 9u64);
        assert_eq!(sim.step(&iv)[0], 0);
        iv.insert(i, 0u64);
        assert_eq!(sim.step(&iv)[0], 0);
        assert_eq!(sim.step(&iv)[0], 0);
        assert_eq!(sim.step(&iv)[0], 9); // after 3 cycles
    }
}
