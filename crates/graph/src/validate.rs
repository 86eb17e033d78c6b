//! Whole-graph validation against the paper's circuit constraints `C`.

use crate::circuit::CircuitGraph;
use crate::comb;
use crate::error::ValidateError;
use crate::node::{Node, NodeId, NodeType};

impl CircuitGraph {
    /// Checks the paper's circuit constraints `C` (§II):
    ///
    /// 1. every node has exactly the number of parents its type requires;
    /// 2. no combinational loop exists;
    ///
    /// plus the structural port rule that output nodes drive nothing.
    ///
    /// # Errors
    ///
    /// Returns every violation found (arity errors for all nodes, at most
    /// one representative combinational loop, and all offending outputs).
    pub fn validate(&self) -> Result<(), Vec<ValidateError>> {
        let mut errors = Vec::new();
        for (id, node) in self.iter() {
            let expected = node.ty().arity();
            let got = self.parents(id).len();
            if got != expected {
                errors.push(ValidateError::BadArity {
                    node: id,
                    ty: node.ty(),
                    expected,
                    got,
                });
            }
        }
        let children = self.children_index();
        for (id, node) in self.iter() {
            if node.ty().is_sink() && !children[id.index()].is_empty() {
                errors.push(ValidateError::SinkHasChildren { node: id });
            }
        }
        if let Some(cycle) = comb::find_comb_loop(self) {
            errors.push(ValidateError::CombLoop { cycle });
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// `true` when [`CircuitGraph::validate`] succeeds.
    pub fn is_valid(&self) -> bool {
        self.validate().is_ok()
    }

    /// Rewrites out-of-range bit-selects so every select reads inside
    /// its parent (the precondition of HDL emission): the select width
    /// shrinks to the parent's width when the parent is narrower
    /// (Verilog's implicit zero-extension on assignment), and the offset
    /// is clamped. A select without a parent is left alone.
    ///
    /// Runs to a fixpoint: shrinking one bit-select can push a
    /// downstream bit-select out of range (chains of selects), so passes
    /// repeat until nothing changes.
    pub fn legalize_bit_selects(&mut self) {
        loop {
            let fixes: Vec<(NodeId, Node)> = self
                .iter()
                .filter(|(_, n)| n.ty() == NodeType::BitSelect)
                .filter_map(|(id, n)| {
                    let parent = *self.parents(id).first()?;
                    let pw = self.node(parent).width();
                    let w = n.width().min(pw);
                    let off = (n.aux() as u32).min(pw - w);
                    (w != n.width() || off as u64 != n.aux())
                        .then(|| (id, Node::with_aux(NodeType::BitSelect, w, off as u64)))
                })
                .collect();
            if fixes.is_empty() {
                return;
            }
            for (id, node) in fixes {
                self.replace_node(id, node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_counter() {
        let mut g = CircuitGraph::new("ctr");
        let one = g.add_const(8, 1);
        let r = g.add_node(NodeType::Reg, 8);
        let s = g.add_node(NodeType::Add, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(s, &[r, one]).unwrap();
        g.set_parents(r, &[s]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        assert!(g.is_valid());
    }

    #[test]
    fn reports_all_arity_errors() {
        let mut g = CircuitGraph::new("bad");
        g.add_node(NodeType::Add, 8); // 0 of 2 parents
        g.add_node(NodeType::Mux, 8); // 0 of 3 parents
        let errs = g.validate().unwrap_err();
        let arity = errs
            .iter()
            .filter(|e| matches!(e, ValidateError::BadArity { .. }))
            .count();
        assert_eq!(arity, 2);
    }

    #[test]
    fn reports_comb_loop() {
        let mut g = CircuitGraph::new("loop");
        let a = g.add_node(NodeType::Not, 1);
        let b = g.add_node(NodeType::Not, 1);
        g.set_parents(a, &[b]).unwrap();
        g.set_parents(b, &[a]).unwrap();
        let errs = g.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::CombLoop { .. })));
    }

    #[test]
    fn reports_output_with_children() {
        let mut g = CircuitGraph::new("sink");
        let i = g.add_node(NodeType::Input, 1);
        let o = g.add_node(NodeType::Output, 1);
        let n = g.add_node(NodeType::Not, 1);
        g.set_parents(o, &[i]).unwrap();
        g.set_parents(n, &[o]).unwrap();
        let errs = g.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::SinkHasChildren { .. })));
    }

    #[test]
    fn source_with_parents_is_arity_error() {
        let mut g = CircuitGraph::new("src");
        let i = g.add_node(NodeType::Input, 1);
        let c = g.add_node(NodeType::Const, 1);
        g.add_edge(c, i).unwrap(); // unchecked edge into an input
        let errs = g.validate().unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidateError::BadArity {
                expected: 0,
                got: 1,
                ..
            }
        )));
    }
}
