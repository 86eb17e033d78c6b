//! Verilog emission.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use syncircuit_graph::{CircuitGraph, NodeId, NodeType};

/// Error produced by [`emit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmitError {
    /// The graph fails validation; only valid graphs map to HDL.
    InvalidGraph {
        /// Rendered validation diagnostics.
        details: String,
    },
    /// A bit-select reads past its parent's width and cannot be printed
    /// as a legal Verilog part-select. Run
    /// [`CircuitGraph::legalize_bit_selects`] first.
    BitSelectOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Select offset.
        offset: u32,
        /// Select width.
        width: u32,
        /// Parent signal width.
        parent_width: u32,
    },
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::InvalidGraph { details } => {
                write!(f, "cannot emit invalid graph: {details}")
            }
            EmitError::BitSelectOutOfRange {
                node,
                offset,
                width,
                parent_width,
            } => write!(
                f,
                "bit-select {node} reads [{}:{}] of a {parent_width}-bit signal",
                offset + width - 1,
                offset
            ),
        }
    }
}

impl Error for EmitError {}

/// Prints a valid circuit graph as a Verilog-2001 module.
///
/// Every node becomes a signal named `n<id>`; inputs/outputs appear in the
/// port list after the implicit `clk`. Registers update in per-register
/// `always @(posedge clk)` blocks.
///
/// # Errors
///
/// Returns [`EmitError::InvalidGraph`] when the graph violates the
/// circuit constraints, and [`EmitError::BitSelectOutOfRange`] when a
/// bit-select cannot be printed as a legal part-select (fix with
/// [`CircuitGraph::legalize_bit_selects`]).
pub fn emit(g: &CircuitGraph) -> Result<String, EmitError> {
    if let Err(errs) = g.validate() {
        let details = errs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        return Err(EmitError::InvalidGraph { details });
    }
    for (id, node) in g.iter() {
        if node.ty() == NodeType::BitSelect {
            let pw = g.node(g.parents(id)[0]).width();
            let (off, w) = (node.aux() as u32, node.width());
            if off + w > pw {
                return Err(EmitError::BitSelectOutOfRange {
                    node: id,
                    offset: off,
                    width: w,
                    parent_width: pw,
                });
            }
        }
    }

    let mut out = String::new();
    let module_name = sanitize_name(g.name());
    let mut ports: Vec<String> = vec!["clk".to_string()];
    for (id, node) in g.iter() {
        match node.ty() {
            NodeType::Input | NodeType::Output => ports.push(format!("{id}")),
            _ => {}
        }
    }
    let _ = writeln!(out, "module {module_name} ({});", ports.join(", "));
    let _ = writeln!(out, "  input wire clk;");

    // Declarations in node-id order so the parser can rebuild ids.
    for (id, node) in g.iter() {
        let range = range_of(node.width());
        match node.ty() {
            NodeType::Input => {
                let _ = writeln!(out, "  input wire {range}{id};");
            }
            NodeType::Output => {
                let _ = writeln!(out, "  output wire {range}{id};");
            }
            NodeType::Const => {
                let _ = writeln!(
                    out,
                    "  wire {range}{id} = {}'d{};",
                    node.width(),
                    node.aux()
                );
            }
            NodeType::Reg => {
                let _ = writeln!(out, "  reg {range}{id};");
            }
            _ => {
                let _ = writeln!(out, "  wire {range}{id};");
            }
        }
    }

    // Combinational assignments and output drivers.
    for (id, node) in g.iter() {
        let ps = g.parents(id);
        let expr = match node.ty() {
            NodeType::Input | NodeType::Const | NodeType::Reg => continue,
            NodeType::Output => format!("{}", ps[0]),
            NodeType::Not => format!("~{}", ps[0]),
            NodeType::BitSelect => {
                let off = node.aux() as u32;
                let hi = off + node.width() - 1;
                if hi == off {
                    format!("{}[{off}]", ps[0])
                } else {
                    format!("{}[{hi}:{off}]", ps[0])
                }
            }
            NodeType::And => format!("{} & {}", ps[0], ps[1]),
            NodeType::Or => format!("{} | {}", ps[0], ps[1]),
            NodeType::Xor => format!("{} ^ {}", ps[0], ps[1]),
            NodeType::Add => format!("{} + {}", ps[0], ps[1]),
            NodeType::Sub => format!("{} - {}", ps[0], ps[1]),
            NodeType::Mul => format!("{} * {}", ps[0], ps[1]),
            NodeType::Eq => format!("{} == {}", ps[0], ps[1]),
            NodeType::Lt => format!("{} < {}", ps[0], ps[1]),
            NodeType::Shl => format!("{} << {}", ps[0], ps[1]),
            NodeType::Shr => format!("{} >> {}", ps[0], ps[1]),
            NodeType::Concat => format!("{{{}, {}}}", ps[0], ps[1]),
            NodeType::Mux => format!("{} ? {} : {}", ps[0], ps[1], ps[2]),
        };
        let _ = writeln!(out, "  assign {id} = {expr};");
    }

    // Sequential logic.
    for (id, node) in g.iter() {
        if node.ty() == NodeType::Reg {
            let _ = writeln!(out, "  always @(posedge clk) {id} <= {};", g.parents(id)[0]);
        }
    }

    let _ = writeln!(out, "endmodule");
    Ok(out)
}

fn range_of(width: u32) -> String {
    if width == 1 {
        String::new()
    } else {
        format!("[{}:0] ", width - 1)
    }
}

/// Replaces characters that are not legal in Verilog identifiers.
fn sanitize_name(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, 'm');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn counter() -> CircuitGraph {
        let mut g = CircuitGraph::new("counter");
        let one = g.add_const(8, 1);
        let r = g.add_node(NodeType::Reg, 8);
        let s = g.add_node(NodeType::Add, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(s, &[r, one]).unwrap();
        g.set_parents(r, &[s]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        g
    }

    #[test]
    fn emits_expected_structure() {
        let v = emit(&counter()).unwrap();
        assert!(v.starts_with("module counter (clk, n3);"));
        assert!(v.contains("wire [7:0] n0 = 8'd1;"));
        assert!(v.contains("reg [7:0] n1;"));
        assert!(v.contains("assign n2 = n1 + n0;"));
        assert!(v.contains("always @(posedge clk) n1 <= n2;"));
        assert!(v.contains("assign n3 = n1;"));
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn one_bit_signals_have_no_range() {
        let mut g = CircuitGraph::new("bit");
        let i = g.add_node(NodeType::Input, 1);
        let o = g.add_node(NodeType::Output, 1);
        g.set_parents(o, &[i]).unwrap();
        let v = emit(&g).unwrap();
        assert!(v.contains("input wire n0;"));
        assert!(!v.contains("[0:0]"));
    }

    #[test]
    fn invalid_graph_rejected() {
        let mut g = CircuitGraph::new("bad");
        g.add_node(NodeType::Add, 4);
        let err = emit(&g).unwrap_err();
        assert!(matches!(err, EmitError::InvalidGraph { .. }));
        assert!(format!("{err}").contains("parents"));
    }

    #[test]
    fn bitselect_range_enforced_and_legalized() {
        let mut g = CircuitGraph::new("bs");
        let i = g.add_node(NodeType::Input, 4);
        let bs = g.add_bit_select(4, 2); // [5:2] of a 4-bit input: illegal
        let o = g.add_node(NodeType::Output, 4);
        g.set_parents(bs, &[i]).unwrap();
        g.set_parents(o, &[bs]).unwrap();
        assert!(matches!(
            emit(&g).unwrap_err(),
            EmitError::BitSelectOutOfRange { .. }
        ));
        g.legalize_bit_selects();
        let v = emit(&g).unwrap();
        // clamped to offset 0 (width 4 of a 4-bit parent)
        assert!(v.contains("assign n1 = n0[3:0];"));
    }

    #[test]
    fn legalize_cascades_through_select_chains() {
        // b1 selects [7:4] of an 8-bit input; b2 selects [7:4] of b1.
        // Legalizing b1 alone leaves b2 out of range — the fixpoint loop
        // must shrink the whole chain.
        let mut g = CircuitGraph::new("chain");
        let i = g.add_node(NodeType::Input, 8);
        let b1 = g.add_bit_select(4, 4); // [7:4] of n0: legal
        let b2 = g.add_bit_select(4, 4); // [7:4] of a 4-bit signal: illegal
        let b3 = g.add_bit_select(4, 2); // of b2 (will shrink again)
        let o = g.add_node(NodeType::Output, 4);
        g.set_parents(b1, &[i]).unwrap();
        g.set_parents(b2, &[b1]).unwrap();
        g.set_parents(b3, &[b2]).unwrap();
        g.set_parents(o, &[b3]).unwrap();
        g.legalize_bit_selects();
        let v = emit(&g).expect("chain must be emittable after legalizing");
        assert!(parse(&v).is_ok());
        for (id, node) in g.iter() {
            if node.ty() == NodeType::BitSelect {
                let pw = g.node(g.parents(id)[0]).width();
                assert!(node.aux() as u32 + node.width() <= pw);
            }
        }
    }

    #[test]
    fn single_bit_select_brackets() {
        let mut g = CircuitGraph::new("bs1");
        let i = g.add_node(NodeType::Input, 8);
        let bs = g.add_bit_select(1, 3);
        let o = g.add_node(NodeType::Output, 1);
        g.set_parents(bs, &[i]).unwrap();
        g.set_parents(o, &[bs]).unwrap();
        let v = emit(&g).unwrap();
        assert!(v.contains("assign n1 = n0[3];"));
    }

    #[test]
    fn module_name_sanitized() {
        let mut g = CircuitGraph::new("9bad name!");
        let i = g.add_node(NodeType::Input, 1);
        let o = g.add_node(NodeType::Output, 1);
        g.set_parents(o, &[i]).unwrap();
        let v = emit(&g).unwrap();
        assert!(v.starts_with("module m9bad_name_ ("));
    }

    #[test]
    fn mux_and_concat_syntax() {
        let mut g = CircuitGraph::new("mc");
        let s = g.add_node(NodeType::Input, 1);
        let a = g.add_node(NodeType::Input, 4);
        let b = g.add_node(NodeType::Input, 4);
        let m = g.add_node(NodeType::Mux, 4);
        let c = g.add_node(NodeType::Concat, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(m, &[s, a, b]).unwrap();
        g.set_parents(c, &[a, m]).unwrap();
        g.set_parents(o, &[c]).unwrap();
        let v = emit(&g).unwrap();
        assert!(v.contains("assign n3 = n0 ? n1 : n2;"));
        assert!(v.contains("assign n4 = {n1, n3};"));
    }
}
