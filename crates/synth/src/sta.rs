//! Static timing analysis.
//!
//! Arrival times propagate through the combinational DAG (registers and
//! inputs launch, register D-pins and outputs capture). Cell delays are
//! NanGate45-inspired constants in nanosecond-like units, one set for
//! the one modelled technology, and width-aware: ripple-carry adders are
//! linear in width, comparators and shifters logarithmic, array
//! multipliers linear with a larger constant.

use serde::{Deserialize, Serialize};
use syncircuit_graph::algo::comb_topo_order;
use syncircuit_graph::{CircuitGraph, Node, NodeId, NodeType};

/// Clock-to-Q delay of a register.
const CLK_TO_Q: f64 = 0.10;
/// Register setup time.
const SETUP: f64 = 0.05;
/// Inverter delay.
const NOT: f64 = 0.03;
/// AND/OR gate delay.
const AND_OR: f64 = 0.05;
/// XOR gate delay.
const XOR: f64 = 0.09;
/// 2:1 mux delay.
const MUX: f64 = 0.07;
/// Per-bit carry delay of ripple arithmetic.
const CARRY: f64 = 0.09;
/// Per-level delay of comparator / shifter trees.
const TREE_LEVEL: f64 = 0.07;
/// Base gate delay added to every combinational cell.
const BASE: f64 = 0.02;

/// Propagation delay through one node.
fn node_delay(node: &Node) -> f64 {
    let w = node.width() as f64;
    let levels = (node.width().max(2) as f64).log2().ceil();
    match node.ty() {
        NodeType::Input | NodeType::Const | NodeType::Output | NodeType::Reg => 0.0,
        NodeType::BitSelect | NodeType::Concat => 0.0,
        NodeType::Not => BASE + NOT,
        NodeType::And | NodeType::Or => BASE + AND_OR,
        NodeType::Xor => BASE + XOR,
        NodeType::Mux => BASE + MUX,
        NodeType::Add | NodeType::Sub => BASE + w * CARRY,
        NodeType::Mul => BASE + 2.0 * w * CARRY,
        NodeType::Eq | NodeType::Lt => BASE + levels * TREE_LEVEL,
        NodeType::Shl | NodeType::Shr => BASE + levels * TREE_LEVEL,
    }
}

/// A timing endpoint: a register D-pin or a primary output.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Endpoint {
    /// The endpoint node (register or output).
    pub node: NodeId,
    /// Data arrival time at the endpoint.
    pub arrival: f64,
    /// Slack against the analyzed clock period.
    pub slack: f64,
    /// Whether the endpoint is a register (`true`) or output (`false`).
    pub is_register: bool,
}

/// Result of [`timing_analysis`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimingReport {
    /// Clock period used for slack computation.
    pub clock_period: f64,
    /// Every endpoint with its arrival and slack.
    pub endpoints: Vec<Endpoint>,
    /// Worst negative slack: the minimum endpoint slack when negative,
    /// otherwise 0 (no violation).
    pub wns: f64,
    /// Total negative slack (sum of negative endpoint slacks; ≤ 0).
    pub tns: f64,
    /// Number of violating endpoints.
    pub nvp: usize,
    /// Longest unconstrained data-path delay (critical-path delay).
    pub critical_delay: f64,
}

impl TimingReport {
    /// TNS averaged over violating paths (the paper's Fig. 5 metric
    /// "TNS / number of violated paths"); 0 when nothing violates.
    pub fn tns_per_violation(&self) -> f64 {
        if self.nvp == 0 {
            0.0
        } else {
            self.tns / self.nvp as f64
        }
    }

    /// Slack of each register endpoint, in node order.
    pub fn register_slacks(&self) -> Vec<(NodeId, f64)> {
        self.endpoints
            .iter()
            .filter(|e| e.is_register)
            .map(|e| (e.node, e.slack))
            .collect()
    }
}

/// Runs STA at `clock_period`.
///
/// # Panics
///
/// Panics if the graph has a combinational loop (invalid circuit).
pub fn timing_analysis(g: &CircuitGraph, clock_period: f64) -> TimingReport {
    let order = comb_topo_order(g).expect("timing analysis requires a loop-free circuit");
    let n = g.node_count();
    let mut arrival = vec![0.0f64; n];

    for &u in &order {
        let node = g.node(u);
        match node.ty() {
            NodeType::Input | NodeType::Const => arrival[u.index()] = 0.0,
            NodeType::Reg => arrival[u.index()] = CLK_TO_Q,
            _ => {
                let worst_parent = g
                    .parents(u)
                    .iter()
                    .map(|p| arrival[p.index()])
                    .fold(0.0f64, f64::max);
                arrival[u.index()] = worst_parent + node_delay(node);
            }
        }
    }

    let mut endpoints = Vec::new();
    let mut critical: f64 = 0.0;
    for (id, node) in g.iter() {
        let (is_register, data_arrival) = match node.ty() {
            NodeType::Reg => {
                let Some(&d) = g.parents(id).first() else {
                    continue;
                };
                (true, arrival[d.index()] + SETUP)
            }
            NodeType::Output => (false, arrival[id.index()]),
            _ => continue,
        };
        critical = critical.max(data_arrival);
        endpoints.push(Endpoint {
            node: id,
            arrival: data_arrival,
            slack: clock_period - data_arrival,
            is_register,
        });
    }

    let wns = endpoints
        .iter()
        .map(|e| e.slack)
        .fold(f64::INFINITY, f64::min)
        .min(0.0);
    let wns = if endpoints.is_empty() { 0.0 } else { wns };
    let tns: f64 = endpoints.iter().map(|e| e.slack.min(0.0)).sum();
    let nvp = endpoints.iter().filter(|e| e.slack < 0.0).count();

    TimingReport {
        clock_period,
        endpoints,
        wns,
        tns,
        nvp,
        critical_delay: critical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_of_adds(k: usize, w: u32) -> CircuitGraph {
        let mut g = CircuitGraph::new("chain");
        let a = g.add_node(NodeType::Input, w);
        let b = g.add_node(NodeType::Input, w);
        let mut prev = a;
        for _ in 0..k {
            let s = g.add_node(NodeType::Add, w);
            g.set_parents(s, &[prev, b]).unwrap();
            prev = s;
        }
        let o = g.add_node(NodeType::Output, w);
        g.set_parents(o, &[prev]).unwrap();
        g
    }

    #[test]
    fn longer_chains_have_longer_delay() {
        let short = timing_analysis(&chain_of_adds(1, 8), 10.0);
        let long = timing_analysis(&chain_of_adds(5, 8), 10.0);
        assert!(long.critical_delay > short.critical_delay * 3.0);
    }

    #[test]
    fn wider_adders_are_slower() {
        let narrow = timing_analysis(&chain_of_adds(1, 4), 10.0);
        let wide = timing_analysis(&chain_of_adds(1, 32), 10.0);
        assert!(wide.critical_delay > narrow.critical_delay * 2.0);
    }

    #[test]
    fn slack_and_violations() {
        let g = chain_of_adds(4, 16);
        let unconstrained = timing_analysis(&g, 1e9);
        assert_eq!(unconstrained.nvp, 0);
        assert_eq!(unconstrained.wns, 0.0);
        // constrain to half the critical delay: the single endpoint
        // violates
        let tight = timing_analysis(&g, unconstrained.critical_delay / 2.0);
        assert_eq!(tight.nvp, 1);
        assert!(tight.wns < 0.0);
        assert!(tight.tns < 0.0);
        assert!((tight.tns_per_violation() - tight.tns / 1.0).abs() < 1e-12);
    }

    #[test]
    fn register_paths_include_clk_to_q_and_setup() {
        // reg -> add -> reg2: path = clk2q + add + setup
        let mut g = CircuitGraph::new("r2r");
        let one = g.add_const(8, 1);
        let r1 = g.add_node(NodeType::Reg, 8);
        let s = g.add_node(NodeType::Add, 8);
        let r2 = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(r1, &[one]).unwrap();
        g.set_parents(s, &[r1, one]).unwrap();
        g.set_parents(r2, &[s]).unwrap();
        g.set_parents(o, &[r2]).unwrap();
        let rep = timing_analysis(&g, 10.0);
        let r2_ep = rep
            .endpoints
            .iter()
            .find(|e| e.node == r2)
            .expect("r2 endpoint");
        let expect = CLK_TO_Q + BASE + 8.0 * CARRY + SETUP;
        assert!((r2_ep.arrival - expect).abs() < 1e-9, "{}", r2_ep.arrival);
    }

    #[test]
    fn register_slacks_listed() {
        let mut g = CircuitGraph::new("regs");
        let i = g.add_node(NodeType::Input, 4);
        let r1 = g.add_node(NodeType::Reg, 4);
        let r2 = g.add_node(NodeType::Reg, 4);
        let o = g.add_node(NodeType::Output, 4);
        g.set_parents(r1, &[i]).unwrap();
        g.set_parents(r2, &[r1]).unwrap();
        g.set_parents(o, &[r2]).unwrap();
        let rep = timing_analysis(&g, 5.0);
        assert_eq!(rep.register_slacks().len(), 2);
        assert!(rep.register_slacks().iter().all(|&(_, s)| s > 0.0));
    }

    #[test]
    fn feedback_loop_through_register_is_analyzable() {
        let mut g = CircuitGraph::new("fb");
        let one = g.add_const(8, 1);
        let r = g.add_node(NodeType::Reg, 8);
        let s = g.add_node(NodeType::Add, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(s, &[r, one]).unwrap();
        g.set_parents(r, &[s]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        let rep = timing_analysis(&g, 2.0);
        assert_eq!(rep.endpoints.len(), 2); // register + output
        assert!(rep.critical_delay > 0.0);
    }
}
