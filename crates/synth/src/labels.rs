//! End-to-end design labeling: synthesize, time, and package the ground
//! truth consumed by the downstream PPA-prediction experiments.
//!
//! The paper obtains labels from Design Compiler runs with "multiple
//! parameters adjusted", keeping PPA values "along the Pareto frontier"
//! (§VII-A). We model that by synthesizing once and timing the netlist at
//! a clock derived from its critical delay with an aggressiveness factor:
//! factors < 1 constrain below the critical path so some endpoints
//! violate, as in aggressive tapeout corners.

use crate::area::{area_of_graph, gate_count};
use crate::passes::{optimize, SynthResult};
use crate::sta::{timing_analysis, TimingReport};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use syncircuit_graph::{CircuitGraph, NodeId};

/// Labeling configuration.
///
/// Clock constraints are *exogenous*, as in a real flow: each design
/// deterministically draws its target period from `clock_menu` by a hash
/// of its name (modeling the paper's "multiple parameters adjusted …
/// PPA values along the Pareto frontier" label selection). Designs whose
/// critical path beats the period meet timing (WNS = 0); the rest
/// violate. The chosen period is recorded in
/// [`DesignLabels::clock_period`] and is a legitimate predictor input —
/// it is a constraint, not an outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LabelConfig {
    /// Candidate absolute clock periods (same units as the cell delays
    /// of [`crate::sta`]).
    pub clock_menu: Vec<f64>,
}

impl Default for LabelConfig {
    fn default() -> Self {
        LabelConfig {
            clock_menu: vec![1.0, 2.0, 4.0],
        }
    }
}

impl LabelConfig {
    /// Configuration with one fixed clock period (no menu spread).
    pub fn fixed(clock_period: f64) -> Self {
        LabelConfig {
            clock_menu: vec![clock_period],
        }
    }

    /// The clock period a given design name deterministically selects.
    pub fn period_for(&self, name: &str) -> f64 {
        if self.clock_menu.is_empty() {
            return 2.0;
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        self.clock_menu[(h % self.clock_menu.len() as u64) as usize]
    }
}

/// Ground-truth labels for one design (the paper's area, WNS, TNS and
/// per-register slack targets).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DesignLabels {
    /// Design name.
    pub name: String,
    /// Post-synthesis cell area.
    pub area: f64,
    /// Post-synthesis NAND2-equivalent gates.
    pub gates: u64,
    /// Worst negative slack (0 when timing is met).
    pub wns: f64,
    /// Total negative slack (≤ 0).
    pub tns: f64,
    /// Number of violating endpoints.
    pub nvp: usize,
    /// Slack of every *original* register that survives synthesis.
    pub reg_slacks: HashMap<NodeId, f64>,
    /// Sequential cell preservation ratio.
    pub scpr: f64,
    /// Post-synthesis circuit size (area / pre-synthesis node count).
    pub pcs: f64,
    /// Clock period used.
    pub clock_period: f64,
    /// Critical-path delay of the netlist.
    pub critical_delay: f64,
}

/// Synthesizes and times a design, producing its labels plus the raw
/// synthesis and timing artifacts for further inspection.
pub fn label_design(
    g: &CircuitGraph,
    config: &LabelConfig,
) -> (DesignLabels, SynthResult, TimingReport) {
    let synth = optimize(g);
    // Unconstrained pass to learn the critical delay.
    let probe = timing_analysis(&synth.netlist, 1e9);
    let clock = config.period_for(g.name()).max(1e-9);
    let timing = timing_analysis(&synth.netlist, clock);

    // Per-original-register slack through the synthesis register map.
    let netlist_slacks: HashMap<NodeId, f64> = timing
        .endpoints
        .iter()
        .filter(|e| e.is_register)
        .map(|e| (e.node, e.slack))
        .collect();
    let reg_slacks: HashMap<NodeId, f64> = synth
        .reg_map
        .iter()
        .filter_map(|(orig, new)| netlist_slacks.get(new).map(|&s| (*orig, s)))
        .collect();

    let labels = DesignLabels {
        name: g.name().to_string(),
        area: area_of_graph(&synth.netlist),
        gates: gate_count(&synth.netlist),
        wns: timing.wns,
        tns: timing.tns,
        nvp: timing.nvp,
        reg_slacks,
        scpr: crate::scpr(&synth),
        pcs: crate::pcs(&synth),
        clock_period: clock,
        critical_delay: probe.critical_delay,
    };
    (labels, synth, timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::NodeType;

    fn accumulator() -> CircuitGraph {
        let mut g = CircuitGraph::new("acc");
        let i = g.add_node(NodeType::Input, 16);
        let r = g.add_node(NodeType::Reg, 16);
        let s = g.add_node(NodeType::Add, 16);
        let o = g.add_node(NodeType::Output, 16);
        g.set_parents(s, &[r, i]).unwrap();
        g.set_parents(r, &[s]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        g
    }

    #[test]
    fn aggressive_clock_produces_violations() {
        let (labels, _, _) = label_design(&accumulator(), &LabelConfig::fixed(0.5));
        assert!(labels.wns < 0.0, "0.5ns clock must violate: {labels:?}");
        assert!(labels.tns < 0.0);
        assert!(labels.nvp >= 1);
        assert_eq!(labels.clock_period, 0.5);
    }

    #[test]
    fn relaxed_clock_meets_timing() {
        let config = LabelConfig::fixed(10.0);
        let (labels, _, _) = label_design(&accumulator(), &config);
        assert_eq!(labels.wns, 0.0);
        assert_eq!(labels.nvp, 0);
    }

    #[test]
    fn period_selection_is_deterministic_and_spread() {
        let config = LabelConfig::default();
        let p1 = config.period_for("design_a");
        assert_eq!(p1, config.period_for("design_a"));
        assert!(config.clock_menu.contains(&p1));
        // across many names, more than one period appears
        let distinct: std::collections::HashSet<u64> = (0..50)
            .map(|k| config.period_for(&format!("d{k}")).to_bits())
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn register_slacks_keyed_by_original_ids() {
        let g = accumulator();
        let (labels, _, _) = label_design(&g, &LabelConfig::default());
        let r = g.nodes_of_type(NodeType::Reg)[0];
        assert!(labels.reg_slacks.contains_key(&r));
        assert_eq!(labels.reg_slacks.len(), 1);
    }

    #[test]
    fn labels_track_redundancy() {
        // A design whose register is dead: SCPR 0, area small.
        let mut g = CircuitGraph::new("dead");
        let i = g.add_node(NodeType::Input, 8);
        let r = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(r, &[i]).unwrap();
        g.set_parents(o, &[i]).unwrap();
        let (labels, _, _) = label_design(&g, &LabelConfig::default());
        assert_eq!(labels.scpr, 0.0);
        assert!(labels.reg_slacks.is_empty());
        assert_eq!(labels.area, 0.0); // wires only
    }
}
