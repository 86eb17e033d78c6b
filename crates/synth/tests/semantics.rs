//! Synthesis must preserve circuit semantics: the optimized netlist and
//! the original design produce identical outputs on identical stimulus —
//! after the initialization transient introduced by sequential constant
//! propagation (documented in `passes`).

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use syncircuit_graph::interp::Simulator;
use syncircuit_graph::testing::{random_valid_circuit, RandomCircuitConfig};
use syncircuit_graph::{CircuitGraph, NodeId, NodeType};
use syncircuit_synth::optimize;

/// Drives both circuits with the same input streams and compares outputs
/// from cycle `warmup` to `cycles`.
///
/// Outputs are matched positionally: optimization preserves the relative
/// order of output ports (compaction keeps node order).
fn assert_equivalent(original: &CircuitGraph, optimized: &CircuitGraph, seed: u64, warmup: usize) {
    let mut sim_a = Simulator::new(original).expect("original simulatable");
    let mut sim_b = Simulator::new(optimized).expect("netlist simulatable");
    assert_eq!(
        sim_a.outputs().len(),
        sim_b.outputs().len(),
        "output count changed"
    );
    let inputs_a: Vec<NodeId> = sim_a.inputs().to_vec();
    let inputs_b: Vec<NodeId> = sim_b.inputs().to_vec();
    // The netlist may have dropped dead inputs; map by position among
    // surviving ones. Build name-free mapping via original order: inputs
    // keep relative order in compaction.
    let mut rng = StdRng::seed_from_u64(seed);
    let cycles = warmup + 12;
    // Surviving inputs in the netlist are a width-matching subsequence of
    // the original inputs (compaction preserves order and never re-types
    // ports); align them positionally.
    let widths_b: Vec<u32> = inputs_b
        .iter()
        .map(|&i| optimized.node(i).width())
        .collect();
    for cycle in 0..cycles {
        let mut vals_a = HashMap::new();
        let mut vals_b = HashMap::new();
        let mut bi = 0usize;
        for &ia in &inputs_a {
            let v: u64 = rng.gen();
            vals_a.insert(ia, v);
            if bi < inputs_b.len() && original.node(ia).width() == widths_b[bi] {
                vals_b.insert(inputs_b[bi], v);
                bi += 1;
            }
        }
        let outs_a = sim_a.step(&vals_a);
        let outs_b = sim_b.step(&vals_b);
        // Strict comparison only when every input survived (otherwise the
        // positional alignment above is heuristic).
        if cycle >= warmup && inputs_a.len() == inputs_b.len() {
            assert_eq!(outs_a, outs_b, "divergence at cycle {cycle}");
        }
    }
}

#[test]
fn optimization_preserves_semantics_on_random_circuits() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut exercised = 0;
    for i in 0..120 {
        let config = RandomCircuitConfig {
            num_nodes: 15 + (i % 60),
            ..RandomCircuitConfig::default()
        };
        let g = random_valid_circuit(&mut rng, &config);
        let res = optimize(&g);
        assert!(res.netlist.is_valid(), "netlist invalid at iter {i}");
        let warmup = g.node_count() + 2;
        if res.netlist.count_of_type(NodeType::Input) == g.count_of_type(NodeType::Input) {
            exercised += 1;
        }
        assert_equivalent(&g, &res.netlist, 1000 + i as u64, warmup);
    }
    assert!(
        exercised >= 30,
        "too few strict equivalence checks ran: {exercised}"
    );
}

#[test]
fn optimization_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..25 {
        let g = random_valid_circuit(&mut rng, &RandomCircuitConfig::default());
        let once = optimize(&g);
        let twice = optimize(&once.netlist);
        assert_eq!(
            once.stats.nodes_after, twice.stats.nodes_after,
            "second optimization should find nothing new"
        );
        assert_eq!(once.stats.seq_bits_after, twice.stats.seq_bits_after);
        assert!((once.stats.area_after - twice.stats.area_after).abs() < 1e-9);
    }
}

#[test]
fn netlists_never_grow() {
    let mut rng = StdRng::seed_from_u64(88);
    for _ in 0..50 {
        let g = random_valid_circuit(&mut rng, &RandomCircuitConfig::default());
        let res = optimize(&g);
        assert!(res.stats.nodes_after <= res.stats.nodes_before);
        assert!(res.stats.seq_bits_after <= res.stats.seq_bits_before);
        assert!(res.stats.area_after <= res.stats.area_before + 1e-9);
    }
}

#[test]
fn reg_map_targets_exist_and_are_registers() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..30 {
        let g = random_valid_circuit(&mut rng, &RandomCircuitConfig::default());
        let res = optimize(&g);
        for (orig, new) in &res.reg_map {
            assert!(g.ty(*orig).is_register());
            assert!(res.netlist.ty(*new).is_register());
        }
    }
}
