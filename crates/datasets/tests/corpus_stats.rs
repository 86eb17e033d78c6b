//! Corpus composition guard: every design synthesizes to nonzero area and
//! each family spans a meaningful size range (Table I's min/median/max
//! spread).

use syncircuit_datasets::{corpus, Family};
use syncircuit_synth::{area_of_graph, gate_count};

#[test]
fn corpus_sizes_have_spread() {
    let mut by_family: std::collections::HashMap<Family, Vec<u64>> = Default::default();
    for d in corpus() {
        let gates = gate_count(&d.graph);
        println!(
            "{:12} {:10} nodes={:4} edges={:4} regbits={:4} gates={}",
            d.name,
            d.family.name(),
            d.graph.node_count(),
            d.graph.edge_count(),
            d.graph.register_bits(),
            gates
        );
        assert!(area_of_graph(&d.graph) > 0.0);
        by_family.entry(d.family).or_default().push(gates);
    }
    for (fam, mut gates) in by_family {
        gates.sort_unstable();
        let (min, max) = (gates[0], *gates.last().unwrap());
        assert!(max >= min * 2, "{:?} lacks size spread: {gates:?}", fam);
    }
}
