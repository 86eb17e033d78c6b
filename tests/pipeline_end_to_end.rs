//! Cross-crate integration: the full SynCircuit story on the real
//! corpus — train, generate, validate, print as Verilog, parse back,
//! simulate, synthesize.

use std::collections::HashMap;
use syncircuit::graph::interp::Simulator;
use syncircuit::hdl;
use syncircuit::synth::{optimize, scpr};
use syncircuit::{GenRequest, PipelineConfig, SynCircuit};

fn trained_model(seed: u64) -> SynCircuit {
    let corpus: Vec<_> = syncircuit::datasets::corpus()
        .into_iter()
        .take(5)
        .map(|d| d.graph)
        .collect();
    let config = PipelineConfig::builder()
        .seed(seed)
        .build()
        .expect("valid configuration");
    SynCircuit::fit(&corpus, config).expect("corpus is non-empty")
}

#[test]
fn generate_emit_parse_simulate_synthesize() {
    let model = trained_model(1);
    for seed in 0..3u64 {
        let generated = model
            .generate_one(&GenRequest::nodes(40).seeded(seed))
            .expect("generation");
        let g = &generated.graph;
        assert!(g.is_valid(), "{:?}", g.validate());
        assert_eq!(g.node_count(), 40);

        // HDL bijection
        let verilog = hdl::emit(g).expect("emittable");
        let parsed = hdl::parse(&verilog).expect("parseable");
        assert_eq!(&parsed, g, "round-trip must be exact");

        // executable semantics
        let mut sim = Simulator::new(g).expect("simulatable");
        let outs = sim.step(&HashMap::new());
        assert!(!outs.is_empty(), "circuits must observe something");

        // synthesizable
        let res = optimize(g);
        assert!(res.netlist.is_valid());
        assert!(res.stats.nodes_after <= res.stats.nodes_before);
    }
}

#[test]
fn phase3_improves_or_preserves_scpr() {
    let model = trained_model(2);
    let mut improved = 0usize;
    let mut total = 0usize;
    for seed in 0..4u64 {
        let generated = model
            .generate_one(&GenRequest::nodes(50).seeded(seed))
            .expect("generation");
        let before = scpr(&optimize(&generated.gval));
        let after = scpr(&optimize(&generated.graph));
        assert!(
            after >= before - 1e-9,
            "seed {seed}: Phase 3 degraded SCPR {before:.3} -> {after:.3}"
        );
        total += 1;
        if after > before + 1e-9 {
            improved += 1;
        }
    }
    assert!(total > 0);
    // Not every seed needs improvement (some G_val are already fine),
    // but the mechanism must fire on at least one.
    assert!(improved >= 1, "MCTS never improved any of {total} designs");
}

/// A denoiser as wide as `PipelineConfig::standard()`'s (hidden 48)
/// trains and generates: no kernel limit may sit just past the tiny
/// widths the rest of the suite uses.
#[test]
fn standard_width_model_fits_and_generates() {
    let corpus: Vec<_> = syncircuit::datasets::corpus()
        .into_iter()
        .take(3)
        .map(|d| d.graph)
        .collect();
    let hidden = PipelineConfig::standard().diffusion().hidden;
    assert_eq!(hidden, 48);
    let config = PipelineConfig::builder()
        .diffusion(syncircuit::core::DiffusionConfig {
            hidden,
            ..syncircuit::core::DiffusionConfig::tiny()
        })
        .seed(5)
        .build()
        .expect("valid configuration");
    let model = SynCircuit::fit(&corpus, config).expect("corpus is non-empty");
    let generated = model
        .generate_one(&GenRequest::nodes(24).seeded(1))
        .expect("generation");
    assert!(
        generated.graph.is_valid(),
        "{:?}",
        generated.graph.validate()
    );
    assert_eq!(generated.graph.node_count(), 24);
}

#[test]
fn generation_scales_with_node_budget() {
    let model = trained_model(3);
    let small = model
        .generate_one(&GenRequest::nodes(20).seeded(0))
        .expect("generation");
    let large = model
        .generate_one(&GenRequest::nodes(80).seeded(0))
        .expect("generation");
    assert_eq!(small.graph.node_count(), 20);
    assert_eq!(large.graph.node_count(), 80);
    assert!(large.graph.edge_count() > small.graph.edge_count());
}

#[test]
fn conditioned_generation_mirrors_real_attributes() {
    let model = trained_model(4);
    let real = syncircuit::datasets::design("b01_flow")
        .expect("exists")
        .graph;
    let attrs: Vec<_> = real.iter().map(|(_, n)| *n).collect();
    let generated = model
        .generate_one(&GenRequest::with_attrs(attrs).seeded(9))
        .expect("conditioned generation");
    assert_eq!(generated.graph.node_count(), real.node_count());
    // same type multiset (bit-select widths may be legalized)
    for ty in syncircuit::graph::ALL_NODE_TYPES {
        assert_eq!(
            generated.graph.count_of_type(ty),
            real.count_of_type(ty),
            "type {ty} count must be preserved"
        );
    }
}
