//! All four adapted baselines must train on corpus designs and produce
//! constraint-satisfying circuits, with their documented structural
//! limitations (acyclicity for the autoregressive pair).

use syncircuit::baselines::{
    Dvae, DvaeConfig, GraphMaker, GraphRnn, GraphRnnConfig, SparseDigress, SparseDigressConfig,
};
use syncircuit::graph::algo::tarjan_scc;
use syncircuit::graph::CircuitGraph;

fn corpus() -> Vec<CircuitGraph> {
    syncircuit::datasets::corpus()
        .into_iter()
        .take(4)
        .map(|d| d.graph)
        .collect()
}

#[test]
fn graphrnn_on_corpus() {
    let model = GraphRnn::train(&corpus(), GraphRnnConfig::tiny(), 5);
    let g = model.generate(35, 1).expect("generation");
    assert!(g.is_valid(), "{:?}", g.validate());
    // the paper's documented limitation: no cycles at all
    assert!(tarjan_scc(&g).iter().all(|s| s.len() == 1));
}

#[test]
fn dvae_on_corpus() {
    let model = Dvae::train(&corpus(), DvaeConfig::tiny(), 6);
    let g = model.generate(35, 2).expect("generation");
    assert!(g.is_valid(), "{:?}", g.validate());
    assert!(tarjan_scc(&g).iter().all(|s| s.len() == 1));
}

#[test]
fn graphmaker_on_corpus() {
    let model = GraphMaker::train(&corpus(), 7);
    let g = model.generate(35, 3).expect("generation");
    assert!(g.is_valid(), "{:?}", g.validate());
}

#[test]
fn sparsedigress_on_corpus() {
    let model = SparseDigress::train(&corpus(), SparseDigressConfig::tiny(), 8);
    let g = model.generate(35, 4).expect("generation");
    assert!(g.is_valid(), "{:?}", g.validate());
}

#[test]
fn baseline_outputs_are_emittable() {
    let model = GraphRnn::train(&corpus(), GraphRnnConfig::tiny(), 9);
    for seed in 0..2 {
        let g = model.generate(30, seed).expect("generation");
        let v = syncircuit::hdl::emit(&g).expect("emittable");
        assert_eq!(syncircuit::hdl::parse(&v).expect("parseable"), g);
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The Verilog of designs generated from a `tiny()` GraphRNN fit keeps
/// its recorded digest. GraphRNN trains and generates through the
/// tape's matmul, and every edge it samples reads the trained weights.
#[test]
fn graphrnn_training_keeps_its_bits() {
    let model = GraphRnn::train(&corpus(), GraphRnnConfig::tiny(), 5);
    let text: String = (0..4)
        .map(|seed| {
            let g = model.generate(35, seed).expect("generation");
            syncircuit::hdl::emit(&g).expect("emittable")
        })
        .collect();
    let got = fnv1a(text.as_bytes());
    assert_eq!(got, 0x1bb0_efa8_c7d3_2e14, "digest {got:#018x} != recorded");
}
