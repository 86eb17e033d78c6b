//! The paper's bijection `f : D ↔ G` on the *real* corpus: emitting any
//! corpus design to the Verilog subset and parsing it back must
//! reproduce a structurally equal `CircuitGraph`, and re-emitting the
//! parsed graph must be byte-identical (printing is a fixpoint).

use syncircuit_datasets::corpus;
use syncircuit_hdl::{emit, parse};

#[test]
fn every_corpus_design_roundtrips_structurally() {
    let designs = corpus();
    assert!(!designs.is_empty(), "corpus must not be empty");
    for design in &designs {
        let verilog = emit(&design.graph)
            .unwrap_or_else(|e| panic!("emit failed for {}: {e}", design.graph.name()));
        let parsed = parse(&verilog)
            .unwrap_or_else(|e| panic!("parse failed for {}: {e}", design.graph.name()));
        assert_eq!(
            parsed,
            design.graph,
            "round-trip mismatch for corpus design {}",
            design.graph.name()
        );
    }
}

#[test]
fn corpus_emission_is_a_fixpoint() {
    for design in corpus() {
        let v1 = emit(&design.graph).unwrap();
        let g2 = parse(&v1).unwrap();
        let v2 = emit(&g2).unwrap();
        assert_eq!(
            v1,
            v2,
            "emit∘parse not a fixpoint for {}",
            design.graph.name()
        );
    }
}

#[test]
fn corpus_designs_are_valid_before_and_after_roundtrip() {
    for design in corpus() {
        assert!(
            design.graph.is_valid(),
            "corpus design {} must satisfy constraints C",
            design.graph.name()
        );
        let parsed = parse(&emit(&design.graph).unwrap()).unwrap();
        assert!(parsed.is_valid());
    }
}
