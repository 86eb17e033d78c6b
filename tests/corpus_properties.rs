//! The "real" corpus must behave like real RTL everywhere in the stack:
//! valid, emittable, round-trippable, simulatable, synthesizable with
//! realistic sequential preservation, and timing-analyzable.

use std::collections::HashMap;
use syncircuit::graph::interp::Simulator;
use syncircuit::hdl;
use syncircuit::synth::{label_design, optimize, scpr, LabelConfig};

#[test]
fn every_design_is_emittable_and_round_trips() {
    for d in syncircuit::datasets::corpus() {
        let verilog =
            hdl::emit(&d.graph).unwrap_or_else(|e| panic!("{} not emittable: {e}", d.name));
        let parsed =
            hdl::parse(&verilog).unwrap_or_else(|e| panic!("{} not parseable: {e}", d.name));
        assert_eq!(parsed, d.graph, "{} round-trip", d.name);
    }
}

#[test]
fn every_design_simulates_for_32_cycles() {
    for d in syncircuit::datasets::corpus() {
        let mut sim =
            Simulator::new(&d.graph).unwrap_or_else(|e| panic!("{} not simulatable: {e}", d.name));
        let inputs: HashMap<_, _> = sim
            .inputs()
            .iter()
            .enumerate()
            .map(|(k, &id)| (id, k as u64 * 3 + 1))
            .collect();
        for _ in 0..32 {
            let outs = sim.step(&inputs);
            assert!(!outs.is_empty(), "{} has no outputs", d.name);
        }
    }
}

#[test]
fn corpus_scpr_band_and_labels() {
    let config = LabelConfig::default();
    for d in syncircuit::datasets::corpus() {
        let res = optimize(&d.graph);
        let r = scpr(&res);
        assert!(
            (0.7..=1.0).contains(&r),
            "{}: SCPR {r:.2} outside the real-design band",
            d.name
        );
        let (labels, _, _) = label_design(&d.graph, &config);
        assert!(labels.area > 0.0, "{}", d.name);
        assert!(labels.critical_delay > 0.0, "{}", d.name);
        // the default 0.75x clock must create violations somewhere
        assert!(labels.wns <= 0.0, "{}", d.name);
        assert!(!labels.reg_slacks.is_empty(), "{}", d.name);
    }
}

#[test]
fn synthesis_preserves_corpus_semantics() {
    // spot-check the interpreter equivalence on three designs
    for name in ["b01_flow", "oc_alu32", "tinyrocket"] {
        let d = syncircuit::datasets::design(name).expect("exists");
        let res = optimize(&d.graph);
        let mut sim_a = Simulator::new(&d.graph).expect("original");
        let mut sim_b = Simulator::new(&res.netlist).expect("netlist");
        if sim_a.inputs().len() != sim_b.inputs().len() {
            continue; // dead inputs dropped; positional match unreliable
        }
        let pairs: Vec<_> = sim_a
            .inputs()
            .iter()
            .copied()
            .zip(sim_b.inputs().iter().copied())
            .collect();
        let warmup = d.graph.node_count() + 2;
        for cycle in 0..warmup + 8 {
            let mut va = HashMap::new();
            let mut vb = HashMap::new();
            for (k, &(ia, ib)) in pairs.iter().enumerate() {
                let v = (cycle as u64)
                    .wrapping_mul(0x9E37)
                    .wrapping_add(k as u64 * 77);
                va.insert(ia, v);
                vb.insert(ib, v);
            }
            let oa = sim_a.step(&va);
            let ob = sim_b.step(&vb);
            if cycle >= warmup {
                assert_eq!(oa, ob, "{name} diverges at cycle {cycle}");
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Pins every label of every corpus design bit for bit: area, gates,
/// timing, redundancy scores, the chosen clock and each surviving
/// register's slack (in node order). The synthesis simulator's cell
/// areas and delays are constants; this digest is what shows that a
/// change to how they are stored or summed kept every bit.
#[test]
fn corpus_labels_keep_their_bits() {
    let config = LabelConfig::default();
    let mut words = Vec::new();
    for d in syncircuit::datasets::corpus() {
        let (labels, _, _) = label_design(&d.graph, &config);
        words.extend([
            labels.area.to_bits(),
            labels.gates,
            labels.wns.to_bits(),
            labels.tns.to_bits(),
            labels.nvp as u64,
            labels.scpr.to_bits(),
            labels.pcs.to_bits(),
            labels.clock_period.to_bits(),
            labels.critical_delay.to_bits(),
        ]);
        let mut slacks: Vec<_> = labels.reg_slacks.into_iter().collect();
        slacks.sort_by_key(|&(node, _)| node);
        for (node, slack) in slacks {
            words.extend([node.index() as u64, slack.to_bits()]);
        }
    }
    assert_eq!(format!("{:016x}", fnv1a(words)), "b913aa482b8305cf");
}
