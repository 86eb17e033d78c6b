//! Figure 5 — netlist timing-statistic distributions.
//!
//! WNS and TNS/NVP distributions for the three synthetic datasets
//! (GraphRNN, DVAE, SynCircuit) against the real benchmarks. Expected
//! shape (paper): the autoregressive baselines produce shallow DAGs whose
//! WNS / TNS-per-violation cluster near zero, while SynCircuit tracks the
//! real designs' heavier-tailed timing behavior.

use syncircuit_bench::{
    banner, cell, five_number_summary, generate_set, train_dvae, train_graphrnn, train_syncircuit,
};
use syncircuit_core::GenRequest;
use syncircuit_datasets::corpus;
use syncircuit_graph::CircuitGraph;
use syncircuit_synth::{label_design, LabelConfig};

const SET_SIZE: usize = 25;
const NODES: usize = 80;

fn timing_stats(designs: &[CircuitGraph]) -> (Vec<f64>, Vec<f64>) {
    let config = LabelConfig::default();
    let mut wns = Vec::new();
    let mut tns_nvp = Vec::new();
    for g in designs {
        let (labels, _, timing) = label_design(g, &config);
        wns.push(labels.wns);
        tns_nvp.push(timing.tns_per_violation());
    }
    (wns, tns_nvp)
}

fn main() {
    banner("Figure 5: timing statistics", "paper §VII-B.2 Fig. 5");
    println!("training generators and sampling {SET_SIZE} designs each...");
    let syn = train_syncircuit(true);
    let graphrnn = train_graphrnn();
    let dvae = train_dvae();

    let real: Vec<CircuitGraph> = corpus().into_iter().map(|d| d.graph).collect();
    let syn_set = generate_set(SET_SIZE, |s| {
        syn.generate_one(&GenRequest::nodes(NODES).seeded(s))
            .map(|g| g.graph)
            .ok()
    });
    let rnn_set = generate_set(SET_SIZE, |s| graphrnn.generate(NODES, s).ok());
    let dvae_set = generate_set(SET_SIZE, |s| dvae.generate(NODES, s).ok());

    let mut table: Vec<(&str, Vec<f64>, Vec<f64>)> = Vec::new();
    for (name, set) in [
        ("real", &real),
        ("SynCircuit", &syn_set),
        ("GraphRNN", &rnn_set),
        ("DVAE", &dvae_set),
    ] {
        let (wns, tn) = timing_stats(set);
        table.push((name, wns, tn));
    }

    println!("\n(a) WNS distribution (ns, more negative = longer critical paths):");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "dataset", "min", "q1", "median", "q3", "max"
    );
    for (name, wns, _) in &table {
        let s = five_number_summary(wns);
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
            name,
            cell(s[0]),
            cell(s[1]),
            cell(s[2]),
            cell(s[3]),
            cell(s[4])
        );
    }

    println!("\n(b) TNS / #violating-paths distribution:");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "dataset", "min", "q1", "median", "q3", "max"
    );
    for (name, _, tn) in &table {
        let s = five_number_summary(tn);
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8}",
            name,
            cell(s[0]),
            cell(s[1]),
            cell(s[2]),
            cell(s[3]),
            cell(s[4])
        );
    }

    // Shape check: median |WNS| of the DAG baselines vs SynCircuit vs real.
    let med = |v: &[f64]| five_number_summary(v)[2].abs();
    let real_m = med(&table[0].1);
    let syn_m = med(&table[1].1);
    let rnn_m = med(&table[2].1);
    let dvae_m = med(&table[3].1);
    println!(
        "\nshape check: median |WNS| — real {} / SynCircuit {} / GraphRNN {} / DVAE {}",
        cell(real_m),
        cell(syn_m),
        cell(rnn_m),
        cell(dvae_m)
    );
    println!(
        "expect |SynCircuit - real| < |baseline - real| for at least one baseline: {}",
        ((syn_m - real_m).abs() < (rnn_m - real_m).abs()
            || (syn_m - real_m).abs() < (dvae_m - real_m).abs())
    );
}
