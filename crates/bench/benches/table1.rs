//! Table I — dataset composition and design size information.
//!
//! Paper: 22 designs from ITC'99 (6, VHDL), OpenCores (8, Verilog),
//! Chipyard (8, Chisel) with per-family {min, median, max} gate counts.
//! Our corpus substitutes parametric design families (see DESIGN.md);
//! sizes are ~10–50× smaller so experiments run on CPU.

use syncircuit_bench::banner;
use syncircuit_datasets::{corpus, Family};
use syncircuit_synth::gate_count;

fn main() {
    banner("Table I: dataset composition", "paper §VII-A Table I");
    let designs = corpus();

    println!(
        "{:<12} {:<12} {:>10} {:>28}",
        "Source", "HDL flavor", "# designs", "gates {min, median, max}"
    );
    for (family, hdl) in [
        (Family::Itc99, "VHDL-style"),
        (Family::OpenCores, "Verilog"),
        (Family::Chipyard, "Chisel-style"),
    ] {
        let mut gates: Vec<u64> = designs
            .iter()
            .filter(|d| d.family == family)
            .map(|d| gate_count(&d.graph))
            .collect();
        gates.sort_unstable();
        let n = gates.len();
        let median = gates[n / 2];
        println!(
            "{:<12} {:<12} {:>10} {:>28}",
            family.name(),
            hdl,
            n,
            format!("{{{}, {}, {}}}", gates[0], median, gates[n - 1])
        );
    }

    println!("\nper-design detail:");
    println!(
        "{:<12} {:<10} {:>7} {:>7} {:>9} {:>8}",
        "design", "family", "nodes", "edges", "reg bits", "gates"
    );
    for d in &designs {
        println!(
            "{:<12} {:<10} {:>7} {:>7} {:>9} {:>8}",
            d.name,
            d.family.name(),
            d.graph.node_count(),
            d.graph.edge_count(),
            d.graph.register_bits(),
            gate_count(&d.graph)
        );
    }
}
