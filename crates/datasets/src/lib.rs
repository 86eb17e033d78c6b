//! The 22-design "real" RTL corpus for SynCircuit.
//!
//! The paper's dataset (Table I) mixes 6 ITC'99 designs, 8 OpenCores
//! designs and 8 Chipyard designs spanning 2K–52K gates. Commercial RTL
//! and three HDL front-ends are out of scope for this reproduction, so
//! this crate substitutes parametric, seeded design generators in the
//! same three families (see `DESIGN.md` for the substitution argument):
//!
//! - [`itc`] — FSM-heavy controllers (state registers, timers,
//!   comparator-driven next-state logic);
//! - [`opencores`] — datapath blocks (UART, CRC, FIFO, ALU, multiplier,
//!   timer, Gray codec, checksum);
//! - [`chipyard`] — pipelined cores from a TinyRocket-style template plus
//!   cache/NoC infrastructure.
//!
//! Every design is a valid circuit graph, is deterministic in its seed,
//! synthesizes with realistic sequential preservation (SCPR ≳ 0.7), and
//! exercises cycles through registers (the DCG property the generative
//! model must learn).
//!
//! # Example
//!
//! ```
//! let corpus = syncircuit_datasets::corpus();
//! assert_eq!(corpus.len(), 22);
//! let (train, test) = syncircuit_datasets::train_test_split();
//! assert_eq!((train.len(), test.len()), (15, 7));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod chipyard;
pub mod itc;
pub mod opencores;

use syncircuit_graph::CircuitGraph;

/// Benchmark family (the paper's "source benchmark" column).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Family {
    /// ITC'99-style FSM controllers (VHDL-origin benchmarks).
    Itc99,
    /// OpenCores-style datapath blocks (Verilog-origin benchmarks).
    OpenCores,
    /// Chipyard-style generated SoC blocks (Chisel-origin benchmarks).
    Chipyard,
}

impl Family {
    /// Human-readable family name matching Table I.
    pub fn name(self) -> &'static str {
        match self {
            Family::Itc99 => "ITC'99",
            Family::OpenCores => "OpenCores",
            Family::Chipyard => "Chipyard",
        }
    }
}

/// One corpus entry: a named design and its family.
#[derive(Clone, Debug)]
pub struct Design {
    /// Design name (unique within the corpus).
    pub name: String,
    /// Source family.
    pub family: Family,
    /// The circuit graph.
    pub graph: CircuitGraph,
}

/// Builds the full 22-design corpus (6 ITC'99 + 8 OpenCores +
/// 8 Chipyard), deterministically.
pub fn corpus() -> Vec<Design> {
    let mut designs = Vec::with_capacity(22);
    let mut push = |name: &str, family: Family, graph: CircuitGraph| {
        designs.push(Design {
            name: name.to_string(),
            family,
            graph,
        });
    };

    // --- ITC'99-style (6) ---
    push(
        "b01_flow",
        Family::Itc99,
        itc::fsm_controller("b01_flow", 101, 2, 1, 8),
    );
    push(
        "b04_ctrl",
        Family::Itc99,
        itc::fsm_controller("b04_ctrl", 104, 3, 2, 16),
    );
    push(
        "b05_seq",
        Family::Itc99,
        itc::sequence_detector("b05_seq", 105, 8, 3),
    );
    push(
        "b10_hand",
        Family::Itc99,
        itc::fsm_controller("b10_hand", 110, 4, 3, 16),
    );
    push(
        "b11_scram",
        Family::Itc99,
        itc::sequence_detector("b11_scram", 111, 16, 5),
    );
    push(
        "b14_unit",
        Family::Itc99,
        itc::fsm_controller("b14_unit", 114, 5, 4, 32),
    );

    // --- OpenCores-style (8) ---
    push(
        "oc_uart",
        Family::OpenCores,
        opencores::uart_like("oc_uart", 201, 8, 8),
    );
    push(
        "oc_crc16",
        Family::OpenCores,
        opencores::crc_like("oc_crc16", 202, 16, 4),
    );
    push(
        "oc_fifo",
        Family::OpenCores,
        opencores::fifo_ctrl("oc_fifo", 203, 3, 16),
    );
    push(
        "oc_alu32",
        Family::OpenCores,
        opencores::alu_like("oc_alu32", 204, 32),
    );
    push(
        "oc_mult",
        Family::OpenCores,
        opencores::mult_pipe("oc_mult", 205, 12, 3),
    );
    push(
        "oc_timer",
        Family::OpenCores,
        opencores::timer_unit("oc_timer", 206, 16),
    );
    push(
        "oc_gray",
        Family::OpenCores,
        opencores::gray_codec("oc_gray", 207, 12),
    );
    push(
        "oc_cksum",
        Family::OpenCores,
        opencores::checksum("oc_cksum", 208, 16, 6),
    );

    // --- Chipyard-style (8) ---
    push(
        "tinyrocket",
        Family::Chipyard,
        chipyard::pipeline_core("tinyrocket", 301, 16, 3, 1),
    );
    push(
        "core",
        Family::Chipyard,
        chipyard::pipeline_core("core", 302, 32, 4, 2),
    );
    push(
        "smallboom",
        Family::Chipyard,
        chipyard::pipeline_core("smallboom", 303, 32, 3, 3),
    );
    push(
        "scalarunit",
        Family::Chipyard,
        chipyard::pipeline_core("scalarunit", 304, 8, 2, 0),
    );
    push(
        "dspcore",
        Family::Chipyard,
        chipyard::pipeline_core("dspcore", 305, 24, 3, 2),
    );
    push(
        "cachectrl",
        Family::Chipyard,
        chipyard::cache_ctrl("cachectrl", 306, 10, 3),
    );
    push(
        "nocrouter",
        Family::Chipyard,
        chipyard::noc_router("nocrouter", 307, 4, 24),
    );
    push(
        "vectorlane",
        Family::Chipyard,
        chipyard::vector_lane("vectorlane", 308, 6, 12),
    );

    designs
}

/// The paper's deterministic 15/7 train/test split ("we randomly selected
/// 7 designs from the dataset as the test set"). The test set mixes all
/// three families and includes both Table II evaluation designs
/// (`tinyrocket` and `core`).
pub fn train_test_split() -> (Vec<Design>, Vec<Design>) {
    const TEST: [&str; 7] = [
        "tinyrocket",
        "core",
        "b04_ctrl",
        "b11_scram",
        "oc_crc16",
        "oc_alu32",
        "nocrouter",
    ];
    let (test, train): (Vec<Design>, Vec<Design>) = corpus()
        .into_iter()
        .partition(|d| TEST.contains(&d.name.as_str()));
    (train, test)
}

/// Fetches one design by name.
pub fn design(name: &str) -> Option<Design> {
    corpus().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_synth::{optimize, scpr};

    #[test]
    fn corpus_has_22_valid_designs() {
        let c = corpus();
        assert_eq!(c.len(), 22);
        for d in &c {
            assert!(d.graph.is_valid(), "{}: {:?}", d.name, d.graph.validate());
        }
        // family sizes match Table I
        assert_eq!(c.iter().filter(|d| d.family == Family::Itc99).count(), 6);
        assert_eq!(
            c.iter().filter(|d| d.family == Family::OpenCores).count(),
            8
        );
        assert_eq!(c.iter().filter(|d| d.family == Family::Chipyard).count(), 8);
    }

    #[test]
    fn names_are_unique() {
        let c = corpus();
        let mut names: Vec<&str> = c.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22);
    }

    #[test]
    fn split_is_15_7_and_disjoint() {
        let (train, test) = train_test_split();
        assert_eq!(train.len(), 15);
        assert_eq!(test.len(), 7);
        for t in &test {
            assert!(!train.iter().any(|d| d.name == t.name));
        }
        assert!(test.iter().any(|d| d.name == "tinyrocket"));
        assert!(test.iter().any(|d| d.name == "core"));
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = corpus();
        let b = corpus();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph, "{}", x.name);
        }
    }

    #[test]
    fn real_designs_have_realistic_scpr() {
        // The paper: "the SCPR is usually between 70% to 100% in real
        // designs" — our corpus must reproduce that band.
        for d in corpus() {
            let res = optimize(&d.graph);
            let r = scpr(&res);
            assert!(
                r >= 0.7,
                "{} has unrealistic SCPR {r:.2} (seq {} -> {})",
                d.name,
                res.stats.seq_bits_before,
                res.stats.seq_bits_after
            );
        }
    }

    #[test]
    fn designs_contain_register_cycles() {
        // DCG property: every design must have at least one cycle (all
        // through registers).
        use syncircuit_graph::algo::tarjan_scc;
        for d in corpus() {
            let has_cycle = tarjan_scc(&d.graph).iter().any(|scc| scc.len() > 1)
                || d.graph.node_ids().any(|n| d.graph.has_edge(n, n));
            assert!(has_cycle, "{} has no feedback cycle", d.name);
        }
    }

    #[test]
    fn design_lookup() {
        assert!(design("tinyrocket").is_some());
        assert!(design("nonexistent").is_none());
    }
}
