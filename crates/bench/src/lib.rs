//! Shared setup for the experiment harnesses that regenerate every table
//! and figure of the paper (see `benches/`). Each bench target is a
//! standalone binary (`harness = false`) that prints the corresponding
//! table rows; `cargo bench --workspace` reproduces the full evaluation.
//!
//! Absolute numbers will not match the paper (the substrate is a
//! synthesis *simulator* and the corpus is scaled down); the reproduction
//! target is the qualitative shape — see `EXPERIMENTS.md`.

#![warn(missing_docs)]

use syncircuit_baselines::{Dvae, DvaeConfig, GraphRnn, GraphRnnConfig};
use syncircuit_core::{
    ConeSelection, DecodeMode, DiffusionConfig, MctsConfig, PipelineConfig, RefineConfig,
    RewardKind, SynCircuit,
};
use syncircuit_datasets::{train_test_split, Design};
use syncircuit_graph::CircuitGraph;

/// Master seed used by every experiment (printed for reproducibility).
pub const EXPERIMENT_SEED: u64 = 0xDAC2025;

/// The paper's 15/7 train/test design split.
pub fn split() -> (Vec<Design>, Vec<Design>) {
    train_test_split()
}

/// Training graphs only.
pub fn train_graphs() -> Vec<CircuitGraph> {
    split().0.into_iter().map(|d| d.graph).collect()
}

/// Experiment-scale SynCircuit configuration: large enough to learn the
/// corpus, small enough for CPU benches.
pub fn syncircuit_config(optimize: bool) -> PipelineConfig {
    PipelineConfig::builder()
        .diffusion(DiffusionConfig {
            hidden: 32,
            layers: 3,
            steps: 6,
            epochs: 60,
            lr: 5e-3,
            neg_ratio: 2.0,
            decode: DecodeMode::Sparse {
                candidates_per_node: 12,
            },
            grad_clip: 5.0,
        })
        .refine(RefineConfig::default())
        .mcts(MctsConfig {
            simulations: 60,
            max_depth: 6,
            actions_per_expansion: 10,
            ..MctsConfig::default()
        })
        .optimize_redundancy(optimize)
        .cone_selection(ConeSelection::All)
        .reward(RewardKind::Discriminator { epochs: 300 })
        .seed(EXPERIMENT_SEED)
        .build()
        .expect("experiment configuration is valid")
}

/// Trains the SynCircuit pipeline on the 15 training designs.
pub fn train_syncircuit(optimize: bool) -> SynCircuit {
    SynCircuit::fit(&train_graphs(), syncircuit_config(optimize))
        .expect("corpus training cannot fail")
}

/// Trains the GraphRNN baseline on the training designs.
pub fn train_graphrnn() -> GraphRnn {
    GraphRnn::train(&train_graphs(), GraphRnnConfig::standard(), EXPERIMENT_SEED)
}

/// Trains the D-VAE baseline on the training designs.
pub fn train_dvae() -> Dvae {
    Dvae::train(&train_graphs(), DvaeConfig::standard(), EXPERIMENT_SEED)
}

/// Generates `count` circuits from a fallible per-seed generator,
/// retrying failed seeds (each generator documents its failure modes).
pub fn generate_set(
    count: usize,
    mut gen: impl FnMut(u64) -> Option<CircuitGraph>,
) -> Vec<CircuitGraph> {
    let mut out = Vec::with_capacity(count);
    let mut seed = EXPERIMENT_SEED;
    let mut attempts = 0;
    while out.len() < count && attempts < count * 20 {
        if let Some(g) = gen(seed) {
            out.push(g);
        }
        seed = seed.wrapping_add(1);
        attempts += 1;
    }
    out
}

/// Formats a float for table cells (3 significant-ish digits).
pub fn cell(v: f64) -> String {
    if v.is_nan() {
        "NA".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Prints a header banner for an experiment binary.
pub fn banner(title: &str, paper_ref: &str) {
    println!("\n=== {title} ===");
    println!("(reproduces {paper_ref}; seed 0x{EXPERIMENT_SEED:X})");
}

/// Five-number summary of a sample (min, q1, median, q3, max).
pub fn five_number_summary(values: &[f64]) -> [f64; 5] {
    if values.is_empty() {
        return [f64::NAN; 5];
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        let idx = p * (v.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            v[lo]
        } else {
            v[lo] + (v[hi] - v[lo]) * (idx - lo as f64)
        }
    };
    [q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = five_number_summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s, [1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn cell_formats() {
        assert_eq!(cell(f64::NAN), "NA");
        assert_eq!(cell(0.1234), "0.123");
        assert_eq!(cell(12.34), "12.34");
        assert_eq!(cell(1234.0), "1234");
    }

    #[test]
    fn generate_set_retries() {
        let got = generate_set(3, |s| {
            (s % 2 == 0).then(|| CircuitGraph::new(format!("{s}")))
        });
        assert_eq!(got.len(), 3);
    }
}
