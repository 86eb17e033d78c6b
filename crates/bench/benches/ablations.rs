//! Ablation studies for the design choices called out in DESIGN.md,
//! beyond the paper's own ablations (w/o diff, w/o opt):
//!
//! 1. **Sparse vs dense decoding** — the sparse candidate decoder must
//!    track the dense reference in structural quality at a fraction of
//!    the scored pairs.
//! 2. **Out-degree guidance** — disabling it should visibly worsen the
//!    out-degree Wasserstein distance (the paper credits degree realism
//!    to this mechanism).
//! 3. **Discriminator vs exact reward** — the trained PCS discriminator
//!    must track exact synthesis well enough for MCTS to still improve
//!    SCPR.

use syncircuit_bench::{banner, cell, generate_set, train_graphs, EXPERIMENT_SEED};
use syncircuit_core::{
    DecodeMode, ExactSynthReward, GenRequest, PcsDiscriminator, RewardModel, SynCircuit,
};
use syncircuit_graph::cone::{all_driving_cones, cone_circuit};
use syncircuit_metrics::compare_against_real;
use syncircuit_synth::{optimize, scpr};

fn main() {
    banner("Ablations: design choices", "DESIGN.md §6");
    let corpus = train_graphs();
    let eval = syncircuit_datasets::design("tinyrocket").expect("corpus design");
    let n = eval.graph.node_count();

    // --- 1. sparse vs dense decoding ---
    println!("\n(1) sparse vs dense decoding (structure vs real `tinyrocket`):");
    for (name, decode) in [
        ("dense", DecodeMode::Dense),
        (
            "sparse(12)",
            DecodeMode::Sparse {
                candidates_per_node: 12,
            },
        ),
        (
            "sparse(4)",
            DecodeMode::Sparse {
                candidates_per_node: 4,
            },
        ),
    ] {
        let base = syncircuit_bench::syncircuit_config(false);
        let mut diffusion = base.diffusion().clone();
        diffusion.decode = decode;
        diffusion.epochs = 40;
        let cfg = base
            .into_builder()
            .diffusion(diffusion)
            .build()
            .expect("valid config");
        let model = SynCircuit::fit(&corpus, cfg).expect("fit");
        let set = generate_set(4, |s| {
            model
                .generate_one(&GenRequest::nodes(n).seeded(s))
                .map(|g| g.gval)
                .ok()
        });
        let c = compare_against_real(&eval.graph, &set);
        println!(
            "  {:<12} W1 deg {:>7}  cluster {:>7}  orbit {:>8}  aggregate {:>7}",
            name,
            cell(c.w1_out_degree),
            cell(c.w1_clustering),
            cell(c.w1_orbit),
            cell(c.aggregate())
        );
    }

    // --- 2. out-degree guidance ---
    println!("\n(2) out-degree guidance in Phase 2:");
    for (name, guidance) in [("with guidance", true), ("without", false)] {
        let base = syncircuit_bench::syncircuit_config(false);
        let mut refine = base.refine().clone();
        refine.degree_guidance = guidance;
        let mut diffusion = base.diffusion().clone();
        diffusion.epochs = 40;
        let cfg = base
            .into_builder()
            .refine(refine)
            .diffusion(diffusion)
            .build()
            .expect("valid config");
        let model = SynCircuit::fit(&corpus, cfg).expect("fit");
        let set = generate_set(4, |s| {
            model
                .generate_one(&GenRequest::nodes(n).seeded(s))
                .map(|g| g.gval)
                .ok()
        });
        let c = compare_against_real(&eval.graph, &set);
        println!(
            "  {:<14} W1 out-degree {:>7} (lower = closer to the real scale-free profile)",
            name,
            cell(c.w1_out_degree)
        );
    }

    // --- 3. discriminator fidelity ---
    println!("\n(3) PCS discriminator vs exact synthesis reward:");
    let mut samples = Vec::new();
    for g in &corpus {
        samples.push(g.clone());
        for cone in all_driving_cones(g) {
            samples.push(cone_circuit(g, &cone).circuit);
        }
    }
    let disc = PcsDiscriminator::train(&samples, 400, EXPERIMENT_SEED).expect("non-empty cones");
    let err = disc.validate(&samples);
    println!(
        "  mean relative PCS error on the training corpus: {}",
        cell(err)
    );

    // rank agreement on held-out synthetic designs
    let base = syncircuit_bench::syncircuit_config(false);
    let mut diffusion = base.diffusion().clone();
    diffusion.epochs = 40;
    let cfg = base
        .into_builder()
        .diffusion(diffusion)
        .build()
        .expect("valid config");
    let model = SynCircuit::fit(&corpus, cfg).expect("fit");
    let designs = generate_set(6, |s| {
        model
            .generate_one(&GenRequest::nodes(60).seeded(s))
            .map(|g| g.gval)
            .ok()
    });
    let exact = ExactSynthReward::new();
    let exact_scores: Vec<f64> = designs.iter().map(|g| exact.pcs(g)).collect();
    let disc_scores: Vec<f64> = designs.iter().map(|g| disc.pcs(g)).collect();
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..designs.len() {
        for j in (i + 1)..designs.len() {
            if (exact_scores[i] - exact_scores[j]).abs() < 1e-9 {
                continue;
            }
            total += 1;
            if (exact_scores[i] > exact_scores[j]) == (disc_scores[i] > disc_scores[j]) {
                agree += 1;
            }
        }
    }
    println!(
        "  pairwise rank agreement with exact synthesis on synthetic designs: {agree}/{total}"
    );

    // SCPR via discriminator-guided MCTS vs exact-guided MCTS
    use syncircuit_core::{optimize_registers, ConeSelection, MctsConfig};
    let mcts = MctsConfig {
        simulations: 25,
        max_depth: 5,
        ..MctsConfig::default()
    };
    let gval = &designs[0];
    let before = scpr(&optimize(gval));
    let (opt_exact, _) = optimize_registers(gval, &exact, &mcts, ConeSelection::All);
    let (opt_disc, _) = optimize_registers(gval, &disc, &mcts, ConeSelection::All);
    println!(
        "  SCPR: no-opt {} -> exact-reward MCTS {} vs discriminator-reward MCTS {}",
        cell(before),
        cell(scpr(&optimize(&opt_exact))),
        cell(scpr(&optimize(&opt_disc)))
    );
}
