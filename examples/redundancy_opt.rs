//! Redundancy optimization in isolation (the paper's Phase 3): generate
//! one unoptimized synthetic design, then compare MCTS against random
//! search on its register cones under the same evaluation budget.
//!
//! ```sh
//! cargo run --release --example redundancy_opt
//! ```

use syncircuit::core::{optimize_cone_mcts, optimize_random_walk, ExactSynthReward, MctsConfig};
use syncircuit::graph::cone::{all_driving_cones, cone_circuit};
use syncircuit::synth::{optimize, scpr};
use syncircuit::{GenRequest, PipelineConfig, SynCircuit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus: Vec<_> = syncircuit::datasets::corpus()
        .into_iter()
        .take(5)
        .map(|d| d.graph)
        .collect();
    let config = PipelineConfig::builder()
        .optimize_redundancy(false) // we optimize manually below
        .seed(7)
        .build()?;
    let model = SynCircuit::fit(&corpus, config)?;
    let gval = model.generate_one(&GenRequest::nodes(60))?.gval;
    println!(
        "G_val: {} nodes, SCPR {:.2} (registers get slaughtered by synthesis)",
        gval.node_count(),
        scpr(&optimize(&gval))
    );

    let reward = ExactSynthReward::new();
    let mcts_cfg = MctsConfig {
        simulations: 80,
        max_depth: 6,
        ..MctsConfig::default()
    };

    println!(
        "\n{:<10} {:>7} {:>12} {:>12} {:>10}",
        "cone", "size", "PCS before", "PCS random", "PCS MCTS"
    );
    for (k, cone) in all_driving_cones(&gval).into_iter().enumerate() {
        let cc = cone_circuit(&gval, &cone);
        if cc.circuit.edge_count() < 3 {
            continue;
        }
        let mcts = optimize_cone_mcts(&cc.circuit, &reward, &mcts_cfg);
        let random = optimize_random_walk(
            &cc.circuit,
            None,
            false,
            &reward,
            mcts.evaluations,
            mcts_cfg.max_depth,
            99 + k as u64,
        );
        println!(
            "{:<10} {:>7} {:>12.3} {:>12.3} {:>10.3}",
            format!("reg{k}"),
            cc.circuit.node_count(),
            mcts.initial_reward,
            random.best_reward,
            mcts.best_reward,
        );
    }
    println!("\nMCTS should dominate random search at equal synthesis budget.");
    Ok(())
}
