//! Figure 4 — logic-redundancy refinement.
//!
//! (a) SCPR of the five most-redundant `G_val` examples before
//! optimization, after random search, and after MCTS (paper: no-opt
//! < 20%, MCTS pushes past 50% on some designs).
//! (b) Distribution of registers preserved after synthesis across the
//! synthetic batch under the three treatments (paper: MCTS ≫ random ≫
//! none).

use syncircuit_bench::{banner, cell, five_number_summary, generate_set, train_syncircuit};
use syncircuit_core::{
    optimize_random_walk, optimize_registers, ConeSelection, ExactSynthReward, GenRequest,
    MctsConfig,
};
use syncircuit_graph::CircuitGraph;
use syncircuit_synth::{optimize, scpr};

const BATCH: usize = 8;
const NODES: usize = 120;

fn scpr_of(g: &CircuitGraph) -> f64 {
    scpr(&optimize(g))
}

fn main() {
    banner("Figure 4: SCPR refinement", "paper §VII-B.2 Fig. 4");
    println!("training SynCircuit (w/o Phase 3) and generating {BATCH} G_val designs...");
    let syn = train_syncircuit(false);
    let gvals = generate_set(BATCH, |s| {
        syn.generate_one(&GenRequest::nodes(NODES).seeded(s))
            .map(|g| g.gval)
            .ok()
    });

    let mcts_cfg = MctsConfig {
        simulations: 25,
        max_depth: 5,
        actions_per_expansion: 8,
        ..MctsConfig::default()
    };
    let reward = ExactSynthReward::new();

    struct Row {
        name: String,
        before: f64,
        random: f64,
        mcts: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut dist_before = Vec::new();
    let mut dist_random = Vec::new();
    let mut dist_mcts = Vec::new();
    let mut budget_report = 0usize;

    for (k, gval) in gvals.iter().enumerate() {
        let before = scpr_of(gval);
        let (mcts_opt, outcomes) = optimize_registers(gval, &reward, &mcts_cfg, ConeSelection::All);
        // The paper's ablation randomly alters edges of the whole G_val
        // (no cone curriculum) with the same total evaluation budget.
        let total_budget = outcomes
            .iter()
            .map(|o| o.evaluations)
            .sum::<usize>()
            .max(10);
        budget_report = total_budget;
        let rand_outcome = optimize_random_walk(
            gval,
            None,
            true,
            &reward,
            total_budget,
            mcts_cfg.max_depth * 4,
            17 + k as u64,
        );
        let rand_opt = rand_outcome.best;
        let random = scpr_of(&rand_opt);
        let mcts = scpr_of(&mcts_opt);
        dist_before.push(optimize(gval).stats.seq_bits_after as f64);
        dist_random.push(optimize(&rand_opt).stats.seq_bits_after as f64);
        dist_mcts.push(optimize(&mcts_opt).stats.seq_bits_after as f64);
        rows.push(Row {
            name: format!("synth_{k:02}"),
            before,
            random,
            mcts,
        });
    }
    println!(
        "total evaluation budget per design (matched for random): {budget_report} synthesis calls"
    );

    // (a): the 5 worst-redundancy examples
    rows.sort_by(|a, b| a.before.total_cmp(&b.before));
    println!("\n(a) SCPR on the 5 most redundant G_val examples:");
    println!(
        "{:<10} {:>10} {:>12} {:>10}",
        "design", "no opt", "random opt", "MCTS opt"
    );
    for r in rows.iter().take(5) {
        println!(
            "{:<10} {:>10} {:>12} {:>10}",
            r.name,
            cell(r.before),
            cell(r.random),
            cell(r.mcts)
        );
    }

    // (b): distribution of preserved register bits
    println!("\n(b) registers preserved after synthesis (bits), five-number summaries:");
    for (name, dist) in [
        ("no opt", &dist_before),
        ("random opt", &dist_random),
        ("MCTS opt", &dist_mcts),
    ] {
        let s = five_number_summary(dist);
        println!(
            "{:<12} min {:>6}  q1 {:>6}  med {:>6}  q3 {:>6}  max {:>6}",
            name,
            cell(s[0]),
            cell(s[1]),
            cell(s[2]),
            cell(s[3]),
            cell(s[4])
        );
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nshape check: mean preserved bits — MCTS {} vs random {} vs none {} (expect MCTS ≥ random ≥ none)",
        cell(mean(&dist_mcts)),
        cell(mean(&dist_random)),
        cell(mean(&dist_before))
    );
    let mean_scpr_mcts = mean(&rows.iter().map(|r| r.mcts).collect::<Vec<_>>());
    let mean_scpr_rand = mean(&rows.iter().map(|r| r.random).collect::<Vec<_>>());
    let mean_scpr_before = mean(&rows.iter().map(|r| r.before).collect::<Vec<_>>());
    println!(
        "mean SCPR: {} (no opt) -> {} (random) -> {} (MCTS)",
        cell(mean_scpr_before),
        cell(mean_scpr_rand),
        cell(mean_scpr_mcts)
    );
}
