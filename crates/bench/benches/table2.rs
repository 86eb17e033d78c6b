//! Table II — structural-property similarity with the real evaluation
//! designs (`tinyrocket` and `core`).
//!
//! Six generators (four baselines plus the SynCircuit w/o-diffusion
//! ablation and full SynCircuit) each produce a set of graphs conditioned on the
//! evaluation design's node count; the table reports 1-Wasserstein
//! distances for out-degree / clustering / orbit distributions and
//! |E[M(Ĝ)/M(G)] − 1| for triangles, ĥ(A,Y) and ĥ(A²,Y). Expected shape
//! (paper): SynCircuit w/ diff wins most columns; w/o diff clearly worse;
//! the direction-blind one-shot baselines trail on degree realism.

use syncircuit_baselines::{GraphMaker, SparseDigress, SparseDigressConfig};
use syncircuit_bench::{banner, cell, generate_set, train_dvae, train_graphrnn, train_syncircuit};
use syncircuit_bench::{train_graphs, EXPERIMENT_SEED};
use syncircuit_core::GenRequest;
use syncircuit_datasets::design;
use syncircuit_graph::CircuitGraph;
use syncircuit_metrics::{compare_against_real, StructuralComparison};

const SAMPLES_PER_MODEL: usize = 5;

fn main() {
    banner("Table II: structural similarity", "paper §VII-B.1 Table II");
    let evals = [
        design("tinyrocket").expect("corpus design"),
        design("core").expect("corpus design"),
    ];

    println!("training generators on the 15-design split...");
    let syn = train_syncircuit(false); // structure metrics use G_val
    let graphrnn = train_graphrnn();
    let dvae = train_dvae();
    let graphmaker = GraphMaker::train(&train_graphs(), EXPERIMENT_SEED);
    let sparsedigress = SparseDigress::train(
        &train_graphs(),
        SparseDigressConfig::standard(),
        EXPERIMENT_SEED,
    );

    type Generator<'a> = Box<dyn Fn(usize, u64) -> Option<CircuitGraph> + 'a>;
    let mut rows: Vec<(&str, Vec<StructuralComparison>)> = Vec::new();
    let models: Vec<(&str, Generator)> = vec![
        ("GraphRNN", Box::new(|n, s| graphrnn.generate(n, s).ok())),
        ("DVAE", Box::new(|n, s| dvae.generate(n, s).ok())),
        (
            "GraphMaker-v",
            Box::new(|n, s| graphmaker.generate(n, s).ok()),
        ),
        (
            "SparseDigress-v",
            Box::new(|n, s| sparsedigress.generate(n, s).ok()),
        ),
        (
            "SynCircuit w/o diff",
            Box::new(|n, s| {
                syn.generate_one(
                    &GenRequest::nodes(n)
                        .seeded(s)
                        .without_diffusion()
                        .optimize(false),
                )
                .map(|g| g.graph)
                .ok()
            }),
        ),
        (
            "SynCircuit w/ diff",
            Box::new(|n, s| {
                syn.generate_one(&GenRequest::nodes(n).seeded(s))
                    .map(|g| g.gval)
                    .ok()
            }),
        ),
    ];

    for (name, gen) in &models {
        let mut comparisons = Vec::new();
        for eval in &evals {
            let n = eval.graph.node_count();
            let set = generate_set(SAMPLES_PER_MODEL, |s| gen(n, s));
            assert!(!set.is_empty(), "{name} produced nothing");
            comparisons.push(compare_against_real(&eval.graph, &set));
        }
        rows.push((name, comparisons));
    }

    // print: metric blocks with one column per eval design
    println!(
        "\n{:<20} {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}",
        "",
        "OutDeg",
        "",
        "Cluster",
        "",
        "Orbit",
        "",
        "|Tri-1|",
        "",
        "|h(A)-1|",
        "",
        "|h(A2)-1|",
        ""
    );
    println!(
        "{:<20} {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}",
        "Model",
        "tinyrkt",
        "core",
        "tinyrkt",
        "core",
        "tinyrkt",
        "core",
        "tinyrkt",
        "core",
        "tinyrkt",
        "core",
        "tinyrkt",
        "core"
    );
    for (name, comps) in &rows {
        let d: Vec<[f64; 3]> = comps.iter().map(|c| c.scalar_deviations()).collect();
        println!(
            "{:<20} {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}",
            name,
            cell(comps[0].w1_out_degree),
            cell(comps[1].w1_out_degree),
            cell(comps[0].w1_clustering),
            cell(comps[1].w1_clustering),
            cell(comps[0].w1_orbit),
            cell(comps[1].w1_orbit),
            cell(d[0][0]),
            cell(d[1][0]),
            cell(d[0][1]),
            cell(d[1][1]),
            cell(d[0][2]),
            cell(d[1][2]),
        );
    }

    // shape check: who wins each of the 12 cells
    let mut syn_wins = 0usize;
    let total_cells = 12usize;
    for col in 0..total_cells {
        let value = |comps: &Vec<StructuralComparison>| -> f64 {
            let (design_idx, metric_idx) = (col % 2, col / 2);
            let c = &comps[design_idx];
            match metric_idx {
                0 => c.w1_out_degree,
                1 => c.w1_clustering,
                2 => c.w1_orbit,
                k => c.scalar_deviations()[k - 3],
            }
        };
        let best = rows
            .iter()
            .min_by(|a, b| value(&a.1).total_cmp(&value(&b.1)))
            .map(|(n, _)| *n)
            .unwrap_or("");
        if best == "SynCircuit w/ diff" {
            syn_wins += 1;
        }
    }
    println!(
        "\nSynCircuit w/ diff wins {syn_wins}/{total_cells} cells (paper: best in 5/6 metric families)"
    );
    let agg_with: f64 = rows
        .last()
        .map(|(_, c)| c[0].aggregate() + c[1].aggregate())
        .unwrap_or(0.0);
    let agg_without: f64 =
        rows[rows.len() - 2].1[0].aggregate() + rows[rows.len() - 2].1[1].aggregate();
    println!(
        "ablation check: aggregate(w/ diff) = {} vs aggregate(w/o diff) = {} (lower is better)",
        cell(agg_with),
        cell(agg_without)
    );
}
