//! Table III — downstream PPA-prediction with synthetic augmentation.
//!
//! Two base training regimes: (a) all 15 real training designs, (b) a
//! 5-design subset. Each is augmented with 25 synthetic designs from
//! GraphRNN, DVAE, SynCircuit w/o opt and SynCircuit w/ opt; models are
//! evaluated on the 7 held-out real designs for register slack, WNS, TNS
//! and area (R / MAPE / RRSE). Expected shape (paper): SynCircuit w/ opt
//! augmentation helps (especially with 5 base designs); the DAG baselines
//! and the unoptimized ablation can hurt.

use syncircuit_bench::{
    banner, cell, generate_set, split, train_dvae, train_graphrnn, train_syncircuit,
};
use syncircuit_core::GenRequest;
use syncircuit_graph::CircuitGraph;
use syncircuit_ppa::{label_all, run_task, LabeledDesign, PpaReport, Target};
use syncircuit_synth::LabelConfig;

const AUG_SIZE: usize = 25;
/// Synthetic node budgets cycle through the corpus size range so the
/// augmentation matches the real designs' size distribution.
const NODE_BUDGETS: [usize; 6] = [40, 60, 80, 110, 140, 170];
const LAMBDA: f64 = 1.0;

fn budget_for(seed: u64) -> usize {
    NODE_BUDGETS[(seed % NODE_BUDGETS.len() as u64) as usize]
}

fn report_row(name: &str, report: &PpaReport) {
    print!("{name:<22}");
    for target in Target::ALL {
        match report.get(&target) {
            Some(s) => print!(
                " | {:>6} {:>6} {:>6}",
                cell(s.r),
                format!("{:.0}%", s.mape * 100.0),
                cell(s.rrse)
            ),
            None => print!(" | {:>6} {:>6} {:>6}", "NA", "NA", "NA"),
        }
    }
    println!();
}

fn main() {
    banner(
        "Table III: PPA prediction with augmentation",
        "paper §VII-B.3 Table III",
    );
    let (train_designs, test_designs) = split();
    let label_cfg = LabelConfig::default();
    let train_all: Vec<LabeledDesign> = label_all(
        &train_designs
            .iter()
            .map(|d| d.graph.clone())
            .collect::<Vec<_>>(),
        &label_cfg,
    );
    let test: Vec<LabeledDesign> = label_all(
        &test_designs
            .iter()
            .map(|d| d.graph.clone())
            .collect::<Vec<_>>(),
        &label_cfg,
    );

    println!("training generators...");
    let syn_opt = train_syncircuit(true);
    let syn_noopt = train_syncircuit(false);
    let graphrnn = train_graphrnn();
    let dvae = train_dvae();

    println!("generating {AUG_SIZE} designs per augmentation set...");
    let sets: Vec<(&str, Vec<CircuitGraph>)> = vec![
        (
            "GraphRNN",
            generate_set(AUG_SIZE, |s| graphrnn.generate(budget_for(s), s).ok()),
        ),
        (
            "DVAE",
            generate_set(AUG_SIZE, |s| dvae.generate(budget_for(s), s).ok()),
        ),
        (
            "SynCircuit w/o opt",
            generate_set(AUG_SIZE, |s| {
                syn_noopt
                    .generate_one(&GenRequest::nodes(budget_for(s)).seeded(s))
                    .map(|g| g.gval)
                    .ok()
            }),
        ),
        (
            "SynCircuit w/ opt",
            generate_set(AUG_SIZE, |s| {
                syn_opt
                    .generate_one(&GenRequest::nodes(budget_for(s)).seeded(s))
                    .map(|g| g.graph)
                    .ok()
            }),
        ),
    ];
    let labeled_sets: Vec<(&str, Vec<LabeledDesign>)> = sets
        .iter()
        .map(|(name, gs)| (*name, label_all(gs, &label_cfg)))
        .collect();

    for (label, base_count) in [
        ("(a) 15 real base designs", 15usize),
        ("(b) 5 real base designs", 5),
    ] {
        let base: Vec<LabeledDesign> = train_all.iter().take(base_count).cloned().collect();
        println!("\n{label}:");
        print!("{:<22}", "Model");
        for t in Target::ALL {
            print!(
                " | {:>6} {:>6} {:>6}",
                t.name().split(' ').next().unwrap_or(""),
                "MAPE",
                "RRSE"
            );
        }
        println!("   (first col per block = R)");

        let basic = run_task(&base, &test, LAMBDA);
        report_row("Basic (no pseudo)", &basic);
        let mut results: Vec<(&str, PpaReport)> = vec![("Basic", basic)];
        for (name, aug) in &labeled_sets {
            let mut train: Vec<LabeledDesign> = base.clone();
            train.extend(aug.iter().cloned());
            let report = run_task(&train, &test, LAMBDA);
            report_row(name, &report);
            results.push((name, report));
        }

        // Shape check: SynCircuit w/ opt should not be worse than the
        // basic model on RRSE for most targets.
        let basic = &results[0].1;
        let with_opt = &results.last().expect("non-empty").1;
        let mut better = 0;
        let mut total = 0;
        for t in Target::ALL {
            if let (Some(b), Some(w)) = (basic.get(&t), with_opt.get(&t)) {
                total += 1;
                if w.rrse <= b.rrse + 1e-9 {
                    better += 1;
                }
            }
        }
        println!("shape check: SynCircuit w/ opt matches or beats basic RRSE on {better}/{total} targets");
    }
}
