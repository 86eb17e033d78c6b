//! Data augmentation for RTL-stage PPA prediction (the paper's headline
//! application, Table III): train a slack/WNS/TNS/area predictor on a
//! small real training set, then add SynCircuit-generated designs and
//! watch the metrics move.
//!
//! ```sh
//! cargo run --release --example augment_ppa
//! ```

use syncircuit::ppa::{label_all, run_task, Target};
use syncircuit::synth::LabelConfig;
use syncircuit::{GenRequest, PipelineConfig, SynCircuit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test) = syncircuit::datasets::train_test_split();
    let train_graphs: Vec<_> = train.into_iter().map(|d| d.graph).collect();
    let test_graphs: Vec<_> = test.into_iter().map(|d| d.graph).collect();

    let label_cfg = LabelConfig::default();
    let base = label_all(&train_graphs[..5], &label_cfg);
    let test_set = label_all(&test_graphs, &label_cfg);

    println!("baseline: 5 real designs, no augmentation");
    let before = run_task(&base, &test_set, 1.0);

    println!("training SynCircuit on the full 15-design split...");
    let config = PipelineConfig::builder().seed(11).build()?;
    let model = SynCircuit::fit(&train_graphs, config)?;
    println!("generating 10 synthetic designs from a lazy stream...");
    let synthetic: Vec<_> = model
        .stream(GenRequest::nodes(70).seeded(0))
        .take(100)
        .filter_map(|r| r.ok().map(|g| g.graph))
        .take(10)
        .collect();
    let augmentation = label_all(&synthetic, &label_cfg);
    let mut augmented_train = base.clone();
    augmented_train.extend(augmentation);
    let after = run_task(&augmented_train, &test_set, 1.0);

    println!(
        "\n{:<16} {:>17} {:>17}",
        "target", "base R/MAPE/RRSE", "augmented"
    );
    for t in Target::ALL {
        let fmt = |r: Option<&syncircuit::ppa::TargetScores>| match r {
            Some(s) => format!("{:.2}/{:.0}%/{:.2}", s.r, s.mape * 100.0, s.rrse),
            None => "NA".to_string(),
        };
        println!(
            "{:<16} {:>17} {:>17}",
            t.name(),
            fmt(before.get(&t)),
            fmt(after.get(&t))
        );
    }
    println!("\n(lower MAPE/RRSE and R closer to 1 are better; the full Table III\n experiment lives in `cargo bench -p syncircuit-bench --bench table3`)");
    Ok(())
}
