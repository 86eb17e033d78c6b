//! The paper's end goal — "enable big data in circuits": mass-produce
//! synthetic RTL *in parallel* and export it as a ready-to-use dataset
//! (Verilog file per design + a JSON manifest with synthesis/timing
//! labels). The requests fan out across scoped worker threads through
//! [`SynCircuit::generate_batch`]; results are byte-identical to a
//! sequential run under the same per-request seeds.
//!
//! ```sh
//! cargo run --release --example dataset_export -- [COUNT] [OUT_DIR]
//! ```

use std::fs;
use std::path::PathBuf;
use syncircuit::hdl;
use syncircuit::synth::{label_design, LabelConfig};
use syncircuit::{GenRequest, PipelineConfig, SynCircuit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let count: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let out_dir = PathBuf::from(
        args.next()
            .unwrap_or_else(|| "target/synthetic_dataset".to_string()),
    );
    fs::create_dir_all(&out_dir)?;

    let (train, _) = syncircuit::datasets::train_test_split();
    let corpus: Vec<_> = train.into_iter().map(|d| d.graph).collect();
    println!("training SynCircuit on {} real designs...", corpus.len());
    let config = PipelineConfig::builder().seed(2025).build()?;
    let model = SynCircuit::fit(&corpus, config)?;

    // One request per design, sizes cycled, seeds distinct — fanned out
    // across worker threads wave by wave, retrying failed seeds with
    // fresh ones until `count` designs landed (or the seed budget, 20×
    // the requested count, is exhausted).
    let sizes = [40usize, 60, 80, 110];
    println!(
        "generating {count} designs across {} cores...",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let label_cfg = LabelConfig::default();
    let mut manifest = Vec::new();
    let mut next_seed = 0u64;
    while manifest.len() < count && next_seed < count as u64 * 20 {
        let wave: Vec<GenRequest> = (0..(count - manifest.len()) as u64)
            .map(|k| {
                let seed = next_seed + k;
                GenRequest::nodes(sizes[(seed as usize) % sizes.len()]).seeded(seed + 1)
            })
            .collect();
        next_seed += wave.len() as u64;
        for result in model.generate_batch(&wave) {
            if manifest.len() >= count {
                break;
            }
            let Ok(item) = result else { continue };
            let graph = item.graph;
            let verilog = hdl::emit(&graph)?;
            let name = format!("syn_{:04}", manifest.len());
            fs::write(out_dir.join(format!("{name}.v")), &verilog)?;
            let (labels, synth, _) = label_design(&graph, &label_cfg);
            manifest.push(serde_json::json!({
                "name": name,
                "seed": item.seed,
                "nodes": graph.node_count(),
                "edges": graph.edge_count(),
                "register_bits": graph.register_bits(),
                "area": labels.area,
                "gates": labels.gates,
                "wns": labels.wns,
                "tns": labels.tns,
                "scpr": labels.scpr,
                "clock_period": labels.clock_period,
                "critical_delay": labels.critical_delay,
                "post_synth_nodes": synth.stats.nodes_after,
            }));
            println!(
                "  {name}: {} nodes, SCPR {:.2}, area {:.0}",
                graph.node_count(),
                labels.scpr,
                labels.area
            );
        }
    }
    fs::write(
        out_dir.join("manifest.json"),
        serde_json::to_string_pretty(&manifest)?,
    )?;
    println!(
        "\nwrote {} designs + manifest.json to {}",
        manifest.len(),
        out_dir.display()
    );
    Ok(())
}
