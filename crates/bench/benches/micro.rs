//! Criterion micro-benchmarks: performance guardrails for the hot paths
//! (denoising step, validity refinement, MCTS cone optimization,
//! synthesis pass, STA, orbit counting).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use syncircuit_core::{
    optimize_cone_mcts, optimize_registers, ConeSelection, DiffusionConfig, DiffusionModel,
    ExactSynthReward, GenRequest, IncrementalConeReward, MctsConfig, PipelineConfig, RefineConfig,
    RewardKind, RewardModel, SynCircuit,
};
use syncircuit_datasets::design;
use syncircuit_graph::cone::{all_driving_cones, cone_circuit};
use syncircuit_graph::stats::StructuralStats;
use syncircuit_synth::{optimize, timing_analysis};

fn bench_synthesis(c: &mut Criterion) {
    let g = design("tinyrocket").expect("corpus design").graph;
    c.bench_function("synthesis_optimize_tinyrocket", |b| {
        b.iter(|| optimize(black_box(&g)))
    });
}

fn bench_sta(c: &mut Criterion) {
    let g = design("tinyrocket").expect("corpus design").graph;
    let netlist = optimize(&g).netlist;
    c.bench_function("sta_tinyrocket", |b| {
        b.iter(|| timing_analysis(black_box(&netlist), 2.0))
    });
}

fn bench_stats(c: &mut Criterion) {
    let g = design("tinyrocket").expect("corpus design").graph;
    c.bench_function("structural_stats_tinyrocket", |b| {
        b.iter(|| StructuralStats::compute(black_box(&g)))
    });
    let g = design("oc_fifo").expect("corpus design").graph;
    c.bench_function("structural_stats_oc_fifo", |b| {
        b.iter(|| StructuralStats::compute(black_box(&g)))
    });
}

/// Reverse-diffusion sampling on the serving path: warm per-session
/// [`SamplerScratch`] (what `Generator` streams and batch workers hold),
/// at the historical 36-node size plus 2× and 4× scaling points, and at
/// 144 nodes again at the hidden widths of the `standard()` (48) and
/// `paper()` (256) presets.
fn bench_diffusion_sample(c: &mut Criterion) {
    let corpus: Vec<_> = syncircuit_datasets::corpus()
        .into_iter()
        .take(4)
        .map(|d| d.graph)
        .collect();
    let mut cfg = DiffusionConfig::tiny();
    cfg.epochs = 5;
    let model = DiffusionModel::train(&corpus, cfg, 1).expect("non-empty corpus");
    let attr_model = syncircuit_core::AttrModel::fit(&corpus).expect("non-empty corpus");
    let attrs: Vec<_> = corpus[0].iter().map(|(_, n)| *n).collect();
    let mut scratch = syncircuit_core::SamplerScratch::new();
    c.bench_function("diffusion_sample_36_nodes", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            model.sample_with(black_box(&attrs), seed, &mut scratch)
        })
    });
    for scale in [72usize, 144] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(scale as u64);
        let attrs = attr_model.sample_attrs(scale, &mut rng);
        c.bench_function(&format!("diffusion_sample_{scale}_nodes"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                model.sample_with(black_box(&attrs), seed, &mut scratch)
            })
        });
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(144);
    let attrs = attr_model.sample_attrs(144, &mut rng);
    for hidden in [
        PipelineConfig::standard().diffusion().hidden,
        DiffusionConfig::paper().hidden,
    ] {
        let mut cfg = DiffusionConfig::tiny();
        cfg.epochs = 5;
        cfg.hidden = hidden;
        c.bench_function(&format!("diffusion_sample_144_nodes_h{hidden}"), |b| {
            // Trained here, untimed, so a name filter that skips the
            // bench skips its training too.
            let model = DiffusionModel::train(&corpus, cfg.clone(), 1).expect("non-empty corpus");
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                model.sample_with(black_box(&attrs), seed, &mut scratch)
            })
        });
    }
}

fn bench_refine(c: &mut Criterion) {
    let corpus: Vec<_> = syncircuit_datasets::corpus()
        .into_iter()
        .take(4)
        .map(|d| d.graph)
        .collect();
    let mut cfg = DiffusionConfig::tiny();
    cfg.epochs = 5;
    let model = DiffusionModel::train(&corpus, cfg, 1).expect("non-empty corpus");
    let attr_model = syncircuit_core::AttrModel::fit(&corpus).expect("non-empty corpus");
    let attrs: Vec<_> = corpus[0].iter().map(|(_, n)| *n).collect();
    let sampled = model.sample(&attrs, 3);
    c.bench_function("refine_36_nodes", |b| {
        b.iter(|| {
            syncircuit_core::refine(
                black_box(&attrs),
                black_box(&sampled),
                &attr_model,
                &RefineConfig::default(),
                7,
            )
        })
    });
}

fn bench_mcts_cone(c: &mut Criterion) {
    let g = design("oc_fifo").expect("corpus design").graph;
    let cone = all_driving_cones(&g)
        .into_iter()
        .next()
        .expect("has registers");
    let cc = cone_circuit(&g, &cone);
    let reward = ExactSynthReward::new();
    let cfg = MctsConfig {
        simulations: 20,
        max_depth: 4,
        actions_per_expansion: 6,
        ..MctsConfig::default()
    };
    c.bench_function("mcts_cone_20_sims", |b| {
        b.iter(|| optimize_cone_mcts(black_box(&cc.circuit), &reward, &cfg))
    });
}

/// Full Phase-3 register optimization on a whole corpus design, with
/// the exact whole-design reward and the dirty-cone incremental reward
/// side by side (the incremental evaluator is rebuilt per iteration so
/// the measurement includes its warm-up misses).
fn bench_optimize_registers(c: &mut Criterion) {
    let g = design("oc_fifo").expect("corpus design").graph;
    let cfg = MctsConfig {
        simulations: 10,
        max_depth: 4,
        actions_per_expansion: 6,
        ..MctsConfig::default()
    };
    let exact = ExactSynthReward::new();
    c.bench_function("optimize_registers_oc_fifo_exact", |b| {
        b.iter(|| optimize_registers(black_box(&g), &exact, &cfg, ConeSelection::WorstK(2)))
    });
    c.bench_function("optimize_registers_oc_fifo_incremental", |b| {
        b.iter(|| {
            let reward = IncrementalConeReward::new();
            optimize_registers(black_box(&g), &reward, &cfg, ConeSelection::WorstK(2))
        })
    });
}

/// Eight "requests" score the same design's cones at the reward layer,
/// `private` with fresh counters per request and `shared` counting into
/// one [`SharedConeSynthCache`]. Each request derives every cone from
/// the design's structural classes, since no cone table is left to
/// share, so the two entries in `BENCH_phase3.json` now time the same
/// work; they keep their names to extend the trajectory.
fn bench_shared_cone_cache(c: &mut Criterion) {
    use syncircuit_synth::SharedConeSynthCache;
    let g = design("oc_fifo").expect("corpus design").graph;
    c.bench_function("batch_8_requests_private_cone_cache", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for _ in 0..8 {
                let reward = IncrementalConeReward::new();
                total += reward.pcs(black_box(&g));
            }
            total
        })
    });
    c.bench_function("batch_8_requests_shared_cone_cache", |b| {
        b.iter(|| {
            let shared = Arc::new(SharedConeSynthCache::new());
            let mut total = 0.0;
            for _ in 0..8 {
                let reward = IncrementalConeReward::with_shared(shared.clone());
                total += reward.pcs(black_box(&g));
            }
            total
        })
    });
}

/// End-to-end batch serving: `generate_batch` over 4 workers counting
/// into the model-wide cone counters (requests deliberately repeat
/// seeds, so workers score the same cones).
fn bench_batch_shared_cache(c: &mut Criterion) {
    let corpus: Vec<_> = syncircuit_datasets::corpus()
        .into_iter()
        .take(4)
        .map(|d| d.graph)
        .collect();
    let mut dcfg = DiffusionConfig::tiny();
    dcfg.epochs = 5;
    let cfg = PipelineConfig::builder()
        .diffusion(dcfg)
        .reward(RewardKind::IncrementalCone)
        .build()
        .expect("valid configuration");
    let model = SynCircuit::fit(&corpus, cfg).expect("non-empty corpus");
    let requests: Vec<GenRequest> = (0..6u64)
        .map(|k| GenRequest::nodes(24).seeded(k % 3))
        .collect();
    c.bench_function("generate_batch_shared_cache_4_workers", |b| {
        b.iter(|| model.generate_batch_with(black_box(&requests), 4))
    });
}

/// Deterministic parallel training: the same corpus and seed through
/// the epoch-synchronous diffusion trainer at 1 vs 4 workers (outputs
/// are bit-identical; the delta is pure wall-clock).
fn bench_fit_parallel(c: &mut Criterion) {
    let corpus: Vec<_> = syncircuit_datasets::corpus()
        .into_iter()
        .take(6)
        .map(|d| d.graph)
        .collect();
    let mut cfg = DiffusionConfig::tiny();
    cfg.epochs = 4;
    c.bench_function("fit_diffusion_1_worker", |b| {
        b.iter(|| DiffusionModel::train_with_workers(black_box(&corpus), cfg.clone(), 1, 1))
    });
    c.bench_function("fit_diffusion_4_workers", |b| {
        b.iter(|| DiffusionModel::train_with_workers(black_box(&corpus), cfg.clone(), 1, 4))
    });
}

/// A load-gen tenant: two random 20-node circuits and the
/// IncrementalCone reward (what serve-tcp serves from).
fn tenant_model() -> SynCircuit {
    use syncircuit_graph::testing::random_circuit_with_size;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1000);
    let corpus: Vec<_> = (0..2)
        .map(|_| random_circuit_with_size(&mut rng, 20))
        .collect();
    let cfg = PipelineConfig::builder()
        .seed(1000)
        .reward(RewardKind::IncrementalCone)
        .build()
        .expect("valid configuration");
    SynCircuit::fit(&corpus, cfg).expect("fit tenant model")
}

/// The two JSON layers of a serve-tcp call: one `ok` response frame
/// carrying an 18-node design, encoded and decoded; and attaching an
/// evicted tenant, which parses its whole artifact.
fn bench_json_codec(c: &mut Criterion) {
    use syncircuit_serve::wire::{decode_response, encode_response, ResponseBody, ResponseFrame};
    let model = tenant_model();
    let design = model
        .generate_one(&GenRequest::nodes(18).seeded(1))
        .expect("generate");
    let frame = ResponseFrame {
        id: 7,
        body: ResponseBody::Ok(Box::new(design)),
    };
    c.bench_function("wire_roundtrip_generated", |b| {
        b.iter(|| decode_response(&encode_response(black_box(&frame))).expect("decode"))
    });
    let artifact = model.to_json();
    c.bench_function("registry_attach_tenant", |b| {
        b.iter(|| SynCircuit::from_json(black_box(&artifact)).expect("load"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_synthesis, bench_sta, bench_stats, bench_diffusion_sample, bench_refine, bench_mcts_cone, bench_optimize_registers, bench_shared_cone_cache, bench_batch_shared_cache, bench_fit_parallel, bench_json_codec
}
criterion_main!(benches);
