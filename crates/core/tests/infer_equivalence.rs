//! Property battery for the denoiser's serving pass and the
//! scratch-reusing sampler hot path. The [`Tape`] trains and is the
//! oracle; serving runs one fixed pass over the packed kernels.
//!
//! 1. **Packed kernels ≡ naive matmul**, across ragged shapes and
//!    non-finite weights.
//! 2. **Serving pass ≡ Tape, end-to-end**: [`Denoiser::predict_probs_into`]
//!    (packed kernels + per-model time-embedding cache) reproduces
//!    [`Denoiser::predict_probs`] (tape) bit for bit over random
//!    architectures, graphs, candidate pairs and steps, and at the
//!    hidden widths of the `standard()` and `paper()` presets.
//! 3. **Sampled byte streams**: [`DiffusionModel::sample_with`] equals
//!    the tape-path oracle [`DiffusionModel::sample_via_tape`] for every
//!    seed and decode mode, whether the scratch is cold or warm.
//! 4. **Scratch hygiene**: one scratch serving interleaved
//!    differently-shaped requests yields exactly the bytes fresh
//!    scratches yield — no stale state survives a pass.
//! 5. **Service surface**: [`SynCircuit`] streams (scratch owned by the
//!    [`Generator`]) and `generate_batch` (scratch per worker, at
//!    1/4/8 workers) replay the one-shot bytes.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::OnceLock;
use syncircuit_core::denoiser::{
    adjacency_operator, feature_matrix, Denoiser, DenoiserScratch,
};
use syncircuit_core::{
    DecodeMode, DiffusionConfig, DiffusionModel, GenRequest, PipelineConfig, SampledGraph,
    SamplerScratch, SynCircuit,
};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_graph::{CircuitGraph, Node, NodeType};
use syncircuit_nn::{Matrix, ParamStore};

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

fn random_attrs(n: usize, seed: u64) -> Vec<Node> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let ty = match i % 5 {
                0 => NodeType::Input,
                1 => NodeType::Reg,
                2 => NodeType::Add,
                3 => NodeType::And,
                _ => NodeType::Output,
            };
            Node::new(ty, 1 + rng.gen_range(0..8u32))
        })
        .collect()
}

fn random_parents(n: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..4usize.min(n));
            (0..k).map(|_| rng.gen_range(0..n as u32)).collect()
        })
        .collect()
}

fn assert_sampled_identical(a: &SampledGraph, b: &SampledGraph) {
    assert_eq!(a.parents, b.parents, "G_ini parent lists must match");
    assert_eq!(a.probs.len(), b.probs.len(), "scored pair counts");
    let sorted = |s: &SampledGraph| {
        let mut v: Vec<(u32, u32, u32)> = s
            .probs
            .iter()
            .map(|(f, t, p)| (f, t, p.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(sorted(a), sorted(b), "edge probabilities must be bit-equal");
}

// --- 2. denoiser end-to-end bit-identity -------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn predict_probs_into_matches_tape_bitwise(
        seed in 0u64..1000,
        n in 2usize..12,
        hidden in 4usize..52,
        layers in 1usize..4,
        steps in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let den = Denoiser::new(&mut store, hidden, layers, steps, &mut rng);
        let attrs = random_attrs(n, seed ^ 2);
        let feats = feature_matrix(&attrs);
        let adj = adjacency_operator(&random_parents(n, seed ^ 3));
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for _ in 0..rng.gen_range(1..3 * n) {
            pairs.push((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
        }
        let cache = den.build_time_cache(&store);
        let pack = den.pack_weights(&store);
        let mut scratch = DenoiserScratch::new();
        let mut proj = Matrix::zeros(0, 0);
        den.project_features_into(&store, &feats, &pack, &mut proj);
        let mut via_serving = Vec::new();
        for t in 1..=steps {
            let via_tape = den.predict_probs(&store, feats.clone(), &adj, &pairs, t);
            den.predict_probs_into(
                &store, &proj, &adj, &pairs, t, &cache, &pack, &mut scratch, &mut via_serving,
            );
            let tb: Vec<u32> = via_tape.iter().map(|p| p.to_bits()).collect();
            let ib: Vec<u32> = via_serving.iter().map(|p| p.to_bits()).collect();
            prop_assert_eq!(tb, ib, "step {}", t);
        }
    }
}

/// The property above draws hidden widths below 52. These fixed cases
/// run the widths real configs use, `standard()` (48) and `paper()`
/// (256), each with its preset's layer and step counts, at the first,
/// a middle and the last step, for a sparse pair set (one candidate
/// parent per node) and a dense one (every ordered pair).
#[test]
fn predict_probs_into_matches_tape_at_preset_widths() {
    for (preset, cfg) in [
        ("standard", PipelineConfig::standard().diffusion().clone()),
        ("paper", DiffusionConfig::paper()),
    ] {
        let n = 12u32;
        let mut rng = StdRng::seed_from_u64(cfg.hidden as u64);
        let mut store = ParamStore::new();
        let den = Denoiser::new(&mut store, cfg.hidden, cfg.layers, cfg.steps, &mut rng);
        let feats = feature_matrix(&random_attrs(n as usize, 17));
        let adj = adjacency_operator(&random_parents(n as usize, 18));
        let sparse: Vec<(u32, u32)> = (0..n).map(|j| (rng.gen_range(0..n), j)).collect();
        let dense: Vec<(u32, u32)> = (0..n).flat_map(|j| (0..n).map(move |i| (i, j))).collect();
        let cache = den.build_time_cache(&store);
        let pack = den.pack_weights(&store);
        let mut proj = Matrix::zeros(0, 0);
        den.project_features_into(&store, &feats, &pack, &mut proj);
        let mut scratch = DenoiserScratch::new();
        let mut got = Vec::new();
        for t in [1, cfg.steps / 2 + 1, cfg.steps] {
            for (kind, pairs) in [("sparse", &sparse), ("dense", &dense)] {
                let want = den.predict_probs(&store, feats.clone(), &adj, pairs, t);
                den.predict_probs_into(
                    &store,
                    &proj,
                    &adj,
                    pairs,
                    t,
                    &cache,
                    &pack,
                    &mut scratch,
                    &mut got,
                );
                let wb: Vec<u32> = want.iter().map(|p| p.to_bits()).collect();
                let gb: Vec<u32> = got.iter().map(|p| p.to_bits()).collect();
                let hidden = cfg.hidden;
                assert_eq!(wb, gb, "{preset} (hidden {hidden}), step {t}, {kind} pairs");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched head scoring is a pure row-wise map: scoring all
    /// candidate pairs in one `predict_probs_into` call must produce
    /// exactly the bits of scoring each pair alone — whether the batch
    /// runs on a cold scratch or on one warmed (and reshaped) by the
    /// per-pair calls first.
    #[test]
    fn batched_head_scoring_matches_per_pair_bitwise(
        seed in 0u64..1000,
        n in 2usize..10,
        hidden in 4usize..18,
        layers in 1usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let steps = 3;
        let den = Denoiser::new(&mut store, hidden, layers, steps, &mut rng);
        let attrs = random_attrs(n, seed ^ 5);
        let feats = feature_matrix(&attrs);
        let adj = adjacency_operator(&random_parents(n, seed ^ 6));
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for _ in 0..rng.gen_range(1..4 * n) {
            pairs.push((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
        }
        let cache = den.build_time_cache(&store);
        let pack = den.pack_weights(&store);
        let mut proj = Matrix::zeros(0, 0);
        den.project_features_into(&store, &feats, &pack, &mut proj);
        let t = 1 + seed as usize % steps;

        // Per-pair scoring through one warm scratch.
        let mut warm = DenoiserScratch::new();
        let mut one = Vec::new();
        let mut per_pair: Vec<u32> = Vec::new();
        for &pair in &pairs {
            den.predict_probs_into(
                &store, &proj, &adj, std::slice::from_ref(&pair), t, &cache, &pack,
                &mut warm, &mut one,
            );
            prop_assert_eq!(one.len(), 1);
            per_pair.push(one[0].to_bits());
        }

        // The whole batch: once cold, once on the warm scratch.
        let mut batched = Vec::new();
        let mut cold = DenoiserScratch::new();
        den.predict_probs_into(
            &store, &proj, &adj, &pairs, t, &cache, &pack, &mut cold, &mut batched,
        );
        let cold_bits: Vec<u32> = batched.iter().map(|p| p.to_bits()).collect();
        den.predict_probs_into(
            &store, &proj, &adj, &pairs, t, &cache, &pack, &mut warm, &mut batched,
        );
        let warm_bits: Vec<u32> = batched.iter().map(|p| p.to_bits()).collect();

        prop_assert_eq!(&cold_bits, &per_pair, "cold batch vs per-pair");
        prop_assert_eq!(&warm_bits, &per_pair, "warm batch vs per-pair");
    }
}

// --- 1. packed kernels ≡ naive matmul, ragged shapes -------------------

/// The packed-B kernels under the public `syncircuit_nn` surface must
/// reproduce the naive `matmul_into` bit for bit on every shape the
/// sampler can reach — ragged K/N, single rows/columns, and the empty
/// edges (0 rows, 0 inner dim, 0 output columns). The suffix-fused
/// variant is checked against materialising `[A | 1⊗s]` and running
/// the plain path.
#[test]
fn packed_kernels_match_naive_on_ragged_shapes() {
    let mut rng = StdRng::seed_from_u64(99);
    for &(m, k, s, d) in &[
        (5usize, 3usize, 0usize, 4usize),
        (1, 1, 1, 1),
        (7, 16, 16, 16),
        (23, 5, 3, 9),
        (4, 0, 0, 6),
        (0, 4, 2, 3),
        (6, 7, 5, 0),
        (33, 17, 2, 19),
    ] {
        let mut a = Matrix::randn(m, k, 1.0, &mut rng);
        // Zeros in A exercise the zero-skip path; a non-finite B entry
        // behind a zero proves the packed path keeps its semantics.
        for x in a.data_mut() {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
        let sfx: Vec<f32> = (0..s).map(|j| if j % 2 == 0 { 0.0 } else { 0.25 }).collect();
        let mut b = Matrix::randn(k + s, d, 1.0, &mut rng);
        if k + s > 0 && d > 0 {
            b.data_mut()[0] = f32::NAN;
        }
        let bias = Matrix::randn(1, d, 1.0, &mut rng);
        let pack = b.pack_b();

        // Naive reference over the materialised concatenation.
        let mut cat = Matrix::zeros(m, k + s);
        for i in 0..m {
            for j in 0..k {
                *cat.at_mut(i, j) = a.at(i, j);
            }
            for (j, &v) in sfx.iter().enumerate() {
                *cat.at_mut(i, k + j) = v;
            }
        }
        let mut want = Matrix::zeros(0, 0);
        cat.matmul_into(&b, &mut want);
        let mut got = Matrix::zeros(0, 0);
        if s == 0 {
            a.matmul_packed_into(&pack, &mut got);
            assert_eq!(bits(&want), bits(&got), "plain packed {m}x{k}x{d}");
        }
        for relu in [false, true] {
            let mut want_b = want.clone();
            for (i, x) in want_b.data_mut().iter_mut().enumerate() {
                *x += bias.data()[i % d.max(1)];
                if relu {
                    *x = x.max(0.0);
                }
            }
            a.matmul_packed_cat_bias_into(&sfx, &pack, &bias, relu, &mut got);
            assert_eq!(
                bits(&want_b),
                bits(&got),
                "suffix-fused {m}x{k}+{s}x{d} relu={relu}"
            );
        }
    }
}

// --- 3 & 4. sampled byte streams and scratch hygiene -------------------

fn diffusion_model() -> &'static DiffusionModel {
    static MODEL: OnceLock<DiffusionModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(77);
        let corpus: Vec<CircuitGraph> = (0..3)
            .map(|_| random_circuit_with_size(&mut rng, 24))
            .collect();
        let mut cfg = DiffusionConfig::tiny();
        cfg.epochs = 4;
        DiffusionModel::train(&corpus, cfg, 5).expect("non-empty corpus")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sample_with_matches_tape_oracle(seed in 0u64..10_000, n in 4usize..40) {
        let model = diffusion_model();
        let attrs = random_attrs(n, seed ^ 0xA77);
        let oracle = model.sample_via_tape(&attrs, seed);
        // cold scratch …
        let mut scratch = SamplerScratch::new();
        assert_sampled_identical(&model.sample_with(&attrs, seed, &mut scratch), &oracle);
        // … and the same warm scratch again, after serving another
        // differently-sized request in between (stale-state probe).
        let other = random_attrs(n / 2 + 2, seed ^ 0xB88);
        let _ = model.sample_with(&other, seed ^ 1, &mut scratch);
        assert_sampled_identical(&model.sample_with(&attrs, seed, &mut scratch), &oracle);
    }
}

#[test]
fn dense_mode_sampling_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(31);
    let corpus: Vec<CircuitGraph> = (0..2)
        .map(|_| random_circuit_with_size(&mut rng, 20))
        .collect();
    let mut cfg = DiffusionConfig::tiny();
    cfg.epochs = 3;
    cfg.decode = DecodeMode::Dense;
    let model = DiffusionModel::train(&corpus, cfg, 9).unwrap();
    let mut scratch = SamplerScratch::new();
    for seed in 0..4u64 {
        let attrs = random_attrs(10 + seed as usize * 7, seed);
        assert_sampled_identical(
            &model.sample_with(&attrs, seed, &mut scratch),
            &model.sample_via_tape(&attrs, seed),
        );
    }
}

#[test]
fn one_shot_sample_equals_oracle() {
    let model = diffusion_model();
    let attrs = random_attrs(18, 4);
    assert_sampled_identical(&model.sample(&attrs, 12), &model.sample_via_tape(&attrs, 12));
}

// --- 5. scratch reuse across the service surface -----------------------

fn service_model() -> &'static SynCircuit {
    static MODEL: OnceLock<SynCircuit> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(404);
        let corpus: Vec<CircuitGraph> = (0..3)
            .map(|_| random_circuit_with_size(&mut rng, 26))
            .collect();
        SynCircuit::fit(&corpus, PipelineConfig::tiny()).expect("non-empty corpus")
    })
}

#[test]
fn generator_scratch_reuse_replays_one_shots() {
    let model = service_model();
    let req = GenRequest::nodes(22).seeded(3);
    let streamed: Vec<_> = model
        .stream(req.clone())
        .take(4)
        .map(|r| r.expect("generation succeeds"))
        .collect();
    // Every streamed item (warm, session-owned scratch) must equal the
    // one-shot replay of its resolved seed (fresh scratch).
    for item in &streamed {
        let replay = model
            .generate_one(&req.clone().seeded(item.seed))
            .expect("replay succeeds");
        assert_eq!(item.graph, replay.graph);
        assert_eq!(item.gval, replay.gval);
        assert_eq!(item.gini_edges, replay.gini_edges);
    }
}

#[test]
fn batch_scratch_reuse_is_byte_identical_across_worker_counts() {
    let model = service_model();
    // Mixed sizes so per-worker scratches must reshape between claims.
    let requests: Vec<GenRequest> = (0..8u64)
        .map(|k| GenRequest::nodes(16 + (k as usize % 3) * 9).seeded(k % 5))
        .collect();
    let sequential: Vec<_> = requests
        .iter()
        .map(|r| model.generate_one(r).expect("generation succeeds"))
        .collect();
    for workers in [1usize, 4, 8] {
        let batch = model.generate_batch_with(&requests, workers);
        assert_eq!(batch.len(), sequential.len());
        for (one, par) in sequential.iter().zip(batch) {
            let par = par.expect("generation succeeds");
            assert_eq!(one.graph, par.graph, "{workers} workers");
            assert_eq!(one.gval, par.gval);
            assert_eq!(one.gini_edges, par.gini_edges);
            assert_eq!(one.seed, par.seed);
        }
    }
}
