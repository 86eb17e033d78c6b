//! Acceptance tests for the service-ready generation API:
//!
//! 1. every request call shape produces the **recorded** output digest
//!    (the byte-level expectations were captured when the deprecated
//!    `generate*` shims were retired — the shapes keep serving exactly
//!    the streams the shims served at removal time);
//! 2. [`SynCircuit::generate_batch`] across ≥ 4 worker threads is
//!    property-tested byte-identical to sequential per-seed runs;
//! 3. save → load → [`SynCircuit::stream`] reproduces a byte-identical
//!    generation stream from the restored model under the same seeds.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::OnceLock;
use syncircuit_core::{
    ConeSelection, GenRequest, Generated, PipelineConfig, RewardKind, SynCircuit,
};
use syncircuit_graph::fingerprint::{splitmix64, zobrist_fingerprint};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_graph::CircuitGraph;

fn corpus() -> Vec<CircuitGraph> {
    let mut rng = StdRng::seed_from_u64(777);
    (0..3)
        .map(|_| random_circuit_with_size(&mut rng, 28))
        .collect()
}

/// One trained model shared by every test in this file (training is the
/// expensive part; the API surface under test is read-only).
fn model() -> &'static SynCircuit {
    static MODEL: OnceLock<SynCircuit> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = PipelineConfig::builder()
            .seed(11)
            .build()
            .expect("valid configuration");
        SynCircuit::fit(&corpus(), cfg).expect("corpus is non-empty")
    })
}

/// The same model after one JSON artifact round-trip.
fn restored() -> &'static SynCircuit {
    static RESTORED: OnceLock<SynCircuit> = OnceLock::new();
    RESTORED.get_or_init(|| {
        SynCircuit::from_json(&model().to_json()).expect("artifact round-trips")
    })
}

/// Byte-level equality of two generation results: slot-exact graphs,
/// bit-identical rewards, identical evaluation counts and seeds.
fn assert_generated_identical(a: &Generated, b: &Generated) {
    assert_eq!(a.graph, b.graph, "final graphs must be identical");
    assert_eq!(a.gval, b.gval, "G_val must be identical");
    assert_eq!(a.gini_edges, b.gini_edges, "G_ini edge counts must match");
    assert_eq!(a.seed, b.seed, "resolved seeds must match");
    assert_eq!(a.mcts.len(), b.mcts.len(), "per-cone outcome counts");
    for (x, y) in a.mcts.iter().zip(&b.mcts) {
        assert_eq!(x.best_reward.to_bits(), y.best_reward.to_bits());
        assert_eq!(x.initial_reward.to_bits(), y.initial_reward.to_bits());
        assert_eq!(x.evaluations, y.evaluations);
        assert_eq!(x.best, y.best);
    }
}

// --- 1. request shapes serve the recorded streams ----------------------
//
// These digests were captured from the legacy `generate*` shims at the
// moment of their removal: each request shape must keep producing the
// byte-identical output the corresponding shim produced. Regenerate
// with
//   cargo test --release -p syncircuit-core --test service_api \
//     print_recorded_expectations -- --ignored --nocapture
// and paste — any change here is a generation-stream break and needs a
// changelog entry.

/// Collapses every byte-relevant field of a [`Generated`] into one u64.
fn digest(g: &Generated) -> u64 {
    let mix = |h: u64, v: u64| splitmix64(h ^ v);
    let mut h = splitmix64(0x5EAC_0FF5);
    h = mix(h, zobrist_fingerprint(&g.graph));
    h = mix(h, zobrist_fingerprint(&g.gval));
    h = mix(h, g.gini_edges as u64);
    h = mix(h, g.seed);
    h = mix(h, g.mcts.len() as u64);
    for o in &g.mcts {
        h = mix(h, o.best_reward.to_bits());
        h = mix(h, o.initial_reward.to_bits());
        h = mix(h, o.evaluations as u64);
    }
    h
}

/// The four canonical request shapes (one per retired shim), with the
/// same sizes/seeds the shim-equivalence tests exercised.
fn recorded_shapes() -> Vec<(&'static str, GenRequest)> {
    let mut rng = StdRng::seed_from_u64(42);
    let attrs = model().attr_model().sample_attrs(24, &mut rng);
    let mut shapes = vec![("generate(30)", GenRequest::nodes(30))];
    for seed in [0u64, 5, 0xDEAD_BEEF] {
        shapes.push(("generate_seeded(26, s)", GenRequest::nodes(26).seeded(seed)));
    }
    shapes.push((
        "generate_with_attrs(attrs, 9)",
        GenRequest::with_attrs(attrs).seeded(9),
    ));
    for seed in [1u64, 17] {
        shapes.push((
            "generate_without_diffusion(22, s)",
            GenRequest::nodes(22)
                .seeded(seed)
                .without_diffusion()
                .optimize(false),
        ));
    }
    shapes
}

/// Expected digests for [`recorded_shapes`], in order.
const RECORDED_DIGESTS: [u64; 7] = [
    0xB1CD_90F6_9B94_3C57, // generate(30)
    0xD20C_19C1_C9EB_F59D, // generate_seeded(26, 0)
    0x618A_074B_A0DD_F2BE, // generate_seeded(26, 5)
    0xD511_4218_28E4_8BC5, // generate_seeded(26, 0xDEAD_BEEF)
    0xFF88_A347_306D_C8F3, // generate_with_attrs(attrs, 9)
    0x5A7D_167B_099B_6602, // generate_without_diffusion(22, 1)
    0x0D57_1C64_D015_5EDB, // generate_without_diffusion(22, 17)
];

#[test]
fn request_shapes_match_recorded_expectations() {
    let m = model();
    for ((label, req), &want) in recorded_shapes().iter().zip(&RECORDED_DIGESTS) {
        let got = digest(&m.generate_one(req).unwrap());
        assert_eq!(
            got, want,
            "{label}: digest {got:#018X} != recorded {want:#018X} — \
             the generation stream for this request shape drifted"
        );
    }
}

#[test]
fn ablation_shape_still_skips_phases() {
    let out = model()
        .generate_one(
            &GenRequest::nodes(22)
                .seeded(1)
                .without_diffusion()
                .optimize(false),
        )
        .unwrap();
    assert_eq!(out.gval, out.graph);
    assert!(out.mcts.is_empty());
    assert_eq!(out.gini_edges, 0, "Phase 1 skipped");
}

/// The same corpus and seed with Phase 3 on the incremental cone reward
/// over every register cone, so each request runs the cone cache's miss
/// path (per-cone synthesis) on every cone it has not seen before.
fn incremental_model() -> &'static SynCircuit {
    static MODEL: OnceLock<SynCircuit> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = PipelineConfig::builder()
            .seed(11)
            .reward(RewardKind::IncrementalCone)
            .cone_selection(ConeSelection::All)
            .build()
            .expect("valid configuration");
        SynCircuit::fit(&corpus(), cfg).expect("corpus is non-empty")
    })
}

/// Requests for [`INCREMENTAL_DIGESTS`].
fn incremental_shapes() -> Vec<(&'static str, GenRequest)> {
    vec![
        ("nodes(30)", GenRequest::nodes(30)),
        ("nodes(26).seeded(5)", GenRequest::nodes(26).seeded(5)),
        (
            "nodes(40).seeded(0xDEAD_BEEF)",
            GenRequest::nodes(40).seeded(0xDEAD_BEEF),
        ),
        ("nodes(48).seeded(17)", GenRequest::nodes(48).seeded(17)),
    ]
}

/// Expected digests for [`incremental_shapes`], in order. Recorded with
/// the standalone-cone-circuit miss path, so they pin the in-place one
/// to the same bytes.
const INCREMENTAL_DIGESTS: [u64; 4] = [
    0xF277_B3EC_5ACB_3CAE, // nodes(30)
    0x6332_C843_BD30_02AA, // nodes(26).seeded(5)
    0x9E2F_39A3_CFE2_F722, // nodes(40).seeded(0xDEAD_BEEF)
    0xC0CE_5285_4B16_17C1, // nodes(48).seeded(17)
];

#[test]
fn incremental_reward_matches_recorded_expectations() {
    let m = incremental_model();
    for ((label, req), &want) in incremental_shapes().iter().zip(&INCREMENTAL_DIGESTS) {
        let out = m.generate_one(req).unwrap();
        assert!(!out.mcts.is_empty(), "{label}: Phase 3 optimized no cone");
        let got = digest(&out);
        assert_eq!(
            got, want,
            "{label}: digest {got:#018X} != recorded {want:#018X} — \
             the incremental-cone generation stream drifted"
        );
    }
    let misses: u64 = m.cone_cache_stats().iter().map(|s| s.misses).sum();
    assert!(misses > 0, "the cone cache synthesized no cone");
}

/// Regeneration helper: prints the `RECORDED_DIGESTS` and
/// `INCREMENTAL_DIGESTS` blocks.
#[test]
#[ignore = "run manually to refresh RECORDED_DIGESTS and INCREMENTAL_DIGESTS"]
fn print_recorded_expectations() {
    for (name, m, shapes) in [
        ("RECORDED_DIGESTS", model(), recorded_shapes()),
        (
            "INCREMENTAL_DIGESTS",
            incremental_model(),
            incremental_shapes(),
        ),
    ] {
        println!("const {name}: [u64; {}] = [", shapes.len());
        for (label, req) in shapes {
            let d = digest(&m.generate_one(&req).unwrap());
            println!("    {d:#018X}, // {label}");
        }
        println!("];");
    }
}

// --- 2. parallel batch ≡ sequential -----------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batch_across_four_threads_matches_sequential(base in any::<u64>()) {
        let m = model();
        // Mixed request shapes: plain, ablation, no-opt — sizes and
        // seeds derived from the property input.
        let requests: Vec<GenRequest> = (0..6u64)
            .map(|k| {
                let req = GenRequest::nodes(18 + (base.wrapping_add(k) % 9) as usize)
                    .seeded(base.wrapping_mul(31).wrapping_add(k));
                match k % 3 {
                    0 => req,
                    1 => req.optimize(false),
                    _ => req.without_diffusion().optimize(false),
                }
            })
            .collect();
        let sequential: Vec<_> = requests.iter().map(|r| m.generate_one(r)).collect();
        let parallel = m.generate_batch_with(&requests, 4);
        prop_assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            match (s, p) {
                (Ok(a), Ok(b)) => assert_generated_identical(a, b),
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                _ => prop_assert!(false, "sequential/parallel disagree on success"),
            }
        }
    }

    // --- 3. persistence: save → load → identical stream ----------------

    #[test]
    fn restored_model_streams_identically(seed in any::<u64>(), n in 18usize..30) {
        let request = GenRequest::nodes(n).seeded(seed);
        let original: Vec<_> = model().stream(request.clone()).take(3).collect();
        let replayed: Vec<_> = restored().stream(request).take(3).collect();
        prop_assert_eq!(original.len(), replayed.len());
        for (a, b) in original.iter().zip(&replayed) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_generated_identical(a, b);
        }
    }
}

// --- persistence details ----------------------------------------------

#[test]
fn artifact_text_is_stable_and_versioned() {
    let text = model().to_json();
    assert!(text.contains("syncircuit-model"));
    // Rendering is deterministic, and a second round-trip is a fixpoint.
    assert_eq!(text, model().to_json());
    assert_eq!(restored().to_json(), text);
}

#[test]
fn restored_config_matches_original() {
    assert_eq!(restored().config().seed(), model().config().seed());
    assert_eq!(
        restored().config().reward(),
        model().config().reward()
    );
    assert_eq!(
        restored().config().optimize_redundancy(),
        model().config().optimize_redundancy()
    );
}

#[test]
fn save_and_load_through_the_filesystem() {
    let path = std::env::temp_dir().join("syncircuit_service_api_model.json");
    model().save(&path).unwrap();
    let loaded = SynCircuit::load(&path).unwrap();
    let a = model().generate_one(&GenRequest::nodes(20).seeded(4)).unwrap();
    let b = loaded.generate_one(&GenRequest::nodes(20).seeded(4)).unwrap();
    assert_generated_identical(&a, &b);
    std::fs::remove_file(&path).ok();
}

#[test]
fn discriminator_model_roundtrips_too() {
    // A model with a trained discriminator persists it and keeps
    // generating identically.
    let cfg = PipelineConfig::builder()
        .seed(3)
        .reward(RewardKind::Discriminator { epochs: 40 })
        .build()
        .unwrap();
    let m = SynCircuit::fit(&corpus(), cfg).unwrap();
    let restored = SynCircuit::from_json(&m.to_json()).unwrap();
    let a = m.generate_one(&GenRequest::nodes(22).seeded(6)).unwrap();
    let b = restored
        .generate_one(&GenRequest::nodes(22).seeded(6))
        .unwrap();
    assert_generated_identical(&a, &b);
}

#[test]
fn batch_on_empty_and_single_inputs() {
    let m = model();
    assert!(m.generate_batch(&[]).is_empty());
    let one = m.generate_batch_with(&[GenRequest::nodes(20).seeded(1)], 8);
    assert_eq!(one.len(), 1);
    let direct = m.generate_one(&GenRequest::nodes(20).seeded(1)).unwrap();
    assert_generated_identical(one[0].as_ref().unwrap(), &direct);
}
