//! Golden-artifact regression: a committed `MODEL_VERSION = 1` JSON
//! fixture must keep loading, and the restored model must keep
//! streaming byte-identical designs — so persistence-format drift (a
//! renamed field, a changed parameter layout, an accidental version
//! bump) is caught by tests rather than by users with saved models.
//!
//! Regenerate the fixture pair only for a *deliberate* format change:
//!
//! ```text
//! cargo test --release -p syncircuit-core --test golden_model \
//!   regenerate_golden_fixture -- --ignored --nocapture
//! ```

use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;
use syncircuit_core::{
    ConfigError, DiffusionConfig, Error, GenRequest, Generated, PipelineConfig, SynCircuit,
    MODEL_VERSION,
};
use syncircuit_graph::fingerprint::{splitmix64, zobrist_fingerprint};
use syncircuit_graph::testing::random_circuit_with_size;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn model_path() -> PathBuf {
    fixture_dir().join("model_v1.json")
}

fn expect_path() -> PathBuf {
    fixture_dir().join("model_v1_expect.json")
}

/// The replay request the expectations were recorded against.
fn probe_request() -> GenRequest {
    GenRequest::nodes(18).seeded(0xF1D0)
}

const STREAM_LEN: usize = 3;

/// Collapses every byte-relevant field of a [`Generated`] into one u64.
fn digest(g: &Generated) -> u64 {
    let mix = |h: u64, v: u64| splitmix64(h ^ v);
    let mut h = splitmix64(0x601D_F1E1);
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

fn stream_digests(model: &SynCircuit) -> Vec<String> {
    model
        .stream(probe_request())
        .take(STREAM_LEN)
        .map(|r| format!("{:#018X}", digest(&r.expect("stream item generates"))))
        .collect()
}

#[test]
fn golden_v1_artifact_still_loads_and_streams_identically() {
    let model = SynCircuit::load(model_path()).expect(
        "the committed MODEL_VERSION=1 fixture must keep loading; if this \
         fails the persistence format drifted incompatibly",
    );
    // The fixture is genuinely a version-1 artifact (regeneration under
    // a silently bumped MODEL_VERSION would defeat the regression).
    let raw = std::fs::read_to_string(model_path()).unwrap();
    assert!(
        raw.contains("\"version\": 1"),
        "fixture must stay a version-1 artifact"
    );
    assert_eq!(MODEL_VERSION, 1, "a version bump needs a new golden fixture pair");

    let expect: Vec<String> = {
        let text = std::fs::read_to_string(expect_path()).expect("expectation file");
        serde_json::from_str::<Vec<String>>(&text).expect("expectation JSON")
    };
    assert_eq!(expect.len(), STREAM_LEN);
    assert_eq!(
        stream_digests(&model),
        expect,
        "restored model no longer streams the recorded designs — \
         persistence or generation drift"
    );
}

#[test]
fn golden_artifact_roundtrips_to_identical_text() {
    // Render-stability of the format itself: load → re-render must be a
    // byte-level fixpoint of the committed text.
    let raw = std::fs::read_to_string(model_path()).unwrap();
    let model = SynCircuit::from_json(&raw).unwrap();
    assert_eq!(model.to_json(), raw, "artifact rendering drifted");
}

/// An artifact is input from outside the program: a size past its cap
/// must fail the load typed, not abort the first Phase-3 request on a
/// 16 TiB allocation.
#[test]
fn golden_artifact_with_an_oversized_action_count_fails_typed() {
    let raw = std::fs::read_to_string(model_path()).unwrap();
    let edited = raw.replacen(
        "\"actions_per_expansion\": 6,",
        &format!("\"actions_per_expansion\": {},", 1u64 << 40),
        1,
    );
    assert_ne!(edited, raw, "the fixture stores actions_per_expansion = 6");
    let path = std::env::temp_dir().join(format!(
        "syncircuit-golden-oversized-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, edited).unwrap();
    let loaded = SynCircuit::load(&path);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        loaded.unwrap_err(),
        Error::Config(ConfigError::TooManyActionsPerExpansion(1 << 40))
    );
}

/// Builds the tiny fixture model: deliberately minimal hyper-parameters
/// so the committed JSON stays small, trained on a fixed 2-design
/// corpus.
fn fixture_model() -> SynCircuit {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let corpus: Vec<_> = (0..2)
        .map(|_| random_circuit_with_size(&mut rng, 18))
        .collect();
    let diffusion = DiffusionConfig {
        hidden: 8,
        layers: 1,
        steps: 3,
        epochs: 6,
        lr: 0.01,
        neg_ratio: 1.0,
        decode: syncircuit_core::DecodeMode::Sparse {
            candidates_per_node: 6,
        },
        grad_clip: 5.0,
    };
    let cfg = PipelineConfig::builder()
        .seed(0x601D)
        .diffusion(diffusion)
        .build()
        .expect("valid configuration");
    SynCircuit::fit_with_workers(&corpus, cfg, 1).expect("fixture corpus is non-empty")
}

#[test]
#[ignore = "writes the committed fixture pair; run only for a deliberate format change"]
fn regenerate_golden_fixture() {
    std::fs::create_dir_all(fixture_dir()).unwrap();
    let model = fixture_model();
    model.save(model_path()).unwrap();
    let digests = stream_digests(&model);
    std::fs::write(
        expect_path(),
        serde_json::to_string_pretty(&serde_json::to_value(&digests)).unwrap(),
    )
    .unwrap();
    println!("wrote {} and {}", model_path().display(), expect_path().display());
}
