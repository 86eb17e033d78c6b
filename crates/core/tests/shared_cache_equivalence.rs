//! Concurrency equivalence battery for the shared-cache service path
//! and the parallel trainer:
//!
//! 1. [`SynCircuit::generate_batch_with`], whose workers count into the
//!    model-wide cone counters, is **byte-identical** to the sequential
//!    [`SynCircuit::generate_one`] loop at 1/2/4/8 workers (more under
//!    `SYNCIRCUIT_STRESS_WORKERS`), including batches with duplicate
//!    requests that score the same cones at once;
//! 2. parallel [`SynCircuit::fit_with_workers`] reproduces the
//!    sequential model **bit for bit** — identical rendered artifacts
//!    (`ParamStore` contents included) and identical Phase-3 reward
//!    trajectories — across ≥ 3 worker counts, for both the diffusion
//!    trainer and the discriminator labeling fan-out.
//!
//! The CI `threaded-stress` step re-runs this file under `--release`
//! with `SYNCIRCUIT_STRESS_WORKERS` elevated (see the justfile).

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::OnceLock;
use syncircuit_core::{
    DiffusionConfig, DiffusionModel, GenRequest, Generated, PipelineConfig, RewardKind, SynCircuit,
};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_graph::CircuitGraph;

fn corpus() -> Vec<CircuitGraph> {
    let mut rng = StdRng::seed_from_u64(909);
    (0..5)
        .map(|_| random_circuit_with_size(&mut rng, 26))
        .collect()
}

/// Worker counts every parallel path is checked against. The baseline
/// battery covers 1/2/4/8; the CI stress step widens via
/// `SYNCIRCUIT_STRESS_WORKERS` (a max: powers of two up to it).
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 8];
    if let Ok(max) = std::env::var("SYNCIRCUIT_STRESS_WORKERS") {
        if let Ok(max) = max.parse::<usize>() {
            let mut w = 16;
            while w <= max {
                counts.push(w);
                w *= 2;
            }
        }
    }
    counts
}

/// One trained model with the incremental-cone reward — the reward that
/// counts into the shared cone counters — reused by the batch tests.
fn model() -> &'static SynCircuit {
    static MODEL: OnceLock<SynCircuit> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = PipelineConfig::builder()
            .seed(23)
            .reward(RewardKind::IncrementalCone)
            .build()
            .expect("valid configuration");
        SynCircuit::fit(&corpus(), cfg).expect("corpus is non-empty")
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

// --- 1. shared-cache batches ≡ sequential, across worker counts --------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batch_with_shared_cache_matches_sequential(base in any::<u64>()) {
        let m = model();
        // Mixed shapes *with deliberate duplicates*: repeated seeds make
        // different workers score identical cones at once, an
        // interleaving the shared counters must keep benign.
        let mut requests: Vec<GenRequest> = (0..6u64)
            .map(|k| {
                let req = GenRequest::nodes(18 + (base.wrapping_add(k) % 7) as usize)
                    .seeded(base.wrapping_mul(31).wrapping_add(k));
                match k % 3 {
                    0 => req,
                    1 => req.optimize(false),
                    _ => req.without_diffusion().optimize(false),
                }
            })
            .collect();
        requests.push(requests[0].clone());
        requests.push(requests[3].clone());
        let sequential: Vec<_> = requests.iter().map(|r| m.generate_one(r)).collect();
        for workers in worker_counts() {
            let parallel = m.generate_batch_with(&requests, workers);
            prop_assert_eq!(sequential.len(), parallel.len());
            for (s, p) in sequential.iter().zip(&parallel) {
                match (s, p) {
                    (Ok(a), Ok(b)) => assert_generated_identical(a, b),
                    (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                    _ => prop_assert!(
                        false,
                        "sequential/parallel disagree on success at {} workers",
                        workers
                    ),
                }
            }
        }
    }
}

#[test]
fn streams_and_batches_share_one_warm_state() {
    // A request served after unrelated traffic (which warms the shared
    // counters and the thread's scratch) must equal a request served
    // first.
    let m = model();
    let probe = GenRequest::nodes(21).seeded(77);
    let cold = m.generate_one(&probe).unwrap();
    for k in 0..4u64 {
        let _ = m.generate_one(&GenRequest::nodes(19 + k as usize).seeded(k));
    }
    let warm = m.generate_one(&probe).unwrap();
    assert_generated_identical(&cold, &warm);
}

// --- 2. parallel fit ≡ sequential fit, bit for bit ----------------------

/// Small-epoch config so the fit matrix stays fast; discriminator
/// reward so the labeling fan-out is exercised too.
fn fit_config(reward: RewardKind) -> PipelineConfig {
    let mut d = DiffusionConfig::tiny();
    d.epochs = 6;
    PipelineConfig::builder()
        .seed(41)
        .diffusion(d)
        .reward(reward)
        .build()
        .expect("valid configuration")
}

#[test]
fn parallel_fit_reproduces_sequential_paramstore_bits() {
    let graphs = corpus();
    for reward in [
        RewardKind::IncrementalCone,
        RewardKind::Discriminator { epochs: 25 },
    ] {
        let reference =
            SynCircuit::fit_with_workers(&graphs, fit_config(reward), 1).expect("sequential fit");
        let reference_artifact = reference.to_json();
        for workers in [2usize, 3, 5] {
            let parallel = SynCircuit::fit_with_workers(&graphs, fit_config(reward), workers)
                .expect("parallel fit");
            // The rendered artifact embeds every trained parameter bit
            // (diffusion ParamStore, attr statistics, discriminator).
            assert_eq!(
                parallel.to_json(),
                reference_artifact,
                "fit with {workers} workers drifted from sequential ({reward:?})"
            );
        }
    }
}

#[test]
fn parallel_fit_reproduces_reward_trajectories() {
    // Beyond parameter bits: the generation-time Phase 3 reward
    // trajectories (initial/best reward per cone, evaluation counts)
    // must replay identically from a parallel-trained model.
    let graphs = corpus();
    let seq = SynCircuit::fit_with_workers(&graphs, fit_config(RewardKind::IncrementalCone), 1)
        .expect("sequential fit");
    let par = SynCircuit::fit_with_workers(&graphs, fit_config(RewardKind::IncrementalCone), 4)
        .expect("parallel fit");
    for seed in [3u64, 11] {
        let req = GenRequest::nodes(24).seeded(seed);
        let a = seq.generate_one(&req).unwrap();
        let b = par.generate_one(&req).unwrap();
        assert!(
            !a.mcts.is_empty(),
            "Phase 3 must run for this check to bite"
        );
        assert_generated_identical(&a, &b);
    }
}

#[test]
fn parallel_diffusion_training_is_bit_identical() {
    // The diffusion trainer alone, across the full worker ladder
    // (serialized parameters via the persistence impl are the bits).
    use serde_json::to_value;
    let graphs = corpus();
    let mut cfg = DiffusionConfig::tiny();
    cfg.epochs = 5;
    let reference = to_value(
        &DiffusionModel::train_with_workers(&graphs, cfg.clone(), 7, 1).expect("non-empty corpus"),
    );
    for workers in worker_counts() {
        let model = DiffusionModel::train_with_workers(&graphs, cfg.clone(), 7, workers)
            .expect("non-empty corpus");
        assert_eq!(
            to_value(&model),
            reference,
            "diffusion training with {workers} workers drifted"
        );
    }
}
