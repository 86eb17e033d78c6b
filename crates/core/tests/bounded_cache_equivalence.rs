//! A cone-cache capacity changes no generated byte, end to end.
//!
//! `PipelineConfigBuilder::cone_cache_capacity` once bounded a
//! model-wide cone table. Phase 3 now derives every cone's area from
//! structural classes of the design and keeps no table, so the builder
//! accepts the capacity and ignores it. This battery pins that down at
//! the pipeline level: a model built with a tiny capacity must generate
//! byte-identical designs to one built without, sequentially and at
//! 1/4/8 workers. The CI stress step widens the worker counts via
//! `SYNCIRCUIT_STRESS_WORKERS` (see [`worker_counts`]).

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::OnceLock;
use syncircuit_core::{GenRequest, Generated, PipelineConfig, RewardKind, SynCircuit};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_graph::CircuitGraph;

fn corpus() -> Vec<CircuitGraph> {
    let mut rng = StdRng::seed_from_u64(515);
    (0..4)
        .map(|_| random_circuit_with_size(&mut rng, 24))
        .collect()
}

/// Worker counts the batch is checked at: 1/4/8, widened by
/// `SYNCIRCUIT_STRESS_WORKERS` (a max: powers of two up to it).
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![1, 4, 8];
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

/// Identically-trained models differing only in the cache capacity they
/// were given: the reference none, the subject a tiny one.
fn models() -> &'static (SynCircuit, SynCircuit) {
    static MODELS: OnceLock<(SynCircuit, SynCircuit)> = OnceLock::new();
    MODELS.get_or_init(|| {
        let config = |capacity: usize| {
            PipelineConfig::builder()
                .seed(61)
                .reward(RewardKind::IncrementalCone)
                .cone_cache_capacity(capacity)
                .build()
                .expect("valid configuration")
        };
        let unbounded = SynCircuit::fit(&corpus(), config(0)).expect("fit");
        let bounded = SynCircuit::fit(&corpus(), config(3)).expect("fit");
        assert_eq!(
            unbounded.to_json(),
            bounded.to_json(),
            "the cache bound is operational: trained bits must be identical"
        );
        (unbounded, bounded)
    })
}

fn assert_generated_identical(a: &Generated, b: &Generated) {
    assert_eq!(a.graph, b.graph, "final graphs must be identical");
    assert_eq!(a.gval, b.gval, "G_val must be identical");
    assert_eq!(a.gini_edges, b.gini_edges);
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.mcts.len(), b.mcts.len());
    for (x, y) in a.mcts.iter().zip(&b.mcts) {
        assert_eq!(x.best_reward.to_bits(), y.best_reward.to_bits());
        assert_eq!(x.evaluations, y.evaluations);
        assert_eq!(x.best, y.best);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn bounded_generation_matches_unbounded_at_1_4_8_workers(base in any::<u64>()) {
        let (unbounded, bounded) = models();
        // Varied sizes spread requests over many cones; duplicates make
        // workers score the same cones again.
        let mut requests: Vec<GenRequest> = (0..6u64)
            .map(|k| {
                GenRequest::nodes(18 + (base.wrapping_add(k) % 8) as usize)
                    .seeded(base.wrapping_mul(17).wrapping_add(k))
            })
            .collect();
        requests.push(requests[0].clone());
        requests.push(requests[2].clone());
        // A batch runs at most one worker per request: repeat the
        // requests until the widest count gets a request per worker.
        let counts = worker_counts();
        let widest = counts.iter().copied().max().unwrap_or(1);
        let distinct = requests.len();
        for k in distinct..widest {
            requests.push(requests[k % distinct].clone());
        }
        let reference: Vec<_> = requests.iter().map(|r| unbounded.generate_one(r)).collect();
        for workers in counts {
            let subject = bounded.generate_batch_with(&requests, workers);
            prop_assert_eq!(reference.len(), subject.len());
            for (r, s) in reference.iter().zip(&subject) {
                match (r, s) {
                    (Ok(a), Ok(b)) => assert_generated_identical(a, b),
                    (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                    _ => prop_assert!(
                        false,
                        "bounded/unbounded disagree on success at {} workers",
                        workers
                    ),
                }
            }
        }
    }
}
