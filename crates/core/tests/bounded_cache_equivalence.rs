//! Bounded cone cache ≡ unbounded cone cache, end to end.
//!
//! `PipelineConfig::cone_cache_capacity` bounds the model-wide
//! [`SharedConeSynthCache`](syncircuit_synth::SharedConeSynthCache) to a
//! per-shard entry budget with CLOCK eviction. The cache memoizes a
//! *pure* function of the cone's structural key, so eviction may only
//! ever cost re-synthesis — never change a result. This battery pins
//! that down at the pipeline level: a bounded model must generate
//! byte-identical designs to an unbounded one, sequentially and at
//! 1/4/8 workers, while actually evicting under the pressure we apply.
//! The CI stress step widens the worker counts via
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

/// Identically-trained models differing only in the operational cache
/// bound: the reference is unbounded, the subject gives each of the
/// default shards a tiny capacity so realistic workloads force CLOCK
/// churn.
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
        // Varied sizes spread requests over many cone keys; duplicates
        // make workers revisit keys the bound may have evicted.
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

#[test]
fn the_bound_actually_bites() {
    // The equivalence above is vacuous if the bound never evicts; pin
    // the pressure: capacity is respected and CLOCK churn is non-zero,
    // while the unbounded reference never evicts.
    let (unbounded, bounded) = models();
    for k in 0..5u64 {
        let req = GenRequest::nodes(20 + k as usize).seeded(900 + k);
        let a = unbounded.generate_one(&req).unwrap();
        let b = bounded.generate_one(&req).unwrap();
        assert_generated_identical(&a, &b);
    }
    let cap = bounded.config().cone_cache_capacity();
    assert_eq!(cap, 3);
    assert!(
        bounded.cone_cache().entries() <= cap * bounded.cone_cache().shard_count(),
        "resident entries must respect the per-shard bound"
    );
    assert!(
        bounded.cone_cache().total_stats().evictions > 0,
        "this workload must force CLOCK eviction for the battery to bite"
    );
    assert_eq!(unbounded.cone_cache().total_stats().evictions, 0);
}

#[test]
fn a_huge_capacity_allocates_like_an_unbounded_table() {
    // No shard table is sized from the capacity: a bound no table could
    // reach allocates nothing up front, and after the same Phase-3
    // request holds exactly the bytes an unbounded model does.
    let fit = |capacity: usize| {
        let config = PipelineConfig::builder()
            .seed(61)
            .reward(RewardKind::IncrementalCone)
            .cone_cache_capacity(capacity)
            .build()
            .expect("valid configuration");
        SynCircuit::fit(&corpus(), config).expect("fit")
    };
    let (huge, unbounded) = (fit(usize::MAX), fit(0));
    assert_eq!(huge.cone_cache().bytes(), 0, "nothing allocated at fit");
    let req = GenRequest::nodes(22).seeded(5);
    let a = huge.generate_one(&req).unwrap();
    let b = unbounded.generate_one(&req).unwrap();
    assert_generated_identical(&a, &b);
    assert!(a.mcts.iter().any(|r| r.evaluations > 0), "Phase 3 ran");
    assert!(huge.cone_cache().bytes() > 0);
    assert_eq!(huge.cone_cache().bytes(), unbounded.cone_cache().bytes());
    assert_eq!(
        huge.cone_cache().entries(),
        unbounded.cone_cache().entries()
    );
    let per_shard =
        |m: &SynCircuit| -> Vec<usize> { m.cone_cache_stats().iter().map(|s| s.bytes).collect() };
    assert_eq!(per_shard(&huge), per_shard(&unbounded));
}
