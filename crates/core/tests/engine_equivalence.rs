//! Step-for-step equivalence of the zero-clone Phase-3 engine against
//! the clone-based reference implementation (`mcts::oracle`).
//!
//! The fast path must be an *implementation* change only: on any valid
//! circuit and any seed, every public optimizer must return a
//! byte-identical [`MctsOutcome`] — same best graph (slot-exact parent
//! lists), bit-identical rewards, identical reward-model evaluation
//! counts (i.e. identical cache hit patterns), identical adjacency
//! fingerprints.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use syncircuit_core::mcts::oracle;
use syncircuit_core::{
    optimize_cone_mcts, optimize_random_walk, optimize_registers, optimize_registers_random,
    ConeSelection, ExactSynthReward, IncrementalConeReward, MctsConfig, MctsOutcome,
};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_graph::zobrist_fingerprint;

fn assert_outcomes_identical(fast: &MctsOutcome, reference: &MctsOutcome) {
    assert_eq!(
        fast.best_reward.to_bits(),
        reference.best_reward.to_bits(),
        "best_reward must be bit-identical"
    );
    assert_eq!(
        fast.initial_reward.to_bits(),
        reference.initial_reward.to_bits(),
        "initial_reward must be bit-identical"
    );
    assert_eq!(
        fast.evaluations, reference.evaluations,
        "reward-model evaluation counts must match (cache behavior)"
    );
    assert_eq!(fast.best, reference.best, "best graphs must be identical");
    assert_eq!(
        zobrist_fingerprint(&fast.best),
        zobrist_fingerprint(&reference.best),
        "fingerprints must match"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cone_mcts_matches_oracle(seed in any::<u64>(), n in 12usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_circuit_with_size(&mut rng, n);
        let reward = ExactSynthReward::new();
        let mut cfg = MctsConfig::tiny();
        cfg.simulations = 25;
        cfg.seed = seed;
        let fast = optimize_cone_mcts(&g, &reward, &cfg);
        let reference = oracle::optimize_cone_mcts(&g, &reward, &cfg);
        assert_outcomes_identical(&fast, &reference);
    }

    #[test]
    fn register_optimization_matches_oracle(seed in any::<u64>(), n in 14usize..36) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_circuit_with_size(&mut rng, n);
        let reward = ExactSynthReward::new();
        let mut cfg = MctsConfig::tiny();
        cfg.simulations = 12;
        cfg.seed = seed;
        let (fast_g, fast_o) = optimize_registers(&g, &reward, &cfg, ConeSelection::WorstK(3));
        let (ref_g, ref_o) = oracle::optimize_registers(&g, &reward, &cfg, ConeSelection::WorstK(3));
        assert_eq!(fast_g, ref_g, "final designs must be identical");
        assert_eq!(fast_o.len(), ref_o.len());
        for (f, r) in fast_o.iter().zip(&ref_o) {
            assert_outcomes_identical(f, r);
        }
    }

    #[test]
    fn random_walk_matches_oracle(seed in any::<u64>(), n in 12usize..36) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_circuit_with_size(&mut rng, n);
        let reward = ExactSynthReward::new();
        let regs = g.nodes_of_type(syncircuit_graph::NodeType::Reg);
        let focus = (!regs.is_empty()).then_some(&regs[..]);
        let fast = optimize_random_walk(&g, focus, true, &reward, 20, 5, seed);
        let reference = oracle::optimize_random_walk(&g, focus, true, &reward, 20, 5, seed);
        assert_outcomes_identical(&fast, &reference);
    }

    #[test]
    fn register_random_ablation_matches_oracle(seed in any::<u64>(), n in 14usize..32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_circuit_with_size(&mut rng, n);
        let reward = ExactSynthReward::new();
        let (fast_g, fast_o) =
            optimize_registers_random(&g, &reward, 12, 4, ConeSelection::WorstK(2), seed);
        let (ref_g, ref_o) =
            oracle::optimize_registers_random(&g, &reward, 12, 4, ConeSelection::WorstK(2), seed);
        assert_eq!(fast_g, ref_g);
        for (f, r) in fast_o.iter().zip(&ref_o) {
            assert_outcomes_identical(f, r);
        }
    }

    #[test]
    fn equivalence_holds_under_incremental_reward(seed in any::<u64>(), n in 12usize..30) {
        // The engines must agree for ANY deterministic reward model;
        // exercise the dirty-cone evaluator on both sides (separate
        // instances so cache warmth cannot leak between engines).
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_circuit_with_size(&mut rng, n);
        let mut cfg = MctsConfig::tiny();
        cfg.simulations = 15;
        cfg.seed = seed;
        let fast = optimize_cone_mcts(&g, &IncrementalConeReward::new(), &cfg);
        let reference = oracle::optimize_cone_mcts(&g, &IncrementalConeReward::new(), &cfg);
        assert_outcomes_identical(&fast, &reference);
    }

    #[test]
    fn register_optimization_matches_oracle_under_incremental_reward(
        seed in any::<u64>(),
        n in 14usize..32,
    ) {
        // One fresh reward instance per side serves two designs in turn,
        // so the engine side's per-apex memo outlives every register
        // search's swap engine, and the first design's; the oracle side
        // scores every state from scratch.
        let mut rng = StdRng::seed_from_u64(seed);
        let designs = [
            random_circuit_with_size(&mut rng, n),
            random_circuit_with_size(&mut rng, n + 4),
        ];
        let fast_reward = IncrementalConeReward::new();
        let ref_reward = IncrementalConeReward::new();
        let mut cfg = MctsConfig::tiny();
        cfg.simulations = 12;
        cfg.seed = seed;
        for g in &designs {
            let (fast_g, fast_o) = optimize_registers(g, &fast_reward, &cfg, ConeSelection::All);
            let (ref_g, ref_o) =
                oracle::optimize_registers(g, &ref_reward, &cfg, ConeSelection::All);
            assert_eq!(fast_g, ref_g, "final designs must be identical");
            assert_eq!(fast_o.len(), ref_o.len());
            for (f, r) in fast_o.iter().zip(&ref_o) {
                assert_outcomes_identical(f, r);
            }
        }
    }

    #[test]
    fn register_random_ablation_matches_oracle_under_incremental_reward(
        seed in any::<u64>(),
        n in 14usize..32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let designs = [
            random_circuit_with_size(&mut rng, n),
            random_circuit_with_size(&mut rng, n + 4),
        ];
        let fast_reward = IncrementalConeReward::new();
        let ref_reward = IncrementalConeReward::new();
        for g in &designs {
            let (fast_g, fast_o) =
                optimize_registers_random(g, &fast_reward, 12, 4, ConeSelection::All, seed);
            let (ref_g, ref_o) =
                oracle::optimize_registers_random(g, &ref_reward, 12, 4, ConeSelection::All, seed);
            assert_eq!(fast_g, ref_g);
            assert_eq!(fast_o.len(), ref_o.len());
            for (f, r) in fast_o.iter().zip(&ref_o) {
                assert_outcomes_identical(f, r);
            }
        }
    }
}
