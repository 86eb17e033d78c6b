//! Property tests of the reversible in-place swap engine: `undo` must
//! restore the graph, the children index, and the adjacency fingerprint
//! *exactly*, and the maintained index/fingerprint must match a
//! from-scratch rebuild after every accepted swap. The parent-list
//! stamps must name one parent list per (node, stamp) pair across
//! engines and clones, and each write must restamp exactly its two
//! rewritten children.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use syncircuit_graph::swap::{SwapDelta, SwapGraph};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_graph::zobrist_fingerprint;
use syncircuit_graph::{CircuitGraph, Edge, NodeId};

/// Uniformly samples two current edges of the graph.
fn sample_edge_pair(g: &CircuitGraph, rng: &mut StdRng) -> Option<(Edge, Edge)> {
    let edges: Vec<Edge> = g.edges().collect();
    if edges.len() < 2 {
        return None;
    }
    let a = edges[rng.gen_range(0..edges.len())];
    let b = edges[rng.gen_range(0..edges.len())];
    Some((a, b))
}

/// Every (node, stamp) pair seen so far, with the parent list it named.
#[derive(Default)]
struct StampLedger(HashMap<(usize, u64), Vec<NodeId>>);

impl StampLedger {
    /// Records every node's current (stamp, parent list), failing on a
    /// pair already seen with a different list.
    fn check(&mut self, sg: &SwapGraph) {
        for (k, &stamp) in sg.stamps().iter().enumerate() {
            let parents = sg.graph().parents(NodeId::new(k));
            let named = self.0.entry((k, stamp)).or_insert_with(|| parents.to_vec());
            prop_assert_eq!(
                named.as_slice(),
                parents,
                "stamp {} of node {} names two parent lists",
                stamp,
                k
            );
        }
    }
}

/// Checks that a write changed exactly the stamps of `d.j` and `d.q`.
fn restamped_exactly(before: &[u64], sg: &SwapGraph, d: &SwapDelta) {
    let changed: Vec<usize> = (0..before.len())
        .filter(|&k| before[k] != sg.stamps()[k])
        .collect();
    let mut expected = vec![d.j.index(), d.q.index()];
    expected.sort_unstable();
    prop_assert_eq!(changed, expected);
}

/// One random write on `sg`: a `try_apply` of two sampled edges, an
/// `undo` of the newest applied swap, or that `undo` followed by its
/// `apply_replay`. Checks the stamps around every write.
fn random_write(
    sg: &mut SwapGraph,
    applied: &mut Vec<SwapDelta>,
    ledger: &mut StampLedger,
    rng: &mut StdRng,
) {
    let before = sg.stamps().to_vec();
    match rng.gen_range(0..4) {
        0 | 1 => {
            let Some((a, b)) = sample_edge_pair(sg.graph(), rng) else {
                return;
            };
            match sg.try_apply(a.from, a.to, b.from, b.to) {
                Some(d) => {
                    restamped_exactly(&before, sg, &d);
                    applied.push(d);
                }
                None => {
                    prop_assert_eq!(sg.stamps(), &before[..], "a rejected swap changed a stamp")
                }
            }
        }
        2 => {
            if let Some(d) = applied.pop() {
                sg.undo(&d);
                restamped_exactly(&before, sg, &d);
            }
        }
        _ => {
            if let Some(&d) = applied.last() {
                sg.undo(&d);
                restamped_exactly(&before, sg, &d);
                ledger.check(sg);
                let undone = sg.stamps().to_vec();
                sg.apply_replay(&d);
                restamped_exactly(&undone, sg, &d);
            }
        }
    }
    ledger.check(sg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stamps_name_one_parent_list_each(seed in any::<u64>(), n in 8usize..32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_circuit_with_size(&mut rng, n);
        let mut ledger = StampLedger::default();
        let mut first = SwapGraph::new(g.clone());
        let mut first_applied = Vec::new();
        ledger.check(&first);
        for _ in 0..30 {
            random_write(&mut first, &mut first_applied, &mut ledger, &mut rng);
        }
        // A clone carries the same stamps for the same lists; a second
        // engine over the same graph starts from stamps of its own. All
        // three then write, interleaved, into one ledger.
        let mut engines = [
            (first.clone(), first_applied.clone()),
            (first, first_applied),
            (SwapGraph::new(g.clone()), Vec::new()),
        ];
        ledger.check(&engines[2].0);
        for _ in 0..90 {
            let (sg, applied) = &mut engines[rng.gen_range(0..3usize)];
            random_write(sg, applied, &mut ledger, &mut rng);
        }
    }

    #[test]
    fn apply_maintains_and_undo_restores(seed in any::<u64>(), n in 8usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_circuit_with_size(&mut rng, n);
        let fp0 = zobrist_fingerprint(&g);
        let mut sg = SwapGraph::new(g.clone());
        prop_assert_eq!(sg.fingerprint(), fp0);

        // Random trajectory of applied swaps with LIFO undo at the end.
        let mut stack = Vec::new();
        for _ in 0..60 {
            let Some((a, b)) = sample_edge_pair(sg.graph(), &mut rng) else { break };
            if let Some(d) = sg.try_apply(a.from, a.to, b.from, b.to) {
                // after every accepted swap the incremental state matches
                // a from-scratch rebuild
                prop_assert!(sg.graph().is_valid(), "{:?}", sg.graph().validate());
                prop_assert_eq!(sg.fingerprint(), zobrist_fingerprint(sg.graph()));
                prop_assert!(sg.children_in_sync(), "children index out of sync");
                prop_assert_eq!(sg.graph().in_degrees(), g.in_degrees());
                prop_assert_eq!(sg.graph().out_degrees(), g.out_degrees());
                stack.push(d);
            } else {
                // a rejected swap must leave no trace
                prop_assert_eq!(sg.fingerprint(), zobrist_fingerprint(sg.graph()));
                prop_assert!(sg.children_in_sync());
            }
        }
        for d in stack.iter().rev() {
            sg.undo(d);
        }
        prop_assert_eq!(sg.graph(), &g, "undo must restore the exact graph");
        prop_assert_eq!(sg.fingerprint(), fp0);
        prop_assert!(sg.children_in_sync());
    }

    #[test]
    fn replay_is_identical_to_apply(seed in any::<u64>(), n in 8usize..32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_circuit_with_size(&mut rng, n);
        let mut sg = SwapGraph::new(g.clone());
        for _ in 0..40 {
            let Some((a, b)) = sample_edge_pair(sg.graph(), &mut rng) else { break };
            if let Some(d) = sg.try_apply(a.from, a.to, b.from, b.to) {
                let applied = sg.graph().clone();
                let fp_applied = sg.fingerprint();
                sg.undo(&d);
                sg.apply_replay(&d);
                prop_assert_eq!(sg.graph(), &applied);
                prop_assert_eq!(sg.fingerprint(), fp_applied);
                prop_assert!(sg.children_in_sync());
            }
        }
    }

    #[test]
    fn nested_undo_interleaves_exactly(seed in any::<u64>(), n in 8usize..30) {
        // Apply k, undo some, apply more, undo all — a tree-descent
        // pattern — and land exactly on the initial state.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_circuit_with_size(&mut rng, n);
        let mut sg = SwapGraph::new(g.clone());
        let mut stack = Vec::new();
        for _round in 0..8 {
            for _ in 0..6 {
                let Some((a, b)) = sample_edge_pair(sg.graph(), &mut rng) else { break };
                if let Some(d) = sg.try_apply(a.from, a.to, b.from, b.to) {
                    stack.push(d);
                }
            }
            let keep = rng.gen_range(0..=stack.len());
            while stack.len() > keep {
                let d = stack.pop().unwrap();
                sg.undo(&d);
            }
            prop_assert_eq!(sg.fingerprint(), zobrist_fingerprint(sg.graph()));
            prop_assert!(sg.children_in_sync());
        }
        while let Some(d) = stack.pop() {
            sg.undo(&d);
        }
        prop_assert_eq!(sg.graph(), &g);
        prop_assert_eq!(sg.fingerprint(), zobrist_fingerprint(&g));
    }
}
