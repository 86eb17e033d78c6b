//! Phase 2 — probability-guided graph post-processing (paper §V).
//!
//! The diffusion output `G_ini` almost never satisfies the circuit
//! constraints `C`. This pass walks the nodes sequentially; a node whose
//! `G_ini` parents are already valid is kept as-is, otherwise candidate
//! parents are scanned in **descending edge probability** (from
//! `P_E^{(0)}`), skipping any candidate that would close a combinational
//! loop (checked with the register-blocked path query), until the arity
//! required by the node type is met.
//!
//! Two practical extensions, both from the paper's evaluation narrative:
//!
//! - **Out-degree guidance** (§VII-B.1 credits degree realism to "the
//!   out-degree guidance in the postprocessing phase"): each node gets an
//!   out-degree budget sampled from the corpus distribution; candidates
//!   with exhausted budgets are deprioritized (not forbidden).
//! - **Emittability**: bit-select offsets are clamped against the chosen
//!   parent so the result is always printable as legal Verilog.

use crate::attrs::AttrModel;
use crate::diffusion::SampledGraph;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::error::Error;
use std::fmt;
use syncircuit_graph::comb::LoopQuery;
use syncircuit_graph::{CircuitGraph, Node, NodeId};

/// Phase 2 configuration.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RefineConfig {
    /// Enable out-degree budget guidance.
    pub degree_guidance: bool,
    /// Keep `G_ini` parent sets that are already valid (the paper's
    /// "skip this node" rule). Disabling forces a full re-selection.
    pub keep_valid_parents: bool,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            degree_guidance: true,
            keep_valid_parents: true,
        }
    }
}

/// Error from [`refine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefineError {
    /// No loop-safe parent exists for a node (attribute set has no
    /// input/const/register to fall back on).
    NoValidParent {
        /// The node that could not be wired.
        node: NodeId,
    },
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::NoValidParent { node } => {
                write!(f, "no loop-safe parent candidate for node {node}")
            }
        }
    }
}

impl Error for RefineError {}

/// Runs Phase 2: turns (`attrs`, `G_ini`, `P_E`) into a circuit graph
/// satisfying every constraint in `C`.
///
/// # Errors
///
/// Returns [`RefineError::NoValidParent`] when a node cannot be wired
/// without violating the constraints (only possible for degenerate
/// attribute sets without sources or registers).
pub fn refine(
    attrs: &[Node],
    sampled: &SampledGraph,
    attr_model: &AttrModel,
    config: &RefineConfig,
    seed: u64,
) -> Result<CircuitGraph, RefineError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = attrs.len();
    let mut g = CircuitGraph::new("refined");
    for a in attrs {
        g.push_node(*a);
    }

    // Out-degree budgets (guidance only, never a hard limit).
    let budgets: Vec<u32> = (0..n)
        .map(|_| {
            if config.degree_guidance {
                attr_model.sample_out_degree(&mut rng).max(1)
            } else {
                u32::MAX
            }
        })
        .collect();
    let mut out_deg = vec![0u32; n];

    //

    // Incrementally maintained children index for loop queries, and the
    // one query scratch every candidate reuses.
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut loops = LoopQuery::default();

    let is_sink = |k: usize| attrs[k].ty().is_sink();
    for i in 0..n {
        let node_id = NodeId::new(i);
        let arity = attrs[i].ty().arity();
        if arity == 0 {
            continue;
        }

        let mut chosen: Vec<u32> = Vec::new();
        let mut try_add = |cand: u32,
                           chosen: &mut Vec<u32>,
                           g: &CircuitGraph,
                           children: &mut Vec<Vec<NodeId>>,
                           out_deg: &mut Vec<u32>|
         -> bool {
            let c = cand as usize;
            if chosen.len() >= arity {
                return false;
            }
            if is_sink(c) || chosen.contains(&cand) {
                return false;
            }
            if c == i && !attrs[i].ty().is_register() {
                return false;
            }
            if loops.would_close(g, children, NodeId::new(c), node_id) {
                return false;
            }
            chosen.push(cand);
            children[c].push(node_id);
            out_deg[c] += 1;
            true
        };

        // 1) Keep already-valid G_ini parents (highest-probability first).
        if config.keep_valid_parents {
            let mut ini: Vec<(u32, f32)> = sampled.parents[i]
                .iter()
                .map(|&p| (p, sampled.probs.get(p, i as u32)))
                .collect();
            ini.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for (p, _) in ini {
                try_add(p, &mut chosen, &g, &mut children, &mut out_deg);
                if chosen.len() == arity {
                    break;
                }
            }
        }

        // 2) Scored candidates from P_E in descending probability, in two
        //    tiers by remaining out-degree budget.
        if chosen.len() < arity {
            let scored = sampled.probs.candidates_for(i as u32);
            for tier in 0..2 {
                for &(p, _) in &scored {
                    if chosen.len() == arity {
                        break;
                    }
                    let within = out_deg[p as usize] < budgets[p as usize];
                    if (tier == 0) != within {
                        continue;
                    }
                    try_add(p, &mut chosen, &g, &mut children, &mut out_deg);
                }
            }
        }

        // 3) Unscored fallback: every remaining node, sources and
        //    registers first (always loop-safe), then by id.
        if chosen.len() < arity {
            let mut rest: Vec<u32> = (0..n as u32).collect();
            rest.sort_by_key(|&c| {
                let ty = attrs[c as usize].ty();
                let safe = ty.is_source() || ty.is_register();
                (!safe, out_deg[c as usize] >= budgets[c as usize], c)
            });
            for p in rest {
                if chosen.len() == arity {
                    break;
                }
                try_add(p, &mut chosen, &g, &mut children, &mut out_deg);
            }
        }

        if chosen.len() < arity {
            return Err(RefineError::NoValidParent { node: node_id });
        }

        let parent_ids: Vec<NodeId> = chosen.iter().map(|&p| NodeId::new(p as usize)).collect();
        g.set_parents_unchecked(node_id, &parent_ids);
    }

    // Emittability: clamp bit-select ranges against chosen parents.
    g.legalize_bit_selects();

    debug_assert!(
        g.is_valid(),
        "refinement must produce valid graphs: {:?}",
        g.validate()
    );
    Ok(g)
}

/// "SynCircuit w/o diff" ablation (Table II): random edge probabilities
/// and an empty `G_ini`, with the same Phase 2 post-processing.
pub fn refine_without_diffusion(
    attrs: &[Node],
    attr_model: &AttrModel,
    config: &RefineConfig,
    seed: u64,
) -> Result<CircuitGraph, RefineError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
    let n = attrs.len() as u32;
    let mut probs = crate::diffusion::EdgeProbs::new(0.0);
    // Score a random candidate set with uniform probabilities (the
    // ablation's "randomly construct edges when generating Gini and PE").
    let per_node = 12usize.min(n as usize);
    for j in 0..n {
        for _ in 0..per_node {
            let i = rng.gen_range(0..n);
            probs.record(i, j, rng.gen::<f32>());
        }
    }
    let sampled = SampledGraph {
        parents: vec![Vec::new(); n as usize],
        probs,
    };
    refine(attrs, &sampled, attr_model, config, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diffusion::EdgeProbs;
    use syncircuit_graph::testing::random_circuit_with_size;
    use syncircuit_graph::NodeType;

    fn model() -> AttrModel {
        let mut rng = StdRng::seed_from_u64(0);
        let corpus: Vec<CircuitGraph> = (0..3)
            .map(|_| random_circuit_with_size(&mut rng, 40))
            .collect();
        AttrModel::fit(&corpus).expect("corpus is non-empty")
    }

    fn random_sampled(n: usize, seed: u64) -> SampledGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut probs = EdgeProbs::new(0.0);
        let mut parents = vec![Vec::new(); n];
        for j in 0..n as u32 {
            for _ in 0..6 {
                let i = rng.gen_range(0..n as u32);
                probs.record(i, j, rng.gen::<f32>());
                if rng.gen_bool(0.3) {
                    parents[j as usize].push(i);
                }
            }
        }
        SampledGraph { parents, probs }
    }

    #[test]
    fn refinement_always_produces_valid_graphs() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(42);
        for k in 0..40 {
            let attrs = m.sample_attrs(10 + k % 50, &mut rng);
            let sampled = random_sampled(attrs.len(), k as u64);
            let g = refine(&attrs, &sampled, &m, &RefineConfig::default(), k as u64)
                .expect("refinement must succeed on sampled attrs");
            assert!(g.is_valid(), "iter {k}: {:?}", g.validate());
            assert_eq!(g.node_count(), attrs.len());
        }
    }

    #[test]
    fn refined_graphs_are_emittable() {
        // bit-select clamping must make every refined graph printable
        let m = model();
        let mut rng = StdRng::seed_from_u64(9);
        for k in 0..10 {
            let attrs = m.sample_attrs(30, &mut rng);
            let sampled = random_sampled(attrs.len(), 100 + k);
            let g = refine(&attrs, &sampled, &m, &RefineConfig::default(), k).unwrap();
            for (id, node) in g.iter() {
                if node.ty() == NodeType::BitSelect {
                    let pw = g.node(g.parents(id)[0]).width();
                    assert!(node.aux() as u32 + node.width() <= pw);
                }
            }
        }
    }

    #[test]
    fn types_and_widths_preserved() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(3);
        let attrs = m.sample_attrs(25, &mut rng);
        let sampled = random_sampled(attrs.len(), 5);
        let g = refine(&attrs, &sampled, &m, &RefineConfig::default(), 5).unwrap();
        for (i, a) in attrs.iter().enumerate() {
            let got = g.node(NodeId::new(i));
            assert_eq!(got.ty(), a.ty());
            if a.ty() != NodeType::BitSelect {
                assert_eq!(got.width(), a.width());
            }
        }
    }

    #[test]
    fn high_probability_edges_win() {
        let m = model();
        // attrs: two inputs, an add, an output
        let attrs = vec![
            Node::new(NodeType::Input, 8),
            Node::new(NodeType::Input, 8),
            Node::new(NodeType::Add, 8),
            Node::new(NodeType::Output, 8),
            Node::new(NodeType::Reg, 8),
            Node::new(NodeType::Const, 8),
        ];
        let mut probs = EdgeProbs::new(0.0);
        probs.record(0, 2, 0.99);
        probs.record(1, 2, 0.98);
        probs.record(4, 2, 0.01);
        probs.record(2, 3, 0.9);
        probs.record(2, 4, 0.9);
        let sampled = SampledGraph {
            parents: vec![Vec::new(); 6],
            probs,
        };
        let g = refine(&attrs, &sampled, &m, &RefineConfig::default(), 1).unwrap();
        assert_eq!(
            g.parents(NodeId::new(2)),
            &[NodeId::new(0), NodeId::new(1)],
            "descending-probability selection"
        );
        assert_eq!(g.parents(NodeId::new(3)), &[NodeId::new(2)]);
    }

    #[test]
    fn comb_loops_are_avoided() {
        let m = model();
        // Two NOT gates that would love to feed each other.
        let attrs = vec![
            Node::new(NodeType::Not, 4),
            Node::new(NodeType::Not, 4),
            Node::new(NodeType::Input, 4),
            Node::new(NodeType::Output, 4),
        ];
        let mut probs = EdgeProbs::new(0.0);
        probs.record(1, 0, 0.99); // n1 -> n0
        probs.record(0, 1, 0.99); // n0 -> n1 (would close a comb loop)
        probs.record(0, 3, 0.5);
        let sampled = SampledGraph {
            parents: vec![Vec::new(); 4],
            probs,
        };
        let g = refine(&attrs, &sampled, &m, &RefineConfig::default(), 2).unwrap();
        assert!(g.is_valid());
        // n0 took n1; n1 must have been diverted to the input.
        assert_eq!(g.parents(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(g.parents(NodeId::new(1)), &[NodeId::new(2)]);
    }

    #[test]
    fn keep_valid_parents_respected() {
        let m = model();
        let attrs = vec![
            Node::new(NodeType::Input, 8),
            Node::new(NodeType::Input, 8),
            Node::new(NodeType::Add, 8),
            Node::new(NodeType::Output, 8),
        ];
        let mut probs = EdgeProbs::new(0.0);
        probs.record(0, 2, 0.1);
        probs.record(1, 2, 0.1);
        let sampled = SampledGraph {
            parents: vec![vec![], vec![], vec![1, 0], vec![2]],
            probs,
        };
        let g = refine(&attrs, &sampled, &m, &RefineConfig::default(), 3).unwrap();
        // G_ini parents kept (both valid), order by prob then id: equal
        // probs → id order 0, 1.
        let ps = g.parents(NodeId::new(2));
        assert_eq!(ps.len(), 2);
        assert!(ps.contains(&NodeId::new(0)) && ps.contains(&NodeId::new(1)));
    }

    #[test]
    fn ablation_without_diffusion_is_valid() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(17);
        let attrs = m.sample_attrs(40, &mut rng);
        let g = refine_without_diffusion(&attrs, &m, &RefineConfig::default(), 17).unwrap();
        assert!(g.is_valid());
    }

    #[test]
    fn degenerate_attrs_error_cleanly() {
        let m = model();
        // Only NOT gates: every wiring closes a comb loop once the chain
        // saturates... actually a chain is fine; use two NOTs only.
        let attrs = vec![Node::new(NodeType::Not, 1), Node::new(NodeType::Not, 1)];
        let sampled = SampledGraph {
            parents: vec![Vec::new(); 2],
            probs: EdgeProbs::new(0.0),
        };
        let err = refine(&attrs, &sampled, &m, &RefineConfig::default(), 0).unwrap_err();
        assert!(matches!(err, RefineError::NoValidParent { .. }));
        assert!(format!("{err}").contains("loop-safe"));
    }

    #[test]
    fn determinism() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(23);
        let attrs = m.sample_attrs(30, &mut rng);
        let sampled = random_sampled(attrs.len(), 7);
        let a = refine(&attrs, &sampled, &m, &RefineConfig::default(), 7).unwrap();
        let b = refine(&attrs, &sampled, &m, &RefineConfig::default(), 7).unwrap();
        assert_eq!(a, b);
    }
}
