//! GraphMaker-v baseline (Li et al.), adapted per the paper (§VII-A):
//! a one-shot generator of large attributed graphs that ignores edge
//! direction. We estimate an undirected edge-probability model from the
//! training corpus (per type-pair logits calibrated to corpus density),
//! sample an undirected graph in one shot, orient each edge with the
//! gravity-inspired decoder, and refine parent edges in node order to
//! meet the circuit constraints (the paper's adaptation: "we must refine
//! the parent edges in a specific node order").

use crate::common::GravityDirection;
use crate::BaselineError;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;
use syncircuit_core::diffusion::{EdgeProbs, SampledGraph};
use syncircuit_core::{refine, AttrModel, RefineConfig};
use syncircuit_graph::{CircuitGraph, ALL_NODE_TYPES};

/// One-shot undirected edge model: per ordered-type-pair empirical edge
/// rates, used symmetrically.
#[derive(Clone, Debug)]
pub struct GraphMaker {
    /// `rate[a][b]` = undirected edges between types a,b per node pair.
    rate: Vec<Vec<f64>>,
    gravity: GravityDirection,
    attrs: AttrModel,
    mean_degree: f64,
}

impl GraphMaker {
    /// Fits the edge-rate table and gravity decoder on real circuits.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty.
    pub fn train(graphs: &[CircuitGraph], _seed: u64) -> Self {
        assert!(!graphs.is_empty(), "GraphMaker training needs graphs");
        let t = ALL_NODE_TYPES.len();
        let mut edge_counts = vec![vec![0.0f64; t]; t];
        let mut pair_counts = vec![vec![1e-9f64; t]; t];
        let mut total_edges = 0usize;
        let mut total_nodes = 0usize;
        for g in graphs {
            total_edges += g.edge_count();
            total_nodes += g.node_count();
            let type_counts = {
                let mut c = vec![0usize; t];
                for (_, n) in g.iter() {
                    c[n.ty().category()] += 1;
                }
                c
            };
            for a in 0..t {
                for b in 0..t {
                    pair_counts[a][b] += (type_counts[a] * type_counts[b]) as f64;
                }
            }
            for e in g.edges() {
                let (a, b) = (g.ty(e.from).category(), g.ty(e.to).category());
                // symmetric (direction-blind, the baseline's limitation)
                edge_counts[a][b] += 0.5;
                edge_counts[b][a] += 0.5;
            }
        }
        let rate = (0..t)
            .map(|a| {
                (0..t)
                    .map(|b| (edge_counts[a][b] / pair_counts[a][b]).min(0.9))
                    .collect()
            })
            .collect();
        GraphMaker {
            rate,
            gravity: GravityDirection::fit(graphs),
            attrs: AttrModel::fit(graphs).expect("baseline training needs a non-empty corpus"),
            mean_degree: total_edges as f64 / total_nodes.max(1) as f64,
        }
    }

    /// Generates one valid circuit with `n` nodes.
    ///
    /// # Errors
    ///
    /// Propagates Phase-2-style refinement failures as
    /// [`BaselineError::Unbuildable`].
    pub fn generate(&self, n: usize, seed: u64) -> Result<CircuitGraph, BaselineError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let attrs = self.attrs.sample_attrs(n, &mut rng);
        // one-shot undirected sampling, calibrated so the expected degree
        // matches the corpus
        let mut undirected: Vec<(u32, u32)> = Vec::new();
        let base: f64 = {
            // expected edges under raw rates
            let mut exp = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    exp += self.rate[attrs[i].ty().category()][attrs[j].ty().category()];
                }
            }
            let target = self.mean_degree * n as f64;
            if exp > 1e-9 {
                (target / exp).min(16.0)
            } else {
                1.0
            }
        };
        for i in 0..n {
            for j in (i + 1)..n {
                let p = (self.rate[attrs[i].ty().category()][attrs[j].ty().category()] * base)
                    .clamp(0.0, 0.95);
                if rng.gen_bool(p) {
                    undirected.push((i as u32, j as u32));
                }
            }
        }
        // gravity-based orientation → directed G_ini + P_E
        let mut probs = EdgeProbs::new(0.0);
        let mut parents: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        for &(u, v) in &undirected {
            let (ty_u, ty_v) = (attrs[u as usize].ty(), attrs[v as usize].ty());
            let pf = self.gravity.prob_forward(ty_u, ty_v) as f32;
            probs.record(u, v, pf);
            probs.record(v, u, 1.0 - pf);
            let (from, to) = self.gravity.orient(u, v, ty_u, ty_v, &mut rng);
            if seen.insert((from, to)) {
                parents[to as usize].push(from);
            }
        }
        let sampled = SampledGraph { parents, probs };
        let mut g = refine(
            &attrs,
            &sampled,
            &self.attrs,
            &RefineConfig::default(),
            seed,
        )
        .map_err(|_| BaselineError::Unbuildable {
            generator: "graphmaker",
            nodes: n,
        })?;
        g.legalize_bit_selects();
        g.set_name(format!("graphmaker_{seed:x}"));
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::testing::random_circuit_with_size;

    fn corpus() -> Vec<CircuitGraph> {
        let mut rng = StdRng::seed_from_u64(31);
        (0..4)
            .map(|_| random_circuit_with_size(&mut rng, 30))
            .collect()
    }

    #[test]
    fn generates_valid_circuits() {
        let model = GraphMaker::train(&corpus(), 1);
        for seed in 0..3 {
            let g = model.generate(30, seed).expect("generation succeeds");
            assert!(g.is_valid(), "{:?}", g.validate());
            assert_eq!(g.node_count(), 30);
        }
    }

    #[test]
    fn density_is_calibrated() {
        let model = GraphMaker::train(&corpus(), 2);
        let g = model.generate(60, 9).unwrap();
        let degree = g.edge_count() as f64 / g.node_count() as f64;
        // refinement forces arity, so density lands near the corpus
        // mean; just guard against explosion
        assert!(degree < model.mean_degree * 4.0 + 2.0, "degree {degree}");
    }

    #[test]
    fn type_pair_rates_reflect_corpus() {
        let model = GraphMaker::train(&corpus(), 3);
        // outputs never pair with outputs in real circuits
        let o = syncircuit_graph::NodeType::Output.category();
        assert!(model.rate[o][o] < 1e-6);
    }
}
