//! SparseDigress-v baseline (Qin et al.), adapted per the paper
//! (§VII-A): sparse discrete diffusion over *undirected* edges. The
//! denoiser is a small MLP over pair features (type one-hots, degrees,
//! time), trained with the same two-state corruption used by the main
//! model but on the undirected skeleton; generation denoises a sparse
//! candidate set, then orients edges with the gravity decoder and
//! refines for validity — direction information is never learned, the
//! baseline's documented limitation.

use crate::common::GravityDirection;
use crate::BaselineError;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;
use syncircuit_core::diffusion::{EdgeProbs, SampledGraph};
use syncircuit_core::{refine, AttrModel, NoiseSchedule, RefineConfig};
use syncircuit_graph::{CircuitGraph, Node, ALL_NODE_TYPES};
use syncircuit_nn::layers::Mlp;
use syncircuit_nn::{Adam, Matrix, ParamStore, Tape};

/// SparseDigress hyper-parameters.
#[derive(Clone, Debug)]
pub struct SparseDigressConfig {
    /// Diffusion steps.
    pub steps: usize,
    /// Training epochs.
    pub epochs: usize,
    /// MLP hidden width.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f32,
    /// Candidate pairs scored per node per step during generation.
    pub candidates_per_node: usize,
}

impl SparseDigressConfig {
    /// Small configuration for tests.
    pub fn tiny() -> Self {
        SparseDigressConfig {
            steps: 4,
            epochs: 12,
            hidden: 24,
            lr: 0.01,
            candidates_per_node: 8,
        }
    }

    /// Experiment-scale configuration.
    pub fn standard() -> Self {
        SparseDigressConfig {
            steps: 8,
            epochs: 80,
            hidden: 48,
            lr: 5e-3,
            candidates_per_node: 16,
        }
    }
}

const PAIR_DIM: usize = 2 * ALL_NODE_TYPES.len() + 3;

fn pair_features(a: &Node, b: &Node, deg_a: f32, deg_b: f32, t_norm: f32) -> Vec<f32> {
    let t = ALL_NODE_TYPES.len();
    let mut f = vec![0.0f32; PAIR_DIM];
    // symmetric encoding: unordered type pair
    let (x, y) = if a.ty().category() <= b.ty().category() {
        (a, b)
    } else {
        (b, a)
    };
    f[x.ty().category()] += 1.0;
    f[t + y.ty().category()] += 1.0;
    f[2 * t] = (deg_a + deg_b) / 8.0;
    f[2 * t + 1] = (deg_a - deg_b).abs() / 8.0;
    f[2 * t + 2] = t_norm;
    f
}

/// Trained SparseDigress-style generator.
#[derive(Debug)]
pub struct SparseDigress {
    store: ParamStore,
    mlp: Mlp,
    gravity: GravityDirection,
    attrs: AttrModel,
    mean_degree: f64,
    config: SparseDigressConfig,
}

impl SparseDigress {
    /// Trains the sparse undirected diffusion denoiser.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty.
    pub fn train(graphs: &[CircuitGraph], config: SparseDigressConfig, seed: u64) -> Self {
        assert!(!graphs.is_empty(), "SparseDigress training needs graphs");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &[PAIR_DIM, config.hidden, 1], &mut rng);
        let mut adam = Adam::with_lr(config.lr);

        let total_nodes: usize = graphs.iter().map(CircuitGraph::node_count).sum();
        let total_edges: usize = graphs.iter().map(CircuitGraph::edge_count).sum();
        let mean_degree = (total_edges as f64 / total_nodes.max(1) as f64).max(0.5);

        for _epoch in 0..config.epochs {
            for g in graphs {
                let n = g.node_count();
                if n < 4 {
                    continue;
                }
                let pi = (mean_degree / n as f64).clamp(1e-4, 0.5);
                let schedule = NoiseSchedule::cosine(config.steps, pi);
                let t = rng.gen_range(1..=config.steps);
                let t_norm = t as f32 / config.steps as f32;
                // undirected skeleton
                let mut und: HashSet<(u32, u32)> = HashSet::new();
                for e in g.edges() {
                    let (a, b) = (e.from.index() as u32, e.to.index() as u32);
                    if a != b {
                        und.insert((a.min(b), a.max(b)));
                    }
                }
                let degs: Vec<f32> = {
                    let mut d = vec![0f32; n];
                    for &(a, b) in &und {
                        d[a as usize] += 1.0;
                        d[b as usize] += 1.0;
                    }
                    d
                };
                // corrupted skeleton drives the degree features
                let keep_p = schedule.forward_prob(t, true);
                let noisy_degs: Vec<f32> = degs.iter().map(|&d| d * keep_p as f32).collect();
                // training pairs: positives + equal negatives
                let mut rows: Vec<Vec<f32>> = Vec::new();
                let mut labels: Vec<f32> = Vec::new();
                for &(a, b) in &und {
                    rows.push(pair_features(
                        g.node(syncircuit_graph::NodeId::new(a as usize)),
                        g.node(syncircuit_graph::NodeId::new(b as usize)),
                        noisy_degs[a as usize],
                        noisy_degs[b as usize],
                        t_norm,
                    ));
                    labels.push(1.0);
                }
                for _ in 0..und.len().max(4) {
                    let a = rng.gen_range(0..n as u32);
                    let b = rng.gen_range(0..n as u32);
                    if a == b || und.contains(&(a.min(b), a.max(b))) {
                        continue;
                    }
                    rows.push(pair_features(
                        g.node(syncircuit_graph::NodeId::new(a as usize)),
                        g.node(syncircuit_graph::NodeId::new(b as usize)),
                        noisy_degs[a as usize],
                        noisy_degs[b as usize],
                        t_norm,
                    ));
                    labels.push(0.0);
                }
                if rows.is_empty() {
                    continue;
                }
                let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
                let x = Matrix::from_rows(&refs);
                let y = Matrix::from_vec(labels.len(), 1, labels);
                let mut tape = Tape::new(&store);
                let xv = tape.leaf(x);
                let logits = mlp.forward(&mut tape, xv);
                let loss = tape.bce_with_logits_mean(logits, y);
                let mut grads = tape.backward(loss);
                grads.clip_norm(5.0);
                adam.step(&mut store, &grads);
            }
        }

        SparseDigress {
            store,
            mlp,
            gravity: GravityDirection::fit(graphs),
            attrs: AttrModel::fit(graphs).expect("baseline training needs a non-empty corpus"),
            mean_degree,
            config,
        }
    }

    /// Generates one valid circuit with `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::Unbuildable`] when refinement cannot
    /// satisfy the constraints.
    pub fn generate(&self, n: usize, seed: u64) -> Result<CircuitGraph, BaselineError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let attrs = self.attrs.sample_attrs(n, &mut rng);
        let pi = (self.mean_degree / n.max(2) as f64).clamp(1e-4, 0.5);
        let schedule = NoiseSchedule::cosine(self.config.steps, pi);

        // undirected state: set of (a<b) pairs
        let mut state: HashSet<(u32, u32)> = HashSet::new();
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                if rng.gen_bool(pi) {
                    state.insert((a, b));
                }
            }
        }

        let mut final_probs: Vec<((u32, u32), f32)> = Vec::new();
        for t in (1..=self.config.steps).rev() {
            let t_norm = t as f32 / self.config.steps as f32;
            let degs: Vec<f32> = {
                let mut d = vec![0f32; n];
                for &(a, b) in &state {
                    d[a as usize] += 1.0;
                    d[b as usize] += 1.0;
                }
                d
            };
            // sparse candidates: current edges + random pairs (sorted —
            // HashSet iteration order is not deterministic)
            let mut cands: Vec<(u32, u32)> = state.iter().copied().collect();
            cands.sort_unstable();
            let mut seen = state.clone();
            for a in 0..n as u32 {
                for _ in 0..self.config.candidates_per_node {
                    let b = rng.gen_range(0..n as u32);
                    if a == b {
                        continue;
                    }
                    let key = (a.min(b), a.max(b));
                    if seen.insert(key) {
                        cands.push(key);
                    }
                }
            }
            if cands.is_empty() {
                continue;
            }
            let rows: Vec<Vec<f32>> = cands
                .iter()
                .map(|&(a, b)| {
                    pair_features(
                        &attrs[a as usize],
                        &attrs[b as usize],
                        degs[a as usize],
                        degs[b as usize],
                        t_norm,
                    )
                })
                .collect();
            let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            let mut tape = Tape::new(&self.store);
            let xv = tape.leaf(Matrix::from_rows(&refs));
            let logits = self.mlp.forward(&mut tape, xv);
            let probs_v = tape.sigmoid(logits);
            let p0: Vec<f32> = tape.value(probs_v).data().to_vec();

            let mut next: HashSet<(u32, u32)> = HashSet::new();
            for (k, &pair) in cands.iter().enumerate() {
                let a_t = state.contains(&pair);
                let p_prev = schedule.posterior_prob(t, a_t, p0[k] as f64);
                if rng.gen_bool(p_prev.clamp(0.0, 1.0)) {
                    next.insert(pair);
                }
                if t == 1 {
                    final_probs.push((pair, p0[k]));
                }
            }
            state = next;
        }

        // Orient with gravity and hand to Phase-2-style refinement.
        let mut probs = EdgeProbs::new(0.0);
        for &((a, b), p) in &final_probs {
            let pf = self
                .gravity
                .prob_forward(attrs[a as usize].ty(), attrs[b as usize].ty())
                as f32;
            probs.record(a, b, p * pf);
            probs.record(b, a, p * (1.0 - pf));
        }
        let mut parents: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut final_edges: Vec<(u32, u32)> = state.iter().copied().collect();
        final_edges.sort_unstable();
        for &(a, b) in &final_edges {
            let (from, to) = self.gravity.orient(
                a,
                b,
                attrs[a as usize].ty(),
                attrs[b as usize].ty(),
                &mut rng,
            );
            parents[to as usize].push(from);
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
            generator: "sparsedigress",
            nodes: n,
        })?;
        g.legalize_bit_selects();
        g.set_name(format!("sparsedigress_{seed:x}"));
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::testing::random_circuit_with_size;

    fn corpus() -> Vec<CircuitGraph> {
        let mut rng = StdRng::seed_from_u64(90);
        (0..3)
            .map(|_| random_circuit_with_size(&mut rng, 25))
            .collect()
    }

    #[test]
    fn generates_valid_circuits() {
        let model = SparseDigress::train(&corpus(), SparseDigressConfig::tiny(), 1);
        for seed in 0..3 {
            let g = model.generate(25, seed).expect("generation succeeds");
            assert!(g.is_valid(), "{:?}", g.validate());
        }
    }

    #[test]
    fn determinism_per_seed() {
        let model = SparseDigress::train(&corpus(), SparseDigressConfig::tiny(), 2);
        let a = model.generate(20, 3).unwrap();
        let b = model.generate(20, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pair_features_are_symmetric() {
        let a = Node::new(syncircuit_graph::NodeType::Add, 8);
        let b = Node::new(syncircuit_graph::NodeType::Reg, 8);
        let fab = pair_features(&a, &b, 2.0, 3.0, 0.5);
        let fba = pair_features(&b, &a, 3.0, 2.0, 0.5);
        assert_eq!(fab, fba, "undirected model must not see direction");
    }
}
