//! GraphRNN baseline (You et al., ICML'18), adapted to circuits the way
//! the paper describes (§VII-A): cycles in the training circuits are
//! broken, nodes are sequenced in topological order, a GRU consumes the
//! sequence and predicts, for each new node, Bernoulli edge probabilities
//! to the previous `window` nodes; a validity checker enforces the
//! circuit constraints during generation. Because generation follows the
//! topological order, the output is a DAG — the baseline's documented
//! gap from real (cyclic) designs.

use crate::common::{break_cycles, build_dag_circuit, layout_attrs, topo_order};
use crate::BaselineError;
use rand::{rngs::StdRng, SeedableRng};
use syncircuit_core::AttrModel;
use syncircuit_graph::CircuitGraph;
use syncircuit_nn::layers::{GruCell, Linear, Mlp};
use syncircuit_nn::{Adam, Matrix, ParamStore, Tape, Var};

/// GraphRNN hyper-parameters.
#[derive(Clone, Debug)]
pub struct GraphRnnConfig {
    /// GRU hidden width.
    pub hidden: usize,
    /// Edge window: each node scores edges to this many predecessors.
    pub window: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
}

impl GraphRnnConfig {
    /// Small configuration for tests.
    pub fn tiny() -> Self {
        GraphRnnConfig {
            hidden: 16,
            window: 8,
            epochs: 10,
            lr: 0.01,
        }
    }

    /// Experiment-scale configuration.
    pub fn standard() -> Self {
        GraphRnnConfig {
            hidden: 48,
            window: 16,
            epochs: 80,
            lr: 5e-3,
        }
    }
}

/// Trained GraphRNN-style generator.
#[derive(Debug)]
pub struct GraphRnn {
    store: ParamStore,
    gru: GruCell,
    input_proj: Linear,
    head: Mlp,
    attrs: AttrModel,
    config: GraphRnnConfig,
}

impl GraphRnn {
    /// Trains on real circuits (after cycle breaking + topological
    /// sequencing).
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty.
    pub fn train(graphs: &[CircuitGraph], config: GraphRnnConfig, seed: u64) -> Self {
        assert!(!graphs.is_empty(), "GraphRNN training needs graphs");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let in_dim = AttrModel::FEATURE_DIM + config.window;
        let gru = GruCell::new(&mut store, in_dim, config.hidden, &mut rng);
        let input_proj = Linear::new(&mut store, in_dim, in_dim, &mut rng);
        let head = Mlp::new(
            &mut store,
            &[config.hidden, config.hidden, config.window],
            &mut rng,
        );
        let attrs = AttrModel::fit(graphs).expect("baseline training needs a non-empty corpus");
        let mut adam = Adam::with_lr(config.lr);

        // Prepare training sequences.
        struct Seq {
            feats: Vec<Vec<f32>>,
            targets: Vec<Vec<f32>>, // per node: window-length 0/1 vector
        }
        let seqs: Vec<Seq> = graphs
            .iter()
            .map(|g| {
                let edges = break_cycles(g);
                let order = topo_order(g.node_count(), &edges);
                let pos: Vec<usize> = {
                    let mut p = vec![0; g.node_count()];
                    for (i, &v) in order.iter().enumerate() {
                        p[v as usize] = i;
                    }
                    p
                };
                let mut targets = vec![vec![0.0f32; config.window]; g.node_count()];
                for &(a, b) in &edges {
                    let (pa, pb) = (pos[a as usize], pos[b as usize]);
                    let (src, dst) = if pa < pb { (pa, pb) } else { (pb, pa) };
                    let offset = dst - src;
                    if offset >= 1 && offset <= config.window {
                        targets[dst][offset - 1] = 1.0;
                    }
                }
                let feats = order
                    .iter()
                    .map(|&v| {
                        AttrModel::features(g.node(syncircuit_graph::NodeId::new(v as usize)))
                    })
                    .collect();
                Seq { feats, targets }
            })
            .collect();

        for _epoch in 0..config.epochs {
            for seq in &seqs {
                let mut tape = Tape::new(&store);
                let mut h = gru.zero_state(&mut tape, 1);
                let mut logit_rows: Vec<Var> = Vec::new();
                let mut target_flat: Vec<f32> = Vec::new();
                let mut prev_conn = vec![0.0f32; config.window];
                for (k, feat) in seq.feats.iter().enumerate() {
                    let mut x = feat.clone();
                    x.extend_from_slice(&prev_conn);
                    let xv = tape.leaf(Matrix::from_rows(&[&x]));
                    let xp = input_proj.forward(&mut tape, xv);
                    let xp = tape.relu(xp);
                    h = gru.step(&mut tape, xp, h);
                    if k > 0 {
                        let logits = head.forward(&mut tape, h);
                        logit_rows.push(logits);
                        target_flat.extend_from_slice(&seq.targets[k]);
                    }
                    prev_conn = seq.targets[k].clone();
                }
                if logit_rows.is_empty() {
                    continue;
                }
                // Per-row BCE accumulated as a mean of means.
                let mut losses: Vec<Var> = Vec::new();
                for (r, &row) in logit_rows.iter().enumerate() {
                    let t = Matrix::from_vec(
                        1,
                        config.window,
                        target_flat[r * config.window..(r + 1) * config.window].to_vec(),
                    );
                    losses.push(tape.bce_with_logits_mean(row, t));
                }
                let mut all = losses[0];
                for &l in &losses[1..] {
                    all = tape.add(all, l);
                }
                let loss = tape.scale(all, 1.0 / losses.len() as f32);
                let mut grads = tape.backward(loss);
                grads.clip_norm(5.0);
                adam.step(&mut store, &grads);
            }
        }

        GraphRnn {
            store,
            gru,
            input_proj,
            head,
            attrs,
            config,
        }
    }

    /// Generates one valid (acyclic) circuit with `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::Unbuildable`] when no valid wiring exists
    /// after the configured retries.
    pub fn generate(&self, n: usize, seed: u64) -> Result<CircuitGraph, BaselineError> {
        let mut rng = StdRng::seed_from_u64(seed);
        for attempt in 0..8 {
            let raw = self.attrs.sample_attrs(n, &mut rng);
            let attrs = layout_attrs(&raw);
            // Roll the GRU over the layout to get per-node window probs.
            let mut probs: Vec<Vec<f32>> = Vec::with_capacity(n);
            {
                let mut tape = Tape::new(&self.store);
                let mut h = self.gru.zero_state(&mut tape, 1);
                let mut prev_conn = vec![0.0f32; self.config.window];
                for attr in attrs.iter() {
                    let mut x = AttrModel::features(attr);
                    x.extend_from_slice(&prev_conn);
                    let xv = tape.leaf(Matrix::from_rows(&[&x]));
                    let xp = self.input_proj.forward(&mut tape, xv);
                    let xp = tape.relu(xp);
                    h = self.gru.step(&mut tape, xp, h);
                    let logits = self.head.forward(&mut tape, h);
                    let p = tape.sigmoid(logits);
                    let row = tape.value(p).row(0).to_vec();
                    prev_conn = row.iter().map(|&x| (x > 0.5) as u8 as f32).collect();
                    probs.push(row);
                }
            }
            let window = self.config.window;
            let built = build_dag_circuit(
                &attrs,
                |p, k| {
                    let offset = k - p;
                    if offset >= 1 && offset <= window {
                        probs[k][offset - 1]
                    } else {
                        0.0
                    }
                },
                &mut rng,
            );
            if let Some(mut g) = built {
                g.set_name(format!("graphrnn_{seed:x}_{attempt}"));
                return Ok(g);
            }
        }
        Err(BaselineError::Unbuildable {
            generator: "graphrnn",
            nodes: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::testing::random_circuit_with_size;

    fn corpus() -> Vec<CircuitGraph> {
        let mut rng = StdRng::seed_from_u64(7);
        (0..3)
            .map(|_| random_circuit_with_size(&mut rng, 25))
            .collect()
    }

    #[test]
    fn trains_and_generates_valid_dags() {
        let model = GraphRnn::train(&corpus(), GraphRnnConfig::tiny(), 1);
        for seed in 0..3 {
            let g = model.generate(25, seed).expect("generation succeeds");
            assert!(g.is_valid(), "{:?}", g.validate());
            use syncircuit_graph::algo::tarjan_scc;
            assert!(
                tarjan_scc(&g).iter().all(|s| s.len() == 1),
                "GraphRNN output must be acyclic"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let model = GraphRnn::train(&corpus(), GraphRnnConfig::tiny(), 2);
        let a = model.generate(20, 5).unwrap();
        let b = model.generate(20, 5).unwrap();
        assert_eq!(a, b);
    }
}
