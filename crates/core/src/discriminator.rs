//! PCS discriminator (paper §VII-A: "to accelerate the evaluation
//! process, we replaced the slow synthesis tool with a trained
//! discriminator to approximate the PCS").
//!
//! A small MLP maps cheap structural features of a cone circuit to its
//! post-synthesis circuit size. Training data comes from labeling cones
//! with the exact synthesis simulator.

use crate::error::Error;
use crate::mcts::{ExactSynthReward, RewardModel};
use rand::{rngs::StdRng, SeedableRng};
use syncircuit_graph::algo::comb_depth;
use syncircuit_graph::{CircuitGraph, ALL_NODE_TYPES};
use syncircuit_nn::layers::Mlp;
use syncircuit_nn::{Adam, Matrix, ParamStore, Tape};

/// Feature dimension of [`cone_features`].
pub const CONE_FEATURE_DIM: usize = ALL_NODE_TYPES.len() + 6;

/// Structural features of a (cone) circuit:
/// per-type node fractions ⊕ [log nodes, log edges, mean width / 64,
/// comb depth / nodes, mean out-degree, register-bit fraction].
pub fn cone_features(g: &CircuitGraph) -> Vec<f32> {
    let n = g.node_count().max(1);
    let mut f = vec![0.0f32; CONE_FEATURE_DIM];
    let mut width_sum = 0.0f32;
    for (_, node) in g.iter() {
        f[node.ty().category()] += 1.0 / n as f32;
        width_sum += node.width() as f32;
    }
    let t = ALL_NODE_TYPES.len();
    f[t] = (n as f32).ln() / 8.0;
    f[t + 1] = (g.edge_count().max(1) as f32).ln() / 8.0;
    f[t + 2] = width_sum / n as f32 / 64.0;
    f[t + 3] = comb_depth(g).unwrap_or(0) as f32 / n as f32;
    f[t + 4] = g.edge_count() as f32 / n as f32 / 4.0;
    let total_bits: u64 = g.iter().map(|(_, nd)| nd.width() as u64).sum();
    f[t + 5] = g.register_bits() as f32 / total_bits.max(1) as f32;
    f
}

/// Hidden-layer widths of the discriminator MLP (input and output
/// dimensions are fixed by [`CONE_FEATURE_DIM`] and the scalar target).
pub(crate) const MLP_WIDTHS: [usize; 4] = [CONE_FEATURE_DIM, 32, 16, 1];

/// Learned PCS predictor usable as an MCTS [`RewardModel`].
///
/// Persists through the versioned model artifact (see
/// [`crate::persist`]): parameters and the normalization scale are
/// stored; the MLP architecture is rebuilt on load.
#[derive(Debug)]
pub struct PcsDiscriminator {
    pub(crate) store: ParamStore,
    pub(crate) mlp: Mlp,
    /// Normalization scale for the PCS target.
    pub(crate) scale: f32,
}

impl PcsDiscriminator {
    /// Trains a discriminator on cones labeled with the exact synthesis
    /// simulator.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyTrainingSet`] when `cones` is empty.
    pub fn train(cones: &[CircuitGraph], epochs: usize, seed: u64) -> Result<Self, Error> {
        Self::train_with_workers(cones, epochs, seed, 1)
    }

    /// [`PcsDiscriminator::train`] with the synthesis labeling pass —
    /// the expensive part of discriminator training — fanned out across
    /// `workers` scoped threads.
    ///
    /// Bit-identical to the sequential path for every worker count:
    /// each cone's `(features, exact PCS)` label is a pure function of
    /// the cone, results land in per-cone slots, and the epoch loop
    /// consumes them in corpus order on one thread.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyTrainingSet`] when `cones` is empty.
    pub fn train_with_workers(
        cones: &[CircuitGraph],
        epochs: usize,
        seed: u64,
        workers: usize,
    ) -> Result<Self, Error> {
        let exact = ExactSynthReward::new();
        let labeled: Vec<(Vec<f32>, f32)> = crate::par::parallel_map(cones.len(), workers, |k| {
            (cone_features(&cones[k]), exact.pcs(&cones[k]) as f32)
        });
        Self::train_on_labeled(&labeled, epochs, seed)
    }

    /// Trains from pre-labeled `(features, pcs)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyTrainingSet`] when `labeled` is empty.
    pub fn train_on_labeled(
        labeled: &[(Vec<f32>, f32)],
        epochs: usize,
        seed: u64,
    ) -> Result<Self, Error> {
        if labeled.is_empty() {
            return Err(Error::EmptyTrainingSet);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &MLP_WIDTHS, &mut rng);
        let mut adam = Adam::with_lr(5e-3);

        let scale = labeled.iter().map(|(_, y)| *y).fold(1.0f32, f32::max);
        let rows: Vec<&[f32]> = labeled.iter().map(|(f, _)| f.as_slice()).collect();
        let x = Matrix::from_rows(&rows);
        let y = Matrix::from_vec(
            labeled.len(),
            1,
            labeled.iter().map(|(_, v)| v / scale).collect(),
        );
        for _ in 0..epochs {
            let mut tape = Tape::new(&store);
            let xv = tape.leaf(x.clone());
            let pred = mlp.forward(&mut tape, xv);
            let loss = tape.mse_mean(pred, y.clone());
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        Ok(PcsDiscriminator { store, mlp, scale })
    }

    /// Mean relative error against exact PCS on a validation set.
    pub fn validate(&self, cones: &[CircuitGraph]) -> f64 {
        let exact = ExactSynthReward::new();
        let mut err = 0.0;
        let mut count = 0usize;
        for c in cones {
            let truth = exact.pcs(c);
            let pred = self.pcs(c);
            if truth.abs() > 1e-9 {
                err += ((pred - truth) / truth).abs();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            err / count as f64
        }
    }
}

impl RewardModel for PcsDiscriminator {
    fn pcs(&self, g: &CircuitGraph) -> f64 {
        let f = cone_features(g);
        let mut tape = Tape::new(&self.store);
        let x = tape.leaf(Matrix::from_rows(&[&f]));
        let pred = self.mlp.forward(&mut tape, x);
        (tape.value(pred).at(0, 0) * self.scale).max(0.0) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncircuit_graph::cone::{all_driving_cones, cone_circuit};
    use syncircuit_graph::testing::random_circuit_with_size;

    fn cone_corpus(seed: u64, designs: usize) -> Vec<CircuitGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cones = Vec::new();
        for _ in 0..designs {
            let g = random_circuit_with_size(&mut rng, 40);
            for cone in all_driving_cones(&g) {
                cones.push(cone_circuit(&g, &cone).circuit);
            }
        }
        cones
    }

    #[test]
    fn features_are_finite_and_sized() {
        let cones = cone_corpus(1, 2);
        for c in &cones {
            let f = cone_features(c);
            assert_eq!(f.len(), CONE_FEATURE_DIM);
            assert!(f.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn discriminator_learns_pcs_ordering() {
        let cones = cone_corpus(2, 8);
        assert!(cones.len() >= 8, "need a reasonable cone corpus");
        let disc = PcsDiscriminator::train(&cones, 400, 3).unwrap();
        // The discriminator must rank an all-alive cone above an
        // all-dead cone.
        let exact = ExactSynthReward::new();
        let mut best_true = (0usize, f64::MIN);
        let mut worst_true = (0usize, f64::MAX);
        for (k, c) in cones.iter().enumerate() {
            let p = exact.pcs(c);
            if p > best_true.1 {
                best_true = (k, p);
            }
            if p < worst_true.1 {
                worst_true = (k, p);
            }
        }
        if best_true.1 > worst_true.1 + 1e-6 {
            let hi = disc.pcs(&cones[best_true.0]);
            let lo = disc.pcs(&cones[worst_true.0]);
            assert!(
                hi > lo,
                "discriminator ordering: {hi} (true {}) vs {lo} (true {})",
                best_true.1,
                worst_true.1
            );
        }
    }

    #[test]
    fn validation_error_is_bounded_after_training() {
        let cones = cone_corpus(4, 10);
        let disc = PcsDiscriminator::train(&cones, 600, 5).unwrap();
        let err = disc.validate(&cones);
        assert!(err < 0.8, "training-set relative error too high: {err}");
    }

    #[test]
    fn predictions_are_nonnegative() {
        let cones = cone_corpus(6, 3);
        let disc = PcsDiscriminator::train(&cones, 50, 7).unwrap();
        for c in &cones {
            assert!(disc.pcs(c) >= 0.0);
        }
    }
}
