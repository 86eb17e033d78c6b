//! Persistent model parameters and the Adam optimizer.

use crate::matrix::Matrix;
use crate::tape::Gradients;
use serde::{Deserialize, Serialize};

/// Handle to a parameter tensor inside a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Dense index of the parameter.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Owns every trainable tensor of a model (or several models).
///
/// Parameters persist across [`Tape`](crate::Tape) constructions; each
/// tape copies the current values in as leaves, and
/// [`Adam::step`] applies accumulated gradients back.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ParamStore {
    mats: Vec<Matrix>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter tensor and returns its handle.
    pub fn add(&mut self, init: Matrix) -> ParamId {
        self.mats.push(init);
        ParamId(self.mats.len() - 1)
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.mats[id.0]
    }

    /// Mutable access (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.mats[id.0]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.mats.iter().map(|m| m.data().len()).sum()
    }

    /// `(rows, cols)` of every registered parameter, in registration
    /// order — the architecture signature used to check that a restored
    /// store matches a freshly constructed model (see model persistence
    /// in the core crate).
    pub fn shapes(&self) -> Vec<(usize, usize)> {
        self.mats.iter().map(Matrix::shape).collect()
    }

    pub(crate) fn all(&self) -> &[Matrix] {
        &self.mats
    }
}

/// Adam optimizer (Kingma & Ba) with per-parameter moment buffers.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn with_lr(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one optimization step from accumulated gradients.
    ///
    /// Parameters without a gradient entry are left untouched.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for idx in 0..store.len() {
            let Some(g) = grads.get(ParamId(idx)) else {
                continue;
            };
            while self.m.len() <= idx {
                self.m.push(Matrix::zeros(0, 0));
                self.v.push(Matrix::zeros(0, 0));
            }
            let p = store.get_mut(ParamId(idx));
            if self.m[idx].shape() != p.shape() {
                self.m[idx] = Matrix::zeros(p.rows(), p.cols());
                self.v[idx] = Matrix::zeros(p.rows(), p.cols());
            }
            let m = self.m[idx].data_mut();
            let v = self.v[idx].data_mut();
            let pd = p.data_mut();
            for ((pi, mi), (vi, &gi)) in pd
                .iter_mut()
                .zip(m.iter_mut())
                .zip(v.iter_mut().zip(g.data()))
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *pi -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    #[test]
    fn store_roundtrip() {
        let mut s = ParamStore::new();
        let a = s.add(Matrix::ones(2, 3));
        let b = s.add(Matrix::zeros(1, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 7);
        assert_eq!(s.get(a).shape(), (2, 3));
        assert_eq!(s.get(b).shape(), (1, 1));
        let json = serde_json::to_string(&s).unwrap();
        let s2: ParamStore = serde_json::from_str(&json).unwrap();
        assert_eq!(s2.num_scalars(), 7);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize f(w) = mean((w - 3)^2) elementwise
        let mut store = ParamStore::new();
        let w = store.add(Matrix::zeros(1, 4));
        let target = Matrix::full(1, 4, 3.0);
        let mut adam = Adam::with_lr(0.1);
        for _ in 0..400 {
            let mut tape = Tape::new(&store);
            let wv = tape.param(w);
            let loss = tape.mse_mean(wv, target.clone());
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        for &x in store.get(w).data() {
            assert!((x - 3.0).abs() < 1e-2, "got {x}");
        }
    }

    #[test]
    fn adam_skips_params_without_grads() {
        let mut store = ParamStore::new();
        let used = store.add(Matrix::zeros(1, 1));
        let unused = store.add(Matrix::full(1, 1, 5.0));
        let mut adam = Adam::with_lr(0.5);
        let mut tape = Tape::new(&store);
        let u = tape.param(used);
        let loss = tape.mse_mean(u, Matrix::full(1, 1, 1.0));
        let grads = tape.backward(loss);
        adam.step(&mut store, &grads);
        assert_eq!(store.get(unused).at(0, 0), 5.0);
        assert_ne!(store.get(used).at(0, 0), 0.0);
    }
}
