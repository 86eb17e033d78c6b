//! The denoising network φθ (paper §IV-C/D).
//!
//! **Encoder** — node features (type one-hot ⊕ log-width) are embedded
//! with an MLP, combined with a learned time embedding, then refined by
//! `L` directed message-passing layers that aggregate the *mean over
//! parents* of the noisy graph `G_t` (linear in |E|, the paper's
//! large-graph design point).
//!
//! **Decoder** — for a directed pair `(i, j)`, the edge-existence logit
//! is `MLP( ((H_i + r(t)) ⊙ H_j) ⊕ d(t) )` with learnable translation
//! embedding `r(t)` and time embedding `d(t)` (TransE-style asymmetry:
//! swapping `i` and `j` changes the score, unlike dot products or
//! Euclidean distances).

use crate::attrs::AttrModel;
use rand::Rng;
use syncircuit_nn::layers::{Linear, Mlp};
use syncircuit_nn::sparse::RowNormAdj;
use syncircuit_nn::{sigmoid, Matrix, PackedB, ParamStore, Tape, Var};
use syncircuit_graph::Node;
use std::rc::Rc;

/// One MPNN layer of the encoder (the paper's update rule plus a ReLU).
#[derive(Clone, Debug)]
struct EncoderLayer {
    w_h: Linear,
    w_m: Linear,
}

/// The denoising network: encoder + asymmetric decoder.
#[derive(Clone, Debug)]
pub struct Denoiser {
    feat_proj: Linear,
    time_proj: Mlp,
    layers: Vec<EncoderLayer>,
    relation: Mlp, // r(t)
    time_dec: Mlp, // d(t)
    head: Mlp,
    hidden: usize,
    steps: usize,
}

impl Denoiser {
    /// Registers all parameters of a denoiser with `hidden` units,
    /// `layers` MPNN layers, for a schedule with `steps` diffusion steps.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        hidden: usize,
        layers: usize,
        steps: usize,
        rng: &mut R,
    ) -> Self {
        Denoiser {
            feat_proj: Linear::new(store, AttrModel::FEATURE_DIM, hidden, rng),
            time_proj: Mlp::new(store, &[1, hidden, hidden], rng),
            layers: (0..layers.max(1))
                .map(|_| EncoderLayer {
                    w_h: Linear::new(store, hidden, hidden, rng),
                    w_m: Linear::new(store, hidden, hidden, rng),
                })
                .collect(),
            relation: Mlp::new(store, &[1, hidden, hidden], rng),
            time_dec: Mlp::new(store, &[1, hidden, hidden], rng),
            head: Mlp::new(store, &[2 * hidden, hidden, 1], rng),
            hidden,
            steps,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    fn time_input(&self, tape: &mut Tape, t: usize) -> Var {
        let norm = t as f32 / self.steps.max(1) as f32;
        tape.leaf(Matrix::from_vec(1, 1, vec![norm]))
    }

    /// Encodes the noisy graph: returns `N×hidden` node representations.
    ///
    /// `features` is the `N×FEATURE_DIM` attribute matrix and `noisy_adj`
    /// the mean-over-parents operator of `G_t`.
    pub fn encode(
        &self,
        tape: &mut Tape,
        features: Matrix,
        noisy_adj: &Rc<RowNormAdj>,
        t: usize,
    ) -> Var {
        let n = features.rows();
        let x = tape.leaf(features);
        let mut h = self.feat_proj.forward(tape, x);
        // broadcast the time embedding to every node
        let t_in = self.time_input(tape, t);
        let t_emb = self.time_proj.forward(tape, t_in);
        let t_rows = tape.gather_rows(t_emb, vec![0u32; n]);
        h = tape.add(h, t_rows);
        h = tape.relu(h);
        for layer in &self.layers {
            let self_term = layer.w_h.forward(tape, h);
            let msg = layer.w_m.forward(tape, h);
            let agg = tape.spmm_mean(noisy_adj.clone(), msg);
            let sum = tape.add(self_term, agg);
            h = tape.relu(sum);
        }
        h
    }

    /// Scores directed candidate pairs, returning a `K×1` logit matrix
    /// aligned with `pairs` (each `(from, to)`).
    pub fn decode_pairs(
        &self,
        tape: &mut Tape,
        h: Var,
        pairs: &[(u32, u32)],
        t: usize,
    ) -> Var {
        let k = pairs.len();
        let src: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let dst: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        let hi = tape.gather_rows(h, src);
        let hj = tape.gather_rows(h, dst);
        let t_in = self.time_input(tape, t);
        let r = self.relation.forward(tape, t_in); // 1×hidden
        let d = self.time_dec.forward(tape, t_in); // 1×hidden
        let hi_r = tape.add_row(hi, r);
        let prod = tape.hadamard(hi_r, hj);
        let d_rows = tape.gather_rows(d, vec![0u32; k]);
        let cat = tape.concat_cols(prod, d_rows);
        self.head.forward(tape, cat)
    }

    /// Convenience: encode + decode + sigmoid, returning probabilities
    /// for each pair (no gradient use).
    ///
    /// Runs on the [`Tape`] — the reference path. The serving hot loop
    /// uses [`Denoiser::predict_probs_into`] instead, which produces
    /// bit-identical probabilities on the packed kernels.
    pub fn predict_probs(
        &self,
        store: &ParamStore,
        features: Matrix,
        noisy_adj: &Rc<RowNormAdj>,
        pairs: &[(u32, u32)],
        t: usize,
    ) -> Vec<f32> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let mut tape = Tape::new(store);
        let h = self.encode(&mut tape, features, noisy_adj, t);
        let logits = self.decode_pairs(&mut tape, h, pairs, t);
        let probs = tape.sigmoid(logits);
        tape.value(probs).data().to_vec()
    }

    /// Precomputes the three time-conditioned embeddings — `t_emb(t)`
    /// for the encoder, `r(t)` and `d(t)` for the decoder — for every
    /// step `t ∈ 0..=steps`. They depend only on `t` and the trained
    /// parameters, so a sampler can look them up instead of re-running
    /// three MLPs per step per request. Rows are computed on one
    /// [`Tape`] through the calls [`Denoiser::encode`] and
    /// [`Denoiser::decode_pairs`] make, so they are the values those
    /// paths produce.
    ///
    /// The cache is a pure function of `(self, store)`: rebuild it
    /// whenever the parameters change (training rebuilds it after the
    /// last optimizer step; a loaded model builds it on restore).
    pub fn build_time_cache(&self, store: &ParamStore) -> TimeEmbCache {
        let mut tape = Tape::new(store);
        let mut cache = TimeEmbCache {
            t_emb: Vec::with_capacity(self.steps + 1),
            r: Vec::with_capacity(self.steps + 1),
            d: Vec::with_capacity(self.steps + 1),
        };
        for t in 0..=self.steps {
            let t_in = self.time_input(&mut tape, t);
            let e = self.time_proj.forward(&mut tape, t_in);
            let r = self.relation.forward(&mut tape, t_in);
            let d = self.time_dec.forward(&mut tape, t_in);
            cache.t_emb.push(tape.value(e).clone());
            cache.r.push(tape.value(r).clone());
            cache.d.push(tape.value(d).clone());
        }
        cache
    }

    /// Packs every weight matrix the serving path multiplies by — the
    /// feature projection, both matrices of each MPNN layer, and the
    /// decoder head — into the panel layout of
    /// [`Matrix::matmul_packed_into`]. Like the time-embedding cache,
    /// the pack is a pure function of `(self, store)`: rebuild it
    /// whenever the parameters change (model assembly does).
    pub fn pack_weights(&self, store: &ParamStore) -> DenoiserWeightPack {
        DenoiserWeightPack {
            feat_proj: self.feat_proj.pack(store),
            layers: self
                .layers
                .iter()
                .map(|l| (l.w_h.pack(store), l.w_m.pack(store)))
                .collect(),
            head: self.head.pack(store),
        }
    }

    /// Feature projection of the encoder — `features·W + b` with the
    /// packed kernel — written into `out`. The projection depends only
    /// on the node features (not on the diffusion step or the noisy
    /// adjacency), so the sampler computes it once per graph and feeds
    /// the same buffer to every [`Denoiser::predict_probs_into`] call.
    /// Bit-identical to running the layer inside each call: same
    /// kernel, same inputs, and copies of f32 values preserve bits.
    pub fn project_features_into(
        &self,
        store: &ParamStore,
        features: &Matrix,
        pack: &DenoiserWeightPack,
        out: &mut Matrix,
    ) {
        self.feat_proj.forward_packed_into(store, features, &pack.feat_proj, out);
    }

    /// Encode + decode + sigmoid as one fixed pass over the packed
    /// kernels, writing the per-pair probabilities into `out` (cleared
    /// first).
    ///
    /// Bit-identical to [`Denoiser::predict_probs`] for the same inputs
    /// (property-tested in `tests/infer_equivalence.rs`): each step
    /// performs the scalar operations of the tape ops it replaces, in
    /// the same order — the cached time embeddings are the tape's MLP
    /// outputs, the fused elementwise loops keep the tape's operand
    /// order, and the packed kernels are proven bit-equal to the naive
    /// matmul (`pack` must come from [`Denoiser::pack_weights`] over the
    /// same `store`).
    ///
    /// `proj` must hold [`Denoiser::project_features_into`] over the
    /// graph's feature matrix (the tape path computes the same values
    /// inline; hoisting the step-invariant layer out of the loop does
    /// not change a single bit of it).
    ///
    /// Warm-path allocation-free: intermediates live in `scratch`, and
    /// `proj` and `noisy_adj` are borrowed.
    #[allow(clippy::too_many_arguments)]
    pub fn predict_probs_into(
        &self,
        store: &ParamStore,
        proj: &Matrix,
        noisy_adj: &RowNormAdj,
        pairs: &[(u32, u32)],
        t: usize,
        cache: &TimeEmbCache,
        pack: &DenoiserWeightPack,
        scratch: &mut DenoiserScratch,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        if pairs.is_empty() {
            return;
        }
        let s = scratch;
        // Encoder (the sequence of `encode`; the feature projection
        // arrives precomputed, the time MLP from its cache):
        // `relu(proj + t_emb(t))`, then per MPNN layer
        // `relu(W_h·h + mean_parents(W_m·h))`.
        let hc = proj.cols();
        let temb = cache.t_emb[t].data();
        s.h.reset_shape_any(proj.rows(), hc);
        let rows = s.h.data_mut().chunks_exact_mut(hc.max(1));
        for (hrow, prow) in rows.zip(proj.data().chunks_exact(hc.max(1))) {
            for ((o, &x), &e) in hrow.iter_mut().zip(prow).zip(temb) {
                *o = (x + e).max(0.0);
            }
        }
        for (layer, (wh_p, wm_p)) in self.layers.iter().zip(&pack.layers) {
            let (h, self_term, msg, agg) = (&mut s.h, &mut s.self_term, &mut s.msg, &mut s.agg);
            layer.w_h.forward_packed_into(store, h, wh_p, self_term);
            layer.w_m.forward_packed_into(store, h, wm_p, msg);
            noisy_adj.matmul_into(msg, agg);
            let sums = self_term.data().iter().zip(agg.data());
            for (o, (&x, &y)) in h.data_mut().iter_mut().zip(sums) {
                *o = (x + y).max(0.0);
            }
        }
        // Decoder: the tape's gather → add_row → hadamard chain, fused
        // into one pass that writes the per-pair head input
        // `(H_i + r(t)) ⊙ H_j` row by row — the same scalar operations
        // per element, so bit-identical, without the K×hidden
        // intermediates. The time conditioning `d(t)` — identical for
        // every pair — is never materialised: the head's first layer
        // treats it as a shared suffix row (same bits again, see
        // `Mlp::forward_packed_cat_into`).
        let r = &cache.r[t].data()[..hc];
        let hdata = s.h.data();
        s.cat.reset_shape_any(pairs.len(), hc);
        for (row, &(i, j)) in s.cat.data_mut().chunks_exact_mut(hc).zip(pairs) {
            let hi = &hdata[i as usize * hc..i as usize * hc + hc];
            let hj = &hdata[j as usize * hc..j as usize * hc + hc];
            for k in 0..hc {
                row[k] = (hi[k] + r[k]) * hj[k];
            }
        }
        let d = cache.d[t].data();
        let logits = self
            .head
            .forward_packed_cat_into(store, &s.cat, d, &pack.head, &mut s.head);
        out.extend(logits.data().iter().map(|&x| sigmoid(x)));
    }
}

/// Panel-packed copies of every weight matrix on the serving path of
/// one trained denoiser (see [`Denoiser::pack_weights`]): the feature
/// projection, `(W_h, W_m)` per MPNN layer, and the decoder head's
/// layers. Pure acceleration state — the row-major [`ParamStore`]
/// remains the source of truth (and still provides the biases, which
/// the kernels read unpacked).
#[derive(Clone, Debug)]
pub struct DenoiserWeightPack {
    feat_proj: PackedB,
    layers: Vec<(PackedB, PackedB)>,
    head: Vec<PackedB>,
}

/// Cached time-conditioned embeddings of one trained denoiser: row `t`
/// holds `t_emb(t)`, `r(t)` and `d(t)` for `t ∈ 0..=steps` (see
/// [`Denoiser::build_time_cache`]).
#[derive(Clone, Debug)]
pub struct TimeEmbCache {
    t_emb: Vec<Matrix>,
    r: Vec<Matrix>,
    d: Vec<Matrix>,
}

/// Reusable buffers for [`Denoiser::predict_probs_into`], one per
/// value of its fixed pass: the node states `h`, each MPNN layer's
/// self term, messages and aggregate, the fused decoder input `cat`,
/// and the head's two alternating layer outputs. One scratch serves any
/// sequence of requests (shapes may differ between calls; every step
/// fully overwrites its output, so no stale state carries over).
#[derive(Debug, Default)]
pub struct DenoiserScratch {
    h: Matrix,
    self_term: Matrix,
    msg: Matrix,
    agg: Matrix,
    cat: Matrix,
    head: [Matrix; 2],
}

impl DenoiserScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Builds the `N×FEATURE_DIM` attribute feature matrix.
pub fn feature_matrix(attrs: &[Node]) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    feature_matrix_into(attrs, &mut out);
    out
}

/// [`feature_matrix`] into a reused buffer — the sampler hot loop's
/// variant (one temporary `Vec` per *call* beats one per *node*).
/// Identical values by construction: both paths write each row as
/// [`AttrModel::features`] does (zeros, one-hot category, log-width).
pub fn feature_matrix_into(attrs: &[Node], out: &mut Matrix) {
    out.reset_shape(attrs.len(), AttrModel::FEATURE_DIM);
    for (row, node) in out
        .data_mut()
        .chunks_exact_mut(AttrModel::FEATURE_DIM)
        .zip(attrs)
    {
        row[node.ty().category()] = 1.0;
        row[AttrModel::FEATURE_DIM - 1] = (node.width() as f32).log2() / 6.0;
    }
}

/// Builds the mean-over-parents operator from a parent-list adjacency.
pub fn adjacency_operator(parents: &[Vec<u32>]) -> Rc<RowNormAdj> {
    Rc::new(RowNormAdj::from_parents(parents))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use syncircuit_graph::NodeType;

    fn setup() -> (ParamStore, Denoiser, Matrix, Rc<RowNormAdj>) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let d = Denoiser::new(&mut store, 16, 2, 9, &mut rng);
        let attrs = vec![
            Node::new(NodeType::Input, 8),
            Node::new(NodeType::Reg, 8),
            Node::new(NodeType::Add, 8),
            Node::new(NodeType::Output, 8),
        ];
        let feats = feature_matrix(&attrs);
        let adj = adjacency_operator(&[vec![], vec![2], vec![0, 1], vec![1]]);
        (store, d, feats, adj)
    }

    #[test]
    fn encoder_shapes() {
        let (store, d, feats, adj) = setup();
        let mut tape = Tape::new(&store);
        let h = d.encode(&mut tape, feats, &adj, 3);
        assert_eq!(tape.value(h).shape(), (4, 16));
    }

    #[test]
    fn decoder_is_asymmetric() {
        let (store, d, feats, adj) = setup();
        let p_fwd = d.predict_probs(&store, feats.clone(), &adj, &[(0, 2)], 3);
        let p_bwd = d.predict_probs(&store, feats, &adj, &[(2, 0)], 3);
        assert_ne!(
            p_fwd[0], p_bwd[0],
            "directed pairs must score differently (TransE asymmetry)"
        );
    }

    #[test]
    fn probs_are_probabilities() {
        let (store, d, feats, adj) = setup();
        let pairs: Vec<(u32, u32)> = (0..4).flat_map(|i| (0..4).map(move |j| (i, j))).collect();
        let probs = d.predict_probs(&store, feats, &adj, &pairs, 1);
        assert_eq!(probs.len(), 16);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn time_conditioning_changes_predictions() {
        let (store, d, feats, adj) = setup();
        let p1 = d.predict_probs(&store, feats.clone(), &adj, &[(0, 2)], 1);
        let p8 = d.predict_probs(&store, feats, &adj, &[(0, 2)], 8);
        assert_ne!(p1[0], p8[0], "time embedding must condition the score");
    }

    #[test]
    fn empty_pairs_ok() {
        let (store, d, feats, adj) = setup();
        assert!(d.predict_probs(&store, feats, &adj, &[], 1).is_empty());
    }

    #[test]
    fn trainable_on_a_fixed_target() {
        // Overfit a tiny denoiser to prefer edge (0,2) over (2,0).
        use syncircuit_nn::Adam;
        let (mut store, d, feats, adj) = setup();
        let mut adam = Adam::with_lr(0.02);
        let pairs = [(0u32, 2u32), (2u32, 0u32)];
        let targets = Matrix::from_vec(2, 1, vec![1.0, 0.0]);
        for _ in 0..200 {
            let mut tape = Tape::new(&store);
            let h = d.encode(&mut tape, feats.clone(), &adj, 2);
            let logits = d.decode_pairs(&mut tape, h, &pairs, 2);
            let loss = tape.bce_with_logits_mean(logits, targets.clone());
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        let probs = d.predict_probs(&store, feats, &adj, &pairs, 2);
        assert!(probs[0] > 0.9, "positive pair: {probs:?}");
        assert!(probs[1] < 0.1, "negative pair: {probs:?}");
    }
}
