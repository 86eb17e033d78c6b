//! Reusable network building blocks: linear layers, MLPs, embeddings, the
//! paper's MPNN encoder layer, and a GRU cell for the autoregressive
//! baselines.

use crate::matrix::{Matrix, PackedB};
use crate::params::{ParamId, ParamStore};
use crate::sparse::RowNormAdj;
use crate::tape::{Tape, Var};
use rand::Rng;
use std::rc::Rc;

/// Fully connected layer `y = xW + b` with He-style initialization.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new linear layer's parameters.
    pub fn new<R: Rng>(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let std = (2.0 / in_dim.max(1) as f32).sqrt();
        let w = store.add(Matrix::randn(in_dim, out_dim, std, rng));
        let b = store.add(Matrix::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to an `N×in_dim` batch.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let w = tape.param(self.w);
        let b = tape.param(self.b);
        let h = tape.matmul(x, w);
        tape.add_row(h, b)
    }

    /// Packs this layer's weight matrix for
    /// [`Linear::forward_packed_into`]. A pack is a pure function of the
    /// current weights — rebuild it after training steps (serving
    /// parameters never change, so serving packs once per model).
    pub fn pack(&self, store: &ParamStore) -> PackedB {
        store.get(self.w).pack_b()
    }

    /// [`Linear::forward`] off the tape: writes `x·W + b` into `out`
    /// with the packed kernel, the bias fused into its writeback
    /// (bit-identical values, see [`Matrix::matmul_packed_bias_into`]).
    ///
    /// `wp` must be the pack of this layer's current weights.
    pub fn forward_packed_into(
        &self,
        store: &ParamStore,
        x: &Matrix,
        wp: &PackedB,
        out: &mut Matrix,
    ) {
        debug_assert_eq!(
            (wp.rows(), wp.cols()),
            (self.in_dim, self.out_dim),
            "packed weights do not match this layer"
        );
        x.matmul_packed_bias_into(wp, store.get(self.b), out);
    }
}

/// Multi-layer perceptron with ReLU activations between layers and a
/// linear head.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[16, 64, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new<R: Rng>(store: &mut ParamStore, widths: &[usize], rng: &mut R) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least input and output widths");
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(store, w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::in_dim)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// Applies all layers (ReLU between, linear last).
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, h);
            if i + 1 < self.layers.len() {
                h = tape.relu(h);
            }
        }
        h
    }

    /// Packs every layer's weights for [`Mlp::forward_packed_cat_into`].
    pub fn pack(&self, store: &ParamStore) -> Vec<PackedB> {
        self.layers.iter().map(|l| l.pack(store)).collect()
    }

    /// [`Mlp::forward`] off the tape, over the virtual concatenation
    /// `[x | 1⊗suffix]` — one shared row appended to every row of `x`
    /// (pass an empty `suffix` for plain `x`). Bit-identical to running
    /// [`Mlp::forward`] on the materialised concatenation.
    ///
    /// Every layer runs [`Matrix::matmul_packed_cat_bias_into`]: the
    /// first takes `suffix`, so the concatenation is never built and
    /// the suffix's products are formed once instead of per row; later
    /// layers take an empty suffix; every hidden layer's ReLU is fused
    /// into its writeback. Layers alternate between the two buffers of
    /// `bufs`, which are reshaped in place, and the returned reference
    /// is the one holding the output.
    ///
    /// # Panics
    ///
    /// Panics if `packs` does not hold exactly one pack per layer (from
    /// [`Mlp::pack`]), or if `x.cols() + suffix.len()` does not match
    /// the first layer.
    pub fn forward_packed_cat_into<'b>(
        &self,
        store: &ParamStore,
        x: &Matrix,
        suffix: &[f32],
        packs: &[PackedB],
        bufs: &'b mut [Matrix; 2],
    ) -> &'b Matrix {
        assert_eq!(packs.len(), self.layers.len(), "one pack per MLP layer");
        let last = self.layers.len() - 1;
        for (i, (layer, wp)) in self.layers.iter().zip(packs).enumerate() {
            let (lo, hi) = bufs.split_at_mut(1);
            let (prev, out) = if i % 2 == 0 {
                (&hi[0], &mut lo[0])
            } else {
                (&lo[0], &mut hi[0])
            };
            let (input, sfx) = if i == 0 { (x, suffix) } else { (prev, &[][..]) };
            input.matmul_packed_cat_bias_into(sfx, wp, store.get(layer.b), i < last, out);
        }
        &bufs[last % 2]
    }
}

/// Learnable embedding table: maps categorical indices to rows.
#[derive(Clone, Debug)]
pub struct Embedding {
    table: ParamId,
    dim: usize,
}

impl Embedding {
    /// Registers an embedding table of `count × dim`.
    pub fn new<R: Rng>(store: &mut ParamStore, count: usize, dim: usize, rng: &mut R) -> Self {
        let table = store.add(Matrix::randn(count, dim, 0.3, rng));
        Embedding { table, dim }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up rows for the given indices.
    pub fn forward(&self, tape: &mut Tape, indices: Vec<u32>) -> Var {
        let t = tape.param(self.table);
        tape.gather_rows(t, indices)
    }
}

/// One directed message-passing layer from the paper (§IV-C):
///
/// `H^{l+1}_j = ReLU( W_h H^l_j + (1/|P(j)|) Σ_{i∈P(j)} W_m H^l_i + b )`
#[derive(Clone, Debug)]
pub struct MpnnLayer {
    w_h: Linear,
    w_m: Linear,
}

impl MpnnLayer {
    /// Registers one MPNN layer mapping `dim → dim`.
    pub fn new<R: Rng>(store: &mut ParamStore, dim: usize, rng: &mut R) -> Self {
        MpnnLayer {
            w_h: Linear::new(store, dim, dim, rng),
            w_m: Linear::new(store, dim, dim, rng),
        }
    }

    /// Applies the layer given node features `h` (N×dim) and the
    /// mean-over-parents operator.
    pub fn forward(&self, tape: &mut Tape, h: Var, adj: &Rc<RowNormAdj>) -> Var {
        let self_term = self.w_h.forward(tape, h);
        let messages = self.w_m.forward(tape, h);
        let agg = tape.spmm_mean(adj.clone(), messages);
        let sum = tape.add(self_term, agg);
        tape.relu(sum)
    }
}

/// Minimal GRU cell for the autoregressive baselines (GraphRNN / D-VAE).
#[derive(Clone, Debug)]
pub struct GruCell {
    wz: Linear,
    wr: Linear,
    wh: Linear,
    hidden: usize,
}

impl GruCell {
    /// Registers a GRU cell with `input` → `hidden` dimensions.
    pub fn new<R: Rng>(store: &mut ParamStore, input: usize, hidden: usize, rng: &mut R) -> Self {
        GruCell {
            wz: Linear::new(store, input + hidden, hidden, rng),
            wr: Linear::new(store, input + hidden, hidden, rng),
            wh: Linear::new(store, input + hidden, hidden, rng),
            hidden,
        }
    }

    /// Hidden-state width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// A fresh zero hidden state for a batch of `n` sequences.
    pub fn zero_state(&self, tape: &mut Tape, n: usize) -> Var {
        tape.leaf(Matrix::zeros(n, self.hidden))
    }

    /// One step: consumes input `x` (N×input) and state `h` (N×hidden),
    /// returns the next state.
    pub fn step(&self, tape: &mut Tape, x: Var, h: Var) -> Var {
        let xh = tape.concat_cols(x, h);
        let z = self.wz.forward(tape, xh);
        let z = tape.sigmoid(z);
        let r = self.wr.forward(tape, xh);
        let r = tape.sigmoid(r);
        let rh = tape.hadamard(r, h);
        let xrh = tape.concat_cols(x, rh);
        let cand = self.wh.forward(tape, xrh);
        let cand = tape.tanh(cand);
        // h' = (1 - z) ⊙ h + z ⊙ cand
        let ones = tape.leaf(Matrix::ones(
            tape.value(z).rows(),
            tape.value(z).cols(),
        ));
        let one_minus_z = tape.sub(ones, z);
        let keep = tape.hadamard(one_minus_z, h);
        let update = tape.hadamard(z, cand);
        tape.add(keep, update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Adam;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, 3, 5, &mut rng);
        let mut tape = Tape::new(&store);
        let x = tape.leaf(Matrix::zeros(7, 3));
        let y = lin.forward(&mut tape, x);
        assert_eq!(tape.value(y).shape(), (7, 5));
        assert_eq!(lin.in_dim(), 3);
        assert_eq!(lin.out_dim(), 5);
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &[2, 8, 1], &mut rng);
        let mut adam = Adam::with_lr(0.05);
        let x = Matrix::from_rows(&[&[0., 0.], &[0., 1.], &[1., 0.], &[1., 1.]]);
        let y = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]);
        let mut final_loss = f32::INFINITY;
        for _ in 0..600 {
            let mut tape = Tape::new(&store);
            let xv = tape.leaf(x.clone());
            let logits = mlp.forward(&mut tape, xv);
            let loss = tape.bce_with_logits_mean(logits, y.clone());
            final_loss = tape.scalar(loss);
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        assert!(final_loss < 0.05, "XOR loss {final_loss}");
    }

    #[test]
    fn embedding_lookup_and_training() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, 4, 2, &mut rng);
        // Train row 2 to be (1, -1).
        let target = Matrix::from_rows(&[&[1.0, -1.0]]);
        let mut adam = Adam::with_lr(0.1);
        for _ in 0..300 {
            let mut tape = Tape::new(&store);
            let e = emb.forward(&mut tape, vec![2]);
            let loss = tape.mse_mean(e, target.clone());
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        let mut tape = Tape::new(&store);
        let e = emb.forward(&mut tape, vec![2]);
        let row = tape.value(e).row(0).to_vec();
        assert!((row[0] - 1.0).abs() < 0.05 && (row[1] + 1.0).abs() < 0.05);
    }

    #[test]
    fn mpnn_respects_direction() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let layer = MpnnLayer::new(&mut store, 3, &mut rng);
        // node 1's parent is node 0; node 0 has no parents.
        let adj = Rc::new(RowNormAdj::from_parents(&[vec![], vec![0]]));
        let mut tape = Tape::new(&store);
        let h = tape.leaf(Matrix::from_rows(&[&[1., 2., 3.], &[0., 0., 0.]]));
        let out = layer.forward(&mut tape, h, &adj);
        let v = tape.value(out);
        assert_eq!(v.shape(), (2, 3));
        // node 1 receives a message from node 0, node 0 receives none:
        // with zero self features, node 1's activation is generally
        // nonzero while node 0 sees only bias.
        assert!(v.row(0) != v.row(1));
    }

    #[test]
    fn gru_state_evolves_and_trains() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, 2, 4, &mut rng);
        let head = Linear::new(&mut store, 4, 1, &mut rng);
        let mut adam = Adam::with_lr(0.03);
        // Learn to output 1 iff the 2-step input sequence was (1,0)
        // then (0,1), else 0 — requires memory of the first input.
        let seqs: Vec<([f32; 2], [f32; 2], f32)> = vec![
            ([1., 0.], [0., 1.], 1.),
            ([0., 1.], [0., 1.], 0.),
            ([1., 0.], [1., 0.], 0.),
            ([0., 0.], [0., 1.], 0.),
        ];
        let mut final_loss = f32::INFINITY;
        for _ in 0..400 {
            let mut tape = Tape::new(&store);
            let x1 = tape.leaf(Matrix::from_rows(
                &seqs.iter().map(|s| &s.0[..]).collect::<Vec<_>>(),
            ));
            let x2 = tape.leaf(Matrix::from_rows(
                &seqs.iter().map(|s| &s.1[..]).collect::<Vec<_>>(),
            ));
            let y = Matrix::from_vec(4, 1, seqs.iter().map(|s| s.2).collect());
            let h0 = gru.zero_state(&mut tape, 4);
            let h1 = gru.step(&mut tape, x1, h0);
            let h2 = gru.step(&mut tape, x2, h1);
            let logits = head.forward(&mut tape, h2);
            let loss = tape.bce_with_logits_mean(logits, y);
            final_loss = tape.scalar(loss);
            let grads = tape.backward(loss);
            adam.step(&mut store, &grads);
        }
        assert!(final_loss < 0.1, "GRU sequence loss {final_loss}");
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    /// [`Mlp::forward_packed_cat_into`] against the tape's
    /// [`Mlp::forward`] over the materialised `[x | 1⊗suffix]`, bit for
    /// bit: depths 1 to 4 (both buffer parities, and a single layer with
    /// no ReLU), an empty and a non-empty suffix, and finite or
    /// non-finite weights (the latter take the zero-skipping kernel,
    /// with an infinity behind a zero input in every layer). One warm
    /// buffer pair serves every case, so it is reshaped between calls
    /// of different shapes.
    #[test]
    fn packed_cat_forward_matches_tape_at_every_depth() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut bufs = [Matrix::zeros(0, 0), Matrix::zeros(0, 0)];
        for depth in 1..=4usize {
            for suffix in [&[][..], &[0.0, 0.7, -1.2][..]] {
                for finite in [true, false] {
                    let (rows, k) = (3 + depth, 5);
                    let mut widths = vec![k + suffix.len()];
                    widths.extend((1..depth).map(|i| 4 + 3 * i));
                    widths.push(2);
                    let mut store = ParamStore::new();
                    let mlp = Mlp::new(&mut store, &widths, &mut rng);
                    let mut x = Matrix::randn(rows, k, 1.0, &mut rng);
                    x.data_mut()[0] = 0.0;
                    if !finite {
                        // Row 0 of each layer meets a zero input: x[0][0]
                        // in layer 0, a ReLU zero or not in later ones.
                        for layer in &mlp.layers {
                            store.get_mut(layer.w).data_mut()[0] = f32::INFINITY;
                        }
                        if !suffix.is_empty() {
                            // The suffix's first entry is zero.
                            *store.get_mut(mlp.layers[0].w).at_mut(k, 1) = f32::NAN;
                        }
                    }
                    let mut cat = Matrix::zeros(rows, k + suffix.len());
                    for r in 0..rows {
                        for (c, &v) in x.row(r).iter().chain(suffix).enumerate() {
                            *cat.at_mut(r, c) = v;
                        }
                    }
                    let mut tape = Tape::new(&store);
                    let xv = tape.leaf(cat);
                    let want = mlp.forward(&mut tape, xv);
                    let packs = mlp.pack(&store);
                    let got = mlp.forward_packed_cat_into(&store, &x, suffix, &packs, &mut bufs);
                    let case = format!("depth {depth}, suffix {suffix:?}, finite {finite}");
                    assert_eq!(got.shape(), (rows, 2), "{case}");
                    assert_eq!(bits(tape.value(want)), bits(got), "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_needs_two_widths() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let _ = Mlp::new(&mut store, &[4], &mut rng);
    }
}
