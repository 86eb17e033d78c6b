//! Reverse-mode automatic differentiation over matrix operations.

use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::sparse::RowNormAdj;
use std::rc::Rc;

/// Handle to a value on a [`Tape`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Var(usize);

#[derive(Clone, Debug)]
enum Op {
    Leaf,
    Param,
    MatMul(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    Hadamard(usize, usize),
    Scale(usize, f32),
    AddRow(usize, usize),
    Relu(usize),
    Sigmoid(usize),
    Tanh(usize),
    ConcatCols(usize, usize),
    ConcatRows(usize, usize),
    GatherRows(usize, Rc<Vec<u32>>),
    SpmmMean(usize, Rc<RowNormAdj>),
    SumAll(usize),
    MeanAll(usize),
    BceLogitsMean(usize, Rc<Matrix>),
    MseMean(usize, Rc<Matrix>),
}

/// Gradients of a scalar loss with respect to store parameters.
#[derive(Clone, Debug, Default)]
pub struct Gradients {
    by_param: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient for a parameter, if it participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.by_param.get(id.index()).and_then(Option::as_ref)
    }

    /// Global L2 norm over all parameter gradients.
    pub fn norm(&self) -> f32 {
        self.by_param
            .iter()
            .flatten()
            .map(|m| {
                let n = m.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient in place (gradient clipping).
    pub fn scale(&mut self, factor: f32) {
        for g in self.by_param.iter_mut().flatten() {
            for x in g.data_mut() {
                *x *= factor;
            }
        }
    }

    /// Clips the global norm to `max_norm` if it exceeds it.
    pub fn clip_norm(&mut self, max_norm: f32) {
        let n = self.norm();
        if n > max_norm && n > 0.0 {
            self.scale(max_norm / n);
        }
    }

    /// Adds `other`'s gradients elementwise into `self` (a parameter
    /// missing on one side adopts the other side's matrix).
    ///
    /// Floating-point addition is not associative, so parallel trainers
    /// that merge per-shard gradients must call this in a **fixed
    /// order** to stay bit-deterministic (see the diffusion trainer in
    /// the core crate).
    pub fn accumulate(&mut self, other: &Gradients) {
        if self.by_param.len() < other.by_param.len() {
            self.by_param.resize(other.by_param.len(), None);
        }
        for (slot, o) in self.by_param.iter_mut().zip(&other.by_param) {
            match (slot.as_mut(), o) {
                (Some(a), Some(b)) => {
                    debug_assert_eq!(a.shape(), b.shape(), "gradient shapes must agree");
                    for (x, &y) in a.data_mut().iter_mut().zip(b.data()) {
                        *x += y;
                    }
                }
                (None, Some(b)) => *slot = Some(b.clone()),
                _ => {}
            }
        }
    }
}

/// A single forward computation: values plus the operation trace needed to
/// run reverse-mode differentiation.
///
/// Construction copies the current parameter values in as leaves, so the
/// tape does not borrow the [`ParamStore`] afterwards.
#[derive(Debug)]
pub struct Tape {
    values: Vec<Matrix>,
    ops: Vec<Op>,
    param_vars: Vec<usize>,
    num_params: usize,
}

impl Tape {
    /// Starts a tape, importing every parameter of `store` as a leaf.
    pub fn new(store: &ParamStore) -> Self {
        let mut t = Tape {
            values: Vec::new(),
            ops: Vec::new(),
            param_vars: Vec::with_capacity(store.len()),
            num_params: store.len(),
        };
        for m in store.all() {
            let v = t.push(m.clone(), Op::Param);
            t.param_vars.push(v.0);
        }
        t
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.values.push(value);
        self.ops.push(op);
        Var(self.values.len() - 1)
    }

    /// The tape variable bound to a parameter.
    pub fn param(&self, id: ParamId) -> Var {
        Var(self.param_vars[id.index()])
    }

    /// Adds a constant leaf.
    pub fn leaf(&mut self, m: Matrix) -> Var {
        self.push(m, Op::Leaf)
    }

    /// Value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.values[v.0]
    }

    /// Value of a 1×1 variable as `f32`.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not 1×1.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() on non-scalar variable");
        m.at(0, 0)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].matmul(&self.values[b.0]);
        self.push(v, Op::MatMul(a.0, b.0))
    }

    /// Elementwise sum (same shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].zip(&self.values[b.0], |x, y| x + y);
        self.push(v, Op::Add(a.0, b.0))
    }

    /// Elementwise difference (same shapes).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].zip(&self.values[b.0], |x, y| x - y);
        self.push(v, Op::Sub(a.0, b.0))
    }

    /// Elementwise product (same shapes).
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].zip(&self.values[b.0], |x, y| x * y);
        self.push(v, Op::Hadamard(a.0, b.0))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.values[a.0].map(|x| x * s);
        self.push(v, Op::Scale(a.0, s))
    }

    /// Adds a 1×C row vector to every row of an R×C matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not 1×C.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (m, r) = (&self.values[a.0], &self.values[row.0]);
        assert_eq!(r.rows(), 1, "add_row expects a 1xC row vector");
        assert_eq!(r.cols(), m.cols(), "add_row width mismatch");
        let mut out = m.clone();
        for i in 0..out.rows() {
            let cols = out.cols();
            let dst = &mut out.data_mut()[i * cols..(i + 1) * cols];
            for (d, &s) in dst.iter_mut().zip(r.data()) {
                *d += s;
            }
        }
        self.push(out, Op::AddRow(a.0, row.0))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(|x| x.max(0.0));
        self.push(v, Op::Relu(a.0))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(sigmoid);
        self.push(v, Op::Sigmoid(a.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(f32::tanh);
        self.push(v, Op::Tanh(a.0))
    }

    /// Horizontal concatenation `[A | B]` (same row counts).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ma, mb) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(ma.rows(), mb.rows(), "concat_cols row mismatch");
        let rows = ma.rows();
        let (ca, cb) = (ma.cols(), mb.cols());
        let mut out = Matrix::zeros(rows, ca + cb);
        for i in 0..rows {
            let dst = &mut out.data_mut()[i * (ca + cb)..i * (ca + cb) + ca];
            dst.copy_from_slice(ma.row(i));
            let dst = &mut out.data_mut()[i * (ca + cb) + ca..(i + 1) * (ca + cb)];
            dst.copy_from_slice(mb.row(i));
        }
        self.push(out, Op::ConcatCols(a.0, b.0))
    }

    /// Vertical concatenation `[A; B]` (same column counts).
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (ma, mb) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(ma.cols(), mb.cols(), "concat_rows column mismatch");
        let mut data = Vec::with_capacity(ma.data().len() + mb.data().len());
        data.extend_from_slice(ma.data());
        data.extend_from_slice(mb.data());
        let out = Matrix::from_vec(ma.rows() + mb.rows(), ma.cols(), data);
        self.push(out, Op::ConcatRows(a.0, b.0))
    }

    /// Row gather: `out[i] = a[idx[i]]` (embedding lookup / row
    /// broadcast).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&mut self, a: Var, idx: impl Into<Rc<Vec<u32>>>) -> Var {
        let idx = idx.into();
        let m = &self.values[a.0];
        let mut out = Matrix::zeros(idx.len(), m.cols());
        for (i, &r) in idx.iter().enumerate() {
            let cols = m.cols();
            out.data_mut()[i * cols..(i + 1) * cols].copy_from_slice(m.row(r as usize));
        }
        self.push(out, Op::GatherRows(a.0, idx))
    }

    /// Mean-over-parents aggregation `A × X` with a row-normalized sparse
    /// adjacency (the paper's MPNN message).
    pub fn spmm_mean(&mut self, adj: impl Into<Rc<RowNormAdj>>, x: Var) -> Var {
        let adj = adj.into();
        let v = adj.matmul(&self.values[x.0]);
        self.push(v, Op::SpmmMean(x.0, adj))
    }

    /// Sum of all entries (1×1 result).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.values[a.0].sum();
        self.push(Matrix::from_vec(1, 1, vec![s]), Op::SumAll(a.0))
    }

    /// Mean of all entries (1×1 result).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let m = &self.values[a.0];
        let s = m.sum() / m.data().len().max(1) as f32;
        self.push(Matrix::from_vec(1, 1, vec![s]), Op::MeanAll(a.0))
    }

    /// Numerically stable binary cross-entropy with logits, averaged over
    /// all elements. `targets` must match the logits' shape.
    pub fn bce_with_logits_mean(&mut self, logits: Var, targets: Matrix) -> Var {
        let z = &self.values[logits.0];
        assert_eq!(z.shape(), targets.shape(), "bce target shape mismatch");
        let n = z.data().len().max(1) as f32;
        let mut acc = 0.0f64;
        for (&zi, &yi) in z.data().iter().zip(targets.data()) {
            // max(z,0) - z*y + ln(1 + exp(-|z|))
            acc += (zi.max(0.0) - zi * yi + (-zi.abs()).exp().ln_1p()) as f64;
        }
        let loss = (acc / n as f64) as f32;
        self.push(
            Matrix::from_vec(1, 1, vec![loss]),
            Op::BceLogitsMean(logits.0, Rc::new(targets)),
        )
    }

    /// Mean squared error against a constant target of the same shape.
    pub fn mse_mean(&mut self, a: Var, targets: Matrix) -> Var {
        let m = &self.values[a.0];
        assert_eq!(m.shape(), targets.shape(), "mse target shape mismatch");
        let n = m.data().len().max(1) as f32;
        let s: f32 = m
            .data()
            .iter()
            .zip(targets.data())
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum::<f32>()
            / n;
        self.push(
            Matrix::from_vec(1, 1, vec![s]),
            Op::MseMean(a.0, Rc::new(targets)),
        )
    }

    /// Runs reverse-mode differentiation from a scalar loss and returns
    /// the parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not 1×1.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert_eq!(
            self.values[loss.0].shape(),
            (1, 1),
            "backward() requires a scalar loss"
        );
        let n = self.values.len();
        let mut grads: Vec<Option<Matrix>> = vec![None; n];
        grads[loss.0] = Some(Matrix::ones(1, 1));

        for i in (0..n).rev() {
            let Some(g) = grads[i].take() else {
                continue;
            };
            match &self.ops[i] {
                Op::Leaf | Op::Param => {
                    grads[i] = Some(g); // keep for collection
                    continue;
                }
                Op::MatMul(a, b) => {
                    let da = g.matmul(&self.values[*b].transpose());
                    let db = self.values[*a].transpose().matmul(&g);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g.map(|x| -x));
                }
                Op::Hadamard(a, b) => {
                    let da = g.zip(&self.values[*b], |x, y| x * y);
                    let db = g.zip(&self.values[*a], |x, y| x * y);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::Scale(a, s) => {
                    accumulate(&mut grads, *a, g.map(|x| x * s));
                }
                Op::AddRow(a, row) => {
                    let cols = g.cols();
                    let mut drow = Matrix::zeros(1, cols);
                    for r in 0..g.rows() {
                        for c in 0..cols {
                            *drow.at_mut(0, c) += g.at(r, c);
                        }
                    }
                    accumulate(&mut grads, *a, g);
                    accumulate(&mut grads, *row, drow);
                }
                Op::Relu(a) => {
                    let da = g.zip(&self.values[*a], |gi, xi| if xi > 0.0 { gi } else { 0.0 });
                    accumulate(&mut grads, *a, da);
                }
                Op::Sigmoid(a) => {
                    let da = g.zip(&self.values[i], |gi, yi| gi * yi * (1.0 - yi));
                    accumulate(&mut grads, *a, da);
                }
                Op::Tanh(a) => {
                    let da = g.zip(&self.values[i], |gi, yi| gi * (1.0 - yi * yi));
                    accumulate(&mut grads, *a, da);
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.values[*a].cols();
                    let cb = self.values[*b].cols();
                    let rows = g.rows();
                    let mut da = Matrix::zeros(rows, ca);
                    let mut db = Matrix::zeros(rows, cb);
                    for r in 0..rows {
                        for c in 0..ca {
                            *da.at_mut(r, c) = g.at(r, c);
                        }
                        for c in 0..cb {
                            *db.at_mut(r, c) = g.at(r, ca + c);
                        }
                    }
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::ConcatRows(a, b) => {
                    let ra = self.values[*a].rows();
                    let cols = g.cols();
                    let da = Matrix::from_vec(ra, cols, g.data()[..ra * cols].to_vec());
                    let rb = self.values[*b].rows();
                    let db = Matrix::from_vec(rb, cols, g.data()[ra * cols..].to_vec());
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::GatherRows(a, idx) => {
                    let src = &self.values[*a];
                    let mut da = Matrix::zeros(src.rows(), src.cols());
                    let cols = src.cols();
                    for (out_r, &src_r) in idx.iter().enumerate() {
                        let dst =
                            &mut da.data_mut()[src_r as usize * cols..(src_r as usize + 1) * cols];
                        for (d, &s) in dst.iter_mut().zip(g.row(out_r)) {
                            *d += s;
                        }
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::SpmmMean(x, adj) => {
                    let dx = adj.matmul_transposed(&g);
                    accumulate(&mut grads, *x, dx);
                }
                Op::SumAll(a) => {
                    let s = g.at(0, 0);
                    let src = &self.values[*a];
                    accumulate(&mut grads, *a, Matrix::full(src.rows(), src.cols(), s));
                }
                Op::MeanAll(a) => {
                    let src = &self.values[*a];
                    let s = g.at(0, 0) / src.data().len().max(1) as f32;
                    accumulate(&mut grads, *a, Matrix::full(src.rows(), src.cols(), s));
                }
                Op::BceLogitsMean(z, y) => {
                    let s = g.at(0, 0) / self.values[*z].data().len().max(1) as f32;
                    let dz = self.values[*z].zip(y, |zi, yi| s * (sigmoid(zi) - yi));
                    accumulate(&mut grads, *z, dz);
                }
                Op::MseMean(a, y) => {
                    let s = 2.0 * g.at(0, 0) / self.values[*a].data().len().max(1) as f32;
                    let da = self.values[*a].zip(y, |xi, yi| s * (xi - yi));
                    accumulate(&mut grads, *a, da);
                }
            }
        }

        let mut by_param: Vec<Option<Matrix>> = vec![None; self.num_params];
        for (pid, &var) in self.param_vars.iter().enumerate() {
            if let Some(g) = grads[var].take() {
                by_param[pid] = Some(g);
            }
        }
        Gradients { by_param }
    }
}

fn accumulate(grads: &mut [Option<Matrix>], idx: usize, g: Matrix) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

/// The numerically stable logistic sigmoid behind [`Tape::sigmoid`],
/// for forward passes that run off the tape and must match its bits.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Central finite-difference gradient of `f` w.r.t. one param.
    fn numeric_grad(store: &mut ParamStore, id: ParamId, f: &dyn Fn(&ParamStore) -> f32) -> Matrix {
        let eps = 1e-3f32;
        let shape = store.get(id).shape();
        let mut out = Matrix::zeros(shape.0, shape.1);
        for i in 0..shape.0 * shape.1 {
            let orig = store.get(id).data()[i];
            store.get_mut(id).data_mut()[i] = orig + eps;
            let up = f(store);
            store.get_mut(id).data_mut()[i] = orig - eps;
            let down = f(store);
            store.get_mut(id).data_mut()[i] = orig;
            out.data_mut()[i] = (up - down) / (2.0 * eps);
        }
        out
    }

    fn check_grads(
        store: &mut ParamStore,
        ids: &[ParamId],
        f: &dyn Fn(&ParamStore, &mut Tape) -> Var,
        tol: f32,
    ) {
        let run = |s: &ParamStore| {
            let mut t = Tape::new(s);
            let loss = f(s, &mut t);
            t.scalar(loss)
        };
        let mut tape = Tape::new(store);
        let loss = f(store, &mut tape);
        let grads = tape.backward(loss);
        for &id in ids {
            let analytic = grads.get(id).expect("param should have gradient");
            let numeric = numeric_grad(store, id, &run);
            for (a, n) in analytic.data().iter().zip(numeric.data()) {
                assert!(
                    (a - n).abs() < tol.max(tol * n.abs()),
                    "grad mismatch: analytic {a} vs numeric {n}"
                );
            }
        }
    }

    #[test]
    fn grad_matmul_chain() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut store = ParamStore::new();
        let w1 = store.add(Matrix::randn(3, 4, 0.5, &mut rng));
        let w2 = store.add(Matrix::randn(4, 2, 0.5, &mut rng));
        let x = Matrix::randn(5, 3, 1.0, &mut rng);
        check_grads(
            &mut store,
            &[w1, w2],
            &move |_, t| {
                let xv = t.leaf(x.clone());
                let a = t.param(ParamId(0));
                let b = t.param(ParamId(1));
                let h = t.matmul(xv, a);
                let h = t.tanh(h);
                let o = t.matmul(h, b);
                t.mean_all(o)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_elementwise_ops() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let a = store.add(Matrix::randn(3, 3, 0.8, &mut rng));
        let b = store.add(Matrix::randn(3, 3, 0.8, &mut rng));
        check_grads(
            &mut store,
            &[a, b],
            &|_, t| {
                let av = t.param(ParamId(0));
                let bv = t.param(ParamId(1));
                let s = t.add(av, bv);
                let d = t.sub(av, bv);
                let h = t.hadamard(s, d);
                let h = t.scale(h, 0.5);
                let h = t.sigmoid(h);
                t.sum_all(h)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_relu_and_addrow() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let w = store.add(Matrix::randn(4, 3, 0.7, &mut rng));
        let bias = store.add(Matrix::randn(1, 3, 0.7, &mut rng));
        check_grads(
            &mut store,
            &[w, bias],
            &|_, t| {
                let wv = t.param(ParamId(0));
                let bv = t.param(ParamId(1));
                let h = t.add_row(wv, bv);
                let h = t.relu(h);
                t.mean_all(h)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_concat_gather() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut store = ParamStore::new();
        let tbl = store.add(Matrix::randn(5, 3, 0.6, &mut rng));
        let other = store.add(Matrix::randn(4, 2, 0.6, &mut rng));
        let idx: Vec<u32> = vec![0, 2, 2, 4];
        check_grads(
            &mut store,
            &[tbl, other],
            &move |_, t| {
                let tb = t.param(ParamId(0));
                let ot = t.param(ParamId(1));
                let gathered = t.gather_rows(tb, idx.clone());
                let cat = t.concat_cols(gathered, ot);
                let h = t.tanh(cat);
                t.mean_all(h)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_spmm() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut store = ParamStore::new();
        let h = store.add(Matrix::randn(4, 3, 0.6, &mut rng));
        let adj = Rc::new(RowNormAdj::from_parents(&[
            vec![],
            vec![0],
            vec![0, 1],
            vec![1, 2, 2],
        ]));
        check_grads(
            &mut store,
            &[h],
            &move |_, t| {
                let hv = t.param(ParamId(0));
                let agg = t.spmm_mean(adj.clone(), hv);
                let agg = t.tanh(agg);
                t.sum_all(agg)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_bce_and_mse() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut store = ParamStore::new();
        let z = store.add(Matrix::randn(6, 1, 1.0, &mut rng));
        let y = Matrix::from_vec(6, 1, vec![1., 0., 1., 1., 0., 0.]);
        let y2 = y.clone();
        check_grads(
            &mut store,
            &[z],
            &move |_, t| {
                let zv = t.param(ParamId(0));
                t.bce_with_logits_mean(zv, y2.clone())
            },
            2e-2,
        );
        let target = Matrix::randn(6, 1, 1.0, &mut rng);
        check_grads(
            &mut store,
            &[z],
            &move |_, t| {
                let zv = t.param(ParamId(0));
                t.mse_mean(zv, target.clone())
            },
            2e-2,
        );
    }

    #[test]
    fn grad_concat_rows() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut store = ParamStore::new();
        let a = store.add(Matrix::randn(2, 3, 0.7, &mut rng));
        let b = store.add(Matrix::randn(4, 3, 0.7, &mut rng));
        check_grads(
            &mut store,
            &[a, b],
            &|_, t| {
                let av = t.param(ParamId(0));
                let bv = t.param(ParamId(1));
                let s = t.concat_rows(av, bv);
                let s = t.tanh(s);
                t.mean_all(s)
            },
            2e-2,
        );
    }

    #[test]
    fn concat_rows_values() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let a = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = tape.leaf(Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let s = tape.concat_rows(a, b);
        assert_eq!(tape.value(s).shape(), (3, 2));
        assert_eq!(tape.value(s).row(2), &[5.0, 6.0]);
    }

    #[test]
    fn param_reused_twice_accumulates() {
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 1, vec![2.0]));
        // loss = w*w → dL/dw = 2w = 4
        let mut tape = Tape::new(&store);
        let wv = tape.param(w);
        let sq = tape.hadamard(wv, wv);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        assert!((grads.get(w).unwrap().at(0, 0) - 4.0).abs() < 1e-5);
    }

    #[test]
    fn clip_norm_bounds_gradients() {
        let mut store = ParamStore::new();
        let w = store.add(Matrix::full(1, 4, 100.0));
        let mut tape = Tape::new(&store);
        let wv = tape.param(w);
        let sq = tape.hadamard(wv, wv);
        let loss = tape.sum_all(sq);
        let mut grads = tape.backward(loss);
        assert!(grads.norm() > 1.0);
        grads.clip_norm(1.0);
        assert!((grads.norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let v = tape.leaf(Matrix::zeros(2, 2));
        let _ = tape.backward(v);
    }

    #[test]
    fn accumulate_merges_elementwise() {
        let mut store = ParamStore::new();
        let a = store.add(Matrix::full(1, 2, 2.0));
        let b = store.add(Matrix::full(1, 2, 3.0));
        let grads_for = |loss_on: ParamId| {
            let mut tape = Tape::new(&store);
            let v = tape.param(loss_on);
            let sq = tape.hadamard(v, v);
            let loss = tape.sum_all(sq);
            tape.backward(loss)
        };
        // d/dx sum(x^2) = 2x
        let mut merged = grads_for(a); // grad only on `a`
        let gb = grads_for(b); // grad only on `b`
        merged.accumulate(&gb);
        merged.accumulate(&grads_for(a)); // second shard touching `a`
        assert_eq!(merged.get(a).unwrap().at(0, 0), 8.0);
        assert_eq!(merged.get(b).unwrap().at(0, 0), 6.0);
    }
}
