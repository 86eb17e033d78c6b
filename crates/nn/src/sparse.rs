//! Row-normalized sparse adjacency for mean-over-parents message passing.
//!
//! The paper's encoder aggregates `1/|P(j)| · Σ_{i∈P(j)} W H_i` (§IV-C).
//! [`RowNormAdj`] stores that operator as a CSR matrix `A` with
//! `A[j][i] = 1/|P(j)|` for every parent `i` of `j`, together with its
//! transpose for the backward pass.

use crate::matrix::Matrix;

/// CSR sparse matrix with values, plus a transposed copy for backprop.
#[derive(Clone, Debug, Default)]
pub struct RowNormAdj {
    n: usize,
    // forward: out[j] = Σ_i val * x[i]
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    val: Vec<f32>,
    // transpose (same layout)
    t_row_ptr: Vec<u32>,
    t_col_idx: Vec<u32>,
    t_val: Vec<f32>,
}

impl RowNormAdj {
    /// Builds the mean-over-parents operator from parent lists:
    /// `parents[j]` lists the parents of node `j` (duplicates allowed and
    /// weighted accordingly).
    pub fn from_parents(parents: &[Vec<u32>]) -> Self {
        let mut adj = RowNormAdj::default();
        adj.rebuild_from_parents(parents);
        adj
    }

    /// Rebuilds the operator in place from new parent lists, reusing
    /// every CSR buffer (the scratch primitive behind the sampler hot
    /// loop: once warm, per-step rebuilds never touch the allocator).
    /// Produces exactly the same operator as [`RowNormAdj::from_parents`].
    pub fn rebuild_from_parents(&mut self, parents: &[Vec<u32>]) {
        let n = parents.len();
        self.n = n;
        self.row_ptr.clear();
        self.col_idx.clear();
        self.val.clear();
        self.row_ptr.push(0u32);
        for ps in parents {
            let w = if ps.is_empty() { 0.0 } else { 1.0 / ps.len() as f32 };
            for &p in ps {
                self.col_idx.push(p);
                self.val.push(w);
            }
            self.row_ptr.push(self.col_idx.len() as u32);
        }
        // Build the transpose by counting then filling, using t_row_ptr
        // itself as the fill cursor (shifted back afterwards) so the
        // rebuild needs no temporary allocation.
        let nnz = self.col_idx.len();
        self.t_row_ptr.clear();
        self.t_row_ptr.resize(n + 1, 0);
        for &c in &self.col_idx {
            self.t_row_ptr[c as usize + 1] += 1;
        }
        for i in 0..n {
            self.t_row_ptr[i + 1] += self.t_row_ptr[i];
        }
        self.t_col_idx.clear();
        self.t_col_idx.resize(nnz, 0);
        self.t_val.clear();
        self.t_val.resize(nnz, 0.0);
        for j in 0..n {
            for k in self.row_ptr[j] as usize..self.row_ptr[j + 1] as usize {
                let i = self.col_idx[k] as usize;
                let pos = self.t_row_ptr[i] as usize;
                self.t_col_idx[pos] = j as u32;
                self.t_val[pos] = self.val[k];
                self.t_row_ptr[i] += 1;
            }
        }
        for i in (1..=n).rev() {
            self.t_row_ptr[i] = self.t_row_ptr[i - 1];
        }
        if n > 0 {
            self.t_row_ptr[0] = 0;
        }
    }

    /// Number of nodes (rows/cols of the square operator).
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the operator has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sparse-dense product `A × X`.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != self.len()`.
    pub fn matmul(&self, x: &Matrix) -> Matrix {
        spmm(
            self.n,
            &self.row_ptr,
            &self.col_idx,
            &self.val,
            x,
        )
    }

    /// Writes `A × X` into `out` (reshaped in place), bit-identical to
    /// [`RowNormAdj::matmul`] — the serving variant that reuses a
    /// scratch buffer instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != self.len()`.
    pub fn matmul_into(&self, x: &Matrix, out: &mut Matrix) {
        spmm_into(self.n, &self.row_ptr, &self.col_idx, &self.val, x, out);
    }

    /// Transposed product `Aᵀ × X` (used by the backward pass).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != self.len()`.
    pub fn matmul_transposed(&self, x: &Matrix) -> Matrix {
        spmm(
            self.n,
            &self.t_row_ptr,
            &self.t_col_idx,
            &self.t_val,
            x,
        )
    }
}

fn spmm(n: usize, row_ptr: &[u32], col_idx: &[u32], val: &[f32], x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    spmm_into(n, row_ptr, col_idx, val, x, &mut out);
    out
}

/// CSR × dense, structurally aware: structurally-empty rows (nodes with
/// no parents — the common case for circuit inputs) are zero-filled and
/// skipped, and non-empty rows write their first contribution as
/// `0.0 + w·s` instead of zero-filling the whole output up front. That
/// first write is the exact operation the accumulate-into-zeros loop
/// performed (`0.0 + x` is not foldable to `x`: it normalizes `-0.0`
/// to `+0.0`, which is precisely the historical behavior), so results
/// stay bit-identical while the kernel touches each output row once
/// instead of twice.
fn spmm_into(n: usize, row_ptr: &[u32], col_idx: &[u32], val: &[f32], x: &Matrix, out: &mut Matrix) {
    assert_eq!(x.rows(), n, "spmm row mismatch");
    let d = x.cols();
    out.reset_shape_any(n, d);
    for j in 0..n {
        let (lo, hi) = (row_ptr[j] as usize, row_ptr[j + 1] as usize);
        let dst = &mut out.data_mut()[j * d..(j + 1) * d];
        if lo == hi {
            dst.fill(0.0);
            continue;
        }
        let (i0, w0) = (col_idx[lo] as usize, val[lo]);
        for (o, &s) in dst.iter_mut().zip(x.row(i0)) {
            *o = 0.0 + w0 * s;
        }
        for k in lo + 1..hi {
            let (i, w) = (col_idx[k] as usize, val[k]);
            let src = x.row(i);
            let dst = &mut out.data_mut()[j * d..(j + 1) * d];
            for (o, &s) in dst.iter_mut().zip(src) {
                *o += w * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_aggregation() {
        // node 2 has parents {0, 1}: out[2] = (x0 + x1) / 2
        let parents = vec![vec![], vec![], vec![0, 1]];
        let a = RowNormAdj::from_parents(&parents);
        let x = Matrix::from_rows(&[&[2., 4.], &[6., 8.], &[100., 100.]]);
        let y = a.matmul(&x);
        assert_eq!(y.row(0), &[0., 0.]);
        assert_eq!(y.row(1), &[0., 0.]);
        assert_eq!(y.row(2), &[4., 6.]);
    }

    #[test]
    fn duplicate_parents_weighted() {
        let parents = vec![vec![], vec![0, 0]];
        let a = RowNormAdj::from_parents(&parents);
        let x = Matrix::from_rows(&[&[3.0], &[0.0]]);
        let y = a.matmul(&x);
        assert_eq!(y.at(1, 0), 3.0); // (3 + 3) / 2
    }

    #[test]
    fn transpose_consistency_with_dense() {
        let parents = vec![vec![1, 2], vec![2], vec![], vec![0, 1, 2]];
        let a = RowNormAdj::from_parents(&parents);
        let n = 4;
        // dense A
        let mut dense = Matrix::zeros(n, n);
        for (j, ps) in parents.iter().enumerate() {
            for &i in ps {
                *dense.at_mut(j, i as usize) += 1.0 / ps.len() as f32;
            }
        }
        let x = Matrix::from_rows(&[&[1., 2.], &[3., 4.], &[5., 6.], &[7., 8.]]);
        let sparse_fwd = a.matmul(&x);
        let dense_fwd = dense.matmul(&x);
        for (s, d) in sparse_fwd.data().iter().zip(dense_fwd.data()) {
            assert!((s - d).abs() < 1e-6);
        }
        let sparse_t = a.matmul_transposed(&x);
        let dense_t = dense.transpose().matmul(&x);
        for (s, d) in sparse_t.data().iter().zip(dense_t.data()) {
            assert!((s - d).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_operator() {
        let a = RowNormAdj::from_parents(&[]);
        assert!(a.is_empty());
        let y = a.matmul(&Matrix::zeros(0, 3));
        assert_eq!(y.shape(), (0, 3));
    }
}
