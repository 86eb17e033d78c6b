//! Dense row-major `f32` matrices.

use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Output-column tile width shared by [`Matrix::matmul_into`] and the
/// packed-B kernel: 16 `f32`s = 64 bytes = one cache line, so each
/// panel row of a [`PackedB`] is exactly one line and the accumulator
/// tile fits in one 512-bit or two 256-bit vector registers.
const TILE: usize = 16;

/// Writeback of one tile accumulator: broadcast bias add, optional
/// ReLU, then the copy of the tile's live lanes. Each step is the
/// identical per-element operation the unfused op sequence performs,
/// in the same order, so fusing changes no bits. (Shared-suffix adds
/// happen inside the row kernel, while the accumulators are still in
/// registers.)
#[inline(always)]
fn finish_tile_row(
    acc: &mut [f32; TILE],
    btile: &[f32; TILE],
    add_bias: bool,
    relu: bool,
    dst: &mut [f32],
) {
    if add_bias {
        for (x, &b) in acc.iter_mut().zip(btile) {
            *x += b;
        }
    }
    if relu {
        for x in acc.iter_mut() {
            *x = x.max(0.0);
        }
    }
    let w = dst.len();
    dst.copy_from_slice(&acc[..w]);
}

/// A dense row-major matrix of `f32`.
#[derive(Clone, Default, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// All-ones matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Standard-normal random matrix (Box–Muller) scaled by `std`.
    pub fn randn<R: Rng>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs` (ikj loop order).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combine with another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Reshapes this matrix in place to `rows × cols` and zero-fills it,
    /// reusing the existing allocation whenever the capacity suffices —
    /// the scratch primitive behind serving passes, whose warm buffers
    /// never touch the allocator.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        self.data.clear();
        self.data.resize(n, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// [`Matrix::reset_shape`] without the zero-fill: contents are
    /// unspecified (stale values from earlier passes). Only for callers
    /// that overwrite every element before the value is read.
    pub fn reset_shape_any(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if n > self.data.len() {
            self.data.resize(n, 0.0);
        } else {
            self.data.truncate(n);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Writes `self × rhs` into `out` (reshaped in place). Per output
    /// element, contributions accumulate in ascending `k` with zero `a`
    /// entries skipped — the historical ikj order — but the inner loop
    /// is tiled over output columns so the running sums live in
    /// registers instead of round-tripping through the output row every
    /// `k`. Identical scalar operation sequence per element, so results
    /// are bit-identical to the straightforward loop; [`Matrix::matmul`]
    /// delegates here, keeping the allocating and scratch-reusing paths
    /// equal by construction.
    ///
    /// # Zero-skip invariant (deliberately non-IEEE)
    ///
    /// The `a == 0.0` skip means a zero left-hand entry contributes
    /// nothing **even when the matching `rhs` entry is `NaN` or `±∞`**
    /// — IEEE would give `0.0 × NaN = NaN` and `0.0 × ∞ = NaN`. This
    /// divergence is observable, load-bearing, and locked by a
    /// regression test (`zero_skip_masks_nonfinite_rhs`): every matmul
    /// path (tape, tiled, `d == 1` dot, packed) must produce the same
    /// bits, and the skip is part of the result they agree on. A
    /// non-zero `a` against a non-finite `rhs` still propagates
    /// NaN/∞ normally, and a `NaN` in `a` is *not* skipped (`NaN ==
    /// 0.0` is false). [`Matrix::matmul_packed_into`] reproduces the
    /// skip bit for bit, without a branch when the weights are finite
    /// — see [`PackedB`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_shape_any(self.rows, rhs.cols);
        let d = rhs.cols;
        if self.cols == 0 || d == 0 {
            out.data.fill(0.0);
            return;
        }
        if d == 1 {
            // Column output: a plain dot product per row (same k order
            // and zero-skip as the tiled path below).
            for (arow, o) in self.data.chunks_exact(self.cols).zip(out.data.iter_mut()) {
                let mut acc = 0.0f32;
                for (&a, &r) in arow.iter().zip(&rhs.data) {
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * r;
                }
                *o = acc;
            }
            return;
        }
        for (arow, orow) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(d))
        {
            for (tile, otile) in orow.chunks_mut(TILE).enumerate() {
                let w = otile.len();
                let mut acc = [0.0f32; TILE];
                if w == TILE {
                    // Full tile: fixed-width inner loop (vectorizes
                    // without runtime trip counts).
                    for (rrow, &a) in rhs.data.chunks_exact(d).zip(arow) {
                        if a == 0.0 {
                            continue;
                        }
                        let rtile: &[f32; TILE] =
                            rrow[tile * TILE..tile * TILE + TILE].try_into().unwrap();
                        for (ac, &r) in acc.iter_mut().zip(rtile) {
                            *ac += a * r;
                        }
                    }
                } else {
                    for (rrow, &a) in rhs.data.chunks_exact(d).zip(arow) {
                        if a == 0.0 {
                            continue;
                        }
                        let rtile = &rrow[tile * TILE..tile * TILE + w];
                        for (ac, &r) in acc[..w].iter_mut().zip(rtile) {
                            *ac += a * r;
                        }
                    }
                }
                otile.copy_from_slice(&acc[..w]);
            }
        }
    }

    /// Packs this matrix into the panel layout consumed by
    /// [`Matrix::matmul_packed_into`] (allocating; see
    /// [`Matrix::pack_b_into`] for the reusing variant).
    pub fn pack_b(&self) -> PackedB {
        let mut packed = PackedB::default();
        self.pack_b_into(&mut packed);
        packed
    }

    /// Repacks this matrix into `packed` in place, reusing its buffer.
    ///
    /// The packed layout is panel-major: for each 16-column output tile,
    /// all `rows` rows of that tile are stored contiguously (one cache
    /// line per row), zero-padded on the right when `cols` is not a
    /// multiple of 16. Padding lanes are never copied out of the kernel
    /// accumulator, so their values are irrelevant to results.
    pub fn pack_b_into(&self, packed: &mut PackedB) {
        let tiles = self.cols.div_ceil(TILE);
        packed.rows = self.rows;
        packed.cols = self.cols;
        packed.finite = self.data.iter().all(|x| x.is_finite());
        packed.data.clear();
        packed.data.resize(tiles * self.rows, [0.0; TILE]);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (t, chunk) in row.chunks(TILE).enumerate() {
                packed.data[t * self.rows + r][..chunk.len()].copy_from_slice(chunk);
            }
        }
    }

    /// Writes `self × rhs` into `out`, bit-identical to
    /// [`Matrix::matmul_into`] with the unpacked `rhs`, using the
    /// panel-major [`PackedB`] layout.
    ///
    /// Two things make the naive kernel slow on serving activations:
    /// `rhs` rows are strided (one cache line per `k` touches `d`
    /// columns), and the `a == 0.0` skip — hit 25–50% of the time on
    /// post-ReLU data — is an unpredictable branch. The packed layout
    /// makes every panel read sequential, and for finite weights the
    /// skip needs no branch at all (see [`PackedB`]), so each lane is a
    /// plain multiply and add. Proven against [`Matrix::matmul_into`]
    /// across ragged shapes and non-finite inputs in the test suite.
    ///
    /// One safe kernel body is compiled once per SIMD tier (portable,
    /// AVX2, AVX-512F), and the widest tier the CPU supports runs
    /// (detected at runtime). Every tier and row blocking performs the
    /// same per-lane operation sequence, and Rust never fuses a multiply
    /// and an add into an FMA, so results do not depend on the choice;
    /// the unit tests run every tier the host supports.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_packed_into(&self, rhs: &PackedB, out: &mut Matrix) {
        self.matmul_packed_impl(rhs, None, &[], false, out);
    }

    /// `self × rhs + bias` (bias broadcast to every row), fused into the
    /// kernel's writeback: each output element is `fl(acc + b)` — the
    /// exact operation the separate matmul-then-`add_row` pair performs
    /// — without a second read/write pass over the output. Bit-identical
    /// to [`Matrix::matmul_packed_into`] followed by a broadcast row
    /// add.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or when `bias` is not
    /// `1 × rhs.cols()`.
    pub fn matmul_packed_bias_into(&self, rhs: &PackedB, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(
            (bias.rows, bias.cols),
            (1, rhs.cols),
            "bias must be 1x{} (got {}x{})",
            rhs.cols,
            bias.rows,
            bias.cols
        );
        self.matmul_packed_impl(rhs, Some(&bias.data), &[], false, out);
    }

    /// `[self | 1⊗suffix] × rhs + bias` (then optionally ReLU), where
    /// `suffix` is one shared row virtually appended to **every** row
    /// of `self` — without materialising the concatenation. Serving
    /// decoders hit this shape constantly: per-pair activations on the
    /// left, one time-conditioning row on the right, identical across
    /// thousands of pairs.
    ///
    /// Bit-identical to building the concatenated matrix and calling
    /// [`Matrix::matmul_packed_bias_into`] (plus a ReLU pass when
    /// `relu`): the suffix products `suffix[j] × rhs[k+j][c]` are
    /// row-invariant, so they are formed once per column tile (zero
    /// `suffix[j]` skipped, as the full kernel skips them) and then
    /// added to each row's accumulator in the same ascending-`k` order
    /// the full kernel uses. The fused ReLU applies the identical
    /// `max(x, 0.0)` to the identical writeback values.
    ///
    /// # Panics
    ///
    /// Panics when `self.cols() + suffix.len() != rhs.rows()` or when
    /// `bias` is not `1 × rhs.cols()`.
    pub fn matmul_packed_cat_bias_into(
        &self,
        suffix: &[f32],
        rhs: &PackedB,
        bias: &Matrix,
        relu: bool,
        out: &mut Matrix,
    ) {
        assert_eq!(
            (bias.rows, bias.cols),
            (1, rhs.cols),
            "bias must be 1x{} (got {}x{})",
            rhs.cols,
            bias.rows,
            bias.cols
        );
        self.matmul_packed_impl(rhs, Some(&bias.data), suffix, relu, out);
    }

    fn matmul_packed_impl(
        &self,
        rhs: &PackedB,
        bias: Option<&[f32]>,
        suffix: &[f32],
        relu: bool,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols + suffix.len(),
            rhs.rows,
            "matmul shape mismatch: {}x{} (+{} shared) × {}x{} (packed)",
            self.rows,
            self.cols,
            suffix.len(),
            rhs.rows,
            rhs.cols
        );
        out.reset_shape_any(self.rows, rhs.cols);
        let job = Job {
            a: self,
            suffix,
            rhs,
            bias,
            relu,
        };
        if rhs.finite {
            packed_product::<false>(&job, &mut out.data);
        } else {
            packed_product::<true>(&job, &mut out.data);
        }
    }

    /// In-place `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }
}

impl Deserialize for Matrix {
    /// Rejects a `data` length other than `rows × cols`, so a malformed
    /// artifact fails to load instead of panicking (or computing on
    /// zero padding) once it serves.
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| DeError(format!("missing field `{name}` in Matrix")))
        };
        let rows = usize::deserialize(field("rows")?)?;
        let cols = usize::deserialize(field("cols")?)?;
        let data = Vec::<f32>::deserialize(field("data")?)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(DeError(format!(
                "matrix data length {} != {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

/// A weight matrix repacked for [`Matrix::matmul_packed_into`]:
/// panel-major, 16-wide zero-padded column tiles (one cache line per
/// panel row), so the kernel streams each panel sequentially instead of
/// striding across `B`'s rows.
///
/// Packing also records whether every weight is finite. For finite
/// weights the product needs no zero skip at all: a `±0.0` entry of
/// `A` adds `±0.0`, which never changes an accumulator's bits.
/// An accumulator starts at `+0.0`, and round-to-nearest addition gives
/// `-0.0` only from `(-0.0) + (-0.0)`, so it never holds `-0.0`; every
/// other value is unchanged by adding `±0.0`. Against a `NaN` or `±∞`
/// weight a zero entry would form `NaN`, so a matrix with one is
/// multiplied by a second instantiation of the same kernel that skips
/// zero entries with a branch, as [`Matrix::matmul_into`] does.
///
/// A `PackedB` is a pure function of the source matrix — repack after
/// any weight change. It is a serving-side acceleration structure and
/// deliberately not serializable; artifacts store the row-major
/// [`Matrix`] and repack on load.
#[derive(Clone, Debug, Default)]
pub struct PackedB {
    rows: usize,
    cols: usize,
    finite: bool,
    data: Vec<[f32; TILE]>,
}

impl PackedB {
    /// Rows of the source matrix (the product's inner dimension).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the source matrix (the product's output width).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// One packed product: `[a | 1⊗suffix] × rhs`, plus the optional bias
/// and ReLU, written row-major into an output slice.
struct Job<'a> {
    a: &'a Matrix,
    suffix: &'a [f32],
    rhs: &'a PackedB,
    bias: Option<&'a [f32]>,
    relu: bool,
}

/// Runs `job` on the row kernels of the widest SIMD tier this CPU
/// supports. `SKIP` selects the zero-skipping instantiation, which the
/// weights need when they are not all finite (see [`PackedB`]).
fn packed_product<const SKIP: bool>(job: &Job<'_>, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F, checked just above.
            return unsafe { tiles_avx512f::<SKIP>(job, out) };
        }
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { tiles_avx2::<SKIP>(job, out) };
        }
    }
    tiles_portable::<SKIP>(job, out);
}

/// The tile loop of a packed product. For each 16-column tile it forms
/// the shared-suffix products once, runs `block` over the rows `R` at a
/// time and `one` over the rest, and writes each accumulator back
/// through [`finish_tile_row`]. `block` and `one` are one tier's
/// instantiations of [`rows_body`]; row blocking only interleaves
/// independent rows, so it never changes bits. Inlined into each
/// tier's entry point, so the writeback compiles for that tier too.
#[inline(always)]
fn packed_tiles<const R: usize>(
    job: &Job<'_>,
    out: &mut [f32],
    block: impl Fn([&[f32]; R], &[[f32; TILE]], &[[f32; TILE]]) -> [[f32; TILE]; R],
    one: impl Fn([&[f32]; 1], &[[f32; TILE]], &[[f32; TILE]]) -> [[f32; TILE]; 1],
) {
    let Job {
        a,
        suffix,
        rhs,
        bias,
        relu,
    } = *job;
    let (m, k, d) = (a.rows, a.cols, rhs.cols);
    let row = |r: usize| &a.data[r * k..][..k];
    let mut sprod: Vec<[f32; TILE]> = Vec::with_capacity(suffix.len());
    for tile in 0..d.div_ceil(TILE) {
        let (panel, shared) = rhs.data[tile * rhs.rows..][..rhs.rows].split_at(k);
        // The suffix products are the same for every row, so they are
        // formed once per tile; zero entries are skipped as in
        // `matmul_into`.
        sprod.clear();
        sprod.extend(
            suffix
                .iter()
                .zip(shared)
                .filter(|&(&s, _)| s != 0.0)
                .map(|(&s, w)| w.map(|w| s * w)),
        );
        let lo = tile * TILE;
        let w = (d - lo).min(TILE);
        let mut btile = [0.0f32; TILE];
        if let Some(b) = bias {
            btile[..w].copy_from_slice(&b[lo..lo + w]);
        }
        let mut finish = |r: usize, acc: &mut [f32; TILE]| {
            finish_tile_row(
                acc,
                &btile,
                bias.is_some(),
                relu,
                &mut out[r * d + lo..][..w],
            );
        };
        let mut r = 0;
        while r + R <= m {
            let acc = block(std::array::from_fn(|i| row(r + i)), panel, &sprod);
            for (i, mut acc) in acc.into_iter().enumerate() {
                finish(r + i, &mut acc);
            }
            r += R;
        }
        for r in r..m {
            let [mut acc] = one([row(r)], panel, &sprod);
            finish(r, &mut acc);
        }
    }
}

/// The one row kernel: accumulates `R` rows of `A` against a panel in
/// ascending `k`, one plain multiply and add per lane, then adds the
/// shared-suffix products in order. With `SKIP`, zero entries of `A`
/// are skipped with a branch (for weights that are not all finite; see
/// [`PackedB`]).
///
/// Each tier compiles this body in an out-of-line wrapper. Inlined
/// into the tile loop, LLVM stops unrolling the row loop and leaves the
/// accumulators in memory; out of line, they stay in vector registers.
#[inline(always)]
fn rows_body<const R: usize, const SKIP: bool>(
    rows: [&[f32]; R],
    panel: &[[f32; TILE]],
    sprod: &[[f32; TILE]],
) -> [[f32; TILE]; R] {
    // Rows as long as the panel: one bounds check per step covers all.
    let rows = rows.map(|row| &row[..panel.len()]);
    let mut acc = [[0.0f32; TILE]; R];
    for (kk, w) in panel.iter().enumerate() {
        for (acc, row) in acc.iter_mut().zip(rows) {
            let a = row[kk];
            if SKIP && a == 0.0 {
                continue;
            }
            for (x, &w) in acc.iter_mut().zip(w) {
                *x += a * w;
            }
        }
    }
    // Accumulator by accumulator: with the loops the other way round,
    // LLVM vectorizes across rows, and the AVX-512F build gathers and
    // scatters the accumulators through memory.
    for acc in &mut acc {
        for p in sprod {
            for (x, &p) in acc.iter_mut().zip(p) {
                *x += p;
            }
        }
    }
    acc
}

/// [`rows_body`] for the build's baseline target.
#[inline(never)]
fn rows_portable<const R: usize, const SKIP: bool>(
    rows: [&[f32]; R],
    panel: &[[f32; TILE]],
    sprod: &[[f32; TILE]],
) -> [[f32; TILE]; R] {
    rows_body::<R, SKIP>(rows, panel, sprod)
}

/// [`rows_body`] for AVX2: a tile row spans two 8-lane registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn rows_avx2<const R: usize, const SKIP: bool>(
    rows: [&[f32]; R],
    panel: &[[f32; TILE]],
    sprod: &[[f32; TILE]],
) -> [[f32; TILE]; R] {
    rows_body::<R, SKIP>(rows, panel, sprod)
}

/// [`rows_body`] for AVX-512F: a tile row fits one 16-lane register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline(never)]
fn rows_avx512f<const R: usize, const SKIP: bool>(
    rows: [&[f32]; R],
    panel: &[[f32; TILE]],
    sprod: &[[f32; TILE]],
) -> [[f32; TILE]; R] {
    rows_body::<R, SKIP>(rows, panel, sprod)
}

/// The portable tier: four-row blocks.
fn tiles_portable<const SKIP: bool>(job: &Job<'_>, out: &mut [f32]) {
    packed_tiles(job, out, rows_portable::<4, SKIP>, rows_portable::<1, SKIP>);
}

/// The AVX2 tier: four-row blocks keep eight accumulators in registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tiles_avx2<const SKIP: bool>(job: &Job<'_>, out: &mut [f32]) {
    packed_tiles(
        job,
        out,
        |r, p, s| rows_avx2::<4, SKIP>(r, p, s),
        |r, p, s| rows_avx2::<1, SKIP>(r, p, s),
    );
}

/// The AVX-512F tier: eight-row blocks, one register per accumulator.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tiles_avx512f<const SKIP: bool>(job: &Job<'_>, out: &mut [f32]) {
    packed_tiles(
        job,
        out,
        |r, p, s| rows_avx512f::<8, SKIP>(r, p, s),
        |r, p, s| rows_avx512f::<1, SKIP>(r, p, s),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1., 2.], &[3., 4.]]);
        let b = Matrix::from_rows(&[&[5., 6.], &[7., 8.]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1., 2., 3.], &[4., 5., 6.]]);
        let id = Matrix::from_rows(&[&[1., 0., 0.], &[0., 1., 0.], &[0., 0., 1.]]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::randn(4, 7, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn randn_mean_and_std() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::randn(100, 100, 2.0, &mut rng);
        let mean = a.sum() / 10_000.0;
        let var = a.data().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn map_zip_sum() {
        let a = Matrix::from_rows(&[&[1., -2.], &[3., -4.]]);
        let b = a.map(f32::abs);
        assert_eq!(b.sum(), 10.0);
        let c = a.zip(&b, |x, y| x + y);
        assert_eq!(c.data(), &[2., 0., 6., 0.]);
    }

    #[test]
    fn serde_roundtrip() {
        let a = Matrix::from_rows(&[&[1.5, 2.5]]);
        let s = serde_json::to_string(&a).unwrap();
        let b: Matrix = serde_json::from_str(&s).unwrap();
        assert_eq!(a, b);
        // A data length other than rows × cols (or an overflowing
        // product) is rejected.
        for bad in [
            r#"{"rows":1,"cols":2,"data":[1.5]}"#,
            r#"{"rows":1,"cols":2,"data":[1.5,2.5,3.5]}"#,
            r#"{"rows":18446744073709551615,"cols":2,"data":[]}"#,
        ] {
            assert!(serde_json::from_str::<Matrix>(bad).is_err(), "{bad}");
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Sprinkles exact zeros into a random matrix so the zero-skip path
    /// is exercised (post-ReLU serving activations look like this).
    fn sparse_randn(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let mut m = Matrix::randn(rows, cols, 1.0, rng);
        for x in m.data_mut() {
            if rng.gen_range(0.0..1.0f32) < 0.4 {
                *x = 0.0;
            }
        }
        m
    }

    /// One tier's whole packed product.
    type Tiles = unsafe fn(&Job<'_>, &mut [f32]);

    /// Every packed-product instantiation this host can run, by name:
    /// each SIMD tier the CPU supports, with the zero-skipping kernel
    /// (`skip` true, valid for any weights) and the plain one (finite
    /// weights only).
    fn instantiations() -> Vec<(&'static str, bool, Tiles)> {
        let mut all: Vec<(&'static str, bool, Tiles)> = vec![
            ("portable/skip", true, tiles_portable::<true>),
            ("portable", false, tiles_portable::<false>),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") {
                all.push(("avx2/skip", true, tiles_avx2::<true>));
                all.push(("avx2", false, tiles_avx2::<false>));
            }
            if std::is_x86_feature_detected!("avx512f") {
                all.push(("avx512f/skip", true, tiles_avx512f::<true>));
                all.push(("avx512f", false, tiles_avx512f::<false>));
            }
        }
        all
    }

    /// Asserts that every instantiation valid for `rhs` computes `want`
    /// bit for bit: the battery behind the packed tests, so each tier
    /// the host supports is proven, not only the one dispatch picks.
    fn assert_every_tier(want: &Matrix, job: Job<'_>, context: &str) {
        for (name, skip, tiles) in instantiations() {
            if !skip && !job.rhs.finite {
                continue;
            }
            let mut out = vec![f32::NAN; job.a.rows * job.rhs.cols];
            // SAFETY: `instantiations` lists a tier only when the CPU
            // supports it.
            unsafe { tiles(&job, &mut out) };
            let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits(want), got, "{name}: {context}");
        }
    }

    /// Without the plain kernel on finite weights and every detected
    /// tier, the battery would prove less than it claims.
    #[test]
    fn battery_runs_every_detected_tier() {
        let names: Vec<&str> = instantiations().iter().map(|t| t.0).collect();
        eprintln!("packed kernels under test: {names:?}");
        assert!(names.contains(&"portable") && names.contains(&"portable/skip"));
        #[cfg(target_arch = "x86_64")]
        for (feature, detected) in [
            ("avx2", std::is_x86_feature_detected!("avx2")),
            ("avx512f", std::is_x86_feature_detected!("avx512f")),
        ] {
            assert_eq!(names.contains(&feature), detected, "{feature}");
        }
        assert!(Matrix::zeros(2, 2).pack_b().finite);
        assert!(!Matrix::full(2, 2, f32::INFINITY).pack_b().finite);
    }

    /// Locks the deliberate IEEE divergence documented on
    /// [`Matrix::matmul_into`]: a zero `a` entry contributes nothing
    /// even against NaN/∞ in `rhs`, a non-zero `a` propagates them, and
    /// a NaN `a` is never skipped. Both the naive and packed kernels
    /// must agree bit-for-bit.
    #[test]
    fn zero_skip_masks_nonfinite_rhs() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 0.0], &[f32::NAN, 1.0], &[-0.0, 3.0]]);
        let b = Matrix::from_rows(&[
            &[f32::NAN, f32::INFINITY, 1.0],
            &[5.0, f32::NEG_INFINITY, 2.0],
        ]);
        let naive = a.matmul(&b);
        // Row 0: a = 0 skips the NaN/∞ row entirely.
        assert_eq!(naive.row(0)[0], 10.0);
        assert_eq!(naive.row(0)[1], f32::NEG_INFINITY);
        // Row 1: all-zero a gives exact +0.0, not NaN.
        assert!(naive.row(1).iter().all(|&x| x.to_bits() == 0));
        // Row 2: NaN a is NOT skipped and poisons its products.
        assert!(naive.row(2).iter().all(|x| x.is_nan()));
        // Row 3: -0.0 skips like +0.0.
        assert_eq!(naive.row(3)[0], 15.0);
        let packed = b.pack_b();
        let mut packed_out = Matrix::zeros(0, 0);
        a.matmul_packed_into(&packed, &mut packed_out);
        assert_eq!(bits(&naive), bits(&packed_out));
        let job = Job {
            a: &a,
            suffix: &[],
            rhs: &packed,
            bias: None,
            relu: false,
        };
        assert_every_tier(&naive, job, "non-finite weights");
    }

    /// Packed-B ≡ naive, bit-for-bit, across ragged shapes including
    /// the degenerate 0-row/0-col edges and widths straddling tile
    /// boundaries, with both a cold and a reused output buffer.
    #[test]
    fn packed_matches_naive_across_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        let shapes = [
            (0usize, 0usize, 0usize),
            (0, 3, 5),
            (3, 0, 5),
            (3, 5, 0),
            (1, 1, 1),
            (2, 3, 1),
            (7, 9, 15),
            (5, 4, 16),
            (4, 33, 17),
            (9, 16, 31),
            (3, 2, 48),
            (17, 40, 20),
        ];
        let mut packed = PackedB::default();
        let mut warm = Matrix::zeros(0, 0);
        for (m, k, n) in shapes {
            let a = sparse_randn(m, k, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            b.pack_b_into(&mut packed);
            assert_eq!((packed.rows(), packed.cols()), (k, n));
            let naive = a.matmul(&b);
            let mut cold = Matrix::zeros(0, 0);
            a.matmul_packed_into(&packed, &mut cold);
            a.matmul_packed_into(&packed, &mut warm);
            assert_eq!(bits(&naive), bits(&cold), "cold {m}x{k}x{n}");
            assert_eq!(bits(&naive), bits(&warm), "warm {m}x{k}x{n}");
            let job = Job {
                a: &a,
                suffix: &[],
                rhs: &packed,
                bias: None,
                relu: false,
            };
            assert_every_tier(&naive, job, &format!("{m}x{k}x{n}"));
        }
    }

    /// Checks the shared-suffix fused op against the materialized
    /// pipeline it replaces: concatenate the suffix row onto every `A`
    /// row, naive matmul, broadcast bias add, optional ReLU. Every third
    /// suffix entry is zero, and the first faces a NaN weight that the
    /// zero-skip must mask out exactly like the branchy skip.
    fn assert_cat_matches_materialized(m: usize, kp: usize, s: usize, d: usize, rng: &mut StdRng) {
        let a = sparse_randn(m, kp, rng);
        let mut sfx = Matrix::randn(1, s, 1.0, rng);
        for (j, x) in sfx.data_mut().iter_mut().enumerate() {
            if j % 3 == 0 {
                *x = 0.0;
            }
        }
        let mut b = Matrix::randn(kp + s, d, 1.0, rng);
        if s > 0 && d > 0 {
            b.data_mut()[kp * d] = f32::NAN;
        }
        let bias = Matrix::randn(1, d, 1.0, rng);
        let mut cat = Matrix::zeros(m, kp + s);
        for r in 0..m {
            let dst = &mut cat.data_mut()[r * (kp + s)..(r + 1) * (kp + s)];
            dst[..kp].copy_from_slice(a.row(r));
            dst[kp..].copy_from_slice(sfx.data());
        }
        let packed = b.pack_b();
        for relu in [false, true] {
            let mut want = cat.matmul(&b);
            for row in 0..m {
                for (x, &bv) in want.data_mut()[row * d..(row + 1) * d]
                    .iter_mut()
                    .zip(bias.data())
                {
                    *x += bv;
                    if relu {
                        *x = x.max(0.0);
                    }
                }
            }
            let mut got = Matrix::zeros(0, 0);
            a.matmul_packed_cat_bias_into(sfx.data(), &packed, &bias, relu, &mut got);
            let context = format!("{m}x{kp}+{s}x{d} relu={relu}");
            assert_eq!(bits(&want), bits(&got), "{context}");
            let job = Job {
                a: &a,
                suffix: sfx.data(),
                rhs: &packed,
                bias: Some(bias.data()),
                relu,
            };
            assert_every_tier(&want, job, &context);
        }
    }

    /// The shared-suffix fused op reproduces the materialized pipeline
    /// bit for bit across ragged shapes, empty prefixes/suffixes and
    /// `d == 1` column outputs, on every tier.
    #[test]
    fn packed_cat_suffix_matches_materialized() {
        let mut rng = StdRng::seed_from_u64(17);
        let shapes = [
            (7usize, 5usize, 3usize, 9usize),
            (8, 16, 16, 16),
            (5, 0, 4, 3),
            (4, 6, 0, 17),
            (9, 3, 2, 1),
            (13, 16, 16, 1),
            (0, 4, 4, 4),
            (3, 0, 0, 2),
            (21, 7, 32, 20),
        ];
        for (m, kp, s, d) in shapes {
            assert_cat_matches_materialized(m, kp, s, d, &mut rng);
        }
    }

    /// The suffix is the denoiser's hidden width, so every width a
    /// config can ask for must work — `standard()` (48) and `paper()`
    /// (256) included — for one-column and wider outputs, with enough
    /// rows to reach the 8-, 4- and 1-row kernels.
    #[test]
    fn packed_cat_suffix_any_width_matches_materialized() {
        let mut rng = StdRng::seed_from_u64(19);
        for s in [0usize, 1, 16, 31, 32, 33, 48, 256] {
            for d in [1usize, 3, 20] {
                assert_cat_matches_materialized(13, s, s, d, &mut rng);
            }
        }
    }

    /// Repacking a different matrix into the same `PackedB` leaves no
    /// stale state (padding is re-zeroed).
    #[test]
    fn repack_clears_stale_padding() {
        let mut rng = StdRng::seed_from_u64(13);
        let big = Matrix::randn(8, 30, 1.0, &mut rng);
        let small = Matrix::randn(4, 3, 1.0, &mut rng);
        let mut packed = PackedB::default();
        big.pack_b_into(&mut packed);
        small.pack_b_into(&mut packed);
        let a = sparse_randn(6, 4, &mut rng);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_packed_into(&packed, &mut out);
        let want = a.matmul(&small);
        assert_eq!(bits(&want), bits(&out));
        let job = Job {
            a: &a,
            suffix: &[],
            rhs: &packed,
            bias: None,
            relu: false,
        };
        assert_every_tier(&want, job, "repacked");
    }
}
