//! Dense row-major matrices and the matrix-vector kernels that
//! dominate Tiptoe's server-side cost.
//!
//! The ranking service's per-query work is one product `M · ct` where
//! `M` holds small plaintext entries (quantized embeddings, at most
//! `log2 p ≤ 17` bits) and `ct` is a ciphertext vector of full machine
//! words (paper §4.2: "roughly 2·N·d 64-bit word operations"). The
//! scan engine below ([`matvec_batch`]) therefore takes a narrow matrix
//! — `u32` residues or packed nibbles, see [`DbView`] — and a batch of
//! wide ([`Word`]) vectors, with wrapping arithmetic providing the
//! mod-`2^k` reduction for free.

use crate::nibble::NibbleMat;
use crate::zq::Word;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mat<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Mat<T> {
    /// An all-default (`zero`) matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![T::default(); rows * cols] }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element count (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline(always)]
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline(always)]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// A view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[inline(always)]
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// A mutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[inline(always)]
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        assert!(row < self.rows, "row out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The backing row-major buffer.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the backing row-major buffer.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> Mat<T> {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// A copy of the column range `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > cols`.
    pub fn column_slice(&self, start: usize, end: usize) -> Mat<T> {
        assert!(start <= end && end <= self.cols, "column range out of bounds");
        let mut out = Mat::zeros(self.rows, end - start);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[start..end]);
        }
        out
    }
}

/// Pinned-scalar `out = M · v`: the same product as [`matvec_batch`]
/// but always on the portable four-way-unrolled kernel, never the SIMD
/// tiers, and never tiled or threaded. This is the benchmark baseline
/// and the oracle the engine's property tests compare against; serving
/// paths use [`matvec_batch`].
///
/// # Panics
///
/// Panics if `v.len() != db.cols()`.
pub fn matvec_scalar<W: Word>(db: &Mat<u32>, v: &[W]) -> Vec<W> {
    assert_eq!(v.len(), db.cols(), "dimension mismatch");
    let mut out = Vec::with_capacity(db.rows());
    for i in 0..db.rows() {
        out.push(dot_row(db.row(i), v));
    }
    out
}

/// Inner product of one narrow row with a wide vector on the portable
/// scalar kernel (four-way unrolled to keep the MAC pipeline busy).
///
/// This is the scalar *reference*: the runtime-dispatched
/// [`Word::dot_narrow`] is property-tested bit-identical to it at
/// every [`crate::simd::KernelTier`].
#[inline]
pub fn dot_row<W: Word>(row: &[u32], v: &[W]) -> W {
    crate::simd::dot_narrow_scalar(row, v)
}

/// Column-tile width (in elements) of the scan engine: 2048 `u64`
/// words = 16 KiB, so one tile of each query vector stays resident in
/// L1 while every row's matching segment streams past it. Even, so a
/// tile of a [`NibbleMat`] row always starts on a byte boundary.
pub const TILE_COLS: usize = 2048;

/// A read-only view of a database matrix in one of its two storage
/// formats: full `u32` residues, or packed signed 4-bit entries (8×
/// smaller; see [`crate::nibble`]). The scan engine ([`matvec_batch`])
/// matches the view once per call and runs a kernel monomorphized for
/// that storage — never a per-element branch.
#[derive(Debug, Clone, Copy)]
pub enum DbView<'a> {
    /// `u32` residues, one per entry.
    U32(&'a Mat<u32>),
    /// Signed nibbles, two per byte, embedded into `Z_{2^k}` by sign
    /// extension.
    Nibble(&'a NibbleMat),
}

impl DbView<'_> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            DbView::U32(m) => m.rows(),
            DbView::Nibble(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            DbView::U32(m) => m.cols(),
            DbView::Nibble(m) => m.cols(),
        }
    }

    /// Bytes of entry storage one full scan streams.
    pub fn storage_bytes(&self) -> usize {
        match self {
            DbView::U32(m) => m.len() * std::mem::size_of::<u32>(),
            DbView::Nibble(m) => m.storage_bytes(),
        }
    }
}

impl<'a> From<&'a Mat<u32>> for DbView<'a> {
    fn from(m: &'a Mat<u32>) -> Self {
        DbView::U32(m)
    }
}

impl<'a> From<&'a NibbleMat> for DbView<'a> {
    fn from(m: &'a NibbleMat) -> Self {
        DbView::Nibble(m)
    }
}

/// Row storage the scan engine walks: a column segment of one row,
/// and that segment's inner product with the matching slice of a wide
/// vector. One implementation per [`DbView`] variant.
pub(crate) trait ScanRows: Sync {
    /// One row's entries over a column range.
    type Seg<'s>: Copy
    where
        Self: 's;

    /// Row `row`'s entries over columns `[start, end)`; `start` is a
    /// multiple of [`TILE_COLS`].
    fn seg(&self, row: usize, start: usize, end: usize) -> Self::Seg<'_>;

    /// Wrapping inner product of a segment with `v` (`v.len()` equals
    /// the segment's width).
    fn dot<W: Word>(seg: Self::Seg<'_>, v: &[W]) -> W;
}

impl ScanRows for Mat<u32> {
    type Seg<'s> = &'s [u32];

    #[inline(always)]
    fn seg(&self, row: usize, start: usize, end: usize) -> &[u32] {
        &self.row(row)[start..end]
    }

    #[inline(always)]
    fn dot<W: Word>(seg: &[u32], v: &[W]) -> W {
        W::dot_narrow(seg, v)
    }
}

/// The scan engine: `out[b] = M · vs[b]` over `Z_{2^k}` for every
/// vector of the batch, in **one pass over the database**. This is
/// SimplePIR's `Apply` hot loop (paper §4) in its batched form: the
/// matrix is ℓ×m entries and each vector only m, so reading `M` once
/// for all `B` vectors amortizes the DRAM traffic that dominates.
///
/// The three inputs select every execution strategy: the batch size
/// is `vs.len()` (one vector is the single-query scan), `num_threads`
/// splits the output rows into one contiguous span per thread (`0` =
/// one per core, see [`crate::par`]), and `db` picks the storage
/// format. The loop walks column tiles of [`TILE_COLS`] outside, rows
/// in the middle and the batch innermost, so each row segment is hot
/// in cache for every vector and each vector tile stays in L1; the
/// `u32` segments run on the runtime-dispatched [`Word::dot_narrow`].
///
/// Entries are treated as elements of `Z_{2^k}` and the wrap-around of
/// [`Word`] arithmetic performs the modular reduction. Wrapping sums
/// are associative and commutative, so neither tiling, thread split,
/// batch size nor SIMD lane grouping can change any output word: each
/// output is bit-identical to [`matvec_scalar`] over the same entries.
///
/// # Panics
///
/// Panics if any vector's length differs from `db.cols()`.
pub fn matvec_batch<'a, W: Word, V: AsRef<[W]> + Sync>(
    db: impl Into<DbView<'a>>,
    vs: &[V],
    num_threads: usize,
) -> Vec<Vec<W>> {
    let db = db.into();
    let (rows, cols) = (db.rows(), db.cols());
    for v in vs {
        assert_eq!(v.as_ref().len(), cols, "dimension mismatch");
    }
    if vs.is_empty() {
        return Vec::new();
    }
    match db {
        DbView::U32(m) => scan(m, rows, cols, vs, num_threads),
        DbView::Nibble(m) => scan(m, rows, cols, vs, num_threads),
    }
}

/// [`matvec_batch`] over one storage format, for `rows × cols` entries
/// and a non-empty batch of checked vectors.
fn scan<W: Word, S: ScanRows, V: AsRef<[W]> + Sync>(
    db: &S,
    rows: usize,
    cols: usize,
    vs: &[V],
    num_threads: usize,
) -> Vec<Vec<W>> {
    let batch = vs.len();
    // Row-major (row, batch) accumulator so one row's products for all
    // vectors are computed while the row is hot in cache.
    let mut flat = vec![W::ZERO; rows * batch];
    crate::par::par_spans_mut(&mut flat, batch, num_threads, |start, span| {
        let row0 = start / batch;
        for tile_start in (0..cols).step_by(TILE_COLS) {
            let tile_end = (tile_start + TILE_COLS).min(cols);
            for (local, row_out) in span.chunks_exact_mut(batch).enumerate() {
                let seg = db.seg(row0 + local, tile_start, tile_end);
                for (o, v) in row_out.iter_mut().zip(vs.iter()) {
                    *o = o.wadd(S::dot(seg, &v.as_ref()[tile_start..tile_end]));
                }
            }
        }
    });
    if batch == 1 {
        return vec![flat];
    }
    // Transpose the flat accumulator into per-vector outputs.
    let mut outs = vec![Vec::with_capacity(rows); batch];
    for row_out in flat.chunks_exact(batch) {
        for (out, &x) in outs.iter_mut().zip(row_out.iter()) {
            out.push(x);
        }
    }
    outs
}

/// `out = H · s` over `Z_{2^k}` for a wide matrix and wide vector
/// (hint-times-secret during decryption).
///
/// # Panics
///
/// Panics if `s.len() != h.cols()`.
pub fn matvec_wide<W: Word>(h: &Mat<W>, s: &[W]) -> Vec<W> {
    assert_eq!(s.len(), h.cols(), "dimension mismatch");
    let mut out = Vec::with_capacity(h.rows());
    for i in 0..h.rows() {
        out.push(W::dot_wide(h.row(i), s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine at batch 1, one thread: the single-query scan.
    fn matvec<W: Word>(db: &Mat<u32>, v: &[W]) -> Vec<W> {
        matvec_batch(db, &[v], 1).swap_remove(0)
    }

    #[test]
    fn matvec_matches_naive_u64() {
        let db = Mat::from_fn(3, 5, |i, j| (i * 5 + j) as u32);
        let v: Vec<u64> = (0..5).map(|j| (j as u64 + 1) * 1_000_000_007).collect();
        let got = matvec(&db, &v);
        for (i, &g) in got.iter().enumerate() {
            let mut want = 0u64;
            for (j, &x) in v.iter().enumerate() {
                want = want.wrapping_add((db.get(i, j) as u64).wrapping_mul(x));
            }
            assert_eq!(g, want);
        }
    }

    #[test]
    fn matvec_matches_naive_u32() {
        let db = Mat::from_fn(4, 7, |i, j| (i * 31 + j * 17) as u32);
        let v: Vec<u32> = (0..7).map(|j| (j as u32 + 1).wrapping_mul(0x9e37_79b9)).collect();
        let got = matvec(&db, &v);
        for (i, &g) in got.iter().enumerate() {
            let mut want = 0u32;
            for (j, &x) in v.iter().enumerate() {
                want = want.wrapping_add(db.get(i, j).wrapping_mul(x));
            }
            assert_eq!(g, want);
        }
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(3, 5, |i, j| i * 10 + j);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn column_slice_extracts_block() {
        let m = Mat::from_fn(2, 6, |i, j| i * 6 + j);
        let s = m.column_slice(2, 5);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 3);
        assert_eq!(s.row(0), &[2, 3, 4]);
        assert_eq!(s.row(1), &[8, 9, 10]);
    }

    #[test]
    fn matvec_wide_matches_naive() {
        let h: Mat<u64> = Mat::from_fn(2, 3, |i, j| (i as u64) << 60 | (j as u64 + 1));
        let s = vec![u64::MAX, 3, 1 << 62];
        let got = matvec_wide(&h, &s);
        for (i, &g) in got.iter().enumerate() {
            let mut want = 0u64;
            for (j, &x) in s.iter().enumerate() {
                want = want.wrapping_add(h.get(i, j).wrapping_mul(x));
            }
            assert_eq!(g, want);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_rejects_bad_shape() {
        let db = Mat::from_fn(2, 3, |_, _| 1u32);
        let v = vec![1u64; 4];
        let _ = matvec(&db, &v);
    }

    /// A shape that exercises tile boundaries: more columns than one
    /// tile, a ragged (odd-width) final tile, and a row count that
    /// splits unevenly over threads.
    fn wide_case() -> (Mat<u32>, Vec<u64>) {
        let cols = TILE_COLS + 37;
        let db = Mat::from_fn(13, cols, |i, j| (i * 2654435761 + j * 40503) as u32);
        let v: Vec<u64> =
            (0..cols).map(|j| (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead).collect();
        (db, v)
    }

    #[test]
    fn blocked_matvec_is_bit_identical() {
        // The tiled scan over packed storage equals the untiled row
        // decode across a tile boundary and a ragged odd-width tail.
        let (db, v) = wide_case();
        let signed: Vec<i8> = db.data().iter().map(|&x| (x % 16) as i8 - 8).collect();
        let packed = NibbleMat::from_signed(db.rows(), db.cols(), &signed);
        let got = matvec_batch(&packed, &[&v], 1).swap_remove(0);
        for (r, &g) in got.iter().enumerate() {
            let want = (0..db.cols()).fold(0u64, |acc, c| {
                acc.wrapping_add((packed.get(r, c) as u64).wrapping_mul(v[c]))
            });
            assert_eq!(g, want, "row {r}");
        }
    }

    #[test]
    fn dispatched_matvec_matches_pinned_scalar() {
        let (db, v) = wide_case();
        assert_eq!(matvec(&db, &v), matvec_scalar(&db, &v));
        let v32: Vec<u32> = v.iter().map(|&x| x as u32).collect();
        assert_eq!(matvec(&db, &v32), matvec_scalar(&db, &v32));
    }

    #[test]
    fn parallel_matvec_is_bit_identical_for_any_thread_count() {
        let (db, v) = wide_case();
        let want = matvec_scalar(&db, &v);
        for threads in [0usize, 1, 2, 3, 5, 16] {
            assert_eq!(matvec_batch(&db, &[&v], threads)[0], want, "threads={threads}");
        }
    }

    #[test]
    fn batched_matvec_matches_per_vector_results() {
        let (db, v) = wide_case();
        let vs: Vec<Vec<u64>> = (0..5)
            .map(|b| v.iter().map(|&x| x.wrapping_mul(b as u64 + 1)).collect())
            .collect();
        let got = matvec_batch(&db, &vs, 2);
        assert_eq!(got.len(), vs.len());
        for (b, out) in got.iter().enumerate() {
            assert_eq!(out, &matvec(&db, &vs[b]), "batch element {b}");
        }
        assert!(matvec_batch::<u64, Vec<u64>>(&db, &[], 2).is_empty());
    }

    #[test]
    fn view_reports_shape_and_storage() {
        let db = Mat::from_fn(3, 5, |_, _| 1u32);
        let packed = NibbleMat::from_signed(3, 5, &[1; 15]);
        let (plain, nib) = (DbView::from(&db), DbView::from(&packed));
        assert_eq!((plain.rows(), plain.cols(), plain.storage_bytes()), (3, 5, 60));
        assert_eq!((nib.rows(), nib.cols(), nib.storage_bytes()), (3, 5, 9));
    }
}
