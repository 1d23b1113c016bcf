//! The Regev encryption scheme with preprocessing (paper Appendix A.1).
//!
//! Algorithms, with `A` the seed-expanded public matrix, `s` a ternary
//! secret, `e` Gaussian noise, and `Δ = ⌊q/p⌋`:
//!
//! ```text
//! Enc(s, v)        c  = A·s + e + Δ·v           ∈ Z_q^m
//! Preproc(M)       H  = M·A                      ∈ Z_q^{ℓ×n}
//! Apply(M, c)      c' = M·c                      ∈ Z_q^ℓ
//! Dec(s, H, c')    v' = round_p(c' - H·s) mod p  ∈ Z_p^ℓ
//! ```
//!
//! Correctness: `c' - H·s = M·e + Δ·(M·v)`, and the rounding removes
//! `M·e` as long as it stays below `Δ/2` (enforced by the parameter
//! selection in [`crate::params`]).

use rand::Rng;
use tiptoe_math::matrix::{matvec_batch, matvec_wide, DbView, Mat};
use tiptoe_math::sample::{gaussian_i64, ternary_vec};
use tiptoe_math::wire::{WireError, WireReader, WireWriter};
use tiptoe_math::zq::Word;

use crate::matrix_a::{MatrixA, MatrixARange};
use crate::params::LweParams;

/// Opens a tracing span at kernel granularity (one span per `Apply`
/// or `Preproc` call, never per row) carrying the database shape.
/// Worker threads inside `par_spans_mut` open no spans of their own,
/// so the span tree is identical at any thread count.
fn kernel_span(name: &'static str, rows: usize, cols: usize) -> tiptoe_obs::Span {
    let mut s = tiptoe_obs::span(name);
    s.attr_u64("rows", rows as u64);
    s.attr_u64("cols", cols as u64);
    // Which SIMD tier served this kernel (0 = scalar, 1 = avx2,
    // 2 = avx512); constant per process but recorded per span so
    // traces from mixed fleets stay attributable.
    s.attr_u64("simd_tier", tiptoe_math::simd::tier().code());
    s
}

/// A ternary LWE secret key embedded into `Z_q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweSecretKey<W: Word> {
    s: Vec<W>,
}

impl<W: Word> LweSecretKey<W> {
    /// Samples a fresh ternary secret of dimension `params.n`.
    pub fn generate<R: Rng + ?Sized>(params: &LweParams, rng: &mut R) -> Self {
        let s = ternary_vec(rng, params.n).into_iter().map(W::from_i64).collect();
        Self { s }
    }

    /// Builds a key from explicit ternary entries (used by the outer
    /// scheme, which must encrypt this same vector).
    ///
    /// # Panics
    ///
    /// Panics if any entry is outside `{-1, 0, 1}` or the length
    /// differs from `params.n`.
    pub fn from_ternary(params: &LweParams, entries: &[i64]) -> Self {
        assert_eq!(entries.len(), params.n, "secret dimension mismatch");
        assert!(
            entries.iter().all(|&x| (-1..=1).contains(&x)),
            "secret entries must be ternary"
        );
        Self { s: entries.iter().map(|&x| W::from_i64(x)).collect() }
    }

    /// The secret as `Z_q` words.
    pub fn words(&self) -> &[W] {
        &self.s
    }

    /// The secret as ternary signed values.
    pub fn ternary(&self) -> Vec<i64> {
        self.s.iter().map(|w| w.to_signed()).collect()
    }

    /// Secret dimension `n`.
    pub fn dim(&self) -> usize {
        self.s.len()
    }
}

/// A fresh (pre-`Apply`) LWE ciphertext: `m` words of `Z_q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweCiphertext<W: Word> {
    /// The ciphertext vector `c = A·s + e + Δ·v`.
    pub c: Vec<W>,
}

impl<W: Word> AsRef<[W]> for LweCiphertext<W> {
    fn as_ref(&self) -> &[W] {
        &self.c
    }
}

impl<W: Word> LweCiphertext<W> {
    /// Wire size in bytes (1-byte width tag, 4-byte count, words).
    pub fn byte_len(&self) -> u64 {
        5 + (self.c.len() * (W::BITS as usize / 8)) as u64
    }

    /// Serializes to the wire format (`encode().len() == byte_len()`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.byte_len() as usize);
        w.put_u8((W::BITS / 8) as u8);
        w.put_u32(self.c.len() as u32);
        for &x in &self.c {
            x.put_wire(&mut w);
        }
        w.finish()
    }

    /// Parses from the wire format.
    ///
    /// # Errors
    ///
    /// Fails on truncation, a width mismatch, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let width = r.get_u8()?;
        if width as u32 != W::BITS / 8 {
            return Err(WireError::Invalid("ciphertext word width"));
        }
        let n = r.get_u32()? as usize;
        if n > (1 << 27) {
            return Err(WireError::Invalid("ciphertext too long"));
        }
        let c = (0..n).map(|_| W::get_wire(&mut r)).collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        Ok(Self { c })
    }
}

/// Encrypts a plaintext vector `v ∈ Z_p^m` under secret `sk`.
///
/// # Panics
///
/// Panics if `v.len() != a.rows()`, `sk.dim() != a.cols()`, or any
/// plaintext entry is not reduced modulo `p`.
pub fn encrypt<W: Word, R: Rng + ?Sized>(
    params: &LweParams,
    sk: &LweSecretKey<W>,
    a: &MatrixA,
    v: &[u64],
    rng: &mut R,
) -> LweCiphertext<W> {
    assert_eq!(v.len(), a.rows(), "plaintext length must equal upload dimension");
    assert_eq!(sk.dim(), a.cols(), "secret dimension mismatch");
    assert!(v.iter().all(|&x| x < params.p), "plaintext entries must be reduced mod p");
    let delta = W::from_u64(params.delta());
    let mut row = vec![W::ZERO; a.cols()];
    let mut c = Vec::with_capacity(v.len());
    for (k, &vk) in v.iter().enumerate() {
        a.expand_row(k, &mut row);
        let mut acc = W::ZERO;
        for (&a_kj, &s_j) in row.iter().zip(sk.words().iter()) {
            acc = acc.wadd(a_kj.wmul(s_j));
        }
        let e = W::from_i64(gaussian_i64(rng, params.sigma));
        c.push(acc.wadd(e).wadd(delta.wmul(W::from_u64(vk))));
    }
    LweCiphertext { c }
}

/// Preprocesses the linear function `M` into the hint `H = M·A`
/// (paper: "the server executes λ·√N 64-bit operations for the
/// one-time preprocessing of the matrix M").
///
/// Splits the hint's ℓ rows into one contiguous block per thread
/// (`num_threads == 0` = one per core). Each thread streams the rows
/// of `A` once (k-outer loop), **re-expanding the seeded rows
/// independently**, so threads never share state and `A` never
/// materializes; the extra work is one `A`-expansion per thread
/// (`T·m·n` PRG words against `ℓ·m·n` MACs), negligible for `ℓ ≫ T`.
/// Each hint row accumulates over `k` in the same order at any thread
/// count, so the result is bit-identical to [`preproc_scalar`].
///
/// Packed entries ([`DbView::Nibble`]) are sign-extended into `Z_q`;
/// that embedding is congruent mod `p` to the residue one only for a
/// power-of-two plaintext modulus.
///
/// # Panics
///
/// Panics if `db.cols() != a.rows()`.
pub fn preproc<'a, W: Word>(
    db: impl Into<DbView<'a>>,
    a: &MatrixARange,
    num_threads: usize,
) -> Mat<W> {
    let db = db.into();
    assert_eq!(db.cols(), a.rows(), "matrix shapes incompatible");
    let _span = kernel_span("lwe.preproc", db.rows(), db.cols());
    match db {
        DbView::U32(m) => {
            preproc_rows(m.rows(), a, num_threads, |i, k| W::from_u64(m.get(i, k) as u64))
        }
        // Sign-extended full-width multiplier: the axpy kernels handle
        // arbitrary 64-bit `w` (3-multiply decomposition on AVX2,
        // native mullo on AVX-512DQ).
        DbView::Nibble(m) => {
            preproc_rows(m.rows(), a, num_threads, |i, k| W::from_i64(m.get(i, k) as i64))
        }
    }
}

/// The row-parallel `H = M·A` loop behind [`preproc`], over the
/// entries `entry(i, k)` of an `ell × a.rows()` matrix.
fn preproc_rows<W: Word>(
    ell: usize,
    a: &MatrixARange,
    num_threads: usize,
    entry: impl Fn(usize, usize) -> W + Sync,
) -> Mat<W> {
    let n = a.cols();
    let mut hint: Mat<W> = Mat::zeros(ell, n);
    if n == 0 {
        return hint;
    }
    tiptoe_math::par::par_spans_mut(hint.data_mut(), n, num_threads, |start, span| {
        let row0 = start / n;
        let rows = span.len() / n;
        let mut a_row = vec![W::ZERO; n];
        for k in 0..a.rows() {
            a.expand_row(k, &mut a_row);
            for local in 0..rows {
                let m_ik = entry(row0 + local, k);
                if m_ik == W::ZERO {
                    continue;
                }
                let h_row = &mut span[local * n..(local + 1) * n];
                W::axpy(h_row, m_ik, &a_row);
            }
        }
    });
    hint
}

/// Pinned-scalar hint preprocessing: the same `H = M·A` as
/// [`preproc`] but single-threaded and always on the portable kernel,
/// never the SIMD tiers. This is the benchmark baseline and the oracle
/// the engine's property tests compare against.
///
/// # Panics
///
/// Panics if `db.cols() != a.rows()`.
pub fn preproc_scalar<W: Word>(db: &Mat<u32>, a: &MatrixARange) -> Mat<W> {
    assert_eq!(db.cols(), a.rows(), "matrix shapes incompatible");
    let ell = db.rows();
    let n = a.cols();
    let mut hint: Mat<W> = Mat::zeros(ell, n);
    let mut a_row = vec![W::ZERO; n];
    for k in 0..db.cols() {
        a.expand_row(k, &mut a_row);
        for i in 0..ell {
            let m_ik = db.get(i, k);
            if m_ik == 0 {
                continue;
            }
            tiptoe_math::simd::axpy_scalar(hint.row_mut(i), W::from_u64(m_ik as u64), &a_row);
        }
    }
    hint
}

/// The homomorphic matrix-vector product `c' = M·c`
/// ("2·N 64-bit additions and multiplications") for one ciphertext,
/// on one thread: [`apply_many`] at batch 1.
///
/// # Panics
///
/// Panics if `ct.c.len() != db.cols()`.
pub fn apply<'a, W: Word>(db: impl Into<DbView<'a>>, ct: &LweCiphertext<W>) -> Vec<W> {
    apply_many(db, std::slice::from_ref(ct), 1).swap_remove(0)
}

/// Batched `Apply`: answers `B` ciphertexts in one pass over the
/// database on the scan engine ([`tiptoe_math::matrix::matvec_batch`];
/// the matrix-matrix amortization — `M` is read from DRAM once instead
/// of `B` times), with the output rows split over `num_threads`
/// threads (`0` = one per core). Each answer is bit-identical at any
/// batch size and thread count.
///
/// # Panics
///
/// Panics if any ciphertext's dimension differs from `db.cols()`.
pub fn apply_many<'a, W: Word>(
    db: impl Into<DbView<'a>>,
    cts: &[LweCiphertext<W>],
    num_threads: usize,
) -> Vec<Vec<W>> {
    let db = db.into();
    let mut span = kernel_span("lwe.matvec", db.rows(), db.cols());
    span.attr_u64("batch", cts.len() as u64);
    matvec_batch(db, cts, num_threads)
}

/// Computes `H·s`, the linear part of decryption. This is exactly the
/// computation the underhood layer outsources to the server under a
/// second encryption scheme (paper §6.2).
///
/// # Panics
///
/// Panics if `sk.dim() != hint.cols()`.
pub fn hint_times_secret<W: Word>(hint: &Mat<W>, sk: &LweSecretKey<W>) -> Vec<W> {
    matvec_wide(hint, sk.words())
}

/// Final (non-linear) decryption step: rounds `c' - H·s` to recover
/// `M·v mod p`.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn decrypt_from_parts<W: Word>(params: &LweParams, hs: &[W], applied: &[W]) -> Vec<u64> {
    assert_eq!(hs.len(), applied.len(), "length mismatch");
    let q = params.q_u128();
    let p = params.p as u128;
    applied
        .iter()
        .zip(hs.iter())
        .map(|(&cp, &h)| {
            let y = cp.wsub(h).to_u64() as u128;
            // v = round(y * p / q) mod p.
            (((y * p + q / 2) >> params.log_q) % p) as u64
        })
        .collect()
}

/// Full decryption `Dec(s, H, c') = round_p(c' - H·s) mod p`.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn decrypt<W: Word>(
    params: &LweParams,
    sk: &LweSecretKey<W>,
    hint: &Mat<W>,
    applied: &[W],
) -> Vec<u64> {
    let hs = hint_times_secret(hint, sk);
    decrypt_from_parts(params, &hs, applied)
}

/// Measured decryption noise `|c' - H·s - Δ·(M·v)|` given the true
/// plaintext result; used by tests and the noise-budget analysis.
///
/// # Panics
///
/// Panics on dimension mismatches.
pub fn decryption_noise<W: Word>(
    params: &LweParams,
    sk: &LweSecretKey<W>,
    hint: &Mat<W>,
    applied: &[W],
    truth_mod_p: &[u64],
) -> Vec<i64> {
    assert_eq!(applied.len(), truth_mod_p.len(), "length mismatch");
    let hs = hint_times_secret(hint, sk);
    let delta = W::from_u64(params.delta());
    applied
        .iter()
        .zip(hs.iter())
        .zip(truth_mod_p.iter())
        .map(|((&cp, &h), &t)| {
            let y = cp.wsub(h);
            let noise = y.wsub(delta.wmul(W::from_u64(t % params.p)));
            noise.to_signed()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptoe_math::nibble::NibbleMat;
    use tiptoe_math::rng::seeded_rng;

    fn random_db(rng: &mut impl Rng, rows: usize, cols: usize, p: u64) -> Mat<u32> {
        Mat::from_fn(rows, cols, |_, _| rng.gen_range(0..p) as u32)
    }

    /// Reference plaintext computation `M·v mod p`.
    fn matvec_mod_p(db: &Mat<u32>, v: &[u64], p: u64) -> Vec<u64> {
        (0..db.rows())
            .map(|i| {
                let mut acc: u128 = 0;
                for (j, &m) in db.row(i).iter().enumerate() {
                    acc = (acc + m as u128 * v[j] as u128) % p as u128;
                }
                acc as u64
            })
            .collect()
    }

    fn roundtrip<W: Word>(params: &LweParams, rows: usize, cols: usize, seed: u64) {
        let mut rng = seeded_rng(seed);
        let db = random_db(&mut rng, rows, cols, params.p.min(16));
        let a = MatrixA::new(99, cols, params.n);
        let sk = LweSecretKey::<W>::generate(params, &mut rng);
        // A PIR-style selection vector: avoids mod-p wraparound so the
        // test is exact for non-power-of-two p too.
        let mut v = vec![0u64; cols];
        v[cols / 2] = 1;
        let ct = encrypt(params, &sk, &a, &v, &mut rng);
        let hint = preproc::<W>(&db, &a.row_range(0, cols), 1);
        let applied = apply(&db, &ct);
        let got = decrypt(params, &sk, &hint, &applied);
        let want = matvec_mod_p(&db, &v, params.p);
        assert_eq!(got, want);
    }

    #[test]
    fn roundtrip_q32() {
        let params = LweParams::insecure_test(32, 991, 6.4);
        roundtrip::<u32>(&params, 8, 32, 1);
    }

    #[test]
    fn roundtrip_q64() {
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        roundtrip::<u64>(&params, 8, 32, 2);
    }

    #[test]
    fn roundtrip_power_of_two_p_with_wraparound() {
        // With p | q, results that wrap mod p are still decrypted
        // exactly (this is what the ranking step relies on).
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let mut rng = seeded_rng(3);
        let cols = 64;
        let db = random_db(&mut rng, 4, cols, params.p);
        let a = MatrixA::new(5, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..params.p)).collect();
        let ct = encrypt(&params, &sk, &a, &v, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let applied = apply(&db, &ct);
        let got = decrypt(&params, &sk, &hint, &applied);
        let want = matvec_mod_p(&db, &v, params.p);
        assert_eq!(got, want);
    }

    #[test]
    fn paper_parameters_roundtrip() {
        // Full-size secrets (n = 2048) on a small database.
        let params = LweParams::ranking_text();
        let mut rng = seeded_rng(4);
        let cols = 96;
        let db = random_db(&mut rng, 6, cols, params.p);
        let a = MatrixA::new(11, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..16)).collect();
        let ct = encrypt(&params, &sk, &a, &v, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let applied = apply(&db, &ct);
        let got = decrypt(&params, &sk, &hint, &applied);
        assert_eq!(got, matvec_mod_p(&db, &v, params.p));
    }

    #[test]
    fn wrong_key_garbles_decryption() {
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let mut rng = seeded_rng(5);
        let cols = 32;
        let db = random_db(&mut rng, 8, cols, 16);
        let a = MatrixA::new(17, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let other = LweSecretKey::<u64>::generate(&params, &mut rng);
        let mut v = vec![0u64; cols];
        v[3] = 1;
        let ct = encrypt(&params, &sk, &a, &v, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let applied = apply(&db, &ct);
        let right = decrypt(&params, &sk, &hint, &applied);
        let wrong = decrypt(&params, &other, &hint, &applied);
        assert_ne!(right, wrong);
    }

    #[test]
    fn measured_noise_is_within_parameter_bound() {
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let mut rng = seeded_rng(6);
        let cols = 256;
        let db = random_db(&mut rng, 8, cols, params.p);
        let a = MatrixA::new(23, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..params.p)).collect();
        let ct = encrypt(&params, &sk, &a, &v, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let applied = apply(&db, &ct);
        let truth = matvec_mod_p(&db, &v, params.p);
        let noise = decryption_noise(&params, &sk, &hint, &applied, &truth);
        let bound = params.noise_bound(cols);
        for e in noise {
            assert!((e.unsigned_abs() as f64) < bound, "noise {e} exceeds bound {bound}");
        }
    }

    #[test]
    fn ternary_key_roundtrips_through_words() {
        let params = LweParams::insecure_test(32, 64, 6.4);
        let mut rng = seeded_rng(7);
        let sk = LweSecretKey::<u32>::generate(&params, &mut rng);
        let t = sk.ternary();
        let rebuilt = LweSecretKey::<u32>::from_ternary(&params, &t);
        assert_eq!(sk, rebuilt);
    }

    #[test]
    fn sharded_preproc_sums_to_full_hint() {
        // Vertical sharding (paper §4.3): hint of the full matrix ==
        // sum of the shards' hints.
        let params = LweParams::insecure_test(64, 1 << 10, 10.0);
        let mut rng = seeded_rng(8);
        let cols = 40;
        let db = random_db(&mut rng, 6, cols, 16);
        let a = MatrixA::new(31, cols, params.n);
        let full = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let left = preproc::<u64>(&db.column_slice(0, 24), &a.row_range(0, 24), 1);
        let right = preproc::<u64>(&db.column_slice(24, cols), &a.row_range(24, 16), 1);
        for i in 0..6 {
            for j in 0..params.n {
                assert_eq!(full.get(i, j), left.get(i, j).wrapping_add(right.get(i, j)));
            }
        }
    }

    #[test]
    fn packed_database_decrypts_identically() {
        // Power-of-two p: signed-embedded packed entries and mod-p
        // residue entries give the same decrypted results.
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let mut rng = seeded_rng(31);
        let cols = 40;
        let signed: Vec<i8> = (0..8 * cols).map(|_| rng.gen_range(-8i8..=7)).collect();
        let packed = NibbleMat::from_signed(8, cols, &signed);
        let plain = Mat::from_fn(8, cols, |r, c| {
            tiptoe_math::zq::reduce_signed(signed[r * cols + c] as i64, params.p) as u32
        });
        let a = MatrixA::new(71, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..16)).collect();
        let ct = encrypt(&params, &sk, &a, &v, &mut rng);

        let plain_hint = preproc::<u64>(&plain, &a.row_range(0, cols), 1);
        let plain_out = decrypt(&params, &sk, &plain_hint, &apply(&plain, &ct));

        let packed_hint = preproc::<u64>(&packed, &a.row_range(0, cols), 1);
        let packed_out = decrypt(&params, &sk, &packed_hint, &apply(&packed, &ct));
        assert_eq!(plain_out, packed_out);
    }

    #[test]
    fn parallel_preproc_is_bit_identical() {
        let params = LweParams::insecure_test(64, 1 << 10, 10.0);
        let mut rng = seeded_rng(12);
        let cols = 50;
        let db = random_db(&mut rng, 23, cols, 16);
        let a = MatrixA::new(77, cols, params.n);
        let range = a.row_range(0, cols);
        let want = preproc::<u64>(&db, &range, 1);
        assert_eq!(preproc_scalar::<u64>(&db, &range), want, "dispatched == pinned scalar");
        for threads in [0usize, 1, 2, 3, 8] {
            assert_eq!(preproc::<u64>(&db, &range, threads), want, "threads={threads}");
        }
        // u32 width too.
        let want32 = preproc::<u32>(&db, &range, 1);
        assert_eq!(preproc_scalar::<u32>(&db, &range), want32);
        assert_eq!(preproc::<u32>(&db, &range, 3), want32);
    }

    #[test]
    fn parallel_packed_preproc_is_bit_identical() {
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let mut rng = seeded_rng(13);
        let cols = 41;
        let signed: Vec<i8> = (0..17 * cols).map(|_| rng.gen_range(-8i8..=7)).collect();
        let packed = NibbleMat::from_signed(17, cols, &signed);
        let a = MatrixA::new(78, cols, params.n);
        let range = a.row_range(0, cols);
        let want = preproc::<u64>(&packed, &range, 1);
        for threads in [0usize, 2, 5] {
            assert_eq!(preproc::<u64>(&packed, &range, threads), want, "threads={threads}");
        }
    }

    #[test]
    fn batched_apply_matches_per_ciphertext_apply() {
        let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let mut rng = seeded_rng(14);
        let cols = 48;
        let db = random_db(&mut rng, 9, cols, params.p);
        let a = MatrixA::new(79, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let cts: Vec<LweCiphertext<u64>> = (0..4)
            .map(|_| {
                let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..16)).collect();
                encrypt(&params, &sk, &a, &v, &mut rng)
            })
            .collect();
        let batched = apply_many(&db, &cts, 2);
        for (b, ct) in cts.iter().enumerate() {
            assert_eq!(batched[b], apply(&db, ct), "ciphertext {b}");
            assert_eq!(apply_many(&db, std::slice::from_ref(ct), 3)[0], apply(&db, ct));
        }
    }

    #[test]
    fn ciphertext_wire_roundtrip() {
        let params = LweParams::insecure_test(64, 16, 1.0);
        let mut rng = seeded_rng(11);
        let a = MatrixA::new(2, 8, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let ct = encrypt(&params, &sk, &a, &[1u64; 8], &mut rng);
        let bytes = ct.encode();
        assert_eq!(bytes.len() as u64, ct.byte_len());
        let back = LweCiphertext::<u64>::decode(&bytes).expect("decodes");
        assert_eq!(back, ct);
        // Width confusion is rejected.
        assert!(LweCiphertext::<u32>::decode(&bytes).is_err());
        // Truncation is rejected.
        assert!(LweCiphertext::<u64>::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    #[should_panic(expected = "reduced mod p")]
    fn unreduced_plaintext_rejected() {
        let params = LweParams::insecure_test(32, 16, 1.0);
        let mut rng = seeded_rng(9);
        let a = MatrixA::new(1, 4, params.n);
        let sk = LweSecretKey::<u32>::generate(&params, &mut rng);
        let _ = encrypt(&params, &sk, &a, &[99, 0, 0, 0], &mut rng);
    }
}
