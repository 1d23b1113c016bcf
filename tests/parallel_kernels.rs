//! Property tests proving the server's scan engines are *bit-identical*
//! to the scalar oracles at every input that selects an execution
//! strategy: database view ({`U32`, `Nibble`}), word width (`q = 2^32`
//! and `q = 2^64`), thread count, and batch size.
//!
//! Wrapping mod-`2^k` addition is associative and commutative, so any
//! reordering of the accumulation (column tiles, row spans across
//! threads, shared database passes over a query batch) must reproduce
//! the scalar result exactly — not approximately. These properties are
//! what lets the deployment knobs (`Parallelism`, `TIPTOE_THREADS`, the
//! coalescer's batch) change wall-clock time without ever changing
//! results.
//!
//! Packed nibbles embed a negative entry `x` as `2^k + x`, while the
//! oracles see the `u32` residue `2^32 + x` of
//! [`NibbleMat::to_residues`]. Over `Z_{2^k}` the two embeddings differ
//! by exactly `2^32` on negative entries, so the packed oracle is
//! `oracle(residues) − 2^32 · oracle(negative-entry indicator)` — for
//! `k = 32` the correction vanishes.

use proptest::prelude::*;
use rand::Rng;
use tiptoe_lwe::{scheme, LweCiphertext, LweParams, MatrixA};
use tiptoe_math::matrix::{matvec_batch, matvec_scalar, matvec_wide, DbView, Mat, TILE_COLS};
use tiptoe_math::nibble::NibbleMat;
use tiptoe_math::rng::seeded_rng;
use tiptoe_math::simd::dot_wide_scalar;
use tiptoe_math::zq::Word;
use tiptoe_rlwe::RlweParams;
use tiptoe_underhood::{ClientKey, EncryptedSecret, ExpandedSecret, Underhood};

const THREADS: [usize; 4] = [1, 2, 3, 0];
const BATCHES: [usize; 3] = [1, 2, 5];

fn random_vec<W: Word>(seed: u64, len: usize) -> Vec<W> {
    let mut rng = seeded_rng(seed);
    (0..len).map(|_| W::from_u64(rng.gen())).collect()
}

/// Straddle one `TILE_COLS` boundary when `wide`, so the tiled loop
/// takes both the full-tile and the (possibly odd-width) remainder
/// paths.
fn shape(rows: usize, cols: usize, wide: bool) -> (usize, usize) {
    (rows, if wide { TILE_COLS + cols } else { cols })
}

/// One database in both storage formats plus the oracle inputs for
/// the packed one: its `u32` residues and its negative-entry
/// indicator.
struct Db {
    plain: Mat<u32>,
    packed: NibbleMat,
    residues: Mat<u32>,
    negative: Mat<u32>,
}

impl Db {
    fn random(seed: u64, rows: usize, cols: usize) -> Self {
        let mut rng = seeded_rng(seed);
        let plain = Mat::from_fn(rows, cols, |_, _| rng.gen());
        let signed: Vec<i8> = (0..rows * cols).map(|_| rng.gen_range(-8i8..=7)).collect();
        let packed = NibbleMat::from_signed(rows, cols, &signed);
        let residues = packed.to_residues();
        let negative = Mat::from_fn(rows, cols, |r, c| (packed.get(r, c) < 0) as u32);
        Self { plain, packed, residues, negative }
    }

    fn views(&self) -> [(DbView<'_>, &'static str); 2] {
        [(DbView::from(&self.plain), "U32"), (DbView::from(&self.packed), "Nibble")]
    }

    /// `M · v` for the view named `view`, from the scalar oracle alone.
    fn matvec_oracle<W: Word>(&self, view: &str, v: &[W]) -> Vec<W> {
        if view == "U32" {
            return matvec_scalar(&self.plain, v);
        }
        let two32 = W::from_u64(1 << 32);
        let res = matvec_scalar(&self.residues, v);
        let neg = matvec_scalar(&self.negative, v);
        res.iter().zip(&neg).map(|(&r, &n)| r.wsub(two32.wmul(n))).collect()
    }
}

fn check_matvec_engine<W: Word>(seed: u64, rows: usize, cols: usize) {
    let db = Db::random(seed, rows, cols);
    let vs: Vec<Vec<W>> = (0..5).map(|b| random_vec(seed ^ (b as u64) << 8, cols)).collect();
    for (view, name) in db.views() {
        let want: Vec<Vec<W>> = vs.iter().map(|v| db.matvec_oracle(name, v)).collect();
        for batch in BATCHES {
            for threads in THREADS {
                let got = matvec_batch(view, &vs[..batch], threads);
                assert_eq!(got.len(), batch);
                for (b, out) in got.iter().enumerate() {
                    assert_eq!(out, &want[b], "{name} batch={batch} threads={threads} b={b}");
                }
            }
        }
    }
}

fn check_preproc_engine<W: Word>(seed: u64, rows: usize, cols: usize, n: usize) {
    let db = Db::random(seed, rows, cols);
    let a = MatrixA::new(seed ^ 0x5EED, cols, n);
    let range = a.row_range(0, cols);
    let plain_want: Mat<W> = scheme::preproc_scalar(&db.plain, &range);
    let two32 = W::from_u64(1 << 32);
    let res: Mat<W> = scheme::preproc_scalar(&db.residues, &range);
    let neg: Mat<W> = scheme::preproc_scalar(&db.negative, &range);
    let packed_want: Vec<W> =
        res.data().iter().zip(neg.data()).map(|(&r, &n)| r.wsub(two32.wmul(n))).collect();
    for threads in THREADS {
        let plain: Mat<W> = scheme::preproc(&db.plain, &range, threads);
        assert_eq!(plain.data(), plain_want.data(), "U32 preproc threads={threads}");
        let packed: Mat<W> = scheme::preproc(&db.packed, &range, threads);
        assert_eq!(packed.data(), &packed_want[..], "Nibble preproc threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matvec_kernels_bit_identical_u64(
        seed in any::<u64>(),
        rows in 1usize..24,
        cols in 1usize..96,
        wide in any::<bool>(),
    ) {
        let (rows, cols) = shape(rows, cols, wide);
        check_matvec_engine::<u64>(seed, rows, cols);
    }

    #[test]
    fn matvec_kernels_bit_identical_u32(
        seed in any::<u64>(),
        rows in 1usize..24,
        cols in 1usize..96,
        wide in any::<bool>(),
    ) {
        let (rows, cols) = shape(rows, cols, wide);
        check_matvec_engine::<u32>(seed, rows, cols);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_kernels_bit_identical(seed in any::<u64>(), rows in 1usize..16, cols in 1usize..48) {
        // Decryption's `H·s` runs the dispatched wide kernel; it must
        // equal the portable scalar fold at both word widths.
        let mut rng = seeded_rng(seed);
        let h: Mat<u64> = Mat::from_fn(rows, cols, |_, _| rng.gen());
        let s: Vec<u64> = random_vec(seed ^ 0x77, cols);
        let want: Vec<u64> = (0..rows).map(|i| dot_wide_scalar(h.row(i), &s)).collect();
        prop_assert_eq!(matvec_wide(&h, &s), want);
        let h32: Mat<u32> = Mat::from_fn(rows, cols, |i, j| h.get(i, j) as u32);
        let s32: Vec<u32> = s.iter().map(|&x| x as u32).collect();
        let want32: Vec<u32> = (0..rows).map(|i| dot_wide_scalar(h32.row(i), &s32)).collect();
        prop_assert_eq!(matvec_wide(&h32, &s32), want32);
    }
}

proptest! {
    // Preproc re-expands seeded `A` rows per thread; fewer, heavier
    // cases keep this test fast while still sweeping thread counts.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn preproc_kernels_bit_identical_u64(
        seed in any::<u64>(),
        rows in 1usize..20,
        cols in 1usize..40,
        n in 1usize..24,
    ) {
        check_preproc_engine::<u64>(seed, rows, cols, n);
    }

    #[test]
    fn preproc_kernels_bit_identical_u32(
        seed in any::<u64>(),
        rows in 1usize..20,
        cols in 1usize..40,
        n in 1usize..24,
    ) {
        check_preproc_engine::<u32>(seed, rows, cols, n);
    }
}

proptest! {
    // Each case generates client keys and multi-chunk tokens.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn token_kernel_bit_identical_per_client(seed in any::<u64>(), rows in 1usize..200) {
        // Inner q = 2^64, p = 2^17, n = 64 over a degree-64 ring, so
        // more than 64 hint rows span several NTT chunks.
        let lwe = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let rlwe = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
        let uh = Underhood::with_outer(lwe, rlwe, 44);
        let mut rng = seeded_rng(seed);
        let cols = 32;
        let db = Mat::from_fn(rows, cols, |_, _| rng.gen_range(0..8u32));
        let a = MatrixA::new(seed ^ 0x70C, cols, lwe.n);
        let hint = scheme::preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let sh = uh.preprocess_hint(&hint);
        let secrets: Vec<ExpandedSecret> = (0..3)
            .map(|_| {
                let key = ClientKey::generate(&uh, lwe.n, &mut rng);
                EncryptedSecret::encrypt(&uh, &key, &mut rng).expand(&uh)
            })
            .collect();
        let solo: Vec<Vec<u8>> = secrets
            .iter()
            .map(|es| uh.generate_token_expanded_many(&sh, &[es], 1)[0].encode())
            .collect();
        let refs: Vec<&ExpandedSecret> = secrets.iter().collect();
        for batch in [1usize, 3] {
            for threads in THREADS {
                let got = uh.generate_token_expanded_many(&sh, &refs[..batch], threads);
                assert_eq!(got.len(), batch);
                for (b, token) in got.iter().enumerate() {
                    assert_eq!(token.encode(), solo[b], "batch={batch} threads={threads} b={b}");
                }
            }
        }
    }
}

#[test]
fn apply_routes_both_views_through_the_engine() {
    // `Apply` over each view equals the engine on the ciphertext words.
    let db = Db::random(7, 9, TILE_COLS + 3);
    let cts: Vec<LweCiphertext<u64>> =
        (0..3).map(|b| LweCiphertext { c: random_vec(0xC7 + b, TILE_COLS + 3) }).collect();
    for (view, name) in db.views() {
        let many = scheme::apply_many(view, &cts, 2);
        for (b, ct) in cts.iter().enumerate() {
            assert_eq!(many[b], db.matvec_oracle(name, &ct.c), "{name} b={b}");
            assert_eq!(scheme::apply(view, ct), many[b], "{name} single b={b}");
        }
    }
}
