//! Microbenches for the composed scheme: token generation (the §6.3
//! offline server work) and client-side token decoding.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;
use tiptoe_lwe::{scheme, LweParams, MatrixA};
use tiptoe_math::matrix::Mat;
use tiptoe_math::rng::seeded_rng;
use tiptoe_underhood::{ClientKey, EncryptedSecret, Underhood};

fn setup() -> (Underhood, tiptoe_underhood::ServerHint, EncryptedSecret, ClientKey) {
    // Scaled-down inner secret keeps the bench quick; the kernel cost
    // per (row, secret-coordinate) pair is what we measure.
    let lwe = LweParams { n: 256, log_q: 64, p: 1 << 17, sigma: 81920.0 };
    let uh = Underhood::with_outer(
        lwe,
        tiptoe_rlwe::RlweParams { degree: 2048, q_bits: 62, t: 1 << 28, sigma: 3.2 },
        44,
    );
    let mut rng = seeded_rng(1);
    let cols = 512;
    let db = Mat::from_fn(128, cols, |_, _| rng.gen_range(0..16u32));
    let a = MatrixA::new(3, cols, uh.lwe().n);
    let hint = scheme::preproc::<u64>(&db, &a.row_range(0, cols), 1);
    let sh = uh.preprocess_hint(&hint);
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    (uh, sh, es, key)
}

fn bench_token_generation(c: &mut Criterion) {
    let (uh, sh, es, _) = setup();
    c.bench_function("underhood_token_gen_128rows_n256", |b| {
        b.iter(|| uh.generate_token(&sh, &es))
    });
}

fn bench_token_decode(c: &mut Criterion) {
    let (uh, sh, es, key) = setup();
    let token = uh.generate_token(&sh, &es);
    c.bench_function("underhood_token_decode_128rows", |b| {
        b.iter(|| uh.decode_token::<u64>(&key, &token))
    });
}

fn bench_encrypt_secret(c: &mut Criterion) {
    let (uh, _, _, key) = setup();
    let mut rng = seeded_rng(2);
    c.bench_function("underhood_encrypt_secret_n256", |b| {
        b.iter(|| EncryptedSecret::encrypt(&uh, &key, &mut rng))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_token_generation, bench_token_decode, bench_encrypt_secret
}
criterion_main!(benches);
