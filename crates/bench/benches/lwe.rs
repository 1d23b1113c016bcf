//! Microbenches for the inner (SimplePIR-style) LHE scheme: the §6.1
//! claims — `Apply` costs ~2N word operations and runs near plaintext
//! matrix-vector speed — plus encryption and preprocessing rates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::Rng;
use tiptoe_lwe::{scheme, LweParams, LweSecretKey, MatrixA};
use tiptoe_math::matrix::Mat;
use tiptoe_math::rng::seeded_rng;

fn bench_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("lwe_apply");
    let params = LweParams::ranking_text();
    let mut rng = seeded_rng(1);
    for &(rows, cols) in &[(256usize, 4096usize), (512, 8192)] {
        let db = Mat::from_fn(rows, cols, |_, _| rng.gen_range(0..16u32));
        let a = MatrixA::new(7, cols, params.n);
        let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..params.p)).collect();
        let ct = scheme::encrypt(&params, &sk, &a, &v, &mut rng);
        // Throughput in database bytes touched per second (the paper's
        // DRAM-bandwidth-bound figure of merit).
        group.throughput(Throughput::Bytes((rows * cols * 4) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rows}x{cols}")),
            &(db, ct),
            |b, (db, ct)| b.iter(|| scheme::apply(db, ct)),
        );
    }
    group.finish();
}

fn bench_apply_packed(c: &mut Criterion) {
    // The §8.6 4-bit storage: same scan, 8x fewer database bytes.
    let mut group = c.benchmark_group("lwe_apply_packed");
    let mut rng = seeded_rng(4);
    let (rows, cols) = (512usize, 8192usize);
    let signed: Vec<i8> = (0..rows * cols).map(|_| rng.gen_range(-8i8..=7)).collect();
    let packed = tiptoe_math::nibble::NibbleMat::from_signed(rows, cols, &signed);
    let v: Vec<u64> = (0..cols).map(|_| rng.gen()).collect();
    group.throughput(Throughput::Bytes(packed.storage_bytes() as u64));
    let ct = scheme::LweCiphertext { c: v };
    group.bench_function("512x8192_nibbles", |b| b.iter(|| scheme::apply(&packed, &ct)));
    group.finish();
}

fn bench_encrypt(c: &mut Criterion) {
    let params = LweParams::ranking_text();
    let mut rng = seeded_rng(2);
    let cols = 4096;
    let a = MatrixA::new(9, cols, params.n);
    let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
    let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..params.p)).collect();
    c.bench_function("lwe_encrypt_4096", |b| {
        b.iter(|| scheme::encrypt(&params, &sk, &a, &v, &mut rng))
    });
}

fn bench_preproc(c: &mut Criterion) {
    let params = LweParams::ranking_text();
    let mut rng = seeded_rng(3);
    let (rows, cols) = (64usize, 1024usize);
    let db = Mat::from_fn(rows, cols, |_, _| rng.gen_range(0..16u32));
    let a = MatrixA::new(11, cols, params.n);
    c.bench_function("lwe_preproc_64x1024", |b| {
        b.iter(|| scheme::preproc::<u64>(&db, &a.row_range(0, cols), 1))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_apply, bench_apply_packed, bench_encrypt, bench_preproc
}
criterion_main!(benches);
