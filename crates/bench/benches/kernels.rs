//! The server scan engine against its pinned-scalar oracles.
//!
//! The LHE hot path (`matvec` online, `preproc` offline) at shapes
//! sized so the database no longer fits in cache (ℓ = 2^15 rows
//! online): `scalar` is the oracle, `blocked` the engine at batch 1 on
//! one thread, `parallel_tN` batch 1 on every core, and `batched_b4`
//! batch 4 on every core. Set `TIPTOE_THREADS` to pin the parallel
//! variants' thread count and `TIPTOE_BENCH_MS` to trade time for
//! precision.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::Rng;
use tiptoe_lwe::{scheme, MatrixA};
use tiptoe_math::matrix::{matvec_batch, matvec_scalar, Mat};
use tiptoe_math::par::max_threads;
use tiptoe_math::rng::seeded_rng;

const MATVEC_ROWS: usize = 1 << 15;
const MATVEC_COLS: usize = 1 << 10;
const PREPROC_ROWS: usize = 1 << 15;
const PREPROC_COLS: usize = 64;
const PREPROC_N: usize = 256;

fn bench_matvec_variants(c: &mut Criterion) {
    let mut rng = seeded_rng(11);
    let db = Mat::from_fn(MATVEC_ROWS, MATVEC_COLS, |_, _| rng.gen_range(0..16u32));
    let v: Vec<u64> = (0..MATVEC_COLS).map(|_| rng.gen()).collect();
    let threads = max_threads();

    let mut group = c.benchmark_group("kernel_matvec");
    group.throughput(Throughput::Bytes((MATVEC_ROWS * MATVEC_COLS * 4) as u64));
    let shape = format!("{MATVEC_ROWS}x{MATVEC_COLS}");
    group.bench_with_input(BenchmarkId::new("scalar", &shape), &(), |b, ()| {
        b.iter(|| matvec_scalar(&db, &v))
    });
    group.bench_with_input(BenchmarkId::new("blocked", &shape), &(), |b, ()| {
        b.iter(|| matvec_batch(&db, &[&v], 1))
    });
    group.bench_with_input(BenchmarkId::new(format!("parallel_t{threads}"), &shape), &(), |b, ()| {
        b.iter(|| matvec_batch(&db, &[&v], 0))
    });
    // Batched: amortize the database scan over 4 concurrent queries
    // (report per-query cost by answering 4 and dividing mentally; the
    // throughput line already normalizes by DB bytes per pass).
    let vs: Vec<Vec<u64>> = (0..4).map(|s| {
        let mut r = seeded_rng(100 + s);
        (0..MATVEC_COLS).map(|_| r.gen()).collect()
    }).collect();
    group.bench_with_input(BenchmarkId::new("batched_b4", &shape), &(), |b, ()| {
        b.iter(|| matvec_batch(&db, &vs, 0))
    });
    group.finish();
}

fn bench_preproc_variants(c: &mut Criterion) {
    let mut rng = seeded_rng(12);
    let db = Mat::from_fn(PREPROC_ROWS, PREPROC_COLS, |_, _| rng.gen_range(0..16u32));
    let a = MatrixA::new(13, PREPROC_COLS, PREPROC_N);
    let range = a.row_range(0, PREPROC_COLS);
    let threads = max_threads();

    let mut group = c.benchmark_group("kernel_preproc");
    group.sample_size(10);
    let shape = format!("{PREPROC_ROWS}x{PREPROC_COLS}xn{PREPROC_N}");
    group.bench_with_input(BenchmarkId::new("scalar", &shape), &(), |b, ()| {
        b.iter(|| scheme::preproc_scalar::<u64>(&db, &range))
    });
    group.bench_with_input(BenchmarkId::new(format!("parallel_t{threads}"), &shape), &(), |b, ()| {
        b.iter(|| scheme::preproc::<u64>(&db, &range, 0))
    });
    group.finish();
}

criterion_group!(benches, bench_matvec_variants, bench_preproc_variants);
criterion_main!(benches);
