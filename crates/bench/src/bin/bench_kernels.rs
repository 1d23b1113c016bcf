//! Machine-readable kernel benchmark for the perf trajectory: times
//! the LHE hot-path kernels (the `matvec` scan engine online,
//! `preproc` offline) against their pinned-scalar oracles at several
//! batch sizes and thread counts, and writes `BENCH_kernels.json` to
//! the working directory (run it from the repository root to refresh
//! the committed baseline).
//!
//! `matvec` is measured at two shapes because they answer different
//! questions: the cache-resident **hot** shape (256×1024, ~1 MiB)
//! isolates the kernel itself — this is where SIMD dispatch shows its
//! real arithmetic speedup — while the paper-scale **streaming**
//! shape (2^15×1024, 128 MiB) is DRAM-bandwidth-bound on any host
//! (this VM streams ~5 GB/s single-core, and the scalar loop already
//! saturates that), so every single-query variant converges on the
//! memory ceiling there and only the batched variant, which amortizes
//! the database traffic across queries, escapes it.
//!
//! ```text
//! cargo run --release -p tiptoe-bench --bin bench_kernels
//! ```
//!
//! Methodology: every variant runs one warmup plus ≥5 measured reps
//! and reports the **minimum** — on a shared/virtualized host the min
//! is the only estimator that converges on the true cost of the code
//! rather than the noise of the neighbourhood. `scalar` is the pinned
//! portable baseline (`matvec_scalar`/`preproc_scalar`, never
//! auto-vectorized away by dispatch); `dispatched` is the production
//! engine at batch 1 on one thread, which routes through the runtime
//! CPU-feature dispatch (`TIPTOE_FORCE_SCALAR=1` pins it back to the
//! scalar tier); `batched_b4_per_query` is the engine at batch 4 on
//! one thread. The `parallel_tN` variants run the engine at batch 1
//! on N threads, and `parallel_t1` is explicitly labeled as the
//! spawn/partition overhead baseline, so compare t≥2 against it, not
//! against `scalar`.
//!
//! Knobs: `TIPTOE_THREADS` pins the sweep's top thread count
//! (default: one per core); `TIPTOE_BENCH_KERNEL_REPS` overrides the
//! per-variant repetition count (dev smoke runs only — the committed
//! artifact should use the default).

use std::fmt::Write as _;

use rand::Rng;
use tiptoe_lwe::{scheme, MatrixA};
use tiptoe_math::matrix::{matvec_batch, matvec_scalar, Mat};
use tiptoe_math::par::max_threads;
use tiptoe_math::rng::seeded_rng;

const MATVEC_ROWS: usize = 1 << 15;
const MATVEC_COLS: usize = 1 << 10;
/// Cache-resident kernel-isolation shape: 256×1024 u32 = 1 MiB, which
/// sits in L2 next to the 8 KiB query vector, so the measurement is
/// arithmetic, not DRAM.
const HOT_ROWS: usize = 1 << 8;
/// Inner repeats for the hot shape so each sample is milliseconds,
/// not microseconds (reported time is per single call).
const HOT_INNER: usize = 64;
const BATCH: usize = 4;
const PREPROC_ROWS: usize = 1 << 15;
const PREPROC_COLS: usize = 64;
const PREPROC_N: usize = 256;

fn reps() -> usize {
    std::env::var("TIPTOE_BENCH_KERNEL_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(5)
}

/// Min-of-`reps` seconds for one run of `f` (after one warmup). The
/// min, not the median: timing noise on a busy host is strictly
/// additive, so the smallest sample is the least contaminated one.
/// Each measured rep is an obs span, so `TIPTOE_TRACE=…` captures the
/// per-rep timeline (including the kernels' own `lwe.*` child spans).
/// Every measured rep is also recorded into the `bench.rep_us`
/// registry histogram; the run reports its rep count and mean from a
/// [`tiptoe_obs::metrics::MetricsSnapshot::delta`] over the measured
/// interval, so a warm registry (or a co-resident bench) cannot
/// contaminate the numbers.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let hist = tiptoe_obs::metrics().histogram("bench.rep_us");
    (0..reps)
        .map(|_| {
            let (out, wall) = tiptoe_obs::timed_span("bench.rep", &mut f);
            std::hint::black_box(out);
            hist.record(wall.as_micros() as u64);
            wall.as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

struct Entry {
    kernel: &'static str,
    variant: String,
    shape: String,
    seconds: f64,
    /// Per-query speedup over the scalar variant of the same kernel.
    speedup: f64,
    /// Set on entries that are not an apples-to-apples speedup claim
    /// (e.g. `parallel_t1`, which measures threading overhead).
    note: Option<&'static str>,
}

/// Thread counts for the parallel sweep: always 1 (the overhead
/// baseline) and 2 (the smallest real parallelism), then the detected
/// core count when it adds a new point.
fn thread_sweep(top: usize) -> Vec<usize> {
    let mut ts = vec![1, 2];
    if top > 2 {
        ts.push(top);
    }
    ts
}

fn main() {
    tiptoe_obs::init_from_env();
    let run_start = tiptoe_obs::metrics().snapshot();
    let reps = reps();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = max_threads();
    let tier = tiptoe_math::simd::tier_name();
    let mut entries: Vec<Entry> = Vec::new();

    let mut rng = seeded_rng(21);
    let v: Vec<u64> = (0..MATVEC_COLS).map(|_| rng.gen()).collect();
    let vs: Vec<Vec<u64>> = (0..BATCH)
        .map(|s| {
            let mut r = seeded_rng(100 + s as u64);
            (0..MATVEC_COLS).map(|_| r.gen()).collect()
        })
        .collect();
    let mut push = |kernel, variant: String, shape: &str, seconds, scalar: f64, note| {
        entries.push(Entry {
            kernel,
            variant,
            shape: shape.to_string(),
            seconds,
            speedup: scalar / seconds,
            note,
        });
    };

    // --- Online kernel, cache-resident shape: what the SIMD tiers buy
    // when the measurement is arithmetic rather than DRAM. ---
    let hot = Mat::from_fn(HOT_ROWS, MATVEC_COLS, |_, _| rng.gen_range(0..16u32));
    let shape = format!("{HOT_ROWS}x{MATVEC_COLS}");
    let per_call = |total: f64| total / HOT_INNER as f64;
    let scalar = per_call(time(reps, || {
        for _ in 0..HOT_INNER {
            std::hint::black_box(matvec_scalar(&hot, &v));
        }
    }));
    let dispatched = per_call(time(reps, || {
        for _ in 0..HOT_INNER {
            std::hint::black_box(matvec_batch(&hot, &[&v], 1));
        }
    }));
    push("matvec", "scalar".into(), &shape, scalar, scalar, None);
    push("matvec", format!("dispatched_{tier}"), &shape, dispatched, scalar, None);

    // --- Online kernel, paper-scale streaming shape (128 MiB): every
    // single-query variant is memory-bound here; batched amortizes the
    // database stream over BATCH queries. ---
    let db = Mat::from_fn(MATVEC_ROWS, MATVEC_COLS, |_, _| rng.gen_range(0..16u32));
    let shape = format!("{MATVEC_ROWS}x{MATVEC_COLS}");
    const STREAM_NOTE: &str = "DRAM-bandwidth-bound at this shape: the scalar loop already \
                               saturates the host's single-core stream; see the cache-resident \
                               matvec entries for the kernel's arithmetic speedup";
    let scalar = time(reps, || matvec_scalar(&db, &v));
    let dispatched = time(reps, || matvec_batch(&db, &[&v], 1));
    // Batched answers BATCH queries per pass; report per-query time.
    let batched = time(reps, || matvec_batch(&db, &vs, 1)) / BATCH as f64;
    push("matvec_stream", "scalar".into(), &shape, scalar, scalar, None);
    push("matvec_stream", format!("dispatched_{tier}"), &shape, dispatched, scalar, Some(STREAM_NOTE));
    push("matvec_stream", format!("batched_b{BATCH}_per_query"), &shape, batched, scalar, None);
    for t in thread_sweep(threads) {
        let seconds = time(reps, || matvec_batch(&db, &[&v], t));
        let note = (t == 1)
            .then_some("threading overhead baseline: dispatched kernel plus spawn/partition cost at zero parallelism; compare t>=2 against this, not against scalar");
        push("matvec_stream", format!("parallel_t{t}"), &shape, seconds, scalar, note);
    }

    // --- Offline kernel: preproc (hint = M·A with seeded A). ---
    let db = Mat::from_fn(PREPROC_ROWS, PREPROC_COLS, |_, _| rng.gen_range(0..16u32));
    let a = MatrixA::new(23, PREPROC_COLS, PREPROC_N);
    let range = a.row_range(0, PREPROC_COLS);
    let shape = format!("{PREPROC_ROWS}x{PREPROC_COLS}xn{PREPROC_N}");
    let scalar = time(reps, || scheme::preproc_scalar::<u64>(&db, &range));
    let dispatched = time(reps, || scheme::preproc::<u64>(&db, &range, 1));
    push("preproc", "scalar".into(), &shape, scalar, scalar, None);
    push("preproc", format!("dispatched_{tier}"), &shape, dispatched, scalar, None);
    for t in thread_sweep(threads) {
        let seconds = time(reps, || scheme::preproc::<u64>(&db, &range, t));
        let note = (t == 1)
            .then_some("threading overhead baseline: dispatched kernel plus spawn/partition cost at zero parallelism; compare t>=2 against this, not against scalar");
        push("preproc", format!("parallel_t{t}"), &shape, seconds, scalar, note);
    }

    // --- Emit BENCH_kernels.json in the working directory. The rep
    // accounting comes from a metrics-snapshot delta over the run, so
    // it covers exactly this run's samples. ---
    let run_delta = tiptoe_obs::metrics().snapshot().delta(&run_start);
    let rep_us = run_delta.histograms.iter().find(|h| h.name == "bench.rep_us");
    let rep_samples = rep_us.map_or(0, |h| h.count);
    let rep_mean_us = rep_us.map_or(0, |h| h.sum.checked_div(h.count).unwrap_or(0));
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"kernels\",");
    let _ = writeln!(json, "  \"cores_detected\": {cores},");
    let _ = writeln!(json, "  \"threads_used\": {threads},");
    let _ = writeln!(json, "  \"simd_tier\": \"{tier}\",");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"rep_samples\": {rep_samples},");
    let _ = writeln!(json, "  \"rep_mean_us\": {rep_mean_us},");
    let _ = writeln!(json, "  \"stat\": \"min\",");
    let _ = writeln!(json, "  \"results\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let note = e.note.map_or(String::new(), |n| format!(", \"note\": \"{n}\""));
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"shape\": \"{}\", \
             \"seconds\": {:.6}, \"speedup_vs_scalar\": {:.3}{note}}}{comma}",
            e.kernel, e.variant, e.shape, e.seconds, e.speedup
        );
    }
    json.push_str("  ]\n}\n");

    let out = "BENCH_kernels.json";
    std::fs::write(out, &json).expect("write BENCH_kernels.json");

    tiptoe_obs::export::export_query_artifacts();

    println!("{json}");
    println!("wrote {out}");
    for e in &entries {
        println!(
            "{:<8} {:<24} {:<20} {:>10.3} ms   {:>6.2}x{}",
            e.kernel,
            e.variant,
            e.shape,
            e.seconds * 1e3,
            e.speedup,
            e.note.map_or("", |n| {
                if n.starts_with("threading overhead") {
                    "   (overhead baseline)"
                } else {
                    "   (memory-bound; see JSON note)"
                }
            })
        );
    }
}
