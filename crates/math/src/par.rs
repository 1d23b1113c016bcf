//! Scoped-thread helpers for the row-parallel server kernels.
//!
//! The hot kernels (the scan engine [`crate::matrix::matvec_batch`]
//! and the hint preprocessing in `tiptoe-lwe`) compute independent
//! output rows, so they parallelize by handing each thread a
//! contiguous span of the output. Everything here is plain
//! `std::thread::scope` fan-out — no work stealing, no runtime —
//! because the spans are uniform and the kernels are bandwidth-bound:
//! static partitioning loses nothing and keeps the code
//! dependency-free.
//!
//! Determinism: the helpers only decide *which thread* computes each
//! span; the per-element arithmetic and its order are unchanged, so
//! every parallel kernel built on them is bit-identical to its scalar
//! counterpart (enforced by the workspace property tests).
//!
//! Thread-count policy: `0` means "one thread per available core"
//! (capped by the `TIPTOE_THREADS` environment variable when set), any
//! other value is used as given; both are clamped so no thread ends up
//! without a full span of work.

/// Number of worker threads meant by a `num_threads` knob value of 0:
/// one per available core, overridable with `TIPTOE_THREADS`.
pub fn max_threads() -> usize {
    let detected = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    match std::env::var("TIPTOE_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n, // explicit override wins
        _ => detected,
    }
}

/// Resolves a `num_threads` knob (`0` = auto) against the number of
/// independent work items, so no thread is spawned without work.
pub fn effective_threads(num_threads: usize, work_items: usize) -> usize {
    let requested = if num_threads == 0 { max_threads() } else { num_threads };
    requested.clamp(1, work_items.max(1))
}

/// Runs `f(start, span)` over contiguous spans of `data`, one span per
/// thread, with span boundaries aligned to multiples of `align`
/// elements (an output row, say). `start` is the element offset of the
/// span within `data`. With one effective thread, runs inline on the
/// caller's stack — the scalar path has zero spawn overhead.
///
/// # Panics
///
/// Panics if `align == 0` or `data.len()` is not a multiple of
/// `align`.
pub fn par_spans_mut<T: Send>(
    data: &mut [T],
    align: usize,
    num_threads: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(align > 0, "span alignment must be positive");
    assert_eq!(data.len() % align, 0, "data length must be a multiple of the alignment");
    let items = data.len() / align;
    let threads = effective_threads(num_threads, items);
    if threads <= 1 {
        f(0, data);
        return;
    }
    // Ceil-divide items over threads; the tail thread takes the short
    // span.
    let items_per = items.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut start = 0usize;
        while !rest.is_empty() {
            let take = (items_per * align).min(rest.len());
            let (span, tail) = rest.split_at_mut(take);
            let f = &f;
            scope.spawn(move || f(start, span));
            start += take;
            rest = tail;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_clamps_to_work() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(5, 0), 1);
        assert!(effective_threads(0, 1 << 20) >= 1);
    }

    #[test]
    fn spans_cover_everything_exactly_once() {
        for threads in [1usize, 2, 3, 7] {
            let mut data = vec![0u64; 60];
            par_spans_mut(&mut data, 4, threads, |start, span| {
                for (off, slot) in span.iter_mut().enumerate() {
                    *slot = (start + off) as u64 + 1;
                }
            });
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, i as u64 + 1, "threads={threads}");
            }
        }
    }

    #[test]
    fn spans_align_to_row_boundaries() {
        let mut data = vec![0usize; 40];
        par_spans_mut(&mut data, 8, 3, |start, span| {
            assert_eq!(start % 8, 0);
            assert_eq!(span.len() % 8, 0);
            span.fill(start / 8);
        });
        for row in 0..5 {
            let owner = data[row * 8];
            assert!(data[row * 8..(row + 1) * 8].iter().all(|&x| x == owner));
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the alignment")]
    fn misaligned_data_rejected() {
        let mut data = vec![0u8; 10];
        par_spans_mut(&mut data, 3, 2, |_, _| {});
    }
}
