//! Summary statistics and the benchmark's naming rules.

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Which percentile it is (`100` when the sample is too small to
    /// have [`TAIL_BEYOND`] samples beyond any percentile: the maximum
    /// is reported instead).
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The tail of `v` (see [`Tail`]): with `n > TAIL_BEYOND` samples it
/// is the `(n - TAIL_BEYOND)`-th smallest sample, the
/// `100 · (n - TAIL_BEYOND) / n` percentile; smaller samples report
/// their maximum as percentile 100.
pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            samples: 0,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: s[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let rank = n - TAIL_BEYOND;
    Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

/// A closed loop's latency and throughput summarised per time window
/// and reported as the median over windows, so that a host stall in
/// part of a run moves the result little.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median over windows of each window's median latency.
    pub p50: f64,
    /// Median over windows of each window's [`tail`]; `samples` is the
    /// total over all windows.
    pub tail: Tail,
    /// Median over windows of completions per second.
    pub ops_per_s: f64,
}

/// Splits `[0, secs)` into `windows` equal windows and summarises the
/// `(completion second, latency)` samples that complete in each.
/// Samples completing at or after `secs` are left out.
pub fn windowed(samples: &[(f64, f64)], secs: f64, windows: usize) -> Windowed {
    let w = secs / windows as f64;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(done, lat) in samples {
        if (0.0..secs).contains(&done) {
            per[((done / w) as usize).min(windows - 1)].push(lat);
        }
    }
    let busy: Vec<&Vec<f64>> = per.iter().filter(|v| !v.is_empty()).collect();
    let tails: Vec<Tail> = busy.iter().map(|v| tail(v)).collect();
    Windowed {
        p50: median(&busy.iter().map(|v| median(v)).collect::<Vec<_>>()),
        tail: Tail {
            value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
            percentile: median(&tails.iter().map(|t| t.percentile).collect::<Vec<_>>()),
            samples: busy.iter().map(|v| v.len()).sum(),
        },
        ops_per_s: median(&per.iter().map(|v| v.len() as f64 / w).collect::<Vec<_>>()),
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations started in the measured phase.
    pub attempted: u64,
    /// Operations that returned an error, panicked, or failed their
    /// correctness check.
    pub failed: u64,
}

impl Outcomes {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally (e.g. a second submitter's).
    pub fn merge(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of attempted operations that failed (0 when none ran).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples 1..=100: the 90th is the highest value with ten
        // samples (91..=100) beyond it.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // 1000 samples: p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.percentile), (990.0, 99.0));

        // Eleven samples: the smallest has ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).value, 1.0);

        // Ten or fewer: no percentile qualifies, so the maximum is
        // reported, labeled p100.
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.percentile, t.samples), (7.0, 100.0, 7));
    }

    #[test]
    fn windows_report_medians_over_windows() {
        // Four 1 s windows of 20 samples each; the third window stalls
        // (ten times slower, half the completions).
        let mut samples = Vec::new();
        for w in 0..4 {
            let (n, lat) = if w == 2 { (10, 50.0) } else { (20, 5.0) };
            for i in 0..n {
                samples.push((w as f64 + i as f64 / n as f64, lat + i as f64 * 0.01));
            }
        }
        samples.push((4.2, 999.0)); // completes after the measured time
        let r = windowed(&samples, 4.0, 4);
        assert!((r.p50 - 5.095).abs() < 1e-9, "{r:?}");
        assert_eq!(r.ops_per_s, 20.0);
        assert_eq!(r.tail.samples, 70);
        // Each window's tail keeps ten samples beyond it.
        assert!((r.tail.value - 5.09).abs() < 1e-9, "{r:?}");
        assert_eq!(r.tail.percentile, 50.0);
    }

    #[test]
    fn metric_names_follow_the_naming_rule() {
        for ok in [
            "latency_ms_p50",
            "net.coalesce.batch_mean",
            "trace.overhead_pct",
            "9a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn failed_share_counts_failures_against_attempts() {
        let mut a = Outcomes::default();
        assert_eq!(a.failed_share(), 0.0);
        a.record(true);
        a.record(false);
        a.record(true);
        a.record(true);
        assert_eq!(
            a,
            Outcomes {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(a.failed_share(), 0.25);
        let mut b = Outcomes::default();
        b.record(false);
        a.merge(b);
        assert_eq!(a.failed_share(), 2.0 / 5.0);
    }
}
