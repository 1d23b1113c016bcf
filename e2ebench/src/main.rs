//! End-to-end and per-layer benchmark of a Tiptoe deployment.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload query --seed 1 --seconds 20 --trace 0 [--out DIR]
//! ```
//!
//! Runs one workload (`query`, `serve` or `faults`; see README.md)
//! for `--seconds`, checks every answer, prints each metric with its
//! unit, writes the full result (and, traced, the span dump) under
//! `--out` (default `e2ebench/out`), and prints one JSON object as the
//! last line of standard output. Exits non-zero if any check failed.

mod deploy;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use deploy::Scale;
use workloads::{Params, RunResult};

/// Workload names.
const WORKLOADS: [&str; 3] = ["query", "serve", "faults"];

/// End-to-end metrics every untraced run reports on its result line:
/// `(name, unit)`. `latency_ms_tail` is measured and printed too, but
/// left off the result line: host stalls move it by more than any
/// bound a regression gate could use (see README.md).
const END_TO_END: [(&str, &str); 5] = [
    ("latency_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("bytes_per_query", "B"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports: `(name, unit)`.
const PER_LAYER: [(&str, &str); 39] = [
    ("embed.embed_text_us", "us"),
    ("embed.pca_project_us", "us"),
    ("cluster.route_us", "us"),
    ("underhood.encrypt_query_us", "us"),
    ("underhood.decrypt_us", "us"),
    ("pir.query_us", "us"),
    ("pir.recover_us", "us"),
    ("core.batch.decode_payload_us", "us"),
    ("core.ranking.dispatch_us", "us"),
    ("core.url.dispatch_us", "us"),
    ("underhood.key_generate_us", "us"),
    ("underhood.secret_encrypt_us", "us"),
    ("underhood.secret_expand_us", "us"),
    ("core.serving.generate_tokens_us", "us"),
    ("underhood.combine_tokens_us", "us"),
    ("underhood.decode_token_us", "us"),
    ("token_ms_p50", "ms"),
    ("net.token_up_bytes", "B"),
    ("net.token_down_bytes", "B"),
    ("net.rank_up_bytes", "B"),
    ("net.rank_down_bytes", "B"),
    ("net.url_up_bytes", "B"),
    ("net.url_down_bytes", "B"),
    ("core.ranking.answer_direct_us", "us"),
    ("net.coalesce.scans_per_op", "count"),
    ("net.coalesce.batch_mean", "count"),
    ("net.coalesce.flush_us_mean", "us"),
    ("lwe.scan_gbps", "GB/s"),
    ("proc.cpu_ms_per_op", "ms"),
    ("net.fault.retries_per_op", "count"),
    ("net.fault.hedges_per_op", "count"),
    ("net.fault.timeouts_per_op", "count"),
    ("net.fault.corrupted_per_op", "count"),
    ("net.fault.useful_attempt_share", "ratio"),
    ("net.overload.breaker_skips_per_op", "count"),
    ("net.fault.degraded_share", "ratio"),
    ("net.fault.modeled_ms_p50", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload <query|serve|faults> --seed <n> --seconds <s> \
         --trace <0|1> [--out <dir>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("e2ebench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) || a.seconds.is_nan() || a.seconds <= 0.0 {
        usage();
    }
    a
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host facts every result records.
fn environment() -> BTreeMap<&'static str, String> {
    let mut env = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    env.insert("nproc", nproc.to_string());
    env.insert("simd_tier", tiptoe_math::simd::tier_name().to_string());
    for var in ["TIPTOE_THREADS", "TIPTOE_FORCE_SCALAR"] {
        env.insert(var, std::env::var(var).unwrap_or_default());
    }
    env
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn string_map_json(m: &BTreeMap<&str, String>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The metrics this run reports, in table order, with every value
/// checked to be a finite number.
fn select(
    trace: bool,
    r: &RunResult,
    rss: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    table
        .iter()
        .copied()
        .map(|(name, unit)| {
            let value = if trace {
                r.layers.get(name).copied()
            } else if name == "peak_rss_mb" {
                Some(rss)
            } else {
                r.e2e.get(name).map(|&(v, _)| v)
            };
            match value {
                _ if !stats::valid_name(name) => Err(format!("metric name {name:?} is invalid")),
                Some(v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric {name} is not finite: {v}")),
                None => Err(format!("metric {name} was not measured")),
            }
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let params = Params {
        scale: Scale::Production,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let result = match args.workload.as_str() {
        "query" => workloads::query(&params),
        "serve" => workloads::serve(&params, false),
        _ => workloads::serve(&params, true),
    };
    let rss = peak_rss_mb();
    let mut problems = result.errors.clone();
    let metrics = select(args.trace, &result, rss).unwrap_or_else(|e| {
        problems.push(e);
        Vec::new()
    });
    let correct =
        result.outcomes.failed == 0 && problems.is_empty() && result.outcomes.attempted > 0;

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let env = environment();
    for (k, v) in &env {
        println!("  env {k} = {v}");
    }
    for (k, v) in &result.labels {
        println!("  label {k} = {v}");
    }
    // Every measured metric, including the ones the result line leaves
    // out (the tail; token time and search quality on `query`).
    let mut shown: Vec<(&str, f64, &str)> = metrics.clone();
    if !args.trace {
        for (name, &(v, unit)) in &result.e2e {
            if !shown.iter().any(|m| m.0 == *name) {
                shown.push((name, v, unit));
            }
        }
    }
    for (name, v, unit) in &shown {
        println!("  {name} = {v} {unit}");
    }
    println!(
        "  failed_share = {} ({} of {} attempted)",
        result.outcomes.failed_share(),
        result.outcomes.failed,
        result.outcomes.attempted
    );
    for p in &problems {
        println!("  CHECK FAILED: {p}");
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut labels = result.labels.clone();
    labels.insert("failed_share", result.outcomes.failed_share().to_string());
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"env\": {}, \"labels\": {}, \"metrics\": {}, \"errors\": [{}]}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        result.outcomes.attempted,
        result.outcomes.failed,
        string_map_json(&env),
        string_map_json(&labels),
        metrics_json(&shown),
        problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", "),
    );
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(args.out.join(format!("{stem}.json")), record))
        .and_then(|()| match &result.spans {
            Some(spans) => std::fs::write(args.out.join(format!("{stem}-spans.json")), spans),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("could not write results under {}: {e}", args.out.display());
        std::process::exit(1);
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.outcomes.attempted,
        result.outcomes.failed,
        metrics_json(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly this binary's metrics and
    /// workloads, and every name follows the naming rule.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_in = |section: &str| -> Vec<String> {
            let start = spec
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &spec[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in("workloads"), WORKLOADS);
        assert_eq!(names_in("end_to_end"), e2e);
        assert_eq!(names_in("per_layer"), layers);
        for name in e2e.iter().chain(&layers).chain(&WORKLOADS) {
            assert!(stats::valid_name(name), "{name}");
        }
    }

    /// Runs `workload` for about a second at `TiptoeConfig::test_small`
    /// and checks that it passes its own checks and reports every
    /// metric of its mode.
    fn smoke(workload: &str, trace: bool) {
        let p = Params {
            scale: Scale::Small,
            seed: 5,
            seconds: 1.0,
            trace,
        };
        let r = match workload {
            "query" => workloads::query(&p),
            "serve" => workloads::serve(&p, false),
            _ => workloads::serve(&p, true),
        };
        assert!(r.errors.is_empty(), "{workload}: {:?}", r.errors);
        assert!(
            r.outcomes.attempted > 0 && r.outcomes.failed == 0,
            "{workload}: {:?}",
            r.outcomes
        );
        let metrics = select(trace, &r, 1.0).expect("every metric measured and finite");
        assert_eq!(
            metrics.len(),
            if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            }
        );
        if trace {
            let coverage = r.layers["trace.coverage"];
            assert!(
                coverage > 0.9 && coverage <= 1.0,
                "{workload}: coverage {coverage}"
            );
            assert!(r
                .spans
                .as_deref()
                .is_some_and(|s| s.contains("core.ranking.dispatch")));
        }
    }

    #[test]
    fn query_smoke() {
        smoke("query", false);
        smoke("query", true);
    }

    #[test]
    fn serve_smoke() {
        smoke("serve", false);
        smoke("serve", true);
    }

    #[test]
    fn faults_smoke() {
        smoke("faults", false);
        smoke("faults", true);
    }
}
