//! Serving-plane throughput benchmark: sweeps concurrent closed-loop
//! clients over direct vs. coalesced serving (paper §8.1's 19-client
//! saturation setup) and writes `BENCH_serving.json` to the working
//! directory (run it from the repository root to refresh the committed
//! baseline).
//!
//! Usage: `bench_serving [docs] [queries_per_client] [clients-csv]`
//! (defaults: 240 docs, 12 queries/client, clients 1,4,19). The CI
//! smoke job runs `bench_serving 160 4 4`.
//!
//! When the sweep covers both the 1-client and the 19-client cell, the
//! binary asserts the headline capacity claim: scan-normalized
//! coalesced throughput at 19 clients is at least 2x direct 1-client
//! throughput (i.e. the plane's measured mean batch size is >= 2, so
//! a scan-bound server serves >= 2x the queries per scan). Wall-clock
//! qps is reported alongside but not gated: it is bounded by the CI
//! box's core count, not by the serving architecture.

use tiptoe_bench::serving::{run_serving_bench, ServingBenchConfig};

fn main() {
    tiptoe_obs::init_from_env();
    let mut args = std::env::args().skip(1);
    let mut cfg = ServingBenchConfig::default();
    if let Some(docs) = args.next().and_then(|a| a.parse().ok()) {
        cfg.docs = docs;
    }
    if let Some(qpc) = args.next().and_then(|a| a.parse().ok()) {
        cfg.queries_per_client = qpc;
    }
    if let Some(csv) = args.next() {
        let clients: Vec<usize> = csv.split(',').filter_map(|c| c.trim().parse().ok()).collect();
        assert!(!clients.is_empty(), "client list parsed empty: {csv}");
        cfg.clients = clients;
    }

    println!(
        "serving bench: {} docs, {} shards, {} queries/client, clients {:?}",
        cfg.docs, cfg.shards, cfg.queries_per_client, cfg.clients
    );
    let outcome = run_serving_bench(&cfg);

    println!(
        "{:>8}  {:>10}  {:>10}  {:>9}  {:>9}  {:>9}  {:>7}  {:>8}",
        "clients", "mode", "qps", "p50 ms", "p95 ms", "p99 ms", "scans", "q/scan"
    );
    for row in &outcome.rows {
        let r = &row.report;
        println!(
            "{:>8}  {:>10}  {:>10.2}  {:>9.2}  {:>9.2}  {:>9.2}  {:>7}  {:>8.3}",
            row.clients,
            if row.coalesced { "coalesced" } else { "direct" },
            r.qps,
            r.p50.as_secs_f64() * 1e3,
            r.p95.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
            row.scans,
            row.queries_per_scan,
        );
    }
    if let Some(s) = outcome.wall_speedup() {
        println!("wall-clock speedup (coalesced @max clients vs direct @1): {s:.2}x");
    }
    if let Some(s) = outcome.scan_speedup() {
        println!("scan-bound speedup (coalesced @max clients vs direct @1): {s:.2}x");
        if cfg.clients.contains(&1) && cfg.clients.contains(&19) {
            assert!(
                s >= 2.0,
                "scan-normalized coalesced 19-client throughput must be >= 2x \
                 direct 1-client (got {s:.2}x)"
            );
        }
    }

    let json = outcome.to_json();
    let out = "BENCH_serving.json";
    std::fs::write(out, &json).expect("write BENCH_serving.json");
    println!("wrote {out}");
}
