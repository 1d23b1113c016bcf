//! The three workloads: `query`, `serve` and `faults`.
//!
//! Each is a closed loop from this process. End-to-end metrics come
//! from untraced operations; with tracing on, per-layer metrics come
//! from operations wrapped in the benchmark's own spans, and the same
//! run times untraced operations too, so the gap is the tracing
//! overhead.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tiptoe_core::instance::TiptoeInstance;
use tiptoe_core::serving::ServingPlane;
use tiptoe_embed::text::TextEmbedder;
use tiptoe_lwe::LweCiphertext;
use tiptoe_math::rng::{derive_seed, seeded_rng};
use tiptoe_net::{Dispatched, FaultPlan, FaultPolicy, FaultRates, FaultReport, Ledger, Phase};
use tiptoe_obs::metrics::MetricsSnapshot;
use tiptoe_pir::PirClient;
use tiptoe_underhood::ClientKey;

use crate::deploy::{self, Scale};
use crate::replay::{self, Bytes, Replayer};
use crate::stats::{median, tail, windowed, Outcomes, Tail};
use crate::trace::{self, span, Tracer};

type Instance = TiptoeInstance<TextEmbedder>;

/// Results the `query` workload asks for per search.
const K: usize = 100;

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Parameter set.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What one run measured.
#[derive(Default)]
pub struct RunResult {
    /// Operations attempted and failed in the measured phase.
    pub outcomes: Outcomes,
    /// End-to-end metrics (untraced runs): `name -> (value, unit)`.
    pub e2e: BTreeMap<&'static str, (f64, &'static str)>,
    /// Per-layer metrics (traced runs): `name -> value`.
    pub layers: BTreeMap<&'static str, f64>,
    /// Descriptive labels (tail percentile, sample counts, ...).
    pub labels: BTreeMap<&'static str, String>,
    /// The traced run's span dump.
    pub spans: Option<String>,
    /// First few check failures, for the log.
    pub errors: Vec<String>,
}

/// Keeps the first few failure descriptions of a run for its log.
fn note(errors: &mut Vec<String>, why: String) {
    if errors.len() < 8 {
        errors.push(why);
    }
}

impl RunResult {
    fn fail(&mut self, why: String) {
        note(&mut self.errors, why);
    }

    fn put_tail(&mut self, t: Tail) {
        self.e2e.insert("latency_ms_tail", (t.value, "ms"));
        self.labels
            .insert("latency_ms_tail.percentile", format!("{:.3}", t.percentile));
        self.labels
            .insert("latency_ms_tail.samples", t.samples.to_string());
    }
}

/// Process CPU time (user + system) so far.
pub fn cpu_time() -> Duration {
    // Fields 14 and 15 of /proc/self/stat, in USER_HZ (100/s) ticks;
    // the command name (field 2) may hold spaces, so split after it.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    Duration::from_millis(f.iter().sum::<u64>() * 10)
}

/// Serving-plane coalescer activity, summed over metric deltas.
#[derive(Debug, Default, Clone, Copy)]
struct Coalesce {
    flushes: u64,
    batched: u64,
    flush_us_count: u64,
    flush_us_sum: u64,
}

impl Coalesce {
    fn add(&mut self, d: &MetricsSnapshot) {
        self.flushes += d
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("net.coalesce.flushes"))
            .map(|(_, v)| v)
            .sum::<u64>();
        for h in &d.histograms {
            match h.name.as_str() {
                "net.coalesce.batch_size" => self.batched += h.sum,
                "net.coalesce.flush_us" => {
                    self.flush_us_count += h.count;
                    self.flush_us_sum += h.sum;
                }
                _ => {}
            }
        }
    }

    fn report(&self, ops: u64, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert(
            "net.coalesce.scans_per_op",
            ratio(self.flushes as f64, ops as f64),
        );
        layers.insert(
            "net.coalesce.batch_mean",
            ratio(self.batched as f64, self.flushes as f64),
        );
        layers.insert(
            "net.coalesce.flush_us_mean",
            ratio(self.flush_us_sum as f64, self.flush_us_count as f64),
        );
    }
}

/// Fault-path tallies over a set of requests.
#[derive(Debug, Default, Clone, Copy)]
struct Faults {
    ops: u64,
    retries: u64,
    hedges: u64,
    timeouts: u64,
    corrupted: u64,
    delivered: u64,
    launched: u64,
    skipped: u64,
    degraded: u64,
}

impl Faults {
    /// Adds one request's reports (`None`: the healthy fan-out, where
    /// each of `shards` shards answers its one attempt).
    fn add(&mut self, reports: &[Option<&FaultReport>], shards: &[usize], degraded: bool) {
        self.ops += 1;
        self.degraded += u64::from(degraded);
        for (r, &w) in reports.iter().zip(shards) {
            match r {
                None => {
                    self.delivered += w as u64;
                    self.launched += w as u64;
                }
                Some(r) => {
                    self.retries += u64::from(r.retries);
                    self.hedges += u64::from(r.hedges);
                    self.timeouts += u64::from(r.timeouts);
                    self.corrupted += u64::from(r.corrupted);
                    self.delivered += r.shards.iter().filter(|s| s.ok).count() as u64;
                    self.launched += r.shards.iter().map(|s| u64::from(s.attempts)).sum::<u64>()
                        + u64::from(r.hedges);
                    self.skipped +=
                        r.shards.iter().filter(|s| !s.ok && s.attempts == 0).count() as u64;
                }
            }
        }
    }

    fn merge(&mut self, o: &Faults) {
        self.ops += o.ops;
        self.retries += o.retries;
        self.hedges += o.hedges;
        self.timeouts += o.timeouts;
        self.corrupted += o.corrupted;
        self.delivered += o.delivered;
        self.launched += o.launched;
        self.skipped += o.skipped;
        self.degraded += o.degraded;
    }

    fn report(&self, layers: &mut BTreeMap<&'static str, f64>) {
        let ops = self.ops as f64;
        layers.insert("net.fault.retries_per_op", ratio(self.retries as f64, ops));
        layers.insert("net.fault.hedges_per_op", ratio(self.hedges as f64, ops));
        layers.insert(
            "net.fault.timeouts_per_op",
            ratio(self.timeouts as f64, ops),
        );
        layers.insert(
            "net.fault.corrupted_per_op",
            ratio(self.corrupted as f64, ops),
        );
        layers.insert(
            "net.fault.useful_attempt_share",
            ratio(self.delivered as f64, self.launched as f64),
        );
        layers.insert(
            "net.overload.breaker_skips_per_op",
            ratio(self.skipped as f64, ops),
        );
        layers.insert("net.fault.degraded_share", ratio(self.degraded as f64, ops));
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median per-operation self time of each traced layer, in µs.
fn put_layers(
    spans: &[trace::SpanRecord],
    roots: &[&str],
    layers: &mut BTreeMap<&'static str, f64>,
) {
    for (name, v) in trace::layer_self_us(spans, roots) {
        layers.insert(layer_metric(name), median(&v));
    }
}

/// The per-layer metric name of a span name (`<span>_us`).
fn layer_metric(span: &'static str) -> &'static str {
    match span {
        "embed.embed_text" => "embed.embed_text_us",
        "embed.pca_project" => "embed.pca_project_us",
        "cluster.route" => "cluster.route_us",
        "underhood.encrypt_query" => "underhood.encrypt_query_us",
        "underhood.decrypt" => "underhood.decrypt_us",
        "pir.query" => "pir.query_us",
        "pir.recover" => "pir.recover_us",
        "core.batch.decode_payload" => "core.batch.decode_payload_us",
        "core.ranking.dispatch" => "core.ranking.dispatch_us",
        "core.url.dispatch" => "core.url.dispatch_us",
        "underhood.key_generate" => "underhood.key_generate_us",
        "underhood.secret_encrypt" => "underhood.secret_encrypt_us",
        "underhood.secret_expand" => "underhood.secret_expand_us",
        "core.serving.generate_tokens" => "core.serving.generate_tokens_us",
        "underhood.combine_tokens" => "underhood.combine_tokens_us",
        "underhood.decode_token" => "underhood.decode_token_us",
        other => panic!("span {other} has no per-layer metric"),
    }
}

/// Per-query wire bytes as per-layer metrics.
fn put_bytes(b: &Bytes, layers: &mut BTreeMap<&'static str, f64>) {
    layers.insert("net.token_up_bytes", b.token_up as f64);
    layers.insert("net.token_down_bytes", b.token_down as f64);
    layers.insert("net.rank_up_bytes", b.rank_up as f64);
    layers.insert("net.rank_down_bytes", b.rank_down as f64);
    layers.insert("net.url_up_bytes", b.url_up as f64);
    layers.insert("net.url_down_bytes", b.url_down as f64);
}

/// Direct (no-plane) scan time and the bandwidth it implies.
fn put_direct_scan(
    inst: &Instance,
    spans: &[trace::SpanRecord],
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let direct_us = median(&trace::root_us(spans, "core.ranking.answer_direct"));
    let matrix_bytes = (inst.artifacts.rank_matrix.len() * std::mem::size_of::<u32>()) as f64;
    layers.insert("core.ranking.answer_direct_us", direct_us);
    layers.insert("lwe.scan_gbps", ratio(matrix_bytes, direct_us * 1e3));
}

/// Traced-vs-untraced overhead of one operation kind, in percent: the
/// gap between the medians of two samples.
fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    let u = median(untraced);
    100.0 * ratio(median(traced) - u, u)
}

/// Set-up, shared by every workload: after the build, bring up the
/// plane. Records `setup_s` and the deployment's shape, which varies
/// with the seed and sets the scan work per request.
fn bring_up<'i>(inst: &'i Instance, build: Duration, out: &mut RunResult) -> ServingPlane<'i> {
    let start = Instant::now();
    let plane = inst.serving_plane();
    let setup = build + start.elapsed();
    out.e2e.insert("setup_s", (setup.as_secs_f64(), "s"));
    let meta = &inst.artifacts.meta;
    let matrix_mb = (inst.artifacts.rank_matrix.len() * std::mem::size_of::<u32>()) as f64 / 1e6;
    out.labels.insert("deploy.clusters", meta.c.to_string());
    out.labels.insert("deploy.rows", meta.rows.to_string());
    out.labels
        .insert("deploy.rank_matrix_mb", format!("{matrix_mb:.2}"));
    plane
}

/// Replays one traced private query (token, then online search) as
/// operation `op`, checks it against the plaintext reference, and
/// times the direct no-plane scan of its ranking upload.
fn traced_replay(
    inst: &Instance,
    replay: &mut Replayer<'_>,
    tr: &Tracer,
    op: u64,
    urls: &[String],
    text: &str,
) -> Result<replay::Answer, String> {
    let token = tr.root("query.token", op, || replay.token(Some(tr)));
    let ans = tr.root("query.online", op, || {
        replay.online(token, text, K, Some(tr))
    })?;
    tr.root("core.ranking.answer_direct", op, || {
        inst.ranking.answer(&ans.rank_ct)
    });
    let want = replay::reference(inst, urls, text, K);
    if ans.cluster != want.cluster || !replay::same_hits(&ans.hits, &want.hits) {
        return Err(format!(
            "replayed query {text:?} disagrees with the plaintext reference"
        ));
    }
    Ok(ans)
}

/// Runs `text` through a `TiptoeClient` of its own on `plane` and
/// checks that the replay `ans` of the same query found the same
/// cluster and hits and moved the same bytes as the client.
fn matches_client(
    inst: &Instance,
    plane: &ServingPlane<'_>,
    seed: u64,
    text: &str,
    ans: &replay::Answer,
) -> Result<(), String> {
    let mut client = inst.new_client(derive_seed(seed, 0xc11e));
    let res = catch_unwind(AssertUnwindSafe(|| {
        client.fetch_token_via(inst, Some(plane));
        client.try_search_served(inst, text, K, plane)
    }))
    .map_err(|_| "the client's search panicked".to_string())?
    .map_err(|e| format!("the client's search failed: {e}"))?;
    if res.cluster != ans.cluster || !replay::same_hits(&res.hits, &ans.hits) {
        return Err(format!("replay of {text:?} disagrees with the client"));
    }
    if Bytes::of_cost(&res.cost) != ans.bytes {
        return Err("replayed bytes differ from the client's".into());
    }
    Ok(())
}

const QUERY_ROOTS: [&str; 2] = ["query.token", "query.online"];

/// `query`: one user issues private queries at production parameters.
pub fn query(p: &Params) -> RunResult {
    let inputs = deploy::inputs(p.scale, 4096, 64, p.seed);
    let urls: Vec<String> = inputs.corpus.docs.iter().map(|d| d.url.clone()).collect();
    let order = deploy::permutation(inputs.corpus.queries.len(), p.seed);
    let (inst, build) = deploy::build(&inputs);
    let mut out = RunResult::default();
    let plane = bring_up(&inst, build, &mut out);

    let mut client = inst.new_client(derive_seed(p.seed, 0xc11e));
    let tracer = p.trace.then(Tracer::new);
    let mut replayer = Replayer::new(&inst, &plane, derive_seed(p.seed, 0x7e91));
    let mut online_ms = Vec::new();
    let mut token_ms = Vec::new();
    let mut iteration_s = Vec::new();
    let mut cpu = Duration::ZERO;
    let mut coalesce = Coalesce::default();
    let mut modeled = Vec::new();
    let mut rr = Vec::new();
    let mut first_bytes: Option<(Bytes, u64)> = None;
    let mut traced_bytes = None;
    // `(op, µs)` of each untraced search whose query was replayed.
    let mut untraced_online = Vec::new();

    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < p.seconds {
        let q = &inputs.corpus.queries[order[i % order.len()]];
        let wire0 = inst.transcript.grand_total();
        let snap0 = tiptoe_obs::metrics().snapshot();
        let cpu0 = cpu_time();
        let t0 = Instant::now();
        let fetched = catch_unwind(AssertUnwindSafe(|| {
            client.fetch_token_via(&inst, Some(&plane))
        }));
        let t1 = Instant::now();
        let searched = catch_unwind(AssertUnwindSafe(|| {
            client.try_search_served(&inst, &q.text, K, &plane)
        }));
        let t2 = Instant::now();
        cpu += cpu_time().saturating_sub(cpu0);
        coalesce.add(&tiptoe_obs::metrics().snapshot().delta(&snap0));
        let wire = inst.transcript.grand_total() - wire0;

        let mut ok = fetched.is_ok();
        match searched {
            Ok(Ok(res)) if ok => {
                token_ms.push(ms(t1 - t0));
                online_ms.push(ms(t2 - t1));
                iteration_s.push((t2 - t0).as_secs_f64());
                modeled.push(ms(res.cost.rank_server.wall + res.cost.url_server.wall));
                rr.push(replay::reciprocal_rank(&res.hits, q.relevant));
                let want = replay::reference(&inst, &urls, &q.text, K);
                if res.cluster != want.cluster || !replay::same_hits(&res.hits, &want.hits) {
                    ok = false;
                    out.fail(format!(
                        "query {:?} disagrees with the plaintext reference",
                        q.text
                    ));
                }
                // Privacy: every query moves exactly the same bytes.
                let bytes = Bytes::of_cost(&res.cost);
                let first = *first_bytes.get_or_insert((bytes, wire));
                if bytes != first.0 || wire != first.1 || wire != bytes.total() {
                    ok = false;
                    out.fail(format!(
                        "query {:?} moved {wire} B, not {} B",
                        q.text, first.1
                    ));
                }
                if let Some(tr) = &tracer {
                    untraced_online.push((i as u64 + 1, ms(t2 - t1) * 1e3));
                    match traced_replay(&inst, &mut replayer, tr, i as u64 + 1, &urls, &q.text) {
                        Ok(ans)
                            if ans.cluster == res.cluster
                                && replay::same_hits(&ans.hits, &res.hits) =>
                        {
                            if ans.bytes != bytes {
                                ok = false;
                                out.fail("replayed bytes differ from the client's".into());
                            }
                            traced_bytes = Some(ans.bytes);
                        }
                        Ok(_) => {
                            ok = false;
                            out.fail(format!("replay of {:?} disagrees with the client", q.text));
                        }
                        Err(e) => {
                            ok = false;
                            out.fail(e);
                        }
                    }
                }
            }
            Ok(Err(e)) => out.fail(format!("search failed: {e}")),
            _ => out.fail("token fetch or search panicked".into()),
        }
        out.outcomes.record(ok);
        i += 1;
    }

    let n = online_ms.len() as u64;
    out.labels.insert("iterations", i.to_string());
    if let Some(tr) = &tracer {
        let spans = tr.spans();
        put_layers(&spans, &QUERY_ROOTS, &mut out.layers);
        put_direct_scan(&inst, &spans, &mut out.layers);
        put_bytes(&traced_bytes.unwrap_or_default(), &mut out.layers);
        coalesce.report(n, &mut out.layers);
        // The healthy fan-out: every shard and the URL server answer
        // their one attempt.
        let attempts = n * (inst.ranking.num_shards() as u64 + 1);
        Faults {
            ops: n,
            delivered: attempts,
            launched: attempts,
            ..Faults::default()
        }
        .report(&mut out.layers);
        out.layers
            .insert("net.fault.modeled_ms_p50", median(&modeled));
        out.layers
            .insert("proc.cpu_ms_per_op", ratio(ms(cpu), n as f64));
        out.layers.insert("token_ms_p50", median(&token_ms));
        out.layers
            .insert("trace.coverage", trace::coverage(&spans, &QUERY_ROOTS));
        // Each replay runs right after the client's own search of the
        // same query, so the pair shares the host's state: the median
        // of the paired ratios cancels slow and fast stretches.
        let traced: BTreeMap<u64, f64> = spans
            .iter()
            .filter(|sp| sp.parent == 0 && sp.name == "query.online")
            .map(|sp| (sp.op, sp.dur_ns() as f64 / 1e3))
            .collect();
        let pairs: Vec<f64> = untraced_online
            .iter()
            .filter_map(|(op, u)| traced.get(op).map(|t| 100.0 * ratio(t - u, *u)))
            .collect();
        out.layers.insert("trace.overhead_pct", median(&pairs));
        out.spans = Some(tr.dump_json());
    } else {
        out.e2e.insert("latency_ms_p50", (median(&online_ms), "ms"));
        out.put_tail(tail(&online_ms));
        // One client in a closed loop: the rate is the inverse of the
        // iteration time, taken as a median so that a host stall in
        // one of a run's few iterations moves it little.
        out.e2e
            .insert("ops_per_s", (ratio(1.0, median(&iteration_s)), "1/s"));
        out.e2e.insert("token_ms_p50", (median(&token_ms), "ms"));
        out.e2e.insert(
            "bytes_per_query",
            (first_bytes.map_or(0, |b| b.0.total()) as f64, "B"),
        );
        out.e2e.insert(
            "mrr_at_100",
            (ratio(rr.iter().sum(), rr.len() as f64), "ratio"),
        );
    }
    out
}

/// One pre-encrypted request of the `serve` and `faults` pool, with
/// the direct answers it must reproduce.
struct Request {
    rank_ct: LweCiphertext<u64>,
    url_ct: LweCiphertext<u32>,
    /// `RankingService::answer` on `rank_ct`.
    rank_ref: Vec<u64>,
    /// `RankingService::shard_answer` of each shard on its columns.
    shard_refs: Vec<Vec<u64>>,
    /// `UrlService::answer` on `url_ct`.
    url_ref: Vec<u32>,
}

/// Encrypts the request pool from distinct corpus queries with the
/// public client API (a fresh key per request, the URL query aimed at
/// the batch of the plaintext-best member) and computes the direct
/// answers, on up to `threads` threads.
fn prepare_pool(
    inst: &Instance,
    urls: &[String],
    texts: &[&str],
    seed: u64,
    threads: usize,
) -> Vec<Request> {
    let make = |i: usize| {
        let mut rng = seeded_rng(derive_seed(seed, 0x9001 + i as u64));
        let meta = &inst.artifacts.meta;
        let want = replay::reference(inst, urls, texts[i], K);
        let key = ClientKey::generate(inst.ranking.underhood(), replay::secret_dim(inst), &mut rng);
        let rank_ct = inst.ranking.underhood().encrypt_query::<u64, _>(
            &key,
            &inst.ranking.public_matrix(),
            &replay::ranking_upload(inst, &want.q, want.cluster),
            &mut rng,
        );
        let url_ct = PirClient::new(inst.url.underhood(), &key).query(
            &inst.url.public_matrix(),
            meta.num_batches,
            meta.batch_of(want.cluster, want.best_row),
            &mut rng,
        );
        let shard_refs = (0..inst.ranking.num_shards())
            .map(|w| {
                let (lo, hi) = inst.ranking.shard_columns(w);
                inst.ranking.shard_answer(w, &rank_ct.c[lo..hi])
            })
            .collect();
        Request {
            rank_ref: inst.ranking.answer(&rank_ct).0,
            url_ref: inst.url.answer(&url_ct).0,
            shard_refs,
            rank_ct,
            url_ct,
        }
    };
    let mut pool: Vec<Option<Request>> = (0..texts.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let chunk = texts.len().div_ceil(threads.max(1));
        for (c, slots) in pool.chunks_mut(chunk).enumerate() {
            let make = &make;
            s.spawn(move || {
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(make(c * chunk + j));
                }
            });
        }
    });
    pool.into_iter()
        .map(|r| r.expect("every pool slot is filled"))
        .collect()
}

/// The ranking and URL answers of one request.
type Answers = (Dispatched<Vec<u64>>, Dispatched<Option<Vec<u32>>>);

/// One `serve`/`faults` request: the ranking dispatch, then the URL
/// dispatch, both through the shared plane.
fn dispatch(
    inst: &Instance,
    plane: &ServingPlane<'_>,
    req: &Request,
    plan: &FaultPlan,
    tr: Option<&Tracer>,
) -> Result<Answers, String> {
    let policy = &inst.config.fault_policy;
    let rank_ledger = Ledger {
        transcript: &inst.transcript,
        phase: Phase::Ranking,
        retry_phase: Phase::RankingRetries,
        up_bytes: req.rank_ct.byte_len(),
        down_bytes: (inst.ranking.rows() * 8) as u64,
    };
    let rank = span(tr, "core.ranking.dispatch", || {
        inst.ranking.try_dispatch_answer(
            &req.rank_ct,
            plan,
            policy,
            Some(&rank_ledger),
            Some(plane),
            None,
        )
    })
    .map_err(|e| format!("ranking dispatch: {e}"))?;
    let url_ledger = Ledger {
        transcript: &inst.transcript,
        phase: Phase::Url,
        retry_phase: Phase::UrlRetries,
        up_bytes: req.url_ct.byte_len(),
        down_bytes: (inst.url.database().rows() * 4) as u64,
    };
    let url = span(tr, "core.url.dispatch", || {
        inst.url.try_dispatch_answer(
            &req.url_ct,
            inst.ranking.num_shards(),
            plan,
            policy,
            Some(&url_ledger),
            Some(plane),
            None,
        )
    })
    .map_err(|e| format!("URL dispatch: {e}"))?;
    Ok((rank, url))
}

/// Checks a request's answers: the ranking answer is the wrapping sum
/// of the direct shard answers over the reported survivors, and the
/// URL answer is the direct answer iff the server survived. With
/// `healthy`, every shard must survive and the ranking answer must be
/// the direct `answer` itself.
fn check(
    req: &Request,
    rank: &Dispatched<Vec<u64>>,
    url: &Dispatched<Option<Vec<u32>>>,
    healthy: bool,
) -> bool {
    if rank.survivors.len() != req.shard_refs.len() || url.survivors.len() != 1 {
        return false;
    }
    let mut want = vec![0u64; req.rank_ref.len()];
    for (part, _) in req
        .shard_refs
        .iter()
        .zip(&rank.survivors)
        .filter(|(_, &ok)| ok)
    {
        for (t, p) in want.iter_mut().zip(part) {
            *t = t.wrapping_add(*p);
        }
    }
    let url_ok = match (url.survivors[0], &url.response) {
        (true, Some(a)) => *a == req.url_ref,
        (false, None) => true,
        _ => false,
    };
    let all_up = rank.survivors.iter().all(|&ok| ok) && url.survivors[0];
    rank.response == want && url_ok && (!healthy || (all_up && rank.response == req.rank_ref))
}

/// Direct no-plane scans a traced `serve`/`faults` run times.
const DIRECT_SCANS: usize = 16;

/// Time windows a `serve`/`faults` phase is summarised over.
const WINDOWS: usize = 10;

/// One submitter's record of a phase.
#[derive(Default)]
struct Lane {
    outcomes: Outcomes,
    /// `(completion second since the phase began, latency in ms)`.
    latency_ms: Vec<(f64, f64)>,
    modeled_ms: Vec<f64>,
    faults: Faults,
    errors: Vec<String>,
}

impl Lane {
    fn fail(&mut self, why: String) {
        note(&mut self.errors, why);
    }
}

/// What every `serve`/`faults` submitter shares.
struct Stream<'a> {
    inst: &'a Instance,
    plane: &'a ServingPlane<'a>,
    pool: &'a [Request],
    seed: u64,
    faults: bool,
    submitters: usize,
    /// Next traced operation id.
    ops: &'a AtomicU64,
}

impl Stream<'_> {
    /// Runs phase `ph` on every submitter until `secs` have passed.
    ///
    /// The k-th request of submitter `s` in phase `ph` is request
    /// `ph·2^32 + s + k·submitters` of the seeded stream: its pool slot
    /// and fault plan depend on that index alone, so each phase sees
    /// the same request sequence on every run of a seed.
    fn phase(&self, ph: u64, secs: f64, tr: Option<&Tracer>) -> (Vec<Lane>, Duration) {
        let start = Instant::now();
        let lanes = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.submitters)
                .map(|sub| {
                    s.spawn(move || {
                        let mut lane = Lane::default();
                        let mut k = 0u64;
                        while start.elapsed().as_secs_f64() < secs {
                            let idx = (ph << 32) + sub as u64 + k * self.submitters as u64;
                            self.request(idx, start, tr, &mut lane);
                            k += 1;
                        }
                        lane
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitter threads catch panics"))
                .collect()
        });
        (lanes, start.elapsed())
    }

    /// Sends request `idx`, checks its answers and records it in `lane`.
    fn request(&self, idx: u64, phase_start: Instant, tr: Option<&Tracer>, lane: &mut Lane) {
        let req = &self.pool[idx as usize % self.pool.len()];
        let plan = if self.faults {
            FaultPlan::from_rates(
                derive_seed(self.seed ^ 0xfa17, idx),
                FaultRates::mixed(0.25),
            )
        } else {
            FaultPlan::none()
        };
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| match tr {
            Some(tr) => {
                let op = self.ops.fetch_add(1, Ordering::Relaxed);
                tr.root("serve.request", op, || {
                    dispatch(self.inst, self.plane, req, &plan, Some(tr))
                })
            }
            None => dispatch(self.inst, self.plane, req, &plan, None),
        }));
        let lat = ms(t0.elapsed());
        let ok = match res {
            Ok(Ok((rank, url))) => {
                lane.latency_ms
                    .push((phase_start.elapsed().as_secs_f64(), lat));
                lane.modeled_ms.push(ms(rank.timing.wall + url.timing.wall));
                let degraded = !(rank.survivors.iter().all(|&s| s) && url.survivors[0]);
                lane.faults.add(
                    &[rank.report.as_ref(), url.report.as_ref()],
                    &[self.inst.ranking.num_shards(), 1],
                    degraded,
                );
                let ok = check(req, &rank, &url, !self.faults);
                if !ok {
                    lane.errors
                        .push(format!("request {idx}: answer differs from its reference"));
                }
                ok
            }
            Ok(Err(e)) => {
                lane.fail(format!("request {idx}: {e}"));
                false
            }
            Err(_) => {
                lane.fail(format!("request {idx} panicked"));
                false
            }
        };
        lane.outcomes.record(ok);
    }
}

/// `serve` (`faults = false`) and `faults`: two closed-loop submitters
/// send pre-encrypted requests through one plane at 16384 documents.
pub fn serve(p: &Params, faults: bool) -> RunResult {
    let pool_size = 4;
    let mut inputs = deploy::inputs(p.scale, 16384, pool_size, p.seed);
    if faults {
        inputs.config.fault_policy = FaultPolicy::tolerant();
        inputs.config.breaker.enabled = true;
    }
    let urls: Vec<String> = inputs.corpus.docs.iter().map(|d| d.url.clone()).collect();
    let order = deploy::permutation(inputs.corpus.queries.len(), p.seed);
    let texts: Vec<&str> = order
        .iter()
        .map(|&i| inputs.corpus.queries[i].text.as_str())
        .collect();
    let (inst, build) = deploy::build(&inputs);
    let mut out = RunResult::default();
    let plane = bring_up(&inst, build, &mut out);

    let submitters = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let prep = Instant::now();
    let pool = prepare_pool(&inst, &urls, &texts, p.seed, submitters);
    out.labels
        .insert("prepare_s", format!("{:.3}", prep.elapsed().as_secs_f64()));
    let tracer = p.trace.then(Tracer::new);
    let ops = AtomicU64::new(1);
    if let Some(tr) = &tracer {
        let mut replayer = Replayer::new(&inst, &plane, derive_seed(p.seed, 0x7e91));
        let op = ops.fetch_add(1, Ordering::Relaxed);
        let replayed = traced_replay(&inst, &mut replayer, tr, op, &urls, texts[0])
            .and_then(|ans| matches_client(&inst, &plane, p.seed, texts[0], &ans).map(|()| ans));
        match replayed {
            Ok(ans) => put_bytes(&ans.bytes, &mut out.layers),
            Err(e) => {
                out.outcomes.record(false);
                out.fail(e);
            }
        }
    }

    let stream = Stream {
        inst: &inst,
        plane: &plane,
        pool: &pool,
        seed: p.seed,
        faults,
        submitters,
        ops: &ops,
    };

    // Warm-up: fills the plane's adaptive-wait histograms and caches.
    let warm: f64 = if p.scale == Scale::Production {
        0.5
    } else {
        0.2
    };
    // Its requests are checked like any other; only their timings are
    // left out.
    for lane in stream.phase(0, warm.min(p.seconds), None).0 {
        out.outcomes.merge(lane.outcomes);
        for e in lane.errors {
            out.fail(e);
        }
    }

    let untraced_secs = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let snap0 = tiptoe_obs::metrics().snapshot();
    let cpu0 = cpu_time();
    let (lanes, wall) = stream.phase(1, untraced_secs, None);
    let cpu = cpu_time().saturating_sub(cpu0);
    let mut coalesce = Coalesce::default();
    coalesce.add(&tiptoe_obs::metrics().snapshot().delta(&snap0));

    let mut latency = Vec::new();
    let mut modeled = Vec::new();
    let mut tally = Faults::default();
    let mut measured = Outcomes::default();
    for lane in &lanes {
        latency.extend_from_slice(&lane.latency_ms);
        modeled.extend_from_slice(&lane.modeled_ms);
        tally.merge(&lane.faults);
        measured.merge(lane.outcomes);
        for e in &lane.errors {
            out.fail(e.clone());
        }
    }
    out.outcomes.merge(measured);
    out.labels.insert("submitters", submitters.to_string());
    out.labels.insert("pool", pool.len().to_string());

    if let Some(tr) = &tracer {
        let (traced, _) = stream.phase(2, p.seconds - untraced_secs, Some(tr));
        // The no-plane baseline: direct scans of the pool's ciphertexts,
        // one at a time after the load, so no submitter shares the
        // memory bus with them.
        for req in pool.iter().cycle().take(DIRECT_SCANS) {
            let op = ops.fetch_add(1, Ordering::Relaxed);
            tr.root("core.ranking.answer_direct", op, || {
                inst.ranking.answer(&req.rank_ct)
            });
        }
        for lane in &traced {
            out.outcomes.merge(lane.outcomes);
            for e in &lane.errors {
                out.fail(e.clone());
            }
        }
        let spans = tr.spans();
        let roots = ["query.token", "query.online", "serve.request"];
        put_layers(&spans, &roots, &mut out.layers);
        // A fault-tolerant client keeps the shard tokens apart: on
        // `faults` nothing is combined.
        out.layers
            .entry("underhood.combine_tokens_us")
            .or_insert(0.0);
        put_direct_scan(&inst, &spans, &mut out.layers);
        coalesce.report(measured.attempted, &mut out.layers);
        tally.report(&mut out.layers);
        out.layers
            .insert("net.fault.modeled_ms_p50", median(&modeled));
        out.layers.insert(
            "proc.cpu_ms_per_op",
            ratio(ms(cpu), measured.attempted as f64),
        );
        out.layers.insert(
            "token_ms_p50",
            median(&trace::root_us(&spans, "query.token")) / 1e3,
        );
        out.layers
            .insert("trace.coverage", trace::coverage(&spans, &roots));
        let latency_us: Vec<f64> = latency.iter().map(|v| v.1 * 1e3).collect();
        out.layers.insert(
            "trace.overhead_pct",
            overhead_pct(&trace::root_us(&spans, "serve.request"), &latency_us),
        );
        out.spans = Some(tr.dump_json());
    } else {
        let w = windowed(&latency, untraced_secs, WINDOWS);
        out.e2e.insert("latency_ms_p50", (w.p50, "ms"));
        out.put_tail(w.tail);
        out.e2e.insert("ops_per_s", (w.ops_per_s, "1/s"));
        out.labels.insert("windows", WINDOWS.to_string());
        // Coalescer activity, to explain moves in the metrics above.
        let mut diag = BTreeMap::new();
        coalesce.report(measured.attempted, &mut diag);
        for (k, v) in diag {
            out.labels.insert(k, format!("{v:.3}"));
        }
        out.labels.insert(
            "ops_per_s.whole_run",
            format!(
                "{:.3}",
                ratio(measured.attempted as f64, wall.as_secs_f64())
            ),
        );
        let req = &pool[0];
        let bytes = req.rank_ct.byte_len()
            + (inst.ranking.rows() * 8) as u64
            + req.url_ct.byte_len()
            + (inst.url.database().rows() * 4) as u64;
        out.e2e.insert("bytes_per_query", (bytes as f64, "B"));
    }
    out
}
