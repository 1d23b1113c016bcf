//! The Tiptoe client (paper §3.2 "Search queries with Tiptoe").
//!
//! A client downloads the embedding model, the PCA projection, and the
//! cluster centroids once; fetches single-use query tokens ahead of
//! time (§6.3); and then, per query:
//!
//! 1. embeds its query string locally, projects (PCA), normalizes, and
//!    quantizes it;
//! 2. selects the nearest cluster `i*` from its local centroid cache;
//! 3. uploads `Enc(q̃)` with the query in block `i*` to the ranking
//!    service and decrypts the returned per-member scores with a
//!    ranking token;
//! 4. computes which URL batch holds the best-scoring member and
//!    retrieves it from the URL service via PIR with a URL token;
//! 5. outputs the top-`k` URLs of that batch, ordered by score.
//!
//! Every message's exact size is recorded in the instance's
//! [`tiptoe_net::Transcript`] and summarized per query in
//! [`QueryCost`].

use std::collections::VecDeque;
use std::time::Duration;

use rand::rngs::StdRng;
use tiptoe_embed::pca::Pca;
use tiptoe_embed::quantize::Quantizer;
use tiptoe_embed::vector::normalize;
use tiptoe_embed::Embedder;
use tiptoe_math::rng::{derive_seed, seeded_rng};
use tiptoe_net::{
    timed, DeadlineBudget, FaultPlan, FaultReport, Ledger, LinkModel, ParallelTiming, Phase,
    ServeError,
};
use tiptoe_obs::recorder::{self, result_code, EventKind};
use tiptoe_pir::PirClient;
use tiptoe_underhood::{
    combine_decoded_subset, combine_partial_tokens, ClientKey, DecodedToken, EncryptedSecret,
};

use crate::batch::ClientMetadata;
use crate::instance::TiptoeInstance;
use crate::serving::ServingPlane;

/// One search result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedUrl {
    /// Original document ID.
    pub doc: u32,
    /// Document URL.
    pub url: String,
    /// Approximate inner-product score (dequantized).
    pub score: f32,
}

/// Exact per-phase costs of one query (the columns of Table 7).
#[derive(Debug, Clone, Default)]
pub struct QueryCost {
    /// Token-phase upload (the encrypted secret; pre-query).
    pub token_up: u64,
    /// Token-phase download (ranking + URL tokens; pre-query).
    pub token_down: u64,
    /// Ranking upload (the query ciphertext).
    pub rank_up: u64,
    /// Ranking download (encrypted scores).
    pub rank_down: u64,
    /// URL-service upload.
    pub url_up: u64,
    /// URL-service download.
    pub url_down: u64,
    /// Server time for token generation (pre-query).
    pub token_server: ParallelTiming,
    /// Server time for the ranking answer.
    pub rank_server: ParallelTiming,
    /// Server time for the PIR answer.
    pub url_server: ParallelTiming,
    /// Client-local compute on the critical path (embed, select,
    /// encrypt, decrypt, decompress).
    pub client_time: Duration,
    /// Client-local compute off the critical path (key generation,
    /// token decode).
    pub client_preproc: Duration,
}

impl QueryCost {
    /// Bytes on the latency-critical path (after the query is known).
    pub fn online_bytes(&self) -> u64 {
        self.rank_up + self.rank_down + self.url_up + self.url_down
    }

    /// Bytes exchanged before the query is known.
    pub fn offline_bytes(&self) -> u64 {
        self.token_up + self.token_down
    }

    /// Total traffic (the paper's "56.9 MiB, 74% ahead of time").
    pub fn total_bytes(&self) -> u64 {
        self.online_bytes() + self.offline_bytes()
    }

    /// Total server compute, in core-seconds.
    pub fn server_core_seconds(&self) -> f64 {
        (self.token_server.cpu + self.rank_server.cpu + self.url_server.cpu).as_secs_f64()
    }

    /// Client-perceived latency under a link model: the ranking phase
    /// plus the URL phase plus local client work (the token phase
    /// happened before the user typed the query).
    pub fn perceived_latency(&self, link: &LinkModel) -> Duration {
        link.phase_latency(self.rank_up, self.rank_down, self.rank_server.wall)
            + link.phase_latency(self.url_up, self.url_down, self.url_server.wall)
            + self.client_time
    }

    /// Latency of the (pre-query) token phase.
    pub fn token_latency(&self, link: &LinkModel) -> Duration {
        link.phase_latency(self.token_up, self.token_down, self.token_server.wall)
            + self.client_preproc
    }
}

/// The ranking-token material a client holds per query: the combined
/// form on the fault-oblivious path, or one decoded token per shard on
/// the fault-tolerant path (so decryption can proceed over any
/// surviving subset — see [`combine_decoded_subset`]).
enum RankingTokens {
    Combined(DecodedToken<u64>),
    PerShard(Vec<DecodedToken<u64>>),
}

/// A prefetched, single-use token pair (ranking + URL) together with
/// the **fresh** client key it was generated for. §6.3: a token — and
/// therefore its inner secret — is consumed by exactly one query;
/// reusing the secret for a second query ciphertext would break
/// semantic security, so every fetch samples a new key.
struct PreparedTokens {
    key: ClientKey,
    rank: RankingTokens,
    url: DecodedToken<u32>,
    cost: QueryCost,
}

/// What degraded about a fault-tolerant query (present on
/// [`SearchResults`] iff the instance's fault policy is enabled).
#[derive(Debug, Clone, Default)]
pub struct DegradedQuery {
    /// Clusters whose ranking scores never arrived (their documents
    /// cannot appear in `hits` this query).
    pub missing_clusters: Vec<usize>,
    /// The cluster this query searched was among the missing: the
    /// returned hits carry zero scores and the query should be retried.
    pub searched_cluster_missing: bool,
    /// The URL server never delivered: `hits` is empty.
    pub url_failed: bool,
    /// Retry/timeout/hedge accounting for the ranking fan-out.
    pub rank_report: FaultReport,
    /// Retry/timeout/hedge accounting for the URL phase.
    pub url_report: FaultReport,
}

/// Results of one private search.
#[derive(Debug, Clone)]
pub struct SearchResults {
    /// The cluster the client searched (its own secret; exposed for
    /// evaluation only).
    pub cluster: usize,
    /// Top URLs from the fetched batch, best first.
    pub hits: Vec<RankedUrl>,
    /// Exact costs of this query.
    pub cost: QueryCost,
    /// Degraded-mode accounting: `Some` iff the instance's fault
    /// policy is enabled (even on all-healthy queries, so callers can
    /// check `missing_clusters.is_empty()` uniformly).
    pub degraded: Option<DegradedQuery>,
}

/// The Tiptoe client state.
pub struct TiptoeClient {
    /// Inner secret dimension for fresh per-token keys.
    max_n: usize,
    pca: Pca,
    meta: ClientMetadata,
    quant: Quantizer,
    rng: StdRng,
    tokens: VecDeque<PreparedTokens>,
    /// One-time setup download (model + centroids + PCA).
    pub setup_bytes: u64,
}

impl TiptoeClient {
    /// Creates a client: generates keys and "downloads" the metadata
    /// bundle (recorded in the instance transcript under `setup`).
    pub fn new<E: Embedder>(instance: &TiptoeInstance<E>, seed: u64) -> Self {
        let meta = instance.artifacts.meta.clone();
        let setup_bytes = meta.setup_download_bytes();
        instance.transcript.record_down(Phase::Setup, setup_bytes);
        let rng = seeded_rng(derive_seed(seed, 0xc11e27));
        // One inner ternary secret serves both services per token
        // (§A.3); a *fresh* one is sampled per token (§6.3). Its
        // dimension is the larger of the two secret dimensions.
        let max_n = instance.config.rank_lwe.n.max(instance.config.url_lwe.n);
        Self {
            max_n,
            pca: instance.artifacts.pca.clone(),
            meta,
            quant: instance.config.quantizer(),
            rng,
            tokens: VecDeque::new(),
            setup_bytes,
        }
    }

    /// Number of unused prefetched tokens.
    pub fn tokens_available(&self) -> usize {
        self.tokens.len()
    }

    /// Prefetches one query token pair (§6.3, off the critical path):
    /// uploads the encrypted secret once and downloads the ranking and
    /// URL tokens. Returns the cost of the fetch.
    pub fn fetch_token<E: Embedder>(&mut self, instance: &TiptoeInstance<E>) -> QueryCost {
        self.fetch_token_via(instance, None)
    }

    /// [`TiptoeClient::fetch_token`] through a serving plane: the
    /// server-side hint evaluation goes through the plane's coalescing
    /// token lane, so token fetches issued by concurrent clients share
    /// one pass over each service's hint polynomials. Tokens are
    /// bit-identical to the direct fetch.
    pub fn fetch_token_via<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        serving: Option<&ServingPlane<'_>>,
    ) -> QueryCost {
        // A *standalone* prefetch (one happening outside a query
        // round, e.g. in the background between queries) is its own
        // tracing boundary: without this, its spans — notably the
        // per-shard `rank.token_shard` fan-out — would pile into the
        // previous query's buffer and never be exported. The query
        // scope also gives the prefetch its own flight-recorder
        // timeline (adopting the surrounding query's when nested).
        let standalone = tiptoe_obs::enabled() && tiptoe_obs::current_span().is_none();
        let _scope = tiptoe_obs::query_scope();
        let cost = self.fetch_token_inner(instance, serving);
        if standalone {
            tiptoe_obs::export::export_query_artifacts();
        }
        cost
    }

    /// The token fetch proper (see [`Self::fetch_token`]).
    fn fetch_token_inner<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        serving: Option<&ServingPlane<'_>>,
    ) -> QueryCost {
        let _span = tiptoe_obs::span("client.token_fetch");
        let mut cost = QueryCost::default();
        let uh_rank = instance.ranking.underhood();
        let uh_url = instance.url.underhood();

        // A fresh composite key per token (§6.3), then the encrypted
        // inner secret; both services evaluate their hints over the
        // same upload (§A.3).
        let ((key, es), t_enc) = timed(|| {
            let key = ClientKey::generate(uh_rank, self.max_n, &mut self.rng);
            let es = EncryptedSecret::encrypt(uh_rank, &key, &mut self.rng);
            (key, es)
        });
        cost.token_up = es.byte_len();
        instance.transcript.record_up(Phase::Token, cost.token_up);

        // The server expands the upload once and reuses it for both
        // services (§A.3's shared-secret-key optimization) and for
        // every ranking shard. On the fault-tolerant path the
        // coordinator skips combining the per-shard ranking tokens:
        // the client downloads all `W` of them (a `W×` token-phase
        // download) so it can later decrypt over any surviving subset.
        let (expanded, t_expand) = timed(|| es.expand(uh_rank));
        let fault_tolerant = instance.config.fault_policy.enabled;
        let (rank_tokens, url_token, t_tokens) = if let Some(plane) = serving {
            // Coalesced fetch: this client's expanded secret is
            // batched with concurrently arriving clients' and both
            // services' hint evaluations are flushed through the
            // batched kernels. The coordinator-side part sum of the
            // combined path applies to the returned per-shard parts.
            let (bundle, wall) = timed(|| plane.generate_tokens(std::sync::Arc::new(expanded)));
            let rank_tokens = if fault_tolerant {
                bundle.rank_parts
            } else {
                vec![combine_partial_tokens(uh_rank, &bundle.rank_parts)]
            };
            (rank_tokens, bundle.url, ParallelTiming { wall, cpu: wall })
        } else {
            let (rank_tokens, t_rank) = if fault_tolerant {
                instance.ranking.generate_token_parts_expanded(&expanded)
            } else {
                let (combined, t) = instance.ranking.generate_token_expanded(&expanded);
                (vec![combined], t)
            };
            let (url_token, t_url) = instance.url.generate_token_expanded(&expanded);
            (rank_tokens, url_token, t_rank.then(t_url))
        };
        let mut t_tokens = t_tokens;
        t_tokens.cpu += t_expand;
        t_tokens.wall += t_expand;
        cost.token_server = t_tokens;
        cost.token_down =
            rank_tokens.iter().map(|t| t.byte_len()).sum::<u64>() + url_token.byte_len();
        instance.transcript.record_down(Phase::Token, cost.token_down);

        let (decoded, t_decode) = timed(|| {
            let _span = tiptoe_obs::span("client.token_decrypt");
            let rank = if fault_tolerant {
                RankingTokens::PerShard(
                    rank_tokens.iter().map(|t| uh_rank.decode_token::<u64>(&key, t)).collect(),
                )
            } else {
                RankingTokens::Combined(uh_rank.decode_token::<u64>(&key, &rank_tokens[0]))
            };
            let url = uh_url.decode_token::<u32>(&key, &url_token);
            (rank, url)
        });
        cost.client_preproc = t_enc + t_decode;

        self.tokens.push_back(PreparedTokens {
            key,
            rank: decoded.0,
            url: decoded.1,
            cost: cost.clone(),
        });
        cost
    }

    /// Multi-probe private search (paper §8.2: "Querying more clusters
    /// could improve search quality, but would substantially increase
    /// Tiptoe's costs"): runs `probes` independent single-cluster
    /// searches against the client's `probes` nearest centroids and
    /// merges the results. Costs scale linearly with `probes` (each
    /// probe consumes one token and one full protocol round).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `probes == 0`.
    pub fn search_multiprobe<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        query: &str,
        k: usize,
        probes: usize,
    ) -> SearchResults {
        assert!(probes > 0, "need at least one probe");
        // Rank the centroids once, then force each probe's cluster by
        // temporarily masking the centroid cache.
        let raw = instance.embedder.embed_text(query);
        let mut q = self.pca.project(&raw);
        normalize(&mut q);
        let order = ranked_centroids(&self.meta.centroids, &q, probes);

        let mut merged: Vec<RankedUrl> = Vec::new();
        let mut total_cost = QueryCost::default();
        let first_cluster = order.first().copied().unwrap_or(0);
        let mut degraded: Option<DegradedQuery> = None;
        for &cluster in &order {
            let results = self
                .search_in_cluster(instance, query, k, Some(cluster), None, None, None)
                .expect("unbudgeted search cannot fail");
            total_cost = add_costs(&total_cost, &results.cost);
            merged.extend(results.hits);
            degraded = merge_degraded(degraded, results.degraded);
        }
        merged.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
        // A dual-assigned document can surface from two probes; keep
        // its best-scoring occurrence only.
        let mut seen = std::collections::HashSet::new();
        merged.retain(|h| seen.insert(h.doc));
        merged.truncate(k);
        SearchResults { cluster: first_cluster, hits: merged, cost: total_cost, degraded }
    }

    /// Executes one private search, consuming one token (fetching one
    /// first if none is cached).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn search<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        query: &str,
        k: usize,
    ) -> SearchResults {
        self.search_in_cluster(instance, query, k, None, None, None, None)
            .expect("unbudgeted search cannot fail")
    }

    /// [`TiptoeClient::search`] through a serving plane: shard compute
    /// is routed through the plane's batch coalescers, so searches
    /// issued by concurrent clients share database scans, and results
    /// are bit-identical to [`TiptoeClient::search`]. The query first
    /// passes the plane's admission control (shed queries return
    /// [`ServeError::Overloaded`] *before* consuming a token or moving
    /// any bytes) and then runs under the plane's per-query deadline
    /// budget, so a stalled lane or exhausted budget surfaces as a
    /// typed [`ServeError::DeadlineExceeded`] instead of blocking.
    /// With admission control disabled on the plane (the default)
    /// neither layer is active and the call cannot fail on a healthy
    /// deployment.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`], [`ServeError::DeadlineExceeded`],
    /// [`ServeError::LaneFailed`], or [`ServeError::ShardFailed`]. A
    /// shed query consumed nothing; a failed query consumed its token
    /// (the paper's tokens are single-use) but returned no partial
    /// answer.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn try_search_served<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        query: &str,
        k: usize,
        serving: &ServingPlane<'_>,
    ) -> Result<SearchResults, ServeError> {
        self.admitted_search(instance, query, k, None, serving)
    }

    /// [`TiptoeClient::try_search_served`] under an explicit fault
    /// plan: admission control and deadline budgets compose with the
    /// plan, so the plane sheds excess load while the fault-aware
    /// dispatcher (and the plane's circuit breakers, if enabled)
    /// handle the injected faults underneath, and the healthy shards'
    /// compute is still coalesced.
    ///
    /// # Errors
    ///
    /// See [`TiptoeClient::try_search_served`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the instance's fault policy is disabled.
    pub fn try_search_served_with_faults<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        query: &str,
        k: usize,
        plan: &FaultPlan,
        serving: &ServingPlane<'_>,
    ) -> Result<SearchResults, ServeError> {
        assert!(
            instance.config.fault_policy.enabled,
            "try_search_served_with_faults needs an instance with fault_policy.enabled"
        );
        self.admitted_search(instance, query, k, Some(plan), serving)
    }

    /// One admission-controlled protocol round: admit (or shed), then
    /// run the query under the plane's deadline budget while holding
    /// the admission permit.
    fn admitted_search<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        query: &str,
        k: usize,
        plan: Option<&FaultPlan>,
        serving: &ServingPlane<'_>,
    ) -> Result<SearchResults, ServeError> {
        // The query boundary opens *before* admission so a shed query
        // still owns a flight-recorder timeline (the shed event plus
        // its typed outcome); the nested scope inside
        // `search_in_cluster` adopts this one.
        let scope = tiptoe_obs::query_scope();
        let permit = match serving.admit() {
            Ok(p) => p,
            Err(e) => {
                // Shed before any wire bytes: the transcript records
                // the rejection itself, never a partial phase.
                instance.transcript.record_shed();
                let (code, b, c) = e.recorder_code();
                recorder::record(EventKind::Finished, code, b, c, 0);
                recorder::dump_on_error(scope.id(), "admission shed");
                return Err(e);
            }
        };
        let budget = serving.query_budget();
        let results =
            self.search_in_cluster(instance, query, k, None, plan, Some(serving), budget.as_ref());
        drop(permit);
        results
    }

    /// One private search under an explicit fault plan: the query runs
    /// through the fault-aware dispatcher (timeouts, retries, hedging
    /// per the instance's [`tiptoe_net::FaultPolicy`]) and completes in
    /// degraded mode over whatever shards survive.
    /// [`SearchResults::degraded`] reports exactly which clusters went
    /// unanswered.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the instance's fault policy is disabled
    /// (the policy governs token shape at fetch time, so it cannot be
    /// chosen per query).
    pub fn search_with_faults<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        query: &str,
        k: usize,
        plan: &FaultPlan,
    ) -> SearchResults {
        assert!(
            instance.config.fault_policy.enabled,
            "search_with_faults needs an instance with fault_policy.enabled"
        );
        self.search_in_cluster(instance, query, k, None, Some(plan), None, None)
            .expect("unbudgeted search cannot fail")
    }

    /// One protocol round, optionally forcing the searched cluster
    /// (used by multi-probe; `None` selects the nearest centroid).
    ///
    /// This is also the tracing boundary: when tracing is enabled,
    /// each round clears the span buffer, runs under a `client.query`
    /// root span, and exports the Chrome-trace/metrics/folded
    /// artifacts to the configured path (so the file always holds the
    /// most recent query).
    #[allow(clippy::too_many_arguments)]
    fn search_in_cluster<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        query: &str,
        k: usize,
        force_cluster: Option<usize>,
        plan: Option<&FaultPlan>,
        serving: Option<&ServingPlane<'_>>,
        budget: Option<&DeadlineBudget>,
    ) -> Result<SearchResults, ServeError> {
        let scope = tiptoe_obs::query_scope();
        let results = {
            let _root = tiptoe_obs::span("client.query");
            self.run_query(instance, query, k, force_cluster, plan, serving, budget)
        };
        // The typed outcome closes this query's flight-recorder
        // timeline; any failure auto-dumps the full timeline so the
        // evidence survives even if nobody is watching.
        match &results {
            Ok(_) => recorder::record(EventKind::Finished, result_code::OK, 0, 0, 0),
            Err(e) => {
                let (code, b, c) = e.recorder_code();
                recorder::record(EventKind::Finished, code, b, c, 0);
                recorder::dump_on_error(scope.id(), "client.query failed");
            }
        }
        tiptoe_obs::export::export_query_artifacts();
        results
    }

    /// The protocol round proper (see [`Self::search_in_cluster`]).
    #[allow(clippy::too_many_arguments)]
    fn run_query<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        query: &str,
        k: usize,
        force_cluster: Option<usize>,
        plan: Option<&FaultPlan>,
        serving: Option<&ServingPlane<'_>>,
        budget: Option<&DeadlineBudget>,
    ) -> Result<SearchResults, ServeError> {
        assert!(k > 0, "k must be positive");
        if self.tokens.is_empty() {
            // A served query fetches its token through the plane's
            // coalescing token lane; direct queries fetch directly.
            self.fetch_token_via(instance, serving);
        }
        let mut prepared = self.tokens.pop_front().expect("token fetched above");
        let mut cost = prepared.cost.clone();

        // --- Client: embed, reduce, select cluster, encrypt (step 1).
        let ((ct, cluster), t_embed) = timed(|| {
            let embed_span = tiptoe_obs::span("client.embed");
            let raw = instance.embedder.embed_text(query);
            let mut q = self.pca.project(&raw);
            normalize(&mut q);
            drop(embed_span);
            let cluster = {
                let _span = tiptoe_obs::span("client.route");
                force_cluster.unwrap_or_else(|| nearest_centroid(&self.meta.centroids, &q))
            };
            let _span = tiptoe_obs::span("client.encrypt");
            let q_zp = self.quant.to_zp(&q);
            let d = self.meta.d;
            let mut v = vec![0u64; self.meta.ranking_upload_dim()];
            for (j, &x) in q_zp.iter().enumerate() {
                v[cluster * d + j] = x as u64;
            }
            let ct = instance.ranking.underhood().encrypt_query::<u64, _>(
                &prepared.key,
                &instance.ranking.public_matrix(),
                &v,
                &mut self.rng,
            );
            (ct, cluster)
        });
        // --- Ranking service (step 2): one typed dispatch for every
        // serving mode (healthy, fault-aware, coalesced). Sizes are
        // fixed by the protocol shape — a degraded query must keep
        // the same observable wire footprint as a healthy one.
        cost.rank_up = ct.byte_len();
        cost.rank_down = (instance.ranking.rows() * 8) as u64;
        let policy = &instance.config.fault_policy;
        let benign = FaultPlan::none();
        let plan = plan.unwrap_or(&benign);
        let rank_span = tiptoe_obs::span("client.rank_phase");
        let ledger = Ledger {
            transcript: &instance.transcript,
            phase: Phase::Ranking,
            retry_phase: Phase::RankingRetries,
            up_bytes: cost.rank_up,
            down_bytes: cost.rank_down,
        };
        let ranked =
            instance.ranking.try_dispatch_answer(&ct, plan, policy, Some(&ledger), serving, budget)?;
        cost.rank_server = ranked.timing;
        let applied = ranked.response;
        let survivors = ranked.survivors;
        let mut degraded = ranked.report.map(|report| {
            let missing_clusters = instance.ranking.missing_clusters(&survivors);
            DegradedQuery {
                searched_cluster_missing: missing_clusters.contains(&cluster),
                missing_clusters,
                url_failed: false,
                rank_report: report,
                url_report: FaultReport::default(),
            }
        });
        drop(rank_span);

        // --- Client: decrypt scores, pick the best member. On the
        // degraded path the per-shard tokens of the *surviving* shards
        // are summed; if no shard answered, every score is zero.
        let ((scores, best_row), t_rankdec) = timed(|| {
            let _span = tiptoe_obs::span("client.rank_decrypt");
            let uh_rank = instance.ranking.underhood();
            let raw = match &mut prepared.rank {
                RankingTokens::Combined(token) => uh_rank.decrypt(token, &applied),
                RankingTokens::PerShard(parts) => {
                    if survivors.iter().any(|&ok| ok) {
                        let mut subset = combine_decoded_subset(parts, &survivors);
                        uh_rank.decrypt(&mut subset, &applied)
                    } else {
                        vec![0u64; applied.len()]
                    }
                }
            };
            let n_members = self.meta.cluster_sizes[cluster] as usize;
            let scores: Vec<i64> = raw
                .iter()
                .take(n_members)
                .map(|&s| self.quant.encoder().decode_signed(s))
                .collect();
            let best_row = scores
                .iter()
                .enumerate()
                .max_by_key(|(_, &s)| s)
                .map(|(i, _)| i)
                .unwrap_or(0);
            (scores, best_row)
        });

        // --- URL service (step 3): fetch the batch of the best member.
        let url_span = tiptoe_obs::span("client.url_phase");
        let batch_idx = self.meta.batch_of(cluster, best_row);
        let uh_url = instance.url.underhood();
        let pir_client = PirClient::new(uh_url, &prepared.key);
        let (url_ct, t_urlenc) = timed(|| {
            pir_client.query(
                &instance.url.public_matrix(),
                self.meta.num_batches,
                batch_idx,
                &mut self.rng,
            )
        });
        cost.url_up = url_ct.byte_len();
        // A fixed-size phase regardless of outcome: accounting (and
        // the observable wire footprint) must not depend on faults.
        cost.url_down = (instance.url.database().rows() * 4) as u64;
        let url_ledger = Ledger {
            transcript: &instance.transcript,
            phase: Phase::Url,
            retry_phase: Phase::UrlRetries,
            up_bytes: cost.url_up,
            down_bytes: cost.url_down,
        };
        // The URL server shares the plan's address space at index `W`,
        // after the ranking shards.
        let shard_base = instance.ranking.num_shards();
        let fetched = instance.url.try_dispatch_answer(
            &url_ct,
            shard_base,
            plan,
            policy,
            Some(&url_ledger),
            serving,
            budget,
        )?;
        cost.url_server = fetched.timing;
        let answer = fetched.response;
        if let (Some(report), Some(dq)) = (fetched.report, degraded.as_mut()) {
            dq.url_failed = answer.is_none();
            dq.url_report = report;
        }
        drop(url_span);

        // --- Client: recover the record and assemble ranked URLs. A
        // failed URL phase (or a malformed record) degrades to an
        // empty hit list instead of crashing the client.
        let (hits, t_recover) = timed(|| {
            let _span = tiptoe_obs::span("client.recover");
            let Some(answer) = answer else { return Vec::new() };
            let Ok(record) =
                pir_client.recover(instance.url.database(), &mut prepared.url, &answer)
            else {
                return Vec::new();
            };
            // tzip streams are self-delimiting, so the record's zero
            // padding is ignored by the decoder.
            let entries =
                crate::batch::CompressedUrlBatch::decode_payload(&record).unwrap_or_default();
            // Rows covered by this batch inside the cluster.
            let upb = self.meta.urls_per_batch as usize;
            let first_row = (best_row / upb) * upb;
            let scale2 =
                (self.quant.encoder().scale() * self.quant.encoder().scale()) as f32;
            let mut hits: Vec<RankedUrl> = entries
                .into_iter()
                .enumerate()
                .filter_map(|(offset, (doc, url))| {
                    let score = *scores.get(first_row + offset)?;
                    Some(RankedUrl { doc, url, score: score as f32 / scale2 })
                })
                .collect();
            hits.sort_by(|a, b| {
                b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal)
            });
            hits.truncate(k);
            hits
        });

        cost.client_time = t_embed + t_rankdec + t_urlenc + t_recover;
        Ok(SearchResults { cluster, hits, cost, degraded })
    }
}

/// Accumulates per-probe degraded-mode reports for multi-probe
/// searches: missing clusters union, flags OR, counters sum.
fn merge_degraded(
    acc: Option<DegradedQuery>,
    next: Option<DegradedQuery>,
) -> Option<DegradedQuery> {
    match (acc, next) {
        (None, next) => next,
        (acc, None) => acc,
        (Some(mut acc), Some(next)) => {
            for c in next.missing_clusters {
                if !acc.missing_clusters.contains(&c) {
                    acc.missing_clusters.push(c);
                }
            }
            acc.searched_cluster_missing |= next.searched_cluster_missing;
            acc.url_failed |= next.url_failed;
            acc.rank_report.retries += next.rank_report.retries;
            acc.rank_report.timeouts += next.rank_report.timeouts;
            acc.rank_report.corrupted += next.rank_report.corrupted;
            acc.rank_report.hedges += next.rank_report.hedges;
            acc.rank_report.wasted_response_bytes += next.rank_report.wasted_response_bytes;
            acc.rank_report.timing = acc.rank_report.timing.then(next.rank_report.timing);
            acc.url_report.retries += next.url_report.retries;
            acc.url_report.timeouts += next.url_report.timeouts;
            acc.url_report.corrupted += next.url_report.corrupted;
            acc.url_report.hedges += next.url_report.hedges;
            acc.url_report.wasted_response_bytes += next.url_report.wasted_response_bytes;
            acc.url_report.timing = acc.url_report.timing.then(next.url_report.timing);
            Some(acc)
        }
    }
}

/// The `k` nearest centroids, best first.
fn ranked_centroids(centroids: &[Vec<f32>], q: &[f32], k: usize) -> Vec<usize> {
    let mut scored: Vec<(f32, usize)> = centroids
        .iter()
        .enumerate()
        .map(|(i, c)| (tiptoe_embed::vector::dot(c, q), i))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().take(k).map(|(_, i)| i).collect()
}

/// Component-wise sum of two per-query cost records.
fn add_costs(a: &QueryCost, b: &QueryCost) -> QueryCost {
    QueryCost {
        token_up: a.token_up + b.token_up,
        token_down: a.token_down + b.token_down,
        rank_up: a.rank_up + b.rank_up,
        rank_down: a.rank_down + b.rank_down,
        url_up: a.url_up + b.url_up,
        url_down: a.url_down + b.url_down,
        token_server: a.token_server.then(b.token_server),
        rank_server: a.rank_server.then(b.rank_server),
        url_server: a.url_server.then(b.url_server),
        client_time: a.client_time + b.client_time,
        client_preproc: a.client_preproc + b.client_preproc,
    }
}

fn nearest_centroid(centroids: &[Vec<f32>], q: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let s = tiptoe_embed::vector::dot(c, q);
        if s > best_score {
            best_score = s;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptoe_corpus::synth::{generate, CorpusConfig};
    use tiptoe_embed::text::TextEmbedder;

    use crate::config::TiptoeConfig;

    fn build_instance() -> TiptoeInstance<TextEmbedder> {
        let corpus = generate(&CorpusConfig::small(200, 21), 20);
        let config = TiptoeConfig::test_small(200, 21);
        let embedder = TextEmbedder::new(config.d_embed, 21, 0);
        TiptoeInstance::build(&config, embedder, &corpus)
    }

    #[test]
    fn end_to_end_search_returns_ranked_urls() {
        let instance = build_instance();
        let corpus = generate(&CorpusConfig::small(200, 21), 20);
        let mut client = instance.new_client(1);
        let query = &corpus.queries[0];
        let results = client.search(&instance, &query.text, 10);
        assert!(!results.hits.is_empty());
        for w in results.hits.windows(2) {
            assert!(w[0].score >= w[1].score, "hits not sorted");
        }
        for hit in &results.hits {
            assert!(hit.url.starts_with("https://"), "bad URL {}", hit.url);
            // The URL matches the original document's URL.
            assert_eq!(hit.url, corpus.docs[hit.doc as usize].url);
        }
    }

    #[test]
    fn search_costs_are_recorded() {
        let instance = build_instance();
        let mut client = instance.new_client(2);
        let results = client.search(&instance, "museum history archive", 5);
        let c = &results.cost;
        assert!(c.token_up > 0 && c.token_down > 0);
        assert!(c.rank_up > 0 && c.rank_down > 0);
        assert!(c.url_up > 0 && c.url_down > 0);
        assert_eq!(c.total_bytes(), c.online_bytes() + c.offline_bytes());
        assert!(c.server_core_seconds() > 0.0);
        let link = LinkModel::paper();
        assert!(c.perceived_latency(&link) >= Duration::from_millis(100), "two RTTs minimum");
        // The transcript saw the same phases.
        use tiptoe_net::Direction;
        assert_eq!(instance.transcript.phase_total(Phase::Ranking, Direction::Upload), c.rank_up);
        assert_eq!(instance.transcript.phase_total(Phase::Url, Direction::Download), c.url_down);
    }

    #[test]
    fn tokens_are_single_use_and_prefetchable() {
        let instance = build_instance();
        let mut client = instance.new_client(3);
        client.fetch_token(&instance);
        client.fetch_token(&instance);
        assert_eq!(client.tokens_available(), 2);
        let _ = client.search(&instance, "health doctor", 3);
        assert_eq!(client.tokens_available(), 1);
        let _ = client.search(&instance, "travel island", 3);
        assert_eq!(client.tokens_available(), 0);
        // Next search auto-fetches.
        let _ = client.search(&instance, "recipe kitchen", 3);
        assert_eq!(client.tokens_available(), 0);
    }

    #[test]
    fn private_search_finds_the_planted_answer_often() {
        // End-to-end quality smoke test. Cluster selection is Tiptoe's
        // dominant quality bottleneck (the paper's cluster-hit rate is
        // ~35%, §8.2), so for a *smoke* test we use few, large clusters
        // to keep the hit rate high, and large batches so the answer's
        // URL travels with the batch the client fetches.
        let corpus = generate(&CorpusConfig::small(200, 22), 30);
        let mut config = TiptoeConfig::test_small(200, 22);
        config.cluster.target_size = 64;
        config.urls_per_batch = 96;
        let embedder = TextEmbedder::new(config.d_embed, 22, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let mut client = instance.new_client(4);
        let mut found = 0;
        for q in corpus.queries.iter().take(10) {
            let results = client.search(&instance, &q.text, 100);
            if results.hits.iter().any(|h| h.doc == q.relevant) {
                found += 1;
            }
        }
        assert!(found >= 5, "only {found}/10 answers found in top-100");
    }

    #[test]
    fn multiprobe_improves_or_matches_single_probe() {
        let corpus = generate(&CorpusConfig::small(200, 23), 20);
        let config = TiptoeConfig::test_small(200, 23);
        let embedder = TextEmbedder::new(config.d_embed, 23, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let mut client = instance.new_client(6);
        let mut single_found = 0;
        let mut multi_found = 0;
        for q in corpus.queries.iter().take(8) {
            let single = client.search(&instance, &q.text, 20);
            let multi = client.search_multiprobe(&instance, &q.text, 20, 3);
            if single.hits.iter().any(|h| h.doc == q.relevant) {
                single_found += 1;
            }
            if multi.hits.iter().any(|h| h.doc == q.relevant) {
                multi_found += 1;
            }
            // Probing costs ~3x the online traffic.
            assert!(multi.cost.online_bytes() >= single.cost.online_bytes() * 2);
            // No duplicate documents after merging.
            let mut docs: Vec<u32> = multi.hits.iter().map(|h| h.doc).collect();
            docs.sort_unstable();
            docs.dedup();
            assert_eq!(docs.len(), multi.hits.len());
        }
        assert!(multi_found >= single_found, "multi {multi_found} < single {single_found}");
    }

    #[test]
    fn queries_have_identical_wire_footprint() {
        // Query privacy: sizes and message flow must not depend on the
        // query string (Definition 2.1's observable part).
        let instance = build_instance();
        let mut client = instance.new_client(5);
        let a = client.search(&instance, "health doctor symptoms", 5).cost;
        let b = client.search(&instance, "completely different query about planets", 5).cost;
        assert_eq!(a.rank_up, b.rank_up);
        assert_eq!(a.rank_down, b.rank_down);
        assert_eq!(a.url_up, b.url_up);
        assert_eq!(a.url_down, b.url_down);
        assert_eq!(a.token_up, b.token_up);
        assert_eq!(a.token_down, b.token_down);
    }
}
