//! Tiptoe's private ranking service (paper §4).
//!
//! The service holds the Figure 3 matrix `M` (one `d`-wide column
//! block per cluster), vertically partitioned across `W` worker shards
//! (§4.3): worker `w` stores `M_w` and the matching rows of the public
//! LWE matrix `A`. Per query, the coordinator splits the client's
//! ciphertext `ct = (ct_1 ∥ … ∥ ct_W)`, each worker computes
//! `a_w = M_w · ct_w`, and the coordinator returns `Σ_w a_w`.
//!
//! Token generation (§6.3) follows the same sharding: each worker
//! evaluates `Enc2(hint_w · s)` and the coordinator combines partial
//! tokens by ciphertext addition.

use std::time::{Duration, Instant};

use tiptoe_lwe::{scheme, LweCiphertext, MatrixA};
use tiptoe_math::matrix::{DbView, Mat};
use tiptoe_math::nibble::NibbleMat;
use tiptoe_math::rng::derive_seed;
use tiptoe_math::wire::{WireError, WireReader, WireWriter};
use tiptoe_math::zq::Word;
use tiptoe_net::{
    dispatch, DeadlineBudget, DispatchContext, Dispatched, FaultPlan, FaultPolicy, Ledger,
    ParallelTiming, ServeError, Service,
};
use tiptoe_underhood::{
    combine_partial_tokens, EncryptedSecret, ExpandedSecret, QueryToken, ServerHint, Underhood,
};

use crate::batch::IndexArtifacts;
use crate::config::{Parallelism, TiptoeConfig};
use crate::serving::ServingPlane;

/// One shard's database: plain `Z_p` residues or packed signed
/// nibbles (8× smaller; power-of-two `p` only).
enum ShardDb {
    Plain(Mat<u32>),
    Packed(NibbleMat),
}

impl ShardDb {
    fn view(&self) -> DbView<'_> {
        match self {
            ShardDb::Plain(m) => m.into(),
            ShardDb::Packed(m) => m.into(),
        }
    }
}

/// One ranking worker: its vertical matrix shard plus crypto state.
struct RankingShard {
    /// Columns `[col_start, col_start + db.cols())` of the full matrix.
    col_start: usize,
    db: ShardDb,
    /// The raw SimplePIR hint (kept for incremental corpus updates).
    hint: Mat<u64>,
    server_hint: ServerHint,
}

/// The sharded ranking service.
pub struct RankingService {
    shards: Vec<RankingShard>,
    uh: Underhood,
    a: MatrixA,
    rows: usize,
    cols: usize,
    /// Embedding dimension: each cluster owns a contiguous `d`-column
    /// block, so shard/cluster bookkeeping divides by `d`.
    d: usize,
    parallelism: Parallelism,
    /// Wall-clock spent in cryptographic preprocessing at build time.
    pub preproc_time: Duration,
}

/// The ranking fan-out as a typed [`Service`]: shard `w` slices its
/// column range out of the query ciphertext, applies `M_w` (directly
/// or through a coalescing lane of the serving plane), and ships the
/// partial product; the coordinator wrapping-adds the parts. Failed
/// shards contribute zero, so their clusters decode to garbage the
/// client discards.
struct RankAnswer<'a> {
    svc: &'a RankingService,
    via: Option<&'a ServingPlane<'a>>,
    /// The query's deadline budget, when admission control issued one:
    /// coalesced shard compute then runs under `submit_within` so a
    /// stalled lane surfaces as a typed error instead of blocking.
    budget: Option<&'a DeadlineBudget>,
}

impl Service for RankAnswer<'_> {
    type Request = LweCiphertext<u64>;
    type Part = Vec<u64>;
    type Response = Vec<u64>;

    fn outer_span(&self) -> &'static str {
        "rank.answer"
    }

    fn shard_span(&self) -> &'static str {
        "rank.shard"
    }

    fn num_shards(&self) -> usize {
        self.svc.shards.len()
    }

    fn serve(&self, idx: usize, ct: &LweCiphertext<u64>) -> Result<Vec<u8>, ServeError> {
        let shard = &self.svc.shards[idx];
        let chunk = ct.c[shard.col_start..shard.col_start + shard.db.view().cols()].to_vec();
        let part = match (self.via, self.budget) {
            (Some(plane), Some(b)) => plane.rank_chunk_within(idx, chunk, b.check()?)?,
            (Some(plane), None) => plane.rank_chunk(idx, chunk),
            (None, _) => scheme::apply(shard.db.view(), &LweCiphertext { c: chunk }),
        };
        let mut w = WireWriter::new();
        w.put_u64_slice(&part);
        Ok(w.finish())
    }

    fn parse(&self, _idx: usize, payload: &[u8]) -> Result<Vec<u64>, WireError> {
        let mut r = WireReader::new(payload);
        let part = r.get_u64_slice()?;
        r.finish()?;
        if part.len() != self.svc.rows {
            return Err(WireError::Invalid("shard answer has the wrong row count"));
        }
        Ok(part)
    }

    fn combine(&self, parts: Vec<Option<Vec<u64>>>) -> Vec<u64> {
        let mut total = vec![0u64; self.svc.rows];
        for part in parts.into_iter().flatten() {
            for (t, p) in total.iter_mut().zip(part.iter()) {
                *t = t.wadd(*p);
            }
        }
        total
    }

    fn cluster_range(&self) -> Option<(usize, usize)> {
        Some((0, self.svc.cols / self.svc.d))
    }
}

/// Token generation (§6.3) as a typed [`Service`]: each worker
/// evaluates `Enc2(hint_w · s)` over its hint shard; parts stay
/// separate (the combined-token path sums them afterwards).
struct RankToken<'a> {
    svc: &'a RankingService,
}

impl Service for RankToken<'_> {
    type Request = ExpandedSecret;
    type Part = QueryToken;
    type Response = Vec<QueryToken>;

    fn outer_span(&self) -> &'static str {
        "rank.token"
    }

    fn shard_span(&self) -> &'static str {
        "rank.token_shard"
    }

    fn num_shards(&self) -> usize {
        self.svc.shards.len()
    }

    fn serve(&self, idx: usize, es: &ExpandedSecret) -> Result<Vec<u8>, ServeError> {
        // Inside each shard the (chunk, limb) NTT multiply-accumulate
        // units fan out across threads; the token is bit-identical to
        // the sequential evaluation.
        let threads = self.svc.parallelism.num_threads;
        let shard = &self.svc.shards[idx];
        let mut tokens =
            self.svc.uh.generate_token_expanded_many(&shard.server_hint, &[es], threads);
        Ok(tokens.swap_remove(0).encode())
    }

    fn parse(&self, _idx: usize, payload: &[u8]) -> Result<QueryToken, WireError> {
        QueryToken::decode(payload)
    }

    fn combine(&self, parts: Vec<Option<QueryToken>>) -> Vec<QueryToken> {
        parts.into_iter().flatten().collect()
    }
}

impl RankingService {
    /// Builds the service from batch artifacts: shards the matrix,
    /// computes each shard's SimplePIR hint, and prepares the
    /// NTT-ready limb decomposition for token generation.
    pub fn build(config: &TiptoeConfig, artifacts: &IndexArtifacts) -> Self {
        Self::from_matrix(config, &artifacts.rank_matrix)
    }

    /// Builds the service over an explicit Figure 3 matrix (used by
    /// the §9 extensions, which bring their own item corpora).
    pub fn from_matrix(config: &TiptoeConfig, matrix: &Mat<u32>) -> Self {
        let uh = Underhood::with_outer(config.rank_lwe, config.rlwe, config.switch_log_q2);
        let m = matrix.cols();
        let d = config.d_reduced;
        let a = MatrixA::new(derive_seed(config.seed, 0xA124), m, config.rank_lwe.n);
        assert!(
            uh.supports_upload_dim(m),
            "upload dimension {m} exceeds the noise budget of the ranking parameters"
        );
        crate::encrypted::record_noise_budget_gauge("ranking", &uh, m);

        let t0 = Instant::now();
        // Vertical partition on cluster boundaries: shard w covers a
        // contiguous range of clusters (multiples of d columns).
        let c = m / d;
        let w = config.num_shards.min(c.max(1));
        let mut shards = Vec::with_capacity(w);
        let clusters_per = c.div_ceil(w);
        let mut cluster = 0usize;
        while cluster < c {
            let hi = (cluster + clusters_per).min(c);
            let col_start = cluster * d;
            let col_end = hi * d;
            let plain = matrix.column_slice(col_start, col_end);
            let range = a.row_range(col_start, col_end - col_start);
            // Parallel hint computation is bit-identical to the
            // scalar kernel, so the build is deterministic regardless
            // of the thread count.
            let threads = config.parallelism.num_threads;
            let db = if config.pack_ranking_db {
                ShardDb::Packed(NibbleMat::from_residues_mod_p(&plain, config.rank_lwe.p))
            } else {
                ShardDb::Plain(plain)
            };
            let hint = scheme::preproc::<u64>(db.view(), &range, threads);
            let server_hint = uh.preprocess_hint(&hint);
            shards.push(RankingShard { col_start, db, hint, server_hint });
            cluster = hi;
        }
        let preproc_time = t0.elapsed();

        Self {
            shards,
            uh,
            a,
            rows: matrix.rows(),
            cols: m,
            d,
            parallelism: config.parallelism,
            preproc_time,
        }
    }

    /// The parallelism knobs this service was built with.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The composed-scheme parameters (shared with clients).
    pub fn underhood(&self) -> &Underhood {
        &self.uh
    }

    /// The public matrix clients encrypt against.
    pub fn public_matrix(&self) -> MatrixA {
        self.a
    }

    /// Scores returned per query (padded cluster size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Upload dimension `m = d·C`.
    pub fn upload_dim(&self) -> usize {
        self.cols
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Bytes of index state held across all workers (matrix + the
    /// NTT-ready hint polys dominate).
    pub fn server_storage_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let matrix = s.db.view().storage_bytes() as u64;
                let hint_polys = (s.server_hint.chunks()
                    * self.uh.limb_count() as usize
                    * s.server_hint.secret_dim()
                    * self.uh.outer().params().degree
                    * 8) as u64;
                matrix + hint_polys
            })
            .sum()
    }

    /// Incrementally indexes one new document (§3.2 "Handling updates
    /// to the corpus"): writes its quantized embedding into the padding
    /// slot `(cluster, row)`, updates the affected shard's hint by the
    /// rank-one correction `ΔH[row] = Σ_j q[j]·A[col_j]`, and refreshes
    /// only the NTT chunk containing `row` — no full re-preprocessing.
    ///
    /// Outstanding query tokens become stale (the paper: tokens "are
    /// usable until the document corpus changes").
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range, already occupied (nonzero),
    /// or `q_zp.len()` differs from the embedding dimension.
    pub fn add_document(&mut self, cluster: usize, row: usize, q_zp: &[u32]) {
        let d = q_zp.len();
        let col_lo = cluster * d;
        let col_hi = col_lo + d;
        assert!(col_hi <= self.cols, "cluster out of range");
        assert!(row < self.rows, "row out of range");
        let shard = self
            .shards
            .iter_mut()
            .find(|s| col_lo >= s.col_start && col_hi <= s.col_start + s.db.view().cols())
            .expect("cluster maps into exactly one shard");
        let local_lo = col_lo - shard.col_start;

        // 1. Write the matrix slot (must be padding). Packed shards do
        //    not support in-place updates in this prototype.
        match &mut shard.db {
            ShardDb::Plain(m) => {
                let slot = &mut m.row_mut(row)[local_lo..local_lo + d];
                assert!(slot.iter().all(|&x| x == 0), "slot already occupied");
                slot.copy_from_slice(q_zp);
            }
            ShardDb::Packed(_) => {
                panic!("incremental updates require plain (unpacked) shard storage")
            }
        }

        // 2. Rank-one hint correction: ΔH[row] += Σ_j q[j]·A[local_lo+j].
        let n = self.a.cols();
        let range = self.a.row_range(shard.col_start, shard.db.view().cols());
        let mut a_row = vec![0u64; n];
        for (j, &qj) in q_zp.iter().enumerate() {
            if qj == 0 {
                continue;
            }
            range.expand_row(local_lo + j, &mut a_row);
            for (h, &a_val) in shard.hint.row_mut(row).iter_mut().zip(a_row.iter()) {
                *h = h.wrapping_add((qj as u64).wrapping_mul(a_val));
            }
        }

        // 3. Refresh only the NTT chunk holding `row`.
        let chunk = row / self.uh.outer().params().degree;
        let polys = self.uh.hint_chunk_polys(&shard.hint, chunk);
        shard.server_hint.replace_chunk(chunk, polys);
    }

    /// Generates a (single-use) query token for a client's encrypted
    /// secret: each worker evaluates its hint shard under `Enc2`, the
    /// coordinator sums (§6.3, offline path).
    pub fn generate_token(&self, es: &EncryptedSecret) -> (QueryToken, ParallelTiming) {
        self.generate_token_expanded(&es.expand(&self.uh))
    }

    /// Token generation over a pre-expanded secret; the expansion can
    /// be shared with the URL service (§A.3's shared-key upload).
    pub fn generate_token_expanded(&self, es: &ExpandedSecret) -> (QueryToken, ParallelTiming) {
        let (parts, timing) = self.generate_token_parts_expanded(es);
        (combine_partial_tokens(&self.uh, &parts), timing)
    }

    /// Per-shard query tokens, *not* combined: clients on the
    /// fault-tolerant path keep them separate so they can decrypt over
    /// any surviving subset of shards
    /// ([`tiptoe_underhood::combine_decoded_subset`]). Costs `W×` the
    /// token download of the combined path.
    pub fn generate_token_parts_expanded(
        &self,
        es: &ExpandedSecret,
    ) -> (Vec<QueryToken>, ParallelTiming) {
        let plan = FaultPlan::none();
        let policy = FaultPolicy::default();
        let d = dispatch(&RankToken { svc: self }, es, 0, DispatchContext::new(&plan, &policy), None)
            .expect("healthy token dispatch cannot fail");
        (d.response, d.timing)
    }

    /// Batched per-shard token generation for `B` clients: every
    /// shard's hint polynomials are read from DRAM once for the whole
    /// batch (the token-path counterpart of
    /// [`RankingService::shard_answer_many`]). Returns one `Vec` of
    /// per-shard tokens (in shard order) per client, each
    /// bit-identical to that client's
    /// [`RankingService::generate_token_parts_expanded`] result; the
    /// serving plane's token lane flushes through this kernel.
    pub fn generate_token_parts_expanded_many(
        &self,
        secrets: &[&ExpandedSecret],
    ) -> Vec<Vec<QueryToken>> {
        let mut span = tiptoe_obs::span("rank.token");
        span.attr_u64("batch", secrets.len() as u64);
        let threads = self.parallelism.num_threads;
        // [shard][client] — each shard evaluated once over the batch.
        let per_shard: Vec<Vec<QueryToken>> = self
            .shards
            .iter()
            .map(|shard| {
                let mut s = tiptoe_obs::span("rank.token_shard");
                s.attr_u64("batch", secrets.len() as u64);
                self.uh.generate_token_expanded_many(&shard.server_hint, secrets, threads)
            })
            .collect();
        // Transpose to [client][shard] for the per-client bundles.
        let mut iters: Vec<_> = per_shard.into_iter().map(|v| v.into_iter()).collect();
        (0..secrets.len())
            .map(|_| iters.iter_mut().map(|it| it.next().expect("client count")).collect())
            .collect()
    }

    /// The column range `[start, end)` served by shard `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn shard_columns(&self, idx: usize) -> (usize, usize) {
        let s = &self.shards[idx];
        (s.col_start, s.col_start + s.db.view().cols())
    }

    /// The cluster range `[start, end)` served by shard `idx` (shards
    /// partition on cluster boundaries, so this is exact).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn shard_clusters(&self, idx: usize) -> (usize, usize) {
        let (lo, hi) = self.shard_columns(idx);
        (lo / self.d, hi / self.d)
    }

    /// One worker's partial product `M_w · ct_w` (the §4.3 per-machine
    /// step, exposed for the message-passing cluster runtime).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the chunk width differs from
    /// the shard's column count.
    pub fn shard_answer(&self, idx: usize, chunk: &[u64]) -> Vec<u64> {
        let shard = &self.shards[idx];
        assert_eq!(chunk.len(), shard.db.view().cols(), "chunk width mismatch");
        let ct = LweCiphertext { c: chunk.to_vec() };
        scheme::apply(shard.db.view(), &ct)
    }

    /// Batched form of [`RankingService::shard_answer`]: answers `B`
    /// ciphertext chunks in one pass over the shard's matrix, so a
    /// database row is read from DRAM once for the whole batch. Each
    /// answer is bit-identical to the per-ciphertext path.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or any chunk width differs from
    /// the shard's column count.
    pub fn shard_answer_many(&self, idx: usize, chunks: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let shard = &self.shards[idx];
        let cts: Vec<LweCiphertext<u64>> = chunks
            .iter()
            .map(|chunk| {
                assert_eq!(chunk.len(), shard.db.view().cols(), "chunk width mismatch");
                LweCiphertext { c: chunk.clone() }
            })
            .collect();
        scheme::apply_many(shard.db.view(), &cts, self.parallelism.num_threads)
    }

    /// Answers an online ranking query: workers compute their partial
    /// matrix-vector products, the coordinator sums.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension differs from `d·C`.
    pub fn answer(&self, ct: &LweCiphertext<u64>) -> (Vec<u64>, ParallelTiming) {
        self.answer_via(ct, None)
    }

    /// [`RankingService::answer`], optionally routing each shard's
    /// compute through the serving plane's coalescing lanes so
    /// concurrent queries share database scans. Coalesced answers are
    /// bit-identical to direct ones.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension differs from `d·C`.
    pub fn answer_via(
        &self,
        ct: &LweCiphertext<u64>,
        via: Option<&ServingPlane<'_>>,
    ) -> (Vec<u64>, ParallelTiming) {
        let d = self.dispatch_answer(ct, &FaultPlan::none(), &FaultPolicy::default(), None, via);
        (d.response, d.timing)
    }

    /// Dispatches an online ranking query through the typed service
    /// plane ([`tiptoe_net::dispatch`]): transcript accounting via
    /// `ledger`, fault handling under `plan`/`policy` (healthy fan-out
    /// when the policy is disabled), and optional batch coalescing via
    /// the serving plane — one engine for every serving mode.
    ///
    /// With a benign plan every shard answers on the first attempt and
    /// the response equals [`RankingService::answer`] exactly; shards
    /// that never deliver contribute zero to the sum (see
    /// [`RankingService::missing_clusters`]).
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension differs from `d·C` or an
    /// enabled policy is invalid.
    pub fn dispatch_answer(
        &self,
        ct: &LweCiphertext<u64>,
        plan: &FaultPlan,
        policy: &FaultPolicy,
        ledger: Option<&Ledger<'_>>,
        via: Option<&ServingPlane<'_>>,
    ) -> Dispatched<Vec<u64>> {
        self.try_dispatch_answer(ct, plan, policy, ledger, via, None)
            .expect("unbudgeted dispatch cannot fail on a valid policy")
    }

    /// [`RankingService::dispatch_answer`] under the overload-safety
    /// layers: the query's deadline `budget` is checked before the
    /// fan-out and charged with its wall time, and the serving plane's
    /// circuit breakers (if enabled) gate per-shard traffic on the
    /// fault-aware path. Without a budget this cannot fail on a valid
    /// policy — breakers alone only degrade the combine.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] when the budget runs out,
    /// [`ServeError::LaneFailed`] on a permanently crashed coalescer
    /// lane, [`ServeError::InvalidPolicy`] on an invalid enabled
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext dimension differs from `d·C`.
    pub fn try_dispatch_answer(
        &self,
        ct: &LweCiphertext<u64>,
        plan: &FaultPlan,
        policy: &FaultPolicy,
        ledger: Option<&Ledger<'_>>,
        via: Option<&ServingPlane<'_>>,
        budget: Option<&DeadlineBudget>,
    ) -> Result<Dispatched<Vec<u64>>, ServeError> {
        assert_eq!(ct.c.len(), self.cols, "ciphertext dimension mismatch");
        let ctx = DispatchContext::new(plan, policy)
            .with_budget(budget)
            .with_breakers(via.and_then(|p| p.breakers()));
        dispatch(&RankAnswer { svc: self, via, budget }, ct, 0, ctx, ledger)
    }

    /// Cluster indices lost with the failed shards of a dispatch:
    /// `survivors[w] == false` means shard `w`'s cluster range is
    /// unavailable this query.
    pub fn missing_clusters(&self, survivors: &[bool]) -> Vec<usize> {
        survivors
            .iter()
            .enumerate()
            .filter(|(_, ok)| !**ok)
            .flat_map(|(w, _)| {
                let (lo, hi) = self.shard_clusters(w);
                lo..hi
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use tiptoe_corpus::synth::{generate, CorpusConfig};
    use tiptoe_embed::text::TextEmbedder;
    use tiptoe_math::rng::seeded_rng;
    use tiptoe_underhood::ClientKey;

    use crate::batch::run_batch_jobs;

    fn setup() -> (TiptoeConfig, IndexArtifacts, RankingService) {
        let corpus = generate(&CorpusConfig::small(200, 9), 0);
        let config = TiptoeConfig::test_small(200, 9);
        let embedder = TextEmbedder::new(config.d_embed, 9, 0);
        let artifacts = run_batch_jobs(&config, &embedder, &corpus);
        let service = RankingService::build(&config, &artifacts);
        (config, artifacts, service)
    }

    #[test]
    fn private_scores_match_plaintext_inner_products() {
        let (config, artifacts, service) = setup();
        let mut rng = seeded_rng(31);
        let uh = service.underhood();
        let key = ClientKey::generate(uh, config.rank_lwe.n, &mut rng);
        let es = EncryptedSecret::encrypt(uh, &key, &mut rng);
        let (token, _) = service.generate_token(&es);
        let mut decoded = uh.decode_token::<u64>(&key, &token);

        // Query for cluster i*: random quantized embedding vector.
        let quant = config.quantizer();
        let target = artifacts.clustering.num_clusters() / 2;
        let d = config.d_reduced;
        let mut qvec: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        tiptoe_embed::vector::normalize(&mut qvec);
        let q_zp = quant.to_zp(&qvec);
        let mut v = vec![0u64; service.upload_dim()];
        for (j, &x) in q_zp.iter().enumerate() {
            v[target * d + j] = x as u64;
        }
        let ct = uh.encrypt_query::<u64, _>(&key, &service.public_matrix(), &v, &mut rng);
        let (applied, _) = service.answer(&ct);
        let scores = uh.decrypt(&mut decoded, &applied);

        // Reference: quantized inner products with the cluster members.
        let members = &artifacts.clustering.members[target];
        for ((row, &doc), &score) in members.iter().enumerate().zip(scores.iter()) {
            let doc_zp = quant.to_zp(&artifacts.reduced_embeddings[doc as usize]);
            let want = quant.quantized_dot(&doc_zp, &q_zp);
            let got = quant.encoder().decode_signed(score);
            assert_eq!(got, want, "row {row} (doc {doc})");
        }
        // Padding rows decode to zero.
        for (row, &score) in scores.iter().enumerate().skip(members.len()) {
            assert_eq!(quant.encoder().decode_signed(score), 0, "padding row {row}");
        }
    }

    #[test]
    fn packed_storage_answers_identically_and_saves_memory() {
        let corpus = generate(&CorpusConfig::small(180, 10), 0);
        let mut config = TiptoeConfig::test_small(180, 10);
        let embedder = TextEmbedder::new(config.d_embed, 10, 0);
        let artifacts = run_batch_jobs(&config, &embedder, &corpus);
        let plain = RankingService::build(&config, &artifacts);
        config.pack_ranking_db = true;
        config.validate();
        let packed = RankingService::build(&config, &artifacts);

        let mut rng = seeded_rng(41);
        let uh = plain.underhood();
        let key = ClientKey::generate(uh, config.rank_lwe.n, &mut rng);
        for _ in 0..2 {
            let v: Vec<u64> =
                (0..plain.upload_dim()).map(|_| rng.gen_range(0..config.rank_lwe.p)).collect();
            let ct = uh.encrypt_query::<u64, _>(&key, &plain.public_matrix(), &v, &mut rng);
            // Decrypted results must agree exactly (both reduce mod p).
            let es = EncryptedSecret::encrypt(uh, &key, &mut rng);
            let (t1, _) = plain.generate_token(&es);
            let (t2, _) = packed.generate_token(&es);
            let mut d1 = uh.decode_token::<u64>(&key, &t1);
            let mut d2 = uh.decode_token::<u64>(&key, &t2);
            let (a1, _) = plain.answer(&ct);
            let (a2, _) = packed.answer(&ct);
            assert_eq!(uh.decrypt(&mut d1, &a1), uh.decrypt(&mut d2, &a2));
        }
        assert!(
            packed.server_storage_bytes() < plain.server_storage_bytes(),
            "packing must shrink server state: {} vs {}",
            packed.server_storage_bytes(),
            plain.server_storage_bytes()
        );
    }

    #[test]
    fn sharding_covers_all_columns_exactly_once() {
        let (_, artifacts, service) = setup();
        assert!(service.num_shards() >= 2);
        let total_cols: usize = service.shards.iter().map(|s| s.db.view().cols()).sum();
        assert_eq!(total_cols, artifacts.rank_matrix.cols());
        let mut expected_start = 0;
        for s in &service.shards {
            assert_eq!(s.col_start, expected_start);
            expected_start += s.db.view().cols();
        }
    }

    #[test]
    fn answer_rejects_wrong_dimension() {
        let (_, _, service) = setup();
        let ct = LweCiphertext { c: vec![0u64; service.upload_dim() + 1] };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.answer(&ct)));
        assert!(result.is_err());
    }

    #[test]
    fn storage_accounting_is_positive() {
        let (_, _, service) = setup();
        assert!(service.server_storage_bytes() > 0);
        assert!(service.preproc_time > Duration::ZERO);
    }
}
