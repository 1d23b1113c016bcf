//! A private query replayed through each layer's public functions.
//!
//! [`Replayer`] performs the same steps as `TiptoeClient` — token
//! fetch through the plane's token lane, then embed, project, route,
//! encrypt, rank, decrypt, URL PIR, recover — calling the public
//! function of each layer itself, so the traced run can wrap every
//! call in its own span. [`reference`] computes the answer the
//! private path must return from plaintext data.

use std::sync::Arc;

use rand::rngs::StdRng;
use tiptoe_core::batch::CompressedUrlBatch;
use tiptoe_core::client::RankedUrl;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_core::serving::ServingPlane;
use tiptoe_embed::text::TextEmbedder;
use tiptoe_embed::vector::{dot, normalize};
use tiptoe_embed::Embedder;
use tiptoe_lwe::LweCiphertext;
use tiptoe_math::rng::seeded_rng;
use tiptoe_net::{FaultPlan, Ledger, Phase};
use tiptoe_pir::PirClient;
use tiptoe_underhood::{
    combine_decoded_subset, combine_partial_tokens, ClientKey, DecodedToken, EncryptedSecret,
};

use crate::trace::{span, Tracer};

type Instance = TiptoeInstance<TextEmbedder>;

/// Wire bytes of one private query, per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bytes {
    /// Token upload (the encrypted secret).
    pub token_up: u64,
    /// Token download (ranking + URL tokens).
    pub token_down: u64,
    /// Ranking upload (the query ciphertext).
    pub rank_up: u64,
    /// Ranking download (encrypted scores).
    pub rank_down: u64,
    /// URL-service upload.
    pub url_up: u64,
    /// URL-service download.
    pub url_down: u64,
}

impl Bytes {
    /// Every byte up and down, token included.
    pub fn total(&self) -> u64 {
        self.token_up
            + self.token_down
            + self.rank_up
            + self.rank_down
            + self.url_up
            + self.url_down
    }

    /// The per-phase bytes a `QueryCost` reports.
    pub fn of_cost(c: &tiptoe_core::client::QueryCost) -> Self {
        Self {
            token_up: c.token_up,
            token_down: c.token_down,
            rank_up: c.rank_up,
            rank_down: c.rank_down,
            url_up: c.url_up,
            url_down: c.url_down,
        }
    }
}

/// A fetched, single-use token pair and the fresh key it belongs to.
pub struct Token {
    key: ClientKey,
    /// The combined ranking token, or one part per shard when the
    /// deployment's fault policy is on.
    rank: Vec<DecodedToken<u64>>,
    url: DecodedToken<u32>,
    up: u64,
    down: u64,
}

/// The outcome of one replayed online search.
pub struct Answer {
    /// The cluster the client searched.
    pub cluster: usize,
    /// Top URLs of the fetched batch, best first.
    pub hits: Vec<RankedUrl>,
    /// Wire bytes, token included.
    pub bytes: Bytes,
    /// The ranking upload (reused for the direct no-plane baseline).
    pub rank_ct: LweCiphertext<u64>,
}

/// Replays private queries of one client through the public API.
pub struct Replayer<'a> {
    inst: &'a Instance,
    plane: &'a ServingPlane<'a>,
    rng: StdRng,
}

impl<'a> Replayer<'a> {
    /// A client with its own seeded randomness.
    pub fn new(inst: &'a Instance, plane: &'a ServingPlane<'a>, seed: u64) -> Self {
        Self {
            inst,
            plane,
            rng: seeded_rng(seed),
        }
    }

    /// Fetches one token pair through the plane's token lane.
    pub fn token(&mut self, tr: Option<&Tracer>) -> Token {
        let uh_rank = self.inst.ranking.underhood();
        let uh_url = self.inst.url.underhood();
        let key = span(tr, "underhood.key_generate", || {
            ClientKey::generate(uh_rank, secret_dim(self.inst), &mut self.rng)
        });
        let es = span(tr, "underhood.secret_encrypt", || {
            EncryptedSecret::encrypt(uh_rank, &key, &mut self.rng)
        });
        let up = es.byte_len();
        let expanded = span(tr, "underhood.secret_expand", || es.expand(uh_rank));
        let bundle = span(tr, "core.serving.generate_tokens", || {
            self.plane.generate_tokens(Arc::new(expanded))
        });
        // As in `TiptoeClient`: a fault-tolerant client downloads and
        // decodes every shard's part, so it can decrypt over whichever
        // shards survive; otherwise the coordinator sums the parts
        // before download.
        let rank_tokens = if self.inst.config.fault_policy.enabled {
            bundle.rank_parts
        } else {
            vec![span(tr, "underhood.combine_tokens", || {
                combine_partial_tokens(uh_rank, &bundle.rank_parts)
            })]
        };
        let down = rank_tokens.iter().map(|t| t.byte_len()).sum::<u64>() + bundle.url.byte_len();
        let (rank, url) = span(tr, "underhood.decode_token", || {
            (
                rank_tokens
                    .iter()
                    .map(|t| uh_rank.decode_token::<u64>(&key, t))
                    .collect(),
                uh_url.decode_token::<u32>(&key, &bundle.url),
            )
        });
        Token {
            key,
            rank,
            url,
            up,
            down,
        }
    }

    /// One online search with `token`, under a benign fault plan.
    ///
    /// # Errors
    ///
    /// A description of any typed error of the two dispatches, of a
    /// shard that did not survive, or of a record that did not decode.
    pub fn online(
        &mut self,
        mut token: Token,
        query: &str,
        k: usize,
        tr: Option<&Tracer>,
    ) -> Result<Answer, String> {
        let inst = self.inst;
        let meta = &inst.artifacts.meta;
        let quant = inst.config.quantizer();
        let raw = span(tr, "embed.embed_text", || inst.embedder.embed_text(query));
        let mut q = span(tr, "embed.pca_project", || inst.artifacts.pca.project(&raw));
        normalize(&mut q);
        let cluster = span(tr, "cluster.route", || {
            nearest_centroid(&meta.centroids, &q)
        });
        let rank_ct = span(tr, "underhood.encrypt_query", || {
            inst.ranking.underhood().encrypt_query::<u64, _>(
                &token.key,
                &inst.ranking.public_matrix(),
                &ranking_upload(inst, &q, cluster),
                &mut self.rng,
            )
        });
        let mut bytes = Bytes {
            token_up: token.up,
            token_down: token.down,
            rank_up: rank_ct.byte_len(),
            rank_down: (inst.ranking.rows() * 8) as u64,
            ..Bytes::default()
        };
        let policy = &inst.config.fault_policy;
        let plan = FaultPlan::none();
        let ledger = Ledger {
            transcript: &inst.transcript,
            phase: Phase::Ranking,
            retry_phase: Phase::RankingRetries,
            up_bytes: bytes.rank_up,
            down_bytes: bytes.rank_down,
        };
        let ranked = span(tr, "core.ranking.dispatch", || {
            inst.ranking.try_dispatch_answer(
                &rank_ct,
                &plan,
                policy,
                Some(&ledger),
                Some(self.plane),
                None,
            )
        })
        .map_err(|e| format!("ranking dispatch: {e}"))?;
        if !ranked.survivors.iter().all(|&ok| ok) {
            return Err("a ranking shard failed under a benign plan".into());
        }
        let raw_scores = span(tr, "underhood.decrypt", || {
            let uh = inst.ranking.underhood();
            match token.rank.as_mut_slice() {
                [combined] if !policy.enabled => uh.decrypt(combined, &ranked.response),
                parts => uh.decrypt(
                    &mut combine_decoded_subset(parts, &ranked.survivors),
                    &ranked.response,
                ),
            }
        });
        let n_members = meta.cluster_sizes[cluster] as usize;
        let scores: Vec<i64> = raw_scores
            .iter()
            .take(n_members)
            .map(|&s| quant.encoder().decode_signed(s))
            .collect();
        let best_row = best_row(&scores);

        let batch_idx = meta.batch_of(cluster, best_row);
        let uh_url = inst.url.underhood();
        let pir = PirClient::new(uh_url, &token.key);
        let url_ct = span(tr, "pir.query", || {
            pir.query(
                &inst.url.public_matrix(),
                meta.num_batches,
                batch_idx,
                &mut self.rng,
            )
        });
        bytes.url_up = url_ct.byte_len();
        bytes.url_down = (inst.url.database().rows() * 4) as u64;
        let url_ledger = Ledger {
            transcript: &inst.transcript,
            phase: Phase::Url,
            retry_phase: Phase::UrlRetries,
            up_bytes: bytes.url_up,
            down_bytes: bytes.url_down,
        };
        let shard_base = inst.ranking.num_shards();
        let fetched = span(tr, "core.url.dispatch", || {
            inst.url.try_dispatch_answer(
                &url_ct,
                shard_base,
                &plan,
                policy,
                Some(&url_ledger),
                Some(self.plane),
                None,
            )
        })
        .map_err(|e| format!("URL dispatch: {e}"))?;
        let answer = fetched
            .response
            .ok_or("the URL server failed under a benign plan")?;
        let record = span(tr, "pir.recover", || {
            pir.recover(inst.url.database(), &mut token.url, &answer)
        })
        .map_err(|e| format!("URL record: {e}"))?;
        let entries = span(tr, "core.batch.decode_payload", || {
            CompressedUrlBatch::decode_payload(&record)
        })
        .map_err(|e| format!("URL batch: {e}"))?;
        let hits = rank_entries(
            entries,
            &scores,
            best_row,
            meta.urls_per_batch as usize,
            scale2(inst),
            k,
        );
        Ok(Answer {
            cluster,
            hits,
            bytes,
            rank_ct,
        })
    }
}

/// The inner secret dimension of a fresh client key: one ternary
/// secret serves both services.
pub fn secret_dim(inst: &Instance) -> usize {
    inst.config.rank_lwe.n.max(inst.config.url_lwe.n)
}

/// The ranking plaintext: the quantized query in the searched
/// cluster's `d`-column block, zero elsewhere.
pub fn ranking_upload(inst: &Instance, q: &[f32], cluster: usize) -> Vec<u64> {
    let meta = &inst.artifacts.meta;
    let mut v = vec![0u64; meta.ranking_upload_dim()];
    for (j, &x) in inst.config.quantizer().to_zp(q).iter().enumerate() {
        v[cluster * meta.d + j] = x as u64;
    }
    v
}

/// The client's squared fixed-point scale (score → inner product).
fn scale2(inst: &Instance) -> f32 {
    let s = inst.config.quantizer().encoder().scale();
    (s * s) as f32
}

/// The nearest centroid by inner product (first wins ties), over the
/// centroids the client downloaded.
pub fn nearest_centroid(centroids: &[Vec<f32>], q: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let s = dot(c, q);
        if s > best_score {
            best_score = s;
            best = i;
        }
    }
    best
}

/// The best-scoring row (last of equal maxima, as `max_by_key`).
fn best_row(scores: &[i64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by_key(|(_, &s)| s)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Scores a fetched URL batch and keeps the top `k`, best first.
fn rank_entries(
    entries: Vec<(u32, String)>,
    scores: &[i64],
    best_row: usize,
    urls_per_batch: usize,
    scale2: f32,
    k: usize,
) -> Vec<RankedUrl> {
    let first_row = (best_row / urls_per_batch) * urls_per_batch;
    let mut hits: Vec<RankedUrl> = entries
        .into_iter()
        .enumerate()
        .filter_map(|(offset, (doc, url))| {
            let score = *scores.get(first_row + offset)?;
            Some(RankedUrl {
                doc,
                url,
                score: score as f32 / scale2,
            })
        })
        .collect();
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    hits.truncate(k);
    hits
}

/// The plaintext reference of one query: the cluster the client must
/// route to, its plaintext quantized scores, and the hits the private
/// path must return.
pub struct Reference {
    /// The projected, normalized query embedding.
    pub q: Vec<f32>,
    /// The cluster the query routes to.
    pub cluster: usize,
    /// The row of the best-scoring member (selects the URL batch).
    pub best_row: usize,
    /// The expected hits, best first.
    pub hits: Vec<RankedUrl>,
}

/// Computes [`Reference`] from the deployment's plaintext state: the
/// same embedding, projection and routing as the client, then exact
/// quantized inner products against the searched cluster's members.
pub fn reference(inst: &Instance, urls: &[String], query: &str, k: usize) -> Reference {
    let art = &inst.artifacts;
    let quant = inst.config.quantizer();
    let mut q = art.pca.project(&inst.embedder.embed_text(query));
    normalize(&mut q);
    let cluster = nearest_centroid(&art.meta.centroids, &q);
    let q_zp = quant.to_zp(&q);
    let members = &art.clustering.members[cluster];
    let scores: Vec<i64> = members
        .iter()
        .map(|&doc| quant.quantized_dot(&quant.to_zp(&art.reduced_embeddings[doc as usize]), &q_zp))
        .collect();
    let best = best_row(&scores);
    let upb = art.meta.urls_per_batch as usize;
    let first_row = (best / upb) * upb;
    let entries: Vec<(u32, String)> = members[first_row..(first_row + upb).min(members.len())]
        .iter()
        .map(|&doc| (doc, urls[doc as usize].clone()))
        .collect();
    let hits = rank_entries(entries, &scores, best, upb, scale2(inst), k);
    Reference {
        q,
        cluster,
        best_row: best,
        hits,
    }
}

/// Whether two hit lists are identical, scores bit for bit.
pub fn same_hits(a: &[RankedUrl], b: &[RankedUrl]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.doc == y.doc && x.url == y.url && x.score.to_bits() == y.score.to_bits()
        })
}

/// Reciprocal rank of `relevant` among `hits` (0 when absent).
pub fn reciprocal_rank(hits: &[RankedUrl], relevant: u32) -> f64 {
    hits.iter()
        .position(|h| h.doc == relevant)
        .map_or(0.0, |i| 1.0 / (i + 1) as f64)
}
