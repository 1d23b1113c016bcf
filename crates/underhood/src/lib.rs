//! The composed linearly homomorphic encryption scheme with outsourced
//! hint decryption (paper §6.2–§6.3 and Appendix A).
//!
//! Plain SimplePIR decryption needs the client to hold the hint
//! `H = M·A` — gigabytes that change whenever the corpus does. Tiptoe
//! instead has the *server* evaluate the linear part of decryption,
//! `H·s`, under a second (ring-LWE) encryption scheme:
//!
//! 1. Ahead of time, the client uploads `Enc2(s)` — one outer
//!    ciphertext per entry of the inner secret key (the `z_i` of
//!    Appendix A). This upload is query-independent.
//! 2. The server computes `Enc2(H·s)` homomorphically and returns it.
//!    This response is the **query token** (§6.3); it depends only on
//!    the corpus and the client's key, so it is generated and
//!    downloaded before the client has decided on its query.
//! 3. Online, the client sends only the inner Regev ciphertext and
//!    downloads the raw `M·ct` words; it decrypts using the token.
//!
//! Two concrete tricks from Appendix A.3 are implemented faithfully:
//!
//! - **Dropping low-order hint bits.** Inner decryption rounds away
//!   everything below `Δ/2`, so the server keeps only the top
//!   `log q − κ` bits of each hint entry, with `κ` chosen so the
//!   dropped mass `n·2^κ` stays within the rounding budget. This
//!   shrinks token-generation work and token size, exactly as the
//!   paper's "dropping the lowest-order bits of the hint matrix".
//! - **Exact limb recombination.** The surviving high bits are split
//!   into 16-bit limbs; each limb's product with the ternary secret is
//!   a sum of at most `n ≤ 2048` terms of magnitude `< 2^16`, which
//!   fits the outer plaintext modulus `t = 2^28` *without wraparound*,
//!   so the client reassembles `H·s mod 2^(log q − κ)` exactly.
//!   (`DESIGN.md` §2 documents how this deviates from the paper's SEAL
//!   instantiation.)
//!
//! A token is single-use: reusing it would encrypt two query vectors
//! under the same inner secret, which breaks semantic security (§6.3).
//! [`DecodedToken::take_hs`] enforces this at the type level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::Rng;
use tiptoe_lwe::{scheme, LweCiphertext, LweParams, LweSecretKey, MatrixA};
use tiptoe_math::matrix::Mat;
use tiptoe_math::poly::Poly;
use tiptoe_math::wire::{WireError, WireReader, WireWriter};
use tiptoe_math::zq::Word;
use tiptoe_math::ntt::ShoupPoly;
use tiptoe_rlwe::{
    decrypt_switched, encrypt_scalar, expand, mod_switch, RlweCiphertext, RlweContext,
    RlweParams, RlweSecretKey, SeededRlweCiphertext, SwitchedCiphertext,
};

/// Dropped hint mass must stay below `Δ / 2^DROP_BUDGET_SHIFT`,
/// leaving the rest of the `Δ/2` rounding budget to the inner noise
/// (with shift 4, the ranking parameters still support the paper's
/// `m = 2^21` upload dimension).
const DROP_BUDGET_SHIFT: u32 = 4;

/// The composed scheme: inner LWE parameters plus the shared outer
/// RLWE context and the derived bit-dropping/limb layout.
#[derive(Debug, Clone)]
pub struct Underhood {
    lwe: LweParams,
    ctx: RlweContext,
    /// Low hint bits dropped before outsourcing (`κ`).
    kappa: u32,
    /// Number of 16-bit limbs covering the surviving `log q − κ` bits.
    limbs: u32,
    /// Modulus-switch target for token download compression.
    switch_log_q2: u32,
}

impl Underhood {
    /// Builds the composed scheme with the production outer parameters.
    pub fn new(lwe: LweParams) -> Self {
        Self::with_outer(lwe, RlweParams::production(), 44)
    }

    /// Builds the composed scheme with explicit outer parameters (used
    /// by tests with scaled-down rings).
    ///
    /// # Panics
    ///
    /// Panics if a limb sum could wrap the outer plaintext modulus
    /// (`n · 2^16 ≥ t/2`) or if no valid `κ` exists.
    pub fn with_outer(lwe: LweParams, rlwe: RlweParams, switch_log_q2: u32) -> Self {
        lwe.validate();
        // Limb values are at most 2^16 - 1, so the exact no-wrap
        // condition is n·(2^16 - 1) < t/2 (met with ~2000 words of
        // slack by n = 2048, t = 2^28).
        assert!(
            (lwe.n as u128) * 0xffff < (rlwe.t as u128) / 2,
            "outer plaintext modulus too small for exact limb sums (n = {}, t = {})",
            lwe.n,
            rlwe.t
        );
        let delta = lwe.delta();
        // n · 2^κ ≤ Δ / 2^DROP_BUDGET_SHIFT.
        let budget = delta >> DROP_BUDGET_SHIFT;
        let per_entry = budget / lwe.n as u64;
        assert!(per_entry >= 1, "no room to drop hint bits; Δ too small for n");
        let kappa = 63 - per_entry.leading_zeros();
        let kept = lwe.log_q - kappa.min(lwe.log_q - 1);
        let kappa = lwe.log_q - kept;
        let limbs = kept.div_ceil(16);
        let ctx = RlweContext::new(rlwe);
        Self { lwe, ctx, kappa, limbs, switch_log_q2 }
    }

    /// The inner LWE parameters.
    pub fn lwe(&self) -> &LweParams {
        &self.lwe
    }

    /// The outer RLWE context.
    pub fn outer(&self) -> &RlweContext {
        &self.ctx
    }

    /// Number of dropped low-order hint bits (`κ`).
    pub fn dropped_bits(&self) -> u32 {
        self.kappa
    }

    /// Number of 16-bit hint limbs.
    pub fn limb_count(&self) -> u32 {
        self.limbs
    }

    /// Extracts limb `j` of a hint entry after dropping `κ` bits.
    #[inline]
    fn limb(&self, h: u64, j: u32) -> u64 {
        (h >> (self.kappa + 16 * j)) & 0xffff
    }
}

/// The client's composite key: the inner ternary secret and the outer
/// ring key. One inner secret can serve several services (paper §A.3,
/// "using the same secret key for both services"): services with a
/// smaller secret dimension use a prefix of `ternary`.
#[derive(Debug, Clone)]
pub struct ClientKey {
    ternary: Vec<i64>,
    rlwe_sk: RlweSecretKey,
}

impl ClientKey {
    /// Samples a fresh composite key with an inner secret of dimension
    /// `max_n`.
    pub fn generate<R: Rng + ?Sized>(uh: &Underhood, max_n: usize, rng: &mut R) -> Self {
        let ternary = tiptoe_math::sample::ternary_vec(rng, max_n);
        let rlwe_sk = RlweSecretKey::generate(uh.outer(), rng);
        Self { ternary, rlwe_sk }
    }

    /// The inner secret key for a service with parameters `params`
    /// (a prefix of the shared ternary vector).
    ///
    /// # Panics
    ///
    /// Panics if `params.n` exceeds the generated secret dimension.
    pub fn lwe_key<W: Word>(&self, params: &LweParams) -> LweSecretKey<W> {
        assert!(params.n <= self.ternary.len(), "secret dimension too large for this key");
        LweSecretKey::from_ternary(params, &self.ternary[..params.n])
    }

    /// The outer ring key.
    pub fn rlwe_key(&self) -> &RlweSecretKey {
        &self.rlwe_sk
    }

    /// Inner secret dimension.
    pub fn max_n(&self) -> usize {
        self.ternary.len()
    }
}

/// The client's query-independent upload: `Enc2(s_i)` for every entry
/// of the (shared) inner secret (the `z_i` of Appendix A).
#[derive(Debug, Clone)]
pub struct EncryptedSecret {
    z: Vec<SeededRlweCiphertext>,
}

impl EncryptedSecret {
    /// Encrypts the shared inner secret under the outer key.
    pub fn encrypt<R: Rng + ?Sized>(uh: &Underhood, key: &ClientKey, rng: &mut R) -> Self {
        let z = key
            .ternary
            .iter()
            .enumerate()
            .map(|(i, &s_i)| {
                let seed = derive_ct_seed(rng, i);
                encrypt_scalar(uh.outer(), &key.rlwe_sk, s_i, seed, rng)
            })
            .collect();
        Self { z }
    }

    /// Number of entries covered (`max_n`).
    pub fn len(&self) -> usize {
        self.z.len()
    }

    /// Whether the upload is empty.
    pub fn is_empty(&self) -> bool {
        self.z.is_empty()
    }

    /// Wire size in bytes: count prefix plus the seeded ciphertexts.
    pub fn byte_len(&self) -> u64 {
        4 + self.z.iter().map(|c| c.byte_len()).sum::<u64>()
    }

    /// Serializes to the wire format (`encode().len() == byte_len()`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.byte_len() as usize);
        w.put_u32(self.z.len() as u32);
        for ct in &self.z {
            ct.encode_into(&mut w);
        }
        w.finish()
    }

    /// Parses from the wire format.
    ///
    /// # Errors
    ///
    /// Fails on truncation, oversize counts, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let n = r.get_u32()? as usize;
        if n > (1 << 20) {
            return Err(WireError::Invalid("too many secret-key ciphertexts"));
        }
        let z = (0..n)
            .map(|_| SeededRlweCiphertext::decode_from(&mut r))
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        Ok(Self { z })
    }
}

fn derive_ct_seed<R: Rng + ?Sized>(rng: &mut R, i: usize) -> u64 {
    tiptoe_math::rng::derive_seed(rng.gen(), i as u64)
}

/// A server-side expanded form of an [`EncryptedSecret`]: every `z_i`
/// in NTT domain, ready for token generation. Expansion costs ~3·n
/// NTTs; expanding once and reusing it across services and shards is
/// the difference between one and five expansions per token.
pub struct ExpandedSecret {
    z: Vec<RlweCiphertext>,
}

impl ExpandedSecret {
    /// Number of secret coordinates covered.
    pub fn len(&self) -> usize {
        self.z.len()
    }

    /// Whether the expansion is empty.
    pub fn is_empty(&self) -> bool {
        self.z.is_empty()
    }
}

impl EncryptedSecret {
    /// Expands all ciphertexts into NTT form (server side).
    pub fn expand(&self, uh: &Underhood) -> ExpandedSecret {
        ExpandedSecret { z: self.z.iter().map(|z| expand(uh.outer(), z)).collect() }
    }
}

/// The server's NTT-ready form of a (bit-dropped, limb-decomposed)
/// hint: for each chunk of `N` hint rows, each limb, and each secret
/// coordinate `i`, the plaintext polynomial whose coefficient `r` is
/// `limb_j(H[chunk·N + r][i])`.
pub struct ServerHint {
    /// `[chunk][limb][secret coordinate] -> Shoup-precomputed
    /// NTT-domain plaintext`.
    polys: Vec<Vec<Vec<ShoupPoly>>>,
    /// Original number of hint rows (before padding to chunks of `N`).
    rows: usize,
    /// Secret dimension `n` of this hint.
    n: usize,
}

impl ServerHint {
    /// Number of hint rows covered (unpadded).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Secret dimension.
    pub fn secret_dim(&self) -> usize {
        self.n
    }

    /// Number of row chunks (`⌈rows / N⌉`).
    pub fn chunks(&self) -> usize {
        self.polys.len()
    }

    /// Replaces one chunk's polynomials after an incremental hint
    /// update (§3.2 corpus updates).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range or the layout differs.
    pub fn replace_chunk(&mut self, chunk: usize, polys: Vec<Vec<ShoupPoly>>) {
        assert!(chunk < self.polys.len(), "chunk out of range");
        assert_eq!(polys.len(), self.polys[chunk].len(), "limb count mismatch");
        assert!(polys.iter().all(|l| l.len() == self.n), "column count mismatch");
        self.polys[chunk] = polys;
    }
}

impl Underhood {
    /// Preprocesses a hint for token generation (corpus-dependent
    /// only; runs in the data-loading batch phase).
    pub fn preprocess_hint<W: Word>(&self, hint: &Mat<W>) -> ServerHint {
        let n_ring = self.ctx.params().degree;
        let rows = hint.rows();
        let n = hint.cols();
        let chunks = rows.div_ceil(n_ring).max(1);
        let polys = (0..chunks).map(|c| self.hint_chunk_polys(hint, c)).collect();
        ServerHint { polys, rows, n }
    }

    /// Builds the NTT-ready limb polynomials of one chunk of `N_ring`
    /// hint rows (the unit of incremental refresh after a corpus
    /// update: touching one matrix row only invalidates its chunk).
    pub fn hint_chunk_polys<W: Word>(&self, hint: &Mat<W>, chunk: usize) -> Vec<Vec<ShoupPoly>> {
        let n_ring = self.ctx.params().degree;
        let rows = hint.rows();
        let n = hint.cols();
        let mut coeffs = vec![0u64; n_ring];
        let mut per_limb = Vec::with_capacity(self.limbs as usize);
        for j in 0..self.limbs {
            let mut per_col = Vec::with_capacity(n);
            for i in 0..n {
                for (r, slot) in coeffs.iter_mut().enumerate() {
                    let row = chunk * n_ring + r;
                    *slot =
                        if row < rows { self.limb(hint.get(row, i).to_u64(), j) } else { 0 };
                }
                per_col.push(self.ctx.plaintext_shoup(&coeffs));
            }
            per_limb.push(per_col);
        }
        per_limb
    }

    /// Generates a query token: evaluates `Enc2(limb_j(H)·s)` for every
    /// chunk and limb, then modulus-switches for download compression.
    ///
    /// This is the server-side work of the paper's token-generation
    /// step (§6.3); it runs before the client has a query. Callers
    /// serving several hints for one client (two services, many
    /// shards) should [`EncryptedSecret::expand`] once and use
    /// [`Underhood::generate_token_expanded`].
    ///
    /// # Panics
    ///
    /// Panics if the encrypted secret covers fewer coordinates than the
    /// hint's secret dimension.
    pub fn generate_token(&self, sh: &ServerHint, es: &EncryptedSecret) -> QueryToken {
        self.generate_token_expanded(sh, &es.expand(self))
    }

    /// Token generation over a pre-expanded secret for one client, on
    /// one thread: [`Underhood::generate_token_expanded_many`] at batch
    /// 1.
    ///
    /// # Panics
    ///
    /// Panics if the expansion covers fewer coordinates than the
    /// hint's secret dimension.
    pub fn generate_token_expanded(&self, sh: &ServerHint, es: &ExpandedSecret) -> QueryToken {
        self.generate_token_expanded_many(sh, &[es], 1).swap_remove(0)
    }

    /// Batched token generation: evaluates one hint against `B`
    /// clients' expanded secrets in a single pass over the hint
    /// polynomials — the token-path counterpart of the batched scan
    /// engine, and what the serving plane's token lane flushes through.
    ///
    /// The work splits into independent `(chunk, limb)` units, each an
    /// NTT-domain multiply-accumulate over the secret coordinates plus
    /// one modulus switch per client; the units fan out across
    /// `num_threads` threads (`0` = one per core). Token generation is
    /// memory-bound on the hint: each `(chunk, limb, coordinate)` Shoup
    /// polynomial is far larger than the per-client accumulators, so
    /// the inner loop loads each polynomial once and
    /// multiply-accumulates it into all `B` clients' accumulators while
    /// it is hot.
    ///
    /// Each client's accumulation order over the secret coordinates is
    /// the same at every batch size and thread count, so every returned
    /// token is bit-identical to that client's token at batch 1 on one
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if any expansion covers fewer coordinates than the
    /// hint's secret dimension.
    pub fn generate_token_expanded_many(
        &self,
        sh: &ServerHint,
        secrets: &[&ExpandedSecret],
        num_threads: usize,
    ) -> Vec<QueryToken> {
        let b = secrets.len();
        if b == 0 {
            return Vec::new();
        }
        for es in secrets {
            assert!(es.len() >= sh.n, "encrypted secret too short for this hint");
        }
        let n_ring = self.ctx.params().degree;
        let limbs = self.limbs as usize;
        let units = sh.chunks() * limbs;
        // `(chunk, limb)` units fan out across threads; the batch
        // dimension stays inside each unit, where the polynomial reuse
        // lives.
        let mut flat: Vec<Option<Vec<SwitchedCiphertext>>> = (0..units).map(|_| None).collect();
        tiptoe_math::par::par_spans_mut(&mut flat, 1, num_threads, |start, span| {
            let table = self.ctx.table();
            let mut acc_a = vec![vec![0u64; n_ring]; b];
            let mut acc_b = vec![vec![0u64; n_ring]; b];
            for (off, slot) in span.iter_mut().enumerate() {
                let unit = start + off;
                let limb_polys = &sh.polys[unit / limbs][unit % limbs];
                for acc in acc_a.iter_mut().chain(acc_b.iter_mut()) {
                    acc.iter_mut().for_each(|x| *x = 0);
                }
                for (i, h_poly) in limb_polys.iter().enumerate() {
                    // One DRAM read of `h_poly` serves the whole batch.
                    for (bi, es) in secrets.iter().enumerate() {
                        let z = &es.z[i];
                        table.mul_acc_shoup(h_poly, z.a.data(), &mut acc_a[bi]);
                        table.mul_acc_shoup(h_poly, z.b.data(), &mut acc_b[bi]);
                    }
                }
                *slot = Some(
                    (0..b)
                        .map(|bi| {
                            let acc = RlweCiphertext {
                                a: Poly::from_ntt_data(
                                    std::sync::Arc::clone(table),
                                    acc_a[bi].clone(),
                                ),
                                b: Poly::from_ntt_data(
                                    std::sync::Arc::clone(table),
                                    acc_b[bi].clone(),
                                ),
                            };
                            mod_switch(&self.ctx, &acc, self.switch_log_q2)
                        })
                        .collect(),
                );
            }
        });
        // Transpose [unit][client] into per-client chunk×limb layouts.
        let mut per_client: Vec<Vec<SwitchedCiphertext>> =
            (0..b).map(|_| Vec::with_capacity(units)).collect();
        for unit_cts in flat {
            let unit_cts = unit_cts.expect("every unit computed");
            for (bi, ct) in unit_cts.into_iter().enumerate() {
                per_client[bi].push(ct);
            }
        }
        per_client
            .into_iter()
            .map(|units_flat| {
                let mut it = units_flat.into_iter();
                let chunks = (0..sh.chunks())
                    .map(|_| (0..limbs).map(|_| it.next().expect("unit count")).collect())
                    .collect();
                QueryToken { chunks, rows: sh.rows }
            })
            .collect()
    }

    /// Decodes a token into the `H·s` words needed for inner
    /// decryption (client side, before the query).
    pub fn decode_token<W: Word>(&self, key: &ClientKey, token: &QueryToken) -> DecodedToken<W> {
        let n_ring = self.ctx.params().degree;
        let kept = self.lwe.log_q - self.kappa;
        let kept_mask: u128 = if kept >= 128 { u128::MAX } else { (1u128 << kept) - 1 };
        // Allocation bounded by the material actually present, not the
        // (possibly hostile) declared row count.
        let mut hs = Vec::with_capacity(token.rows.min(token.chunks.len() * n_ring));
        for chunk in &token.chunks {
            let limb_values: Vec<Vec<i64>> = chunk
                .iter()
                .map(|sw| decrypt_switched(&self.ctx, &key.rlwe_sk, sw))
                .collect();
            for r in 0..n_ring {
                if hs.len() == token.rows {
                    break;
                }
                // T = Σ_j 2^(16j) · P_j[r]  (mod 2^kept), exactly.
                let mut t: i128 = 0;
                for (j, limb) in limb_values.iter().enumerate() {
                    t += (limb[r] as i128) << (16 * j);
                }
                let t_mod = (t.rem_euclid(1i128 << kept) as u128) & kept_mask;
                // H·s ≈ 2^κ · T.
                hs.push(W::from_u64((t_mod as u64).wrapping_shl(self.kappa)));
            }
        }
        DecodedToken { hs: Some(hs) }
    }

    /// Encrypts a query vector under the inner scheme (the only upload
    /// on the latency-critical path).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches (see [`scheme::encrypt`]).
    pub fn encrypt_query<W: Word, R: Rng + ?Sized>(
        &self,
        key: &ClientKey,
        a: &MatrixA,
        v: &[u64],
        rng: &mut R,
    ) -> LweCiphertext<W> {
        let sk = key.lwe_key::<W>(&self.lwe);
        scheme::encrypt(&self.lwe, &sk, a, v, rng)
    }

    /// Final decryption: combines the (single-use) decoded token with
    /// the online response `c' = M·ct`.
    ///
    /// # Panics
    ///
    /// Panics if the token was already used or if `applied.len()`
    /// differs from the token's row count.
    pub fn decrypt<W: Word>(&self, token: &mut DecodedToken<W>, applied: &[W]) -> Vec<u64> {
        let hs = token.take_hs();
        scheme::decrypt_from_parts(&self.lwe, &hs, applied)
    }

    /// Upper bound on the total decryption error: inner LWE noise after
    /// `m` MAC steps plus the dropped hint mass `n·2^κ`. Must stay
    /// below `Δ/2` for correct rounding.
    pub fn total_noise_bound(&self, m: usize) -> f64 {
        self.lwe.noise_bound(m) + (self.lwe.n as f64) * (2f64).powi(self.kappa as i32)
    }

    /// Whether the composed scheme decrypts reliably at upload
    /// dimension `m`.
    pub fn supports_upload_dim(&self, m: usize) -> bool {
        self.total_noise_bound(m) < self.lwe.delta() as f64 / 2.0
    }
}

/// A query token: the modulus-switched `Enc2(H·s)` ciphertexts,
/// `[chunk][limb]`.
#[derive(Debug, Clone)]
pub struct QueryToken {
    chunks: Vec<Vec<SwitchedCiphertext>>,
    rows: usize,
}

impl QueryToken {
    /// Wire size in bytes: header (rows, chunk count, limb count) plus
    /// the modulus-switched ciphertexts.
    pub fn byte_len(&self) -> u64 {
        12 + self.chunks.iter().flatten().map(|c| c.byte_len()).sum::<u64>()
    }

    /// Serializes to the wire format (`encode().len() == byte_len()`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.byte_len() as usize);
        w.put_u32(self.rows as u32);
        w.put_u32(self.chunks.len() as u32);
        w.put_u32(self.chunks.first().map_or(0, Vec::len) as u32);
        for chunk in &self.chunks {
            for limb in chunk {
                limb.encode_into(&mut w);
            }
        }
        w.finish()
    }

    /// Parses from the wire format.
    ///
    /// # Errors
    ///
    /// Fails on truncation, an inconsistent layout, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let rows = r.get_u32()? as usize;
        let chunk_count = r.get_u32()? as usize;
        let limb_count = r.get_u32()? as usize;
        if chunk_count > (1 << 16) || limb_count > 8 {
            return Err(WireError::Invalid("token layout out of range"));
        }
        // Each chunk covers at most one ring degree of hint rows, so a
        // declared row count beyond chunks · 2^16 cannot be honest;
        // rejecting it here bounds the decode-side allocation.
        if rows > chunk_count.saturating_mul(1 << 16) {
            return Err(WireError::Invalid("token row count exceeds chunk capacity"));
        }
        let mut chunks = Vec::with_capacity(chunk_count);
        for _ in 0..chunk_count {
            let mut per_limb = Vec::with_capacity(limb_count);
            for _ in 0..limb_count {
                per_limb.push(SwitchedCiphertext::decode_from(&mut r)?);
            }
            chunks.push(per_limb);
        }
        r.finish()?;
        Ok(Self { chunks, rows })
    }

    /// Number of hint rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// A decoded, **single-use** token holding the `H·s` words.
#[derive(Debug, Clone)]
pub struct DecodedToken<W: Word> {
    hs: Option<Vec<W>>,
}

impl<W: Word> DecodedToken<W> {
    /// Consumes the token's key material.
    ///
    /// # Panics
    ///
    /// Panics if the token was already used (reuse would break the
    /// semantic security of the inner scheme, paper §6.3).
    pub fn take_hs(&mut self) -> Vec<W> {
        self.hs.take().expect("query token already used; tokens are single-use")
    }

    /// Whether this token is still usable.
    pub fn is_fresh(&self) -> bool {
        self.hs.is_some()
    }

    /// Number of `H·s` words (only valid while fresh).
    pub fn rows(&self) -> usize {
        self.hs.as_ref().map_or(0, |v| v.len())
    }
}

/// Combines partial tokens from vertically sharded workers by summing
/// the underlying ciphertexts (the coordinator-side aggregation of
/// §4.3 applied to token generation).
///
/// All shards must share chunk/limb layout and modulus.
///
/// # Panics
///
/// Panics if `parts` is empty or the layouts differ.
pub fn combine_partial_tokens(uh: &Underhood, parts: &[QueryToken]) -> QueryToken {
    assert!(!parts.is_empty(), "no partial tokens to combine");
    let rows = parts[0].rows;
    let n_ring = uh.outer().params().degree;
    let chunk_count = parts[0].chunks.len();
    let limb_count = parts[0].chunks.first().map_or(0, |c| c.len());
    let mut out = Vec::with_capacity(chunk_count);
    for c in 0..chunk_count {
        let mut per_limb = Vec::with_capacity(limb_count);
        for l in 0..limb_count {
            let log_q2 = parts[0].chunks[c][l].log_q2;
            let mask = if log_q2 == 64 { u64::MAX } else { (1u64 << log_q2) - 1 };
            let mut a = vec![0u64; n_ring];
            let mut b = vec![0u64; n_ring];
            for part in parts {
                assert_eq!(part.rows, rows, "shard layout mismatch");
                let sw = &part.chunks[c][l];
                assert_eq!(sw.log_q2, log_q2, "shard modulus mismatch");
                for (acc, &x) in a.iter_mut().zip(sw.a.iter()) {
                    *acc = acc.wrapping_add(x) & mask;
                }
                for (acc, &x) in b.iter_mut().zip(sw.b.iter()) {
                    *acc = acc.wrapping_add(x) & mask;
                }
            }
            per_limb.push(SwitchedCiphertext { a, b, log_q2 });
        }
        out.push(per_limb);
    }
    QueryToken { chunks: out, rows }
}

/// Combines *decoded* per-shard tokens over a survivor subset: the
/// degraded-mode counterpart of [`combine_partial_tokens`].
///
/// With a vertically sharded hint `H = Σ_w H_w`, each shard's token
/// decodes to `H_w·s` (plus its bounded drop error), and any subset
/// sums to the `H·s` restricted to the shards that answered — so a
/// client holding per-shard tokens can decrypt exactly over whichever
/// shards survive a fault-degraded query. Consumes the included parts
/// (they share the single-use inner secret).
///
/// # Panics
///
/// Panics if the mask length differs from `parts`, no shard is
/// included, an included part was already used, or row counts differ.
pub fn combine_decoded_subset<W: Word>(
    parts: &mut [DecodedToken<W>],
    include: &[bool],
) -> DecodedToken<W> {
    assert_eq!(parts.len(), include.len(), "survivor mask length mismatch");
    let mut acc: Option<Vec<W>> = None;
    for (part, &inc) in parts.iter_mut().zip(include) {
        if !inc {
            continue;
        }
        let hs = part.take_hs();
        match &mut acc {
            None => acc = Some(hs),
            Some(a) => {
                assert_eq!(a.len(), hs.len(), "shard token row-count mismatch");
                for (x, y) in a.iter_mut().zip(hs) {
                    *x = x.wadd(y);
                }
            }
        }
    }
    DecodedToken { hs: Some(acc.expect("no surviving shard token to combine")) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use tiptoe_lwe::scheme::{apply, preproc};
    use tiptoe_math::rng::seeded_rng;

    fn test_underhood_64() -> Underhood {
        // Inner: q = 2^64, p = 2^17 (ranking-like), n = 64.
        // Outer: small ring with t = 2^24 ≥ 2·64·2^16.
        let lwe = LweParams::insecure_test(64, 1 << 17, 81920.0);
        let rlwe = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
        Underhood::with_outer(lwe, rlwe, 44)
    }

    fn test_underhood_32() -> Underhood {
        // Inner: q = 2^32, p = 991 (URL-like), n = 64.
        let lwe = LweParams::insecure_test(32, 991, 6.4);
        let rlwe = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
        Underhood::with_outer(lwe, rlwe, 44)
    }

    fn random_db(rng: &mut impl Rng, rows: usize, cols: usize, p: u64) -> Mat<u32> {
        Mat::from_fn(rows, cols, |_, _| rng.gen_range(0..p) as u32)
    }

    fn matvec_mod_p(db: &Mat<u32>, v: &[u64], p: u64) -> Vec<u64> {
        (0..db.rows())
            .map(|i| {
                let mut acc: u128 = 0;
                for (j, &m) in db.row(i).iter().enumerate() {
                    acc = (acc + m as u128 * v[j] as u128) % p as u128;
                }
                acc as u64
            })
            .collect()
    }

    /// Full protocol roundtrip against the plain-hint reference.
    fn roundtrip<W: Word>(uh: &Underhood, rows: usize, cols: usize, seed: u64, selection: bool) {
        let mut rng = seeded_rng(seed);
        let p = uh.lwe().p;
        let db = random_db(&mut rng, rows, cols, p.min(16));
        let a = MatrixA::new(77, cols, uh.lwe().n);
        let key = ClientKey::generate(uh, uh.lwe().n, &mut rng);

        // Offline: encrypted secret -> token.
        let es = EncryptedSecret::encrypt(uh, &key, &mut rng);
        let hint = preproc::<W>(&db, &a.row_range(0, cols), 1);
        let sh = uh.preprocess_hint(&hint);
        let token = uh.generate_token(&sh, &es);
        let mut decoded = uh.decode_token::<W>(&key, &token);

        // Online: encrypted query -> apply -> decrypt with token.
        let v: Vec<u64> = if selection {
            let mut v = vec![0u64; cols];
            v[cols / 3] = 1;
            v
        } else {
            (0..cols).map(|_| rng.gen_range(0..p)).collect()
        };
        let ct = uh.encrypt_query::<W, _>(&key, &a, &v, &mut rng);
        let applied = apply(&db, &ct);
        let got = uh.decrypt(&mut decoded, &applied);
        assert_eq!(got, matvec_mod_p(&db, &v, p));
    }

    #[test]
    fn roundtrip_ranking_like_q64() {
        roundtrip::<u64>(&test_underhood_64(), 10, 48, 1, false);
    }

    #[test]
    fn roundtrip_url_like_q32() {
        roundtrip::<u32>(&test_underhood_32(), 10, 48, 2, true);
    }

    #[test]
    fn roundtrip_multiple_chunks() {
        // More hint rows than the ring degree forces multi-chunk tokens.
        roundtrip::<u64>(&test_underhood_64(), 150, 32, 3, false);
    }

    #[test]
    fn parallel_token_generation_is_bit_identical() {
        let uh = test_underhood_64();
        let mut rng = seeded_rng(9);
        // 150 rows over a degree-64 ring -> 3 chunks x 3 limbs of work.
        let db = random_db(&mut rng, 150, 32, 8);
        let a = MatrixA::new(21, 32, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, 32), 1);
        let sh = uh.preprocess_hint(&hint);
        let expanded = es.expand(&uh);
        let sequential = uh.generate_token_expanded(&sh, &expanded).encode();
        for threads in [0, 2, 3, 7] {
            let par = uh.generate_token_expanded_many(&sh, &[&expanded], threads)[0].encode();
            assert_eq!(par, sequential, "threads={threads}");
        }
    }

    #[test]
    fn batched_token_generation_is_bit_identical_per_client() {
        // Three clients with independent keys against one multi-chunk
        // hint: every batched token must equal that client's solo
        // token byte-for-byte, at several thread counts (the batch
        // dimension lives inside each parallel unit).
        let uh = test_underhood_64();
        let mut rng = seeded_rng(31);
        let db = random_db(&mut rng, 150, 32, 8);
        let a = MatrixA::new(23, 32, uh.lwe().n);
        let hint = preproc::<u64>(&db, &a.row_range(0, 32), 1);
        let sh = uh.preprocess_hint(&hint);
        let expansions: Vec<ExpandedSecret> = (0..3)
            .map(|_| {
                let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
                EncryptedSecret::encrypt(&uh, &key, &mut rng).expand(&uh)
            })
            .collect();
        let solo: Vec<Vec<u8>> =
            expansions.iter().map(|es| uh.generate_token_expanded(&sh, es).encode()).collect();
        let refs: Vec<&ExpandedSecret> = expansions.iter().collect();
        for threads in [1, 2, 3] {
            let batched = uh.generate_token_expanded_many(&sh, &refs, threads);
            assert_eq!(batched.len(), 3);
            for (bi, token) in batched.iter().enumerate() {
                assert_eq!(token.encode(), solo[bi], "client {bi}, threads={threads}");
            }
        }
        assert!(uh.generate_token_expanded_many(&sh, &[], 1).is_empty());
    }

    #[test]
    fn token_reuse_is_rejected() {
        let uh = test_underhood_64();
        let mut rng = seeded_rng(4);
        let db = random_db(&mut rng, 4, 16, 8);
        let a = MatrixA::new(5, 16, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, 16), 1);
        let sh = uh.preprocess_hint(&hint);
        let token = uh.generate_token(&sh, &es);
        let mut decoded = uh.decode_token::<u64>(&key, &token);
        assert!(decoded.is_fresh());
        let _ = decoded.take_hs();
        assert!(!decoded.is_fresh());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = decoded.take_hs();
        }));
        assert!(result.is_err(), "second use must panic");
    }

    #[test]
    fn decoded_hs_matches_true_hint_product_up_to_budget() {
        let uh = test_underhood_64();
        let mut rng = seeded_rng(5);
        let cols = 32;
        let db = random_db(&mut rng, 8, cols, 16);
        let a = MatrixA::new(6, cols, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let sh = uh.preprocess_hint(&hint);
        let token = uh.generate_token(&sh, &es);
        let mut decoded = uh.decode_token::<u64>(&key, &token);
        let approx = decoded.take_hs();
        let exact = scheme::hint_times_secret(&hint, &key.lwe_key::<u64>(uh.lwe()));
        let budget = (uh.lwe().n as u64) << uh.dropped_bits();
        for (got, want) in approx.iter().zip(exact.iter()) {
            let err = want.wrapping_sub(*got);
            let err = (err as i64).unsigned_abs();
            assert!(err <= budget, "hint error {err} exceeds budget {budget}");
        }
    }

    #[test]
    fn sharded_tokens_combine_to_unsharded_result() {
        // Vertical sharding: hint = hint_left + hint_right, and the
        // coordinator sums the partial tokens (all under one client key).
        let uh = test_underhood_64();
        let mut rng = seeded_rng(6);
        let cols = 48;
        let split = 32;
        let p = uh.lwe().p;
        let db = random_db(&mut rng, 8, cols, 16);
        let a = MatrixA::new(7, cols, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);

        let left = preproc::<u64>(&db.column_slice(0, split), &a.row_range(0, split), 1);
        let right = preproc::<u64>(&db.column_slice(split, cols), &a.row_range(split, cols - split), 1);
        let t_left = uh.generate_token(&uh.preprocess_hint(&left), &es);
        let t_right = uh.generate_token(&uh.preprocess_hint(&right), &es);
        let combined = combine_partial_tokens(&uh, &[t_left, t_right]);
        let mut decoded = uh.decode_token::<u64>(&key, &combined);

        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..p)).collect();
        let ct = uh.encrypt_query::<u64, _>(&key, &a, &v, &mut rng);
        let applied = apply(&db, &ct);
        let got = uh.decrypt(&mut decoded, &applied);
        assert_eq!(got, matvec_mod_p(&db, &v, p));
    }

    #[test]
    fn decoded_subset_combination_decrypts_over_survivors() {
        // Degraded mode: per-shard tokens, decrypted over a survivor
        // subset, must yield the exact scores of the surviving columns
        // (the failed shard's columns contribute zero).
        let uh = test_underhood_64();
        let mut rng = seeded_rng(16);
        let cols = 48;
        let split = 32;
        let p = uh.lwe().p;
        let db = random_db(&mut rng, 8, cols, 16);
        let a = MatrixA::new(7, cols, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);

        let left_db = db.column_slice(0, split);
        let left = preproc::<u64>(&left_db, &a.row_range(0, split), 1);
        let right = preproc::<u64>(&db.column_slice(split, cols), &a.row_range(split, cols - split), 1);
        let t_left = uh.generate_token(&uh.preprocess_hint(&left), &es);
        let t_right = uh.generate_token(&uh.preprocess_hint(&right), &es);
        let mut parts =
            vec![uh.decode_token::<u64>(&key, &t_left), uh.decode_token::<u64>(&key, &t_right)];

        // Only the left shard survives; the query vector is zero on the
        // failed shard's columns (the client knows which shards died).
        let mut v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..p)).collect();
        for x in v.iter_mut().skip(split) {
            *x = 0;
        }
        let ct = uh.encrypt_query::<u64, _>(&key, &a, &v, &mut rng);
        // The coordinator sums only the surviving shard's answer.
        let chunk = LweCiphertext { c: ct.c[..split].to_vec() };
        let applied = apply(&left_db, &chunk);
        let mut subset = combine_decoded_subset(&mut parts, &[true, false]);
        let got = uh.decrypt(&mut subset, &applied);
        assert_eq!(got, matvec_mod_p(&left_db, &v[..split], p));
        // Included parts are consumed; excluded ones stay fresh.
        assert!(!parts[0].is_fresh());
        assert!(parts[1].is_fresh());

        // Both shards surviving must match the combined-token path.
        let mut all =
            vec![uh.decode_token::<u64>(&key, &t_left), uh.decode_token::<u64>(&key, &t_right)];
        let mut both = combine_decoded_subset(&mut all, &[true, true]);
        let combined = combine_partial_tokens(&uh, &[t_left, t_right]);
        let mut dec = uh.decode_token::<u64>(&key, &combined);
        let v2: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..p)).collect();
        let ct2 = uh.encrypt_query::<u64, _>(&key, &a, &v2, &mut rng);
        let applied2 = apply(&db, &ct2);
        assert_eq!(uh.decrypt(&mut both, &applied2), uh.decrypt(&mut dec, &applied2));
    }

    #[test]
    fn hostile_token_row_counts_are_rejected() {
        // A declared row count far beyond the shipped chunks must fail
        // decode instead of reserving gigabytes in decode_token.
        let uh = test_underhood_64();
        let mut rng = seeded_rng(17);
        let db = random_db(&mut rng, 8, 16, 8);
        let a = MatrixA::new(5, 16, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, 16), 1);
        let token = uh.generate_token(&uh.preprocess_hint(&hint), &es);
        let mut bytes = token.encode();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(QueryToken::decode(&bytes), Err(WireError::Invalid(_))));
        // The original still roundtrips.
        let back = QueryToken::decode(&token.encode()).expect("valid token decodes");
        assert_eq!(back.rows(), token.rows());
    }

    #[test]
    fn layout_matches_parameters() {
        let uh64 = test_underhood_64();
        // q = 2^64, p = 2^17 -> Δ = 2^47; n = 64 -> κ = 47-4-6 = 37;
        // kept 27 bits -> 2 limbs.
        assert_eq!(uh64.dropped_bits(), 37);
        assert_eq!(uh64.limb_count(), 2);
        assert!(uh64.supports_upload_dim(1 << 10));

        let uh32 = test_underhood_32();
        // q = 2^32, p = 991 -> Δ ≈ 2^21.7; κ ≈ 21.7-3-6 ≈ 12.
        assert!(uh32.dropped_bits() >= 10 && uh32.dropped_bits() <= 13);
        assert_eq!(uh32.limb_count(), 2);
    }

    #[test]
    fn production_parameters_have_positive_budget() {
        let uh = Underhood::new(LweParams::ranking_text());
        // Ranking: Δ = 2^47, n = 2048 -> κ = 47-4-11 = 32, kept 32 bits
        // -> 2 limbs; still supports the paper's 2^21 upload dimension.
        assert_eq!(uh.dropped_bits(), 32);
        assert_eq!(uh.limb_count(), 2);
        assert!(uh.supports_upload_dim(1 << 21));
    }

    #[test]
    fn production_noise_margin_is_healthy() {
        // Production parameters, many trials, realistic upload width:
        // the measured decryption noise must stay well under Δ/2, and
        // no trial may decrypt incorrectly.
        let uh = Underhood::new(LweParams::ranking_text());
        let mut rng = seeded_rng(42);
        let p = uh.lwe().p;
        let cols = 384; // 2 clusters x d=192 at production dimensions.
        let db = random_db(&mut rng, 4, cols, 16);
        let a = MatrixA::new(77, cols, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let sh = uh.preprocess_hint(&hint);
        for trial in 0..3 {
            let token = uh.generate_token(&sh, &es);
            let mut decoded = uh.decode_token::<u64>(&key, &token);
            let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..p)).collect();
            let ct = uh.encrypt_query::<u64, _>(&key, &a, &v, &mut rng);
            let applied = apply(&db, &ct);
            let got = uh.decrypt(&mut decoded, &applied);
            assert_eq!(got, matvec_mod_p(&db, &v, p), "trial {trial} decrypted wrong");
        }
        // The analytic budget agrees: margins at this width are ample.
        assert!(uh.total_noise_bound(cols) < uh.lwe().delta() as f64 / 8.0);
    }

    #[test]
    fn token_is_smaller_than_unswitched_hint_download() {
        let uh = test_underhood_64();
        let mut rng = seeded_rng(8);
        let cols = 16;
        let db = random_db(&mut rng, 70, cols, 8);
        let a = MatrixA::new(9, cols, uh.lwe().n);
        let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
        let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
        let hint = preproc::<u64>(&db, &a.row_range(0, cols), 1);
        let token = uh.generate_token(&uh.preprocess_hint(&hint), &es);
        // The raw hint would be rows×n 8-byte words.
        let raw_hint_bytes = (hint.rows() * hint.cols() * 8) as u64;
        assert!(token.byte_len() < raw_hint_bytes, "token should beat shipping the hint");
    }
}
