//! The synthetic text embedding model.
//!
//! Stands in for `msmarco-distilbert-base-tas-b` (768-d): a
//! feature-hashing bag-of-words over word unigrams, word bigrams, and
//! character trigrams, followed by a seeded *sparse* random projection
//! (each hashed feature touches a few signed output coordinates), then
//! L2 normalization. Inner products of the outputs track lexical and
//! topical overlap of the inputs, which is the black-box property
//! Tiptoe needs from its embedding function.
//!
//! Like the paper's model, the embedder only consumes a bounded prefix
//! of each document (the paper embeds the first 512 tokens).

use tiptoe_math::rng::derive_seed;

use crate::vector::normalize;
use crate::Embedder;

/// Number of output coordinates each hashed feature touches.
const FEATURE_FANOUT: usize = 8;

/// Maximum number of tokens consumed per document (the paper's model
/// truncates at 512 tokens).
pub const MAX_TOKENS: usize = 512;

/// The synthetic 768-dimensional text embedding model.
#[derive(Debug, Clone)]
pub struct TextEmbedder {
    dim: usize,
    seed: u64,
    /// Simulated serialized-model size (the paper's model download is
    /// 265 MiB; ours is a seed, but the cost model can override).
    model_bytes: u64,
}

impl TextEmbedder {
    /// The paper's text configuration: 768 dimensions.
    pub fn paper_text(seed: u64) -> Self {
        Self::new(768, seed, 265 << 20)
    }

    /// A custom-dimension embedder.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, seed: u64, model_bytes: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self { dim, seed, model_bytes }
    }

    /// Lowercases and splits into alphanumeric tokens.
    pub fn tokenize(text: &str) -> Vec<String> {
        text.to_lowercase()
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(str::to_owned)
            .take(MAX_TOKENS)
            .collect()
    }

    /// FNV-1a hash of a feature string, mixed with the model seed.
    fn feature_hash(&self, feature: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for b in feature.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Scatters one weighted feature into the accumulator via the
    /// sparse signed projection.
    fn scatter(&self, acc: &mut [f32], feature: &str, weight: f32) {
        let h = self.feature_hash(feature);
        for k in 0..FEATURE_FANOUT {
            let r = derive_seed(h, k as u64);
            let idx = (r as usize) % self.dim;
            let sign = if (r >> 63) & 1 == 1 { 1.0 } else { -1.0 };
            acc[idx] += sign * weight;
        }
    }
}

impl Embedder for TextEmbedder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed_text(&self, text: &str) -> Vec<f32> {
        let tokens = Self::tokenize(text);
        let mut acc = vec![0.0f32; self.dim];
        // Word unigrams (sub-linear term weighting, tf-style), summed
        // in first-occurrence order: f32 addition is not associative,
        // so a hash-map walk (randomly keyed per map) would change the
        // embedding's last bits from call to call.
        let mut slots: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        let mut counts: Vec<(&str, f32)> = Vec::new();
        for t in &tokens {
            let slot = *slots.entry(t.as_str()).or_insert_with(|| {
                counts.push((t.as_str(), 0.0));
                counts.len() - 1
            });
            counts[slot].1 += 1.0;
        }
        for (t, c) in &counts {
            self.scatter(&mut acc, t, 1.0 + c.ln());
        }
        // Word bigrams capture local phrase structure.
        for pair in tokens.windows(2) {
            let bigram = format!("{}\u{1}{}", pair[0], pair[1]);
            self.scatter(&mut acc, &bigram, 0.5);
        }
        // Character trigrams give partial-match robustness.
        for t in &tokens {
            let bytes = t.as_bytes();
            if bytes.len() >= 3 {
                for w in bytes.windows(3) {
                    let tri = format!("#{}", String::from_utf8_lossy(w));
                    self.scatter(&mut acc, &tri, 0.25);
                }
            }
        }
        normalize(&mut acc);
        acc
    }

    fn model_bytes(&self) -> u64 {
        self.model_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{dot, norm};

    fn embedder() -> TextEmbedder {
        TextEmbedder::new(256, 7, 0)
    }

    #[test]
    fn embeddings_are_unit_norm_and_deterministic() {
        let e = embedder();
        let a = e.embed_text("private web search with tiptoe");
        let b = e.embed_text("private web search with tiptoe");
        assert_eq!(a, b);
        assert!((norm(&a) - 1.0).abs() < 1e-5);
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn similar_texts_are_closer_than_dissimilar() {
        let e = embedder();
        let q = e.embed_text("symptoms of knee pain after running");
        let related = e.embed_text("knee pain symptoms and treatment for runners");
        let unrelated = e.embed_text("quarterly corporate tax filing deadlines");
        assert!(
            dot(&q, &related) > dot(&q, &unrelated) + 0.1,
            "related {} vs unrelated {}",
            dot(&q, &related),
            dot(&q, &unrelated)
        );
    }

    #[test]
    fn empty_text_embeds_to_zero() {
        let e = embedder();
        let v = e.embed_text("   ");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn tokenizer_truncates_at_max_tokens() {
        let long: String = (0..2000).map(|i| format!("w{i} ")).collect();
        assert_eq!(TextEmbedder::tokenize(&long).len(), MAX_TOKENS);
    }

    #[test]
    fn different_seeds_give_different_models() {
        let a = TextEmbedder::new(128, 1, 0).embed_text("hello world");
        let b = TextEmbedder::new(128, 2, 0).embed_text("hello world");
        assert_ne!(a, b);
    }

    #[test]
    fn paper_text_model_has_768_dims() {
        let e = TextEmbedder::paper_text(0);
        assert_eq!(e.dim(), 768);
        assert_eq!(e.model_bytes(), 265 << 20);
    }
}
