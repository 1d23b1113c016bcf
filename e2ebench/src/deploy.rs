//! Seeded inputs and deployment bring-up.

use std::time::{Duration, Instant};

use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, Corpus, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_math::rng::{derive_seed, seeded_rng};

/// Which parameter set a workload runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Production text parameters (`TiptoeConfig::text`,
    /// `TextEmbedder::paper_text`): the benchmark proper.
    Production,
    /// `TiptoeConfig::test_small` over a small corpus: the harness
    /// self-tests.
    #[cfg(test)]
    Small,
}

/// A deployment's generated inputs.
pub struct Inputs {
    /// The corpus and its held-out queries.
    pub corpus: Corpus,
    /// Deployment configuration.
    pub config: TiptoeConfig,
    /// Client-side embedding model.
    pub embedder: TextEmbedder,
}

/// Generates the corpus, configuration and embedder for `docs`
/// documents and `queries` benchmark queries, all from `seed`.
pub fn inputs(scale: Scale, docs: usize, queries: usize, seed: u64) -> Inputs {
    let (docs, config, embedder) = match scale {
        Scale::Production => (
            docs,
            TiptoeConfig::text(docs, seed),
            TextEmbedder::paper_text(seed),
        ),
        #[cfg(test)]
        Scale::Small => {
            let docs = docs.min(240);
            let config = TiptoeConfig::test_small(docs, seed);
            let embedder = TextEmbedder::new(config.d_embed, seed, 0);
            (docs, config, embedder)
        }
    };
    let corpus = generate(&CorpusConfig::small(docs, seed), queries);
    Inputs {
        corpus,
        config,
        embedder,
    }
}

/// Set-up time: the deployment's build plus the serving plane's
/// bring-up.
pub fn build(inputs: &Inputs) -> (TiptoeInstance<TextEmbedder>, Duration) {
    let start = Instant::now();
    let instance = TiptoeInstance::build(&inputs.config, inputs.embedder.clone(), &inputs.corpus);
    (instance, start.elapsed())
}

/// A seeded permutation of `0..n` (Fisher–Yates over a SplitMix
/// stream), so query order depends on the seed alone.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    use rand::Rng;
    let mut rng = seeded_rng(derive_seed(seed, 0x0bde));
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}
