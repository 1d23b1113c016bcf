//! Search-quality integration tests: the *ordering* relationships of
//! the paper's Figure 4 and Figure 9 must hold on the synthetic
//! benchmark (absolute MRR values differ — the embedding model is a
//! synthetic stand-in; see DESIGN.md §2).

use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, Corpus, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_embed::Embedder;
use tiptoe_ir::exhaustive::ExhaustiveSearch;
use tiptoe_ir::metrics::QualityReport;
use tiptoe_ir::tfidf::TfIdf;
use tiptoe_ir::{Retriever, SearchHit};

const K: usize = 100;

fn corpus() -> Corpus {
    generate(&CorpusConfig::small(600, 81), 60)
}

fn evaluate<R: Retriever>(retriever: &R, corpus: &Corpus) -> QualityReport {
    let results: Vec<Vec<SearchHit>> =
        corpus.queries.iter().map(|q| retriever.search(&q.text, K)).collect();
    let relevant: Vec<u32> = corpus.queries.iter().map(|q| q.relevant).collect();
    QualityReport::evaluate(&results, &relevant, K)
}

fn evaluate_tiptoe(instance: &TiptoeInstance<TextEmbedder>, corpus: &Corpus) -> QualityReport {
    let mut client = instance.new_client(1);
    let results: Vec<Vec<SearchHit>> = corpus
        .queries
        .iter()
        .map(|q| {
            client
                .search(instance, &q.text, K)
                .hits
                .into_iter()
                .map(|h| SearchHit { doc: h.doc, score: h.score })
                .collect()
        })
        .collect();
    let relevant: Vec<u32> = corpus.queries.iter().map(|q| q.relevant).collect();
    QualityReport::evaluate(&results, &relevant, K)
}

#[test]
fn exhaustive_embeddings_upper_bound_tiptoe() {
    let corpus = corpus();
    let config = TiptoeConfig::test_small(corpus.docs.len(), 81);
    let embedder = TextEmbedder::new(config.d_embed, 81, 0);
    let instance = TiptoeInstance::build(&config, embedder.clone(), &corpus);

    // Exhaustive search over the same reduced embeddings the server
    // indexes (no clustering): Figure 4's "Embeddings" bar.
    let exhaustive =
        ExhaustiveSearch::from_embeddings(&embedder, instance.artifacts.reduced_embeddings.clone());
    let texts = corpus.texts();
    let _ = texts; // corpus borrowed below
    let mut client = instance.new_client(1);

    let mut exhaustive_results = Vec::new();
    let mut tiptoe_results = Vec::new();
    for q in &corpus.queries {
        // Exhaustive ranks with the same reduced query embedding.
        let raw = instance.embedder.embed_text(&q.text);
        let mut red = instance.artifacts.pca.project(&raw);
        tiptoe_embed::vector::normalize(&mut red);
        exhaustive_results.push(exhaustive.search_embedding(&red, K));
        tiptoe_results.push(
            client
                .search(&instance, &q.text, K)
                .hits
                .into_iter()
                .map(|h| SearchHit { doc: h.doc, score: h.score })
                .collect::<Vec<_>>(),
        );
    }
    let relevant: Vec<u32> = corpus.queries.iter().map(|q| q.relevant).collect();
    let full = QualityReport::evaluate(&exhaustive_results, &relevant, K);
    let clustered = QualityReport::evaluate(&tiptoe_results, &relevant, K);
    assert!(
        full.mrr >= clustered.mrr - 1e-9,
        "clustering cannot beat exhaustive search: {} vs {}",
        full.mrr,
        clustered.mrr
    );
    assert!(full.mrr > 0.1, "exhaustive search should work on this corpus: {}", full.mrr);
}

#[test]
fn restricted_dictionary_hurts_tfidf() {
    // The Coeus dictionary restriction (§8.2): a small top-IDF
    // dictionary collapses tf-idf quality.
    let corpus = corpus();
    let texts = corpus.texts();
    let full = TfIdf::build(&texts);
    let restricted = TfIdf::build_restricted(&texts, 50);
    let full_report = evaluate(&full, &corpus);
    let restricted_report = evaluate(&restricted, &corpus);
    assert!(
        full_report.mrr > restricted_report.mrr + 0.05,
        "restricting the dictionary must hurt: {} vs {}",
        full_report.mrr,
        restricted_report.mrr
    );
}

#[test]
fn tiptoe_quality_bounded_by_cluster_hit_rate() {
    // Figure 4 (right): the dotted gray line — the fraction of queries
    // whose answer lies in the searched cluster — upper-bounds
    // Tiptoe's CDF at every rank.
    let corpus = corpus();
    let config = TiptoeConfig::test_small(corpus.docs.len(), 81);
    let embedder = TextEmbedder::new(config.d_embed, 81, 0);
    let instance = TiptoeInstance::build(&config, embedder, &corpus);
    let mut client = instance.new_client(2);

    let mut cluster_hits = 0usize;
    let mut results = Vec::new();
    for q in &corpus.queries {
        let r = client.search(&instance, &q.text, K);
        if instance.artifacts.clustering.members[r.cluster].contains(&q.relevant) {
            cluster_hits += 1;
        }
        results.push(
            r.hits
                .into_iter()
                .map(|h| SearchHit { doc: h.doc, score: h.score })
                .collect::<Vec<_>>(),
        );
    }
    let relevant: Vec<u32> = corpus.queries.iter().map(|q| q.relevant).collect();
    let report = QualityReport::evaluate(&results, &relevant, K);
    let bound = cluster_hits as f64 / corpus.queries.len() as f64;
    assert!(
        report.recall() <= bound + 1e-9,
        "recall {} cannot exceed the cluster-hit bound {}",
        report.recall(),
        bound
    );
    assert!(bound > 0.15, "cluster selection should work sometimes: {bound}");
}

#[test]
fn dual_assignment_does_not_hurt_quality() {
    // Figure 9 ➎: assigning boundary documents to two clusters
    // improves (or at least does not hurt) MRR, at ~1.2× index cost.
    let corpus = corpus();
    let mut with = TiptoeConfig::test_small(corpus.docs.len(), 81);
    with.cluster.dual_assign_frac = 0.2;
    let mut without = with.clone();
    without.cluster.dual_assign_frac = 0.0;

    let e1 = TextEmbedder::new(with.d_embed, 81, 0);
    let e2 = TextEmbedder::new(with.d_embed, 81, 0);
    let instance_with = TiptoeInstance::build(&with, e1, &corpus);
    let instance_without = TiptoeInstance::build(&without, e2, &corpus);

    let r_with = evaluate_tiptoe(&instance_with, &corpus);
    let r_without = evaluate_tiptoe(&instance_without, &corpus);
    assert!(
        r_with.mrr >= r_without.mrr - 0.02,
        "dual assignment should not hurt: {} vs {}",
        r_with.mrr,
        r_without.mrr
    );
    // And it must cost ~1.2× index slots.
    let overhead = instance_with.artifacts.order.len() as f64
        / instance_without.artifacts.order.len() as f64;
    assert!((1.1..=1.3).contains(&overhead), "index overhead {overhead}");
}

#[test]
fn text_embeddings_are_bitwise_deterministic() {
    // Repeated embeddings of one text must agree to the bit: a single
    // flipped low bit can move a document across a quantization step
    // and make two deployments of the same corpus differ.
    let embedder = TextEmbedder::paper_text(1);
    let corpus = generate(&CorpusConfig::small(4096, 1), 0);
    for doc in &corpus.docs {
        let first: Vec<u32> = embedder.embed_text(&doc.text).iter().map(|x| x.to_bits()).collect();
        for _ in 0..4 {
            let again: Vec<u32> =
                embedder.embed_text(&doc.text).iter().map(|x| x.to_bits()).collect();
            assert!(first == again, "doc {} embeds differently across calls", doc.id);
        }
    }
}
