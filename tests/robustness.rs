//! Malicious-server robustness tests.
//!
//! The paper's threat model (§2): "In the face of malicious servers,
//! Tiptoe guarantees neither the availability of its service nor the
//! correctness of its results." What the *client implementation* must
//! still guarantee is memory safety and graceful failure: a server
//! returning garbage must never crash the client, corrupt unrelated
//! state, or trick a decoder into unbounded allocation.

use std::time::Duration;

use rand::Rng;
use tiptoe_core::batch::CompressedUrlBatch;
use tiptoe_core::config::TiptoeConfig;
use tiptoe_corpus::tzip;
use tiptoe_dpf::DpfKey;
use tiptoe_lwe::{LweCiphertext, LweParams, MatrixA};
use tiptoe_math::rng::seeded_rng;
use tiptoe_net::{
    AdmissionController, AdmissionPolicy, BreakerBank, BreakerPolicy, BreakerState, FaultPlan,
    ShardGate,
};
use tiptoe_pir::{PirClient, PirDatabase, PirServer};
use tiptoe_rlwe::RlweParams;
use tiptoe_underhood::{ClientKey, EncryptedSecret, QueryToken, Underhood};

fn test_underhood() -> Underhood {
    let lwe = LweParams::insecure_test(32, 991, 6.4);
    let rlwe = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
    Underhood::with_outer(lwe, rlwe, 44)
}

#[test]
fn garbage_ranking_answer_yields_garbage_not_panic() {
    // A malicious ranking service substitutes random words for the
    // true M·ct. The client decrypts garbage scores — allowed by the
    // threat model — but must not crash.
    let uh = test_underhood();
    let mut rng = seeded_rng(1);
    let cols = 16;
    let db = tiptoe_math::matrix::Mat::from_fn(6, cols, |_, _| rng.gen_range(0..16u32));
    let a = MatrixA::new(3, cols, uh.lwe().n);
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let hint = tiptoe_lwe::scheme::preproc::<u32>(&db, &a.row_range(0, cols), 1);
    let token = uh.generate_token(&uh.preprocess_hint(&hint), &es);
    let mut decoded = uh.decode_token::<u32>(&key, &token);

    let forged: Vec<u32> = (0..6).map(|_| rng.gen()).collect();
    let scores = uh.decrypt(&mut decoded, &forged);
    assert_eq!(scores.len(), 6);
    assert!(scores.iter().all(|&s| s < uh.lwe().p), "scores stay reduced mod p");
}

#[test]
fn garbage_pir_record_fails_to_decode_gracefully() {
    let uh = test_underhood();
    let mut rng = seeded_rng(2);
    let records: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 50]).collect();
    let db = PirDatabase::build_with_params(&records, *uh.lwe());
    let server = PirServer::new(db, 7, uh.clone());
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let token = server.generate_token(&es);
    let client = PirClient::new(&uh, &key);
    let mut decoded = client.decode_token(&token);
    let _ct = client.query(&server.public_matrix(), 8, 3, &mut rng);
    // The server answers with random words of the right length.
    let forged: Vec<u32> = (0..server.database().rows()).map(|_| rng.gen()).collect();
    let bytes =
        client.recover(server.database(), &mut decoded, &forged).expect("right-length answer");
    // Recovered garbage; decoding it as a URL batch must error (or
    // yield nothing), never panic.
    let decoded_batch = CompressedUrlBatch::decode_payload(&bytes);
    if let Ok(entries) = decoded_batch {
        assert!(entries.len() <= records.len() * 4, "bounded output from garbage");
    }

    // A *truncated* answer must surface as an error, not a panic.
    let short = &forged[..forged.len() / 2];
    let mut decoded2 = client.decode_token(&server.generate_token(&es));
    assert!(client.recover(server.database(), &mut decoded2, short).is_err());
}

#[test]
fn fuzzed_token_bytes_never_panic_the_decoder() {
    let mut rng = seeded_rng(3);
    for round in 0..300 {
        let len = rng.gen_range(0..400usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        // Either parses (structurally valid by luck) or errors — both
        // fine; panics and hangs are not.
        let _ = QueryToken::decode(&bytes);
        let _ = EncryptedSecret::decode(&bytes);
        let _ = DpfKey::decode(&bytes);
        let _ = LweCiphertext::<u64>::decode(&bytes);
        let _ = LweCiphertext::<u32>::decode(&bytes);
        let _ = tzip::decompress(&bytes);
        let _ = round;
    }
}

#[test]
fn bitflipped_valid_messages_never_panic_decoders() {
    // Start from VALID encodings and flip one random bit at a time —
    // the adversarial sweet spot for parser bugs.
    let uh = test_underhood();
    let mut rng = seeded_rng(4);
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let base = es.encode();
    for _ in 0..100 {
        let mut mutated = base.clone();
        let bit = rng.gen_range(0..mutated.len() * 8);
        mutated[bit / 8] ^= 1 << (bit % 8);
        let _ = EncryptedSecret::decode(&mutated);
    }

    let compressed = tzip::compress(b"the quick brown fox jumps over the lazy dog repeatedly");
    for _ in 0..200 {
        let mut mutated = compressed.clone();
        let bit = rng.gen_range(0..mutated.len() * 8);
        mutated[bit / 8] ^= 1 << (bit % 8);
        let _ = tzip::decompress(&mutated);
    }
}

#[test]
fn config_rejects_inconsistent_parameters() {
    // Misconfiguration must fail fast at validation, not corrupt a
    // deployment.
    let mut config = TiptoeConfig::test_small(100, 1);
    config.d_reduced = config.d_embed + 1;
    assert!(std::panic::catch_unwind(move || config.validate()).is_err());

    let mut config2 = TiptoeConfig::test_small(100, 1);
    config2.num_shards = 0;
    assert!(std::panic::catch_unwind(move || config2.validate()).is_err());
}

#[test]
fn shed_decisions_are_deterministic_for_a_given_arrival_schedule() {
    // Overload shedding must be a pure function of the arrival order:
    // replaying the same admit/depart schedule against a fresh
    // controller reproduces the same admit/shed outcome for every
    // arrival and the same shed log, arrival for arrival.
    let policy = AdmissionPolicy {
        enabled: true,
        max_inflight: 2,
        queue_depth: 1,
        deadline: Duration::from_secs(1),
    };
    let run = |seed: u64| {
        let ctrl = AdmissionController::new(policy, 2);
        let mut rng = seeded_rng(seed);
        let mut held = Vec::new();
        let mut outcomes = Vec::new();
        for _ in 0..64 {
            if rng.gen_range(0..3u32) == 0 && !held.is_empty() {
                drop(held.remove(0)); // a running query finishes
            } else {
                outcomes.push(match ctrl.try_admit() {
                    Ok(permit) => {
                        held.push(permit);
                        true
                    }
                    Err(_) => false,
                });
            }
        }
        drop(held);
        assert_eq!(ctrl.inflight(), 0, "every permit released");
        (outcomes, ctrl.shed_log(), ctrl.admitted(), ctrl.sheds())
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same schedule, same shed set");
    assert!(a.3 > 0, "the schedule must overload the capacity");
    assert!(a.2 > 0, "and still admit work");
    // A different schedule produces a different record — the log is
    // data, not a constant.
    let c = run(43);
    assert_ne!(a.1, c.1, "shed logs track the actual schedule");
}

#[test]
fn circuit_breaker_walks_closed_open_half_open_closed() {
    let policy = BreakerPolicy {
        enabled: true,
        failure_threshold: 2,
        latency_threshold: Duration::from_millis(10),
        open_cooldown: 3,
        close_after: 2,
    };
    let bank = BreakerBank::new(policy, 2);
    const FAST: Duration = Duration::from_millis(1);
    const SLOW: Duration = Duration::from_millis(50);

    // Closed: traffic flows; one failure alone does not trip.
    assert_eq!(bank.gate(0), ShardGate::Serve);
    bank.record(0, false, FAST);
    assert_eq!(bank.state(0), BreakerState::Closed);
    bank.record(0, true, FAST); // a healthy answer resets the streak
    bank.record(0, false, FAST);
    assert_eq!(bank.state(0), BreakerState::Closed);
    bank.record(0, false, FAST); // second consecutive failure trips it
    assert_eq!(bank.state(0), BreakerState::Open);

    // Open: skipped for `open_cooldown` gates, then a half-open probe.
    assert_eq!(bank.gate(0), ShardGate::Skip);
    assert_eq!(bank.gate(0), ShardGate::Skip);
    assert_eq!(bank.gate(0), ShardGate::Probe, "cooldown drained: probe the shard");
    assert_eq!(bank.state(0), BreakerState::HalfOpen);

    // A degraded probe slams it shut again...
    bank.record(0, false, FAST);
    assert_eq!(bank.state(0), BreakerState::Open);
    for _ in 0..2 {
        assert_eq!(bank.gate(0), ShardGate::Skip);
    }
    assert_eq!(bank.gate(0), ShardGate::Probe);

    // ...and `close_after` healthy probes close it.
    bank.record(0, true, FAST);
    assert_eq!(bank.state(0), BreakerState::HalfOpen);
    assert_eq!(bank.gate(0), ShardGate::Probe);
    bank.record(0, true, FAST);
    assert_eq!(bank.state(0), BreakerState::Closed);
    assert_eq!(bank.gate(0), ShardGate::Serve);

    // Straggler-awareness: slow successes count as degraded.
    bank.record(0, true, SLOW);
    bank.record(0, true, SLOW);
    assert_eq!(bank.state(0), BreakerState::Open);
    assert_eq!(bank.degraded_shards(), vec![0]);

    // The neighbor's breaker never moved.
    assert_eq!(bank.state(1), BreakerState::Closed);
    assert_eq!(bank.gate(1), ShardGate::Serve);
}

#[test]
fn breaker_rerouted_queries_stay_bit_identical() {
    // End to end: a persistently crashed shard trips its breaker, so
    // later queries skip it outright (zero attempts — no retry burn).
    // Every admitted query before, during, and after the trip must
    // return byte-for-byte the hits of fault-free serving, because the
    // searched cluster lives on a surviving shard either way.
    use tiptoe_core::instance::TiptoeInstance;
    use tiptoe_corpus::synth::{generate, CorpusConfig};
    use tiptoe_embed::text::TextEmbedder;

    const DOCS: usize = 220;
    const SEED: u64 = 51;
    let corpus = generate(&CorpusConfig::small(DOCS, SEED), 20);
    let mut plain_config = TiptoeConfig::test_small(DOCS, SEED);
    plain_config.num_shards = 3;
    plain_config.validate();
    let mut config = plain_config.clone();
    config.fault_policy = tiptoe_net::FaultPolicy::tolerant();
    config.breaker = BreakerPolicy {
        enabled: true,
        failure_threshold: 2,
        // Generous straggler threshold: debug builds must not trip
        // healthy shards on real latency.
        latency_threshold: Duration::from_secs(60),
        open_cooldown: 100, // stays open for the whole test
        close_after: 2,
    };
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    let plain = TiptoeInstance::build(&plain_config, TextEmbedder::new(config.d_embed, SEED, 0), &corpus);
    let tolerant = TiptoeInstance::build(&config, embedder, &corpus);

    let query = "museum history archive";
    let reference = plain.new_client(7).search(&plain, query, 10);
    let owner = (0..tolerant.ranking.num_shards())
        .find(|&w| {
            let (lo, hi) = tolerant.ranking.shard_clusters(w);
            (lo..hi).contains(&reference.cluster)
        })
        .expect("every cluster has a shard");
    let crashed = (owner + 1) % tolerant.ranking.num_shards();
    let plan = FaultPlan::none().crash_shard(crashed);

    let plane = tolerant.serving_plane();
    let bank = plane.breakers().expect("breakers enabled");
    assert_eq!(bank.len(), tolerant.ranking.num_shards() + 1, "ranking shards + URL server");
    let mut c = tolerant.new_client(7);
    for round in 0..4 {
        let results = c
            .try_search_served_with_faults(&tolerant, query, 10, &plan, &plane)
            .expect("admitted query completes despite the dead shard");
        let dq = results.degraded.expect("degraded state");
        assert_eq!(results.cluster, reference.cluster, "round {round}");
        assert_eq!(
            results.hits, reference.hits,
            "round {round}: rerouted query must stay bit-identical"
        );
        assert!(!dq.searched_cluster_missing);
        assert_eq!(dq.rank_report.failed_shards(), vec![crashed]);
        if round >= 2 {
            // Breaker open: the dead shard is skipped, not retried.
            assert_eq!(bank.state(crashed), BreakerState::Open, "round {round}");
            assert_eq!(
                dq.rank_report.shards[crashed].attempts, 0,
                "round {round}: open breaker spends no attempts on the dead shard"
            );
            assert_eq!(dq.rank_report.retries, 0, "round {round}: no retry burn");
        }
    }
    assert_eq!(bank.degraded_shards(), vec![crashed]);
    // The URL server stayed healthy the whole time.
    assert_eq!(bank.state(tolerant.ranking.num_shards()), BreakerState::Closed);
}
