//! Chaos and property-fuzz suite for the overload-safe serving plane.
//!
//! Every test here injects a failure the plane must *contain*:
//! coalescer lanes crash mid-flush under concurrent submitters, whole
//! availability zones of shards crash together, and more clients
//! arrive than the admission capacity can hold. The invariants are always the same —
//! no query is lost, none is duplicated, none is answered
//! incorrectly, and every failure surfaces as a typed error rather
//! than a panic.
//!
//! `TIPTOE_CHAOS_SEED` reseeds the fuzzed schedules (CI sweeps it);
//! unset, the suite runs at the default seed.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use tiptoe_core::client::TiptoeClient;
use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_net::{CoalescePolicy, Coalescer, FaultPlan, ServeError, MAX_LANE_RETRIES};

const DOCS: usize = 220;
const SEED: u64 = 51;

/// The fuzz seed: `TIPTOE_CHAOS_SEED` if set (CI sweeps a small
/// matrix of them), else the workspace default.
fn chaos_seed() -> u64 {
    std::env::var("TIPTOE_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(SEED)
}

/// SplitMix64: one multiply-xor chain per draw, so fuzzed schedules
/// are reproducible from (seed, index) without shared RNG state.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn build(fault_tolerant: bool, num_shards: usize) -> TiptoeInstance<TextEmbedder> {
    let corpus = generate(&CorpusConfig::small(DOCS, SEED), 20);
    let mut config = TiptoeConfig::test_small(DOCS, SEED);
    config.num_shards = num_shards;
    if fault_tolerant {
        config.fault_policy = tiptoe_net::FaultPolicy::tolerant();
    }
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    TiptoeInstance::build(&config, embedder, &corpus)
}

fn client(instance: &TiptoeInstance<TextEmbedder>) -> TiptoeClient {
    instance.new_client(7)
}

const QUERIES: [&str; 4] = [
    "museum history archive",
    "health doctor symptoms",
    "travel island beach",
    "recipe kitchen cooking",
];

/// Which ranking shard owns `cluster`.
fn owner_of<E: tiptoe_embed::Embedder>(instance: &TiptoeInstance<E>, cluster: usize) -> usize {
    (0..instance.ranking.num_shards())
        .find(|&w| {
            let (lo, hi) = instance.ranking.shard_clusters(w);
            (lo..hi).contains(&cluster)
        })
        .expect("every cluster has a shard")
}

#[test]
fn lane_crash_mid_flush_loses_no_request() {
    // The first two flushes panic inside the batched kernel while 16
    // submitters race. Crashed batches are failed and re-enqueued by
    // their own submitters, so with MAX_LANE_RETRIES > 2 every request
    // must still come back — exactly once, with its own answer.
    let crashes_left = AtomicU64::new(2);
    let policy = CoalescePolicy {
        max_batch: 4,
        max_wait: Duration::from_millis(5),
        queue_depth: 64,
        adaptive: false,
    };
    let c = Coalescer::new(policy, |reqs: Vec<u64>| {
        let crash = crashes_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| Some(v.saturating_sub(1)))
            .expect("update");
        if crash > 0 {
            panic!("injected mid-flush lane crash");
        }
        reqs.into_iter().map(|r| r.wrapping_mul(3).wrapping_add(1)).collect()
    });
    let crash_counter_before = tiptoe_obs::metrics().counter("net.coalesce.lane_crashes").get();
    let delivered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..16u64 {
            let c = &c;
            let delivered = &delivered;
            scope.spawn(move || {
                let resp = c
                    .submit_within(i, Duration::from_secs(60))
                    .expect("two lane crashes are within the retry budget");
                assert_eq!(
                    resp,
                    i.wrapping_mul(3).wrapping_add(1),
                    "response must belong to this request, not a co-batched one"
                );
                delivered.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(delivered.load(Ordering::SeqCst), 16, "no request lost across lane crashes");
    assert_eq!(crashes_left.load(Ordering::SeqCst), 0, "both injected crashes fired");
    assert!(
        tiptoe_obs::metrics().counter("net.coalesce.lane_crashes").get()
            >= crash_counter_before + 2
    );
}

#[test]
fn fuzzed_lane_crashes_answer_correctly_or_fail_typed() {
    // Seeded fuzz: every 4th-ish flush (by SplitMix64 over the flush
    // index) crashes. A submitter either gets its own correct answer
    // or — after MAX_LANE_RETRIES + 1 consecutive crashed flushes — a
    // typed LaneFailed. Nothing panics, nothing is miscounted.
    let seed = chaos_seed();
    let flush_idx = AtomicU64::new(0);
    let policy = CoalescePolicy {
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        queue_depth: 64,
        adaptive: false,
    };
    let c = Coalescer::new(policy, |reqs: Vec<u64>| {
        let i = flush_idx.fetch_add(1, Ordering::SeqCst);
        if splitmix(seed ^ i).is_multiple_of(4) {
            panic!("fuzzed lane crash at flush {i}");
        }
        reqs.into_iter().map(|r| r ^ 0xABCD).collect()
    });
    let ok = AtomicUsize::new(0);
    let lane_failed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..24u64 {
            let (c, ok, lane_failed) = (&c, &ok, &lane_failed);
            scope.spawn(move || match c.submit_within(i, Duration::from_secs(60)) {
                Ok(resp) => {
                    assert_eq!(resp, i ^ 0xABCD, "answers never cross requests");
                    ok.fetch_add(1, Ordering::SeqCst);
                }
                Err(ServeError::LaneFailed { crashes }) => {
                    assert_eq!(crashes, MAX_LANE_RETRIES + 1, "gave up exactly at the bound");
                    lane_failed.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => panic!("unexpected error kind under lane fuzz: {e:?}"),
            });
        }
    });
    let (ok, failed) = (ok.load(Ordering::SeqCst), lane_failed.load(Ordering::SeqCst));
    assert_eq!(ok + failed, 24, "every request accounted for: answered or typed-failed");
    assert!(ok > 0, "a 1-in-4 crash rate must let most requests through");
}

#[test]
fn reactor_crash_mid_flush_loses_no_request_and_duplicates_none() {
    // Kill the coalescer's timer thread at its worst moment — after it
    // pops due deadlines but before it fires them — while 12
    // submitters race in small waves (so some batches are partial and
    // depend on the timer). Every request must come back exactly once
    // with its own answer: parked waiters' fallback timeouts drain any
    // batch the dead timer abandoned, and the generation protocol
    // ensures a request drained by one path can't be re-flushed by
    // another.
    let served = AtomicUsize::new(0);
    let policy = CoalescePolicy {
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        queue_depth: 64,
        adaptive: false,
    };
    let c = Coalescer::new(policy, |reqs: Vec<u64>| {
        served.fetch_add(reqs.len(), Ordering::SeqCst);
        reqs.into_iter().map(|r| r.wrapping_mul(7).wrapping_add(3)).collect()
    });
    let reactor_crashes_before =
        tiptoe_obs::metrics().counter("net.coalesce.reactor_crashes").get();
    tiptoe_net::chaos_inject_reactor_panic();
    let delivered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..12u64 {
            let (c, delivered) = (&c, &delivered);
            scope.spawn(move || {
                // Staggered arrivals: three waves of four, so the
                // injected crash lands while partial batches are
                // waiting on the (dead) timer.
                std::thread::sleep(Duration::from_micros(300 * (i / 4)));
                let resp = c
                    .submit_within(i, Duration::from_secs(60))
                    .expect("a reactor crash must not fail requests");
                assert_eq!(resp, i.wrapping_mul(7).wrapping_add(3), "answer belongs to request");
                delivered.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(delivered.load(Ordering::SeqCst), 12, "no request lost to the timer crash");
    assert_eq!(served.load(Ordering::SeqCst), 12, "no request duplicated into a second flush");
    // The injected panic actually fired and was contained (the
    // reactor thread restarts its loop rather than dying silently).
    assert!(
        tiptoe_obs::metrics().counter("net.coalesce.reactor_crashes").get()
            > reactor_crashes_before,
        "chaos injection must have crashed the reactor"
    );
    // The plane still coalesces afterwards: a fresh submit succeeds.
    assert_eq!(c.submit_within(100, Duration::from_secs(60)).expect("post-crash"), 703);
}

#[test]
fn az_correlated_crash_degrades_exactly_the_zone() {
    // One availability zone (two of four shards) crashes as a unit.
    // Queries whose searched cluster lives on a surviving shard must
    // return bit-identical hits to fault-free serving; queries whose
    // cluster lived in the dead zone must say so and score zeros —
    // never garbage, never a panic.
    let plain = build(false, 4);
    let tolerant = build(true, 4);
    let query = QUERIES[0];
    let reference = client(&plain).search(&plain, query, 10);
    let owner = owner_of(&tolerant, reference.cluster);
    let w = tolerant.ranking.num_shards();

    // Zone A: the two shards after the owner — the searched cluster
    // survives the outage.
    let mut zone = [(owner + 1) % w, (owner + 2) % w];
    zone.sort_unstable();
    let plan = FaultPlan::none().correlated_crash(&zone);
    assert_eq!(plan.correlated_groups(), &[zone.to_vec()]);
    let mut dead_clusters: Vec<usize> = zone
        .iter()
        .flat_map(|&s| {
            let (lo, hi) = tolerant.ranking.shard_clusters(s);
            lo..hi
        })
        .collect();
    dead_clusters.sort_unstable();

    let results = client(&tolerant).search_with_faults(&tolerant, query, 10, &plan);
    let dq = results.degraded.expect("degraded state");
    assert_eq!(dq.rank_report.failed_shards(), zone.to_vec(), "exactly the zone fails");
    assert_eq!(dq.missing_clusters, dead_clusters, "missing set is the zone's cluster union");
    assert!(!dq.searched_cluster_missing);
    assert_eq!(results.cluster, reference.cluster);
    assert_eq!(results.hits, reference.hits, "survivor-zone query stays bit-identical");

    // Zone B contains the owner: the client must report the searched
    // cluster missing and surface only zero scores.
    let mut owner_zone = [owner, (owner + 1) % w];
    owner_zone.sort_unstable();
    let plan = FaultPlan::none().correlated_crash(&owner_zone);
    let results = client(&tolerant).search_with_faults(&tolerant, query, 10, &plan);
    let dq = results.degraded.expect("degraded state");
    assert!(dq.searched_cluster_missing);
    assert!(dq.missing_clusters.contains(&results.cluster));
    for hit in &results.hits {
        assert_eq!(hit.score, 0.0, "a dead zone must not fabricate scores");
    }
}

#[test]
fn overload_sheds_with_typed_errors_and_conserves_every_query() {
    // Admission control at an operator-pinned capacity of 2. Phase 1
    // is deterministic: saturate the plane by hand, observe a typed
    // shed that consumes no client token, release, observe admission.
    // Phase 2 is chaotic: 8 clients arrive together against capacity
    // 2; whatever interleaving the scheduler picks, admitted + shed
    // must equal 8, every admitted answer must be bit-identical to
    // unloaded serving, and the controller's ledger must agree.
    let corpus = generate(&CorpusConfig::small(DOCS, SEED), 20);
    let mut config = TiptoeConfig::test_small(DOCS, SEED);
    config.num_shards = 3;
    config.admission.enabled = true;
    config.admission.max_inflight = 2; // operator override: skip derivation
    config.admission.queue_depth = 0;
    config.admission.deadline = Duration::from_secs(60); // debug-build headroom
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    let instance = TiptoeInstance::build(&config, embedder, &corpus);

    let references: Vec<Vec<_>> =
        QUERIES.iter().map(|q| client(&instance).search(&instance, q, 10).hits).collect();

    let plane = instance.serving_plane();
    let ctrl = plane.admission().expect("admission enabled");
    assert_eq!(ctrl.capacity(), 2, "operator override pins the capacity");

    // Phase 1: deterministic shed.
    let permits: Vec<_> = (0..2).map(|_| ctrl.try_admit().expect("capacity free")).collect();
    let mut c = client(&instance);
    let tokens_before = c.tokens_available();
    let sheds_before = instance.transcript.sheds();
    let err = c
        .try_search_served(&instance, QUERIES[0], 10, &plane)
        .expect_err("a saturated plane must shed");
    assert_eq!(err, ServeError::Overloaded { inflight: 2, capacity: 2 });
    assert_eq!(c.tokens_available(), tokens_before, "a shed query consumes no token");
    assert_eq!(instance.transcript.sheds(), sheds_before + 1, "the shed reaches the transcript");
    drop(permits);
    let ok = c.try_search_served(&instance, QUERIES[0], 10, &plane).expect("freed capacity");
    assert_eq!(ok.hits, references[0], "post-shed admission serves normally");

    // Phase 2: 2x overload chaos.
    let barrier = Barrier::new(8);
    let ok_count = AtomicUsize::new(0);
    let shed_count = AtomicUsize::new(0);
    let admitted_before = ctrl.admitted();
    let ctrl_sheds_before = ctrl.sheds();
    let transcript_sheds_before = instance.transcript.sheds();
    std::thread::scope(|scope| {
        for i in 0..8usize {
            let (instance, plane, barrier) = (&instance, &plane, &barrier);
            let (references, ok_count, shed_count) = (&references, &ok_count, &shed_count);
            scope.spawn(move || {
                let mut c = instance.new_client(100 + i as u64);
                barrier.wait();
                match c.try_search_served(instance, QUERIES[i % 4], 10, plane) {
                    Ok(r) => {
                        assert_eq!(
                            r.hits,
                            references[i % 4],
                            "admitted queries stay bit-identical under overload"
                        );
                        ok_count.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(ServeError::Overloaded { inflight, capacity }) => {
                        assert_eq!(capacity, 2);
                        assert!(inflight >= capacity);
                        shed_count.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => panic!("unexpected error kind under overload: {e:?}"),
                }
            });
        }
    });
    let (ok, shed) = (ok_count.load(Ordering::SeqCst), shed_count.load(Ordering::SeqCst));
    assert_eq!(ok + shed, 8, "every arrival accounted for: answered or shed, none lost");
    assert!(ok >= 1, "the first arrivals must be admitted");
    assert_eq!(ctrl.admitted() - admitted_before, ok as u64, "controller agrees on admissions");
    assert_eq!(ctrl.sheds() - ctrl_sheds_before, shed as u64, "controller agrees on sheds");
    assert_eq!(
        instance.transcript.sheds() - transcript_sheds_before,
        shed as u64,
        "transcript agrees on sheds"
    );
    assert_eq!(ctrl.inflight(), 0, "every permit released");
    assert_eq!(ctrl.shed_log().len() as u64, ctrl.sheds(), "shed log covers every shed");
}
