//! The typed service plane: one dispatch engine for every
//! request/response service in the deployment.
//!
//! - [`Service`] — a typed shard service: how many shards it has, how
//!   a shard serializes its answer to the wire, how the coordinator
//!   parses and combines the parts.
//! - [`Ledger`] — the transcript-accounting middleware: exact
//!   per-phase upload/download bytes (mirrored into the metrics
//!   registry by [`crate::Transcript`]) plus per-cluster byte
//!   attribution when the service maps shards onto clusters.
//! - [`dispatch`] — the engine, and the coordinator's only fan-out.
//!   Every shard answer crosses the checksummed `TPT2` envelope
//!   ([`crate::seal_traced`]) under one attempt loop. The policy only
//!   sets that loop's knobs: a disabled policy makes one attempt per
//!   shard with no timeout, retry or hedge; an enabled one adds
//!   timeouts, retries, hedging and circuit-breaker gating. A healthy
//!   query is the fault path under [`crate::FaultPlan::none`].
//!
//! Batch coalescing composes *underneath* this plane: a service's
//! `serve` may route its shard computation through a
//! [`crate::Coalescer`], so concurrently dispatched requests share one
//! database scan while accounting, faults, and spans stay per-request.

use tiptoe_math::wire::WireError;

use crate::fault::fan_out;
use crate::overload::{BreakerBank, DeadlineBudget, ServeError, ShardGate};
use crate::{Direction, FaultPlan, FaultPolicy, FaultReport, ParallelTiming, Phase, Transcript};

/// A typed, sharded request/response service.
///
/// Implementations describe *what* each shard computes and how it
/// crosses the wire; [`dispatch`] decides *how* it runs (under which
/// fault policy, sequential or coalesced) and layers accounting and
/// spans around it.
pub trait Service {
    /// The per-query request (e.g. a query ciphertext).
    type Request: ?Sized;
    /// One shard's parsed partial answer.
    type Part;
    /// The combined response the coordinator returns.
    type Response;

    /// Name of the span wrapping the whole fan-out (e.g. `rank.answer`).
    fn outer_span(&self) -> &'static str;

    /// Name of the per-shard span (e.g. `rank.shard`), labeled with
    /// the shard index and carrying `attempts`/`hedged`/`ok`
    /// attributes.
    fn shard_span(&self) -> &'static str;

    /// Number of worker shards.
    fn num_shards(&self) -> usize;

    /// Computes shard `idx`'s answer and serializes it as a wire
    /// payload (sealed in the checksummed envelope by the dispatcher).
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the shard cannot answer within
    /// the query's deadline budget (e.g. its coalescer lane refused
    /// the request in time) — the error aborts the whole dispatch
    /// with a typed failure rather than degrading silently.
    fn serve(&self, idx: usize, req: &Self::Request) -> Result<Vec<u8>, ServeError>;

    /// Parses and validates one shard's payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated, malformed, or
    /// wrong-shaped payloads (an enabled policy retries these; under
    /// a disabled one the dispatch fails with
    /// [`ServeError::ShardFailed`]).
    fn parse(&self, idx: usize, payload: &[u8]) -> Result<Self::Part, WireError>;

    /// Combines the per-shard parts into the response. Failed shards
    /// (possible only under an enabled policy) appear as `None` and
    /// must degrade gracefully (contribute nothing).
    fn combine(&self, parts: Vec<Option<Self::Part>>) -> Self::Response;

    /// The contiguous cluster range `[lo, hi)` this service covers,
    /// if its shards partition a cluster space — enables per-cluster
    /// byte attribution in the metrics mirror.
    fn cluster_range(&self) -> Option<(usize, usize)> {
        None
    }
}

/// Transcript-accounting middleware for one dispatched phase.
///
/// Upload and download sizes are *fixed by the protocol shape*, never
/// by the outcome: a degraded query must keep the same observable wire
/// footprint as a healthy one (the privacy argument extends to
/// traffic analysis), so the caller supplies both sizes up front.
#[derive(Debug)]
pub struct Ledger<'a> {
    /// The ledger to record into.
    pub transcript: &'a Transcript,
    /// Phase of the request/response pair.
    pub phase: Phase,
    /// Phase charged for wasted (retried/hedged) response bytes.
    pub retry_phase: Phase,
    /// Exact request upload bytes.
    pub up_bytes: u64,
    /// Exact response download bytes (outcome-independent).
    pub down_bytes: u64,
}

/// Outcome of one dispatched fan-out.
#[derive(Debug)]
pub struct Dispatched<R> {
    /// The combined response.
    pub response: R,
    /// `survivors[w]` is true iff shard `w` delivered a verified
    /// answer (always all true under a disabled policy).
    pub survivors: Vec<bool>,
    /// Virtual timing: `wall` = slowest shard, `cpu` = summed work.
    pub timing: ParallelTiming,
    /// Retry/timeout/hedge accounting; `Some` iff `policy.enabled`.
    pub report: Option<FaultReport>,
}

/// Everything that shapes *how* one dispatch runs: the fault plan,
/// the recovery policy, and the optional overload-safety layers — a
/// query's deadline budget and the plane's per-shard circuit
/// breakers.
///
/// Built with [`DispatchContext::new`] plus the `with_*` builders, so
/// call sites only mention the layers they use.
#[derive(Clone, Copy)]
pub struct DispatchContext<'a> {
    /// The deterministic fault schedule.
    pub plan: &'a FaultPlan,
    /// The coordinator's recovery policy.
    pub policy: &'a FaultPolicy,
    /// The query's deadline budget, if admission control issued one.
    /// Checked before the fan-out (a query that cannot fit one more
    /// attempt fails early) and charged with the fan-out's wall time
    /// after.
    pub budget: Option<&'a DeadlineBudget>,
    /// The plane's circuit breakers, if any. Consulted and trained
    /// only under an enabled policy — with one attempt and no timeout
    /// there is no degraded mode to reroute to, so a disabled-policy
    /// dispatch neither gates nor records.
    pub breakers: Option<&'a BreakerBank>,
}

impl<'a> DispatchContext<'a> {
    /// A context with no overload layers (the pre-overload behavior).
    pub fn new(plan: &'a FaultPlan, policy: &'a FaultPolicy) -> Self {
        Self { plan, policy, budget: None, breakers: None }
    }

    /// Attaches a deadline budget.
    pub fn with_budget(mut self, budget: Option<&'a DeadlineBudget>) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a circuit-breaker bank.
    pub fn with_breakers(mut self, breakers: Option<&'a BreakerBank>) -> Self {
        self.breakers = breakers;
        self
    }
}

/// Dispatches one request through a [`Service`]: accounting, spans,
/// fan-out, fault recovery, and overload safety in one place.
///
/// Middleware order (outermost first): budget check → upload
/// accounting → outer span → breaker gating → per-shard attempt loop
/// → breaker training → combine → download + retry accounting →
/// budget charge.
///
/// `shard_base` offsets the fault plan's (and breaker bank's) shard
/// address space so several services can share one plan (ranking
/// takes `0..W`, the URL server `W`).
///
/// Without a budget, with an infallible service and with every shard
/// delivering, this function cannot fail on a valid policy — under an
/// enabled policy, failed or breaker-skipped shards only degrade the
/// combine.
///
/// # Errors
///
/// - [`ServeError::DeadlineExceeded`] if the query's budget cannot
///   fit one more attempt, or the fan-out's wall time overdraws it.
/// - [`ServeError::InvalidPolicy`] on an invalid enabled policy.
/// - [`ServeError::ShardFailed`] if a shard does not deliver under a
///   disabled policy (its single attempt crashed or failed to parse).
/// - Any typed error the service's `serve` raises.
pub fn dispatch<S: Service>(
    svc: &S,
    req: &S::Request,
    shard_base: usize,
    ctx: DispatchContext<'_>,
    ledger: Option<&Ledger<'_>>,
) -> Result<Dispatched<S::Response>, ServeError> {
    let policy = ctx.policy;
    // Budget gate: a query that cannot fit even one more attempt in
    // its remaining budget is rejected before any bytes move.
    if let Some(b) = ctx.budget {
        let remaining = b.check()?;
        if policy.enabled && remaining < policy.attempt_timeout {
            return Err(ServeError::DeadlineExceeded { budget: b.total(), spent: b.spent() });
        }
    }
    let loop_policy = if policy.enabled {
        // The remaining budget also caps the per-shard deadline, so a
        // late-phase fan-out cannot spend time the query no longer has.
        let mut p = *policy;
        if let Some(b) = ctx.budget {
            p.deadline = p.deadline.min(b.remaining().max(policy.attempt_timeout));
        }
        p
    } else {
        FaultPolicy::single_attempt()
    };

    if let Some(l) = ledger {
        l.transcript.record_up(l.phase, l.up_bytes);
        if let Some(range) = svc.cluster_range() {
            l.transcript.attribute_clusters(Direction::Upload, range, l.up_bytes);
        }
    }

    let _outer = tiptoe_obs::span(svc.outer_span());
    // Circuit-breaker gating (enabled policy only): open shards are
    // skipped up front, rerouting the query to degraded-mode
    // survivor-subset serving instead of waiting out timeouts.
    let breakers = ctx.breakers.filter(|_| policy.enabled);
    let gates: Option<Vec<ShardGate>> = breakers
        .filter(|b| b.policy().enabled)
        .map(|b| (0..svc.num_shards()).map(|i| b.gate(shard_base + i)).collect());
    let (parts, report) = fan_out(
        svc.num_shards(),
        shard_base,
        svc.shard_span(),
        ctx.plan,
        &loop_policy,
        gates.as_deref(),
        |idx| svc.serve(idx, req),
        |idx, payload| svc.parse(idx, payload),
    )?;
    // Train the breakers with every *served* outcome (skipped shards
    // saw no traffic, so there is nothing to learn).
    if let Some(bank) = breakers {
        for (i, shard) in report.shards.iter().enumerate() {
            let skipped = gates.as_ref().is_some_and(|g| g[i] == ShardGate::Skip);
            if !skipped {
                bank.record(shard_base + i, shard.ok, shard.wall);
            }
        }
    }
    // Without recovery there is no degraded mode: a client holding a
    // combined token cannot decrypt a subset of shards, so an
    // undelivered shard fails the query instead of being zero-filled.
    if !policy.enabled {
        if let Some(i) = parts.iter().position(Option::is_none) {
            return Err(ServeError::ShardFailed { shard: shard_base + i });
        }
    }
    let survivors: Vec<bool> = parts.iter().map(Option::is_some).collect();
    let timing = report.timing;
    let response = svc.combine(parts);

    if let Some(l) = ledger {
        l.transcript.record_down(l.phase, l.down_bytes);
        if let Some(range) = svc.cluster_range() {
            l.transcript.attribute_clusters(Direction::Download, range, l.down_bytes);
        }
        if report.wasted_response_bytes > 0 {
            l.transcript.record_down(l.retry_phase, report.wasted_response_bytes);
        }
    }

    // Charge the fan-out's (virtual) wall time. The charge can fail
    // *after* the work — the bytes above stay accounted (they did
    // cross the wire) but the caller gets a typed late failure
    // instead of a response past its deadline promise.
    if let Some(b) = ctx.budget {
        b.charge(timing.wall)?;
    }

    Ok(Dispatched { response, survivors, timing, report: policy.enabled.then_some(report) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptoe_math::wire::{WireReader, WireWriter};

    /// A toy service: shard `w` answers `base + w`, the coordinator
    /// sums.
    struct SumService {
        shards: usize,
        base: u64,
        clusters: Option<(usize, usize)>,
    }

    impl Service for SumService {
        type Request = u64;
        type Part = u64;
        type Response = u64;

        fn outer_span(&self) -> &'static str {
            "test.sum"
        }

        fn shard_span(&self) -> &'static str {
            "test.sum_shard"
        }

        fn num_shards(&self) -> usize {
            self.shards
        }

        fn serve(&self, idx: usize, req: &u64) -> Result<Vec<u8>, ServeError> {
            let mut w = WireWriter::new();
            w.put_u64(self.base + idx as u64 + req);
            Ok(w.finish())
        }

        fn parse(&self, _idx: usize, payload: &[u8]) -> Result<u64, WireError> {
            let mut r = WireReader::new(payload);
            let v = r.get_u64()?;
            r.finish()?;
            Ok(v)
        }

        fn combine(&self, parts: Vec<Option<u64>>) -> u64 {
            parts.into_iter().flatten().sum()
        }

        fn cluster_range(&self) -> Option<(usize, usize)> {
            self.clusters
        }
    }

    /// Display names and `(attempts, hedged, ok)` attributes of the
    /// shard spans under the `test.sum` span parented by the span
    /// named `root`.
    fn shard_spans(root: &str) -> Vec<(String, [Option<u64>; 3])> {
        let spans = tiptoe_obs::spans_snapshot();
        let parent_named = |name: &str, parent: Option<u64>| {
            spans.iter().find(|s| s.name == name && s.parent == parent).map(|s| s.id)
        };
        let root_id = spans.iter().find(|s| s.name == root).map(|s| s.id);
        let Some(outer) = parent_named("test.sum", root_id) else { return Vec::new() };
        let attr =
            |s: &tiptoe_obs::SpanRecord, k| s.attrs.iter().find(|(n, _)| *n == k).map(|a| a.1);
        spans
            .iter()
            .filter(|s| s.parent == Some(outer))
            .map(|s| (s.display_name(), [attr(s, "attempts"), attr(s, "hedged"), attr(s, "ok")]))
            .collect()
    }

    #[test]
    fn healthy_and_faulty_paths_agree_on_benign_plans() {
        use tiptoe_obs::recorder::{self, EventKind};
        let svc = SumService { shards: 4, base: 100, clusters: None };
        let plan = FaultPlan::none();
        tiptoe_obs::enable();
        // One traced query per policy: the response, the per-shard
        // spans, and the recorder's `(shard, flags, attempts)` words.
        let run = |policy: &FaultPolicy, root: &'static str| {
            let scope = tiptoe_obs::query_scope();
            let d = {
                let _root = tiptoe_obs::span(root);
                dispatch(&svc, &1, 0, DispatchContext::new(&plan, policy), None)
                    .expect("benign dispatch")
            };
            let outcomes: Vec<(u64, u64, u64)> = recorder::timeline(scope.id())
                .iter()
                .filter(|e| e.kind == EventKind::ShardOutcome)
                .map(|e| (e.a, e.b, e.c))
                .collect();
            (d, shard_spans(root), outcomes)
        };
        let (healthy, healthy_spans, healthy_outcomes) =
            run(&FaultPolicy::default(), "test.healthy");
        let (faulty, faulty_spans, faulty_outcomes) = run(&FaultPolicy::tolerant(), "test.faulty");
        tiptoe_obs::disable();

        assert_eq!(healthy.response, 101 + 102 + 103 + 104);
        assert_eq!(healthy.response, faulty.response);
        assert_eq!(healthy.survivors, vec![true; 4]);
        assert_eq!(faulty.survivors, vec![true; 4]);
        assert!(healthy.report.is_none());
        assert!(faulty.report.expect("faulty path reports").all_ok());

        // Same span shape: `test.sum_shard[i]`, one attempt, no hedge,
        // delivered.
        let want: Vec<_> = (0..4)
            .map(|i| (format!("test.sum_shard[{i}]"), [Some(1), Some(0), Some(1)]))
            .collect();
        assert_eq!(healthy_spans, want);
        assert_eq!(faulty_spans, want);
        // Same recorder words: shard i delivered (flags 1) on one
        // attempt.
        let want: Vec<_> = (0..4).map(|i| (i, 1, 1)).collect();
        assert_eq!(healthy_outcomes, want);
        assert_eq!(faulty_outcomes, want);
    }

    /// [`SumService`] whose shard `bad` appends a byte its own parser
    /// rejects.
    struct Misframed {
        inner: SumService,
        bad: usize,
    }

    impl Service for Misframed {
        type Request = u64;
        type Part = u64;
        type Response = u64;

        fn outer_span(&self) -> &'static str {
            self.inner.outer_span()
        }

        fn shard_span(&self) -> &'static str {
            self.inner.shard_span()
        }

        fn num_shards(&self) -> usize {
            self.inner.num_shards()
        }

        fn serve(&self, idx: usize, req: &u64) -> Result<Vec<u8>, ServeError> {
            let mut payload = self.inner.serve(idx, req)?;
            if idx == self.bad {
                payload.push(0);
            }
            Ok(payload)
        }

        fn parse(&self, idx: usize, payload: &[u8]) -> Result<u64, WireError> {
            self.inner.parse(idx, payload)
        }

        fn combine(&self, parts: Vec<Option<u64>>) -> u64 {
            self.inner.combine(parts)
        }
    }

    #[test]
    fn undelivered_shards_fail_a_disabled_policy_with_a_typed_error() {
        let svc = Misframed { inner: SumService { shards: 3, base: 10, clusters: None }, bad: 1 };
        let plan = FaultPlan::none();
        let t = Transcript::new();
        let ledger = Ledger {
            transcript: &t,
            phase: Phase::Ranking,
            retry_phase: Phase::RankingRetries,
            up_bytes: 64,
            down_bytes: 32,
        };
        let disabled = FaultPolicy::default();
        let ctx = DispatchContext::new(&plan, &disabled);
        let err = dispatch(&svc, &0, 5, ctx, Some(&ledger)).expect_err("misframed shard");
        assert_eq!(err, ServeError::ShardFailed { shard: 6 });
        assert_eq!(t.phase_total(Phase::Ranking, Direction::Download), 0, "no answer returned");

        // A crashed shard has no timeout to wait out: it fails the
        // same way instead of being zero-filled.
        let crash = FaultPlan::none().crash_shard(2);
        let healthy = SumService { shards: 3, base: 10, clusters: None };
        let err = dispatch(&healthy, &0, 0, DispatchContext::new(&crash, &disabled), None)
            .expect_err("crashed shard");
        assert_eq!(err, ServeError::ShardFailed { shard: 2 });

        // An enabled policy retries the misframed shard, then degrades.
        let mut tolerant = FaultPolicy::tolerant();
        tolerant.hedge_after = None;
        let d = dispatch(&svc, &0, 5, DispatchContext::new(&plan, &tolerant), None)
            .expect("degraded dispatch");
        assert_eq!(d.response, 10 + 12);
        assert_eq!(d.survivors, vec![true, false, true]);
        assert_eq!(d.report.expect("report").corrupted, tolerant.max_retries + 1);
    }

    #[test]
    fn failed_shards_degrade_the_combine_and_report() {
        let svc = SumService { shards: 3, base: 10, clusters: None };
        let plan = FaultPlan::none().crash_shard(1);
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        let d = dispatch(&svc, &0, 0, DispatchContext::new(&plan, &policy), None)
            .expect("dispatch");
        assert_eq!(d.response, 10 + 12, "crashed shard contributes nothing");
        assert_eq!(d.survivors, vec![true, false, true]);
        let report = d.report.expect("report");
        assert_eq!(report.failed_shards(), vec![1]);
        assert!(d.timing.wall >= policy.attempt_timeout);
    }

    #[test]
    fn ledger_records_fixed_sizes_and_retry_bytes() {
        let t = Transcript::new();
        let svc = SumService { shards: 2, base: 0, clusters: None };
        let ledger = Ledger {
            transcript: &t,
            phase: Phase::Ranking,
            retry_phase: Phase::RankingRetries,
            up_bytes: 640,
            down_bytes: 320,
        };
        // A corrupt first response wastes bytes into the retry phase.
        let plan = FaultPlan::none().with_fault(0, 0, crate::FaultKind::Corrupt);
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        let d = dispatch(&svc, &7, 0, DispatchContext::new(&plan, &policy), Some(&ledger))
            .expect("dispatch");
        assert_eq!(d.response, 7 + 8);
        assert_eq!(t.phase_total(Phase::Ranking, Direction::Upload), 640);
        assert_eq!(t.phase_total(Phase::Ranking, Direction::Download), 320);
        assert_eq!(
            t.phase_total(Phase::RankingRetries, Direction::Download),
            d.report.expect("report").wasted_response_bytes
        );
    }

    #[test]
    fn cluster_attribution_splits_bytes_exactly() {
        let t = Transcript::new();
        let svc = SumService { shards: 2, base: 0, clusters: Some((40, 43)) };
        let ledger = Ledger {
            transcript: &t,
            phase: Phase::Ranking,
            retry_phase: Phase::RankingRetries,
            up_bytes: 10,
            down_bytes: 0,
        };
        let plan = FaultPlan::none();
        let policy = FaultPolicy::default();
        dispatch(&svc, &0, 0, DispatchContext::new(&plan, &policy), Some(&ledger))
            .expect("dispatch");
        let m = tiptoe_obs::metrics();
        let per_cluster: Vec<u64> = (40..43)
            .map(|c| m.counter_with("net.cluster_bytes_up", Some(format!("c{c}"))).get())
            .collect();
        // 10 bytes over 3 clusters: 4 + 3 + 3, summing exactly.
        assert_eq!(per_cluster.iter().sum::<u64>(), 10);
        assert!(per_cluster.iter().all(|&b| b == 3 || b == 4), "{per_cluster:?}");
    }

    #[test]
    fn exhausted_budgets_reject_before_any_work() {
        use std::time::Duration;
        let svc = SumService { shards: 2, base: 0, clusters: None };
        let plan = FaultPlan::none();
        let policy = FaultPolicy::tolerant();
        let t = Transcript::new();
        let ledger = Ledger {
            transcript: &t,
            phase: Phase::Ranking,
            retry_phase: Phase::RankingRetries,
            up_bytes: 100,
            down_bytes: 100,
        };
        // Less than one attempt_timeout left: reject up front.
        let budget = DeadlineBudget::new(Duration::from_millis(300));
        budget.charge(Duration::from_millis(100)).expect("within budget");
        let ctx = DispatchContext::new(&plan, &policy).with_budget(Some(&budget));
        let err = dispatch(&svc, &1, 0, ctx, Some(&ledger)).expect_err("budget too thin");
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err:?}");
        assert_eq!(t.grand_total(), 0, "rejected queries move no bytes");
    }

    #[test]
    fn dispatch_charges_its_wall_time_to_the_budget() {
        use std::time::Duration;
        let svc = SumService { shards: 2, base: 0, clusters: None };
        let plan = FaultPlan::none().straggle_shard(0, 1.0, Duration::from_millis(40));
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        let budget = DeadlineBudget::new(Duration::from_secs(2));
        let ctx = DispatchContext::new(&plan, &policy).with_budget(Some(&budget));
        let d = dispatch(&svc, &1, 0, ctx, None).expect("within budget");
        assert_eq!(d.response, 1 + 2);
        assert!(
            budget.spent() >= Duration::from_millis(40),
            "fan-out wall {:?} charged to the budget (spent {:?})",
            d.timing.wall,
            budget.spent()
        );
    }

    #[test]
    fn open_breakers_skip_shards_and_degrade_the_combine() {
        use crate::overload::{BreakerPolicy, BreakerState};
        use std::time::Duration;
        let svc = SumService { shards: 3, base: 10, clusters: None };
        let plan = FaultPlan::none();
        let mut policy = FaultPolicy::tolerant();
        policy.hedge_after = None;
        let breakers = BreakerBank::new(
            BreakerPolicy { enabled: true, ..BreakerPolicy::default() },
            svc.num_shards(),
        );
        // Trip shard 1's breaker by hand.
        for _ in 0..3 {
            breakers.record(1, false, Duration::from_millis(1));
        }
        assert_eq!(breakers.state(1), BreakerState::Open);
        let ctx = DispatchContext::new(&plan, &policy).with_breakers(Some(&breakers));
        let d = dispatch(&svc, &0, 0, ctx, None).expect("dispatch");
        assert_eq!(d.response, 10 + 12, "open shard contributes nothing");
        assert_eq!(d.survivors, vec![true, false, true]);
        let report = d.report.expect("report");
        assert_eq!(report.shards[1].attempts, 0, "skipped, not timed out");
        assert_eq!(report.shards[1].wall, Duration::ZERO);
        // The skip was fast: no timeout burned on the known-bad shard.
        assert!(d.timing.wall < policy.attempt_timeout);
        // The healthy shards' successes trained their breakers closed.
        assert_eq!(breakers.state(0), BreakerState::Closed);
        assert_eq!(breakers.state(2), BreakerState::Closed);
    }
}
